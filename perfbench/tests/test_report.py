"""The report names every layer and refuses to leave a metric out."""

import report
from layers import LAYERS


def test_every_layer_reports_self_time():
    for layer in LAYERS:
        assert f"{layer}.self_s" in report.PER_LAYER


def test_render_refuses_a_missing_metric():
    values = {name: 1.0 for name in report.END_TO_END}
    rendered = report.render(values, report.END_TO_END)
    assert {k: v["unit"] for k, v in rendered.items()} == {
        k: u for k, (u, _) in report.END_TO_END.items()}
    del values["cpu_s"]
    try:
        report.render(values, report.END_TO_END)
    except KeyError:
        pass
    else:
        raise AssertionError("render accepted a missing metric")
