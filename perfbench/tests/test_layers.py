"""The traced run's wrappers change no simulated result and no kernel lane."""

from repro.balance.base import Balancer
from repro.balance.strategies import RandomBalancer
from repro.bench import harness
from repro.bench.harness import APPS, describe
import repro.core.messages
import repro.util.sizing

import checks
from layers import LayerTracer


def _summary(desc):
    return checks.simulated(checks.summarize(harness.execute_descriptor(desc)))


def test_traced_run_is_identical_and_attributed():
    desc = describe("fib", "ncube2", 16, n=10, threshold=3, seed=5)
    untraced = _summary(desc)
    original = repro.util.sizing.payload_nbytes
    runner = APPS["fib"].runner
    tracer = LayerTracer()
    tracer.install()
    try:
        # Names bound at import time elsewhere are rebound too, and an
        # inherited balancer hook is still the base class's function.
        assert repro.core.messages.payload_nbytes is repro.util.sizing.payload_nbytes
        assert repro.util.sizing.payload_nbytes is not original
        assert RandomBalancer.note_load is Balancer.note_load
        # The app registry's runners are wrapped as well.
        assert APPS["fib"].runner is not runner
        tracer.start()
        traced = _summary(desc)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert repro.util.sizing.payload_nbytes is original
    assert repro.core.messages.payload_nbytes is original
    assert APPS["fib"].runner is runner
    assert traced == untraced
    layers = tracer.report()
    for layer in ("core", "sim", "apps", "machine", "balance", "bench"):
        self_s, calls = layers[layer]
        assert self_s > 0 and calls > 0, layer
    assert layers["faults"] == (0.0, 0)
