"""Host-time benchmark of the simulator: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

The workload's run list (see ``workloads.py``) is built from ``--seed``
and executed serially through the public harness
(:func:`repro.bench.harness.execute_descriptor`: no result cache, no
worker pool) in whole rounds until ``--seconds`` are used up.  Each
round's times are scaled to the reference host speed (``calibrate.py``);
the end-to-end times are medians over the rounds.  Every run is checked
against independent reference computations after the timed rounds.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` adds one
traced round and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

_SCRIPT_START_CPU = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # One core's worth of load: numpy's BLAS would otherwise start a
    # thread per core at import, which only adds noise to the set-up time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"

    # ---------------------------------------------------------------- set-up
    import repro
    from repro.bench import harness

    import calibrate
    import checks
    import report
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; options: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    runs = workloads.WORKLOADS[args.workload](args.seed)
    # Process CPU seconds, raw: over fresh processes on the shared host the
    # set-up's CPU time spread less than its wall time, and scaling it by
    # the calibration slice (whose speed does not track import time) made
    # the spread wider.
    setup_s = time.process_time() - _SCRIPT_START_CPU

    # ----------------------------------------------------------- timed rounds
    # Calibration slices before each run: one per 0.2 s the run took in
    # the previous round, so the slices sample the host in proportion to
    # where the round spends its time.
    slice_counts = [1] * len(runs)

    def one_round():
        """Run the list once: per-run (wall, cpu), summaries, and the mean
        CPU seconds of the round's calibration slices."""
        times, summaries, slices = [], [], []
        for i, run in enumerate(runs):
            # Each run starts from a collected heap, as in a fresh worker:
            # the previous run's kernel graph is freed outside the timing.
            gc.collect()
            for _ in range(slice_counts[i]):
                c0 = time.process_time()
                calibrate.slice_()
                slices.append(time.process_time() - c0)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                # Looked up on the module, so a traced round enters the
                # tracer's wrapper.
                row = harness.execute_descriptor(run.desc)
            except Exception:  # a failed run is counted, not fatal
                row = None
                traceback.print_exc()
            cpu = time.process_time() - c0
            times.append((time.perf_counter() - t0, cpu))
            slice_counts[i] = 1 + int(cpu / 0.2)
            summaries.append(None if row is None else checks.summarize(row))
            del row
        return times, summaries, statistics.fmean(slices)

    walls, cpus, speeds, rounds = [], [], [], []
    began = time.perf_counter()
    while True:
        times, summaries, slice_s = one_round()
        # The host's speed over this round, relative to the reference.
        speed = calibrate.REFERENCE_S / slice_s
        walls.append(sum(w for w, _ in times) * speed)
        cpus.append(sum(c for _, c in times) * speed)
        speeds.append(speed)
        rounds.append([s and checks.simulated(s) for s in summaries])
        if len(rounds) == 1:
            first = summaries
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)
    cpu_s = statistics.median(cpus)
    execs = sum(s["execs"] for s in first if s is not None)

    traced = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        try:
            tracer.start()
            times, traced_summaries, slice_s = one_round()
            tracer.stop()
        finally:
            tracer.uninstall()
        # Layer times read in reference-host seconds, like cpu_s.
        speed = calibrate.REFERENCE_S / slice_s
        layers = {name: (self_s * speed, calls)
                  for name, (self_s, calls) in tracer.report().items()}
        traced = (sum(c for _, c in times) * speed, layers, traced_summaries)

    # ---------------------------------------------------------------- checks
    kinds = [run.check for run in runs]
    problems = []
    failed = 0
    for i, run in enumerate(runs):
        if first[i] is None:
            bad = ["the run raised an exception"]
        else:
            bad = checks.check(run.check,
                               checks.reference_answer(run.check, run.ref),
                               first[i])
        for r, fingerprint in enumerate(rounds[1:], start=2):
            if fingerprint[i] != rounds[0][i]:
                bad.append(f"round {r} differs from round 1")
        if bad:
            failed += len(rounds)
            problems.append(f"{run.desc.label()}: " + "; ".join(bad))
    correct = failed == 0
    if traced is not None:
        for i, run in enumerate(runs):
            summary = traced[2][i]
            if (summary and checks.simulated(summary)) != rounds[0][i]:
                correct = False
                problems.append(f"{run.desc.label()}: the traced run's "
                                "simulated statistics differ")
    for line in problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    # --------------------------------------------------------------- metrics
    if args.trace:
        traced_cpu, layer_report, _ = traced
        done = [(k, s) for k, s in zip(kinds, first) if s is not None]
        values = report.model_stats([k for k, _ in done], [s for _, s in done])
        values.update(report.layer_stats(layer_report))
        values["traced.cpu_s"] = traced_cpu
        values["trace_overhead_s"] = traced_cpu - cpu_s
        metrics = report.render(values, report.PER_LAYER)
    else:
        metrics = report.render({
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "execs_per_s": execs / cpu_s,
            "peak_rss_mb": peak_rss_mb,
        }, report.END_TO_END)

    digest = hashlib.sha256(repr(rounds[0]).encode()).hexdigest()[:16]
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} runs x "
          f"{len(rounds)} rounds, {execs} executions per round, "
          f"simulated-results digest {digest}")
    print(f"host speed per round (1 = reference): "
          f"{' '.join(f'{v:.3f}' for v in speeds)}")
    for line in report.text_lines(metrics):
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(runs) * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
