"""Per-run summaries and correctness checks, all outside the timed region.

:func:`summarize` reduces one :class:`~repro.bench.harness.MeasureRow` to
plain numbers right after its run, so the benchmark never holds a kernel
graph across runs.  :func:`check` then compares a summary with the
independent reference computations of :mod:`reference` and with the
method's own invariants.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import reference

#: Kernel lane switches that must read the same with and without tracing.
#: A wrapper that broke the balancer-hook identity checks would move the
#: traced run off the fast lanes without changing any simulated number.
LANE_FLAGS = ("_turn_ok", "_burst_ok", "_elide_ok", "_note_load_is_base",
              "_seed_hook_is_base")


def summarize(row: Any) -> Dict[str, Any]:
    """Plain-data projection of one run: every simulated statistic used by
    the checks, the per-layer counts and the model metrics."""
    st = row.stats
    rows = st.pe_rows
    kernel = row.result.kernel
    log = getattr(kernel, "events", None)
    answer = row.answer
    online = answer.get("online") if isinstance(answer, dict) else None
    return {
        "vtime": row.vtime,
        "events": row.result.events,
        "truncated": row.truncated,
        "num_pes": st.num_pes,
        "execs": st.total_msgs_executed + st.total_system_executed,
        "seeds_executed": sum(r.seeds_executed for r in rows),
        "msgs_sent": sum(r.msgs_sent for r in rows),
        "seeds_created": sum(r.seeds_created for r in rows),
        "bytes_sent": st.total_bytes_sent,
        "busy": sum(r.busy_time for r in rows),
        "util": st.mean_utilization,
        "max_pool": st.pool_high_water,
        "steal_attempts": sum(r.steal_attempts for r in rows),
        "steals_satisfied": sum(r.steals_satisfied for r in rows),
        "counted_sent": st.counted_sent,
        "counted_processed": st.counted_processed,
        "hops": st.total_message_hops,
        "qd_waves": st.qd_waves,
        "mono_sent": st.mono_updates_sent,
        "mono_applied": st.mono_updates_applied,
        "lb_control": st.lb_control_msgs,
        "lb_remote": st.lb_seeds_remote,
        "retries": st.retries,
        "dropped": st.msgs_dropped,
        "dups_suppressed": st.dups_suppressed,
        "trace_events": 0 if log is None else len(log),
        "observations": (0 if online is None
                         else online["count"] + online["shed"]),
        "lanes": tuple(getattr(kernel, f, None) for f in LANE_FLAGS),
        "answer": answer,
    }


def simulated(summary: Dict[str, Any]) -> Tuple[Any, ...]:
    """Everything a summary holds that the simulation determines: two runs
    of one descriptor must agree on it exactly, traced or not."""
    return tuple((k, repr(v)) for k, v in sorted(summary.items()))


def answer_nodes(kind: str, answer: Any) -> int:
    """Search nodes expanded (tree nodes for the tree), from the answer."""
    if kind in ("tsp", "knapsack", "queens"):
        return answer[1]
    if kind == "tree":
        return answer[0]
    return 0


def reference_answer(kind: str, ref: Tuple[Any, ...]) -> Any:
    """The independently computed value a run's answer must match."""
    if kind == "tsp":
        return reference.held_karp(ref[0])
    if kind == "knapsack":
        return reference.knapsack_dp(*ref)
    if kind == "queens":
        return reference.QUEENS_SOLUTIONS[ref[0]]
    if kind == "fib":
        n, threshold = ref
        return reference.fib(n), reference.fib_chares(n, threshold)
    if kind == "tree":
        return reference.tree_size(*ref)
    if kind == "serving":
        return ref
    raise ValueError(f"no reference for {kind!r}")


def check(kind: str, expected: Any, s: Dict[str, Any]) -> List[str]:
    """Failures of one run: its answer against ``expected`` (from
    :func:`reference_answer`) plus the method's invariants."""
    bad = []
    if s["truncated"]:
        bad.append("run was truncated")
    if s["counted_sent"] != s["counted_processed"]:
        bad.append(f"quiescence: {s['counted_sent']} counted messages sent, "
                   f"{s['counted_processed']} processed")
    if s["busy"] > s["num_pes"] * s["vtime"] * (1.0 + 1e-9):
        bad.append(f"busy time {s['busy']} exceeds P x makespan "
                   f"{s['num_pes'] * s['vtime']}")
    ans = s["answer"]
    if kind in ("tsp", "knapsack", "queens"):
        if ans[0] != expected:
            bad.append(f"{kind} answer {ans[0]} != reference {expected}")
    elif kind == "fib":
        value, chares = expected
        if ans != value:
            bad.append(f"fib answer {ans} != {value}")
        # The main chare is one more seed than the fib tree's chares.
        if s["seeds_executed"] != chares + 1:
            bad.append(f"fib: {s['seeds_executed']} seed executions for "
                       f"{chares} chares")
    elif kind == "tree":
        if tuple(ans) != tuple(expected):
            bad.append(f"tree answer {ans} != reference {expected}")
        if s["seeds_executed"] != ans[0] + 1:
            bad.append(f"tree: {s['seeds_executed']} seed executions for "
                       f"{ans[0]} nodes")
    elif kind == "serving":
        bad.extend(_check_serving(expected, ans))
    return bad


def _check_serving(expected: Tuple[int, bool], ans: Dict[str, Any]) -> List[str]:
    requested, faulty = expected
    bad = []
    if not ans["offered"] == ans["completed"] + ans["shed"] == requested:
        bad.append(f"serving: offered {ans['offered']}, completed "
                   f"{ans['completed']} + shed {ans['shed']}, requested "
                   f"{requested}")
    if faulty and (ans["shed"] or ans["completed"] != requested):
        bad.append("serving: the fault run lost requests")
    online = ans["online"]
    for q in ("p50", "p99"):
        walked, streamed = ans[q], online[q]
        if walked is None or streamed is None:
            bad.append(f"serving: no {q} from the trace walk or the histogram")
        elif abs(reference.log_bucket(walked)
                 - reference.log_bucket(streamed)) > 1:
            bad.append(f"serving: online {q} {streamed} is more than one "
                       f"bucket from the trace walk's {walked}")
    return bad
