"""The benchmark's three workloads: fixed run lists generated from a seed.

Each builder turns ``--seed`` into a list of :class:`Run` entries, each a
declarative run descriptor made with the public harness
(:func:`repro.bench.harness.describe`) plus what the independent check
needs.  Problem instances are drawn here, by the benchmark's own RNG, and
handed to the program as inputs, so a change to the program's instance
generators cannot change what is measured.

Why each workload is shaped as it is (see README.md for the layer map):

* ``search`` puts the host work in the applications (the TSP lower bound
  above all), monotonic sharing and the priority pools.  Speculative
  search expands a seed-dependent number of nodes, so each program is run
  on many small instances: the round's total work then varies little
  between seeds, while every instance is still checked exactly.  The
  8-puzzle IDA* is left out: on rare (board, kernel seed) pairs its
  multi-round quiescence detection fails (see CHANGES.md).
* ``finegrain`` does almost nothing per message, so host time goes to the
  kernel, engine, balancers, topology and payload sizing.  The tree shape
  is the paper suite's fixed tree (its size varies 70 % between shape
  seeds); the seed varies the kernel's placement RNG.  One fib run on a
  sparse 10^5-PE machine makes any O(P) state show in memory.
* ``serving`` runs open-loop request streams with tracing, telemetry and
  faults on, which keeps the kernel on its scalar path and puts the
  observability layers in the profile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.knapsack import KnapsackInstance
from repro.apps.tree import TreeParams
from repro.apps.tsp import TspInstance
from repro.bench.descriptors import RunDescriptor
from repro.bench.harness import describe
from repro.faults import FaultConfig
from repro.machine.presets import make_machine
from repro.workloads.arrivals import Bursty, Poisson, ServiceSpec, offered_rate

__all__ = ["Run", "WORKLOADS"]


@dataclass(frozen=True)
class Run:
    """One simulation of a workload and what its answer is checked against."""

    desc: RunDescriptor
    #: Which check applies: tsp, knapsack, queens, fib, tree, serving.
    check: str
    #: Inputs of the independent reference computation for ``check``.
    ref: Tuple[Any, ...]


# ------------------------------------------------------------------ inputs
def _tsp(rng: random.Random, n: int) -> TspInstance:
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.randrange(10, 100)
    return TspInstance(tuple(tuple(row) for row in dist))


def _knapsack(rng: random.Random, n: int) -> KnapsackInstance:
    # Weakly correlated items (the classically hard family), sorted by
    # value density as the program's bound requires.
    items = []
    for _ in range(n):
        w = rng.randint(1, 30)
        items.append((w, max(1, w + rng.randint(-10, 10))))
    items.sort(key=lambda wv: wv[1] / wv[0], reverse=True)
    capacity = max(1, sum(w for w, _ in items) // 2)
    return KnapsackInstance(tuple(w for w, _ in items),
                            tuple(v for _, v in items), capacity)


def _kernel_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


# --------------------------------------------------------------- workloads
def search(seed: int) -> List[Run]:
    """Speculative branch and bound on ipsc2, P = 16..64."""
    rng = random.Random(f"search:{seed}")
    runs: List[Run] = []
    # T7/A2 regime: FIFO pools, fine grain, a loose initial incumbent, so
    # pruning comes only from tours shared through the monotonic variable.
    for i in range(32):
        inst = _tsp(rng, 8)
        runs.append(Run(
            describe("tsp", "ipsc2", 16, queueing="fifo",
                     propagation=("eager", "lazy")[i % 2], inst=inst,
                     grain=2, bound_slack=1.6, seed=_kernel_seed(rng)),
            "tsp", (inst.dist,)))
    # Best-first TSP under the adaptive contracting-within-neighbourhood
    # balancer.
    for _ in range(16):
        inst = _tsp(rng, 10)
        runs.append(Run(
            describe("tsp", "ipsc2", 32, queueing="prio", balancer="acwn",
                     inst=inst, grain=5, seed=_kernel_seed(rng)),
            "tsp", (inst.dist,)))
    runs.append(Run(
        describe("queens", "ipsc2", 64, queueing="bitprio", n=10,
                 grainsize=4, use_priorities=True, seed=_kernel_seed(rng)),
        "queens", (10,)))
    for _ in range(4):
        inst = _knapsack(rng, 30)
        runs.append(Run(
            describe("knapsack", "ipsc2", 32, queueing="prio", inst=inst,
                     grain=12, seed=_kernel_seed(rng)),
            "knapsack", (inst.weights, inst.values, inst.capacity)))
    return runs


#: The paper suite's unbalanced tree (same shape on every seed).
FINEGRAIN_TREE = TreeParams(seed=7, max_depth=12, max_fanout=6,
                            branch_bias=0.98, node_work=150.0)


def finegrain(seed: int) -> List[Run]:
    """Fib and the synthetic tree on ncube2, P x balancer, plus sparse fib."""
    rng = random.Random(f"finegrain:{seed}")
    runs: List[Run] = []
    tree = FINEGRAIN_TREE
    for pes in (16, 64, 256):
        for balancer in ("random", "acwn", "central"):
            runs.append(Run(
                describe("fib", "ncube2", pes, balancer=balancer, n=16,
                         threshold=4, seed=_kernel_seed(rng)),
                "fib", (16, 4)))
            runs.append(Run(
                describe("tree", "ncube2", pes, balancer=balancer,
                         params=tree, seed=_kernel_seed(rng)),
                "tree", (tree.seed, tree.max_depth, tree.max_fanout,
                         tree.branch_bias)))
    runs.append(Run(
        describe("fib", "cluster", 100_000, sparse=True, n=16, threshold=4,
                 seed=_kernel_seed(rng)),
        "fib", (16, 4)))
    return runs


#: Per-stage service demand of every request (exponential, mean 400 units).
SERVICE = ServiceSpec("exp", 400.0)
SERVING_PES = 16


def _rate(util: float, hops: int) -> float:
    """Arrival rate loading the ncube2 farm to ``util`` of its capacity."""
    p = make_machine("ncube2", SERVING_PES).params
    per_stage = SERVICE.mean * p.work_unit_time + p.sched_overhead + p.recv_overhead
    return util * SERVING_PES / (per_stage * hops)


def serving(seed: int) -> List[Run]:
    """Open-loop request streams on ncube2 P=16, traced and telemetered."""
    rng = random.Random(f"serving:{seed}")
    count = 2000
    arms: List[Dict[str, Any]] = [
        dict(arrivals=Poisson(rate=_rate(0.7, 1), count=count)),
        dict(arrivals=Poisson(rate=_rate(1.05, 1), count=count)),
        # Bursts at 2.8x the mean rate; the admission bound sheds ~5 %.
        dict(arrivals=Bursty(rate_low=0.4 * _rate(0.85, 3),
                             rate_high=2.8 * _rate(0.85, 3), count=count,
                             dwell_low=3e-3, dwell_high=1e-3),
             hops=3, shed_above=6),
        dict(arrivals=Poisson(rate=_rate(0.7, 1), count=count),
             faults=FaultConfig(drop_prob=0.05, dup_prob=0.02)),
    ]
    runs: List[Run] = []
    for arm in arms:
        # Eight telemetry snapshots over the arrival span, as in S6.
        interval = count / offered_rate(arm["arrivals"]) / 8.0
        runs.append(Run(
            describe("serving", "ncube2", SERVING_PES, balancer="central",
                     service=SERVICE, metrics=interval,
                     seed=_kernel_seed(rng), **arm),
            # Every stream asks for ``count`` requests; the run must
            # account for each of them.
            "serving", (count, "faults" in arm)))
    return runs


WORKLOADS: Dict[str, Callable[[int], List[Run]]] = {
    "search": search,
    "finegrain": finegrain,
    "serving": serving,
}
