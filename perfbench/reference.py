"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports the simulator: every answer a simulated program gives
is compared with a value computed by a different algorithm (exact dynamic
programming instead of branch and bound, a published table, a closed
recurrence instead of a chare tree), so a fault in the program cannot hide
by being reproduced in its own check.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Sequence, Tuple

#: Number of solutions of the n-queens problem, OEIS A000170 (n = 0..14).
QUEENS_SOLUTIONS = (1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724, 2680, 14200,
                    73712, 365596)


def held_karp(dist: Sequence[Sequence[int]]) -> int:
    """Optimal closed-tour cost through every city (Held-Karp DP, O(2^n n^2))."""
    n = len(dist)
    if n == 1:
        return 0
    full = 1 << (n - 1)  # subsets of cities 1..n-1; bit i-1 stands for city i
    inf = math.inf
    # best[mask][j]: cheapest path from city 0 through exactly ``mask``,
    # ending at city j+1 (whose bit is in mask).
    best: List[List[float]] = [[inf] * (n - 1) for _ in range(full)]
    for j in range(n - 1):
        best[1 << j][j] = dist[0][j + 1]
    for mask in range(1, full):
        row = best[mask]
        for j in range(n - 1):
            cost = row[j]
            if cost == inf:
                continue
            dj = dist[j + 1]
            for k in range(n - 1):
                bit = 1 << k
                if mask & bit:
                    continue
                nxt = cost + dj[k + 1]
                target = best[mask | bit]
                if nxt < target[k]:
                    target[k] = nxt
    last = best[full - 1]
    return int(min(last[j] + dist[j + 1][0] for j in range(n - 1)))


def knapsack_dp(weights: Sequence[int], values: Sequence[int],
                capacity: int) -> int:
    """Best 0/1-knapsack value by the capacity dynamic program."""
    table = [0] * (capacity + 1)
    for w, v in zip(weights, values):
        for c in range(capacity, w - 1, -1):
            cand = table[c - w] + v
            if cand > table[c]:
                table[c] = cand
    return table[capacity]


def fib(n: int) -> int:
    """Fibonacci number, iteratively."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_chares(n: int, threshold: int) -> int:
    """Chares a fib(n) run creates: every call at or above the grain spawns
    two children, every call below it is a leaf chare (closed recurrence)."""
    cut = max(2, threshold)
    counts: Dict[int, int] = {}
    for m in range(n + 1):
        counts[m] = 1 if m < cut else 1 + counts[m - 1] + counts[m - 2]
    return counts[n]


def _seed_bytes(value: int) -> bytes:
    return int(value).to_bytes(16, "little", signed=True)


def _tree_hash(root_seed: int, node_id: int, depth: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(_seed_bytes(root_seed))
    h.update(b"tree-node")
    for key in (node_id, depth):
        h.update(b"\x00")
        h.update(_seed_bytes(key))
    return int.from_bytes(h.digest(), "little")


def tree_size(seed: int, max_depth: int, max_fanout: int,
              branch_bias: float) -> Tuple[int, int]:
    """``(nodes, leaves)`` of the synthetic unbalanced tree.

    Re-derives the tree's published shape rule: node ``(id, depth)``
    branches when a BLAKE2b draw keyed by ``(seed, "tree-node", id,
    depth)`` falls under ``bias * (1 - depth/(max_depth+1))``, into
    ``1 + (h >> 16) % max_fanout`` children numbered ``7*id + i + 1``.
    """
    nodes = leaves = 0
    stack = [(0, 0)]
    while stack:
        node_id, depth = stack.pop()
        nodes += 1
        fanout = 0
        if depth < max_depth:
            h = _tree_hash(seed, node_id, depth)
            p_branch = branch_bias * (1.0 - depth / (max_depth + 1))
            if (h % 10_000) / 10_000.0 <= p_branch:
                fanout = 1 + (h >> 16) % max_fanout
        if fanout == 0:
            leaves += 1
        for i in range(fanout):
            stack.append((node_id * 7 + i + 1, depth + 1))
    return nodes, leaves


def log_bucket(value: float, subbuckets: int = 32) -> int:
    """Index of the log-linear histogram bucket holding ``value`` > 0:
    octave ``e`` of ``value = m * 2**e`` (``m`` in [0.5, 1)) times the
    sub-bucket count, plus the linear slice of ``m`` within the octave."""
    m, e = math.frexp(value)
    return e * subbuckets + int((m - 0.5) * 2.0 * subbuckets)
