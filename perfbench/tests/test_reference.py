"""The reference computations against brute force on small inputs."""

import itertools
import random

import pytest

import reference


def _brute_tour(dist):
    n = len(dist)
    best = None
    for perm in itertools.permutations(range(1, n)):
        tour = (0,) + perm
        cost = sum(dist[tour[i]][tour[(i + 1) % n]] for i in range(n))
        best = cost if best is None else min(best, cost)
    return best


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_held_karp_matches_brute_force(n):
    rng = random.Random(n)
    for _ in range(3):
        dist = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = rng.randrange(1, 100)
        assert reference.held_karp(dist) == _brute_tour(dist)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_knapsack_dp_matches_exhaustive_subsets(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        weights = [rng.randint(1, 30) for _ in range(n)]
        values = [rng.randint(1, 40) for _ in range(n)]
        capacity = sum(weights) // 2
        best = max(
            sum(v for v, keep in zip(values, mask) if keep)
            for mask in itertools.product((0, 1), repeat=n)
            if sum(w for w, keep in zip(weights, mask) if keep) <= capacity
        )
        assert reference.knapsack_dp(weights, values, capacity) == best


def test_fib_and_chare_count():
    assert [reference.fib(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13,
                                                      21, 34]
    # fib(4) at grain 2: calls 4, 3, 2 spawn; 1, 0 (twice) and 1 are leaves.
    assert reference.fib_chares(4, 2) == 9
    assert reference.fib_chares(1, 5) == 1


def test_queens_counts_by_backtracking():
    def count(n, row=0, cols=0, d1=0, d2=0):
        if row == n:
            return 1
        total = 0
        for c in range(n):
            if not (cols >> c & 1 or d1 >> (row + c) & 1
                    or d2 >> (row - c + n) & 1):
                total += count(n, row + 1, cols | 1 << c, d1 | 1 << (row + c),
                               d2 | 1 << (row - c + n))
        return total

    for n in range(1, 9):
        assert reference.QUEENS_SOLUTIONS[n] == count(n)


def test_log_bucket_width():
    # Values a bucket apart differ by at most 1/32 of their size.
    assert reference.log_bucket(1.0) == reference.log_bucket(1.0 + 1 / 64)
    assert reference.log_bucket(1.0 + 1 / 32) == reference.log_bucket(1.0) + 1
    assert reference.log_bucket(2.0) == reference.log_bucket(1.0) + 32
