"""Shared test fixtures and independent brute-force oracles.

The oracle functions here are deliberately plain Python (itertools over
configurations, no numpy vectorization) so expected values in the tests
come from a code path that shares nothing with the package internals.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from rbmstruct import qsearch
from rbmstruct.greedy import learn_ferro, learn_lc
from rbmstruct.model import ExactOracle, RbmModel
from rbmstruct.qsearch import max_find_pick
from rbmstruct.sampling import SampleSet


def brute_joint_weight(model: RbmModel, x, y) -> float:
    e = 0.0
    for i in range(model.n):
        for j in range(model.m):
            e += x[i] * model.J[i, j] * y[j]
    for i in range(model.n):
        e += model.f[i] * x[i]
    for j in range(model.m):
        e += model.g[j] * y[j]
    return math.exp(e)


def brute_visible_weights(model: RbmModel) -> dict:
    """Unnormalized visible weights by direct summation over the hidden layer."""
    weights = {}
    for x in itertools.product((-1, 1), repeat=model.n):
        total = 0.0
        for y in itertools.product((-1, 1), repeat=model.m):
            total += brute_joint_weight(model, x, y)
        weights[x] = total
    return weights


def brute_visible_marginal(model: RbmModel, x) -> float:
    weights = brute_visible_weights(model)
    z = sum(weights.values())
    return weights[tuple(int(v) for v in x)] / z


def brute_influence(model: RbmModel, u: int, S) -> float:
    weights = brute_visible_weights(model)
    S = tuple(S)
    num = den = 0.0
    for x, w in weights.items():
        if all(x[i] == 1 for i in S):
            den += w
            num += w * x[u]
    return num / den


def brute_avg_cond_cov(model: RbmModel, u: int, v: int, S) -> float:
    weights = brute_visible_weights(model)
    z = sum(weights.values())
    S = tuple(S)
    cells: dict[tuple, list] = {}
    for x, w in weights.items():
        cells.setdefault(tuple(x[i] for i in S), []).append((x, w))
    total = 0.0
    for members in cells.values():
        wsum = sum(w for _x, w in members)
        euv = sum(w * x[u] * x[v] for x, w in members) / wsum
        eu = sum(w * x[u] for x, w in members) / wsum
        ev = sum(w * x[v] for x, w in members) / wsum
        total += (wsum / z) * (euv - eu * ev)
    return total


def brute_exact_sample(model: RbmModel, M: int, seed) -> SampleSet:
    """Inverse-CDF draws the plain way: search each uniform in draw order,
    decode each configuration index bit by bit to a +-1 row (node i is
    bit n-1-i), and pack the rows with SampleSet.from_pm1."""
    n = model.n
    cdf = np.cumsum(ExactOracle(model).probabilities)
    cdf[-1] = 1.0
    u = np.random.default_rng(seed).random(M)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), (1 << n) - 1)
    rows = [[1 if (int(k) >> (n - 1 - i)) & 1 else -1 for i in range(n)] for k in idx]
    return SampleSet.from_pm1(np.array(rows, dtype=np.int8).reshape(M, n), n=n)


def brute_conditional_mean(rows, u: int, S) -> float | None:
    """Empirical E[x_u | x_S = 1] by direct row scanning."""
    matched = [r for r in rows if all(r[i] == 1 for i in S)]
    if not matched:
        return None
    return sum(r[u] for r in matched) / len(matched)


# Demo model: 4 visible, 4 hidden, each hidden node linking a consecutive
# pair around a ring, so the two-hop graph is the 4-cycle with edge (0, 1).
def demo_ring_model() -> RbmModel:
    J = np.zeros((4, 4))
    for j, (a, b) in enumerate([(0, 1), (1, 2), (2, 3), (3, 0)]):
        J[a, j] = 0.8
        J[b, j] = 0.8
    f = np.full(4, 0.1)
    g = np.full(4, 0.1)
    return RbmModel(J, f, g, kind="ferromagnetic")


# The "-q" learners for one node, as learn_full_graph runs them: the
# classical learner with metered maximum finding at failure probability
# delta / (2k) or zeta / (2 t_max) as its per-round selector.


def metered_ferro(u, samples, meter, eta, k, delta, rng):
    pick = max_find_pick(samples.M, meter, delta / (2.0 * k), rng)
    return learn_ferro(u, samples, eta, k, pick=pick, meter=meter)


def metered_lc(u, samples, meter, tau, t_max, zeta, rng):
    pick = max_find_pick(samples.M, meter, zeta / (2.0 * t_max), rng)
    return learn_lc(u, samples, tau, t_max, pick=pick, meter=meter)


def all_cores_max_find(values, rho: float, rng) -> tuple[int, float]:
    """Threshold-descent maximum finding that simulates every one of the
    repetitions(rho) cores to the end of its budget, drawing from ``rng``
    in the same order as ``dh_max_find``: per core, a uniform start, then
    searches for anything above the current value until the core's
    ceil(CORE_BUDGET_FACTOR * sqrt(n)) iterations are spent (the factor
    read at call time). Returns the lowest index of the best value any
    core reached, found by a scan."""
    values = [float(v) for v in values]
    n = len(values)
    budget = math.ceil(qsearch.CORE_BUDGET_FACTOR * math.sqrt(n))
    reached = []
    for _ in range(qsearch.repetitions(rho)):
        i = int(rng.integers(n))
        used = 0
        while used < budget:
            above = np.array([v > values[i] for v in values])
            res = qsearch.qsearch_sim(above, rng, max_iterations=budget - used)
            used += res.iterations
            if res.index is not None:
                i = res.index
        reached.append(values[i])
    best = max(reached)
    return min(k for k, v in enumerate(values) if v == best), best
