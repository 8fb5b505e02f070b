"""Shared test fixtures, independent brute-force oracles, and the slow
references that the package's fast paths are held to.

The brute oracles are deliberately plain Python (itertools over
configurations, no numpy vectorization) so expected values in the tests
come from a code path that shares nothing with the package internals.
The references are numpy: unconstrained random models (``random_model``),
exact influence and average conditional covariance read off an
``ExactOracle`` table, the samples decoded to +-1 rows (``dense``), the
empirical estimators by row masking and by the ``np.unique`` groups of
those rows (``unique_groups``, ``avg_cond_cov_groups``,
``avg_cond_cov_direct``), and the bitset cells and covariance scores
(``conditioning_cells``, ``cov_scores``), which the counted routes in
``rbmstruct.estimators`` must equal. No reference goes through the
counted route it checks. The samplers' blocked passes are held to the
whole-array routes they replaced: ``staged_gibbs_sample`` (every retained
state staged unpacked, then one packbits) and ``unpacked_split_rhat``
(every row unpacked at once).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from rbmstruct import qsearch
# the lc learner's counted state of S, for the tests that hold it to the
# bitset cells
from rbmstruct.estimators import _counted_state as counted_state  # noqa: F401
from rbmstruct.estimators import _split_order
from rbmstruct.model import (
    KIND_FERROMAGNETIC,
    KIND_GENERAL,
    KIND_LOCALLY_CONSISTENT,
    ExactOracle,
    RbmModel,
    TwoHopGraph,
    node_set,
)
from rbmstruct.qsearch import max_find_pick
from rbmstruct.sampling import _CHAINS, GibbsConfig, SampleSet, popcount


def random_model(rng, kind=KIND_GENERAL, n_range=(2, 5), m_range=(0, 3)) -> RbmModel:
    """Unconstrained random model drawn from ``rng``: n and m uniform over
    the half-open ranges, couplings in [-1, 1], fields in [-0.5, 0.5].
    Ferromagnetic takes absolute values; locally consistent gives each
    hidden node's column one random sign. No non-degeneracy is enforced."""
    n = int(rng.integers(*n_range))
    m = int(rng.integers(*m_range))
    J = rng.uniform(-1.0, 1.0, size=(n, m))
    f = rng.uniform(-0.5, 0.5, size=n)
    g = rng.uniform(-0.5, 0.5, size=m)
    if kind == KIND_FERROMAGNETIC:
        J, f, g = np.abs(J), np.abs(f), np.abs(g)
    elif kind == KIND_LOCALLY_CONSISTENT:
        J = np.abs(J) * rng.choice([-1.0, 1.0], size=m)
    return RbmModel(J, f, g, kind=kind)


def exact_influence(oracle: ExactOracle, u: int, S) -> float:
    """E[X_u | X_S = 1^s]: expected magnetization of u with S pinned to +1."""
    n = oracle.n
    S = node_set(S, n, u)
    p = oracle.probabilities.reshape((2,) * n)
    # fix S and u to +1, then u to -1, and sum out the free axes
    index = [1 if i in S else slice(None) for i in range(n)]
    index[u] = 1
    plus = float(p[tuple(index)].sum())
    index[u] = 0
    minus = float(p[tuple(index)].sum())
    den = plus + minus
    if den <= 0.0:
        raise ValueError("conditioning event has probability zero")
    return (plus - minus) / den


def exact_avg_cond_cov(oracle: ExactOracle, u: int, v: int, S) -> float:
    """E_{x_S}[ Cov(X_u, X_v | X_S = x_S) ], averaged over the law of X_S."""
    n = oracle.n
    S = node_set(S, n, u, v)
    kept = sorted((*S, u, v))
    free = tuple(i for i in range(n) if i not in kept)
    # the marginal over S, u, v as one (cell, x_u, x_v) array
    q = oracle.probabilities.reshape((2,) * n).sum(axis=free)
    q = np.moveaxis(q, (kept.index(u), kept.index(v)), (-2, -1)).reshape(-1, 2, 2)
    w = q.sum(axis=(1, 2))
    au = (q[:, 1] - q[:, 0]).sum(axis=1)
    av = (q[:, :, 1] - q[:, :, 0]).sum(axis=1)
    zuv = q[:, 1, 1] + q[:, 0, 0] - q[:, 0, 1] - q[:, 1, 0]
    nz = w > 0
    return float(np.sum(zuv[nz] - au[nz] * av[nz] / w[nz]))


def dense(samples: SampleSet) -> np.ndarray:
    """The samples decoded to an (M, n) int8 matrix of +-1 values."""
    return np.unpackbits(samples.packed, axis=1, count=samples.n).astype(np.int8) * 2 - 1


def unique_groups(samples: SampleSet, S) -> list:
    """Sample indices grouped by their configuration on S, by np.unique
    over the decoded rows: groups in first-occurrence order, none when
    M = 0."""
    S = node_set(S, samples.n)
    _, first, inverse = np.unique(
        dense(samples)[:, list(S)], axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    return [np.flatnonzero(inverse == l) for l in np.argsort(first)]


def empirical_influence(samples: SampleSet, u: int, S) -> tuple:
    """Influence of pinning S to +1 on X_u by row masking, as (numer,
    denom, value): numer counts the samples with x = +1 on S union {u},
    denom those with x = +1 on S, and value = 2 * numer / denom - 1, None
    (undefined) when no sample has x_S = 1^s."""
    S = node_set(S, samples.n, u)
    rows = dense(samples)
    mask = np.ones(samples.M, dtype=bool)
    for i in S:
        mask &= rows[:, i] == 1
    numer = int((mask & (rows[:, u] == 1)).sum())
    denom = int(mask.sum())
    return numer, denom, 2.0 * numer / denom - 1.0 if denom else None


def avg_cond_cov_groups(samples: SampleSet, u: int, v: int, S) -> float:
    """Average conditional covariance via the sum decomposition over the
    ``unique_groups`` cells F_l,

        (1/M) * ( sum_i x_u^i x_v^i  -  sum_l a_u,l a_v,l / |F_l| ),

    where a_j,l is the signed sum of x_j over cell l: integer sums, one
    division per cell, added in cell order."""
    S = node_set(S, samples.n, u, v)
    M = samples.M
    if M == 0:
        raise ValueError("need at least one sample")
    rows = dense(samples)
    xu = rows[:, u].astype(np.int64)
    xv = rows[:, v].astype(np.int64)
    corr = 0.0
    for g in unique_groups(samples, S):
        corr += int(xu[g].sum()) * int(xv[g].sum()) / len(g)
    return (int(xu @ xv) - corr) / M


def avg_cond_cov_direct(samples: SampleSet, u: int, v: int, S) -> float:
    """Average conditional covariance, cell by cell: each observed
    configuration of S (``unique_groups``) contributes its within-cell
    covariance weighted by the cell's empirical probability."""
    S = node_set(S, samples.n, u, v)
    M = samples.M
    if M == 0:
        raise ValueError("need at least one sample")
    rows = dense(samples)
    xu = rows[:, u].astype(np.float64)
    xv = rows[:, v].astype(np.float64)
    total = 0.0
    for g in unique_groups(samples, S):
        c = len(g)
        mean_z = float((xu[g] * xv[g]).sum()) / c
        mean_u = float(xu[g].sum()) / c
        mean_v = float(xv[g].sum()) / c
        total += (c / M) * (mean_z - mean_u * mean_v)
    return total


def influence_counts(samples: SampleSet, u: int, cands, m_s) -> tuple[np.ndarray, np.ndarray]:
    """(numer, denom) all-ones counts for each candidate j, given the
    bitset m_s of the samples with x_S = 1^s (``SampleSet.ones_mask``):
    denom counts those with x_j = +1, numer those with x_j = x_u = +1. The
    slow reference for ``SampleSet.ones_counts`` of S and of S union {u}."""
    cols = samples.bits[list(cands)] & m_s
    return popcount(cols & samples.bits[u]), popcount(cols)


def conditioning_cells(samples: SampleSet, S=()) -> np.ndarray:
    """(cells, ceil(M/64)) uint64 stack of the samples realizing each
    observed configuration of S, in first-occurrence order; the bitset
    form of unique_groups(samples, S) for M >= 1. Each node j of S
    splits every cell into its samples with x_j = +1 and with x_j = -1,
    keeping the nonempty ones in first-occurrence order (``_split_order``)."""
    cells = samples.ones_mask()[None]
    for j in S:
        col = samples.bits[j]
        parts = np.concatenate((cells & col, cells & ~col))
        cells = parts[_split_order(parts, popcount(parts))]
    return cells


def cov_scores(samples: SampleSet, u: int, cands, cells: np.ndarray) -> np.ndarray:
    """Average conditional covariance of x_u with each candidate, over a
    cell stack (conditioning_cells), by the same sum decomposition as
    avg_cond_cov_groups and bit-identical to it: with a_j,l =
    2 |cell_l & x_j| - |cell_l| and sum_i x_u^i x_v^i = M - 2 |x_u ^ x_v|,
    every numerator is an exact integer below 2**53, and the per-cell
    corrections are added in float64 in cell order. Needs M >= 1."""
    bits = samples.bits
    xu = bits[u]
    cols = bits[list(cands)]
    M = samples.M
    z_total = M - 2 * popcount(cols ^ xu)
    corr = np.zeros(len(cols))
    for cell in cells:
        size = popcount(cell)
        a_u = 2 * popcount(cell & xu) - size
        a_v = 2 * popcount(cols & cell) - size
        corr += a_u * a_v / size
    return (z_total - corr) / M


def neighbors(graph: TwoHopGraph, u: int) -> set:
    """The nodes that share an edge with u."""
    return {j for e in graph.edges for j in e if u in e and j != u}


def brute_two_hop_edges(model: RbmModel) -> frozenset:
    """Pairs (i, k), i < k, of visible nodes that some hidden unit couples
    to both, by plain loops over J: the reference for
    ``model.two_hop_graph``."""
    J = model.J.tolist()
    return frozenset(
        (i, k)
        for i in range(model.n)
        for k in range(i + 1, model.n)
        if any(J[i][a] != 0 and J[k][a] != 0 for a in range(model.m))
    )


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
    return SampleSet.from_pm1(np.array(rows, dtype=np.int8).reshape(M, n))


def staged_gibbs_sample(model: RbmModel, M: int, cfg: GibbsConfig) -> SampleSet:
    """``gibbs_sample`` with every retained state staged unpacked in one
    (rounds, C, n) array, packed by a single packbits after the last
    sweep: same chains, same draws, same row layout."""
    n, m = model.n, model.m
    if M == 0:
        return SampleSet.from_pm1(np.zeros((0, n), dtype=np.int8))
    J = model.J
    w_y, c_y = 2.0 * J, model.g - J.sum(axis=0)
    w_x, c_x = 2.0 * J.T, model.f - J.sum(axis=1)
    chains = min(_CHAINS, M)
    rounds = -(-M // chains)
    rng = np.random.default_rng(cfg.seed)
    bx = rng.integers(0, 2, size=(chains, n)).astype(np.float64)
    by = np.empty((chains, m))
    ty = np.empty((chains, m))
    tx = np.empty((chains, n))
    v = np.empty((chains, m + n))
    v_y, v_x = v[:, :m], v[:, m:]
    out = np.empty((rounds, chains, n), dtype=np.uint8)
    for sweep in range(1, cfg.burn_in + cfg.thinning * rounds + 1):
        rng.random(out=v)
        v *= 2.0
        v -= 1.0
        np.matmul(bx, w_y, out=ty)
        ty += c_y
        np.less(v_y, np.tanh(ty, out=ty), out=by)
        np.matmul(by, w_x, out=tx)
        tx += c_x
        np.less(v_x, np.tanh(tx, out=tx), out=bx)
        k, r = divmod(sweep - cfg.burn_in, cfg.thinning)
        if k > 0 and r == 0:
            out[k - 1] = bx
    return SampleSet(n, np.packbits(out.reshape(-1, n)[:M], axis=1))


def unpacked_split_rhat(samples: SampleSet) -> float | None:
    """``split_rhat`` with all K * C rows unpacked at once and the two
    halves concatenated, their means taken by ``mean``."""
    n, M = samples.n, samples.M
    if M < 4 * _CHAINS:
        return None
    K = M // _CHAINS
    L = K // 2
    draws = np.unpackbits(samples.packed[: K * _CHAINS], axis=1, count=n)
    draws = draws.reshape(K, _CHAINS, n)
    halves = np.concatenate([draws[:L], draws[K - L :]], axis=1)
    means = 2.0 * halves.mean(axis=0) - 1.0
    W = (L / (L - 1) * (1.0 - means**2)).mean(axis=0)
    B_over_L = means.var(axis=0, ddof=1)
    varying = (W > 0) | (B_over_L > 0)
    if not varying.any():
        return None
    W, B_over_L = W[varying], B_over_L[varying]
    with np.errstate(divide="ignore"):
        rhat = np.sqrt(((L - 1) / L * W + B_over_L) / W)
    return float(rhat.max())


def brute_conditional_mean(rows, u: int, S) -> float | None:
    """Empirical E[x_u | x_S = 1] by direct row scanning."""
    matched = [r for r in rows if all(r[i] == 1 for i in S)]
    if not matched:
        return None
    return sum(r[u] for r in matched) / len(matched)


def grover_marked_probabilities(n: int, marked, j: int) -> np.ndarray:
    """Probability of measuring each item of ``marked`` after j Grover
    iterations on n items, from a statevector that starts uniform and per
    iteration flips the sign of the marked amplitudes, then applies the
    diffusion 2|s><s| - I."""
    s = np.full(n, 1.0 / math.sqrt(n))
    psi = s.copy()
    for _ in range(j):
        psi[marked] *= -1.0
        psi = 2.0 * (s @ psi) * s - psi
    return psi[marked] ** 2


def exponential_search_outcomes(n: int, marked, budget: int, runs: int, rng) -> list:
    """(found, iterations) of ``runs`` exponential searches for the items
    ``marked`` among n, each under a budget of ``budget`` Grover
    iterations, on the documented schedule written out here on its own:
    each stage draws j uniformly from {0, ..., ceil(m)-1}, with m = 1 at
    the first stage and then m = min(1.2 m, sqrt(n)); a stage of j iterations
    uses j + 1 of the budget, and one that would pass it is cut to what is
    left. Each stage's outcome is read from the statevector
    (``grover_marked_probabilities``, one vector per j, computed once): it
    finds marked item k with that vector's k-th probability, otherwise
    nothing. A run that finds nothing reports found = None."""
    marked = [int(k) for k in marked]
    cum = [np.cumsum(grover_marked_probabilities(n, marked, j)) for j in range(budget)]
    out = []
    for _ in range(runs):
        m_stage, used, found = 1.0, 0, None
        while used < budget and found is None:
            j = min(math.floor(rng.random() * math.ceil(m_stage)), budget - used - 1)
            used += j + 1
            k = int(np.searchsorted(cum[j], rng.random(), side="right"))
            found = marked[k] if k < len(marked) else None
            m_stage = min(1.2 * m_stage, math.sqrt(n))
        out.append((found, used))
    return out


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


def metered(learn, u, samples, meter, threshold, rounds, fail_prob, rng):
    """A "-q" learner for one node, as learn_full_graph runs it: the
    classical per-node learner ``learn`` (greedy._learn_ferro or
    greedy._learn_lc) with metered maximum finding at failure probability
    fail_prob / (2 rounds) as its per-round selector."""
    pick = max_find_pick(samples.M, meter, fail_prob / (2.0 * rounds), rng)
    return learn(u, samples, threshold, rounds, pick=pick, meter=meter)


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
            res = qsearch.qsearch_sim(above, rng, budget - used)
            used += res.iterations
            if res.index is not None:
                i = res.index
        reached.append(values[i])
    best = max(reached)
    return min(k for k, v in enumerate(values) if v == best), best
