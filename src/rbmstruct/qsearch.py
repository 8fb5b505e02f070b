"""Query-metered simulation of Grover search and threshold-descent
maximum finding, plus the hybrid greedy learners built on them.

The simulation is outcome-exact rather than amplitude-level: a Grover
stage that runs j oracle iterations against a marked set of size t out of
N candidates succeeds with probability sin^2((2j+1) * asin(sqrt(t/N))),
returning a uniformly random marked item, and otherwise yields a
uniformly random unmarked item. Exponential search grows the stage size
geometrically (factor 6/5, capped at sqrt(N)); maximum finding runs a
threshold-descent core under an iteration budget of ceil(22.5 sqrt(N))
and boosts to failure probability rho with ceil(log2(1/rho)) independent
cores, keeping the best result (ties to the lowest index).

Costs are charged to a QueryMeter in the underlying cost model, not in
simulation work: each conceptual score-oracle application costs one
score_eval plus that oracle's per-evaluation price in raw sample queries
(M for influence scores, H for covariance scores); a stage of j Grover
iterations applies the oracle j+1 times; constructing the conditioning
index for a set of size s costs M*s raw queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .estimators import conditioning_cells, ones_mask, split_cells
from .greedy import (
    UNDEFINED_SCORE,
    NeighborhoodResult,
    _prune_ferro,
    _prune_lc,
    _score_candidates_ferro,
    _score_candidates_lc,
)
from .sampling import SampleSet


@dataclass(frozen=True)
class GroverParams:
    """Constants of the search schedule. The growth factor must stay below
    4/3 for the exponential-search analysis to hold; the rest trade
    success probability against queries and are exposed because only the
    asymptotic shape is fixed."""

    growth: float = 1.2
    stage_cap_factor: float = 1.0
    search_budget_factor: float = 4.5
    core_budget_factor: float = 22.5

    def __post_init__(self):
        if not 1.0 < self.growth < 4.0 / 3.0:
            raise ValueError("growth must lie in (1, 4/3)")
        if min(self.stage_cap_factor, self.search_budget_factor, self.core_budget_factor) <= 0:
            raise ValueError("budget factors must be positive")

    def repetitions(self, rho: float) -> int:
        """Independent maximum-finding cores needed for failure prob rho."""
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        return max(1, math.ceil(math.log2(1.0 / rho)))


@dataclass
class QueryMeter:
    """Counters for the cost model: raw sample-entry queries, score-oracle
    applications, Grover iterations, and the index-construction share of
    raw queries. raw_queries always equals score_evals * per-eval cost
    plus index_queries plus any direct entry reads."""

    raw_queries: int = 0
    score_evals: int = 0
    grover_iterations: int = 0
    index_queries: int = 0

    def charge_entry(self) -> None:
        self.raw_queries += 1

    def charge_index(self, queries: int) -> None:
        self.index_queries += queries
        self.raw_queries += queries

    def charge_scores(self, count: int, cost_each: int) -> None:
        self.score_evals += count
        self.raw_queries += count * cost_each

    def charge_grover(self, iterations: int) -> None:
        self.grover_iterations += iterations

    def snapshot(self) -> "QueryMeter":
        return QueryMeter(
            self.raw_queries, self.score_evals, self.grover_iterations, self.index_queries
        )

    def reset(self) -> None:
        """Zero all counters. Only call at experiment boundaries."""
        self.raw_queries = 0
        self.score_evals = 0
        self.grover_iterations = 0
        self.index_queries = 0

    def merge(self, other: "QueryMeter") -> None:
        self.raw_queries += other.raw_queries
        self.score_evals += other.score_evals
        self.grover_iterations += other.grover_iterations
        self.index_queries += other.index_queries


class SampleOracle:
    """Sample access with per-entry metering; the learners charge index
    construction and score evaluations through the same meter."""

    def __init__(self, samples: SampleSet, meter: QueryMeter | None = None):
        self.samples = samples
        self.meter = meter if meter is not None else QueryMeter()

    def entry(self, i: int, j: int) -> int:
        self.meter.charge_entry()
        return self.samples.entry(i, j)


class ScoreOracle:
    """Candidate index -> score, with a fixed per-evaluation raw-query cost.

    ``values`` holds the true scores; the simulator reads them freely via
    true_value (simulation-level knowledge), while metered access goes
    through evaluate / charge_stage.
    """

    def __init__(self, values, cost: int, meter: QueryMeter):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("need a nonempty 1-d score vector")
        self.cost = int(cost)
        self.meter = meter

    @property
    def n(self) -> int:
        return self.values.size

    def true_value(self, i: int) -> float:
        return float(self.values[i])

    def evaluate(self, i: int) -> float:
        self.meter.charge_scores(1, self.cost)
        return float(self.values[i])

    def charge_stage(self, j: int) -> None:
        self.meter.charge_grover(j + 1)
        self.meter.charge_scores(j + 1, self.cost)


class SearchResult(NamedTuple):
    index: int | None
    iterations: int


def stage_success_probability(n: int, t: int, j: int) -> float:
    """sin^2((2j+1) theta) with sin^2 theta = t/n."""
    if t == 0:
        return 0.0
    theta = math.asin(math.sqrt(t / n))
    return math.sin((2 * j + 1) * theta) ** 2


def grover_stage(marked, n: int, j: int, rng) -> tuple[bool, int]:
    """One simulated Grover stage of j iterations: (success, measured item).

    Succeeds with probability sin^2((2j+1) theta), yielding a uniform
    marked item; otherwise yields a uniform unmarked item. ``marked`` is a
    predicate over range(n) or a boolean mask.
    """
    mask = _as_mask(marked, n)
    midx = np.flatnonzero(mask)
    t = midx.size
    if t == 0:
        unmarked = np.flatnonzero(~mask)
        return False, int(unmarked[rng.integers(unmarked.size)])
    if t == n:
        return True, int(midx[rng.integers(t)])
    p = stage_success_probability(n, t, j)
    if rng.random() < p:
        return True, int(midx[rng.integers(t)])
    unmarked = np.flatnonzero(~mask)
    return False, int(unmarked[rng.integers(unmarked.size)])


def _as_mask(marked, n: int) -> np.ndarray:
    if isinstance(marked, np.ndarray) and marked.dtype == bool:
        if marked.shape != (n,):
            raise ValueError("mask length must equal n")
        return marked
    if callable(marked):
        return np.fromiter((bool(marked(i)) for i in range(n)), dtype=bool, count=n)
    raise TypeError("marked must be a boolean mask or a predicate")


def qsearch_sim(
    marked,
    n: int,
    params: GroverParams,
    rng,
    meter: QueryMeter | None = None,
    eval_cost: int = 0,
    max_iterations: int | None = None,
) -> SearchResult:
    """Exponential Grover search for a marked item among n candidates.

    Stages draw j uniformly from {0, ..., ceil(m)-1} with m growing by the
    configured factor up to sqrt(n); each stage charges j+1 Grover
    iterations and j+1 score evaluations. Returns the found index or None
    once the iteration budget (default ceil(search_budget_factor *
    sqrt(n))) is spent, which is how an empty marked set terminates.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    mask = _as_mask(marked, n)
    midx = np.flatnonzero(mask)
    t = midx.size
    theta = math.asin(math.sqrt(t / n)) if t else 0.0
    cap = max(1.0, params.stage_cap_factor * math.sqrt(n))
    budget = (
        max_iterations
        if max_iterations is not None
        else math.ceil(params.search_budget_factor * math.sqrt(n))
    )
    m_stage = 1.0
    used = 0
    while used < budget:
        j = int(rng.integers(0, math.ceil(m_stage)))
        used += j + 1
        if meter is not None:
            meter.charge_grover(j + 1)
            meter.charge_scores(j + 1, eval_cost)
        if t > 0 and rng.random() < math.sin((2 * j + 1) * theta) ** 2:
            return SearchResult(int(midx[rng.integers(t)]), used)
        m_stage = min(params.growth * m_stage, cap)
    return SearchResult(None, used)


def _dh_core(scores: ScoreOracle, params: GroverParams, rng) -> tuple[int, float]:
    """One threshold-descent pass: start at a random candidate, repeatedly
    search for anything scoring above the current threshold, stop when the
    per-core iteration budget is gone."""
    n = scores.n
    budget = math.ceil(params.core_budget_factor * math.sqrt(n))
    best_i = int(rng.integers(n))
    best_v = scores.evaluate(best_i)
    used = 0
    while used < budget:
        res = qsearch_sim(
            scores.values > best_v,
            n,
            params,
            rng,
            meter=scores.meter,
            eval_cost=scores.cost,
            max_iterations=budget - used,
        )
        used += res.iterations
        if res.index is not None:
            best_i = res.index
            best_v = scores.true_value(res.index)
    return best_i, best_v


def dh_max_find(
    scores: ScoreOracle,
    rho: float,
    rng,
    params: GroverParams | None = None,
) -> tuple[int, float]:
    """Maximum finding with failure probability at most rho.

    Runs ceil(log2(1/rho)) independent threshold-descent cores and keeps
    the best score. The returned index is canonicalized to the lowest
    index attaining the returned score, matching the classical argmax
    tie-break exactly.
    """
    if params is None:
        params = GroverParams()
    best_i: int | None = None
    best_v = -math.inf
    for _ in range(params.repetitions(rho)):
        i, v = _dh_core(scores, params, rng)
        if best_i is None or v > best_v or (v == best_v and i < best_i):
            best_i, best_v = i, v
    ties = np.flatnonzero(scores.values == best_v)
    if ties.size:
        best_i = int(ties[0])
    return best_i, best_v


def quantum_learn_ferro(
    u: int,
    oracle: SampleOracle,
    eta: float,
    k: int,
    delta: float,
    rng,
    params: GroverParams | None = None,
) -> tuple[NeighborhoodResult, QueryMeter]:
    """Influence-maximization greedy with the per-round argmax replaced by
    metered maximum finding at failure probability delta / (2k).

    Per round with |S| = s: conditioning-set construction charges
    M*s + M*(s+1) raw queries (the sets for S and S union {u}); each
    influence evaluation inside the search charges M raw queries. The
    final pruning pass is evaluated classically, charging one M-query
    score evaluation per pruning score plus the index construction for
    each leave-one-out conditioning set.
    """
    samples = oracle.samples
    meter = oracle.meter
    n, M = samples.n, samples.M
    if not 0 <= u < n:
        raise ValueError("u out of range")
    if eta <= 0 or k < 1:
        raise ValueError("require eta > 0 and k >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("require 0 < delta < 1")
    if params is None:
        params = GroverParams()
    rho = delta / (2.0 * k)
    m_s = ones_mask(samples)
    m_su = m_s & samples.bits[u]
    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    insufficient = False
    exhausted = False
    for t in range(k):
        cands = [j for j in range(n) if j != u and j not in chosen]
        if not cands:
            exhausted = True
            break
        meter.charge_index(M * t + M * (t + 1))
        values = _score_candidates_ferro(samples, cands, m_s, m_su)
        so = ScoreOracle(values, cost=M, meter=meter)
        di, dv = dh_max_find(so, rho, rng, params)
        if not np.any(values > UNDEFINED_SCORE):
            insufficient = True
            break
        j = cands[di]
        chosen.append(j)
        trace.append((j, float(dv)))
        m_s = m_s & samples.bits[j]
        m_su = m_su & samples.bits[j]
    s = len(chosen)
    if chosen:
        meter.charge_scores(1, M)  # influence of the full chosen set
        for _ in chosen:
            meter.charge_index(M * (s - 1) + M * s)
            meter.charge_scores(1, M)
    kept, pruned = _prune_ferro(samples, u, chosen, eta)
    result = NeighborhoodResult(
        u=u,
        estimate=tuple(sorted(kept)),
        trace=trace,
        pruned=tuple(pruned),
        insufficient_samples=insufficient,
        exhausted=exhausted,
    )
    return result, meter.snapshot()


def quantum_learn_lc(
    u: int,
    oracle: SampleOracle,
    tau: float,
    t_max: int,
    zeta: float,
    rng,
    params: GroverParams | None = None,
) -> tuple[NeighborhoodResult, QueryMeter]:
    """Covariance-maximization greedy with metered maximum finding at
    failure probability zeta / (2 t_max).

    Per round with |S| = s: the unique-configuration scan charges H*s raw
    queries, each covariance evaluation H. Pruning is classical: one
    H-query evaluation per kept candidate plus the H*(s-1) scan for its
    leave-one-out conditioning set.
    """
    samples = oracle.samples
    meter = oracle.meter
    n, H = samples.n, samples.M
    if not 0 <= u < n:
        raise ValueError("u out of range")
    if tau <= 0 or t_max < 1:
        raise ValueError("require tau > 0 and t_max >= 1")
    if not 0.0 < zeta < 1.0:
        raise ValueError("require 0 < zeta < 1")
    if params is None:
        params = GroverParams()
    if H == 0:
        return (
            NeighborhoodResult(
                u=u, estimate=(), trace=[], pruned=(), insufficient_samples=True
            ),
            meter.snapshot(),
        )
    rho = zeta / (2.0 * t_max)
    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    exhausted = False
    cells = conditioning_cells(samples)
    while len(chosen) < t_max:
        cands = [v for v in range(n) if v != u and v not in chosen]
        if not cands:
            exhausted = True
            break
        meter.charge_index(H * len(chosen))
        values = _score_candidates_lc(samples, u, cands, cells)
        so = ScoreOracle(values, cost=H, meter=meter)
        di, dv = dh_max_find(so, rho, rng, params)
        if dv < tau:
            break
        v = cands[di]
        chosen.append(v)
        trace.append((v, float(dv)))
        cells = split_cells(cells, samples.bits[v])
    s = len(chosen)
    for _ in chosen:
        meter.charge_index(H * (s - 1))
        meter.charge_scores(1, H)
    kept, pruned = _prune_lc(samples, u, chosen, tau)
    result = NeighborhoodResult(
        u=u,
        estimate=tuple(sorted(kept)),
        trace=trace,
        pruned=tuple(pruned),
        exhausted=exhausted,
    )
    return result, meter.snapshot()
