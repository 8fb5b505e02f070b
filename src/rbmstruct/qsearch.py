"""Query-metered simulation of Grover search and threshold-descent
maximum finding, and the per-round selector of the quantum learners.

The simulation is outcome-exact rather than amplitude-level. A Grover
stage that runs j oracle iterations against a marked set of size t out of
N candidates succeeds with probability sin^2((2j+1) * asin(sqrt(t/N))),
returning a uniformly random marked item (``grover_stage``, the one
outcome law every search draws from). Exponential search (Boyer,
Brassard, Hoyer and Tapp) draws each stage's j uniformly below m, growing
m by the factor GROWTH up to STAGE_CAP_FACTOR * sqrt(N), under a hard
iteration budget that the caller sets: the last stage is cut at the
budget, and a search with nothing marked spends the whole budget without
simulating a stage. GROWTH must lie in (1, 4/3): above 1 so that
m reaches the size at which a stage succeeds with probability at least
1/4, below 4/3 so that the expected cost of the stages after that point, a
geometric series in 3 * GROWTH / 4, converges to O(sqrt(N/t)). Maximum
finding (Durr and Hoyer) runs a threshold-descent core under a budget of
B = ceil(CORE_BUDGET_FACTOR * sqrt(N)) iterations and boosts to failure
probability rho with R = ``repetitions(rho)`` = ceil(log2(1/rho))
independent cores, keeping the best result (ties to the lowest index).
The simulator reads the true scores, so it stops once the answer is
fixed: a core that holds the maximum ends at once, and no core runs after
one holds it.

Costs are charged to a QueryMeter in the underlying cost model, not in
simulation work, in closed form once per maximum-finding call (see
``dh_max_find``): each score-oracle application costs one score_eval plus
the oracle's per-evaluation price in raw sample queries (M for influence
scores, H for covariance scores). The learners charge their scans once per
node, by their own index-cost laws (see ``greedy._charge``).

``max_find_pick`` makes metered maximum finding a per-round selector for
the greedy learners; ``greedy.learn_full_graph`` runs the "-q" learners
with it. This module imports nothing from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Search schedule; only the asymptotic shape is fixed by the analysis.
GROWTH = 1.2
STAGE_CAP_FACTOR = 1.0
CORE_BUDGET_FACTOR = 22.5


def repetitions(rho: float) -> int:
    """Independent maximum-finding cores needed for failure prob rho."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return max(1, math.ceil(math.log2(1.0 / rho)))


@dataclass
class QueryMeter:
    """Counters for the cost model: raw sample-entry queries, score-oracle
    applications, Grover iterations, and the index-construction share of
    raw queries. raw_queries always equals score_evals * per-eval cost
    plus index_queries."""

    raw_queries: int = 0
    score_evals: int = 0
    grover_iterations: int = 0
    index_queries: int = 0

    def charge_index(self, queries: int) -> None:
        self.index_queries += queries
        self.raw_queries += queries

    def charge_scores(self, count: int, cost_each: int) -> None:
        self.score_evals += count
        self.raw_queries += count * cost_each

    def charge_grover(self, iterations: int) -> None:
        self.grover_iterations += iterations


class ScoreOracle:
    """A round's candidate scores, with the raw-query price of one score
    evaluation and the meter that maximum finding charges.

    ``values`` holds the true scores. The simulator reads them freely, as
    simulation-level knowledge; what the algorithm pays is charged in closed
    form by ``dh_max_find``.
    """

    def __init__(self, values, cost: int, meter: QueryMeter):
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("need a nonempty 1-d score vector")
        self.cost = int(cost)
        self.meter = meter


class SearchResult(NamedTuple):
    index: int | None
    iterations: int


def stage_success_probability(n: int, t: int, j: int) -> float:
    """sin^2((2j+1) theta) with sin^2 theta = t/n."""
    theta = math.asin(math.sqrt(t / n))
    return math.sin((2 * j + 1) * theta) ** 2


def grover_stage(marked_idx, n: int, j: int, rng) -> int | None:
    """One simulated Grover stage of j iterations against the marked
    indices ``marked_idx`` among n candidates.

    With t marked items it draws one uniform and succeeds with probability
    sin^2((2j+1) theta), then draws a uniform marked item to return; a
    failed stage returns None. With nothing marked it draws nothing.
    """
    t = len(marked_idx)
    if t and rng.random() < stage_success_probability(n, t, j):
        return int(marked_idx[rng.integers(t)])
    return None


def qsearch_sim(marked, rng, budget: int) -> SearchResult:
    """Exponential Grover search for a marked item among the n candidates
    of the boolean mask ``marked``, under a budget of ``budget`` Grover
    iterations.

    Stages draw j uniformly from {0, ..., ceil(m)-1} with m growing by
    GROWTH up to STAGE_CAP_FACTOR * sqrt(n); a stage of j iterations uses
    j+1 of the budget, and one that would pass it is cut to what is left.
    Returns the found index and the iterations used, or None and the whole
    budget; with nothing marked that is at once, drawing nothing from rng.
    """
    n = len(marked)
    if n < 1:
        raise ValueError("need n >= 1")
    midx = np.flatnonzero(marked)
    if midx.size == 0:
        return SearchResult(None, budget)
    cap = max(1.0, STAGE_CAP_FACTOR * math.sqrt(n))
    m_stage = 1.0
    used = 0
    while used < budget:
        j = min(int(rng.integers(0, math.ceil(m_stage))), budget - used - 1)
        used += j + 1
        found = grover_stage(midx, n, j, rng)
        if found is not None:
            return SearchResult(found, used)
        m_stage = min(GROWTH * m_stage, cap)
    return SearchResult(None, used)


def _dh_core(values, budget: int, rng) -> float:
    """One threshold-descent pass: start at a random candidate, repeatedly
    search for anything scoring above the current threshold, stop when the
    core's ``budget`` of Grover iterations is gone, and return the final
    threshold. Once the threshold is the maximum, the search finds nothing
    marked and spends the rest of the budget at once."""
    best_v = float(values[rng.integers(values.size)])
    used = 0
    while used < budget:
        res = qsearch_sim(values > best_v, rng, budget - used)
        used += res.iterations
        if res.index is not None:
            best_v = float(values[res.index])
    return best_v


def dh_max_find(scores: ScoreOracle, rho: float, rng) -> tuple[int, float]:
    """Maximum finding with failure probability at most rho.

    Runs up to repetitions(rho) independent threshold-descent cores and
    keeps the best score. The returned index is canonicalized to the lowest
    index attaining the returned score, matching the classical argmax
    tie-break exactly. Once a core holds the maximum of ``scores.values``
    the answer is fixed, so the remaining cores are not simulated.

    The call charges ``scores.meter`` once, for all R = repetitions(rho)
    cores, each of which spends its whole budget B = ceil(CORE_BUDGET_FACTOR
    * sqrt(N)): R*B Grover iterations and R*(B+1) score evaluations (one
    start per core and one oracle application per iteration) at
    ``scores.cost`` raw queries each.
    """
    reps = repetitions(rho)
    budget = math.ceil(CORE_BUDGET_FACTOR * math.sqrt(scores.values.size))
    top = scores.values.max()
    if math.isnan(top):
        # NaN compares false with every threshold, so no score is the maximum
        raise ValueError("scores must not be NaN")
    best_v = -math.inf
    for _ in range(reps):
        best_v = max(best_v, _dh_core(scores.values, budget, rng))
        if best_v == top:
            break
    best_i = int(np.flatnonzero(scores.values == best_v)[0])
    scores.meter.charge_grover(reps * budget)
    scores.meter.charge_scores(reps * (budget + 1), scores.cost)
    return best_i, best_v


def max_find_pick(cost: int, meter: QueryMeter, rho: float, rng):
    """Greedy-learner selector: maximum finding at failure probability rho
    over a round's scores, each evaluation charging ``cost`` raw queries to
    ``meter``. dh_max_find is looked up per call, so rebinding it reaches it."""
    return lambda values: dh_max_find(ScoreOracle(values, cost, meter), rho, rng)
