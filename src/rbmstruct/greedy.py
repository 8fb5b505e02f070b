"""Greedy two-hop learners and the theory-constant calculators.

Two learners, both reading nothing but a SampleSet:

- learn_ferro: influence maximization for ferromagnetic models. k rounds,
  each adding the candidate j maximizing the empirical influence of
  pinning S union {j}; a final pruning pass keeps j only when removing it
  drops the influence by at least eta.
- learn_lc: conditional-covariance maximization for locally consistent
  models. Adds the candidate of largest empirical average conditional
  covariance with u while that maximum stays at least tau (hard cap T_max
  additions), then prunes each kept v whose covariance conditioned on the
  rest falls below tau.

Both run on one candidate loop (``_greedy``), which also drives the
quantum variants in ``qsearch``: each learner supplies its scorer, state
update, stop rule and index-cost law, and takes the per-round selector
(exhaustive argmax by default) and an optional QueryMeter to charge.

The theory thresholds (eta, tau) and iteration budgets (k, T_star) are
computed by ferro_constants / lc_constants with natural logarithms. They
are astronomically conservative at desk scale; experiments pass practical
overrides instead, and the sample-bound calculators exist to report how
far out of reach the guaranteed regime is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .estimators import (
    InfluenceValue,
    conditioning_cells,
    cov_scores,
    influence_counts,
    ones_mask,
    popcount,
    split_cells,
)
from .model import TwoHopGraph
from .sampling import SampleSet

if TYPE_CHECKING:
    from .qsearch import QueryMeter

# Score assigned to candidates whose influence is undefined (no sample
# matches the conditioning event): below any achievable score, so defined
# values always win the argmax.
UNDEFINED_SCORE = -2.0

_LOG10_E = math.log10(math.e)
_EXP_OVERFLOW = 700.0


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class FerroTheoryConstants:
    """Threshold, iteration count and sample bound for the ferromagnetic
    learner. sample_bound may overflow to inf; log10_sample_bound is always
    finite."""

    eta: float
    k: int
    sample_bound: float
    log10_sample_bound: float
    delta: float


@dataclass(frozen=True)
class LcTheoryConstants:
    """Threshold, iteration cap and sample bound for the locally consistent
    learner. delta_cond is the structural constant 0.5 * exp(-2 beta)."""

    tau: float
    t_star: int
    delta_cond: float
    sample_bound: float
    log10_sample_bound: float
    zeta: float


def ferro_constants(
    alpha: float, beta: float, d2: int, delta: float, n: int
) -> FerroTheoryConstants:
    """eta = alpha^2 sigmoid(-2 beta) (1 - tanh beta)^2, k = ceil(d2 ln(4/eta)),
    and the sample bound 2^(2k+3) (d2/eta)^2 (ln n + k ln(e n / k)) ln(4/delta)."""
    if alpha <= 0 or beta <= 0 or d2 < 1:
        raise ValueError("require alpha > 0, beta > 0, d2 >= 1")
    if not 0 < delta < 1:
        raise ValueError("require 0 < delta < 1")
    eta = alpha**2 * sigmoid(-2.0 * beta) * (1.0 - math.tanh(beta)) ** 2
    k = max(1, math.ceil(d2 * math.log(4.0 / eta)))
    if n <= k:
        raise ValueError(f"require n > k (k = {k})")
    bracket = math.log(n) + k * math.log(math.e * n / k)
    log_bound = (
        (2 * k + 3) * math.log(2.0)
        + 2.0 * (math.log(d2) - math.log(eta))
        + math.log(bracket)
        + math.log(math.log(4.0 / delta))
    )
    bound = math.exp(log_bound) if log_bound < _EXP_OVERFLOW else math.inf
    return FerroTheoryConstants(
        eta=eta,
        k=k,
        sample_bound=bound,
        log10_sample_bound=log_bound * _LOG10_E,
        delta=delta,
    )


def lc_constants(alpha: float, beta: float, zeta: float, n: int) -> LcTheoryConstants:
    """tau = alpha^2 exp(-12 beta), T* = ceil(8 / tau^2), delta_cond =
    0.5 exp(-2 beta), and the sample bound
    (ln(1/zeta) + T* ln n) 2^(2 T*) / (tau^2 delta_cond^(2 T*))."""
    if alpha <= 0 or beta < 0:
        raise ValueError("require alpha > 0, beta >= 0")
    if not 0 < zeta < 1:
        raise ValueError("require 0 < zeta < 1")
    if n < 1:
        raise ValueError("require n >= 1")
    tau = alpha**2 * math.exp(-12.0 * beta)
    if tau <= 0.0:
        raise ValueError("tau underflowed to zero; beta too large")
    t_star = math.ceil(8.0 / tau**2)
    delta_cond = 0.5 * math.exp(-2.0 * beta)
    prefactor = math.log(1.0 / zeta) + t_star * math.log(n) if n > 1 else math.log(1.0 / zeta)
    log_bound = (
        math.log(prefactor)
        + 2.0 * t_star * math.log(2.0)
        - 2.0 * math.log(tau)
        - 2.0 * t_star * math.log(delta_cond)
    )
    bound = math.exp(log_bound) if log_bound < _EXP_OVERFLOW else math.inf
    return LcTheoryConstants(
        tau=tau,
        t_star=int(t_star),
        delta_cond=delta_cond,
        sample_bound=bound,
        log10_sample_bound=log_bound * _LOG10_E,
        zeta=zeta,
    )


@dataclass
class NeighborhoodResult:
    """Estimated two-hop neighborhood of u with the greedy trace.

    ``trace`` records (chosen node, score at selection) per iteration;
    ``estimate`` is the post-pruning neighborhood, ``pruned`` the chosen
    nodes the pruning pass removed. ``insufficient_samples`` marks runs
    where every candidate's score was undefined at some iteration;
    ``exhausted`` marks runs that ran out of candidates before the
    iteration budget."""

    u: int
    estimate: tuple
    trace: list
    pruned: tuple
    insufficient_samples: bool = False
    exhausted: bool = False


def _influence_counts(samples: SampleSet, u: int, S) -> InfluenceValue:
    """InfluenceValue of u given S, by direct masking (no index reuse)."""
    mask = np.ones(samples.M, dtype=bool)
    for i in S:
        mask &= samples.column(i) == 1
    denom = int(mask.sum())
    numer = int((mask & (samples.column(u) == 1)).sum())
    return InfluenceValue(numer_count=numer, denom_count=denom)


def _influence_bits(samples: SampleSet, u: int, S) -> InfluenceValue:
    """InfluenceValue of u given S, by popcounts over the column bitsets."""
    m_s = ones_mask(samples, S)
    return InfluenceValue(
        numer_count=int(popcount(m_s & samples.bits[u])),
        denom_count=int(popcount(m_s)),
    )


def _score_candidates_ferro(samples, cands, m_s, m_su) -> np.ndarray:
    """Empirical influence scores for each candidate j: pinning S, does
    adding j keep u magnetized? ``m_s``/``m_su`` are the bitsets of the
    samples with x_S = 1^s and x_{S+u} = 1^(s+1). Undefined candidates
    get UNDEFINED_SCORE."""
    numer, denom = influence_counts(samples, cands, m_s, m_su)
    out = np.full(len(cands), UNDEFINED_SCORE)
    ok = denom > 0
    out[ok] = 2.0 * numer[ok] / denom[ok] - 1.0
    return out


def _argmax(values) -> tuple[int, float]:
    """Exhaustive argmax over one round's scores, ties to the lowest index."""
    best = int(np.argmax(values))
    return best, float(values[best])


def _greedy(u, samples, budget, state, score, add, stop, index_cost, pick, meter):
    """The candidate loop shared by both learners and their quantum variants.

    Each round scores the nodes not yet chosen with ``score(cands, state)``
    and lets ``pick(values) -> (index, value)`` select one; when
    ``stop(values, value)`` holds the run ends without taking it, otherwise
    the node joins the chosen set, the pair (node, value) the trace, and
    ``add(state, node)`` refines the conditioning state. Runs at most
    ``budget`` rounds. With a meter, each round first charges
    ``index_cost(|S|)`` raw queries for the conditioning structure it is
    scored against. Returns (chosen, trace, stopped, exhausted)."""
    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    while len(chosen) < budget:
        cands = [j for j in range(samples.n) if j != u and j not in chosen]
        if not cands:
            return chosen, trace, False, True
        if meter is not None:
            meter.charge_index(index_cost(len(chosen)))
        values = score(cands, state)
        best, value = pick(values)
        if stop(values, value):
            return chosen, trace, True, False
        j = cands[best]
        chosen.append(j)
        trace.append((j, value))
        state = add(state, j)
    return chosen, trace, False, False


def _prune_ferro(samples, u, chosen, eta, meter=None):
    """Keep j in chosen when dropping it lowers the influence by >= eta.
    With a meter, charges one M-query evaluation for the full-set influence
    and one for each leave-one-out influence, plus M(s-1) + M s raw queries
    per leave-one-out set for its conditioning scans without and with u."""
    if not chosen:
        return [], []
    if meter is not None:
        s, M = len(chosen), samples.M
        meter.charge_scores(s + 1, M)
        meter.charge_index(s * M * (2 * s - 1))
    i_full = _influence_bits(samples, u, chosen)
    kept, pruned = [], []
    for j in chosen:
        rest = [i for i in chosen if i != j]
        i_rest = _influence_bits(samples, u, rest)
        if (
            i_full.defined
            and i_rest.defined
            and i_full.value - i_rest.value >= eta
        ):
            kept.append(j)
        else:
            pruned.append(j)
    return kept, pruned


def learn_ferro(
    u: int, samples: SampleSet, eta: float, k: int,
    pick=_argmax, meter: "QueryMeter | None" = None,
) -> NeighborhoodResult:
    """Influence-maximization greedy for ferromagnetic models.

    Runs k rounds choosing a candidate with ``pick`` (by default the
    exhaustive argmax, ties to the lowest node index), then prunes. Flags
    insufficient_samples when a round finds every candidate undefined,
    exhausted when candidates run out early. With a meter, round s
    charges M(2s+1) raw queries for the conditioning sets of S and
    S union {u}.
    """
    n, M = samples.n, samples.M
    if not 0 <= u < n:
        raise ValueError("u out of range")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    bits = samples.bits
    m_s = ones_mask(samples)
    chosen, trace, insufficient, exhausted = _greedy(
        u, samples, k, (m_s, m_s & bits[u]),
        score=lambda cands, st: _score_candidates_ferro(samples, cands, *st),
        add=lambda st, j: (st[0] & bits[j], st[1] & bits[j]),
        stop=lambda values, _: not np.any(values > UNDEFINED_SCORE),
        index_cost=lambda s: M * (2 * s + 1),
        pick=pick,
        meter=meter,
    )
    kept, pruned = _prune_ferro(samples, u, chosen, eta, meter)
    return NeighborhoodResult(
        u, tuple(sorted(kept)), trace, tuple(pruned), insufficient, exhausted
    )


def _score_candidates_lc(samples, u, cands, cells) -> np.ndarray:
    """Average conditional covariance of u with each candidate over the
    cells of the current conditioning set."""
    return cov_scores(samples, u, cands, cells)


def _prune_lc(samples, u, chosen, tau, meter=None):
    """Keep v when its covariance with u conditioned on the other chosen
    nodes stays at least tau. (Conditioning on v itself would be
    identically zero, so the conditioning set is chosen minus v.) With a
    meter, charges each of these an H-query evaluation plus the scan of
    its conditioning set."""
    if meter is not None:
        s, H = len(chosen), samples.M
        meter.charge_scores(s, H)
        meter.charge_index(s * H * (s - 1))
    kept, pruned = [], []
    for v in chosen:
        rest = [i for i in chosen if i != v]
        cells = conditioning_cells(samples, rest)
        if cov_scores(samples, u, [v], cells)[0] >= tau:
            kept.append(v)
        else:
            pruned.append(v)
    return kept, pruned


def learn_lc(
    u: int, samples: SampleSet, tau: float, t_max: int,
    pick=_argmax, meter: "QueryMeter | None" = None,
) -> NeighborhoodResult:
    """Conditional-covariance greedy for locally consistent models.

    Adds the candidate chosen by ``pick`` (by default the exhaustive
    argmax) while its score stays at least tau, at most t_max times, then
    prunes. With a meter, round s charges H*s raw queries for the scan of
    the conditioning set.
    """
    n, H = samples.n, samples.M
    if not 0 <= u < n:
        raise ValueError("u out of range")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if H == 0:
        return NeighborhoodResult(
            u=u, estimate=(), trace=[], pruned=(), insufficient_samples=True
        )
    chosen, trace, _, exhausted = _greedy(
        u, samples, t_max, conditioning_cells(samples),
        score=lambda cands, cells: _score_candidates_lc(samples, u, cands, cells),
        add=lambda cells, v: split_cells(cells, samples.bits[v]),
        stop=lambda _, value: value < tau,
        index_cost=lambda s: H * s,
        pick=pick,
        meter=meter,
    )
    kept, pruned = _prune_lc(samples, u, chosen, tau, meter)
    return NeighborhoodResult(
        u, tuple(sorted(kept)), trace, tuple(pruned), exhausted=exhausted
    )


@dataclass
class LearnerConfig:
    """Which learner to run over a whole sample set and with what knobs.

    algorithm is one of "ferro", "lc", "ferro-q", "lc-q". The ferro
    learners need eta and k, the lc learners tau and t_max (ValueError
    otherwise). The quantum variants draw per-node RNG streams from ``seed``.
    """

    algorithm: str
    eta: float | None = None
    k: int | None = None
    tau: float | None = None
    t_max: int | None = None
    delta: float = 0.1
    zeta: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("ferro", "lc", "ferro-q", "lc-q"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        needed = ("eta", "k") if self.algorithm.startswith("ferro") else ("tau", "t_max")
        missing = [name for name in needed if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{self.algorithm} needs {' and '.join(missing)}")


@dataclass
class FullGraphResult:
    graph: TwoHopGraph
    per_node: list
    meter: "QueryMeter | None" = None


def _or_edges(n: int, estimates) -> frozenset:
    """Edge {u, v} is present when either per-node estimate names the other."""
    edges = set()
    for u, est in enumerate(estimates):
        for v in est:
            edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def learn_full_graph(samples: SampleSet, config: LearnerConfig) -> FullGraphResult:
    """Run the configured per-node learner for every visible node and
    combine the estimates with the OR rule. The quantum variants charge
    one QueryMeter for the whole graph."""
    from . import qsearch

    alg = config.algorithm
    meter = qsearch.QueryMeter() if alg.endswith("-q") else None
    results = []
    for u in range(samples.n):
        if alg == "ferro":
            res = learn_ferro(u, samples, config.eta, config.k)
        elif alg == "lc":
            res = learn_lc(u, samples, config.tau, config.t_max)
        else:
            rng = np.random.default_rng([config.seed, u])
            if alg == "ferro-q":
                res = qsearch.quantum_learn_ferro(
                    u, samples, meter, config.eta, config.k, config.delta, rng
                )
            else:
                res = qsearch.quantum_learn_lc(
                    u, samples, meter, config.tau, config.t_max, config.zeta, rng
                )
        results.append(res)
    graph = TwoHopGraph(n=samples.n, edges=_or_edges(samples.n, [r.estimate for r in results]))
    return FullGraphResult(graph=graph, per_node=results, meter=meter)
