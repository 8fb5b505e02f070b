"""Classical greedy two-hop learners and the theory-constant calculators.

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
    from .qsearch import GroverParams, QueryMeter

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


def _prune_ferro(samples, u, chosen, eta):
    """Keep j in chosen when dropping it lowers the influence by >= eta."""
    if not chosen:
        return [], []
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


def learn_ferro(u: int, samples: SampleSet, eta: float, k: int) -> NeighborhoodResult:
    """Influence-maximization greedy for ferromagnetic models.

    Runs k rounds of argmax over candidates (ties to the lowest node
    index), then prunes. Flags insufficient_samples when a round finds
    every candidate undefined, exhausted when candidates run out early.
    """
    n = samples.n
    if not 0 <= u < n:
        raise ValueError("u out of range")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    m_s = ones_mask(samples)
    m_su = m_s & samples.bits[u]
    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    insufficient = False
    exhausted = False
    for _ in range(k):
        cands = [j for j in range(n) if j != u and j not in chosen]
        if not cands:
            exhausted = True
            break
        scores = _score_candidates_ferro(samples, cands, m_s, m_su)
        best = int(np.argmax(scores))
        if scores[best] == UNDEFINED_SCORE:
            insufficient = True
            break
        j = cands[best]
        chosen.append(j)
        trace.append((j, float(scores[best])))
        m_s = m_s & samples.bits[j]
        m_su = m_su & samples.bits[j]
    kept, pruned = _prune_ferro(samples, u, chosen, eta)
    return NeighborhoodResult(
        u=u,
        estimate=tuple(sorted(kept)),
        trace=trace,
        pruned=tuple(pruned),
        insufficient_samples=insufficient,
        exhausted=exhausted,
    )


def _score_candidates_lc(samples, u, cands, cells) -> np.ndarray:
    """Average conditional covariance of u with each candidate over the
    cells of the current conditioning set."""
    return cov_scores(samples, u, cands, cells)


def _prune_lc(samples, u, chosen, tau):
    """Keep v when its covariance with u conditioned on the other chosen
    nodes stays at least tau. (Conditioning on v itself would be
    identically zero, so the conditioning set is chosen minus v.)"""
    kept, pruned = [], []
    for v in chosen:
        rest = [i for i in chosen if i != v]
        cells = conditioning_cells(samples, rest)
        if cov_scores(samples, u, [v], cells)[0] >= tau:
            kept.append(v)
        else:
            pruned.append(v)
    return kept, pruned


def learn_lc(u: int, samples: SampleSet, tau: float, t_max: int) -> NeighborhoodResult:
    """Conditional-covariance greedy for locally consistent models."""
    n = samples.n
    if not 0 <= u < n:
        raise ValueError("u out of range")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if samples.M == 0:
        return NeighborhoodResult(
            u=u, estimate=(), trace=[], pruned=(), insufficient_samples=True
        )
    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    exhausted = False
    cells = conditioning_cells(samples)
    while len(chosen) < t_max:
        cands = [v for v in range(n) if v != u and v not in chosen]
        if not cands:
            exhausted = True
            break
        scores = _score_candidates_lc(samples, u, cands, cells)
        best = int(np.argmax(scores))
        if scores[best] < tau:
            break
        v = cands[best]
        chosen.append(v)
        trace.append((v, float(scores[best])))
        cells = split_cells(cells, samples.bits[v])
    kept, pruned = _prune_lc(samples, u, chosen, tau)
    return NeighborhoodResult(
        u=u,
        estimate=tuple(sorted(kept)),
        trace=trace,
        pruned=tuple(pruned),
        exhausted=exhausted,
    )


@dataclass
class LearnerConfig:
    """Which learner to run over a whole sample set and with what knobs.

    algorithm is one of "ferro", "lc", "ferro-q", "lc-q". The quantum
    variants draw per-node RNG streams from ``seed`` and accept optional
    GroverParams overrides.
    """

    algorithm: str
    eta: float | None = None
    k: int | None = None
    tau: float | None = None
    t_max: int | None = None
    delta: float = 0.1
    zeta: float = 0.1
    seed: int = 0
    grover: "GroverParams | None" = None

    def __post_init__(self):
        if self.algorithm not in ("ferro", "lc", "ferro-q", "lc-q"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


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
    combine the estimates with the OR rule."""
    n = samples.n
    results = []
    meter = None
    if config.algorithm in ("ferro", "lc"):
        for u in range(n):
            if config.algorithm == "ferro":
                results.append(learn_ferro(u, samples, config.eta, config.k))
            else:
                results.append(learn_lc(u, samples, config.tau, config.t_max))
    else:
        from .qsearch import SampleOracle, quantum_learn_ferro, quantum_learn_lc

        oracle = SampleOracle(samples)
        for u in range(n):
            rng = np.random.default_rng([config.seed, u])
            if config.algorithm == "ferro-q":
                res, _ = quantum_learn_ferro(
                    u, oracle, config.eta, config.k, config.delta, rng, config.grover
                )
            else:
                res, _ = quantum_learn_lc(
                    u, oracle, config.tau, config.t_max, config.zeta, rng, config.grover
                )
            results.append(res)
        meter = oracle.meter
    graph = TwoHopGraph(n=n, edges=_or_edges(n, [r.estimate for r in results]))
    return FullGraphResult(graph=graph, per_node=results, meter=meter)
