"""Greedy two-hop learners.

``learn_full_graph`` is the one entry: it runs one per-node learner over
every visible node, configured by a ``LearnerConfig``, which checks every
knob once and holds each family's default threshold. The two per-node
learners read nothing but a SampleSet:

- ferro: influence maximization for ferromagnetic models. ``rounds``
  rounds, each adding the candidate j maximizing the empirical influence
  of pinning S union {j}; a final pruning pass keeps j only when removing
  it drops the influence by at least the threshold (eta).
- lc: conditional-covariance maximization for locally consistent models.
  Adds the candidate of largest empirical average conditional covariance
  with u while that maximum stays at least the threshold (tau), at most
  ``rounds`` (T_max) additions, then prunes each kept v whose covariance
  conditioned on the rest falls below it.

Both run on one candidate loop (``_greedy``) and one leave-one-out prune
(``_prune``), neither of which meters: each learner supplies its scorer,
state update, stop rule and keep rule, and takes the per-round selector
(exhaustive argmax by default) and an optional QueryMeter. The quantum
variants ("-q") are the same learners with metered maximum finding
(``qsearch.max_find_pick``) as the selector, which charges each search.

ferro's state is the set S itself: its scores read the all-ones counts
of S and of S union {u} from ``SampleSet.ones_counts``, which caches them
per sample set, so clique-mates that condition on the same set count it
once. Its prune counts each leave-one-out set afresh (``influence_bits``,
two popcounts under one mask): ``ones_counts`` would count all n columns
per set, and the learner's median on fresh n=16, M=256k sample sets rose
from 11 to 16 ms (2-CPU Xeon) when the prune read it.
lc's state is the cells of S with their counts (``counted_cells``,
refined by ``split_counted``, scored by ``counted_cov_scores``), and its
prune reads every leave-one-out state off the final one by merging cells
(``merge_counted``), with no pass over the samples.

With a meter, a learner charges its node's scans once, after its prune
(``_charge``), by one index-cost law per family. The laws price the cost
model, not the work this simulation does: the raw queries to scan
the conditioning structure of a set of size s: M(2s+1) for ferro (the
all-ones sets of S and S union {u}), M*s for lc. Each scored round s costs
law(s); pruning s chosen nodes costs s*law(s-1) plus s leave-one-out
evaluations at M queries each (ferro one more, for the full set).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (
    counted_cells,
    counted_cov_scores,
    influence_bits,
    merge_counted,
    split_counted,
)
from .model import TwoHopGraph
from .qsearch import QueryMeter, max_find_pick
from .sampling import SampleSet

# Score assigned to candidates whose influence is undefined (no sample
# matches the conditioning event): below any achievable score, so defined
# values always win the argmax.
UNDEFINED_SCORE = -2.0

# The per-node learners learn_full_graph runs: a family ("ferro" or "lc"),
# and with "-q" its metered quantum-search variant.
ALGORITHMS = ("ferro", "lc", "ferro-q", "lc-q")


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


def _score_candidates_ferro(samples, u, cands, S) -> np.ndarray:
    """Empirical influence scores for each candidate j: pinning S, does
    adding j keep u magnetized? The all-ones counts of S union {u, j} and
    of S union {j} are read from ``SampleSet.ones_counts``, whose sets
    other nodes share. Undefined candidates get UNDEFINED_SCORE."""
    numer = samples.ones_counts((*S, u))[cands]
    denom = samples.ones_counts(S)[cands]
    out = np.full(len(cands), UNDEFINED_SCORE)
    ok = denom > 0
    out[ok] = 2.0 * numer[ok] / denom[ok] - 1.0
    return out


def _argmax(values) -> tuple[int, float]:
    """Exhaustive argmax over one round's scores, ties to the lowest index."""
    best = int(np.argmax(values))
    return best, float(values[best])


def _greedy(u, n, budget, state, score, add, stop, pick):
    """The candidate loop shared by both learners and their quantum variants.

    Each round scores the nodes not yet chosen with ``score(cands, state)``
    and lets ``pick(values) -> (index, value)`` select one; when
    ``stop(values, value)`` holds the run ends without taking it, otherwise
    the node joins the chosen set, the pair (node, value) the trace, and
    ``add(state, node)`` refines the conditioning state by it. Runs at most
    ``budget`` rounds. Returns (chosen, trace, state, stopped, exhausted),
    with state that of the whole chosen set: a run scored len(trace) +
    stopped rounds."""
    chosen: list[int] = []
    trace: list[tuple[int, float]] = []
    while len(chosen) < budget:
        cands = [j for j in range(n) if j != u and j not in chosen]
        if not cands:
            return chosen, trace, state, False, True
        values = score(cands, state)
        best, value = pick(values)
        if stop(values, value):
            return chosen, trace, state, True, False
        j = cands[best]
        chosen.append(j)
        trace.append((j, value))
        state = add(state, j)
    return chosen, trace, state, False, False


def _prune(chosen, keep):
    """Leave-one-out pruning shared by both learners: j stays in chosen
    when ``keep(j, rest)`` holds for rest = chosen minus j. Returns (sorted
    kept, pruned) as tuples."""
    kept, pruned = [], []
    for j in chosen:
        (kept if keep(j, [i for i in chosen if i != j]) else pruned).append(j)
    return tuple(sorted(kept)), tuple(pruned)


def _charge(meter: QueryMeter, law, M: int, rounds: int, size: int, full_evals: int = 0) -> None:
    """Charge one node's scans and prune, in closed form: the ``rounds``
    rounds that scored scan their conditioning sets at law(0), ...,
    law(rounds - 1) index queries, and a prune of ``size`` chosen nodes
    scans size leave-one-out sets at law(size - 1) each and makes size +
    full_evals evaluations at M raw queries each. Each round's maximum
    finding is charged by ``qsearch.dh_max_find``."""
    meter.charge_index(sum(law(s) for s in range(rounds)) + size * law(size - 1))
    if size:
        meter.charge_scores(size + full_evals, M)


def _learn_ferro(
    u: int, samples: SampleSet, threshold: float, rounds: int,
    pick=_argmax, meter: QueryMeter | None = None,
) -> NeighborhoodResult:
    """Influence-maximization greedy for ferromagnetic models.

    Runs ``rounds`` rounds choosing a candidate with ``pick`` (by default
    the exhaustive argmax, ties to the lowest node index), then prunes at
    ``threshold``. Flags insufficient_samples when a round finds every
    candidate undefined, exhausted when candidates run out early.
    """
    n, M = samples.n, samples.M
    chosen, trace, _, insufficient, exhausted = _greedy(
        u, n, rounds, frozenset(),
        score=lambda cands, S: _score_candidates_ferro(samples, u, cands, S),
        add=lambda S, j: S | {j},
        stop=lambda values, _: not np.any(values > UNDEFINED_SCORE),
        pick=pick,
    )
    i_full = influence_bits(samples, u, chosen)

    def keep(j, rest):
        i_rest = influence_bits(samples, u, rest)
        return i_full.defined and i_rest.defined and i_full.value - i_rest.value >= threshold

    estimate, pruned = _prune(chosen, keep)
    if meter is not None:  # the scans of S and of S union {u}
        _charge(meter, lambda s: M * (2 * s + 1), M, len(trace) + insufficient, len(chosen),
                full_evals=1)
    return NeighborhoodResult(u, estimate, trace, pruned, insufficient, exhausted)


def _score_candidates_lc(samples, u, cands, state) -> np.ndarray:
    """Average conditional covariance of u with each candidate over the
    cells of the current conditioning set, from their counts."""
    return counted_cov_scores(samples, u, cands, state)


def _learn_lc(
    u: int, samples: SampleSet, threshold: float, rounds: int,
    pick=_argmax, meter: QueryMeter | None = None,
) -> NeighborhoodResult:
    """Conditional-covariance greedy for locally consistent models.

    Adds the candidate chosen by ``pick`` (by default the exhaustive
    argmax) while its score stays at least ``threshold``, at most
    ``rounds`` times, then prunes.
    """
    n, H = samples.n, samples.M
    if H == 0:
        return NeighborhoodResult(u, (), [], (), insufficient_samples=True)
    chosen, trace, full, stopped, exhausted = _greedy(
        u, n, rounds, counted_cells(samples),
        score=lambda cands, state: _score_candidates_lc(samples, u, cands, state),
        add=lambda state, v: split_counted(samples, state, v),
        stop=lambda _, value: value < threshold,
        pick=pick,
    )

    def keep(v, rest):
        return counted_cov_scores(samples, u, [v], merge_counted(full, rest))[0] >= threshold

    estimate, pruned = _prune(chosen, keep)
    if meter is not None:  # the scan of S
        _charge(meter, lambda s: H * s, H, len(trace) + stopped, len(chosen))
    return NeighborhoodResult(u, estimate, trace, pruned, exhausted=exhausted)


@dataclass(frozen=True)
class LearnerConfig:
    """Which learner to run over a whole sample set and with what knobs;
    the one place they are checked.

    algorithm is one of ALGORITHMS. Each family reads the same three knobs
    under the paper's names: ``threshold`` is eta (ferro) or tau (lc),
    ``rounds`` the round budget k or T_max, and ``fail_prob`` the failure
    probability delta or zeta that the "-q" variants split over their
    rounds. An unset threshold becomes the family's calibrated default,
    0.02 for ferro and 0.025 for lc. threshold must be finite and > 0,
    rounds >= 1 and fail_prob in (0, 1); ValueError otherwise. The quantum
    variants draw per-node RNG streams from ``seed``.
    """

    algorithm: str
    rounds: int
    threshold: float | None = None
    fail_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.threshold is None:
            # calibrated by threshold-plateau sweeps on random
            # (0.4, 2)-bounded models at desk scale
            default = 0.02 if self.algorithm.startswith("ferro") else 0.025
            object.__setattr__(self, "threshold", default)
        if not 0 < self.threshold < np.inf:  # also rejects NaN
            raise ValueError("threshold must be finite and > 0")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 < self.fail_prob < 1:
            raise ValueError("fail_prob must lie in (0, 1)")


@dataclass
class FullGraphResult:
    graph: TwoHopGraph
    per_node: list
    meter: QueryMeter | None = None


def _or_edges(estimates) -> frozenset:
    """Edge {u, v} is present when either per-node estimate names the other."""
    edges = set()
    for u, est in enumerate(estimates):
        for v in est:
            edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def learn_full_graph(samples: SampleSet, config: LearnerConfig) -> FullGraphResult:
    """Run the configured per-node learner for every visible node and
    combine the estimates with the OR rule. A "-q" variant selects each
    round by maximum finding at failure probability rho = fail_prob /
    (2 rounds), drawing node u's search randomness from the stream
    [seed, u], and charges one QueryMeter for the whole graph."""
    learn = _learn_ferro if config.algorithm.startswith("ferro") else _learn_lc
    meter = QueryMeter() if config.algorithm.endswith("-q") else None
    results = []
    for u in range(samples.n):
        pick = _argmax
        if meter is not None:
            rng = np.random.default_rng([config.seed, u])
            pick = max_find_pick(samples.M, meter, config.fail_prob / (2.0 * config.rounds), rng)
        results.append(learn(u, samples, config.threshold, config.rounds, pick=pick, meter=meter))
    graph = TwoHopGraph(n=samples.n, edges=_or_edges([r.estimate for r in results]))
    return FullGraphResult(graph=graph, per_node=results, meter=meter)
