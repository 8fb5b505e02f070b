"""Experiment runner: generate models, sample, learn, score recovery; the
argmax-query scaling sweep; and the learners' theory bounds, which
``constants`` reports (``format_constants``).

Per-trial randomness is derived from the master seed by a counter-based
split: the RNG for role r of trial t is seeded with the entropy sequence
[master_seed, t, r], roles 0 (model), 1 (sampler), 2 (learner). Worker
scheduling therefore cannot change results, and trial records are
written in trial order.

Outputs: one JSON object per trial (line-delimited, sorted keys) plus an
aggregate CSV with a fixed column order (see CSV_COLUMNS). Wall time is
reported on the metrics object and the printed summary only; keeping it
out of the files makes outputs byte-identical across reruns. Each record
carries ``gibbs_rhat``, the sampler's largest split-R-hat over visible
nodes (``sampling.split_rhat``): the string "inf" when the chains never
mix, and null for exact sampling or when a chain holds fewer than 4
draws or no node varies.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import sampling
from .greedy import LearnerConfig, learn_full_graph
from .model import (
    KIND_FERROMAGNETIC,
    NonDegeneracyParams,
    RbmModel,
    check_enumerable,
    check_shape,
    generate_model,
    load_model,
    two_hop_graph,
)
from .qsearch import QueryMeter, ScoreOracle, dh_max_find
from .sampling import SAMPLERS, GibbsConfig, split_rhat

THREADS_ENV = "RBM_SL_THREADS"

CSV_COLUMNS = [
    "algorithm",
    "kind",
    "n",
    "m",
    "d2",
    "alpha",
    "beta",
    "sampler",
    "num_samples",
    "trials",
    "exact_recovery",
    "edge_precision",
    "edge_recall",
    "raw_queries_mean",
    "raw_queries_stderr",
    "score_evals_mean",
    "score_evals_stderr",
]

class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 1)."""


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; flags of the ``learn`` subcommand
    mirror these field names."""

    kind: str = KIND_FERROMAGNETIC
    n: int = 10
    m: int = 5
    d2: int = 3
    alpha: float = 0.4
    beta: float = 2.0
    seed: int = 0
    sampler: str = "exact"
    num_samples: int = 128000
    burn_in: int = GibbsConfig.burn_in
    thinning: int = GibbsConfig.thinning
    algorithm: str = "ferro"
    # The learner's knobs (see LearnerConfig); an unset threshold takes the
    # family default, an unset rounds d2 + 1.
    threshold: float | None = None
    rounds: int | None = None
    fail_prob: float = LearnerConfig.fail_prob
    trials: int = 1
    out: str | None = None
    # When set, every trial learns this model; run() then takes the kind,
    # n, m and d2 from the file.
    model_file: str | None = None

    def validate(self) -> LearnerConfig:
        """Check every setting and return the learner the trials run.

        Only the sampler, trials, num_samples and out's directory are
        checked here; every other setting is checked by the code that owns
        it (check_shape, check_enumerable for the exact sampler,
        NonDegeneracyParams, GibbsConfig, LearnerConfig), whose ValueError
        or OverflowError becomes a ConfigError. The learner knobs pass
        through as set: an unset threshold becomes the family default in
        LearnerConfig, and an unset rounds becomes d2 + 1 here."""
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        if self.num_samples < 0:
            raise ConfigError("num_samples must be >= 0")
        if self.out is not None and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"cannot write {self.out}.jsonl: no such directory")
        try:
            check_shape(self.kind, self.n, self.m, self.d2)
            if self.sampler == "exact":
                check_enumerable(self.n, self.m)
            NonDegeneracyParams(self.alpha, self.beta)
            GibbsConfig(self.burn_in, self.thinning)
            return LearnerConfig(
                algorithm=self.algorithm,
                rounds=self.d2 + 1 if self.rounds is None else self.rounds,
                threshold=self.threshold,
                fail_prob=self.fail_prob,
            )
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class RecoveryMetrics:
    trials: int
    exact_recovery: float
    edge_precision: float
    edge_recall: float
    raw_queries_mean: float
    raw_queries_stderr: float
    score_evals_mean: float
    score_evals_stderr: float
    wall_time: float


def _edge_metrics(found: set, truth: set) -> tuple[float, float]:
    hit = len(found & truth)
    precision = hit / len(found) if found else 1.0
    recall = hit / len(truth) if truth else 1.0
    return precision, recall


def _derived_seed(master: int, trial: int, role: int) -> int:
    """Counter-based per-trial stream split: entropy [master, trial, role]."""
    return int(np.random.SeedSequence([master, trial, role]).generate_state(1)[0])


def _run_trial(
    config: ExperimentConfig, learner: LearnerConfig, trial: int, model: RbmModel | None = None
) -> dict:
    if model is None:
        model = generate_model(
            config.kind,
            config.n,
            config.m,
            config.d2,
            NonDegeneracyParams(config.alpha, config.beta),
            seed=_derived_seed(config.seed, trial, 0),
        )
    samples = sampling.draw(model, config.num_samples, config.sampler,
                            _derived_seed(config.seed, trial, 1), config.burn_in, config.thinning)
    rhat = split_rhat(samples) if config.sampler == "gibbs" else None
    learner = dataclasses.replace(learner, seed=_derived_seed(config.seed, trial, 2))
    result = learn_full_graph(samples, learner)
    truth = set(two_hop_graph(model).edges)
    found = set(result.graph.edges)
    precision, recall = _edge_metrics(found, truth)
    meter = result.meter if result.meter is not None else QueryMeter()
    return {
        "trial": trial,
        "truth_edges": sorted(list(e) for e in truth),
        "found_edges": sorted(list(e) for e in found),
        "exact": found == truth,
        "precision": precision,
        "recall": recall,
        "raw_queries": meter.raw_queries,
        "score_evals": meter.score_evals,
        "insufficient_nodes": [r.u for r in result.per_node if r.insufficient_samples],
        "exhausted_nodes": [r.u for r in result.per_node if r.exhausted],
        "gibbs_rhat": rhat if rhat is None or math.isfinite(rhat) else "inf",
    }


def _mean_stderr(values) -> tuple[float, float]:
    if len(values) == 0:
        return 0.0, 0.0
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(len(arr)))


def run(config: ExperimentConfig) -> tuple[RecoveryMetrics, list]:
    """Run the configured trials; returns aggregate metrics and per-trial
    records, writing <out>.jsonl and <out>.csv when an output path is set.

    With ``model_file`` set, the file is loaded once and its kind, n, m
    and two-hop degree d2 replace the config's (in the CSV and in the
    default round budget d2 + 1). An RBM_SL_THREADS that is set but not
    an integer >= 1 is a ConfigError (unset or empty means one process)."""
    workers = _workers()
    model = None
    if config.model_file is not None:
        model = load_model(config.model_file)
        config = dataclasses.replace(
            config, kind=model.kind, n=model.n, m=model.m, d2=two_hop_graph(model).max_degree
        )
    learner = config.validate()
    start = time.perf_counter()
    trial = functools.partial(_run_trial, config, learner, model=model)
    trials = range(config.trials)
    if workers > 1 and len(trials) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(trial, trials))
    else:
        records = list(map(trial, trials))

    exact = [r["exact"] for r in records]
    raw_mean, raw_se = _mean_stderr([r["raw_queries"] for r in records])
    ev_mean, ev_se = _mean_stderr([r["score_evals"] for r in records])
    prec_mean, _ = _mean_stderr([r["precision"] for r in records])
    rec_mean, _ = _mean_stderr([r["recall"] for r in records])
    metrics = RecoveryMetrics(
        trials=len(records),
        exact_recovery=(sum(exact) / len(exact)) if exact else 0.0,
        edge_precision=prec_mean,
        edge_recall=rec_mean,
        raw_queries_mean=raw_mean,
        raw_queries_stderr=raw_se,
        score_evals_mean=ev_mean,
        score_evals_stderr=ev_se,
        wall_time=time.perf_counter() - start,
    )
    if config.out is not None:
        write_records(config.out + ".jsonl", records)
        write_aggregate_csv(config.out + ".csv", config, metrics)
    return metrics, records


def _workers() -> int:
    raw = os.environ.get(THREADS_ENV) or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{THREADS_ENV} must be an integer >= 1, got {raw!r}")
    return workers


def write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=False))
            fh.write("\n")


def write_aggregate_csv(path, config: ExperimentConfig, metrics: RecoveryMetrics) -> None:
    # metrics last: the trials column counts the trials that ran
    row = {**dataclasses.asdict(config), **dataclasses.asdict(metrics)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write(",".join(str(row[c]) for c in CSV_COLUMNS) + "\n")


@dataclass
class SweepResult:
    rows: list  # (n, classical_mean, quantum_mean)
    classical_slope: float
    quantum_slope: float


def sweep_scaling(n_list, trials: int, rho: float, seed: int) -> SweepResult:
    """Measure argmax-search cost against candidate count on synthetic
    unit-cost score oracles.

    The classical exhaustive argmax evaluates all n candidates; the
    metered maximum finder is run ``trials`` times per n at failure
    probability rho, scores and search drawn from the generator
    [seed, n, trial], and its mean score_evals recorded. That finder
    charges in closed form, R (ceil(22.5 sqrt(n)) + 1) with
    R = repetitions(rho), so the quantum column does not depend on trials
    or seed: they only repeat the simulated search. Slopes are
    least-squares fits of log(mean queries) against log(n).
    """
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ConfigError("n list must be strictly ascending")
    if len(n_list) < 3:
        raise ConfigError(f"degenerate fit: need at least 3 points, got {len(n_list)}")
    if n_list[0] < 1:
        raise ConfigError(f"n list entries must be >= 1, got {n_list[0]}")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rows = []
    for n in n_list:
        evals = []
        for t in range(trials):
            rng = np.random.default_rng([seed, n, t])
            meter = QueryMeter()
            scores = ScoreOracle(rng.random(n), cost=1, meter=meter)
            dh_max_find(scores, rho, rng)
            evals.append(meter.score_evals)
        rows.append((n, float(n), float(np.mean(evals))))
    logs_n = np.log([r[0] for r in rows])
    classical_slope = float(np.polyfit(logs_n, np.log([r[1] for r in rows]), 1)[0])
    quantum_slope = float(np.polyfit(logs_n, np.log([r[2] for r in rows]), 1)[0])
    return SweepResult(rows=rows, classical_slope=classical_slope, quantum_slope=quantum_slope)


# The learners' theory bounds (Bresler, Koehler & Moitra for ferro, Goel for
# lc), computed with natural logarithms: thresholds, round budgets and sample
# bounds so conservative at desk scale that experiments use practical
# thresholds, and ``constants`` only reports how far out of reach the
# guaranteed regime is, flagging a sample bound above DESK_LIMIT.
DESK_LIMIT = 1e12


@dataclass(frozen=True)
class FerroTheoryConstants:
    """Threshold, iteration count and sample bound for the ferromagnetic
    learner. sample_bound may overflow to inf; log10_sample_bound is always
    finite."""

    eta: float
    k: int
    sample_bound: float
    log10_sample_bound: float


@dataclass(frozen=True)
class LcTheoryConstants:
    """Threshold, iteration cap and sample bound for the locally consistent
    learner. delta_cond is the structural constant 0.5 * exp(-2 beta).
    sample_bound may overflow to inf; log10_sample_bound is always finite."""

    tau: float
    t_star: int
    delta_cond: float
    sample_bound: float
    log10_sample_bound: float


def _sample_bound(log_bound: float) -> tuple[float, float]:
    """(sample_bound, log10_sample_bound) of a bound given by its natural
    log; the bound is inf past 700, where exp overflows."""
    return math.exp(log_bound) if log_bound < 700.0 else math.inf, log_bound * math.log10(math.e)


def _check_fail_prob(fail_prob: float) -> None:
    """ValueError unless fail_prob lies in (0, 1) and 4 / fail_prob, which
    both sample bounds take the log of, is finite."""
    if not 0 < fail_prob < 1:
        raise ValueError("fail_prob must lie in (0, 1)")
    if 4.0 / fail_prob == math.inf:
        raise ValueError("fail_prob too small for a finite sample bound")


def ferro_constants(
    alpha: float, beta: float, d2: int, fail_prob: float, n: int
) -> FerroTheoryConstants:
    """eta = alpha^2 sigmoid(-2 beta) (1 - tanh beta)^2, k = ceil(d2 ln(4/eta)),
    and the sample bound 2^(2k+3) (d2/eta)^2 (ln n + k ln(e n / k)) ln(4/delta)
    with delta = fail_prob."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("require alpha > 0, beta > 0")
    if d2 < 1:
        raise ValueError("d2 must be >= 1")
    _check_fail_prob(fail_prob)
    e = math.exp(-2.0 * beta)
    try:
        eta = alpha**2 * (e / (1.0 + e)) * (1.0 - math.tanh(beta)) ** 2
    except OverflowError:
        raise ValueError("alpha too large") from None
    if eta <= 0.0:
        raise ValueError("eta underflowed to zero; alpha too small or beta too large")
    k = max(1, math.ceil(d2 * math.log(4.0 / eta)))
    if n <= k:
        raise ValueError(f"require n > k (k = {k})")
    bracket = math.log(n) + k * math.log(math.e * n / k)
    log_bound = (
        (2 * k + 3) * math.log(2.0)
        + 2.0 * (math.log(d2) - math.log(eta))
        + math.log(bracket)
        + math.log(math.log(4.0 / fail_prob))
    )
    return FerroTheoryConstants(eta, k, *_sample_bound(log_bound))


def lc_constants(alpha: float, beta: float, fail_prob: float, n: int) -> LcTheoryConstants:
    """tau = alpha^2 exp(-12 beta), T* = ceil(8 / tau^2), delta_cond =
    0.5 exp(-2 beta), and the sample bound
    (ln(1/zeta) + T* ln n) 2^(2 T*) / (tau^2 delta_cond^(2 T*)) with
    zeta = fail_prob."""
    if alpha <= 0 or beta < 0:
        raise ValueError("require alpha > 0, beta >= 0")
    _check_fail_prob(fail_prob)
    if n < 1:
        raise ValueError("require n >= 1")
    try:
        tau = alpha**2 * math.exp(-12.0 * beta)
        tau_sq = tau**2
    except OverflowError:
        raise ValueError("alpha too large") from None
    if tau <= 0.0:
        raise ValueError("tau underflowed to zero; alpha too small or beta too large")
    if tau_sq == 0.0 or 8.0 / tau_sq == math.inf:
        raise ValueError("tau too small for T* = ceil(8/tau^2)")
    t_star = math.ceil(8.0 / tau_sq)
    delta_cond = 0.5 * math.exp(-2.0 * beta)
    prefactor = math.log(1.0 / fail_prob) + t_star * math.log(n)
    log_bound = (
        math.log(prefactor)
        + 2.0 * t_star * math.log(2.0)
        - 2.0 * math.log(tau)
        - 2.0 * t_star * math.log(delta_cond)
    )
    if not math.isfinite(log_bound):
        raise ValueError("tau too small for a finite sample bound")
    return LcTheoryConstants(tau, t_star, delta_cond, *_sample_bound(log_bound))


def format_constants(alpha: float, beta: float, d2: int, fail_prob: float, n: int) -> str:
    """The ``constants`` report: both theory-constant sets, one per line,
    with fail_prob as the ferro delta and the lc zeta. The weight bounds
    are checked first, so an error names alpha or beta."""
    NonDegeneracyParams(alpha, beta)
    fc = ferro_constants(alpha, beta, d2, fail_prob, n)
    lcc = lc_constants(alpha, beta, fail_prob, n)

    def bound(label, c):
        lines = [f"{label} = {c.sample_bound!r}  (log10 = {c.log10_sample_bound:.6g})"]
        if c.log10_sample_bound > math.log10(DESK_LIMIT):
            lines.append("  -> exceeds 1e12: not desk-reproducible")
        return lines

    return "\n".join([
        f"eta                = {fc.eta!r}",
        f"k                  = {fc.k}",
        *bound("ferro sample bound", fc),
        f"tau                = {lcc.tau!r}",
        f"T*                 = {lcc.t_star}",
        f"delta_cond         = {lcc.delta_cond!r}",
        *bound("lc sample bound   ", lcc),
    ])
