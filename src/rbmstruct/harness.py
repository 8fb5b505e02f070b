"""Experiment runner: generate models, sample, learn, score recovery.

Per-trial randomness is derived from the master seed by a counter-based
split: the RNG for role r of trial t is seeded with the entropy sequence
[master_seed, t, r], roles 0 (model), 1 (sampler), 2 (learner). Worker
scheduling therefore cannot change results, and trial records are sorted
by trial index before writing.

Outputs: one JSON object per trial (line-delimited, sorted keys) plus an
aggregate CSV with a fixed column order (see CSV_COLUMNS). Wall time is
reported on the metrics object and the printed summary only; keeping it
out of the files makes outputs byte-identical across reruns. Each record
carries ``gibbs_rhat``, the sampler's largest split-R-hat over visible
nodes (``sampling.split_rhat``), or null for exact sampling.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .greedy import (
    LearnerConfig,
    ferro_constants,
    lc_constants,
    learn_full_graph,
)
from .model import (
    KIND_FERROMAGNETIC,
    KIND_LOCALLY_CONSISTENT,
    NonDegeneracyParams,
    RbmModel,
    generate_model,
    load_model,
    two_hop_graph,
)
from .qsearch import QueryMeter, ScoreOracle, dh_max_find
from .sampling import GibbsConfig, exact_sample, gibbs_sample, split_rhat

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

# Practical learner defaults, calibrated by threshold-plateau sweeps on
# random (0.4, 2)-bounded models at desk scale. The theory values are
# available via theory_defaults=True and are typically astronomically
# conservative.
PRACTICAL_ETA = 0.02
PRACTICAL_TAU = 0.025
PRACTICAL_EXTRA_ROUNDS = 1


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
    num_samples: int = 20000
    burn_in: int = 1000
    thinning: int = 10
    algorithm: str = "ferro"
    eta: float | None = None
    tau: float | None = None
    k: int | None = None
    t_max: int | None = None
    delta: float = 0.1
    zeta: float = 0.1
    theory_defaults: bool = False
    trials: int = 1
    out: str | None = None
    # When set, every trial learns this model; run() then takes n, m and
    # d2 from the file and rejects a kind that differs from it.
    model_file: str | None = None

    def validate(self) -> None:
        if self.kind not in (KIND_FERROMAGNETIC, KIND_LOCALLY_CONSISTENT):
            raise ConfigError(f"unknown kind {self.kind!r}")
        if self.sampler not in ("exact", "gibbs"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.algorithm not in ("ferro", "lc", "ferro-q", "lc-q"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        if self.num_samples < 0:
            raise ConfigError("num_samples must be >= 0")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ConfigError("thinning must be >= 1")
        if self.n < 1 or self.m < 0 or not 0 <= self.d2 <= self.n - 1:
            raise ConfigError("bad model dimensions")
        if self.alpha <= 0 or self.beta < self.alpha:
            raise ConfigError("need 0 < alpha <= beta")
        for name in ("eta", "tau"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # also rejects NaN
                raise ConfigError(f"{name} must be > 0")
        for name in ("k", "t_max"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("delta", "zeta"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"{name} must lie in (0, 1)")

    def resolved_learner(self) -> LearnerConfig:
        """Fill in thresholds and budgets, from theory or practical defaults."""
        eta, tau, k, t_max = self.eta, self.tau, self.k, self.t_max
        if self.theory_defaults:
            if self.algorithm.startswith("ferro"):
                fc = ferro_constants(self.alpha, self.beta, max(1, self.d2), self.delta, self.n)
                eta = fc.eta if eta is None else eta
                k = fc.k if k is None else k
            else:
                lcc = lc_constants(self.alpha, self.beta, self.zeta, self.n)
                tau = lcc.tau if tau is None else tau
                t_max = lcc.t_star if t_max is None else t_max
        if eta is None:
            eta = PRACTICAL_ETA
        if tau is None:
            tau = PRACTICAL_TAU
        if k is None:
            k = self.d2 + PRACTICAL_EXTRA_ROUNDS
        if t_max is None:
            t_max = self.d2 + PRACTICAL_EXTRA_ROUNDS
        return LearnerConfig(
            algorithm=self.algorithm,
            eta=eta,
            k=k,
            tau=tau,
            t_max=t_max,
            delta=self.delta,
            zeta=self.zeta,
        )


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


def _run_trial(config: ExperimentConfig, trial: int, model: RbmModel | None = None) -> dict:
    if model is None:
        model = generate_model(
            config.kind,
            config.n,
            config.m,
            config.d2,
            NonDegeneracyParams(config.alpha, config.beta),
            seed=_derived_seed(config.seed, trial, 0),
        )
    rhat = None
    if config.sampler == "exact":
        samples = exact_sample(model, config.num_samples, seed=_derived_seed(config.seed, trial, 1))
    else:
        cfg = GibbsConfig(
            burn_in=config.burn_in,
            thinning=config.thinning,
            seed=_derived_seed(config.seed, trial, 1),
        )
        samples = gibbs_sample(model, config.num_samples, cfg)
        rhat = split_rhat(samples)
    lcfg = config.resolved_learner()
    lcfg.seed = _derived_seed(config.seed, trial, 2)
    result = learn_full_graph(samples, lcfg)
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
        "gibbs_rhat": rhat,
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

    With ``model_file`` set, the file is loaded once and its n, m and
    two-hop degree d2 replace the config's (in the CSV and in the
    practical round budget d2 + 1); a kind other than the file's is a
    ConfigError."""
    model = None
    if config.model_file is not None:
        model = load_model(config.model_file)
        if config.kind != model.kind:
            raise ConfigError(
                f"kind {config.kind!r} differs from the model file's kind {model.kind!r}"
            )
        config = dataclasses.replace(
            config, n=model.n, m=model.m, d2=two_hop_graph(model).max_degree
        )
    config.validate()
    start = time.perf_counter()
    trials = list(range(config.trials))
    workers = int(os.environ.get(THREADS_ENV, "1") or "1")
    if workers > 1 and len(trials) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            n = len(trials)
            records = list(pool.map(_run_trial, [config] * n, trials, [model] * n))
    else:
        records = [_run_trial(config, t, model) for t in trials]
    records.sort(key=lambda r: r["trial"])

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


def write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def write_aggregate_csv(path, config: ExperimentConfig, metrics: RecoveryMetrics) -> None:
    values = {
        "algorithm": config.algorithm,
        "kind": config.kind,
        "n": config.n,
        "m": config.m,
        "d2": config.d2,
        "alpha": repr(config.alpha),
        "beta": repr(config.beta),
        "sampler": config.sampler,
        "num_samples": config.num_samples,
        "trials": metrics.trials,
        "exact_recovery": repr(metrics.exact_recovery),
        "edge_precision": repr(metrics.edge_precision),
        "edge_recall": repr(metrics.edge_recall),
        "raw_queries_mean": repr(metrics.raw_queries_mean),
        "raw_queries_stderr": repr(metrics.raw_queries_stderr),
        "score_evals_mean": repr(metrics.score_evals_mean),
        "score_evals_stderr": repr(metrics.score_evals_stderr),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write(",".join(str(values[c]) for c in CSV_COLUMNS) + "\n")


class FitError(ValueError):
    """Degenerate scaling fit: fewer than 3 successful points."""


@dataclass
class SweepResult:
    rows: list  # (n, classical_mean, quantum_mean)
    classical_slope: float
    quantum_slope: float


def sweep_scaling(
    n_list,
    trials: int,
    rho: float = 0.5,
    seed: int = 0,
) -> SweepResult:
    """Measure argmax-search cost against candidate count on synthetic
    unit-cost score oracles.

    The classical exhaustive argmax evaluates all n candidates; the
    metered maximum finder is run at failure probability rho (default
    0.5, the primitive's constant-success form) and its score_evals
    counted. Slopes are least-squares fits of log(mean queries) against
    log(n).
    """
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ConfigError("n list must be strictly ascending")
    if len(n_list) < 3:
        raise FitError(f"degenerate fit: need at least 3 points, got {len(n_list)}")
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


DESK_LIMIT = 1e12


def calc_constants(
    alpha: float, beta: float, d2: int, n: int, delta: float, zeta: float
) -> dict:
    """Evaluate both theory-constant sets and flag sample bounds beyond
    desk scale (> 1e12)."""
    fc = ferro_constants(alpha, beta, d2, delta, n)
    lcc = lc_constants(alpha, beta, zeta, n)
    return {
        "ferro": fc,
        "lc": lcc,
        "ferro_desk_reproducible": fc.log10_sample_bound <= math.log10(DESK_LIMIT),
        "lc_desk_reproducible": lcc.log10_sample_bound <= math.log10(DESK_LIMIT),
    }


def format_constants(report: dict) -> str:
    fc = report["ferro"]
    lcc = report["lc"]
    lines = [
        f"eta                = {fc.eta!r}",
        f"k                  = {fc.k}",
        f"ferro sample bound = {fc.sample_bound!r}  (log10 = {fc.log10_sample_bound:.6g})",
    ]
    if not report["ferro_desk_reproducible"]:
        lines.append("  -> exceeds 1e12: not desk-reproducible")
    lines += [
        f"tau                = {lcc.tau!r}",
        f"T*                 = {lcc.t_star}",
        f"delta_cond         = {lcc.delta_cond!r}",
        f"lc sample bound    = {lcc.sample_bound!r}  (log10 = {lcc.log10_sample_bound:.6g})",
    ]
    if not report["lc_desk_reproducible"]:
        lines.append("  -> exceeds 1e12: not desk-reproducible")
    return "\n".join(lines)


def verify(quick: bool = True) -> bool:
    """Run the built-in invariant battery; returns True when everything
    holds. The full acceptance suite lives in the repository tests and is
    run with pytest; this battery covers the key identities so an
    installed package can self-check.
    """
    from . import estimators, greedy, model, qsearch, sampling

    ok = True

    def check(name, cond):
        nonlocal ok
        status = "PASS" if cond else "FAIL"
        print(f"[verify] {name}: {status}")
        ok = ok and bool(cond)

    rng = np.random.default_rng(20240811)
    # covariance route identity on random data
    worst = 0.0
    for _ in range(30 if quick else 200):
        n = int(rng.integers(3, 7))
        M = int(rng.integers(1, 300))
        rows = rng.choice([-1, 1], size=(M, n))
        samples = sampling.SampleSet.from_pm1(rows)
        nodes = rng.permutation(n)
        u, v = int(nodes[0]), int(nodes[1])
        S = [int(x) for x in nodes[2 : 2 + int(rng.integers(0, n - 1))]]
        idx = estimators.build_index(samples, S)
        d = estimators.avg_cond_cov_direct(samples, u, v, idx)
        e = estimators.avg_cond_cov_decomposed(samples, u, v, idx)
        worst = max(worst, abs(d - e))
    check("covariance decomposition identity (<= 1e-12)", worst <= 1e-12)

    # bitset fast paths against the index and masking references (own
    # stream, so the draws of the checks below do not move)
    brng = np.random.default_rng(20240812)
    same = True
    for _ in range(30 if quick else 200):
        n = int(brng.integers(3, 12))
        M = int(brng.integers(1, 300))
        samples = sampling.SampleSet.from_pm1(brng.choice([-1, 1], size=(M, n)))
        nodes = [int(x) for x in brng.permutation(n)]
        u, cands = nodes[0], nodes[1:]
        S = cands[: int(brng.integers(0, n - 1))]
        cands = cands[len(S) :]
        idx = estimators.build_index(samples, S)
        fast = estimators.cov_scores(samples, u, cands, estimators.conditioning_cells(samples, S))
        ref = [estimators.avg_cond_cov_decomposed(samples, u, v, idx) for v in cands]
        same = same and fast.tolist() == ref
        m_s = estimators.ones_mask(samples, S)
        numer, denom = estimators.influence_counts(samples, cands, m_s, m_s & samples.bits[u])
        masked = [greedy._influence_counts(samples, u, S + [j]) for j in cands]
        same = same and numer.tolist() == [iv.numer_count for iv in masked]
        same = same and denom.tolist() == [iv.denom_count for iv in masked]
    check("bitset scores equal the index and masking routes", same)

    # influence ratio vs conditional mean
    worst = 0.0
    for _ in range(30 if quick else 200):
        n = int(rng.integers(2, 6))
        M = int(rng.integers(1, 300))
        rows = rng.choice([-1, 1], size=(M, n))
        samples = sampling.SampleSet.from_pm1(rows)
        nodes = rng.permutation(n)
        u = int(nodes[0])
        S = [int(x) for x in nodes[1 : 1 + int(rng.integers(0, n))]]
        iv = estimators.empirical_influence(samples, u, S)
        if not iv.defined:
            continue
        idx = estimators.build_index(samples, S)
        sub = idx.ones_indices
        direct = float(samples.column(u)[sub].astype(np.float64).mean())
        worst = max(worst, abs(iv.value - direct))
    check("influence expansion identity (<= 1e-12)", worst <= 1e-12)

    # sample file round trip
    rows = rng.choice([-1, 1], size=(17, 11))
    samples = sampling.SampleSet.from_pm1(rows)
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "s.rbms")
        sampling.save(samples, p)
        check("sample file round trip", sampling.load(p) == samples)

    # Grover stage statistics (4 sigma at reduced repetitions)
    reps = 20000
    t, n, j = 4, 64, 3
    hits = 0
    marked = np.arange(t)
    for _ in range(reps):
        hits += qsearch.grover_stage(marked, n, j, rng) is not None
    p = qsearch.stage_success_probability(n, t, j)
    se = math.sqrt(p * (1 - p) / reps)
    check("Grover stage statistics (4 sigma)", abs(hits / reps - p) <= 4 * se)

    # maximum finding hits the argmax
    good = 0
    runs = 200
    for r in range(runs):
        vals = np.random.default_rng([7, r]).random(64)
        meter = qsearch.QueryMeter()
        scores = qsearch.ScoreOracle(vals, cost=1, meter=meter)
        i, _ = qsearch.dh_max_find(scores, 0.1, np.random.default_rng([8, r]))
        good += i == int(np.argmax(vals))
    check("maximum finding success >= 1 - rho", good / runs >= 0.9)

    # exact oracle normalization
    mdl = model.generate_model(
        KIND_FERROMAGNETIC, 5, 3, 2, NonDegeneracyParams(0.3, 1.5), seed=5
    )
    total = model.ExactOracle(mdl).probabilities.sum()
    check("visible marginal normalization", abs(total - 1.0) <= 1e-12)

    # multi-chain Gibbs against the exact marginal (fixed seeds of its own,
    # so no other check's draws move)
    mdl = model.generate_model(
        KIND_FERROMAGNETIC, 4, 2, 2, NonDegeneracyParams(0.3, 1.5), seed=6
    )
    gs = sampling.gibbs_sample(mdl, 50_000, sampling.GibbsConfig(seed=7))
    # node 0 is each packed byte's top bit and each config index's top bit
    counts = np.bincount(gs.packed[:, 0] >> (8 - mdl.n), minlength=1 << mdl.n)
    tv = 0.5 * np.abs(counts / gs.M - model.ExactOracle(mdl).probabilities).sum()
    check("Gibbs total variation to the exact marginal (<= 0.03)", tv <= 0.03)
    return ok
