"""Experiment runner: generate models, sample, learn, score recovery; and
the invariant checks that ``verify`` shares with the acceptance suite.

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
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estimators, greedy, sampling
from .greedy import (
    LearnerConfig,
    ferro_constants,
    lc_constants,
    learn_full_graph,
)
from .model import (
    KIND_FERROMAGNETIC,
    KIND_LOCALLY_CONSISTENT,
    ExactOracle,
    NonDegeneracyParams,
    RbmModel,
    generate_model,
    load_model,
    random_model,
    two_hop_graph,
)
from .qsearch import (
    QueryMeter,
    ScoreOracle,
    dh_max_find,
    grover_stage,
    stage_success_probability,
)
from .sampling import GibbsConfig, SampleSet, exact_sample, gibbs_sample, split_rhat

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


# Shared invariant checks. Each returns its measured statistic and leaves
# the bound to its caller: the acceptance suite (criteria 1, 2, 7 and 10 in
# tests/test_acceptance.py) runs them at full size, verify() at reduced
# counts with the same seeds.


def covariance_identity_gap(rng, trials: int) -> float:
    """Largest |direct - decomposed| average conditional covariance over
    ``trials`` draws of a random model (n 3..6, m 1..3), an exact sample
    set of 1..500 rows, a pair (u, v) and a conditioning set S."""
    worst = 0.0
    for _ in range(trials):
        mdl = random_model(rng, n_range=(3, 7), m_range=(1, 4))
        H = int(rng.integers(1, 501))
        samples = exact_sample(mdl, H, seed=int(rng.integers(2**31)))
        u, v = (int(x) for x in rng.choice(mdl.n, size=2, replace=False))
        others = [i for i in range(mdl.n) if i not in (u, v)]
        S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
        idx = estimators.build_index(samples, S)
        direct = estimators.avg_cond_cov_direct(samples, u, v, idx)
        worst = max(worst, abs(direct - estimators.avg_cond_cov_decomposed(samples, u, v, idx)))
    return worst


def influence_identity_gap(rng, cases: int) -> float:
    """Largest |influence ratio - conditional mean by row selection| over
    ``cases`` defined draws of uniform +-1 rows (n 2..6, M 1..399), a node
    u and a conditioning set S; undefined draws are skipped."""
    worst = 0.0
    checked = 0
    while checked < cases:
        n = int(rng.integers(2, 7))
        M = int(rng.integers(1, 400))
        samples = SampleSet.from_pm1(rng.choice([-1, 1], size=(M, n)), n=n)
        u = int(rng.integers(n))
        others = [i for i in range(n) if i != u]
        S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
        iv = estimators.empirical_influence(samples, u, S)
        if not iv.defined:
            continue
        sub = estimators.build_index(samples, S).ones_indices
        direct = float(samples.column(u)[sub].astype(np.float64).mean())
        worst = max(worst, abs(iv.value - direct))
        checked += 1
    return worst


def stage_deviations(rng, reps: int) -> list[tuple[float, float, float]]:
    """(hit rate, law, standard error of the rate) for ``reps`` Grover
    stages of each j = 0..5 on 64 items with 4 marked; the law is
    ``stage_success_probability``."""
    n, t = 64, 4
    marked = np.arange(t)
    out = []
    for j in range(6):
        hits = sum(grover_stage(marked, n, j, rng) is not None for _ in range(reps))
        p = stage_success_probability(n, t, j)
        out.append((hits / reps, p, math.sqrt(p * (1 - p) / reps)))
    return out


def max_find_success(rho: float, runs: int) -> float:
    """Fraction of ``runs`` maximum-finding searches at failure probability
    rho that return the argmax of 256 uniform scores; run r draws its
    scores from seed [71, r] and its search from [72, int(100 rho), r]."""
    good = 0
    for r in range(runs):
        vals = np.random.default_rng([71, r]).random(256)
        scores = ScoreOracle(vals, cost=1, meter=QueryMeter())
        i, _ = dh_max_find(scores, rho, np.random.default_rng([72, int(rho * 100), r]))
        good += i == int(np.argmax(vals))
    return good / runs


def gibbs_tv(model: RbmModel, M: int, cfg: GibbsConfig) -> float:
    """Total variation between the visible configurations of M Gibbs draws
    and the exact marginal (``ExactOracle``, so n + m <= ENUM_GUARD)."""
    exact_p = ExactOracle(model).probabilities
    samples = gibbs_sample(model, M, cfg)
    bits = (samples.dense > 0).astype(np.int64)
    weights = 1 << np.arange(model.n - 1, -1, -1, dtype=np.int64)
    counts = np.bincount(bits @ weights, minlength=1 << model.n)
    return float(0.5 * np.abs(counts / samples.M - exact_p).sum())


def verify() -> bool:
    """Invariant battery for an installed package: prints one PASS/FAIL
    line per check and returns True when all hold. Five checks are
    acceptance criteria 1, 2, 7 and 10 through the shared checks above, with
    the criteria's seeds at smaller counts (4 sigma for the stages, success
    >= 0.9 at rho = 0.1); the bitset, sample-file and normalization checks
    are verify's own."""
    ok = True

    def check(name, cond):
        nonlocal ok
        status = "PASS" if cond else "FAIL"
        print(f"[verify] {name}: {status}")
        ok = ok and bool(cond)

    gap = covariance_identity_gap(np.random.default_rng(101), 30)
    check("covariance decomposition identity (<= 1e-12)", gap <= 1e-12)

    # bitset fast paths against the index and masking references
    brng = np.random.default_rng(20240812)
    same = True
    for _ in range(30):
        n = int(brng.integers(3, 12))
        M = int(brng.integers(1, 300))
        samples = SampleSet.from_pm1(brng.choice([-1, 1], size=(M, n)))
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

    gap = influence_identity_gap(np.random.default_rng(102), 30)
    check("influence expansion identity (<= 1e-12)", gap <= 1e-12)

    samples = SampleSet.from_pm1(np.random.default_rng(20240811).choice([-1, 1], size=(17, 11)))
    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "s.rbms")
        sampling.save(samples, p)
        check("sample file round trip", sampling.load(p) == samples)

    stages = stage_deviations(np.random.default_rng(107), 20_000)
    within = all(abs(rate - p) <= 4 * se for rate, p, se in stages)
    check("Grover stage statistics (4 sigma)", within)

    check("maximum finding success >= 1 - rho", max_find_success(0.1, 200) >= 0.9)

    mdl = generate_model(KIND_FERROMAGNETIC, 5, 3, 2, NonDegeneracyParams(0.3, 1.5), seed=5)
    total = ExactOracle(mdl).probabilities.sum()
    check("visible marginal normalization", abs(total - 1.0) <= 1e-12)

    # criterion 10's first model and chain seed
    mdl = generate_model(KIND_FERROMAGNETIC, 6, 4, 2, NonDegeneracyParams(0.3, 1.5), seed=300)
    tv = gibbs_tv(mdl, 50_000, GibbsConfig(burn_in=1000, thinning=10, seed=400))
    check("Gibbs total variation to the exact marginal (<= 0.03)", tv <= 0.03)
    return ok
