"""The four benchmark workloads and how one trial of each runs and is checked.

A trial of a learner workload is one ``harness.run`` call with
``trials=1``: generate a model, sample it, learn the two-hop graph, score
it and write ``<out>.jsonl``/``<out>.csv``. A trial of ``sweep-q`` is one
``harness.sweep_scaling`` call with ``trials=1``. Each trial's master seed
is derived from the workload seed and the trial index, so the same seed
gives the same inputs and every trial sees a fresh model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SWEEP_N = (1024, 4096, 16384, 65536)
SWEEP_RHO = 0.5
# Criterion 8 bands for the pooled log-log slopes of queries against n.
QUANTUM_SLOPE_BAND = (0.45, 0.6)
CLASSICAL_SLOPE_BAND = (0.9, 1.1)

WARMUP_TRIAL = -1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "learn" or "sweep"
    config: dict = field(default_factory=dict)
    # Trials whose counts (recovery, queries, per-layer counts) are
    # reported and checked; fixed, so that counts and check outcomes
    # depend only on the seed and the program.
    quota: int = 1
    # Floors over the counted trials: the share recovered exactly, and
    # mean edge precision and recall.
    recovery_floor: float = 0.0
    edge_floor: float = 0.0


_EXACT16 = dict(n=16, m=8, d2=3, sampler="exact", num_samples=256_000)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ferro16-exact", "learn",
            dict(kind="ferromagnetic", algorithm="ferro", **_EXACT16),
            quota=20, recovery_floor=0.85, edge_floor=0.9,
        ),
        # M is half of ferro16-exact's: trial cost varies about 17% with the
        # model drawn, and at 256k too few trials fit in a run for a steady
        # median.
        Workload(
            "lc16-exact", "learn",
            dict(kind="locally-consistent", algorithm="lc", **{**_EXACT16, "num_samples": 128_000}),
            quota=20, recovery_floor=0.85, edge_floor=0.9,
        ),
        Workload(
            "lc64-gibbs-q", "learn",
            dict(
                kind="locally-consistent", algorithm="lc-q", n=64, m=32, d2=3,
                sampler="gibbs", burn_in=1000, thinning=10, num_samples=20_000,
            ),
            quota=3, edge_floor=0.9,
        ),
        Workload("sweep-q", "sweep", quota=1000),
    )
}


def trial_seed(workload_seed: int, trial: int) -> int:
    """Master seed of a trial. The warm-up trial is the same for every
    workload seed, so set-up time does not vary with the model drawn."""
    key = [1, 0] if trial == WARMUP_TRIAL else [0, workload_seed, trial]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


@dataclass
class TrialResult:
    index: int
    seconds: float
    record: bytes  # the trial's output, compared across traced and untraced runs
    exact: bool | None = None
    precision: float = 0.0
    recall: float = 0.0
    raw_queries: int = 0
    score_evals: int = 0
    grover_iterations: int = 0
    index_queries: int = 0
    sweep_rows: list = field(default_factory=list)  # (n, classical, quantum)
    failures: list = field(default_factory=list)


def run_trial(workload: Workload, seed: int, trial: int, out_prefix: str, meters, clock) -> TrialResult:
    """Run and check one trial. ``meters`` is the MeterLog the maximum
    finding wrapper fills; ``clock`` is a context manager factory around
    the call into the harness (the root span when tracing)."""
    from rbmstruct import harness

    meters.trial_id = trial
    if workload.kind == "learn":
        cfg = harness.ExperimentConfig(
            seed=trial_seed(seed, trial), trials=1, out=out_prefix, **workload.config
        )
        with clock(trial) as timer:
            _, records = harness.run(cfg)
        res = TrialResult(trial, timer.seconds, b"")
        _check_learn(workload, res, cfg, records, out_prefix, meters.pop_trial(trial))
    else:
        with clock(trial) as timer:
            sweep = harness.sweep_scaling(
                list(SWEEP_N), trials=1, rho=SWEEP_RHO, seed=trial_seed(seed, trial)
            )
        res = TrialResult(trial, timer.seconds, b"")
        _check_sweep(res, sweep, meters.pop_trial(trial))
    return res


def _check_meters(res: TrialResult, meters) -> None:
    for meter, cost in meters:
        if meter.raw_queries != meter.score_evals * cost + meter.index_queries:
            res.failures.append(
                f"raw_queries {meter.raw_queries} != score_evals {meter.score_evals}"
                f" * {cost} + index_queries {meter.index_queries}"
            )
        res.raw_queries += meter.raw_queries
        res.score_evals += meter.score_evals
        res.grover_iterations += meter.grover_iterations
        res.index_queries += meter.index_queries


def _check_learn(workload, res, cfg, records, out_prefix, meters) -> None:
    from rbmstruct import harness

    with open(out_prefix + ".jsonl", "rb") as fh:
        res.record = fh.read()
    with open(out_prefix + ".csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != ",".join(harness.CSV_COLUMNS):
        res.failures.append("aggregate CSV header differs from CSV_COLUMNS")
    written = [json.loads(line) for line in res.record.decode("utf-8").splitlines()]
    if len(records) != 1 or written != records:
        res.failures.append("written .jsonl does not match the returned records")
        return
    rec = records[0]
    found = {tuple(e) for e in rec["found_edges"]}
    truth = {tuple(e) for e in rec["truth_edges"]}
    res.exact = bool(rec["exact"])
    res.precision, res.recall = rec["precision"], rec["recall"]
    if res.exact != (found == truth):
        res.failures.append("record's exact flag disagrees with its edges")
    quantum = cfg.algorithm.endswith("-q")
    if len(meters) != int(quantum):
        res.failures.append(f"expected {int(quantum)} query meter(s), saw {len(meters)}")
    if any(cost != cfg.num_samples for _, cost in meters):
        res.failures.append("score oracle cost differs from the sample count M")
    _check_meters(res, meters)
    if (rec["raw_queries"], rec["score_evals"]) != (res.raw_queries, res.score_evals):
        res.failures.append("record's query counts differ from the learner's meter")


def _check_sweep(res, sweep, meters) -> None:
    res.record = json.dumps(
        {
            "rows": sweep.rows,
            "classical_slope": sweep.classical_slope,
            "quantum_slope": sweep.quantum_slope,
        }
    ).encode()
    res.sweep_rows = sweep.rows
    if [row[0] for row in sweep.rows] != list(SWEEP_N):
        res.failures.append("sweep rows do not follow the n list")
    if [float(m.score_evals) for m, _ in meters] != [row[2] for row in sweep.rows]:
        res.failures.append("sweep rows differ from the maximum finders' meters")
    _check_meters(res, meters)


def pooled_slopes(results) -> tuple[float, float]:
    """(classical, quantum) least-squares slopes of log mean queries
    against log n, pooled over sweep trials."""
    mean = np.mean([r.sweep_rows for r in results], axis=0)
    logs_n = np.log(mean[:, 0])
    c_slope = float(np.polyfit(logs_n, np.log(mean[:, 1]), 1)[0])
    q_slope = float(np.polyfit(logs_n, np.log(mean[:, 2]), 1)[0])
    return c_slope, q_slope


def run_checks(workload: Workload, counted) -> list[str]:
    """Run-level checks over the counted (first ``quota``) trials."""
    failures = []
    if workload.kind == "sweep":
        c_slope, q_slope = pooled_slopes(counted)
        lo, hi = QUANTUM_SLOPE_BAND
        if not lo <= q_slope <= hi:
            failures.append(f"pooled quantum slope {q_slope:.4f} outside [{lo}, {hi}]")
        lo, hi = CLASSICAL_SLOPE_BAND
        if not lo <= c_slope <= hi:
            failures.append(f"pooled classical slope {c_slope:.4f} outside [{lo}, {hi}]")
        return failures
    exact = float(np.mean([bool(r.exact) for r in counted]))
    precision = float(np.mean([r.precision for r in counted]))
    recall = float(np.mean([r.recall for r in counted]))
    if exact < workload.recovery_floor:
        failures.append(f"exact recovery {exact:.4f} below {workload.recovery_floor}")
    if min(precision, recall) < workload.edge_floor:
        failures.append(
            f"edge precision {precision:.4f} / recall {recall:.4f} below {workload.edge_floor}"
        )
    return failures
