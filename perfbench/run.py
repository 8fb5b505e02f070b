#!/usr/bin/env python3
"""rbmstruct benchmark: structure-learning trials timed end to end and by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ferro16-exact --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload, untraced and traced, each in its
own process, and exits non-zero when any of those runs does.

Workloads are listed in BENCHMARK.json and defined in workloads.py. The
program is imported from ``src/`` of the checkout; the run fails without
printing a result when that is missing.

``--trace 0`` times trials untraced for ``--seconds`` and reports the
end-to-end metrics; set-up time is the median of several fresh processes,
each timed from start until it is ready to time its first trial.
``--trace 1`` runs the same trials untraced and then traced for half the
time each, checks that both write byte-identical records, and reports the
per-layer metrics from the traced half. Every metric is printed as a
``metric <name> <value> <unit>`` line; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every check passed.

Outputs (trial files, spans, ``result.json``) go to ``.perfbench_out/``
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The product's matrices are small; one BLAS thread (at most nproc) keeps
# runs steady on a shared machine.
BLAS_THREADS = 1
THREADS_ENV = "RBM_SL_THREADS"
# Set-up is timed in fresh processes: at least MIN of them, and more, up
# to MAX, while they have taken less than BUDGET seconds in all.
SETUP_PROBES_MIN = 3
SETUP_PROBES_MAX = 9
SETUP_PROBE_BUDGET_S = 5.0
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def blas_info() -> dict:
    """BLAS library name and version from numpy's build configuration, and
    the thread count the loaded OpenBLAS reports."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, rbm_threads) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        THREADS_ENV: rbm_threads,
        "git_commit": git_commit(),
    }


class _Timer:
    seconds = math.nan


def make_clock(tracer=None):
    """Context manager factory timing one call into the harness; traced, it
    also opens the trial's root span."""

    @contextlib.contextmanager
    def clock(trial):
        timer = _Timer()
        with tracer.trial_span(trial) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            yield timer
            timer.seconds = time.perf_counter() - start

    return clock


def run_one(workload, seed, trial, out_prefix, meters, clock):
    """One checked trial; a trial that raises is returned as failed."""
    from workloads import TrialResult, run_trial

    try:
        return run_trial(workload, seed, trial, out_prefix, meters, clock)
    except Exception as exc:
        traceback.print_exc()
        return TrialResult(trial, math.nan, b"", failures=[f"raised {exc!r}"])


DIGEST_BYTES = 16


class Phase:
    """What a timed phase keeps: each trial's time and a digest of its
    record, the full results of the counted trials, and failure messages.
    Nothing else is kept per trial, so memory does not grow with the
    number of trials a run fits."""

    def __init__(self, quota: int):
        self.quota = quota
        self.seconds = array("d")
        self.digests = bytearray()
        self.counted = []
        self.failures = []  # (trial, message)
        self.failed_trials = 0
        self.wall = math.nan

    def __len__(self) -> int:
        return len(self.seconds)

    def add(self, res) -> None:
        self.seconds.append(res.seconds)
        self.digests += hashlib.blake2b(res.record, digest_size=DIGEST_BYTES).digest()
        self.failed_trials += bool(res.failures)
        self.failures += [(res.index, msg) for msg in res.failures]
        if len(self.counted) < self.quota:
            self.counted.append(res)

    def digest(self, trial: int) -> bytes:
        return bytes(self.digests[trial * DIGEST_BYTES : (trial + 1) * DIGEST_BYTES])


def finite(seconds) -> list[float]:
    """Trial times, without the trials that raised."""
    return [s for s in seconds if math.isfinite(s)]


def timed_phase(workload, seed, seconds, out_prefix, meters, tracer=None) -> Phase:
    """Trials 0, 1, ... until ``seconds`` have passed and at least the
    workload's quota is done."""
    clock = make_clock(tracer)
    phase = Phase(workload.quota)
    start = time.perf_counter()
    deadline = start + seconds
    while len(phase) < workload.quota or time.perf_counter() < deadline:
        trial = len(phase)
        phase.add(run_one(workload, seed, trial, f"{out_prefix}-{trial}", meters, clock))
    phase.wall = time.perf_counter() - start
    return phase


def setup_seconds(args) -> float:
    """Median set-up time over several fresh processes."""
    times = []
    while len(times) < SETUP_PROBES_MIN or (
        len(times) < SETUP_PROBES_MAX and sum(times) < SETUP_PROBE_BUDGET_S
    ):
        times.append(probe_setup(args))
    return statistics.median(times)


def probe_setup(args) -> float:
    """Start a fresh benchmark process that sets up and reports when it is
    ready; returns seconds from start to ready."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(lines[1]) - start


def counted_summary(workload, counted) -> dict:
    """Recovery and query counts over the counted trials (first quota)."""
    n = len(counted)
    info = {
        "raw_queries_per_trial": sum(r.raw_queries for r in counted) / n,
        "score_evals_per_trial": sum(r.score_evals for r in counted) / n,
    }
    if workload.kind == "learn":
        info["exact_recovery"] = sum(bool(r.exact) for r in counted) / n
    return info


def end_to_end(phase: Phase, setup: float) -> dict:
    times = finite(phase.seconds)
    return {
        "trial_s_p50": statistics.median(times),
        "trials_per_s": len(times) / phase.wall,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics from the traced phase. Times are means per traced
    trial; counts are means over the first ``quota`` traced trials; rates
    are totals over totals."""
    import numpy as np

    from spans import LAYERS, ROOT_SPAN, self_times

    arr = tracer.arrays()
    names = arr["names"][arr["name"]]
    dur = arr["end"] - arr["start"]
    layer = np.array([s.split(".")[0] for s in names]) if len(names) else names
    own = np.array(self_times(arr["start"], arr["end"], arr["parent"]))
    trials = len(traced)
    counted = traced.counted

    def span_s(*spans):
        return float(dur[np.isin(names, spans)].sum())

    def counts(key, trial_ids):
        return sum(tracer.counts.get(t, {}).get(key, 0) for t in trial_ids)

    def ratio(num, den):
        return num / den if den else 0.0

    q_ids = range(len(counted))
    all_ids = range(trials)
    root_s = span_s(ROOT_SPAN)
    layer_self = {name: float(own[layer == name].sum()) for name in LAYERS}
    build_calls = counts("build_index_calls", q_ids)
    max_find_calls = counts("max_find_calls", q_ids)
    common = min(len(traced), len(untraced))
    traced_p50 = statistics.median(finite(traced.seconds[:common]))
    untraced_p50 = statistics.median(finite(untraced.seconds[:common]))
    metrics = {
        "model.generate_s": span_s("model.generate") / trials,
        "model.oracle_build_s": span_s("model.oracle_build") / trials,
        "sampling.sample_s": span_s("sampling.exact", "sampling.gibbs") / trials,
        "sampling.samples_per_s": ratio(
            counts("samples", all_ids), span_s("sampling.exact", "sampling.gibbs")
        ),
        "sampling.gibbs_sweeps_per_s": ratio(
            counts("gibbs_sweeps", all_ids), span_s("sampling.gibbs")
        ),
        "estimators.build_index_s": span_s("estimators.build_index") / trials,
        "estimators.build_index_calls": build_calls / len(counted),
        "estimators.index_cells_mean": ratio(counts("index_cells", q_ids), build_calls),
        "estimators.cov_s": span_s("estimators.cov") / trials,
        "estimators.cov_calls": counts("cov_calls", q_ids) / len(counted),
        "greedy.learn_s": span_s("greedy.learn") / trials,
        "greedy.self_s": layer_self["greedy"] / trials,
        "greedy.score_s": span_s("greedy.score") / trials,
        "greedy.rounds": counts("rounds", q_ids) / len(counted),
        "greedy.candidates_scored": counts("candidates_scored", q_ids) / len(counted),
        "qsearch.max_find_s": span_s("qsearch.max_find") / trials,
        "qsearch.max_find_calls": max_find_calls / len(counted),
        "qsearch.stage_calls": counts("stage_calls", q_ids) / len(counted),
        "qsearch.grover_iterations": sum(r.grover_iterations for r in counted) / len(counted),
        "qsearch.index_queries": sum(r.index_queries for r in counted) / len(counted),
        "qsearch.raw_queries_per_trial": sum(r.raw_queries for r in counted) / len(counted),
        "qsearch.score_evals_per_trial": sum(r.score_evals for r in counted) / len(counted),
        "qsearch.argmax_miss_rate": ratio(counts("argmax_misses", q_ids), max_find_calls),
        "harness.score_s": span_s("harness.score") / trials,
        "harness.write_s": span_s("harness.write") / trials,
        "harness.self_s": layer_self["harness"] / trials,
        "trace.trial_s_p50": traced_p50,
        "trace.overhead": traced_p50 / untraced_p50 - 1.0,
    }
    for name in LAYERS:
        metrics[f"{name}.self_share"] = ratio(layer_self[name], root_s)
    return metrics


def run_all(args, names) -> int:
    """Every workload, untraced then traced, each in its own process;
    exits non-zero when any run does."""
    codes = []
    for name in names:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rbmstruct", "__init__.py")):
        print(f"error: no rbmstruct sources under {src}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    rbm_threads = os.environ.pop(THREADS_ENV, None)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if src not in sys.path:
        sys.path.insert(0, src)

    # Set-up, as a probe times it: imports through the CLI, inputs, one
    # untimed warm-up trial.
    import rbmstruct.cli  # noqa: F401
    from spans import MeterLog, Tracer, instrument
    from workloads import WARMUP_TRIAL, WORKLOADS, run_checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    mode = "probe" if args.setup_probe else f"trace{args.trace}"
    out_dir = os.path.join(OUT_ROOT, f"{workload.name}-{mode}")
    # Each trial writes fresh files: rewriting a file in place can force a
    # synchronous flush on some filesystems, which no experiment pays.
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    meters = MeterLog()
    with instrument(meters):
        warm = run_one(workload, args.seed, WARMUP_TRIAL, os.path.join(out_dir, "warmup"),
                       meters, make_clock())
    if args.setup_probe:
        print("ready", repr(time.monotonic()), flush=True)
        return 0 if not warm.failures else 1

    env = environment(args, rbm_threads)
    print("env", json.dumps(env, sort_keys=True), flush=True)
    checks: list[str] = []
    if args.trace == 0:
        setup = setup_seconds(args)
        with instrument(meters):
            timed = timed_phase(
                workload, args.seed, args.seconds, os.path.join(out_dir, "trial"), meters
            )
        phases = [timed]
        metrics = end_to_end(timed, setup)
        declared = spec["end_to_end"]
    else:
        half = args.seconds / 2.0
        with instrument(meters):
            untraced = timed_phase(
                workload, args.seed, half, os.path.join(out_dir, "untraced"), meters
            )
        tracer = Tracer()
        with instrument(meters, tracer) as missing:
            timed = timed_phase(
                workload, args.seed, half, os.path.join(out_dir, "traced"), meters, tracer
            )
        for name in missing:
            print(f"note: optional hook {name} not found; its counts read zero", file=sys.stderr)
        tracer.save(os.path.join(out_dir, "spans.npz"))
        phases = [untraced, timed]
        for trial in range(min(len(untraced), len(timed))):
            if untraced.digest(trial) != timed.digest(trial):
                checks.append(f"trial {trial}: traced and untraced records differ")
        metrics = per_layer(tracer, timed, untraced)
        declared = spec["per_layer"]

    counted = timed.counted
    if not any(r.failures for r in counted):
        checks += run_checks(workload, counted)
    info = counted_summary(workload, counted)
    attempted = 1 + sum(len(p) for p in phases)
    failed = bool(warm.failures) + sum(p.failed_trials for p in phases) + len(checks)
    info["fail_rate"] = failed / attempted
    info["trials_timed"] = len(timed)

    for trial, msg in [(warm.index, m) for m in warm.failures] + [
        f for p in phases for f in p.failures
    ]:
        print(f"FAIL trial {trial}: {msg}", file=sys.stderr)
    for msg in checks:
        print(f"FAIL check: {msg}", file=sys.stderr)
    out_metrics = {}
    for m in declared:
        value = metrics[m["name"]]
        out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value!r} {m['unit']}")
    for name, value in info.items():
        print(f"info {name} {value!r}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "info": info, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
