"""Tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py

The smoke tests run every workload at reduced size through ``run.main``
and check that each declared metric is emitted.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from rbmstruct import estimators, greedy, harness, qsearch  # noqa: E402

SPEC = run.load_spec()

# Reduced shapes: same samplers and learners, a fraction of the work.
SMALL = {
    "ferro16-exact": dict(n=10, m=5, d2=3, num_samples=128_000),
    "lc16-exact": dict(n=10, m=5, d2=3, num_samples=64_000),
    "lc64-gibbs-q": dict(n=10, m=5, d2=2, num_samples=8_000, burn_in=200, thinning=4),
}


def test_self_times_on_synthetic_tree():
    # 0 root [0, 10]; 1 [1, 4] and 2 [3, 6] overlap; 3 [2, 3] inside 1;
    # 4 [9, 12] reaches past its parent and is clipped to [9, 10].
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_self_times_sum_to_root_duration():
    tracer = spans.Tracer()
    with tracer.trial_span(0):
        outer = tracer.open(tracer.name_id("greedy.learn"))
        inner = tracer.open(tracer.name_id("estimators.cov"))
        tracer.close(inner)
        tracer.close(outer)
    arr = tracer.arrays()
    own = spans.self_times(arr["start"], arr["end"], arr["parent"])
    assert list(arr["parent"]) == [-1, 0, 1]
    assert math.isclose(sum(own), arr["end"][0] - arr["start"][0], rel_tol=1e-9)


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "rbmstruct"
        for attr, value in vars(mod).items()
    }


def test_wrappers_restored_after_traced_run():
    before = _bindings()
    original = estimators.build_index
    max_find = qsearch.dh_max_find
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.MeterLog(), spans.Tracer()) as missing:
            assert missing == []
            assert greedy.build_index is not original
            assert qsearch.build_index is greedy.build_index
            assert harness.dh_max_find.__wrapped__ is max_find
            raise RuntimeError("leave the traced block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def _smoke(monkeypatch, capsys, name, trace):
    wl = workloads.WORKLOADS[name]
    small = dataclasses.replace(
        wl, config={**wl.config, **SMALL.get(name, {})}, quota=min(wl.quota, 2 if name in SMALL else 200)
    )
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    monkeypatch.setattr(run, "probe_setup", lambda args: 0.25)
    for var in run.BLAS_ENV + (run.THREADS_ENV,):
        monkeypatch.delenv(var, raising=False)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = captured.out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(monkeypatch, capsys, name, trace):
    lines, result = _smoke(monkeypatch, capsys, name, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
        assert any(line.startswith(f"metric {m['name']} ") for line in lines)
    printed = {line.split()[1] for line in lines if line.startswith("info ")}
    assert {"raw_queries_per_trial", "score_evals_per_trial", "fail_rate"} <= printed


def test_counts_repeat_for_a_seed(monkeypatch, capsys):
    runs = [_smoke(monkeypatch, capsys, "sweep-q", 1)[0] for _ in range(2)]
    counts = [
        [
            line for line in lines
            if line.endswith(" count") or line.startswith("info ") and "trials_timed" not in line
        ]
        for lines in runs
    ]
    assert counts[0] == counts[1]


def test_layer_shares_follow_the_workload(monkeypatch, capsys):
    _, result = _smoke(monkeypatch, capsys, "sweep-q", 1)
    shares = {
        layer: result["metrics"][f"{layer}.self_share"]["value"] for layer in spans.LAYERS
    }
    assert max(shares, key=shares.get) == "qsearch"
    assert math.isclose(sum(shares.values()), 1.0, rel_tol=1e-6)


def test_setup_probe_reports_ready():
    args = run.parse_args(["--workload", "sweep-q", "--seed", "1", "--seconds", "1"])
    assert 0.0 < run.probe_setup(args) < run.PROBE_TIMEOUT_S


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
