import dataclasses
import json
import math
import os

import numpy as np
import pytest

from rbmstruct import cli, estimators, harness
from rbmstruct import model as model_mod
from rbmstruct.greedy import learn_full_graph
from rbmstruct.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    FitError,
    calc_constants,
    format_constants,
    run,
    sweep_scaling,
)
from rbmstruct.model import (
    NonDegeneracyParams,
    generate_model,
    load_model,
    save_model,
    two_hop_graph,
)
from rbmstruct.sampling import load as load_samples

from conftest import demo_ring_model


class TestRun:
    def test_zero_trials(self, tmp_path):
        cfg = ExperimentConfig(trials=0, out=str(tmp_path / "empty"))
        metrics, records = run(cfg)
        assert metrics.trials == 0
        assert records == []
        assert (tmp_path / "empty.jsonl").read_text() == ""

    def test_deterministic_outputs(self, tmp_path):
        def one(tag):
            cfg = ExperimentConfig(
                kind="ferromagnetic", n=6, m=3, d2=2, alpha=0.4, beta=2.0,
                seed=5, num_samples=4000, algorithm="ferro", eta=0.02, k=3,
                trials=3, out=str(tmp_path / tag),
            )
            run(cfg)
            return (
                (tmp_path / f"{tag}.jsonl").read_bytes(),
                (tmp_path / f"{tag}.csv").read_bytes(),
            )

        assert one("a") == one("b")

    def test_worker_pool_matches_serial(self, tmp_path):
        cfg = dict(
            kind="ferromagnetic", n=6, m=3, d2=2, alpha=0.4, beta=2.0,
            seed=6, num_samples=3000, algorithm="ferro", eta=0.02, k=3, trials=4,
        )
        _, serial = run(ExperimentConfig(**cfg))
        os.environ["RBM_SL_THREADS"] = "3"
        try:
            _, pooled = run(ExperimentConfig(**cfg))
        finally:
            del os.environ["RBM_SL_THREADS"]
        assert serial == pooled

    def test_ring_model_file_edge_recall(self, tmp_path):
        path = tmp_path / "ring.json"
        save_model(demo_ring_model(), path)
        cfg = ExperimentConfig(
            algorithm="ferro", eta=0.02, k=3, num_samples=50_000, trials=2,
            seed=7, model_file=str(path), n=4, m=4, d2=2,
        )
        metrics, records = run(cfg)
        assert metrics.edge_recall == 1.0
        for rec in records:
            assert [0, 1] in rec["found_edges"]

    def test_model_file_sets_dimensions_and_budget(self, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        mdl = generate_model("ferromagnetic", 6, 3, 2, NonDegeneracyParams(0.4, 2.0), seed=1)
        save_model(mdl, path)
        d2 = two_hop_graph(mdl).max_degree
        budgets = []

        def spy(samples, lcfg):
            budgets.append(lcfg.k)
            return learn_full_graph(samples, lcfg)

        monkeypatch.setattr(harness, "learn_full_graph", spy)
        cfg = ExperimentConfig(
            model_file=str(path), n=10, m=5, d2=3, num_samples=2000,
            algorithm="ferro", trials=1, seed=2, out=str(tmp_path / "r"),
        )
        run(cfg)
        row = dict(zip(*[line.split(",") for line in
                         (tmp_path / "r.csv").read_text().splitlines()]))
        assert (row["kind"], row["n"], row["m"], row["d2"]) == (
            "ferromagnetic", "6", "3", str(d2)
        )
        assert budgets == [d2 + 1]

    def test_model_file_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ring.json"
        save_model(demo_ring_model(), path)
        cfg = ExperimentConfig(kind="locally-consistent", algorithm="lc", model_file=str(path))
        with pytest.raises(ConfigError, match="kind"):
            run(cfg)
        assert cli.main(["learn", "--model-file", str(path), "--kind",
                         "locally-consistent", "--algorithm", "lc"]) == 1

    def test_metrics_arithmetic_recomputable(self):
        cfg = ExperimentConfig(
            kind="ferromagnetic", n=6, m=3, d2=2, seed=8,
            num_samples=3000, algorithm="ferro", eta=0.02, k=3, trials=5,
        )
        metrics, records = run(cfg)
        truth_sets = [set(map(tuple, r["truth_edges"])) for r in records]
        found_sets = [set(map(tuple, r["found_edges"])) for r in records]
        precisions = [
            len(f & t) / len(f) if f else 1.0 for f, t in zip(found_sets, truth_sets)
        ]
        recalls = [
            len(f & t) / len(t) if t else 1.0 for f, t in zip(found_sets, truth_sets)
        ]
        exact = [f == t for f, t in zip(found_sets, truth_sets)]
        assert metrics.edge_precision == pytest.approx(np.mean(precisions))
        assert metrics.edge_recall == pytest.approx(np.mean(recalls))
        assert metrics.exact_recovery == pytest.approx(np.mean(exact))
        recall_perfect = np.mean([r == 1.0 for r in recalls])
        assert metrics.exact_recovery <= recall_perfect + 1e-12

    def test_quantum_algorithm_records_queries(self):
        cfg = ExperimentConfig(
            kind="ferromagnetic", n=5, m=2, d2=1, seed=9,
            num_samples=1500, algorithm="ferro-q", eta=0.02, k=2, trials=2,
        )
        metrics, records = run(cfg)
        assert all(r["raw_queries"] > 0 for r in records)
        assert metrics.raw_queries_mean > 0

    def test_gibbs_rhat_recorded(self):
        cfg = dict(
            kind="ferromagnetic", n=5, m=2, d2=1, seed=11, num_samples=2000,
            burn_in=50, thinning=2, algorithm="ferro", eta=0.02, k=2,
        )
        _, gibbs = run(ExperimentConfig(sampler="gibbs", **cfg))
        _, exact = run(ExperimentConfig(sampler="exact", **cfg))
        assert 0.9 < gibbs[0]["gibbs_rhat"] < 1.1
        assert exact[0]["gibbs_rhat"] is None

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig(kind="bogus"))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(trials=-1))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(alpha=0.0))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(sampler="gibbs", burn_in=-1))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(sampler="gibbs", thinning=0))
        for bad in (
            dict(eta=0.0),
            dict(eta=math.nan),
            dict(tau=-0.1),
            dict(k=0),
            dict(algorithm="lc", t_max=0),
            dict(delta=0.0),
            dict(algorithm="lc-q", zeta=1.0),
        ):
            with pytest.raises(ConfigError):
                run(ExperimentConfig(**bad))

    def test_csv_column_order_stable(self, tmp_path):
        cfg = ExperimentConfig(
            n=5, m=2, d2=1, seed=10, num_samples=1000,
            algorithm="ferro", eta=0.05, k=2, trials=1, out=str(tmp_path / "x"),
        )
        run(cfg)
        header = (tmp_path / "x.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


class TestSweepScaling:
    def test_single_point_fit_error(self):
        with pytest.raises(FitError):
            sweep_scaling([64], trials=2)

    def test_non_ascending_rejected(self):
        with pytest.raises(ConfigError):
            sweep_scaling([128, 64, 256, 512], trials=2)

    def test_small_sweep_shape(self):
        # slope checks only; the pointwise quantum-below-classical claim
        # needs n = 1024 (the crossover sits near n = 512) and is part of
        # the acceptance suite
        res = sweep_scaling([64, 128, 256, 512], trials=8, rho=0.5, seed=3)
        assert 0.9 <= res.classical_slope <= 1.1
        assert 0.4 <= res.quantum_slope <= 0.65


class TestCalcConstants:
    def test_flags_not_desk_reproducible(self):
        report = calc_constants(0.2, 1.0, 2, 100, 0.1, 0.1)
        assert not report["lc_desk_reproducible"]
        text = format_constants(report)
        assert "not desk-reproducible" in text
        assert "2.710" in f"{report['ferro'].eta:.3e}"

    def test_small_beta_reproducible(self):
        report = calc_constants(0.9, 1.0, 1, 16, 0.1, 0.1)
        assert report["ferro_desk_reproducible"]


class TestCli:
    def test_gen_sample_learn_pipeline(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        sample_path = tmp_path / "s.rbms"
        assert cli.main([
            "gen-model", "--kind", "ferromagnetic", "--n", "6", "--m", "3",
            "--d2", "2", "--alpha", "0.4", "--beta", "2.0", "--seed", "1",
            "--out", str(model_path),
        ]) == 0
        model = load_model(model_path)
        assert model.n == 6
        assert cli.main([
            "sample", "--model", str(model_path), "--num-samples", "2000",
            "--seed", "2", "--out", str(sample_path),
        ]) == 0
        samples = load_samples(sample_path)
        assert samples.M == 2000
        assert cli.main([
            "learn", "--model-file", str(model_path), "--n", "6", "--m", "3",
            "--d2", "2", "--algorithm", "ferro", "--eta", "0.02", "--k", "3",
            "--num-samples", "20000", "--trials", "1", "--seed", "3",
            "--out", str(tmp_path / "res"),
        ]) == 0
        out = capsys.readouterr().out
        assert "exact_recovery" in out
        assert (tmp_path / "res.csv").exists()

    def test_constants_command(self, capsys):
        assert cli.main([
            "constants", "--alpha", "0.2", "--beta", "1.0", "--d2", "2", "--n", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "not desk-reproducible" in out

    def test_sweep_command(self, tmp_path, capsys):
        assert cli.main([
            "sweep", "--n-list", "64,128,256", "--trials", "4", "--seed", "1",
            "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,classical_mean_queries,quantum_mean_queries"
        assert len(lines) == 4

    def test_config_error_exit_code(self, capsys):
        assert cli.main([
            "gen-model", "--n", "5", "--m", "2", "--d2", "5",
            "--out", "/dev/null",
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_degenerate_generator_exit_code(self, monkeypatch, capsys):
        def degenerate(*args, **kwargs):
            raise RuntimeError("generator produced a degenerate model: []")

        monkeypatch.setattr(model_mod, "generate_model", degenerate)
        assert cli.main(["gen-model", "--out", "/dev/null"]) == 1
        monkeypatch.setattr(harness, "generate_model", degenerate)
        assert cli.main(["learn", "--num-samples", "100"]) == 1
        err = capsys.readouterr().err
        assert err.count("error: generator produced a degenerate model") == 2

    def test_bad_gibbs_setting_rejected_before_any_model(self, monkeypatch, capsys):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was generated")

        monkeypatch.setattr(harness, "generate_model", no_model)
        assert cli.main([
            "learn", "--num-samples", "100", "--sampler", "gibbs", "--thinning", "0",
        ]) == 1
        assert "error: thinning must be >= 1" in capsys.readouterr().err

    def test_bad_learner_setting_rejected_before_any_model(self, monkeypatch, capsys):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was generated")

        monkeypatch.setattr(harness, "generate_model", no_model)
        assert cli.main(["learn", "--num-samples", "100", "--k", "0"]) == 1
        assert cli.main(["learn", "--num-samples", "100", "--delta", "0"]) == 1
        err = capsys.readouterr().err
        assert "error: k must be >= 1" in err
        assert "error: delta must lie in (0, 1)" in err

    def test_learn_flags_mirror_experiment_config(self):
        args = cli._build_parser().parse_args(["learn"])
        parsed = {k: v for k, v in vars(args).items() if k != "command"}
        assert parsed == dataclasses.asdict(ExperimentConfig())

    def test_verify_command(self, monkeypatch, capsys):
        assert cli.main(["verify"]) == 0
        assert capsys.readouterr().out.count(": PASS\n") == 8
        decomposed = estimators.avg_cond_cov_decomposed
        monkeypatch.setattr(
            estimators, "avg_cond_cov_decomposed", lambda *a: decomposed(*a) + 1e-9
        )
        assert cli.main(["verify"]) == 2
        assert "covariance decomposition identity (<= 1e-12): FAIL" in capsys.readouterr().out

    def test_bad_flag_exit_code(self):
        assert cli.main(["learn", "--algorithm", "bogus"]) == 1

    def test_gibbs_sampler_path(self, tmp_path):
        model_path = tmp_path / "m.json"
        cli.main([
            "gen-model", "--n", "4", "--m", "2", "--d2", "1", "--alpha", "0.4",
            "--beta", "1.5", "--seed", "4", "--out", str(model_path),
        ])
        out_path = tmp_path / "g.rbms"
        assert cli.main([
            "sample", "--model", str(model_path), "--sampler", "gibbs",
            "--num-samples", "500", "--burn-in", "50", "--thinning", "2",
            "--seed", "5", "--out", str(out_path),
        ]) == 0
        assert load_samples(out_path).M == 500
