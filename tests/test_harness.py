import dataclasses
import importlib
import itertools
import json
import math
import os
import re
import shlex
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from rbmstruct import cli, harness, qsearch
from rbmstruct import model as model_mod
from rbmstruct.greedy import (
    ALGORITHMS,
    LearnerConfig,
    learn_full_graph,
)
from rbmstruct.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ferro_constants,
    format_constants,
    lc_constants,
    run,
    sweep_scaling,
)
from rbmstruct.model import (
    NonDegeneracyParams,
    RbmModel,
    generate_model,
    load_model,
    save_model,
    two_hop_graph,
)
from rbmstruct.sampling import SampleSet, exact_sample
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
                seed=5, num_samples=4000, algorithm="ferro", threshold=0.02,
                rounds=3, trials=3, out=str(tmp_path / tag),
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
            seed=6, num_samples=3000, algorithm="ferro", threshold=0.02, rounds=3, trials=4,
        )
        _, serial = run(ExperimentConfig(**cfg))
        os.environ["RBM_SL_THREADS"] = "3"
        try:
            _, pooled = run(ExperimentConfig(**cfg))
        finally:
            del os.environ["RBM_SL_THREADS"]
        assert serial == pooled

    def test_worker_pool_matches_serial_with_model_file(self, tmp_path, monkeypatch):
        # the pool pickles the loaded RbmModel into each worker
        path = tmp_path / "m.json"
        save_model(demo_ring_model(), path)

        def one(tag, threads):
            monkeypatch.setenv("RBM_SL_THREADS", threads)
            run(ExperimentConfig(
                model_file=str(path), num_samples=3000, algorithm="ferro", threshold=0.02,
                rounds=3, trials=3, seed=6, out=str(tmp_path / tag),
            ))
            return [(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("jsonl", "csv")]

        assert one("serial", "1") == one("pooled", "2")

    def test_ring_model_file_edge_recall(self, tmp_path):
        path = tmp_path / "ring.json"
        save_model(demo_ring_model(), path)
        cfg = ExperimentConfig(
            algorithm="ferro", threshold=0.02, rounds=3, num_samples=50_000, trials=2,
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
            budgets.append(lcfg.rounds)
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

    def test_model_file_supplies_kind(self, tmp_path):
        # no --kind: the file's kind replaces the default ferromagnetic one
        path = tmp_path / "lc.json"
        mdl = generate_model("locally-consistent", 6, 3, 2, NonDegeneracyParams(0.4, 2.0), seed=1)
        save_model(mdl, path)
        assert cli.main(["learn", "--model-file", str(path), "--algorithm", "lc",
                         "--num-samples", "2000", "--out", str(tmp_path / "r")]) == 0
        row = dict(zip(*[line.split(",") for line in
                         (tmp_path / "r.csv").read_text().splitlines()]))
        assert row["kind"] == "locally-consistent"

    def test_model_file_general_kind_rejected(self, tmp_path, capsys):
        path = tmp_path / "general.json"
        save_model(RbmModel([[0.5], [-0.5]], [0.0, 0.0], [0.0]), path)
        assert cli.main(["learn", "--model-file", str(path), "--out",
                         str(tmp_path / "r")]) == 1
        assert "error: kind must be 'ferromagnetic' or 'locally-consistent'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "r.csv").exists()

    def test_metrics_arithmetic_recomputable(self):
        cfg = ExperimentConfig(
            kind="ferromagnetic", n=6, m=3, d2=2, seed=8,
            num_samples=3000, algorithm="ferro", threshold=0.02, rounds=3, trials=5,
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
            num_samples=1500, algorithm="ferro-q", threshold=0.02, rounds=2, trials=2,
        )
        metrics, records = run(cfg)
        assert all(r["raw_queries"] > 0 for r in records)
        assert metrics.raw_queries_mean > 0

    def test_gibbs_rhat_recorded(self):
        cfg = dict(
            kind="ferromagnetic", n=5, m=2, d2=1, seed=11, num_samples=2000,
            burn_in=50, thinning=2, algorithm="ferro", threshold=0.02, rounds=2,
        )
        _, gibbs = run(ExperimentConfig(sampler="gibbs", **cfg))
        _, exact = run(ExperimentConfig(sampler="exact", **cfg))
        assert 0.9 < gibbs[0]["gibbs_rhat"] < 1.1
        assert exact[0]["gibbs_rhat"] is None

    def test_unmixed_gibbs_rhat_is_valid_json(self, tmp_path):
        # each chain freezes both nodes at one value, not the same in every
        # chain, so the split-R-hat is infinite
        path = tmp_path / "stuck.json"
        save_model(RbmModel([[30.0], [30.0]], [0, 0], [0], kind="ferromagnetic"), path)
        run(ExperimentConfig(model_file=str(path), sampler="gibbs", burn_in=10, thinning=1,
                             num_samples=512, trials=2, out=str(tmp_path / "r")))

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        lines = (tmp_path / "r.jsonl").read_text().splitlines()
        assert [json.loads(line, parse_constant=reject)["gibbs_rhat"] for line in lines] == [
            "inf", "inf"]

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig(kind="bogus"))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(trials=-1))
        with pytest.raises(ConfigError, match="unknown sampler 'bogus'"):
            run(ExperimentConfig(sampler="bogus"))
        with pytest.raises(ConfigError, match="num_samples must be >= 0"):
            run(ExperimentConfig(num_samples=-1))
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            LearnerConfig("bogus", threshold=0.02, rounds=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            LearnerConfig("ferro", rounds=1).threshold = math.inf  # checked once, then fixed
        with pytest.raises(ConfigError):
            run(ExperimentConfig(alpha=0.0))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(sampler="gibbs", burn_in=-1))
        with pytest.raises(ConfigError):
            run(ExperimentConfig(sampler="gibbs", thinning=0))
        for bad in (
            dict(threshold=0.0),
            dict(threshold=math.nan),
            dict(threshold=math.inf),
            dict(algorithm="lc", threshold=-0.1),
            dict(rounds=0),
            dict(algorithm="lc", rounds=0),
            dict(fail_prob=0.0),
            dict(algorithm="lc-q", fail_prob=1.0),
        ):
            with pytest.raises(ConfigError):
                run(ExperimentConfig(**bad))

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_every_learner_knob_is_read(self, alg):
        # unset knobs resolve to the family's calibrated threshold and d2 + 1
        # rounds; setting any knob changes the learner the trials run
        for d2 in (1, 3):
            base = ExperimentConfig(algorithm=alg, d2=d2)
            learner = base.validate()
            threshold = 0.02 if alg.startswith("ferro") else 0.025
            assert learner == LearnerConfig(alg, threshold=threshold, rounds=d2 + 1)
            for knob, value in (("threshold", 0.5), ("rounds", 7), ("fail_prob", 0.3)):
                changed = dataclasses.replace(base, **{knob: value}).validate()
                assert changed != learner and getattr(changed, knob) == value, knob

    def test_csv_column_order_stable(self, tmp_path):
        cfg = ExperimentConfig(
            n=5, m=2, d2=1, seed=10, num_samples=1000,
            algorithm="ferro", threshold=0.05, rounds=2, trials=1, out=str(tmp_path / "x"),
        )
        run(cfg)
        header = (tmp_path / "x.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


class TestSweepScaling:
    def test_single_point_fit_error(self):
        with pytest.raises(ConfigError, match="need at least 3 points"):
            sweep_scaling([64], trials=2, rho=0.5, seed=0)

    def test_non_ascending_rejected(self):
        with pytest.raises(ConfigError):
            sweep_scaling([128, 64, 256, 512], trials=2, rho=0.5, seed=0)

    def test_n_below_one_rejected(self):
        with pytest.raises(ConfigError, match="n list entries must be >= 1, got 0"):
            sweep_scaling([0, 1, 2], trials=2, rho=0.5, seed=0)

    def test_trials_below_one_rejected(self):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            sweep_scaling([64, 128, 256], trials=0, rho=0.5, seed=0)

    def test_small_sweep_shape(self):
        # slope checks only; the pointwise quantum-below-classical claim
        # needs n = 1024 (the crossover sits near n = 512) and is part of
        # the acceptance suite
        res = sweep_scaling([64, 128, 256, 512], trials=8, rho=0.5, seed=3)
        assert 0.9 <= res.classical_slope <= 1.1
        assert 0.4 <= res.quantum_slope <= 0.65

    @pytest.mark.parametrize("rho, quantum", [(0.5, [181.0, 256.0, 361.0]),
                                              (0.1, [724.0, 1024.0, 1444.0])])
    def test_rows_are_closed_form(self, rho, quantum):
        # maximum finding charges R (ceil(22.5 sqrt(n)) + 1) evaluations, so
        # trials and seed leave every row unchanged
        n_list = [64, 128, 256]
        R = qsearch.repetitions(rho)
        assert quantum == [R * (math.ceil(22.5 * math.sqrt(n)) + 1) for n in n_list]
        for trials, seed in [(1, 0), (5, 9)]:
            rows = sweep_scaling(n_list, trials, rho, seed).rows
            assert rows == [(n, float(n), q) for n, q in zip(n_list, quantum)]


def _indep_sigmoid(x):
    # independent route: exp-based, no shared helper
    return math.exp(x) / (math.exp(x) + 1.0)


class TestFerroConstants:
    def test_frozen_reference_values(self):
        fc = ferro_constants(0.2, 1.0, 2, 0.1, 100)
        # independent evaluation of the same formula
        eta = 0.2**2 * _indep_sigmoid(-2.0) * (1.0 - math.tanh(1.0)) ** 2
        assert fc.eta == pytest.approx(eta, rel=1e-12)
        assert f"{fc.eta:.3e}" == "2.710e-04"
        assert fc.k == 20
        # high-precision fixture computed with 40-digit arithmetic
        assert fc.sample_bound == pytest.approx(1.0036558135542139e23, rel=1e-12)

    def test_zero_coupling_limit(self):
        fc = ferro_constants(1.0, 1e-12, 1, 0.5, 10)
        assert fc.eta == pytest.approx(0.5, rel=1e-9)

    def test_sample_bound_monotone(self):
        base = ferro_constants(0.3, 1.0, 2, 0.1, 64).sample_bound
        assert ferro_constants(0.3, 1.0, 2, 0.1, 128).sample_bound > base
        assert ferro_constants(0.3, 1.0, 3, 0.1, 64).sample_bound > base

    def test_precondition_n_greater_k(self):
        with pytest.raises(ValueError, match="n > k"):
            ferro_constants(0.2, 1.0, 2, 0.1, 10)  # k = 20 >= n

    @pytest.mark.parametrize("alpha,beta", [(1e-200, 1.0), (0.4, 30.0)])
    def test_underflowed_eta_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="eta underflowed to zero"):
            ferro_constants(alpha, beta, 2, 0.1, 100)

    def test_overflowing_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha too large"):
            ferro_constants(1e200, 1e200, 2, 0.1, 100)

    # format_constants checks alpha and beta first (NonDegeneracyParams),
    # so only a direct call reaches this check
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (0.2, 0.0)])
    def test_weight_bounds_checked_on_direct_call(self, alpha, beta):
        with pytest.raises(ValueError, match=r"^require alpha > 0, beta > 0$"):
            ferro_constants(alpha, beta, 2, 0.1, 100)


class TestLcConstants:
    def test_frozen_reference_values(self):
        lcc = lc_constants(0.2, 1.0, 0.1, 100)
        assert lcc.tau == pytest.approx(0.2**2 * math.exp(-12.0), rel=1e-12)
        assert f"{lcc.tau:.3e}" == "2.458e-07"
        assert lcc.delta_cond == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)
        assert f"{lcc.delta_cond:.3e}" == "6.767e-02"
        assert lcc.t_star == math.ceil(8.0 / lcc.tau**2)
        assert lcc.t_star > 1e12  # far beyond desk scale
        assert math.isinf(lcc.sample_bound)
        assert np.isfinite(lcc.log10_sample_bound)

    def test_zero_field_strength(self):
        lcc = lc_constants(1.0, 0.0, 0.1, 10)
        assert lcc.tau == 1.0
        assert lcc.t_star == 8

    # tau^2 underflows to zero at beta 31 and at alpha 1e-90, and to a
    # subnormal (8 / tau^2 = inf) at alpha 1e-161
    @pytest.mark.parametrize("alpha,beta", [(0.4, 31.0), (1e-90, 1.0), (1e-161, 0.0)])
    def test_vanishing_tau_squared_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match=r"tau too small for T\* = ceil\(8/tau\^2\)"):
            lc_constants(alpha, beta, 0.1, 100)

    @pytest.mark.parametrize("alpha,beta", [(1e200, 1e200), (1e100, 0.0)])
    def test_overflowing_alpha_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="alpha too large"):
            lc_constants(alpha, beta, 0.1, 100)

    # format_constants checks alpha and beta first, and ferro_constants
    # fail_prob and n > k >= 1 before lc_constants runs, so only a direct
    # call reaches these checks
    @pytest.mark.parametrize("alpha,beta,fail_prob,n,message", [
        (0.0, 1.0, 0.1, 100, r"^require alpha > 0, beta >= 0$"),
        (0.2, -1.0, 0.1, 100, r"^require alpha > 0, beta >= 0$"),
        (0.2, 1.0, 0.0, 100, r"^fail_prob must lie in \(0, 1\)$"),
        (0.2, 1.0, 1.0, 100, r"^fail_prob must lie in \(0, 1\)$"),
        (0.2, 1.0, 0.1, 0, r"^require n >= 1$"),
    ])
    def test_arguments_checked_on_direct_call(self, alpha, beta, fail_prob, n, message):
        with pytest.raises(ValueError, match=message):
            lc_constants(alpha, beta, fail_prob, n)

    def test_infinite_log_bound_rejected(self):
        # T* is about 9.6e307, so 2 T* ln 2 overflows the log bound
        with pytest.raises(ValueError, match="tau too small for a finite sample bound"):
            lc_constants(1.7e-77, 0.0, 0.1, 10)


class TestFormatConstants:
    def test_flags_not_desk_reproducible(self):
        fc = ferro_constants(0.2, 1.0, 2, 0.1, 100)
        lines = format_constants(0.2, 1.0, 2, 0.1, 100).splitlines()
        assert lines[3] == lines[-1] == "  -> exceeds 1e12: not desk-reproducible"
        assert "2.710" in f"{fc.eta:.3e}"

    def test_small_beta_reproducible(self):
        lines = format_constants(0.9, 1.0, 1, 0.1, 16).splitlines()
        assert lines[2].startswith("ferro sample bound") and lines[3].startswith("tau")


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
            "sample", "--model", str(model_path), "--num-samples", "-1",
            "--out", str(tmp_path / "neg.rbms"),
        ]) == 1
        assert "error: M must be >= 0" in capsys.readouterr().err
        assert cli.main([
            "learn", "--model-file", str(model_path), "--n", "6", "--m", "3",
            "--d2", "2", "--algorithm", "ferro", "--threshold", "0.02", "--rounds", "3",
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
        assert capsys.readouterr().out == (
            "eta                = 0.00027100711118948994\n"
            "k                  = 20\n"
            "ferro sample bound = 1.0036558135542103e+23  (log10 = 23.0016)\n"
            "  -> exceeds 1e12: not desk-reproducible\n"
            "tau                = 2.4576849413312843e-07\n"
            "T*                 = 132445610649218\n"
            "delta_cond         = 0.06766764161830635\n"
            "lc sample bound    = inf  (log10 = 3.89562e+14)\n"
            "  -> exceeds 1e12: not desk-reproducible\n"
        )

    def test_constants_fail_prob_sets_both_bounds(self, monkeypatch, capsys):
        # the same stdout as separate delta and zeta flags of 0.5 gave
        seen = []
        for name in ("ferro_constants", "lc_constants"):
            def spy(*args, _calc=getattr(harness, name)):
                seen.append(args[-2])
                return _calc(*args)
            monkeypatch.setattr(harness, name, spy)
        assert cli.main([
            "constants", "--alpha", "0.9", "--beta", "1", "--d2", "1", "--n", "16",
            "--fail-prob", "0.5",
        ]) == 0
        assert seen == [0.5, 0.5]
        assert capsys.readouterr().out == (
            "eta                = 0.005487894001587171\n"
            "k                  = 7\n"
            "ferro sample bound = 140810924201.81522  (log10 = 11.1486)\n"
            "tau                = 4.97681200619585e-06\n"
            "T*                 = 322988838651\n"
            "delta_cond         = 0.06766764161830635\n"
            "lc sample bound    = inf  (log10 = 9.50006e+11)\n"
            "  -> exceeds 1e12: not desk-reproducible\n"
        )

    @pytest.mark.parametrize("flag", ["--eta", "--tau", "--k", "--t-max", "--delta", "--zeta"])
    def test_per_family_learner_flags_rejected(self, flag, capsys):
        assert cli.main(["learn", "--num-samples", "100", flag, "1"]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        assert cli.main([
            "sweep", "--n-list", "64,128,256", "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,classical_mean_queries,quantum_mean_queries"
        assert len(lines) == 4
        # the rows are closed-form, so sweep takes no trial count or seed
        for flag in ("--trials", "--seed"):
            assert cli.main(["sweep", flag, "1"]) == 1
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert cli.main(["sweep", "--rho", "1"]) == 1
        assert cli.main(["sweep", "--n-list", "0,1,2"]) == 1
        err = capsys.readouterr().err
        assert "error: rho must lie in (0, 1)" in err
        assert "error: n list entries must be >= 1, got 0" in err
        assert cli.main(["sweep", "--n-list", "64,abc,256"]) == 1
        assert "argument --n-list" in capsys.readouterr().err

    def test_infinite_lc_sample_bound_exit_code(self, capsys):
        assert cli.main(["constants", "--alpha", "1.7e-77", "--beta", "1.7e-77",
                         "--d2", "1", "--n", "100000"]) == 1
        assert "error: tau too small for a finite sample bound" in capsys.readouterr().err

    def test_config_error_exit_code(self, capsys):
        assert cli.main([
            "gen-model", "--n", "5", "--m", "2", "--d2", "5",
            "--out", "/dev/null",
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_model_file_exit_code(self, tmp_path, capsys):
        # 6 couplings and 3 visible fields would let numpy infer n = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(n=-1, m=2, J=[0.5] * 6, f=[0.0] * 3, g=[0.0] * 2,
                                        kind="ferromagnetic")))
        assert cli.main(["learn", "--model-file", str(path), "--out",
                         str(tmp_path / "r")]) == 1
        assert "error: malformed model file" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

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
        assert cli.main(["learn", "--num-samples", "100", "--rounds", "0"]) == 1
        assert cli.main(["learn", "--num-samples", "100", "--fail-prob", "0"]) == 1
        assert cli.main(["learn", "--num-samples", "100", "--threshold", "inf"]) == 1
        assert cli.main(["constants", "--alpha", "1e-90", "--beta", "1"]) == 1
        err = capsys.readouterr().err
        assert "error: rounds must be >= 1" in err
        assert "error: fail_prob must lie in (0, 1)" in err
        assert "error: threshold must be finite and > 0" in err
        assert "error: require n > k (k = 842)" in err

    def test_missing_out_directory_rejected_before_any_model(self, tmp_path, monkeypatch,
                                                             capsys):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was generated")

        monkeypatch.setattr(harness, "generate_model", no_model)
        out = str(tmp_path / "missing" / "r")
        assert cli.main(["learn", "--num-samples", "100", "--out", out]) == 1
        assert f"error: cannot write {out}.jsonl: no such directory" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_extreme_weight_bounds_exit_code(self, monkeypatch, capsys):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was generated")

        assert cli.main(["gen-model", "--beta", "inf", "--out", "/dev/null"]) == 1
        monkeypatch.setattr(harness, "generate_model", no_model)
        assert cli.main(["learn", "--num-samples", "100", "--beta", "inf"]) == 1
        assert cli.main(["constants", "--alpha", "1e200", "--beta", "1e200",
                         "--d2", "2", "--n", "100"]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 3
        assert "error: alpha and beta must be finite" in err
        assert cli.main(["constants", "--alpha", "1e-200", "--beta", "1"]) == 1
        assert cli.main(["constants", "--alpha", "0.4", "--beta", "0.1"]) == 1
        err = capsys.readouterr().err
        assert "error: eta underflowed to zero" in err
        assert "error: require 0 < alpha <= beta" in err
        # beta / alpha overflows: the generator's coupling count would be inf
        monkeypatch.setattr(model_mod, "generate_model", no_model)
        tiny = ["--alpha", "1e-320", "--beta", "1"]
        assert cli.main(["gen-model", *tiny, "--out", "/dev/null"]) == 1
        assert cli.main(["learn", *tiny, "--num-samples", "100"]) == 1
        assert cli.main(["learn", *tiny, "--trials", "0"]) == 1
        assert cli.main(["constants", *tiny]) == 1
        err = capsys.readouterr().err
        assert err.count("error: beta / alpha must be finite") == 4

    def test_theory_constants_errors_name_the_setting(self, capsys):
        assert cli.main(["constants", "--alpha", "1e-90", "--beta", "1", "--n", "10000"]) == 1
        assert cli.main(["constants", "--alpha", "1e200", "--beta", "1e200"]) == 1
        assert cli.main(["constants", "--alpha", "0.4", "--beta", "2", "--fail-prob", "1"]) == 1
        assert cli.main(["constants", "--alpha", "0.4", "--beta", "2", "--d2", "0"]) == 1
        assert cli.main(["constants", "--alpha", "1e-113", "--beta", "19", "--n", "100000"]) == 1
        # 4 / fail_prob overflows: the ferro bound read inf, the lc one blamed tau
        for tiny in ("1e-308", "1e-320"):
            assert cli.main(["constants", "--alpha", "0.9", "--beta", "1", "--d2", "1",
                             "--n", "16", "--fail-prob", tiny]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error: tau too small for T* = ceil(8/tau^2)") == 1
        assert err.count("error: alpha too large") == 1
        assert err.count("error: fail_prob must lie in (0, 1)") == 1
        assert err.count("error: d2 must be >= 1") == 1
        assert err.count("error: tau underflowed to zero; alpha too small or beta too large") == 1
        assert err.count("error: fail_prob too small for a finite sample bound") == 2

    def test_exact_enumeration_limit_rejected_before_any_model(self, monkeypatch, capsys, tmp_path):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was generated")

        monkeypatch.setattr(harness, "generate_model", no_model)
        assert cli.main(["learn", "--kind", "locally-consistent", "--algorithm", "lc",
                         "--n", "40", "--num-samples", "100"]) == 1
        big = model_mod.RbmModel(np.zeros((20, 5)), np.zeros(20), np.zeros(5),
                                 kind="ferromagnetic")
        save_model(big, tmp_path / "big.json")
        assert cli.main(["learn", "--model-file", str(tmp_path / "big.json"),
                         "--num-samples", "100"]) == 1
        err = capsys.readouterr().err
        assert err.count("error: exact enumeration limited to n + m <= 24 spins (got 45)") == 1
        assert err.count("error: exact enumeration limited to n + m <= 24 spins (got 25)") == 1

    @pytest.mark.parametrize("argv", [
        ["gen-model", "--out", "/dev/null"],
        ["sample", "--model", "m.json", "--out", "/dev/null"],
        ["learn"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_names_the_flag(self, argv, capsys):
        assert cli.main([*argv, "--seed", "-1"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("rbmstruct ")]
        assert len(commands) == 6
        parser = cli._build_parser()
        for argv in commands:
            parser.parse_args(argv)

    def test_learn_flags_mirror_experiment_config(self):
        parser = cli._build_parser()
        args = parser.parse_args(["learn"])
        parsed = {k: v for k, v in vars(args).items() if k != "command"}
        defaults = dataclasses.asdict(ExperimentConfig())
        assert parsed == defaults
        for argv in (["gen-model", "--out", "x"], ["sample", "--model", "m", "--out", "x"]):
            shared = {k: v for k, v in vars(parser.parse_args(argv)).items()
                      if k not in ("command", "model", "out")}
            assert shared == {k: defaults[k] for k in shared}, argv[0]

    def test_removed_verify_command_exit_code(self, capsys):
        assert cli.main(["verify"]) == 1
        assert "invalid choice: 'verify'" in capsys.readouterr().err

    def test_invariant_failure_exit_code(self, monkeypatch, capsys):
        def fail(args):
            raise AssertionError("cells out of order")

        monkeypatch.setitem(cli._COMMANDS, "constants", fail)
        assert cli.main(["constants", "--alpha", "0.4", "--beta", "2"]) == 2
        assert "internal invariant failure: cells out of order" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "-2"])
    def test_bad_threads_variable_exit_code(self, threads, monkeypatch, capsys):
        monkeypatch.setenv("RBM_SL_THREADS", threads)
        assert cli.main(["learn", "--trials", "2"]) == 1
        assert "RBM_SL_THREADS" in capsys.readouterr().err

    def test_bad_flag_exit_code(self):
        assert cli.main(["learn", "--algorithm", "bogus"]) == 1

    def test_default_learn_recovers(self, capsys):
        assert cli.main(["learn", "--trials", "5"]) == 0
        assert "exact_recovery=1.000" in capsys.readouterr().out

    def test_gibbs_sampler_path(self, tmp_path, capsys):
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
        assert cli.main([
            "sample", "--model", str(model_path), "--sampler", "gibbs",
            "--num-samples", "-1", "--out", str(out_path),
        ]) == 1
        assert "error: M must be >= 0" in capsys.readouterr().err


def _benchmark_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")  # executed from source: no bytecode cache
    sys.modules[module.__name__] = module  # dataclasses look their module up while it runs
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_benchmark_hooks_resolve():
    """Every name the benchmark's tracer requires still exists, so a
    deletion that would break traced benchmark runs fails here."""
    spans = _benchmark_module("spans")
    for mod_name, attr, _, _, required in spans.SPAN_HOOKS:
        if required:
            assert hasattr(importlib.import_module(f"rbmstruct.{mod_name}"), attr), attr
    assert callable(importlib.import_module("rbmstruct.qsearch").dh_max_find)


def test_benchmark_optional_hooks_count_every_scored_round():
    """The benchmark's optional scoring hooks, greedy._score_candidates_ferro
    and _score_candidates_lc, resolve, and every learner calls its family's
    hook once per scored round: len(trace) rounds that chose a node, plus
    the one that stopped (lc below the threshold, ferro with every
    candidate undefined). So the traced greedy.score, greedy.rounds and
    greedy.candidates_scored measure both families."""
    spans = _benchmark_module("spans")
    sample_sets = (exact_sample(demo_ring_model(), 500, seed=3),
                   SampleSet.from_pm1(np.full((10, 4), -1, dtype=np.int8)))
    for samples, alg, rounds in itertools.product(sample_sets, ALGORITHMS, (2, 3)):
        config = LearnerConfig(alg, rounds=rounds, seed=1)
        tracer = spans.Tracer()
        with spans.instrument(spans.MeterLog(), tracer) as missing:
            result = learn_full_graph(samples, config)
        assert missing == []
        scored = [len(r.trace) + (len(r.trace) < rounds and not r.exhausted)
                  for r in result.per_node]
        counts = tracer.counts[tracer.trial_id]
        assert counts["rounds"] == sum(scored) > 0
        assert counts["candidates_scored"] == sum(
            samples.n - 1 - s for k in scored for s in range(k))


def test_benchmark_max_find_capture_reaches_learners():
    """The benchmark's maximum-finding wrapper sees the one meter each
    quantum graph charges and none on a classical graph, and every name
    it rebinds is restored."""
    spans = _benchmark_module("spans")
    before = {m: dict(vars(m)) for name, m in sys.modules.items()
              if name.split(".")[0] == "rbmstruct"}
    original = qsearch.dh_max_find
    samples = exact_sample(demo_ring_model(), 500, seed=3)
    log = spans.MeterLog()
    with spans.instrument(log):
        assert qsearch.dh_max_find is not original
        for trial, alg in enumerate(ALGORITHMS):
            log.trial_id = trial
            config = LearnerConfig(alg, threshold=0.02 if alg.startswith("ferro") else 0.03,
                                   rounds=2, seed=trial)
            result = learn_full_graph(samples, config)
            seen = log.pop_trial(trial)
            if alg.endswith("-q"):
                assert len(seen) == 1 and seen[0][0] is result.meter
                assert seen[0][1] == samples.M
            else:
                assert seen == [] and result.meter is None
    for mod, names in before.items():
        assert all(vars(mod)[k] is v for k, v in names.items()), mod.__name__


def test_benchmark_learn_configs_validate(tmp_path):
    """Every learner workload of the benchmark passes validate() with the
    output prefix it runs with, so a new check there cannot reject a
    benchmark trial."""
    workloads = _benchmark_module("workloads").WORKLOADS.values()
    learn = [w for w in workloads if w.kind == "learn"]
    assert len(learn) == 3
    for w in learn:
        ExperimentConfig(**w.config, out=str(tmp_path / w.name)).validate()
