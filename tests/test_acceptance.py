"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line (run with -s to see them on success).

Each test is deterministic under its fixed seeds; statistical thresholds
were validated against independent Monte Carlo references before being
frozen here.
"""

import itertools
import math

import numpy as np
import pytest

from rbmstruct.estimators import influence_bits
from rbmstruct.greedy import LearnerConfig, _learn_ferro, _learn_lc, learn_full_graph
from rbmstruct.harness import ferro_constants, lc_constants, sweep_scaling
from rbmstruct.model import ExactOracle, NonDegeneracyParams, generate_model, two_hop_graph
from rbmstruct.qsearch import (
    QueryMeter,
    ScoreOracle,
    dh_max_find,
    grover_stage,
    stage_success_probability,
)
from rbmstruct.sampling import GibbsConfig, SampleSet, exact_sample, gibbs_sample

from conftest import (
    avg_cond_cov_direct,
    conditioning_cells,
    cov_scores,
    exact_avg_cond_cov,
    exact_influence,
    metered,
    neighbors,
    random_model,
)


def _report(num: int, name: str) -> None:
    print(f"[acceptance] criterion {num:02d} ({name}): PASS")


def test_criterion_01_covariance_decomposition_identity():
    # the direct route over build_index groups against the bitset cells
    # route, which the learners' counted scores are held to
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        mdl = random_model(rng, n_range=(3, 7), m_range=(1, 4))
        H = int(rng.integers(1, 501))
        samples = exact_sample(mdl, H, seed=int(rng.integers(2**31)))
        u, v = (int(x) for x in rng.choice(mdl.n, size=2, replace=False))
        others = [i for i in range(mdl.n) if i not in (u, v)]
        S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
        direct = avg_cond_cov_direct(samples, u, v, S)
        cells = conditioning_cells(samples, S)
        worst = max(worst, abs(direct - float(cov_scores(samples, u, [v], cells)[0])))
    assert worst <= 1e-12
    print(f"[acceptance] criterion 01 detail: worst gap = {worst.hex()}")
    _report(1, "covariance decomposition identity")


def test_criterion_02_influence_expansion_identity():
    # the learners' bitset ratio against the conditional mean over the rows
    # a boolean mask selects; undefined draws are skipped
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 7))
        M = int(rng.integers(1, 400))
        samples = SampleSet.from_pm1(rng.choice([-1, 1], size=(M, n)))
        u = int(rng.integers(n))
        others = [i for i in range(n) if i != u]
        S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
        value = influence_bits(samples, u, S)
        if value is None:
            continue
        rows = (samples.dense[:, S] == 1).all(axis=1)
        direct = float(samples.dense[rows, u].astype(np.float64).mean())
        worst = max(worst, abs(value - direct))
        checked += 1
    assert worst <= 1e-12
    print(f"[acceptance] criterion 02 detail: worst gap = {worst.hex()}")
    _report(2, "influence expansion identity")


def test_criterion_03_ghs_monotone_submodular():
    rng = np.random.default_rng(103)
    for _ in range(100):
        model = random_model(rng, kind="ferromagnetic", n_range=(4, 6), m_range=(2, 5))
        oracle = ExactOracle(model)
        n = model.n
        influence = {}

        def inf(u, nodes):
            key = (u, frozenset(nodes))
            if key not in influence:
                influence[key] = exact_influence(oracle, u, sorted(nodes))
            return influence[key]

        for u in range(n):
            others = [i for i in range(n) if i != u]
            for t_size in range(min(3, len(others)) + 1):
                for T in itertools.combinations(others, t_size):
                    for s_size in range(t_size + 1):
                        for S in itertools.combinations(T, s_size):
                            for j in others:
                                if j in T:
                                    continue
                                gain_s = inf(u, set(S) | {j}) - inf(u, S)
                                gain_t = inf(u, set(T) | {j}) - inf(u, T)
                                assert gain_s >= -1e-10
                                assert gain_s >= gain_t - 1e-10
    _report(3, "GHS monotonicity and submodularity")


def test_criterion_04_separation_properties():
    params = NonDegeneracyParams(0.35, 1.8)
    # influence increments vanish outside the two-hop neighborhood
    for seed in range(20):
        model = generate_model("ferromagnetic", 7, 3, 2, params, seed=seed)
        oracle = ExactOracle(model)
        graph = two_hop_graph(model)
        for u in range(model.n):
            nb = sorted(neighbors(graph, u))
            base = exact_influence(oracle, u, nb)
            for j in range(model.n):
                if j == u or j in nb:
                    continue
                assert abs(exact_influence(oracle, u, nb + [j]) - base) <= 1e-10
    # covariance vanishes for conditionally independent pairs and is
    # strictly positive for two-hop pairs unconditioned
    positives = 0
    for seed in range(20):
        model = generate_model("locally-consistent", 7, 3, 2, params, seed=100 + seed)
        oracle = ExactOracle(model)
        graph = two_hop_graph(model)
        for u in range(model.n):
            nb = neighbors(graph, u)
            for v in range(model.n):
                if v == u:
                    continue
                if v in nb:
                    value = exact_avg_cond_cov(oracle, u, v, [])
                    assert value > 1e-8
                    positives += 1
                else:
                    S = sorted(nb - {v})
                    assert abs(exact_avg_cond_cov(oracle, u, v, S)) <= 1e-10
    assert positives > 0
    _report(4, "influence and covariance separation")


# Recovery protocol (criterion 5): thresholds are chosen on held-out
# calibration seeds by doubling the sample count until at least three
# adjacent grid thresholds give full recovery on every calibration model
# (a robustness plateau), taking the median of the working plateau.
_THRESHOLD_GRID = [0.01, 0.015, 0.02, 0.025, 0.03]
_CALIBRATION_SEEDS = [1000, 1001, 1002]
_RECOVERY_PARAMS = NonDegeneracyParams(0.4, 2.0)


def _recovery_trial(kind: str, algorithm: str, seed: int, M: int, threshold: float) -> bool:
    model = generate_model(kind, 10, 5, 3, _RECOVERY_PARAMS, seed=seed)
    samples = exact_sample(model, M, seed=[seed, 1])
    result = learn_full_graph(samples, LearnerConfig(algorithm, threshold=threshold, rounds=4))
    return set(result.graph.edges) == set(two_hop_graph(model).edges)


def _calibrate(kind: str, algorithm: str, m_start: int) -> tuple[int, float]:
    M = m_start
    while M <= 1_024_000:
        working = [
            thr
            for thr in _THRESHOLD_GRID
            if all(_recovery_trial(kind, algorithm, s, M, thr) for s in _CALIBRATION_SEEDS)
        ]
        if len(working) >= 3:
            return M, working[len(working) // 2]
        M *= 2
    raise AssertionError(f"calibration failed for {algorithm}")


def _recovery_rate(kind: str, algorithm: str, M: int, threshold: float) -> float:
    wins = sum(_recovery_trial(kind, algorithm, seed, M, threshold) for seed in range(50))
    return wins / 50


def test_criterion_05_classical_structure_recovery():
    M_f, eta = _calibrate("ferromagnetic", "ferro", 16_000)
    rate_f = _recovery_rate("ferromagnetic", "ferro", M_f, eta)
    assert rate_f >= 0.9, f"ferro recovery {rate_f} at M={M_f}, eta={eta}"
    M_l, tau = _calibrate("locally-consistent", "lc", 8_000)
    rate_l = _recovery_rate("locally-consistent", "lc", M_l, tau)
    assert rate_l >= 0.9, f"lc recovery {rate_l} at H={M_l}, tau={tau}"
    print(
        f"[acceptance] criterion 05 detail: ferro M={M_f} eta={eta} rate={rate_f}; "
        f"lc H={M_l} tau={tau} rate={rate_l}"
    )
    _report(5, "classical structure recovery >= 90 percent")


def test_criterion_06_quantum_classical_agreement():
    agree_f = agree_l = 0
    runs_per_model = 20
    for mi in range(10):
        model_f = generate_model("ferromagnetic", 10, 5, 3, _RECOVERY_PARAMS, seed=500 + mi)
        samples_f = exact_sample(model_f, 4000, seed=[500, mi])
        model_l = generate_model("locally-consistent", 10, 5, 3, _RECOVERY_PARAMS, seed=600 + mi)
        samples_l = exact_sample(model_l, 4000, seed=[600, mi])
        u = mi % 10
        ref_f = _learn_ferro(u, samples_f, threshold=0.02, rounds=4).estimate
        ref_l = _learn_lc(u, samples_l, threshold=0.025, rounds=4).estimate
        for r in range(runs_per_model):
            res = metered(
                _learn_ferro, u, samples_f, QueryMeter(), threshold=0.02, rounds=4, fail_prob=0.1,
                rng=np.random.default_rng([61, mi, r]),
            )
            agree_f += res.estimate == ref_f
            res = metered(
                _learn_lc, u, samples_l, QueryMeter(), threshold=0.025, rounds=4, fail_prob=0.1,
                rng=np.random.default_rng([62, mi, r]),
            )
            agree_l += res.estimate == ref_l
    total = 10 * runs_per_model
    assert agree_f / total >= 0.9, f"ferro agreement {agree_f}/{total}"
    assert agree_l / total >= 0.9, f"lc agreement {agree_l}/{total}"
    _report(6, "quantum and classical learners agree >= 90 percent")


def test_criterion_07_grover_simulator_statistics():
    # the hit rate of each stage length j against the stage law
    rng = np.random.default_rng(107)
    marked, reps = np.arange(4), 100_000
    for j in range(6):
        rate = sum(grover_stage(marked, 64, j, rng) is not None for _ in range(reps)) / reps
        p = stage_success_probability(64, 4, j)
        assert abs(rate - p) <= 3 * math.sqrt(p * (1 - p) / reps), f"stage j={j}: {rate} vs {p}"
        print(f"[acceptance] criterion 07 detail: stage j={j} rate = {rate.hex()}")
    # maximum finding returns the argmax in at least 1 - rho of the runs
    for rho in (0.5, 0.1, 0.01):
        good = 0
        for r in range(1000):
            vals = np.random.default_rng([71, r]).random(256)
            scores = ScoreOracle(vals, cost=1, meter=QueryMeter())
            i, _ = dh_max_find(scores, rho, np.random.default_rng([72, int(rho * 100), r]))
            good += i == int(np.argmax(vals))
        success = good / 1000
        assert success >= 1 - rho, f"rho={rho}: {success}"
        print(f"[acceptance] criterion 07 detail: rho={rho} success = {success.hex()}")
    _report(7, "Grover stage statistics and maximum-finding success")


def test_criterion_08_scaling_shape():
    result = sweep_scaling([64, 128, 256, 512, 1024], trials=30, rho=0.5, seed=208)
    assert 0.45 <= result.quantum_slope <= 0.6, result.quantum_slope
    assert 0.9 <= result.classical_slope <= 1.1, result.classical_slope
    n_top, classical_top, quantum_top = result.rows[-1]
    assert n_top == 1024
    assert quantum_top < classical_top
    print(
        f"[acceptance] criterion 08 detail: slopes quantum={result.quantum_slope:.3f} "
        f"classical={result.classical_slope:.3f}; at n=1024 quantum={quantum_top:.1f} "
        f"classical={classical_top:.1f}"
    )
    _report(8, "argmax query scaling shape")


def test_criterion_09_theory_constants():
    fc = ferro_constants(0.2, 1.0, 2, 0.1, 100)
    # independent evaluation: exp-form sigmoid and tanh via exp
    e2 = math.exp(2.0)
    sigma = 1.0 / (1.0 + e2)
    tanh1 = (e2 - 1.0) / (e2 + 1.0)
    eta_ref = 0.2**2 * sigma * (1.0 - tanh1) ** 2
    assert abs(fc.eta / eta_ref - 1.0) <= 1e-6
    assert f"{fc.eta:.3e}" == "2.710e-04"
    lcc = lc_constants(0.2, 1.0, 0.1, 100)
    tau_ref = 0.2**2 * math.exp(-12.0)
    assert abs(lcc.tau / tau_ref - 1.0) <= 1e-6
    assert f"{lcc.tau:.3e}" == "2.458e-07"
    # fixture computed at build time with 40-digit arithmetic
    assert fc.sample_bound == pytest.approx(1.0036558135542139e23, rel=1e-9)
    _report(9, "theory constants and sample bound")


def test_criterion_10_gibbs_sampler_validity():
    # total variation between the Gibbs draws' visible configurations and
    # the exact marginal
    params = NonDegeneracyParams(0.3, 1.5)
    worst = 0.0
    for i in range(10):
        kind = "ferromagnetic" if i % 2 == 0 else "locally-consistent"
        model = generate_model(kind, 6, 4, 2, params, seed=300 + i)
        cfg = GibbsConfig(burn_in=1000, thinning=10, seed=400 + i)
        samples = gibbs_sample(model, 200_000, cfg)
        bits = (samples.dense > 0).astype(np.int64)
        weights = 1 << np.arange(model.n - 1, -1, -1, dtype=np.int64)
        counts = np.bincount(bits @ weights, minlength=1 << model.n)
        tv = float(0.5 * np.abs(counts / samples.M - ExactOracle(model).probabilities).sum())
        worst = max(worst, tv)
        assert tv <= 0.03, f"model {i}: TV = {tv}"
    print(f"[acceptance] criterion 10 detail: worst TV = {worst:.4f} ({worst.hex()})")
    _report(10, "Gibbs sampler total variation <= 0.03")
