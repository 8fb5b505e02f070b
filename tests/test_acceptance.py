"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line (run with -s to see them on success).

Each test is deterministic under its fixed seeds; statistical thresholds
were validated against independent Monte Carlo references before being
frozen here. Criteria 1, 2, 7 and 10 measure through the shared checks in
``rbmstruct.harness``, which ``rbmstruct verify`` runs at smaller counts;
the bounds stay here.
"""

import itertools
import math

import numpy as np
import pytest

from rbmstruct.greedy import LearnerConfig, ferro_constants, lc_constants, learn_full_graph
from rbmstruct.model import (
    ExactOracle,
    NonDegeneracyParams,
    generate_model,
    random_model,
    two_hop_graph,
)
from rbmstruct.qsearch import QueryMeter, quantum_learn_ferro, quantum_learn_lc
from rbmstruct.greedy import learn_ferro, learn_lc
from rbmstruct.harness import (
    covariance_identity_gap,
    gibbs_tv,
    influence_identity_gap,
    max_find_success,
    stage_deviations,
    sweep_scaling,
)
from rbmstruct.sampling import GibbsConfig, exact_sample


def _report(num: int, name: str) -> None:
    print(f"[acceptance] criterion {num:02d} ({name}): PASS")


def test_criterion_01_covariance_decomposition_identity():
    assert covariance_identity_gap(np.random.default_rng(101), 200) <= 1e-12
    _report(1, "covariance decomposition identity")


def test_criterion_02_influence_expansion_identity():
    assert influence_identity_gap(np.random.default_rng(102), 200) <= 1e-12
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
                influence[key] = oracle.influence(u, sorted(nodes))
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
            nb = sorted(graph.neighbors(u))
            base = oracle.influence(u, nb)
            for j in range(model.n):
                if j == u or j in nb:
                    continue
                assert abs(oracle.influence(u, nb + [j]) - base) <= 1e-10
    # covariance vanishes for conditionally independent pairs and is
    # strictly positive for two-hop pairs unconditioned
    positives = 0
    for seed in range(20):
        model = generate_model("locally-consistent", 7, 3, 2, params, seed=100 + seed)
        oracle = ExactOracle(model)
        graph = two_hop_graph(model)
        for u in range(model.n):
            nb = graph.neighbors(u)
            for v in range(model.n):
                if v == u:
                    continue
                if v in nb:
                    value = oracle.avg_cond_cov(u, v, [])
                    assert value > 1e-8
                    positives += 1
                else:
                    S = sorted(nb - {v})
                    assert abs(oracle.avg_cond_cov(u, v, S)) <= 1e-10
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
    if algorithm == "ferro":
        cfg = LearnerConfig("ferro", eta=threshold, k=4)
    else:
        cfg = LearnerConfig("lc", tau=threshold, t_max=4)
    result = learn_full_graph(samples, cfg)
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
        ref_f = learn_ferro(u, samples_f, eta=0.02, k=4).estimate
        ref_l = learn_lc(u, samples_l, tau=0.025, t_max=4).estimate
        for r in range(runs_per_model):
            res = quantum_learn_ferro(
                u, samples_f, QueryMeter(), eta=0.02, k=4, delta=0.1,
                rng=np.random.default_rng([61, mi, r]),
            )
            agree_f += res.estimate == ref_f
            res = quantum_learn_lc(
                u, samples_l, QueryMeter(), tau=0.025, t_max=4, zeta=0.1,
                rng=np.random.default_rng([62, mi, r]),
            )
            agree_l += res.estimate == ref_l
    total = 10 * runs_per_model
    assert agree_f / total >= 0.9, f"ferro agreement {agree_f}/{total}"
    assert agree_l / total >= 0.9, f"lc agreement {agree_l}/{total}"
    _report(6, "quantum and classical learners agree >= 90 percent")


def test_criterion_07_grover_simulator_statistics():
    for j, (rate, p, se) in enumerate(stage_deviations(np.random.default_rng(107), 100_000)):
        assert abs(rate - p) <= 3 * se, f"stage j={j}: {rate} vs {p}"
    for rho in (0.5, 0.1, 0.01):
        success = max_find_success(rho, 1000)
        assert success >= 1 - rho, f"rho={rho}: {success}"
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
    params = NonDegeneracyParams(0.3, 1.5)
    worst = 0.0
    for i in range(10):
        kind = "ferromagnetic" if i % 2 == 0 else "locally-consistent"
        model = generate_model(kind, 6, 4, 2, params, seed=300 + i)
        tv = gibbs_tv(model, 200_000, GibbsConfig(burn_in=1000, thinning=10, seed=400 + i))
        worst = max(worst, tv)
        assert tv <= 0.03, f"model {i}: TV = {tv}"
    print(f"[acceptance] criterion 10 detail: worst TV = {worst:.4f}")
    _report(10, "Gibbs sampler total variation <= 0.03")
