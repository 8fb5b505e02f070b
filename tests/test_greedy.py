import math

import numpy as np
import pytest

from rbmstruct.estimators import avg_cond_cov_decomposed, build_index, empirical_influence
from rbmstruct.greedy import (
    LearnerConfig,
    _or_edges,
    ferro_constants,
    lc_constants,
    learn_ferro,
    learn_full_graph,
    learn_lc,
)
from rbmstruct.model import (
    ExactOracle,
    NonDegeneracyParams,
    RbmModel,
    generate_model,
    two_hop_graph,
)
from rbmstruct.sampling import SampleSet, exact_sample

from conftest import demo_ring_model


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


class TestLearnFerro:
    def test_ring_model_finds_documented_edge(self):
        m = demo_ring_model()
        s = exact_sample(m, 50_000, seed=100)
        res = learn_ferro(0, s, eta=0.02, k=3)
        assert 1 in res.estimate

    def test_detached_node_empty(self):
        J = np.zeros((5, 2))
        J[1, 0] = J[2, 0] = 0.8
        J[3, 1] = J[4, 1] = 0.8
        m = RbmModel(J, np.zeros(5), np.zeros(2), kind="ferromagnetic")
        hits = 0
        for seed in range(20):
            s = exact_sample(m, 20_000, seed=seed)
            res = learn_ferro(0, s, eta=0.03, k=3)
            hits += res.estimate == ()
        assert hits >= 19  # at least 95 percent of trials empty

    def test_k_exceeding_candidates_flags_exhausted(self):
        m = demo_ring_model()
        s = exact_sample(m, 2_000, seed=3)
        res = learn_ferro(0, s, eta=0.02, k=10)
        assert res.exhausted
        assert len(res.trace) == 3  # only n - 1 candidates exist

    def test_all_candidates_undefined_flags_insufficient(self):
        s = SampleSet.from_pm1(np.full((6, 3), -1, dtype=np.int8))
        res = learn_ferro(0, s, eta=0.02, k=2)
        assert res.insufficient_samples
        assert res.estimate == ()

    def test_trace_scores_reproducible(self):
        m = demo_ring_model()
        s = exact_sample(m, 10_000, seed=4)
        res = learn_ferro(2, s, eta=0.02, k=3)
        S = []
        for node, score in res.trace:
            iv = empirical_influence(s, 2, S + [node])
            assert iv.value == score  # exact float equality
            S.append(node)

    def test_deterministic_reruns(self):
        m = demo_ring_model()
        s = exact_sample(m, 5_000, seed=5)
        r1 = learn_ferro(1, s, eta=0.02, k=3)
        r2 = learn_ferro(1, s, eta=0.02, k=3)
        assert r1.trace == r2.trace and r1.estimate == r2.estimate

    def test_validation(self):
        s = SampleSet.from_pm1(np.ones((2, 2), dtype=np.int8))
        with pytest.raises(ValueError):
            learn_ferro(0, s, eta=0.0, k=1)
        with pytest.raises(ValueError):
            learn_ferro(0, s, eta=0.1, k=0)
        with pytest.raises(ValueError):
            learn_ferro(5, s, eta=0.1, k=1)


class TestLearnLc:
    def test_shared_hidden_node_recovered(self):
        J = np.zeros((4, 2))
        J[0, 0] = J[1, 0] = -0.9  # negative column, arbitrary fields
        J[2, 1] = J[3, 1] = 0.7
        m = RbmModel(J, np.array([0.2, -0.1, 0.0, 0.1]), np.array([-0.1, 0.2]),
                     kind="locally-consistent")
        hits = 0
        for seed in range(20):
            s = exact_sample(m, 50_000, seed=seed)
            res = learn_lc(0, s, tau=0.05, t_max=3)
            hits += res.estimate == (1,)
        assert hits >= 19

    def test_isolated_node_stays_empty(self):
        J = np.zeros((4, 1))
        J[1, 0] = J[2, 0] = 0.8
        m = RbmModel(J, np.zeros(4), np.zeros(1), kind="locally-consistent")
        s = exact_sample(m, 30_000, seed=9)
        res = learn_lc(0, s, tau=0.05, t_max=3)
        assert res.estimate == ()
        assert res.trace == []

    def test_threshold_above_covariance_range(self):
        m = demo_ring_model()
        s = exact_sample(m, 5_000, seed=10)
        res = learn_lc(0, s, tau=2.5, t_max=4)
        assert res.estimate == () and res.trace == []

    def test_trace_scores_reproducible(self):
        m = demo_ring_model()
        s = exact_sample(m, 10_000, seed=11)
        res = learn_lc(1, s, tau=0.02, t_max=3)
        assert res.trace  # ring neighbors give strong covariance signal
        S = []
        for node, score in res.trace:
            idx = build_index(s, S)
            assert avg_cond_cov_decomposed(s, 1, node, idx) == score
            S.append(node)

    def test_empty_samples_flagged(self):
        s = SampleSet.from_pm1(np.zeros((0, 3), dtype=np.int8))
        res = learn_lc(0, s, tau=0.05, t_max=2)
        assert res.insufficient_samples


class TestPruningSoundnessExactScores:
    """Running the greedy recursion on exact oracle scores keeps exactly
    the graph-theoretic neighborhood when the threshold sits inside the
    true gap."""

    def _exact_greedy_ferro(self, oracle, u, n, eta, k):
        S = []
        for _ in range(k):
            cands = [j for j in range(n) if j != u and j not in S]
            if not cands:
                break
            scores = [oracle.influence(u, S + [j]) for j in cands]
            S.append(cands[int(np.argmax(scores))])
        i_full = oracle.influence(u, S)
        return {j for j in S if i_full - oracle.influence(u, [i for i in S if i != j]) >= eta}

    def test_ferro(self):
        params = NonDegeneracyParams(0.4, 2.0)
        for seed in range(5):
            m = generate_model("ferromagnetic", 8, 4, 2, params, seed=seed)
            oracle = ExactOracle(m)
            truth = two_hop_graph(m)
            for u in range(m.n):
                kept = self._exact_greedy_ferro(oracle, u, m.n, eta=1e-6, k=3)
                assert kept == truth.neighbors(u)

    def test_lc(self):
        params = NonDegeneracyParams(0.4, 2.0)
        for seed in range(5):
            m = generate_model("locally-consistent", 8, 4, 2, params, seed=seed)
            oracle = ExactOracle(m)
            truth = two_hop_graph(m)
            for u in range(m.n):
                S = []
                for _ in range(3):
                    cands = [v for v in range(m.n) if v != u and v not in S]
                    scores = [oracle.avg_cond_cov(u, v, S) for v in cands]
                    best = int(np.argmax(scores))
                    if scores[best] < 1e-6:
                        break
                    S.append(cands[best])
                kept = {
                    v
                    for v in S
                    if oracle.avg_cond_cov(u, v, [i for i in S if i != v]) >= 1e-6
                }
                assert kept == truth.neighbors(u)


class TestLearnFullGraph:
    def test_recovers_ring(self):
        m = demo_ring_model()
        s = exact_sample(m, 60_000, seed=12)
        res = learn_full_graph(s, LearnerConfig("ferro", eta=0.02, k=3))
        assert set(res.graph.edges) == set(two_hop_graph(m).edges)
        assert len(res.per_node) == 4

    def test_or_rule_keeps_asymmetric_edges(self):
        edges = _or_edges(3, [(1,), (), (1,)])
        assert edges == frozenset({(0, 1), (1, 2)})

    def test_zero_model_empty_graph(self):
        m = RbmModel(np.zeros((4, 2)), np.zeros(4), np.zeros(2), kind="ferromagnetic")
        s = exact_sample(m, 5_000, seed=13)
        res = learn_full_graph(s, LearnerConfig("ferro", eta=0.05, k=2))
        assert res.graph.edges == frozenset()

    def test_flags_propagate(self):
        s = SampleSet.from_pm1(np.full((4, 3), -1, dtype=np.int8))
        res = learn_full_graph(s, LearnerConfig("ferro", eta=0.05, k=2))
        assert all(r.insufficient_samples for r in res.per_node)

    @pytest.mark.parametrize("alg,knobs", [
        ("ferro", dict(k=2)), ("ferro-q", dict(eta=0.02)),
        ("lc", dict(eta=0.02, k=2)), ("lc-q", dict(tau=0.025)),
    ])
    def test_missing_learner_knobs_rejected(self, alg, knobs):
        with pytest.raises(ValueError, match=f"{alg} needs"):
            LearnerConfig(alg, **knobs)
