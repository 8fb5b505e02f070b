import math

import numpy as np
import pytest

from rbmstruct.estimators import avg_cond_cov_decomposed, empirical_influence
from rbmstruct.greedy import (
    LearnerConfig,
    _argmax,
    _greedy,
    _learn_ferro,
    _learn_lc,
    _or_edges,
    _prune,
    learn_full_graph,
)
from rbmstruct.harness import ferro_constants, lc_constants
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


class TestLearnFerro:
    def test_ring_model_finds_documented_edge(self):
        m = demo_ring_model()
        s = exact_sample(m, 50_000, seed=100)
        res = _learn_ferro(0, s, threshold=0.02, rounds=3)
        assert 1 in res.estimate

    def test_detached_node_empty(self):
        J = np.zeros((5, 2))
        J[1, 0] = J[2, 0] = 0.8
        J[3, 1] = J[4, 1] = 0.8
        m = RbmModel(J, np.zeros(5), np.zeros(2), kind="ferromagnetic")
        hits = 0
        for seed in range(20):
            s = exact_sample(m, 20_000, seed=seed)
            res = _learn_ferro(0, s, threshold=0.03, rounds=3)
            hits += res.estimate == ()
        assert hits >= 19  # at least 95 percent of trials empty

    def test_k_exceeding_candidates_flags_exhausted(self):
        m = demo_ring_model()
        s = exact_sample(m, 2_000, seed=3)
        res = _learn_ferro(0, s, threshold=0.02, rounds=10)
        assert res.exhausted
        assert len(res.trace) == 3  # only n - 1 candidates exist

    def test_all_candidates_undefined_flags_insufficient(self):
        s = SampleSet.from_pm1(np.full((6, 3), -1, dtype=np.int8))
        res = _learn_ferro(0, s, threshold=0.02, rounds=2)
        assert res.insufficient_samples
        assert res.estimate == ()

    def test_trace_scores_reproducible(self):
        m = demo_ring_model()
        s = exact_sample(m, 10_000, seed=4)
        res = _learn_ferro(2, s, threshold=0.02, rounds=3)
        S = []
        for node, score in res.trace:
            iv = empirical_influence(s, 2, S + [node])
            assert iv.value == score  # exact float equality
            S.append(node)

    def test_deterministic_reruns(self):
        m = demo_ring_model()
        s = exact_sample(m, 5_000, seed=5)
        r1 = _learn_ferro(1, s, threshold=0.02, rounds=3)
        r2 = _learn_ferro(1, s, threshold=0.02, rounds=3)
        assert r1.trace == r2.trace and r1.estimate == r2.estimate


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
            res = _learn_lc(0, s, threshold=0.05, rounds=3)
            hits += res.estimate == (1,)
        assert hits >= 19

    def test_isolated_node_stays_empty(self):
        J = np.zeros((4, 1))
        J[1, 0] = J[2, 0] = 0.8
        m = RbmModel(J, np.zeros(4), np.zeros(1), kind="locally-consistent")
        s = exact_sample(m, 30_000, seed=9)
        res = _learn_lc(0, s, threshold=0.05, rounds=3)
        assert res.estimate == ()
        assert res.trace == []

    def test_threshold_above_covariance_range(self):
        m = demo_ring_model()
        s = exact_sample(m, 5_000, seed=10)
        res = _learn_lc(0, s, threshold=2.5, rounds=4)
        assert res.estimate == () and res.trace == []

    def test_trace_scores_reproducible(self):
        m = demo_ring_model()
        s = exact_sample(m, 10_000, seed=11)
        res = _learn_lc(1, s, threshold=0.02, rounds=3)
        assert res.trace  # ring neighbors give strong covariance signal
        S = []
        for node, score in res.trace:
            assert avg_cond_cov_decomposed(s, 1, node, S) == score
            S.append(node)

    def test_empty_samples_flagged(self):
        s = SampleSet.from_pm1(np.zeros((0, 3), dtype=np.int8))
        res = _learn_lc(0, s, threshold=0.05, rounds=2)
        assert res.insufficient_samples


class TestPruningSoundnessExactScores:
    """The learners' own candidate loop and prune (``greedy._greedy``,
    ``greedy._prune``), run on exact oracle scores, keep exactly the
    graph-theoretic neighborhood when the threshold sits inside the true
    gap."""

    def _chosen(self, m, u, score, stop):
        """The nodes three rounds choose for u, with score(cands, S) the
        exact scores of the candidates given the chosen set S. Each trace
        entry (j, value) must be the exact score of j given the nodes chosen
        before it, so a loop that does not condition on its choices fails."""
        chosen, trace, _, _ = _greedy(
            u, m.n, 3, [], score=lambda cands, S: np.array(score(cands, S)),
            add=lambda S, j: S + [j], stop=stop, pick=_argmax,
        )
        for i, (j, value) in enumerate(trace):
            assert value == score([j], chosen[:i])[0], (u, i)
        return chosen

    def test_ferro(self):
        params = NonDegeneracyParams(0.4, 2.0)
        for seed in range(5):
            m = generate_model("ferromagnetic", 8, 4, 2, params, seed=seed)
            oracle = ExactOracle(m)
            truth = two_hop_graph(m)
            for u in range(m.n):
                chosen = self._chosen(
                    m, u,
                    score=lambda cands, S: [oracle.influence(u, S + [j]) for j in cands],
                    stop=lambda values, value: False,
                )
                i_full = oracle.influence(u, chosen)
                kept, _ = _prune(chosen, lambda j, rest: i_full - oracle.influence(u, rest) >= 1e-6)
                assert set(kept) == truth.neighbors(u)

    def test_lc(self):
        params = NonDegeneracyParams(0.4, 2.0)
        for seed in range(5):
            m = generate_model("locally-consistent", 8, 4, 2, params, seed=seed)
            oracle = ExactOracle(m)
            truth = two_hop_graph(m)
            for u in range(m.n):
                chosen = self._chosen(
                    m, u,
                    score=lambda cands, S: [oracle.avg_cond_cov(u, v, S) for v in cands],
                    stop=lambda values, value: value < 1e-6,
                )
                kept, _ = _prune(chosen, lambda v, rest: oracle.avg_cond_cov(u, v, rest) >= 1e-6)
                assert set(kept) == truth.neighbors(u)


class TestLearnFullGraph:
    def test_recovers_ring(self):
        m = demo_ring_model()
        s = exact_sample(m, 60_000, seed=12)
        res = learn_full_graph(s, LearnerConfig("ferro", threshold=0.02, rounds=3))
        assert set(res.graph.edges) == set(two_hop_graph(m).edges)
        assert len(res.per_node) == 4

    def test_or_rule_keeps_asymmetric_edges(self):
        edges = _or_edges([(1,), (), (1,)])
        assert edges == frozenset({(0, 1), (1, 2)})

    def test_zero_model_empty_graph(self):
        m = RbmModel(np.zeros((4, 2)), np.zeros(4), np.zeros(2), kind="ferromagnetic")
        s = exact_sample(m, 5_000, seed=13)
        res = learn_full_graph(s, LearnerConfig("ferro", threshold=0.05, rounds=2))
        assert res.graph.edges == frozenset()

    def test_flags_propagate(self):
        s = SampleSet.from_pm1(np.full((4, 3), -1, dtype=np.int8))
        res = learn_full_graph(s, LearnerConfig("ferro", threshold=0.05, rounds=2))
        assert all(r.insufficient_samples for r in res.per_node)
