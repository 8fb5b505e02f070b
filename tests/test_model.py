import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmstruct.model import (
    ENUM_GUARD,
    KIND_GENERAL,
    LEARNABLE_KINDS,
    ExactOracle,
    NonDegeneracyParams,
    RbmModel,
    generate_model,
    load_model,
    save_model,
    two_hop_graph,
    validate_nondegenerate,
)

from conftest import (
    brute_avg_cond_cov,
    brute_influence,
    brute_visible_marginal,
    brute_visible_weights,
    demo_ring_model,
    exact_avg_cond_cov,
    exact_influence,
    random_model,
)


class TestValidateNondegenerate:
    def test_all_bounds_hold(self):
        m = RbmModel([[0.5]], [0.1], [0.2])
        assert validate_nondegenerate(m, NonDegeneracyParams(0.4, 1.0)) == ()

    def test_coupling_below_alpha(self):
        m = RbmModel([[0.3]], [0.0], [0.0])
        violations = validate_nondegenerate(m, NonDegeneracyParams(0.4, 1.0))
        assert any("J[0,0]" in v for v in violations)

    def test_row_strength_above_beta(self):
        m = RbmModel([[0.5, 0.6]], [0.1], [0.0, 0.0])
        violations = validate_nondegenerate(m, NonDegeneracyParams(0.4, 1.0))
        assert any("visible node 0" in v for v in violations)


class TestModelConstruction:
    def test_kind_flag_checked(self):
        with pytest.raises(ValueError):
            RbmModel([[-0.5]], [0.0], [0.0], kind="ferromagnetic")
        with pytest.raises(ValueError):
            RbmModel([[0.5, -0.5], [-0.5, 0.5]], [0, 0], [0, 0], kind="locally-consistent")
        ok = RbmModel([[0.5, -0.5], [0.5, -0.5]], [0.3, -0.3], [0, 0], kind="locally-consistent")
        with pytest.raises(ValueError):
            RbmModel(ok.J, ok.f, ok.g, kind="ferromagnetic")

    def test_immutable(self):
        m = RbmModel([[0.5]], [0.0], [0.0])
        with pytest.raises(ValueError):
            m.J[0, 0] = 1.0
        with pytest.raises(AttributeError):
            m.kind = "general"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            RbmModel([[np.inf]], [0.0], [0.0])

    def test_pickle_round_trip(self):
        m = RbmModel([[0.5, -0.5], [0.5, -0.5]], [0.3, -0.3], [0, 0], kind="locally-consistent")
        back = pickle.loads(pickle.dumps(m))
        assert back == m and back.kind == m.kind
        assert not back.J.flags.writeable
        with pytest.raises(AttributeError):
            back.kind = "general"


class TestVisibleMarginal:
    def test_single_free_spin(self):
        m = RbmModel(np.zeros((1, 0)), [0.0], [])
        assert ExactOracle(m).probabilities[0b1] == pytest.approx(0.5, abs=1e-15)

    def test_two_visible_one_hidden(self):
        # frozen from the brute-force sum over y: P(1,1) = cosh(2)/(2 cosh(2) + 2)
        m = RbmModel([[1.0], [1.0]], [0, 0], [0])
        expected = brute_visible_marginal(m, (1, 1))
        assert expected == pytest.approx(math.cosh(2) / (2 * math.cosh(2) + 2), rel=1e-14)
        p = ExactOracle(m).probabilities
        assert p[0b11] == pytest.approx(expected, rel=1e-13)
        assert p[0b10] == pytest.approx(brute_visible_marginal(m, (1, -1)), rel=1e-13)

    def test_normalization_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_model(rng, n_range=(2, 7), m_range=(0, 6))
            assert ExactOracle(m).probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_matches_direct_hidden_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_model(rng, n_range=(2, 4), m_range=(1, 4))
            oracle = ExactOracle(m)
            # all +1 is the last configuration index, all -1 the first
            for c, x in ((-1, (1,) * m.n), (0, (-1,) * m.n)):
                assert oracle.probabilities[c] == pytest.approx(
                    brute_visible_marginal(m, x), rel=1e-12
                )

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from((KIND_GENERAL, *LEARNABLE_KINDS)),
        n=st.integers(1, 8),
        m=st.integers(0, 5),
        model_seed=st.integers(0, 2**32 - 1),
    )
    def test_table_matches_brute_weights(self, kind, n, m, model_seed):
        # zero-masked columns give empty, partial and full hidden supports,
        # so every factor-table shape is built
        rng = np.random.default_rng(model_seed)
        base = random_model(rng, kind, n_range=(n, n + 1), m_range=(m, m + 1))
        keep = rng.random((n, m)) < rng.choice([0.0, 0.5, 1.0], size=m)
        model = RbmModel(base.J * keep, base.f, base.g, kind=kind)
        weights = brute_visible_weights(model)
        z = sum(weights.values())
        expected = [weights[x] / z for x in sorted(weights)]  # configuration-index order
        assert ExactOracle(model).probabilities == pytest.approx(expected, rel=1e-12)

    def test_peak_memory_per_configuration(self):
        # the build holds the table and one factor table with its negation,
        # 24 bytes per configuration on a dense model; a +-1 configuration
        # matrix or a second table-sized temporary goes past the bound
        rng = np.random.default_rng(0)
        n, m = 20, 4
        model = RbmModel(
            rng.uniform(-1, 1, (n, m)), rng.uniform(-0.5, 0.5, n), rng.uniform(-0.5, 0.5, m)
        )
        tracemalloc.start()
        try:
            ExactOracle(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * (1 << n)

    def test_enumeration_guard(self):
        m = RbmModel(np.zeros((20, 8)), np.zeros(20), np.zeros(8))
        with pytest.raises(ValueError, match="n \\+ m"):
            ExactOracle(m)
        assert 20 + 8 > ENUM_GUARD

    def test_large_weights_stable(self):
        # log-space evaluation: couplings near beta = 20 must not overflow
        m = RbmModel([[18.0], [18.0]], [1.0, 1.0], [1.0])
        p = ExactOracle(m).probabilities
        assert np.isfinite(p).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestTwoHopGraph:
    def test_ring_demo_model(self):
        g = two_hop_graph(demo_ring_model())
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
        assert (0, 1) in g.edges
        assert g.max_degree == 2

    def test_zero_couplings(self):
        m = RbmModel(np.zeros((4, 2)), np.zeros(4), np.zeros(2))
        assert two_hop_graph(m).edges == frozenset()

    def test_single_hub_hidden_node(self):
        m = RbmModel(np.ones((5, 1)), np.zeros(5), np.zeros(1))
        g = two_hop_graph(m)
        assert len(g.edges) == 10  # complete graph on 5
        assert g.max_degree == 4


class TestExactInfluence:
    def test_frozen_two_node_value(self):
        m = RbmModel([[1.0], [1.0]], [0, 0], [0])
        expected = brute_influence(m, 0, (1,))
        assert expected == pytest.approx((math.cosh(2) - 1) / (math.cosh(2) + 1), rel=1e-13)
        assert exact_influence(ExactOracle(m), 0, [1]) == pytest.approx(expected, rel=1e-12)

    def test_detached_node_has_no_influence(self):
        J = np.array([[0.0], [0.7]])
        m = RbmModel(J, [0.0, 0.2], [0.1])
        for S in ([], [1]):
            assert exact_influence(ExactOracle(m), 0, S) == pytest.approx(0.0, abs=1e-12)

    def test_empty_conditioning_is_unconditional_mean(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            m = random_model(rng, n_range=(2, 4), m_range=(1, 3))
            assert exact_influence(ExactOracle(m), 0, []) == pytest.approx(
                brute_influence(m, 0, ()), rel=1e-11, abs=1e-12
            )

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m = random_model(rng, n_range=(3, 5), m_range=(1, 3))
            u = int(rng.integers(m.n))
            others = [i for i in range(m.n) if i != u]
            S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
            assert exact_influence(ExactOracle(m), u, S) == pytest.approx(
                brute_influence(m, u, S), rel=1e-11, abs=1e-12
            )

    def test_zero_probability_conditioning_rejected(self):
        # P(X_0 = +1) is about exp(-1600), which underflows to exactly 0
        m = RbmModel(np.zeros((2, 0)), [-800.0, 0.0], [])
        with pytest.raises(ValueError, match="probability zero"):
            exact_influence(ExactOracle(m), 1, [0])


class TestExactAvgCondCov:
    def test_conditional_independence_given_neighborhood(self):
        # ring: conditioning on N2(0) = {1, 3} separates 0 from 2
        m = demo_ring_model()
        assert exact_avg_cond_cov(ExactOracle(m), 0, 2, [1, 3]) == pytest.approx(0.0, abs=1e-10)

    def test_shared_hidden_node_positive(self):
        m = RbmModel([[1.0], [1.0]], [0, 0], [0])
        value = exact_avg_cond_cov(ExactOracle(m), 0, 1, [])
        assert value == pytest.approx(brute_avg_cond_cov(m, 0, 1, ()), rel=1e-12)
        assert value > 0.1

    def test_disjoint_components_zero(self):
        J = np.array([[0.8, 0.0], [0.0, 0.9], [0.8, 0.0], [0.0, 0.9]])
        m = RbmModel(J, np.zeros(4), np.zeros(2))
        assert exact_avg_cond_cov(ExactOracle(m), 0, 1, [2, 3]) == pytest.approx(0.0, abs=1e-10)

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = random_model(rng, n_range=(3, 5), m_range=(1, 3))
            u, v = rng.choice(m.n, size=2, replace=False)
            others = [i for i in range(m.n) if i not in (u, v)]
            S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
            assert exact_avg_cond_cov(ExactOracle(m), int(u), int(v), S) == pytest.approx(
                brute_avg_cond_cov(m, int(u), int(v), S), rel=1e-11, abs=1e-12
            )


class TestGhsProperties:
    """Monotonicity and submodularity of the exact influence on random
    ferromagnetic models (small scale; the acceptance suite runs the full
    battery)."""

    def test_monotone_and_submodular(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = random_model(rng, kind="ferromagnetic", n_range=(3, 5), m_range=(1, 3))
            oracle = ExactOracle(m)
            u = 0
            others = [i for i in range(m.n) if i != u]
            for j in others:
                rest = [i for i in others if i != j]
                for s_size in range(min(2, len(rest)) + 1):
                    S = rest[:s_size]
                    for t_extra in range(len(rest) - s_size + 1):
                        T = rest[: s_size + t_extra]
                        gain_s = exact_influence(oracle, u, S + [j]) - exact_influence(oracle, u, S)
                        gain_t = exact_influence(oracle, u, T + [j]) - exact_influence(oracle, u, T)
                        assert gain_s >= -1e-10  # monotone
                        assert gain_s >= gain_t - 1e-10  # submodular


class TestGenerateModel:
    def test_ferromagnetic_entries(self):
        m = generate_model("ferromagnetic", 8, 4, 2, NonDegeneracyParams(0.3, 1.5), seed=3)
        assert (m.J >= 0).all() and (m.f >= 0).all() and (m.g >= 0).all()

    def test_locally_consistent_columns(self):
        m = generate_model("locally-consistent", 8, 2, 2, NonDegeneracyParams(0.3, 1.5), seed=4)
        for j in range(m.m):
            col = m.J[:, j]
            assert (col >= 0).all() or (col <= 0).all()

    def test_deterministic(self):
        a = generate_model("ferromagnetic", 8, 4, 3, NonDegeneracyParams(0.3, 2.0), seed=9)
        b = generate_model("ferromagnetic", 8, 4, 3, NonDegeneracyParams(0.3, 2.0), seed=9)
        assert a == b

    def test_passes_validation_and_hits_degree(self):
        params = NonDegeneracyParams(0.4, 2.0)
        for seed in range(5):
            m = generate_model("ferromagnetic", 10, 5, 3, params, seed=seed)
            assert validate_nondegenerate(m, params) == ()
            assert two_hop_graph(m).max_degree == 3

    def test_infeasible_requests(self):
        with pytest.raises(ValueError):
            generate_model("ferromagnetic", 5, 2, 5, NonDegeneracyParams(0.3, 1.5), seed=0)
        with pytest.raises(ValueError):
            generate_model("ferromagnetic", 5, 0, 2, NonDegeneracyParams(0.3, 1.5), seed=0)
        with pytest.raises(ValueError):
            # degree-4 clique needs 5 couplings >= alpha on one hidden node
            generate_model("ferromagnetic", 10, 5, 4, NonDegeneracyParams(0.4, 2.0), seed=0)

    def test_zero_degree_graph_empty(self):
        m = generate_model("ferromagnetic", 6, 3, 0, NonDegeneracyParams(0.3, 1.5), seed=1)
        assert two_hop_graph(m).edges == frozenset()


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        for i in range(5):
            m = random_model(rng, n_range=(2, 6), m_range=(0, 4))
            path = tmp_path / f"model_{i}.json"
            save_model(m, path)
            loaded = load_model(path)
            assert loaded == m

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        for n, m, J, f, g in [
            (2, 1, [0.1], [0, 0], [0]),
            # a negative dimension is not inferred from the array's size
            (-1, 2, [0.1] * 6, [0] * 3, [0] * 2),
            (3, -1, [0.1] * 6, [0] * 3, [0] * 2),
        ]:
            path.write_text(json.dumps(dict(n=n, m=m, J=J, f=f, g=g, kind="general")))
            with pytest.raises(ValueError, match="malformed model file"):
                load_model(path)
        # files the model constructor rejects name the file too
        prefix = re.escape(f"malformed model file {path}: ")
        for fields, defect in [
            (dict(f=[0]), "field shapes"),
            (dict(kind="bogus"), "unknown kind"),
            (dict(J=[0.1, float("inf")]), "finite"),
        ]:
            payload = dict(n=2, m=1, J=[0.1, 0.2], f=[0, 0], g=[0], kind="general") | fields
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=prefix + ".*" + defect):
                load_model(path)
        path.write_text("not json")
        with pytest.raises(ValueError, match="malformed model file"):
            load_model(path)
