import numpy as np
import pytest

from rbmstruct.estimators import (
    InfluenceValue,
    avg_cond_cov_decomposed,
    avg_cond_cov_direct,
    build_index,
    conditioning_cells,
    empirical_influence,
)
from rbmstruct.model import ExactOracle, random_model
from rbmstruct.sampling import SampleSet, exact_sample

from conftest import brute_conditional_mean


def _random_samples(rng, n_range=(2, 6), m_range=(1, 60)):
    n = int(rng.integers(*n_range))
    M = int(rng.integers(*m_range))
    return SampleSet.from_pm1(rng.choice([-1, 1], size=(M, n)))


class TestBuildIndex:
    def test_empty_conditioning_set(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [-1, 1], [1, -1]]))
        idx = build_index(s, [])
        assert idx.num_cells == 1
        assert np.array_equal(idx.groups[0], [0, 1, 2])

    def test_first_occurrence_order_and_ones_cell(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [1, -1], [1, 1]]))
        idx = build_index(s, [0, 1])
        assert [g.tolist() for g in idx.groups] == [[0, 2], [1]]

    def test_all_rows_identical(self):
        s = SampleSet.from_pm1(np.full((7, 3), -1, dtype=np.int8))
        idx = build_index(s, [0, 2])
        assert idx.num_cells == 1
        assert np.array_equal(idx.groups[0], np.arange(7))

    def test_partition_property_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = _random_samples(rng)
            size = int(rng.integers(0, s.n + 1))
            S = list(rng.choice(s.n, size=size, replace=False))
            idx = build_index(s, S)
            seen = np.concatenate(idx.groups) if idx.groups else np.empty(0, dtype=int)
            assert sorted(seen.tolist()) == list(range(s.M))
            assert idx.num_cells <= min(s.M, 1 << len(S))
            firsts = [int(g[0]) for g in idx.groups]
            assert firsts == sorted(firsts)
            rows = s.dense[:, sorted(S)]
            for g in idx.groups:
                assert (rows[g] == rows[g[0]]).all()
            assert len({rows[g[0]].tobytes() for g in idx.groups}) == idx.num_cells
        # conditioning sets wider than a 64-bit key
        s = _random_samples(rng, n_range=(70, 71), m_range=(200, 201))
        S = list(range(65))
        cells = conditioning_cells(s, S)
        flags = np.unpackbits(cells.view(np.uint8), axis=-1, bitorder="little")[:, : s.M]
        groups = build_index(s, S).groups
        assert [g.tolist() for g in groups] == [np.flatnonzero(f).tolist() for f in flags]


class TestNodeChecks:
    def test_out_of_range_nodes_rejected(self):
        s = SampleSet.from_pm1(np.array([[1, 1, -1], [-1, 1, 1]]))
        idx = build_index(s, [1])
        calls = [
            lambda: build_index(s, [-1]),
            lambda: empirical_influence(s, 0, [-1]),
            lambda: empirical_influence(s, 0, [3]),
            lambda: empirical_influence(s, 0, [1, 1]),
            lambda: empirical_influence(s, -1, [0]),
            lambda: empirical_influence(s, 3, [0]),
            lambda: avg_cond_cov_direct(s, 0, -1, idx),
            lambda: avg_cond_cov_decomposed(s, 3, 0, idx),
        ]
        for call in calls:
            with pytest.raises(ValueError):
                call()


class TestEmpiricalInfluence:
    def test_balanced_example(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [1, -1], [-1, 1]]))
        iv = empirical_influence(s, 0, [1])
        assert (iv.numer_count, iv.denom_count) == (1, 2)
        assert iv.value == pytest.approx(0.0)

    def test_empty_set_gives_mean(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [1, -1], [-1, 1], [1, 1]]))
        iv = empirical_influence(s, 0, [])
        assert iv.value == pytest.approx(float(s.column(0).mean()))

    def test_undefined_when_no_match(self):
        s = SampleSet.from_pm1(np.full((5, 2), -1, dtype=np.int8))
        iv = empirical_influence(s, 0, [1])
        assert not iv.defined
        assert iv.value is None

    def test_matches_conditional_mean_oracle(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            s = _random_samples(rng)
            u = int(rng.integers(s.n))
            others = [i for i in range(s.n) if i != u]
            S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
            iv = empirical_influence(s, u, S)
            expected = brute_conditional_mean(s.dense.tolist(), u, S)
            if expected is None:
                assert not iv.defined
            else:
                assert iv.value == pytest.approx(expected, abs=1e-12)
                checked += 1
        assert checked > 50

    def test_invariant_value_formula(self):
        iv = InfluenceValue(numer_count=7, denom_count=10)
        assert iv.value == pytest.approx(2 * 7 / 10 - 1)


class TestAvgCondCov:
    def test_identical_columns(self):
        rows = np.array([[1, 1], [1, 1], [-1, -1], [1, 1]], dtype=np.int8)
        s = SampleSet.from_pm1(rows)
        idx = build_index(s, [])
        mean = rows[:, 0].mean()
        assert avg_cond_cov_direct(s, 0, 1, idx) == pytest.approx(1 - mean**2)

    def test_complementary_columns(self):
        rows = np.array([[1, -1], [-1, 1], [1, -1]], dtype=np.int8)
        s = SampleSet.from_pm1(rows)
        idx = build_index(s, [])
        mean = rows[:, 0].mean()
        assert avg_cond_cov_direct(s, 0, 1, idx) == pytest.approx(-(1 - mean**2))

    def test_single_sample_zero(self):
        s = SampleSet.from_pm1(np.array([[1, -1, 1]]))
        idx = build_index(s, [2])
        assert avg_cond_cov_direct(s, 0, 1, idx) == 0.0
        assert avg_cond_cov_decomposed(s, 0, 1, idx) == 0.0

    def test_perfectly_correlated_zero_mean(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [-1, -1]]))
        idx = build_index(s, [])
        assert avg_cond_cov_decomposed(s, 0, 1, idx) == pytest.approx(1.0)

    def test_decomposed_equals_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = _random_samples(rng, n_range=(3, 6), m_range=(1, 80))
            u, v = (int(x) for x in rng.choice(s.n, size=2, replace=False))
            others = [i for i in range(s.n) if i not in (u, v)]
            S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
            idx = build_index(s, S)
            assert avg_cond_cov_direct(s, u, v, idx) == pytest.approx(
                avg_cond_cov_decomposed(s, u, v, idx), abs=1e-12
            )

    def test_index_of_other_sample_set_rejected(self):
        # an index of 10 rows applied to 20 rows would average over the
        # first 10 rows only
        rng = np.random.default_rng(7)
        short = SampleSet.from_pm1(rng.choice([-1, 1], size=(10, 4)))
        full = SampleSet.from_pm1(rng.choice([-1, 1], size=(20, 4)))
        idx = build_index(short, [2])
        for route in (avg_cond_cov_direct, avg_cond_cov_decomposed):
            with pytest.raises(ValueError, match="built from 10 samples"):
                route(full, 0, 1, idx)

    def test_empty_conditioning_reduces_to_covariance(self):
        rng = np.random.default_rng(6)
        rows = rng.choice([-1, 1], size=(40, 3))
        s = SampleSet.from_pm1(rows)
        idx = build_index(s, [])
        xu = rows[:, 0].astype(float)
        xv = rows[:, 1].astype(float)
        expected = (xu * xv).mean() - xu.mean() * xv.mean()
        assert avg_cond_cov_decomposed(s, 0, 1, idx) == pytest.approx(expected, abs=1e-12)


class TestLargeSampleConsistency:
    def test_estimators_approach_exact_values(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, kind="ferromagnetic", n_range=(4, 5), m_range=(2, 3))
        oracle = ExactOracle(m)
        s = exact_sample(m, 100_000, seed=8)
        u, v, w = 0, 1, 2
        iv = empirical_influence(s, u, [v])
        assert abs(iv.value - oracle.influence(u, [v])) <= 0.02
        idx = build_index(s, [w])
        emp = avg_cond_cov_decomposed(s, u, v, idx)
        assert abs(emp - oracle.avg_cond_cov(u, v, [w])) <= 0.02
