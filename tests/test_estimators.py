from functools import partial

import numpy as np
import pytest

from rbmstruct.estimators import avg_cond_cov_decomposed, build_index
from rbmstruct.model import ExactOracle
from rbmstruct.sampling import SampleSet, exact_sample

from conftest import (
    avg_cond_cov_direct,
    brute_conditional_mean,
    conditioning_cells,
    empirical_influence,
    exact_avg_cond_cov,
    exact_influence,
    random_model,
)


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
    # (u, v, S, pair_only) on n = 3 nodes, each rejected by every query that
    # reads it; pair_only rows are faults of v, which (u, S) queries lack
    BAD_NODES = [
        (0, 0, [2], True),  # u == v
        (0, 1, [0], False),  # u in S
        (0, 1, [1], True),  # v in S
        (0, 1, [2, 2], False),  # a node repeated in S
        (-1, 1, [2], False),  # u below 0
        (3, 1, [2], False),  # u at n
        (0, -1, [2], True),  # v below 0
        (0, 4, [2], True),  # v above n
        (0, 1, [-1], False),  # S below 0
        (0, 1, [3], False),  # S at n
    ]

    def test_out_of_range_nodes_rejected(self):
        s = SampleSet.from_pm1(np.array([[1, 1, -1], [-1, 1, 1]]))
        oracle = ExactOracle(random_model(np.random.default_rng(0), n_range=(3, 4)))
        pair_queries = (partial(exact_avg_cond_cov, oracle), partial(avg_cond_cov_direct, s),
                        partial(avg_cond_cov_decomposed, s))
        node_queries = (partial(exact_influence, oracle), partial(empirical_influence, s))
        calls = [(build_index, (s, [-1]))]
        for u, v, S, pair_only in self.BAD_NODES:
            calls += [(q, (u, v, S)) for q in pair_queries]
            if not pair_only:
                calls += [(q, (u, S)) for q in node_queries]
        # covariance references need at least one sample
        empty = SampleSet.from_pm1(np.empty((0, 3), dtype=np.int8))
        calls += [(q, (empty, 0, 1, [2])) for q in (avg_cond_cov_direct, avg_cond_cov_decomposed)]
        for query, args in calls:
            with pytest.raises(ValueError):
                query(*args)


class TestEmpiricalInfluence:
    def test_balanced_example(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [1, -1], [-1, 1]]))
        numer, denom, value = empirical_influence(s, 0, [1])
        assert (numer, denom) == (1, 2)
        assert value == pytest.approx(0.0)

    def test_empty_set_gives_mean(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [1, -1], [-1, 1], [1, 1]]))
        value = empirical_influence(s, 0, [])[2]
        assert value == pytest.approx(float(s.dense[:, 0].mean()))

    def test_undefined_when_no_match(self):
        s = SampleSet.from_pm1(np.full((5, 2), -1, dtype=np.int8))
        assert empirical_influence(s, 0, [1]) == (0, 0, None)

    def test_matches_conditional_mean_oracle(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(100):
            s = _random_samples(rng)
            u = int(rng.integers(s.n))
            others = [i for i in range(s.n) if i != u]
            S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
            value = empirical_influence(s, u, S)[2]
            expected = brute_conditional_mean(s.dense.tolist(), u, S)
            if expected is None:
                assert value is None
            else:
                assert value == pytest.approx(expected, abs=1e-12)
                checked += 1
        assert checked > 50


class TestAvgCondCov:
    def test_identical_columns(self):
        rows = np.array([[1, 1], [1, 1], [-1, -1], [1, 1]], dtype=np.int8)
        s = SampleSet.from_pm1(rows)
        mean = rows[:, 0].mean()
        assert avg_cond_cov_direct(s, 0, 1, []) == pytest.approx(1 - mean**2)

    def test_complementary_columns(self):
        rows = np.array([[1, -1], [-1, 1], [1, -1]], dtype=np.int8)
        s = SampleSet.from_pm1(rows)
        mean = rows[:, 0].mean()
        assert avg_cond_cov_direct(s, 0, 1, []) == pytest.approx(-(1 - mean**2))

    def test_single_sample_zero(self):
        s = SampleSet.from_pm1(np.array([[1, -1, 1]]))
        assert avg_cond_cov_direct(s, 0, 1, [2]) == 0.0
        assert avg_cond_cov_decomposed(s, 0, 1, [2]) == 0.0

    def test_perfectly_correlated_zero_mean(self):
        s = SampleSet.from_pm1(np.array([[1, 1], [-1, -1]]))
        assert avg_cond_cov_decomposed(s, 0, 1, []) == pytest.approx(1.0)

    def test_decomposed_equals_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = _random_samples(rng, n_range=(3, 6), m_range=(1, 80))
            u, v = (int(x) for x in rng.choice(s.n, size=2, replace=False))
            others = [i for i in range(s.n) if i not in (u, v)]
            S = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)), replace=False))
            assert avg_cond_cov_direct(s, u, v, S) == pytest.approx(
                avg_cond_cov_decomposed(s, u, v, S), abs=1e-12
            )

    def test_empty_conditioning_reduces_to_covariance(self):
        rng = np.random.default_rng(6)
        rows = rng.choice([-1, 1], size=(40, 3))
        s = SampleSet.from_pm1(rows)
        xu = rows[:, 0].astype(float)
        xv = rows[:, 1].astype(float)
        expected = (xu * xv).mean() - xu.mean() * xv.mean()
        assert avg_cond_cov_decomposed(s, 0, 1, []) == pytest.approx(expected, abs=1e-12)


class TestLargeSampleConsistency:
    def test_estimators_approach_exact_values(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, kind="ferromagnetic", n_range=(4, 5), m_range=(2, 3))
        oracle = ExactOracle(m)
        s = exact_sample(m, 100_000, seed=8)
        u, v, w = 0, 1, 2
        value = empirical_influence(s, u, [v])[2]
        assert abs(value - exact_influence(oracle, u, [v])) <= 0.02
        emp = avg_cond_cov_decomposed(s, u, v, [w])
        assert abs(emp - exact_avg_cond_cov(oracle, u, v, [w])) <= 0.02
