import ast
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmstruct import qsearch
from rbmstruct.greedy import LearnerConfig, _learn_ferro, _learn_lc, learn_full_graph
from rbmstruct.qsearch import (
    CORE_BUDGET_FACTOR,
    QueryMeter,
    ScoreOracle,
    dh_max_find,
    grover_stage,
    qsearch_sim,
    repetitions,
    stage_success_probability,
)
from rbmstruct.sampling import SampleSet, exact_sample

from conftest import (
    all_cores_max_find,
    demo_ring_model,
    exponential_search_outcomes,
    grover_marked_probabilities,
    metered,
)

# Cost-shape constants, fitted once on Monte Carlo calibration runs and
# frozen (see the per-test notes for the measured values).
DH_COST_C = 35.0          # mean score evals <= C sqrt(N) log2(1/rho), 27.2 at N=256, rho=0.1
FERRO_C1 = 3.0            # index-construction share per iteration
FERRO_C2 = 46.0           # search share, fitted 41.1 at n,64 with 12 percent headroom


class TestRepetitions:
    def test_repetitions(self):
        assert repetitions(0.5) == 1
        assert repetitions(0.1) == 4
        assert repetitions(0.01) == 7


class TestGroverStage:
    def test_everything_marked_always_succeeds(self):
        rng = np.random.default_rng(0)
        marked = np.arange(8)
        for j in range(4):
            item = grover_stage(marked, 8, j, rng)
            assert item is not None and 0 <= item < 8

    def test_nothing_marked_always_fails(self):
        rng = np.random.default_rng(1)
        marked = np.arange(0)
        for j in range(4):
            assert grover_stage(marked, 8, j, rng) is None

    def test_outcome_distribution(self):
        # reduced-rep version of the stage statistics check (4 sigma);
        # the acceptance suite runs 1e5 reps at 3 sigma
        rng = np.random.default_rng(2)
        n, t = 64, 4
        marked = np.arange(t)
        reps = 20_000
        for j in range(4):
            hits = sum(grover_stage(marked, n, j, rng) is not None for _ in range(reps))
            p = stage_success_probability(n, t, j)
            se = math.sqrt(p * (1 - p) / reps)
            assert abs(hits / reps - p) <= 4 * se

    def test_law_matches_statevector(self):
        # 849 (N, t, j) cells; a sin^2(2j theta) law misses by 1.0 here
        rng = np.random.default_rng(6)
        for n in (2, 3, 7, 64, 100, 1024):
            for t in sorted({t for t in (1, 2, n // 7, n // 2, n) if t >= 1}):
                marked = rng.choice(n, size=t, replace=False)
                for j in range(math.isqrt(9 * n) + 2):
                    probs = grover_marked_probabilities(n, marked, j)
                    cell = (n, t, j)
                    assert abs(probs.sum() - stage_success_probability(n, t, j)) <= 1e-12, cell
                    assert probs.max() - probs.min() <= 1e-12, cell

    def test_success_items_marked(self):
        rng = np.random.default_rng(3)
        marked = np.array([3, 7])
        for _ in range(200):
            item = grover_stage(marked, 16, 2, rng)
            assert item is None or item in (3, 7)


def _chi_square_homogeneity(a: list, b: list) -> tuple[float, int]:
    """Pearson's chi-square statistic and degrees of freedom for the null
    that the outcome lists a and b come from one distribution. Outcomes
    seen fewer than 10 times in a and b together are pooled into one cell
    (dropped when the pool itself stays under 10)."""
    counts: dict = {}
    for side, outcomes in enumerate((a, b)):
        for o in outcomes:
            counts.setdefault(o, [0, 0])[side] += 1
    cells = [c for c in counts.values() if sum(c) >= 10]
    sparse = [c for c in counts.values() if sum(c) < 10]
    pool = [sum(c[0] for c in sparse), sum(c[1] for c in sparse)]
    if sum(pool) >= 10:
        cells.append(pool)
    n_a, n_b = len(a), len(b)
    stat = 0.0
    for ca, cb in cells:
        share = (ca + cb) / (n_a + n_b)
        stat += (ca - n_a * share) ** 2 / (n_a * share) + (cb - n_b * share) ** 2 / (n_b * share)
    return stat, len(cells) - 1


def _chi_square_critical(df: int, z: float) -> float:
    """Upper critical value of chi-square with df degrees of freedom at the
    standard normal quantile z (Wilson-Hilferty)."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


class TestQsearchSim:
    def test_all_marked_first_stage(self):
        rng = np.random.default_rng(4)
        res = qsearch_sim(np.ones(32, dtype=bool), rng, math.ceil(4.5 * math.sqrt(32)))
        assert res.index is not None
        assert res.iterations == 1  # first stage forces j = 0, theta = pi/2

    def test_empty_marked_not_found(self):
        # nothing marked: the whole budget at once, with nothing drawn
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            res = qsearch_sim(np.zeros(64, dtype=bool), rng, 36)
            assert res == (None, 36)
            assert rng.bit_generator.state == state

    def test_single_marked_mean_iterations(self):
        # reference mean measured by simulation: about 52 for N=1024, t=1;
        # asserted against the 1.1 * 4.5 sqrt(N/t) schedule bound
        n = 1024
        mask = np.zeros(n, dtype=bool)
        mask[517] = True
        rng = np.random.default_rng(5)
        iters = []
        found = 0
        for _ in range(10_000):
            res = qsearch_sim(mask, rng, math.ceil(4.5 * math.sqrt(n)))
            iters.append(res.iterations)
            found += res.index == 517
        assert np.mean(iters) <= 1.1 * 4.5 * math.sqrt(n)
        assert found / 10_000 >= 0.5

    @pytest.mark.parametrize("n, t, seed", [(16, 1, 81), (64, 1, 82), (64, 8, 83)])
    def test_schedule_matches_statevector_reference(self, n, t, seed):
        # Bound set a priori: reject at the chi-square upper tail
        # 1e-4 (z = 3.719). Each side runs 6000 searches under a budget of
        # 3 sqrt(n) iterations, so the cut last stage is exercised.
        runs, budget = 6000, 3 * math.isqrt(n)
        rng = np.random.default_rng([seed, 0])
        marked = rng.choice(n, size=t, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[marked] = True
        sim = [tuple(qsearch_sim(mask, rng, budget)) for _ in range(runs)]
        ref = exponential_search_outcomes(n, marked, budget, runs, np.random.default_rng([seed, 1]))
        stat, df = _chi_square_homogeneity(sim, ref)
        assert stat <= _chi_square_critical(df, 3.719), (stat, df)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 300),
        density=st.sampled_from([0.0, 0.003, 0.05, 0.5, 1.0]),
        budget=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_passes_its_budget(self, n, density, budget, seed):
        rng = np.random.default_rng(seed)
        marked = rng.random(n) < density
        res = qsearch_sim(marked, rng, budget)
        assert 1 <= res.iterations <= budget
        if res.index is None:
            assert res.iterations == budget
        else:
            assert marked[res.index]


class TestDhMaxFind:
    def test_forced_maximum(self):
        for rho in (0.5, 0.1):
            hits = 0
            for r in range(1000):
                meter = QueryMeter()
                scores = ScoreOracle([3.0, 1.0, 2.0], cost=1, meter=meter)
                i, v = dh_max_find(scores, rho, np.random.default_rng([10, r]))
                hits += (i, v) == (0, 3.0)
            assert hits / 1000 >= 1 - rho

    def test_constant_scores(self):
        meter = QueryMeter()
        scores = ScoreOracle(np.full(17, 4.25), cost=1, meter=meter)
        i, v = dh_max_find(scores, 0.5, np.random.default_rng(11))
        assert v == 4.25
        assert i == 0  # lowest index attaining the returned score

    def test_random_vectors_success_rate(self):
        # module-scale check; the acceptance suite runs 1000 vectors per rho
        for rho in (0.5, 0.1):
            good = 0
            runs = 300
            for r in range(runs):
                vals = np.random.default_rng([12, r]).random(128)
                scores = ScoreOracle(vals, cost=1, meter=QueryMeter())
                i, _ = dh_max_find(scores, rho, np.random.default_rng([13, r]))
                good += i == int(np.argmax(vals))
            assert good / runs >= 1 - rho

    def test_query_budget_frozen_constant(self):
        rho, n = 0.1, 256
        evals = []
        for r in range(300):
            meter = QueryMeter()
            vals = np.random.default_rng([14, r]).random(n)
            scores = ScoreOracle(vals, cost=1, meter=meter)
            dh_max_find(scores, rho, np.random.default_rng([15, r]))
            evals.append(meter.score_evals)
        assert np.mean(evals) <= DH_COST_C * math.sqrt(n) * math.log2(1 / rho)

    def test_single_candidate(self):
        scores = ScoreOracle([0.7], cost=1, meter=QueryMeter())
        i, v = dh_max_find(scores, 0.5, np.random.default_rng(16))
        assert (i, v) == (0, 0.7)

    def test_malformed_scores_rejected(self):
        for values in ([], [[1.0]]):
            with pytest.raises(ValueError, match="score vector"):
                ScoreOracle(values, cost=1, meter=QueryMeter())
        scores = ScoreOracle([0.2, math.nan, 1.0], cost=1, meter=QueryMeter())
        with pytest.raises(ValueError, match="NaN"):
            dh_max_find(scores, 0.5, np.random.default_rng(16))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=200),
            st.lists(st.sampled_from([-2.0, 0.0, 0.5, 1.0]), min_size=1, max_size=200),
            st.tuples(st.floats(-1, 1, allow_nan=False), st.integers(1, 200)).map(
                lambda vn: [vn[0]] * vn[1]
            ),
        ),
        rho=st.sampled_from([0.5, 0.1, 0.01, 1e-6]),
        factor=st.sampled_from([CORE_BUDGET_FACTOR, 1.0, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_all_cores_reference(self, values, rho, factor, seed):
        # the cores skipped after one holds the maximum come after the
        # answer is fixed, so the answers agree exactly on every seed;
        # small core budgets make early cores miss, so later cores count
        scores = ScoreOracle(values, cost=1, meter=QueryMeter())
        with mock.patch.object(qsearch, "CORE_BUDGET_FACTOR", factor):
            got = dh_max_find(scores, rho, np.random.default_rng(seed))
            want = all_cores_max_find(values, rho, np.random.default_rng(seed))
        assert got == want

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 5000),
        rho=st.floats(1e-9, 0.99),
        cost=st.integers(0, 10**6),
        seed=st.integers(0, 2**32 - 1),
        start=st.integers(0, 10**9),
    )
    def test_closed_form_charge_per_call(self, n, rho, cost, seed, start):
        rng = np.random.default_rng(seed)
        meter = QueryMeter(raw_queries=start, score_evals=start, grover_iterations=start)
        dh_max_find(ScoreOracle(rng.random(n), cost, meter), rho, rng)
        reps, budget = repetitions(rho), math.ceil(CORE_BUDGET_FACTOR * math.sqrt(n))
        assert meter.grover_iterations - start == reps * budget
        assert meter.score_evals - start == reps * (budget + 1)
        assert meter.raw_queries - start == (meter.score_evals - start) * cost
        assert meter.index_queries == 0


def _ring_samples(M=4000, seed=20):
    return exact_sample(demo_ring_model(), M, seed=seed)


class TestQuantumLearnFerro:
    def test_agrees_with_classical_at_vanishing_rho(self):
        s = _ring_samples()
        for u in range(4):
            classical = _learn_ferro(u, s, threshold=0.02, rounds=3)
            res = metered(
                _learn_ferro, u, s, QueryMeter(), threshold=0.02, rounds=3, fail_prob=1e-8,
                rng=np.random.default_rng([21, u]),
            )
            assert res.estimate == classical.estimate
            assert res.trace == classical.trace
            assert res.pruned == classical.pruned

    def test_agreement_frequency(self):
        s = _ring_samples(M=3000, seed=22)
        delta = 0.1
        agree = 0
        runs = 60
        for r in range(runs):
            classical = _learn_ferro(1, s, threshold=0.02, rounds=3)
            res = metered(
                _learn_ferro, 1, s, QueryMeter(), threshold=0.02, rounds=3, fail_prob=delta,
                rng=np.random.default_rng([23, r]),
            )
            agree += res.estimate == classical.estimate
        assert agree / runs >= 1 - delta

    def test_metering_exactness_clean_run(self):
        s = _ring_samples(M=2000, seed=24)
        M, k = s.M, 3
        meter = QueryMeter()
        res = metered(
            _learn_ferro, 0, s, meter, threshold=0.02, rounds=k, fail_prob=0.1,
            rng=np.random.default_rng(25),
        )
        assert len(res.trace) == k and not res.insufficient_samples
        # index scans: M(2t+1) per round, then M(2k-1) per pruning candidate
        expected_index = M * k * k + k * M * (2 * k - 1)
        assert meter.index_queries == expected_index
        assert meter.raw_queries == meter.score_evals * M + meter.index_queries
        # score evals: stage charges equal grover iterations, plus one
        # threshold start per core and k+1 pruning evaluations
        reps = repetitions(0.1 / (2 * k))
        assert meter.score_evals == meter.grover_iterations + k * reps + (k + 1)

    def test_smaller_budget_when_delta_near_one(self):
        s = _ring_samples(M=1000, seed=26)
        loose, tight = QueryMeter(), QueryMeter()
        metered(
            _learn_ferro, 0, s, loose, threshold=0.02, rounds=2, fail_prob=0.99,
            rng=np.random.default_rng(27),
        )
        metered(
            _learn_ferro, 0, s, tight, threshold=0.02, rounds=2, fail_prob=0.01,
            rng=np.random.default_rng(27),
        )
        assert loose.score_evals < tight.score_evals
        assert loose.raw_queries < tight.raw_queries

    def test_insufficient_flag_matches_classical(self):
        s = SampleSet.from_pm1(np.full((5, 4), -1, dtype=np.int8))
        res = metered(
            _learn_ferro, 0, s, QueryMeter(), threshold=0.02, rounds=2, fail_prob=0.1,
            rng=np.random.default_rng(28),
        )
        assert res.insufficient_samples
        assert res.estimate == ()

    def test_per_iteration_query_shape(self):
        # c2 fitted at n = 64 (measured 41.1), checked here at n = 1024
        n, M, k, delta = 1024, 256, 4, 0.1
        rows = np.random.default_rng(29).choice([-1, 1], size=(M, n))
        s = SampleSet.from_pm1(rows)

        # a mark before each round's search charge, and a last one before
        # the node's closed-form index charge, which follows every search
        marks = []

        class SnapMeter(QueryMeter):
            def charge_grover(self, iterations):
                marks.append(self.raw_queries)
                super().charge_grover(iterations)

            def charge_index(self, q):
                marks.append(self.raw_queries)
                super().charge_index(q)

        meter = SnapMeter()
        res = metered(
            _learn_ferro, 0, s, meter, threshold=0.5, rounds=k, fail_prob=delta,
            rng=np.random.default_rng(30),
        )
        assert len(res.trace) == k and len(marks) == k + 1
        ln_term = math.log(k / delta)
        for t in range(k):
            # round t's search plus its documented scan of S and S union {u}
            per_iter = marks[t + 1] - marks[t] + M * (2 * t + 1)
            bound = FERRO_C1 * M * t + FERRO_C2 * M * math.sqrt(n) * ln_term
            assert per_iter <= bound


class TestQuantumLearnLc:
    def test_agrees_with_classical_at_vanishing_rho(self):
        s = _ring_samples(M=5000, seed=31)
        for u in range(4):
            classical = _learn_lc(u, s, threshold=0.03, rounds=3)
            res = metered(
                _learn_lc, u, s, QueryMeter(), threshold=0.03, rounds=3, fail_prob=1e-8,
                rng=np.random.default_rng([32, u]),
            )
            assert res.estimate == classical.estimate
            assert res.trace == classical.trace

    def test_agreement_frequency(self):
        s = _ring_samples(M=3000, seed=33)
        zeta = 0.1
        agree = 0
        runs = 60
        for r in range(runs):
            classical = _learn_lc(2, s, threshold=0.03, rounds=3)
            res = metered(
                _learn_lc, 2, s, QueryMeter(), threshold=0.03, rounds=3, fail_prob=zeta,
                rng=np.random.default_rng([34, r]),
            )
            agree += res.estimate == classical.estimate
        assert agree / runs >= 1 - zeta

    def test_metering_exactness_full_run(self):
        # t_max = 2 on the ring: both rounds accept (the two true
        # neighbors carry strong covariance), so the loop runs exactly
        # t_max rounds and the charge structure is closed-form
        s = _ring_samples(M=2000, seed=35)
        H, t_max = s.M, 2
        meter = QueryMeter()
        res = metered(
            _learn_lc, 0, s, meter, threshold=1e-6, rounds=t_max, fail_prob=0.1,
            rng=np.random.default_rng(36),
        )
        assert len(res.trace) == t_max
        expected_index = H * (t_max * (t_max - 1)) // 2 + t_max * H * (t_max - 1)
        assert meter.index_queries == expected_index
        assert meter.raw_queries == meter.score_evals * H + meter.index_queries
        reps = repetitions(0.1 / (2 * t_max))
        assert meter.score_evals == meter.grover_iterations + t_max * reps + t_max

    def test_t_max_one_single_addition(self):
        s = _ring_samples(M=2000, seed=37)
        meter = QueryMeter()
        res = metered(
            _learn_lc, 0, s, meter, threshold=0.01, rounds=1, fail_prob=0.1,
            rng=np.random.default_rng(38),
        )
        assert len(res.trace) <= 1
        # one dh call over 3 candidates (reps whole core budgets), plus one
        # pruning eval per kept addition
        reps = repetitions(0.1 / 2)
        per_core = math.ceil(22.5 * math.sqrt(3))
        assert meter.grover_iterations == reps * per_core
        assert meter.score_evals == meter.grover_iterations + reps + len(res.trace)

    def test_empty_samples(self):
        s = SampleSet.from_pm1(np.zeros((0, 3), dtype=np.int8))
        res = metered(
            _learn_lc, 0, s, QueryMeter(), threshold=0.05, rounds=2, fail_prob=0.1,
            rng=np.random.default_rng(39),
        )
        assert res.insufficient_samples


class TestMeterIdentity:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 8),
        M=st.one_of(st.sampled_from([0, 1, 5]), st.integers(0, 300)),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 8),
        tau=st.sampled_from([1e-9, 0.025, 0.3]),
    )
    def test_one_meter_per_graph(self, n, M, seed, budget, tau):
        # biased columns and small M give undefined scores (insufficient
        # nodes); budgets up to n - 1 and tiny tau exhaust the candidates
        rng = np.random.default_rng(seed)
        p_plus = rng.uniform(0.05, 0.95, size=n)
        s = SampleSet.from_pm1(np.where(rng.random((M, n)) < p_plus, 1, -1))
        budget = min(budget, n)
        def config(alg):
            threshold = 0.02 if alg.startswith("ferro") else tau
            return LearnerConfig(alg, threshold=threshold, rounds=budget, seed=seed)

        for alg in ("ferro", "lc"):
            assert learn_full_graph(s, config(alg)).meter is None
        # each family's index-cost law, charged once per scored round and
        # s times at law(s - 1) by the leave-one-out prune
        laws = {"ferro-q": lambda size: M * (2 * size + 1), "lc-q": lambda size: M * size}
        for alg, law in laws.items():
            result = learn_full_graph(s, config(alg))
            meter = result.meter
            assert isinstance(meter, QueryMeter)
            assert meter.raw_queries == meter.score_evals * M + meter.index_queries
            assert meter.score_evals >= meter.grover_iterations
            # every round that scored called the selector once over its
            # n - 1 - i candidates, each call charging R whole core budgets
            reps = repetitions(0.1 / (2 * budget))
            expected = grover = 0
            for r in result.per_node:
                rounds = len(r.trace) + (
                    r.insufficient_samples if alg == "ferro-q"
                    else not (r.exhausted or r.insufficient_samples) and len(r.trace) < budget
                )
                size = len(r.estimate) + len(r.pruned)
                expected += sum(law(i) for i in range(rounds)) + size * law(size - 1)
                grover += sum(
                    reps * math.ceil(CORE_BUDGET_FACTOR * math.sqrt(n - 1 - i))
                    for i in range(rounds)
                )
            assert meter.index_queries == expected
            assert meter.grover_iterations == grover

    @pytest.mark.parametrize("family", ["ferro", "lc"])
    def test_one_index_charge_per_node(self, family):
        # a node's scans and prune are charged together, once, after its
        # rounds; both runs take at least two rounds and prune a nonempty set
        s = _ring_samples(M=2000, seed=24)
        calls = []

        class CountMeter(QueryMeter):
            def charge_index(self, q):
                calls.append(q)
                super().charge_index(q)

        meter = CountMeter()
        if family == "ferro":
            res = metered(
                _learn_ferro, 0, s, meter, threshold=0.02, rounds=3, fail_prob=0.1,
                rng=np.random.default_rng(25),
            )
        else:
            res = metered(
                _learn_lc, 0, s, meter, threshold=1e-6, rounds=3, fail_prob=0.1,
                rng=np.random.default_rng(36),
            )
        assert len(res.trace) >= 2
        assert len(calls) == 1 and calls[0] == meter.index_queries > 0


def test_qsearch_imports_nothing_from_the_package():
    """qsearch sits below greedy; an import back into the package would
    bring the greedy <-> qsearch cycle back."""
    path = Path(__file__).resolve().parents[1] / "src" / "rbmstruct" / "qsearch.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("rbmstruct"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "rbmstruct" for a in node.names)


def test_leaf_modules_load_alone():
    """The package root imports nothing, so importing a module that imports
    nothing from the package loads only the root and that module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    for module in ("rbmstruct.qsearch", "rbmstruct.model"):
        code = (
            f"import json, sys; sys.path.insert(0, {src!r}); import {module}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'rbmstruct')))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert json.loads(out) == ["rbmstruct", module]
