import numpy as np

from rbmstruct.estimators import avg_cond_cov_decomposed
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
from rbmstruct.model import (
    ExactOracle,
    NonDegeneracyParams,
    RbmModel,
    generate_model,
    two_hop_graph,
)
from rbmstruct.sampling import SampleSet, exact_sample

from conftest import (
    conditioning_cells,
    cov_scores,
    demo_ring_model,
    empirical_influence,
    exact_avg_cond_cov,
    exact_influence,
    neighbors,
)


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
            assert empirical_influence(s, 2, S + [node])[2] == score  # exact float equality
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

    def test_prune_past_63_chosen_nodes(self):
        # u = 0. Nodes 1..66 each follow u on a private block of 4 samples;
        # nodes 67..69 go against u on the blocks of nodes 1..3 and follow
        # it on a private pair. Elsewhere each node is constant per block.
        # The greedy takes all 69 nodes, 67..69 last, so a prune that loses
        # the nodes past the 63rd of a leave-one-out set keeps nodes 1..3.
        rng = np.random.default_rng(0)
        sizes = [4] * 66 + [2] * 3
        block = np.repeat(np.arange(69), sizes)
        x = rng.choice([-1, 1], size=(69, 70)).astype(np.int8)[block]
        x[:, 0] = np.concatenate([np.repeat([1, -1], k // 2) for k in sizes])
        single = block < 66
        x[single, 1 + block[single]] = x[single, 0]
        for t in range(3):
            x[block == t, 67 + t] = -x[block == t, 0]
            x[block == 66 + t, 67 + t] = x[block == 66 + t, 0]
        s = SampleSet.from_pm1(x)
        res = _learn_lc(0, s, threshold=1e-9, rounds=69)
        chosen = [j for j, _ in res.trace]
        assert len(chosen) == 69 and chosen[-3:] == [67, 68, 69]
        kept, pruned = [], []
        for v in chosen:
            cells = conditioning_cells(s, [j for j in chosen if j != v])
            (kept if cov_scores(s, 0, [v], cells)[0] >= 1e-9 else pruned).append(v)
        assert res.estimate == tuple(sorted(kept)) and res.pruned == tuple(pruned)
        assert sorted(pruned) == [1, 2, 3]


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
        chosen, trace, state, _, _ = _greedy(
            u, m.n, 3, [], score=lambda cands, S: np.array(score(cands, S)),
            add=lambda S, j: S + [j], stop=stop, pick=_argmax,
        )
        for i, (j, value) in enumerate(trace):
            assert value == score([j], chosen[:i])[0], (u, i)
        assert state == chosen, u  # add folded over every pick, the last too
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
                    score=lambda cands, S: [exact_influence(oracle, u, S + [j]) for j in cands],
                    stop=lambda values, value: False,
                )
                i_full = exact_influence(oracle, u, chosen)
                kept, _ = _prune(
                    chosen, lambda j, rest: i_full - exact_influence(oracle, u, rest) >= 1e-6)
                assert set(kept) == neighbors(truth, u)

    def test_lc(self):
        params = NonDegeneracyParams(0.4, 2.0)
        for seed in range(5):
            m = generate_model("locally-consistent", 8, 4, 2, params, seed=seed)
            oracle = ExactOracle(m)
            truth = two_hop_graph(m)
            for u in range(m.n):
                chosen = self._chosen(
                    m, u,
                    score=lambda cands, S: [exact_avg_cond_cov(oracle, u, v, S) for v in cands],
                    stop=lambda values, value: value < 1e-6,
                )
                kept, _ = _prune(
                    chosen, lambda v, rest: exact_avg_cond_cov(oracle, u, v, rest) >= 1e-6)
                assert set(kept) == neighbors(truth, u)


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
