"""Property tests: the bit primitives and the column-count kernel of
``SampleSet`` against plain references, the bitset routes the learners
use against the index, masking and direct references, and lc's counted
state and ferro's all-ones counts against the bitset routes, over random
sample sets."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbmstruct import sampling
from rbmstruct.estimators import (
    avg_cond_cov_decomposed,
    build_index,
    counted_cov_scores,
    influence_bits,
    merge_counted,
)
from rbmstruct.greedy import UNDEFINED_SCORE, _score_candidates_ferro
from rbmstruct.sampling import SampleSet, lowest_bits, popcount

from conftest import (
    avg_cond_cov_direct,
    avg_cond_cov_groups,
    conditioning_cells,
    counted_state,
    cov_scores,
    dense,
    empirical_influence,
    influence_counts,
    unique_groups,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Sample counts at and around word boundaries, plus anything in range.
SAMPLE_COUNTS = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 127, 128, 192, 256, 300]), st.integers(0, 300)
)


@st.composite
def sample_sets(draw, min_n=1, min_M=0, counts=SAMPLE_COUNTS):
    """A random SampleSet with per-node biases, so cells vary in size and
    some configurations never occur."""
    n = draw(st.integers(min_n, 20))
    M = draw(counts.filter(lambda m: m >= min_M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_plus = rng.uniform(0.1, 0.9, size=n)
    rows = np.where(rng.random((M, n)) < p_plus, 1, -1).astype(np.int8)
    return SampleSet.from_pm1(rows), rng


@st.composite
def constant_column_sets(draw):
    """A random SampleSet at or around word boundaries whose columns are
    each biased, constant +1 or constant -1, so that splits leave empty
    children."""
    n = draw(st.integers(2, 12))
    M = draw(st.sampled_from([1, 63, 64, 65, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_plus = rng.choice([0.0, 1.0, 0.2, 0.5, 0.8], size=n)
    rows = np.where(rng.random((M, n)) < p_plus, 1, -1).astype(np.int8)
    return SampleSet.from_pm1(rows), rng


def _flags(bitset):
    """Bits of a bitset (last axis), lowest first, as 0/1 bytes."""
    return np.unpackbits(bitset.view(np.uint8), axis=-1, bitorder="little")


def _members(bitset, M):
    """Sample indices whose bit is set in one bitset row."""
    return np.flatnonzero(_flags(bitset)[:M])


def _split_nodes(rng, n, max_s):
    """Random u, conditioning set S (in random order) and the remaining
    candidates."""
    nodes = [int(x) for x in rng.permutation(n)]
    s = int(rng.integers(0, min(max_s, n - 1) + 1))
    return nodes[0], nodes[1 : 1 + s], nodes[1 + s :]


@PROPERTY
@given(sample_sets())
def test_bits_match_samples_and_pad_bits_are_zero(case):
    samples, _ = case
    n, M = samples.n, samples.M
    bits = samples.bits
    assert bits is samples.bits and not bits.flags.writeable
    assert bits.dtype == np.uint64 and bits.shape == (n, (M + 63) // 64)
    flags = _flags(bits)
    assert np.array_equal(flags[:, :M].T, dense(samples) > 0)
    assert not flags[:, M:].any()
    valid = _flags(samples.ones_mask())
    assert valid[:M].all() and not valid[M:].any()


@PROPERTY
@given(sample_sets(min_M=1))
def test_cells_equal_unique_groups(case):
    # conditioning_cells orders its cells by _split_order, as the counted
    # route does, so np.unique is the independent check of that order
    samples, rng = case
    _, S, _ = _split_nodes(rng, samples.n, max_s=8)
    cells = conditioning_cells(samples, S)
    groups = unique_groups(samples, S)
    assert len(cells) == len(groups)
    for cell, group in zip(cells, groups):
        assert np.array_equal(_members(cell, samples.M), group)


@PROPERTY
@given(sample_sets(min_n=2, counts=st.sampled_from([0, 1, 63, 64, 65])))
def test_views_equal_unique_groups_and_group_decomposition(case):
    # build_index and avg_cond_cov_decomposed read the counted state of S;
    # the references group the decoded rows with np.unique
    samples, rng = case
    n, M = samples.n, samples.M
    u, S, cands = _split_nodes(rng, n, max_s=n - 2)  # S in random order
    groups = [g.tolist() for g in build_index(samples, S).groups]
    assert groups == [g.tolist() for g in unique_groups(samples, S)]
    if M:
        views = [avg_cond_cov_decomposed(samples, u, v, S).hex() for v in cands]
        assert views == [avg_cond_cov_groups(samples, u, v, S).hex() for v in cands]
    # each fault gives the same message from the view and its reference
    v = cands[0]
    index = (build_index, unique_groups)
    cov = (avg_cond_cov_decomposed, avg_cond_cov_groups)
    out_of_range = "node index out of range"
    repeated = "queried nodes and S must be pairwise distinct"
    faults = [
        (out_of_range, index, (samples, S + [n])),
        (out_of_range, cov, (samples, u, v, S + [-1])),
        (repeated, index, (samples, S + [u, u])),
        (repeated, cov, (samples, u, u, S)),
    ]
    if not M:
        faults.append(("need at least one sample", cov, (samples, u, v, S)))
    for message, queries, args in faults:
        for query in queries:
            with pytest.raises(ValueError) as info:
                query(*args)
            assert str(info.value) == message


@PROPERTY
@given(sample_sets(min_n=2, min_M=1))
def test_cov_scores_equal_decomposed_and_near_direct(case):
    samples, rng = case
    u, S, cands = _split_nodes(rng, samples.n, max_s=6)
    if not cands:
        cands, S = S[-1:], S[:-1]
    fast = cov_scores(samples, u, cands, conditioning_cells(samples, S))
    decomposed = [avg_cond_cov_groups(samples, u, v, S) for v in cands]
    direct = [avg_cond_cov_direct(samples, u, v, S) for v in cands]
    assert fast.tolist() == decomposed  # bit-identical floats
    assert np.allclose(fast, direct, rtol=0.0, atol=1e-12)


@PROPERTY
@given(sample_sets(min_n=2))
def test_influence_counts_equal_masked_and_index_counts(case):
    samples, rng = case
    u, S, cands = _split_nodes(rng, samples.n, max_s=6)
    if not cands:
        cands, S = S[-1:], S[:-1]
    m_s = samples.ones_mask(S)
    numer, denom = influence_counts(samples, u, cands, m_s)
    masked = [empirical_influence(samples, u, S + [j]) for j in cands]
    assert numer.tolist() == [c for c, _, _ in masked]
    assert denom.tolist() == [c for _, c, _ in masked]
    scores = _score_candidates_ferro(samples, u, cands, frozenset(S))
    assert scores.tolist() == [UNDEFINED_SCORE if v is None else v for _, _, v in masked]
    assert influence_bits(samples, u, S) == empirical_influence(samples, u, S)[2]


@PROPERTY
@given(sample_sets(min_n=2))
def test_influence_of_a_subset_is_defined_when_the_set_is(case):
    # the premise of ferro's keep rule: the all-ones samples of S are
    # among those of any rest within S (S is in random order, so its
    # prefixes are random subsets)
    samples, rng = case
    u, S, _ = _split_nodes(rng, samples.n, max_s=6)
    if influence_bits(samples, u, S) is not None:
        for k in range(len(S)):
            assert influence_bits(samples, u, S[:k]) is not None


@PROPERTY
@given(sample_sets())
@example((SampleSet.from_pm1(np.ones((0, 1), dtype=np.int8)), None))
@example((SampleSet.from_pm1(np.ones((0, 9), dtype=np.int8)), None))
@example((SampleSet.from_pm1(np.array([[1], [-1], [1]])), None))
def test_pairs_equal_gram_matrix_of_dense(case):
    # the singleton rows of ones_counts are the Gram matrix of the +1
    # indicators, and the empty set's counts its diagonal
    samples, _ = case
    plus = (dense(samples) > 0).astype(np.int64)
    gram = plus.T @ plus
    rows = np.array([samples.ones_counts((i,)) for i in range(samples.n)])
    assert rows.dtype == np.int64 and np.array_equal(rows, gram)
    assert np.array_equal(samples.ones_counts(()), gram.diagonal())


@PROPERTY
@given(st.one_of(constant_column_sets(), sample_sets(min_n=2, min_M=1)))
def test_counted_state_equals_cells_popcounts_and_cov_scores(case):
    samples, rng = case
    u, S, cands = _split_nodes(rng, samples.n, max_s=4)
    cands = cands or S[-1:]

    def check(S, state):
        _, sizes, counts = state
        reference = conditioning_cells(samples, S)
        assert np.array_equal(sizes, popcount(reference))
        assert counts.shape == (len(reference), samples.n)
        assert np.array_equal(counts, popcount(samples.bits[None] & reference[:, None]))
        fast = counted_cov_scores(samples, u, cands, state)
        assert fast.tobytes() == cov_scores(samples, u, cands, reference).tobytes()
        return reference

    full = counted_state(samples, S)
    assert np.array_equal(full[0], check(S, full))
    for v in S:  # each leave-one-out state, merged off the full one
        rest = [j for j in S if j != v]
        merged = merge_counted(full, rest)
        built = counted_state(samples, rest)
        assert np.array_equal(merged[1], built[1]) and np.array_equal(merged[2], built[2])
        check(rest, merged)


@PROPERTY
@given(st.one_of(constant_column_sets(), sample_sets()))
def test_ones_counts_equal_influence_counts_and_masking(case):
    samples, rng = case
    u, S, cands = _split_nodes(rng, samples.n, max_s=5)
    for s in range(len(S) + 1):  # every prefix: empty, singleton and larger
        prefix = S[:s]
        counts = samples.ones_counts(prefix)
        assert counts.dtype == np.int64 and counts.shape == (samples.n,)
        assert not counts.flags.writeable
        assert samples.ones_counts(prefix[::-1]) is counts
        for j in range(samples.n):
            rest = [i for i in prefix if i != j]
            assert counts[j] == empirical_influence(samples, j, rest)[0]
        others = [j for j in range(samples.n) if j != u and j not in prefix]
        numer, denom = influence_counts(samples, u, others, samples.ones_mask(prefix))
        assert np.array_equal(samples.ones_counts(prefix + [u])[others], numer)
        assert np.array_equal(counts[others], denom)


@PROPERTY
@given(
    st.sampled_from([0, 1, 63, 64, 65]),
    st.sampled_from([1, 8, 9]),
    st.sampled_from([0, 1, 2, 7]),
    st.integers(0, 2**32 - 1),
)
def test_counts_kernel_equals_popcount_reference(M, n, L, seed):
    rng = np.random.default_rng(seed)
    samples = SampleSet.from_pm1(np.where(rng.random((M, n)) < 0.5, 1, -1).astype(np.int8))
    words = rng.integers(0, 2**64, size=(L, (M + 63) // 64), dtype=np.uint64)
    masks = words & samples.ones_mask()  # pad bits past M zero
    counts = samples.counts(masks)
    assert counts.dtype == np.int64 and counts.shape == (L, n)
    assert np.array_equal(counts, popcount(samples.bits[None] & masks[:, None]))
    # row blocks of 1 and of 3 rows; 3 leaves a short last block at n = 8.
    # Each blocked call follows a call under other masks, so counts that a
    # freed result left in memory cannot pass for a row the call skipped
    rest = samples.ones_mask() & ~masks
    rest_counts = popcount(samples.bits[None] & rest[:, None])
    for rows in (1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "_BLOCK", rows * max((M + 63) // 64, 1))
            assert np.array_equal(samples.counts(rest), rest_counts)
            assert np.array_equal(samples.counts(masks), counts)
    S = [int(j) for j in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)]
    assert np.array_equal(samples.ones_counts(S), samples.counts(samples.ones_mask(S)[None])[0])
    nonempty = masks[popcount(masks) > 0]
    if len(nonempty):
        assert lowest_bits(nonempty).tolist() == [int(_members(row, M)[0]) for row in nonempty]
