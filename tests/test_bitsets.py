"""Property tests: the bitset routes the learners use against the index,
masking and direct references, over random sample sets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmstruct.estimators import (
    avg_cond_cov_decomposed,
    avg_cond_cov_direct,
    build_index,
    conditioning_cells,
    cov_scores,
    empirical_influence,
    influence_counts,
    ones_mask,
)
from rbmstruct.greedy import (
    UNDEFINED_SCORE,
    _influence_bits,
    _influence_counts,
    _score_candidates_ferro,
)
from rbmstruct.sampling import SampleSet

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Sample counts at and around word boundaries, plus anything in range.
SAMPLE_COUNTS = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 127, 128, 192, 256, 300]), st.integers(0, 300)
)


@st.composite
def sample_sets(draw, min_n=1, min_M=0):
    """A random SampleSet with per-node biases, so cells vary in size and
    some configurations never occur."""
    n = draw(st.integers(min_n, 20))
    M = draw(SAMPLE_COUNTS.filter(lambda m: m >= min_M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_plus = rng.uniform(0.1, 0.9, size=n)
    rows = np.where(rng.random((M, n)) < p_plus, 1, -1).astype(np.int8)
    return SampleSet.from_pm1(rows, n=n), rng


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
    assert np.array_equal(flags[:, :M].T, samples.dense > 0)
    assert not flags[:, M:].any()
    valid = _flags(ones_mask(samples))
    assert valid[:M].all() and not valid[M:].any()


@PROPERTY
@given(sample_sets(min_M=1))
def test_cells_equal_build_index_groups(case):
    samples, rng = case
    _, S, _ = _split_nodes(rng, samples.n, max_s=8)
    cells = conditioning_cells(samples, S)
    groups = build_index(samples, S).groups
    assert len(cells) == len(groups)
    for cell, group in zip(cells, groups):
        assert np.array_equal(_members(cell, samples.M), group)


@PROPERTY
@given(sample_sets(min_n=2, min_M=1))
def test_cov_scores_equal_decomposed_and_near_direct(case):
    samples, rng = case
    u, S, cands = _split_nodes(rng, samples.n, max_s=6)
    if not cands:
        cands, S = S[-1:], S[:-1]
    idx = build_index(samples, S)
    fast = cov_scores(samples, u, cands, conditioning_cells(samples, S))
    decomposed = [avg_cond_cov_decomposed(samples, u, v, idx) for v in cands]
    direct = [avg_cond_cov_direct(samples, u, v, idx) for v in cands]
    assert fast.tolist() == decomposed  # bit-identical floats
    assert np.allclose(fast, direct, rtol=0.0, atol=1e-12)


@PROPERTY
@given(sample_sets(min_n=2))
def test_influence_counts_equal_masked_and_index_counts(case):
    samples, rng = case
    u, S, cands = _split_nodes(rng, samples.n, max_s=6)
    if not cands:
        cands, S = S[-1:], S[:-1]
    m_s = ones_mask(samples, S)
    m_su = m_s & samples.bits[u]
    numer, denom = influence_counts(samples, cands, m_s, m_su)
    masked = [_influence_counts(samples, u, S + [j]) for j in cands]
    indexed = [empirical_influence(samples, u, S + [j]) for j in cands]
    assert numer.tolist() == [iv.numer_count for iv in masked]
    assert denom.tolist() == [iv.denom_count for iv in masked]
    assert masked == indexed
    scores = _score_candidates_ferro(samples, cands, m_s, m_su)
    assert scores.tolist() == [iv.value_or(UNDEFINED_SCORE) for iv in indexed]
    assert _influence_bits(samples, u, S) == _influence_counts(samples, u, S)

