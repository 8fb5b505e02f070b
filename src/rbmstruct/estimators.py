"""Empirical estimators over sample sets.

Everything the greedy learners consume lives here: the empirical
influence ratio and the average conditional covariance.

The lc learner uses the bitset forms at the end of this module. It holds
its conditioning set S as one structure over samples, refined by one
column per added node: the cells of S with their counts
(``counted_cells``). That counted state is (cells, sizes, counts), where
counts[l, j] = |cell_l & x_j|: a split counts only each +1 child, in one
popcount pass over all n columns (the root's +1 child reads
``SampleSet.pairs``), and takes each -1 child's counts by subtraction
from its parent, so ``counted_cov_scores`` scores every candidate without
a pass over the samples. The ferro learner holds S itself and reads its
all-ones counts from ``SampleSet.ones_counts``, cached per sample set;
from here it takes only ``influence_bits``, one node's influence, for its
prune. Each fast path is held to a slow reference in the tests:
``SampleSet.ones_counts`` to ``influence_counts`` (one pass over the
columns under the all-ones mask of S, ``ones_mask``), ``influence_bits``
and ``influence_counts`` to ``empirical_influence`` (row masking),
``conditioning_cells`` to ``build_index`` groups, ``counted_cells`` to
``conditioning_cells`` and popcounts, ``counted_cov_scores`` to
``cov_scores``, and ``cov_scores`` to ``avg_cond_cov_decomposed`` and
``avg_cond_cov_direct``. ``counted_cov_scores``, ``cov_scores`` and
``avg_cond_cov_decomposed`` give the same floats bit for bit, because the
float work is done in the same order (cells by first occurrence, one
division per cell). The references take (u, S) or (u, v, S) and check
them through ``model.node_set``.

Most references live in ``tests/conftest.py``. ``build_index`` (with its
``ConfigIndex``) and ``avg_cond_cov_decomposed`` stay here although no
run calls them: the benchmark's span hooks (``perfbench/spans.py``)
require both names. They move to the tests when those hooks move to the
learners' live calls.

All counting is exact integer arithmetic (float64 sums of +-1 entries
stay integral far below 2**53); each estimator divides once at the end.
That makes the direct and decomposed covariance routes agree to float
rounding rather than to statistical noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import node_set
from .sampling import SampleSet


@dataclass(frozen=True)
class InfluenceValue:
    """Empirical influence as a counted ratio.

    numer_count is the number of samples with x on S union {u} all +1,
    denom_count the number with x on S all +1. The value is
    2 * numer / denom - 1, undefined (None) when denom_count is zero.
    """

    numer_count: int
    denom_count: int

    @property
    def defined(self) -> bool:
        return self.denom_count > 0

    @property
    def value(self) -> float | None:
        if not self.defined:
            return None
        return 2.0 * self.numer_count / self.denom_count - 1.0


class ConfigIndex:
    """The samples grouped by their configuration on a conditioning set.

    groups[l] holds the sample indices whose restriction to the set equals
    the l-th distinct configuration; groups are ordered by first
    occurrence and partition range(M).
    """

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = groups

    @property
    def num_cells(self) -> int:
        return len(self.groups)


def build_index(samples: SampleSet, S) -> ConfigIndex:
    """Group sample indices by their configuration on S, groups in
    first-occurrence order: the covariance references' cells, and the
    slow reference for conditioning_cells."""
    S = node_set(S, samples.n)
    _, first, inverse = np.unique(
        samples.dense[:, list(S)], axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    return ConfigIndex([np.flatnonzero(inverse == l) for l in np.argsort(first)])


def avg_cond_cov_decomposed(samples: SampleSet, u: int, v: int, S) -> float:
    """Average conditional covariance via the sum decomposition

        (1/M) * ( sum_i x_u^i x_v^i  -  sum_l a_u,l a_v,l / |F_l| ),

    where a_j,l is the signed sum of x_j over cell l. Agrees with the
    direct route as an exact rational identity (float routes match to
    about 1e-15)."""
    S = node_set(S, samples.n, u, v)
    M = samples.M
    if M == 0:
        raise ValueError("need at least one sample")
    groups = build_index(samples, S).groups
    xu = samples.dense[:, u].astype(np.int64)
    xv = samples.dense[:, v].astype(np.int64)
    z_total = int(xu @ xv)
    corr = 0.0
    for g in groups:
        corr += int(xu[g].sum()) * int(xv[g].sum()) / len(g)
    return (z_total - corr) / M


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits along the last axis, as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def ones_mask(samples: SampleSet, S=()) -> np.ndarray:
    """Bitset of the samples with x_S = 1^s; all M samples for empty S."""
    M = samples.M
    mask = np.full((M + 63) // 64, np.iinfo(np.uint64).max, dtype=np.uint64)
    if M % 64:
        mask[-1] = (1 << (M % 64)) - 1
    for j in S:
        mask &= samples.bits[j]
    return mask


def influence_bits(samples: SampleSet, u: int, S) -> InfluenceValue:
    """InfluenceValue of u given S, by popcounts over the column bitsets."""
    m_s = ones_mask(samples, S)
    return InfluenceValue(
        numer_count=int(popcount(m_s & samples.bits[u])),
        denom_count=int(popcount(m_s)),
    )


def _lowest_bits(cells: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each (nonempty) bitset row."""
    first = (cells != 0).argmax(axis=1)
    word = cells[np.arange(len(cells)), first]
    return 64 * first + np.bitwise_count((word - np.uint64(1)) & ~word)


def _split_order(parts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row indices of the nonempty parts of a split, ordered by lowest set
    bit, which is build_index's first-occurrence order."""
    keep = np.flatnonzero(sizes > 0)
    if len(keep) > 1:
        keep = keep[np.argsort(_lowest_bits(parts[keep]))]
    return keep


def conditioning_cells(samples: SampleSet, S=()) -> np.ndarray:
    """(cells, ceil(M/64)) uint64 stack of the samples realizing each
    observed configuration of S, in first-occurrence order; the bitset
    form of build_index(samples, S).groups for M >= 1. Each node j of S
    splits every cell into its samples with x_j = +1 and with x_j = -1,
    keeping the nonempty ones in first-occurrence order (``_split_order``)."""
    cells = ones_mask(samples)[None]
    for j in S:
        col = samples.bits[j]
        parts = np.concatenate((cells & col, cells & ~col))
        cells = parts[_split_order(parts, popcount(parts))]
    return cells


def cov_scores(samples: SampleSet, u: int, cands, cells: np.ndarray) -> np.ndarray:
    """Average conditional covariance of x_u with each candidate, over a
    cell stack (conditioning_cells), by the same sum decomposition as
    avg_cond_cov_decomposed and bit-identical to it: with a_j,l =
    2 |cell_l & x_j| - |cell_l| and sum_i x_u^i x_v^i = M - 2 |x_u ^ x_v|,
    every numerator is an exact integer below 2**53, and the per-cell
    corrections are added in float64 in cell order. Needs M >= 1."""
    bits = samples.bits
    xu = bits[u]
    cols = bits[list(cands)]
    M = samples.M
    z_total = M - 2 * popcount(cols ^ xu)
    corr = np.zeros(len(cols))
    for cell in cells:
        size = popcount(cell)
        a_u = 2 * popcount(cell & xu) - size
        a_v = 2 * popcount(cols & cell) - size
        corr += a_u * a_v / size
    return (z_total - corr) / M


def counted_cells(samples: SampleSet, S=()) -> tuple:
    """The cells of S with their counts, the lc learner's round state:
    (cells, sizes, counts) with cells the conditioning_cells stack, sizes[l]
    = |cell_l| and counts[l, j] = |cell_l & x_j| as an (L, n) int64 array.
    The root (S empty) is read off ``SampleSet.pairs``; each node of S
    refines it by ``split_counted``."""
    state = (ones_mask(samples)[None], np.array([samples.M]), samples.pairs.diagonal()[None])
    for j in S:
        state = split_counted(samples, state, j)
    return state


def split_counted(samples: SampleSet, state: tuple, v: int) -> tuple:
    """Split a counted state by column v, into the cells that
    conditioning_cells makes for S plus v. Only the +1 children
    are counted, one pass over all n columns per parent cell (none for the
    all-samples cell, whose +1 child has counts pairs[v], nor for an empty
    child); each -1 child's counts are its parent's minus its sibling's."""
    cells, sizes, counts = state
    bits = samples.bits
    plus = cells & bits[v]
    plus_sizes = counts[:, v]
    plus_counts = np.zeros_like(counts)
    for l, size in enumerate(plus_sizes):
        if sizes[l] == samples.M:
            plus_counts[l] = samples.pairs[v]
        elif size:
            plus_counts[l] = popcount(bits & plus[l])
    parts = np.concatenate((plus, cells & ~bits[v]))
    part_sizes = np.concatenate((plus_sizes, sizes - plus_sizes))
    part_counts = np.concatenate((plus_counts, counts - plus_counts))
    order = _split_order(parts, part_sizes)
    return parts[order], part_sizes[order], part_counts[order]


def counted_cov_scores(samples: SampleSet, u: int, cands, state: tuple) -> np.ndarray:
    """cov_scores from a counted state (counted_cells), bit for bit, with
    no pass over the samples: sum_i x_u^i x_v^i = M - 2 |x_u ^ x_v| comes
    from the pair table, and the per-cell corrections a_u,l a_v,l / |F_l|
    are accumulated along the cell axis in cell order (cumsum), one
    division per cell. Needs M >= 1."""
    _, sizes, counts = state
    cands = np.asarray(cands)
    pairs = samples.pairs
    M = samples.M
    z_total = M - 2 * (pairs[u, u] + pairs[cands, cands] - 2 * pairs[u, cands])
    a_u = 2 * counts[:, u] - sizes
    a_v = 2 * counts[:, cands] - sizes[:, None]
    corr = np.cumsum(a_u[:, None] * a_v / sizes[:, None], axis=0)[-1]
    return (z_total - corr) / M
