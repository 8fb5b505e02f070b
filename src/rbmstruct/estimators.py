"""Empirical estimators over sample sets.

Everything the greedy learners consume lives here: the empirical
influence ratio and the average conditional covariance.

The lc learner holds its conditioning set S as the cells of S with their
counts, (cells, sizes, counts) with counts[l, j] = |cell_l & x_j|,
starting from the one cell of the empty set (``counted_cells``). A split
by a chosen node (``split_counted``) counts only each +1 child, in one
popcount pass over all n columns (the root's reads ``SampleSet.pairs``),
and each -1 child by subtraction from its parent. ``counted_cov_scores``
scores every candidate from the counts, and ``merge_counted`` gives the
prune each leave-one-out state by merging cells, neither with a pass over
the samples. The ferro learner holds S itself, reads its all-ones counts
from ``SampleSet.ones_counts`` and takes from here only
``influence_bits``, one node's influence, for its prune.

Each fast path is held to a slow reference in ``tests/conftest.py``:
``SampleSet.ones_counts`` to ``influence_counts`` (one pass over the
columns under the all-ones mask of S, ``ones_mask``), ``influence_bits``
and ``influence_counts`` to ``empirical_influence`` (row masking), the
counted state (split or merged) to the bitset cells ``conditioning_cells``
and their popcounts, ``conditioning_cells`` to ``build_index`` groups,
``counted_cov_scores`` to ``cov_scores`` over those cells, and
``cov_scores`` to ``avg_cond_cov_decomposed`` and ``avg_cond_cov_direct``.
``counted_cov_scores``, ``cov_scores`` and ``avg_cond_cov_decomposed``
give the same floats bit for bit, because the float work is done in the
same order (cells by first occurrence, one division per cell). The
references take (u, S) or (u, v, S) and check them through
``model.node_set``. ``build_index`` (with its ``ConfigIndex``) and
``avg_cond_cov_decomposed`` stay here although no run calls them: the
benchmark's span hooks (``perfbench/spans.py``) require both names. They
move to the tests when those hooks move to the learners' live calls.

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
    first-occurrence order: the covariance references' cells."""
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


def counted_cells(samples: SampleSet) -> tuple:
    """The counted state of the empty set, where the lc learner's rounds
    start: (cells, sizes, counts) with cells the (L, ceil(M/64)) uint64
    bitset stack of the samples realizing each observed configuration of
    the conditioning set, in first-occurrence order, sizes[l] = |cell_l|
    and counts[l, j] = |cell_l & x_j| as an (L, n) int64 array. Here L = 1
    and the counts are read off ``SampleSet.pairs``; each chosen node
    refines the state by ``split_counted``."""
    return ones_mask(samples)[None], np.array([samples.M]), samples.pairs.diagonal()[None]


def split_counted(samples: SampleSet, state: tuple, v: int) -> tuple:
    """Split the counted state of S by column v into that of S plus v:
    each cell into its samples with x_v = +1 and with x_v = -1, keeping
    the nonempty ones in first-occurrence order (``_split_order``). Only
    the +1 children are counted, one pass over all n columns per parent
    cell (none for the all-samples cell, whose +1 child has counts
    pairs[v], nor for an empty child); each -1 child's counts are its
    parent's minus its sibling's."""
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


def merge_counted(state: tuple, rest) -> tuple:
    """The counted state of rest, a subset of S, from the counted state of
    S, with no pass over the samples. Each cell of S is pure on S, so its
    sign on node j is counts[l, j] == sizes[l]; the cells that agree on
    rest (keyed by their packed signs, of any length) merge, their sizes
    and counts summed, each in the place of its first member, which keeps
    the first-occurrence order of the cells of rest. The cell bitsets are
    left out (None): scoring reads only sizes and counts, and joining the
    bitsets would read L*ceil(M/64) words per merge."""
    _, sizes, counts = state
    groups: dict[bytes, int] = {}
    keys = map(bytes, np.packbits(counts[:, rest] == sizes[:, None], axis=1))
    group = np.array([groups.setdefault(key, len(groups)) for key in keys])
    order = np.argsort(group)
    starts = np.searchsorted(group[order], np.arange(len(groups)))
    return None, np.add.reduceat(sizes[order], starts), np.add.reduceat(counts[order], starts)


def counted_cov_scores(samples: SampleSet, u: int, cands, state: tuple) -> np.ndarray:
    """Average conditional covariance of x_u with each candidate over the
    cells of a counted state, by the same sum decomposition as
    avg_cond_cov_decomposed and bit-identical to it, with no pass over the
    samples: sum_i x_u^i x_v^i = M - 2 |x_u ^ x_v| comes from the pair
    table, a_j,l = 2 counts[l, j] - sizes[l], every numerator is an exact
    integer below 2**53, and the per-cell corrections a_u,l a_v,l / |F_l|
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
