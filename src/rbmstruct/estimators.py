"""Empirical estimators over sample sets.

Everything the greedy learners consume lives here: the empirical
influence ratio and the average conditional covariance, counted by
``sampling``'s bit primitives and its one kernel, ``SampleSet.counts``.

Both learners read their per-node counts from one view, the all-ones
counts of a set (``SampleSet.ones_counts``). The lc learner holds its
conditioning set S as the cells of S with their counts, (cells, sizes,
counts) with counts[l, j] = |cell_l & x_j|, starting from the one cell of
the empty set (``counted_cells``, whose counts are ``ones_counts(())``).
A split by a chosen node (``split_counted``) counts only the +1
children, by one ``SampleSet.counts`` call over their bitsets (the
root's is ``ones_counts((v,))``), and each -1 child by subtraction from
its parent. ``counted_cov_scores`` scores every candidate from the
counts, and ``merge_counted`` gives the prune each leave-one-out state by
merging cells, neither with a pass over the samples. The ferro learner
holds S itself, reads the all-ones counts of S and takes from here only
``influence_bits``, one node's influence as a float (None when no sample
is +1 on all of S), for its prune.

Each fast path is held to a slow reference in ``tests/conftest.py``
that does not go through the route it checks: the kernel to per-column
popcounts, the counts to row masking, the counted state to bitset cells
split one node at a time, and the covariance to per-group sums over the
decoded samples grouped by value. ``counted_cov_scores`` and the
per-group references give the same floats bit for bit, because the float
work is done in the same order (cells by first occurrence, one division
per cell). ``build_index`` (with its ``ConfigIndex``) and
``avg_cond_cov_decomposed`` are views of the counted route that no run
calls: the cells of the counted state of S as index arrays, and
``counted_cov_scores`` of one pair. They stay only because the
benchmark's span hooks (``perfbench/spans.py``) require both names.

All counting is exact integer arithmetic (float64 sums of +-1 entries
stay integral far below 2**53); each estimator divides once at the end.
That makes the direct and decomposed covariance routes agree to float
rounding rather than to statistical noise.
"""

from __future__ import annotations

import numpy as np

from .model import node_set
from .sampling import SampleSet, lowest_bits, popcount


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
    first-occurrence order: the cells of the counted state of S as index
    arrays, none when M = 0."""
    S = node_set(S, samples.n)
    if samples.M == 0:
        return ConfigIndex([])
    cells = _counted_state(samples, S)[0]
    flags = np.unpackbits(cells.view(np.uint8), axis=1, bitorder="little")
    return ConfigIndex([np.flatnonzero(row) for row in flags])


def avg_cond_cov_decomposed(samples: SampleSet, u: int, v: int, S) -> float:
    """Average conditional covariance of x_u and x_v over the cells of S,
    read off the counted state of S by ``counted_cov_scores``."""
    S = node_set(S, samples.n, u, v)
    if samples.M == 0:
        raise ValueError("need at least one sample")
    return float(counted_cov_scores(samples, u, [v], _counted_state(samples, S))[0])


def influence_bits(samples: SampleSet, u: int, S) -> float | None:
    """Empirical influence of u given S, 2 * numer / denom - 1, by two
    popcounts under the all-ones mask of S: numer counts the samples with
    x = +1 on S union {u}, denom those with x = +1 on S. None (undefined)
    when denom is 0."""
    m_s = samples.ones_mask(S)
    denom = int(popcount(m_s))
    if not denom:
        return None
    return 2.0 * int(popcount(m_s & samples.bits[u])) / denom - 1.0


def _split_order(parts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row indices of the nonempty parts of a split, ordered by lowest set
    bit, which is the first-occurrence order of the cells."""
    keep = np.flatnonzero(sizes > 0)
    if len(keep) > 1:
        keep = keep[np.argsort(lowest_bits(parts[keep]))]
    return keep


def counted_cells(samples: SampleSet) -> tuple:
    """The counted state of the empty set, where the lc learner's rounds
    start: (cells, sizes, counts) with cells the (L, ceil(M/64)) uint64
    bitset stack of the samples realizing each observed configuration of
    the conditioning set, in first-occurrence order, sizes[l] = |cell_l|
    and counts[l, j] = |cell_l & x_j| as an (L, n) int64 array. Here L = 1
    and the counts are ``SampleSet.ones_counts(())``; each chosen node
    refines the state by ``split_counted``."""
    return samples.ones_mask()[None], np.array([samples.M]), samples.ones_counts(())[None]


def split_counted(samples: SampleSet, state: tuple, v: int) -> tuple:
    """Split the counted state of S by column v into that of S plus v:
    each cell into its samples with x_v = +1 and with x_v = -1, keeping
    the nonempty ones in first-occurrence order (``_split_order``). Only
    the +1 children are counted, by one ``SampleSet.counts`` call over
    their bitsets (none for the root, whose +1 child has counts
    ``SampleSet.ones_counts((v,))``); each -1 child's counts are its
    parent's minus its sibling's."""
    cells, sizes, counts = state
    bits = samples.bits
    plus = cells & bits[v]
    plus_sizes = counts[:, v]
    # a cell of all M samples is the state's only cell, so its +1 child is
    # x_v itself, whose counts every node shares
    plus_counts = samples.ones_counts((v,))[None] if sizes[0] == samples.M else samples.counts(plus)
    parts = np.concatenate((plus, cells & ~bits[v]))
    part_sizes = np.concatenate((plus_sizes, sizes - plus_sizes))
    part_counts = np.concatenate((plus_counts, counts - plus_counts))
    order = _split_order(parts, part_sizes)
    return parts[order], part_sizes[order], part_counts[order]


def _counted_state(samples: SampleSet, S) -> tuple:
    """The counted state of S as the lc learner's rounds build it: the
    root state (``counted_cells``) split by each node of S in turn."""
    state = counted_cells(samples)
    for j in S:
        state = split_counted(samples, state, j)
    return state


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
    cells F_l of a counted state, by the sum decomposition

        (1/M) * ( sum_i x_u^i x_v^i  -  sum_l a_u,l a_v,l / |F_l| ),

    where a_j,l is the signed sum of x_j over cell l, with no pass over the
    samples: cands is an index array (or list) of nodes, sum_i x_u^i x_v^i
    = M - 2 (|x_u| + |x_v| - 2 |x_u & x_v|) is read off the all-ones
    counts of the empty set and of {u} (``SampleSet.ones_counts``),
    a_j,l = 2 counts[l, j] - sizes[l], every numerator is an exact integer
    below 2**53, and the per-cell corrections a_u,l a_v,l / |F_l| are
    accumulated along the cell axis in cell order (cumsum), one division
    per cell. Needs M >= 1."""
    _, sizes, counts = state
    ones, with_u = samples.ones_counts(()), samples.ones_counts((u,))
    M = samples.M
    z_total = M - 2 * (ones[u] + ones[cands] - 2 * with_u[cands])
    a_u = 2 * counts[:, u] - sizes
    a_v = 2 * counts[:, cands] - sizes[:, None]
    corr = np.cumsum(a_u[:, None] * a_v / sizes[:, None], axis=0)[-1]
    return (z_total - corr) / M
