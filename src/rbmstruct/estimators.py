"""Empirical estimators over sample sets.

Everything the greedy learners consume lives here: the empirical
influence ratio and the average conditional covariance.

The learners use the bitset forms at the end of this module: a
conditioning set's cells are a stack of bitsets over samples, refined by
one column per added node, and every count is a popcount. Each fast path
has one slow reference above it, which the tests and ``verify`` compare
it against: ``empirical_influence`` (row masking) for
``influence_counts``, ``build_index`` groups for ``conditioning_cells``,
and ``avg_cond_cov_direct`` for ``cov_scores``. ``cov_scores`` gives the
same floats as ``avg_cond_cov_decomposed`` bit for bit, because the float
work is done in the same order (cells by first occurrence, one division
per cell).

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
    """The samples grouped by their configuration on S.

    Cell l holds the sample indices whose restriction to S equals the
    l-th distinct configuration; cells are ordered by first occurrence
    and partition range(M).
    """

    __slots__ = ("S", "groups", "n_samples")

    def __init__(self, S, groups, n_samples):
        self.S = S
        self.groups = groups
        self.n_samples = n_samples

    @property
    def num_cells(self) -> int:
        return len(self.groups)


def build_index(samples: SampleSet, S) -> ConfigIndex:
    """Group sample indices by their configuration on S, cells in
    first-occurrence order."""
    S = node_set(S, samples.n)
    _, first, inverse = np.unique(
        samples.dense[:, list(S)], axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    groups = [np.flatnonzero(inverse == l) for l in np.argsort(first)]
    return ConfigIndex(S, groups, samples.M)


def empirical_influence(samples: SampleSet, u: int, S) -> InfluenceValue:
    """Influence of pinning S to +1 on X_u, as the ratio of all-ones counts
    on S union {u} and on S, counted by row masking. Undefined when no
    sample has x_S = 1^s."""
    S = node_set(S, samples.n)
    if u in S or not 0 <= u < samples.n:
        raise ValueError("u must be a visible node outside S")
    mask = np.ones(samples.M, dtype=bool)
    for i in S:
        mask &= samples.column(i) == 1
    return InfluenceValue(
        numer_count=int((mask & (samples.column(u) == 1)).sum()),
        denom_count=int(mask.sum()),
    )


def avg_cond_cov_direct(samples: SampleSet, u: int, v: int, idx: ConfigIndex) -> float:
    """Average conditional covariance, cell by cell: each observed
    configuration of S contributes its within-cell covariance weighted by
    the cell's empirical probability."""
    _check_cov_args(samples, u, v, idx)
    M = samples.M
    xu = samples.column(u).astype(np.float64)
    xv = samples.column(v).astype(np.float64)
    total = 0.0
    for g in idx.groups:
        c = len(g)
        mean_z = float((xu[g] * xv[g]).sum()) / c
        mean_u = float(xu[g].sum()) / c
        mean_v = float(xv[g].sum()) / c
        total += (c / M) * (mean_z - mean_u * mean_v)
    return total


def avg_cond_cov_decomposed(samples: SampleSet, u: int, v: int, idx: ConfigIndex) -> float:
    """Average conditional covariance via the sum decomposition

        (1/M) * ( sum_i x_u^i x_v^i  -  sum_l a_u,l a_v,l / |F_l| ),

    where a_j,l is the signed sum of x_j over cell l. Agrees with the
    direct route as an exact rational identity (float routes match to
    about 1e-15)."""
    _check_cov_args(samples, u, v, idx)
    M = samples.M
    xu = samples.column(u).astype(np.int64)
    xv = samples.column(v).astype(np.int64)
    z_total = int(xu @ xv)
    corr = 0.0
    for g in idx.groups:
        corr += int(xu[g].sum()) * int(xv[g].sum()) / len(g)
    return (z_total - corr) / M


def _check_cov_args(samples: SampleSet, u: int, v: int, idx: ConfigIndex) -> None:
    if not (0 <= u < samples.n and 0 <= v < samples.n):
        raise ValueError("u and v must be visible nodes")
    if u == v:
        raise ValueError("u and v must differ")
    if u in idx.S or v in idx.S:
        raise ValueError("u and v must lie outside the conditioning set")
    if idx.n_samples == 0:
        raise ValueError("need at least one sample")
    if idx.n_samples != samples.M:
        raise ValueError(f"index built from {idx.n_samples} samples, not {samples.M}")


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


def influence_counts(samples: SampleSet, cands, m_s, m_su) -> tuple[np.ndarray, np.ndarray]:
    """(numer, denom) all-ones counts for each candidate j, given the
    bitsets m_s of x_S = 1^s and m_su of x_{S+u} = 1^(s+1): numer counts
    samples in m_su with x_j = +1, denom those in m_s."""
    cols = samples.bits[list(cands)]
    return popcount(cols & m_su), popcount(cols & m_s)


def _lowest_bits(cells: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each (nonempty) bitset row."""
    first = (cells != 0).argmax(axis=1)
    word = cells[np.arange(len(cells)), first]
    return 64 * first + np.bitwise_count((word - np.uint64(1)) & ~word)


def split_cells(cells: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Refine a cell stack by one column: each cell splits into its
    samples with x_j = +1 and with x_j = -1. Empty cells are dropped and
    the rest ordered by lowest set bit, which is build_index's
    first-occurrence order."""
    parts = np.concatenate((cells & col, cells & ~col))
    parts = parts[popcount(parts) > 0]
    if len(parts) > 1:
        parts = parts[np.argsort(_lowest_bits(parts))]
    return parts


def conditioning_cells(samples: SampleSet, S=()) -> np.ndarray:
    """(cells, ceil(M/64)) uint64 stack of the samples realizing each
    observed configuration of S, in first-occurrence order; the bitset
    form of build_index(samples, S).groups for M >= 1."""
    cells = ones_mask(samples)[None]
    for j in S:
        cells = split_cells(cells, samples.bits[j])
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
