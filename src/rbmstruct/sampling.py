"""Sample sets and samplers.

A SampleSet holds M visible configurations bit-packed, MSB-first within
each byte, bit 1 meaning +1; rows are ceil(n/8) bytes with zero pad bits.
The learners read it transposed, as one bitset over samples per node
(``SampleSet.bits``, built by 8x8 bit-matrix transposes of each packed
byte column): bit i % 64 of word i // 64 is sample i, pad bits zero.
This module owns that layout, its bit primitives (``popcount``,
``lowest_bits``) and the one column-count kernel (``SampleSet.counts``).
The kernel's memo, the all-ones counts of a set
(``SampleSet.ones_counts``), is shared by every node that asks for the
same set: ferro for its conditioning sets, lc for the empty set and the
singletons.
Small models are sampled exactly by inverse CDF over the enumerated
visible marginal: each uniform is looked up in draw order through a guide
table over the CDF, and each drawn configuration index, shifted to the top
of its row, is written one byte column at a time as its big-endian bytes,
which are the packed row. Larger models are sampled via layer-wise block
Gibbs (all hidden given visible, then all visible given hidden, which are
exact conditional independences in an RBM). The Gibbs sampler runs
C = min(64, M) independent chains as one state matrix, applies burn-in and
thinning to each chain, and interleaves their draws: row k * C + c is the
k-th retained state of chain c.
``split_rhat`` reads the chains back from that layout to report how well
they mixed.

Binary file format (little-endian):
    magic   4 bytes  b"RBMS"
    version u8       1
    n       u32
    M       u64
    rows    M * ceil(n/8) bytes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import ExactOracle, RbmModel

_MAGIC = b"RBMS"
_VERSION = 1
_HEADER = struct.Struct("<4sBIQ")
# Gibbs chains advanced side by side. More chains mean fewer passes of the
# sweep loop but more burn-in draws: at n=64, m=32, M=20k, 32 to 64 chains
# were fastest, and small models with large M gain up to 256.
_CHAINS = 64
# (shift, mask) of the three delta swaps that transpose an 8x8 bit matrix
# held one row per byte in a little-endian uint64 (Hacker's Delight 7-3).
_TRANSPOSE_8X8 = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)
    )
)
# exact: exact_sample (n + m <= ENUM_GUARD); gibbs: gibbs_sample. draw()
# dispatches on these names.
SAMPLERS = ("exact", "gibbs")


class SampleFileError(ValueError):
    """Raised on malformed sample files; the message names the defect."""


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits along the last axis, as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def lowest_bits(rows: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each (nonempty) bitset row."""
    first = (rows != 0).argmax(axis=1)
    word = rows[np.arange(len(rows)), first]
    return 64 * first + np.bitwise_count((word - np.uint64(1)) & ~word)


class SampleSet:
    """Immutable bit-packed matrix of M visible configurations in {-1,+1}^n.

    Its one decoded view, the column bitsets ``bits`` (n*ceil(M/64)*8
    bytes), is built on first access and cached; no (M, n) decode is kept.
    ``counts`` counts the columns of ``bits`` under a stack of masks and
    keeps nothing; ``ones_counts`` keeps its result for the all-ones mask
    of a set, n*8 bytes per set asked for: the n + 1 sets of size 0 or 1,
    which both learners ask for over every node, take n^2*8 bytes (8 MiB
    at n = 1024), and a ferro run over every node asked for about 5 sets
    per node at n = 1024, 41 MiB in all. The lc learner's round state adds
    L*(n + ceil(M/64))*8 bytes of cell counts and bitsets for L cells, and
    its prune one merged state (counts only) at a time. Pickling carries
    only ``packed``.
    """

    __slots__ = ("n", "packed", "_bits", "_ones")

    def __init__(self, n: int, packed: np.ndarray):
        if n < 1:
            raise ValueError("need n >= 1")
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        row_bytes = (n + 7) // 8
        if packed.ndim != 2 or packed.shape[1] != row_bytes:
            raise ValueError(f"packed rows must be {row_bytes} bytes for n = {n}")
        if n % 8:
            pad_mask = (1 << (8 - n % 8)) - 1
            if (packed[:, -1] & pad_mask).any():
                raise ValueError("pad bits must be zero")
        packed.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "_bits", None)
        object.__setattr__(self, "_ones", {})

    def __setattr__(self, name, value):
        raise AttributeError("SampleSet is immutable")

    def __reduce__(self):
        # rebuild through the constructor, so unpickling validates again
        return type(self), (self.n, self.packed)

    @classmethod
    def from_pm1(cls, rows) -> "SampleSet":
        """Build from an (M, n) array with entries +-1; n is the row
        length, and M may be 0."""
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("rows must be 2-d")
        if not np.isin(rows, (-1, 1)).all():
            raise ValueError("entries must be +-1")
        return cls(rows.shape[1], np.packbits(rows > 0, axis=1))

    @property
    def M(self) -> int:
        return self.packed.shape[0]

    @property
    def bits(self) -> np.ndarray:
        """Column bitsets: an (n, ceil(M/64)) uint64 array (cached,
        read-only). Bit i % 64 of word i // 64 in row j is set when sample
        i has x_j = +1; pad bits past M are zero. Built one packed byte
        column at a time by 8x8 bit-matrix transposes: each little-endian
        word of a zero-padded copy of the column holds 8 samples as the
        rows of a bit matrix, so its transpose holds in byte k the bitset
        byte of node 8c + 7 - k. The temporaries are M-sized, so no (M, n)
        array is made."""
        if self._bits is None:
            n, M = self.n, self.M
            words = (M + 63) // 64
            b = np.zeros((n, 8 * words), dtype=np.uint8)
            buf = np.zeros(64 * words, dtype=np.uint8)
            x = buf.view("<u8")
            t = np.empty_like(x)
            for c in range(self.packed.shape[1]):
                buf[:M] = self.packed[:, c]
                buf[M:] = 0
                for shift, mask in _TRANSPOSE_8X8:  # delta swaps
                    np.right_shift(x, shift, out=t)
                    t ^= x
                    t &= mask
                    x ^= t
                    t <<= shift
                    x ^= t
                # column k of the (8 * words, 8) byte view is node 8c + 7 - k
                b[8 * c : 8 * c + 8] = buf.reshape(-1, 8)[:, ::-1].T[: n - 8 * c]
            b = b.view("<u8")
            b.setflags(write=False)
            object.__setattr__(self, "_bits", b)
        return self._bits

    def ones_mask(self, S=()) -> np.ndarray:
        """Bitset of the samples with x_i = +1 for every i in S: a
        (ceil(M/64),) uint64 vector in the layout of a ``bits`` row, pad
        bits past M zero; all M samples for empty S."""
        M = self.M
        mask = np.full((M + 63) // 64, np.iinfo(np.uint64).max, dtype=np.uint64)
        if M % 64:
            mask[-1] = (1 << (M % 64)) - 1
        for j in S:
            mask &= self.bits[j]
        return mask

    def counts(self, masks: np.ndarray) -> np.ndarray:
        """Masked column counts: an (L, n) int64 array whose entry [l, j]
        is the number of samples in both masks[l] and x_j = +1, for an
        (L, ceil(M/64)) uint64 stack of bitsets in the layout of a
        ``bits`` row. One pass over ``bits`` per mask, so no temporary is
        larger than ``bits``; L = 0 gives an empty (0, n) array."""
        out = np.empty((len(masks), self.n), dtype=np.int64)
        for l, mask in enumerate(masks):
            out[l] = popcount(self.bits & mask)
        return out

    def ones_counts(self, S) -> np.ndarray:
        """All-ones counts given S: an (n,) int64 vector (cached per set,
        read-only) whose entry j is the number of samples with x_i = +1 for
        every i in S union {j}, so ``ones_counts(())`` counts each node's
        +1 entries and ``ones_counts((v,))[j]`` those with x_v = x_j = +1.
        Memoized under frozenset(S), so every order of S returns the same
        array. Each set costs one ``counts`` pass under its
        ``ones_mask``."""
        key = frozenset(S)
        counts = self._ones.get(key)
        if counts is None:
            counts = self.counts(self.ones_mask(key)[None])[0]
            counts.setflags(write=False)
            self._ones[key] = counts
        return counts

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.packed, other.packed)

    def __repr__(self):
        return f"SampleSet(n={self.n}, M={self.M})"


@dataclass(frozen=True)
class GibbsConfig:
    """Block Gibbs controls, applied to each of the C = min(64, M) chains:
    burn_in sweeps discarded up front, then one sample retained every
    ``thinning`` sweeps until the chains hold M samples between them
    (ceil(M / C) each), interleaved as row k * C + c for draw k of chain c.
    """

    burn_in: int = 1000
    thinning: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


def exact_sample(model: RbmModel, M: int, seed) -> SampleSet:
    """M i.i.d. draws from the exact visible marginal (n + m <= 24).

    Draw k is configuration r = searchsorted(cdf, u_k, side="right") of
    the k-th uniform, found in draw order through a guide table (the
    cut-point method of Chen and Asau). K, a power of two, is at most
    min(2^n, M), so the table never costs more than the draws; the
    configurations fall in K blocks of R = 2^n / K, and start[b] is R
    times the number of blocks whose last cdf entry is <= b / K. As u K
    and b / K are exact, the r of a u in bucket b = floor(u K) lies in
    [start[b], start[b + 1] + R - 1] (start[K] = 2^n - R). A draw with
    cdf[start[b]] > u is done; the rest are lifted from start[b] + 1 by
    descending powers of two, enough to span the widest bucket. r < 2^n
    for every u < 1, since cdf[-1] = 1.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    n = model.n
    row_bytes = (n + 7) // 8
    cdf = np.cumsum(ExactOracle(model).probabilities)
    cdf[-1] = 1.0
    u = np.random.default_rng(seed).random(M)
    K = 1 << min(n, max(int(M).bit_length() - 1, 0))
    R = (1 << n) // K
    # block j ends at cdf[jR + R - 1], which is <= b / K for b >= ceil(K cdf)
    q = cdf[R - 1 :: R] * K
    np.ceil(q, out=q)
    start = np.empty(K + 1, dtype=np.uint32)
    start[:K] = np.cumsum(np.bincount(q.astype(np.intp), minlength=K + 1)[:K])
    start[K] = K - 1
    start *= np.uint32(R)
    idx = start.take((u * K).astype(np.uint32))
    sel = np.flatnonzero(cdf.take(idx) <= u)
    r, us = idx.take(sel) + 1, u.take(sel)
    # add each step whose probe cdf[r + step - 1] is still <= u; a probe
    # past the end is clipped to cdf[-1] = 1 > u
    span = int(np.diff(start).max()) + R - 2
    for k in reversed(range(max(span, 0).bit_length())):
        step = np.uint32(1 << k)
        r += (cdf.take(r + (step - 1), mode="clip") <= us) * step
    idx[sel] = r
    # node i is bit n-1-i of the index: shifted left by the pad width, byte
    # c of the big-endian index is byte c of the packed row, pad bits zero
    idx <<= 8 * row_bytes - n
    rows = np.empty((M, row_bytes), dtype=np.uint8)
    for c in range(row_bytes):
        rows[:, c] = idx >> 8 * (row_bytes - 1 - c)
    return SampleSet(n, rows)


def gibbs_sample(model: RbmModel, M: int, cfg: GibbsConfig) -> SampleSet:
    """M samples from C = min(64, M) independent block Gibbs chains.

    Each chain starts from its own uniform +-1 state, discards
    ``cfg.burn_in`` sweeps and then keeps one state every ``cfg.thinning``
    sweeps; retained state k of chain c is row k * C + c, and the rows
    past M of the last round are dropped. All chains advance together as
    one (C, n) state matrix, so a sweep is two matrix products.

    Conditionals follow from the joint: P(y_j = +1 | x) = sigmoid(2 (g_j +
    (J.T x)_j)) and P(x_i = +1 | y) = sigmoid(2 (f_i + (J y)_i)). Since
    sigmoid(2 t) = (1 + tanh t) / 2, a +1 is drawn when 2 u - 1 < tanh t
    for a uniform u, which is the event u < sigmoid(2 t). States are held
    as 0/1 indicators b = (x + 1) / 2, so the comparison writes the next
    state directly and J x = 2 J b - J 1 folds into the weights and biases.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    n, m = model.n, model.m
    if M == 0:
        return SampleSet.from_pm1(np.zeros((0, n), dtype=np.int8))
    J = model.J
    w_y, c_y = 2.0 * J, model.g - J.sum(axis=0)
    w_x, c_x = 2.0 * J.T, model.f - J.sum(axis=1)
    chains = min(_CHAINS, M)
    rounds = -(-M // chains)
    rng = np.random.default_rng(cfg.seed)
    bx = rng.integers(0, 2, size=(chains, n)).astype(np.float64)
    by = np.empty((chains, m))
    ty = np.empty((chains, m))
    tx = np.empty((chains, n))
    v = np.empty((chains, m + n))
    v_y, v_x = v[:, :m], v[:, m:]
    out = np.empty((rounds, chains, n), dtype=np.uint8)
    for sweep in range(1, cfg.burn_in + cfg.thinning * rounds + 1):
        rng.random(out=v)  # then 2 u - 1, for every unit of every chain
        v *= 2.0
        v -= 1.0
        np.matmul(bx, w_y, out=ty)
        ty += c_y
        np.less(v_y, np.tanh(ty, out=ty), out=by)
        np.matmul(by, w_x, out=tx)
        tx += c_x
        np.less(v_x, np.tanh(tx, out=tx), out=bx)
        k, r = divmod(sweep - cfg.burn_in, cfg.thinning)
        if k > 0 and r == 0:
            out[k - 1] = bx
    return SampleSet(n, np.packbits(out.reshape(-1, n)[:M], axis=1))


def draw(model: RbmModel, M: int, sampler: str, seed, burn_in: int, thinning: int) -> SampleSet:
    """M samples from ``sampler``: exact_sample at ``seed``, or gibbs_sample
    under GibbsConfig(burn_in, thinning, seed)."""
    if sampler == "exact":
        return exact_sample(model, M, seed)
    if sampler == "gibbs":
        return gibbs_sample(model, M, GibbsConfig(burn_in, thinning, seed))
    raise ValueError(f"unknown sampler {sampler!r}")


def split_rhat(samples: SampleSet) -> float | None:
    """Largest split-R-hat over the visible nodes of a ``gibbs_sample``
    result.

    The chains are read back from the row layout (C = min(64, M) chains,
    the first M // C rounds), and each chain is cut into halves of
    L = (M // C) // 2 draws, so 2C sequences enter the statistic
    sqrt(((L - 1) / L * W + B / L) / W), with W the mean within-sequence
    variance and B / L the variance of the sequence means. Nodes whose
    value never changes are skipped; a node that is constant within each
    half but not across them reads inf. Returns None when a chain has
    fewer than 4 draws or no node varies.
    """
    n, M = samples.n, samples.M
    if M < 4 * _CHAINS:  # then some chain holds fewer than 4 draws
        return None
    K = M // _CHAINS
    L = K // 2
    draws = np.unpackbits(samples.packed[: K * _CHAINS], axis=1, count=n)
    draws = draws.reshape(K, _CHAINS, n)
    halves = np.concatenate([draws[:L], draws[K - L :]], axis=1)
    means = 2.0 * halves.mean(axis=0) - 1.0
    # sample variance of a +-1 sequence with mean mu is L (1 - mu^2) / (L - 1)
    W = (L / (L - 1) * (1.0 - means**2)).mean(axis=0)
    B_over_L = means.var(axis=0, ddof=1)
    varying = (W > 0) | (B_over_L > 0)
    if not varying.any():
        return None
    W, B_over_L = W[varying], B_over_L[varying]
    with np.errstate(divide="ignore"):
        rhat = np.sqrt(((L - 1) / L * W + B_over_L) / W)
    return float(rhat.max())


def save(samples: SampleSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, samples.n, samples.M))
        fh.write(samples.packed.tobytes(order="C"))


def load(path) -> SampleSet:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise SampleFileError("truncated header")
    magic, version, n, M = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise SampleFileError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise SampleFileError(f"unsupported version {version}")
    if n < 1:
        raise SampleFileError("header declares n < 1")
    row_bytes = (n + 7) // 8
    body = data[_HEADER.size :]
    expected = M * row_bytes
    if len(body) < expected:
        raise SampleFileError(
            f"truncated sample rows: expected {expected} bytes, found {len(body)}"
        )
    if len(body) > expected:
        raise SampleFileError("trailing bytes after sample rows")
    packed = np.frombuffer(body, dtype=np.uint8).reshape(M, row_bytes)
    try:
        return SampleSet(n, packed)
    except ValueError as exc:
        raise SampleFileError(str(exc)) from exc
