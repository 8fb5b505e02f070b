"""Sample sets and samplers.

A SampleSet holds M visible configurations bit-packed, MSB-first within
each byte, bit 1 meaning +1; rows are ceil(n/8) bytes with zero pad bits.
The learners read it transposed, as one bitset over samples per node
(``SampleSet.bits``).
Small models are sampled exactly by inverse CDF over the enumerated
visible marginal; larger ones via layer-wise block Gibbs (all hidden
given visible, then all visible given hidden, which are exact conditional
independences in an RBM).

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

from .model import ExactOracle, RbmModel, index_to_pm1

_MAGIC = b"RBMS"
_VERSION = 1
_HEADER = struct.Struct("<4sBIQ")


class SampleFileError(Exception):
    """Raised on malformed sample files; the message names the defect."""


class SampleSet:
    """Immutable bit-packed matrix of M visible configurations in {-1,+1}^n."""

    __slots__ = ("n", "packed", "_dense", "_bits")

    def __init__(self, n: int, packed: np.ndarray):
        if n < 1:
            raise ValueError("need n >= 1")
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        row_bytes = (n + 7) // 8
        if packed.ndim != 2 or packed.shape[1] != row_bytes:
            raise ValueError(f"packed rows must be {row_bytes} bytes for n = {n}")
        if packed.shape[0] > 0 and n % 8:
            pad_mask = (1 << (8 - n % 8)) - 1
            if (packed[:, -1] & pad_mask).any():
                raise ValueError("pad bits must be zero")
        packed.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "_dense", None)
        object.__setattr__(self, "_bits", None)

    def __setattr__(self, name, value):
        raise AttributeError("SampleSet is immutable")

    @classmethod
    def from_pm1(cls, rows, n: int | None = None) -> "SampleSet":
        """Build from an (M, n) array with entries +-1."""
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError("rows must be 2-d")
        if n is None:
            n = rows.shape[1]
        elif rows.shape[1] != n:
            raise ValueError("row length mismatch")
        if rows.size and not np.isin(rows, (-1, 1)).all():
            raise ValueError("entries must be +-1")
        row_bytes = (n + 7) // 8
        if rows.shape[0] == 0:
            return cls(n, np.zeros((0, row_bytes), dtype=np.uint8))
        bits = (rows > 0).astype(np.uint8)
        return cls(n, np.packbits(bits, axis=1))

    @property
    def M(self) -> int:
        return self.packed.shape[0]

    def __len__(self) -> int:
        return self.M

    @property
    def dense(self) -> np.ndarray:
        """Decoded (M, n) int8 matrix of +-1 values (cached, read-only)."""
        if self._dense is None:
            if self.M == 0:
                d = np.zeros((0, self.n), dtype=np.int8)
            else:
                bits = np.unpackbits(self.packed, axis=1, count=self.n)
                d = (bits.astype(np.int8) * 2 - 1)
            d.setflags(write=False)
            object.__setattr__(self, "_dense", d)
        return self._dense

    @property
    def bits(self) -> np.ndarray:
        """Column bitsets: an (n, ceil(M/64)) uint64 array (cached,
        read-only). Bit i % 64 of word i // 64 in row j is set when sample
        i has x_j = +1; pad bits past M are zero. Built one column at a
        time through one M-byte buffer, so no (M, n) temporary is made."""
        if self._bits is None:
            M = self.M
            words = (M + 63) // 64
            b = np.zeros((self.n, 8 * words), dtype=np.uint8)
            col = np.empty(M, dtype=np.uint8)
            for j in range(self.n):
                np.right_shift(self.packed[:, j // 8], 7 - j % 8, out=col)
                col &= 1
                b[j, : (M + 7) // 8] = np.packbits(col, bitorder="little")
            b = b.view("<u8")
            b.setflags(write=False)
            object.__setattr__(self, "_bits", b)
        return self._bits

    def column(self, j: int) -> np.ndarray:
        return self.dense[:, j]

    def entry(self, i: int, j: int) -> int:
        return int(self.dense[i, j])

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.packed, other.packed)

    def __repr__(self):
        return f"SampleSet(n={self.n}, M={self.M})"


@dataclass(frozen=True)
class GibbsConfig:
    """Block Gibbs controls: burn_in sweeps discarded up front, then one
    sample retained every ``thinning`` sweeps."""

    burn_in: int = 1000
    thinning: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")


def exact_sample(model: RbmModel, M: int, seed) -> SampleSet:
    """M i.i.d. draws from the exact visible marginal (n + m <= 24)."""
    if M < 0:
        raise ValueError("M must be >= 0")
    oracle = ExactOracle(model)
    n = model.n
    if M == 0:
        return SampleSet.from_pm1(np.zeros((0, n), dtype=np.int8))
    cdf = np.cumsum(oracle.probabilities)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(M)
    idx = np.searchsorted(cdf, u, side="right")
    idx = np.minimum(idx, (1 << n) - 1)
    return SampleSet.from_pm1(index_to_pm1(idx, n))


def gibbs_sample(model: RbmModel, M: int, cfg: GibbsConfig) -> SampleSet:
    """M samples from layer-wise block Gibbs.

    Conditionals follow from the joint: P(y_j = +1 | x) = sigmoid(2 (g_j +
    (J.T x)_j)) and P(x_i = +1 | y) = sigmoid(2 (f_i + (J y)_i)). A +1 is
    drawn when the pre-activation exceeds half the logit of a uniform
    variate, which is the same event as uniform < sigmoid(2 t).
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    n, m = model.n, model.m
    if M == 0:
        return SampleSet.from_pm1(np.zeros((0, n), dtype=np.int8))
    J, f, g = model.J, model.f, model.g
    rng = np.random.default_rng(cfg.seed)
    x = rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0

    total = cfg.burn_in + cfg.thinning * M
    out = np.empty((M, n), dtype=np.int8)
    taken = 0
    sweep = 0
    block = 4096
    while sweep < total:
        b = min(block, total - sweep)
        uy = rng.random((b, m))
        ux = rng.random((b, n))
        # threshold form of the sigmoid draw: +1 iff t > 0.5 * logit(u)
        ly = 0.5 * (np.log(uy) - np.log1p(-uy))
        lx = 0.5 * (np.log(ux) - np.log1p(-ux))
        for r in range(b):
            ty = g + x @ J
            y = np.where(ty > ly[r], 1.0, -1.0)
            tx = f + J @ y
            x = np.where(tx > lx[r], 1.0, -1.0)
            sweep += 1
            if sweep > cfg.burn_in and (sweep - cfg.burn_in) % cfg.thinning == 0:
                out[taken] = x.astype(np.int8)
                taken += 1
    assert taken == M
    return SampleSet.from_pm1(out)


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
