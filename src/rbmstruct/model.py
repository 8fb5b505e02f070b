"""RBM models, exact enumeration oracles, and random model generators.

An RBM over visible spins x in {-1,+1}^n and hidden spins y in {-1,+1}^m
has joint probability

    P(x, y) = exp(x.T J y + f.T x + g.T y) / Z.

Summing out the hidden layer gives the visible marginal in closed form,

    P(x) propto exp(f.T x) * prod_j 2 cosh(g_j + (J.T x)_j),

which ExactOracle tabulates over all 2^n visible configurations. Each
factor depends only on the spins it couples, so the log table is built as
a sum of small factor tables (the fields, and one per hidden unit over the
2^|S_j| patterns of its support S_j) broadcast into an n-axis array, then
max-shifted so large couplings do not overflow. The exact sampler draws
from that table, and the tests read their exact influence and average
conditional covariance off it.

Node indices are 0-based throughout. Configuration index c encodes node i
in bit (n-1-i), bit 1 meaning +1, so configurations enumerate in
lexicographic order with node 0 most significant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Enumeration guard: exact quantities are only computed for n + m <= 24
# total spins so the oracle always runs in seconds.
ENUM_GUARD = 24

KIND_FERROMAGNETIC = "ferromagnetic"
KIND_LOCALLY_CONSISTENT = "locally-consistent"
KIND_GENERAL = "general"
# The kinds generate_model draws, and so the kinds an experiment can learn.
LEARNABLE_KINDS = (KIND_FERROMAGNETIC, KIND_LOCALLY_CONSISTENT)
_KINDS = (*LEARNABLE_KINDS, KIND_GENERAL)


@dataclass(frozen=True)
class NonDegeneracyParams:
    """Weight bounds: nonzero couplings at least alpha in magnitude, and
    every node's total incident coupling strength plus field at most beta.
    Both must be finite, 0 < alpha <= beta, and beta / alpha finite."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if not (0.0 < self.alpha <= self.beta):
            raise ValueError("require 0 < alpha <= beta")
        if not math.isfinite(self.beta / self.alpha):
            raise ValueError("beta / alpha must be finite; alpha is too small for this beta")


class RbmModel:
    """An RBM (J, f, g) with a declared model class.

    J is the n x m interaction matrix, f the visible fields, g the hidden
    fields. ``kind`` declares the class the model is supposed to belong to
    and is validated at construction:

    - "ferromagnetic": J, f, g all non-negative;
    - "locally-consistent": each column of J entirely >= 0 or entirely <= 0,
      fields arbitrary;
    - "general": no sign constraint.

    Instances are immutable: the arrays are copied and marked read-only.
    """

    __slots__ = ("J", "f", "g", "kind")

    def __init__(self, J, f, g, kind: str = KIND_GENERAL):
        J = np.array(J, dtype=np.float64)
        f = np.array(f, dtype=np.float64)
        g = np.array(g, dtype=np.float64)
        if J.ndim != 2:
            raise ValueError("J must be a 2-d array")
        n, m = J.shape
        if n < 1:
            raise ValueError("need at least one visible node")
        if f.shape != (n,) or g.shape != (m,):
            raise ValueError("field shapes must match J: f is (n,), g is (m,)")
        if not (np.isfinite(J).all() and np.isfinite(f).all() and np.isfinite(g).all()):
            raise ValueError("weights and fields must be finite")
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if kind == KIND_FERROMAGNETIC and not (
            (J >= 0).all() and (f >= 0).all() and (g >= 0).all()
        ):
            raise ValueError("ferromagnetic kind requires non-negative J, f, g")
        if kind == KIND_LOCALLY_CONSISTENT and not ((J >= 0).all(0) | (J <= 0).all(0)).all():
            raise ValueError("locally-consistent kind requires single-signed J columns")
        for a in (J, f, g):
            a.setflags(write=False)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("RbmModel is immutable")

    def __reduce__(self):
        # rebuild through the constructor, so unpickling validates again
        return type(self), (self.J, self.f, self.g, self.kind)

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def m(self) -> int:
        return self.J.shape[1]

    def __eq__(self, other):
        if not isinstance(other, RbmModel):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.J.shape == other.J.shape
            and np.array_equal(self.J, other.J)
            and np.array_equal(self.f, other.f)
            and np.array_equal(self.g, other.g)
        )

    def __repr__(self):
        return f"RbmModel(n={self.n}, m={self.m}, kind={self.kind!r})"


def validate_nondegenerate(model: RbmModel, params: NonDegeneracyParams) -> tuple[str, ...]:
    """Check the (alpha, beta) bounds; returns the violations, empty when
    the model satisfies them, and never raises.

    Conditions: every nonzero |J_ij| >= alpha; for every visible i,
    sum_j |J_ij| + |f_i| <= beta; for every hidden j,
    sum_i |J_ij| + |g_j| <= beta.
    """
    violations = []
    absJ = np.abs(model.J)
    small = (absJ > 0) & (absJ < params.alpha)
    for i, j in zip(*np.nonzero(small)):
        violations.append(
            f"|J[{i},{j}]| = {absJ[i, j]:g} is nonzero but below alpha = {params.alpha:g}"
        )
    row_strength = absJ.sum(axis=1) + np.abs(model.f)
    for i in np.nonzero(row_strength > params.beta)[0]:
        violations.append(
            f"visible node {i}: strength {row_strength[i]:g} exceeds beta = {params.beta:g}"
        )
    col_strength = absJ.sum(axis=0) + np.abs(model.g)
    for j in np.nonzero(col_strength > params.beta)[0]:
        violations.append(
            f"hidden node {j}: strength {col_strength[j]:g} exceeds beta = {params.beta:g}"
        )
    return tuple(violations)


@dataclass(frozen=True)
class TwoHopGraph:
    """Undirected graph on visible nodes; {i, j} is an edge when i and j
    share at least one hidden node with nonzero couplings to both."""

    n: int
    edges: frozenset  # of (i, j) tuples with i < j

    def __post_init__(self):
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"bad edge ({i}, {j}) for n = {self.n}")

    def neighbors(self, u: int) -> set:
        return {j for e in self.edges for j in e if u in e and j != u}

    @property
    def max_degree(self) -> int:
        if not self.edges:
            return 0
        return max(len(self.neighbors(u)) for u in range(self.n))


def two_hop_graph(model: RbmModel) -> TwoHopGraph:
    """Graph-theoretic two-hop neighborhood graph of the visible layer."""
    support = model.J != 0
    shared = support @ support.T  # counts of common hidden nodes
    edges = set()
    for i, k in zip(*np.nonzero(shared)):
        if i < k:
            edges.add((int(i), int(k)))
    return TwoHopGraph(n=model.n, edges=frozenset(edges))


def check_enumerable(n: int, m: int) -> None:
    """Raise ValueError unless ExactOracle can enumerate n + m spins."""
    if n + m > ENUM_GUARD:
        raise ValueError(f"exact enumeration limited to n + m <= {ENUM_GUARD} spins (got {n + m})")


class ExactOracle:
    """Exact visible-layer quantities by full enumeration.

    Builds the normalized probability table over all 2^n visible
    configurations once, as an n-axis (2,)*n array: axis i is node i,
    index 0 meaning -1 and 1 meaning +1, so the flattened table is in
    configuration-index order. The log-weight is a sum of factors, each
    built over only the spins it depends on: the field term by outer sums,
    one axis at a time, and for each hidden unit j the term
    log 2cosh(g_j + sum_{i in S_j} J_ij x_i) over the 2^|S_j| patterns of
    its support S_j, broadcast into the table over those axes. A build
    costs sum_j 2^|S_j| log-cosh evaluations plus n + m table-sized adds,
    so sparse supports are cheap and no +-1 configuration matrix is made.
    ``probabilities`` holds P(X = x) for every configuration.
    """

    def __init__(self, model: RbmModel):
        check_enumerable(model.n, model.m)
        self.model = model
        self.n = model.n
        self._p = self._probability_table()

    def _probability_table(self) -> np.ndarray:
        J, f, g = self.model.J, self.model.f, self.model.g
        logw = _outer_sum(0.0, f).reshape((2,) * self.n)
        for j in range(self.model.m):
            # unit j's factor over its support's patterns, broadcast on those
            # axes; no name holds it, so it is freed before the next is built
            on = J[:, j] != 0
            logw += _log_2cosh(_outer_sum(g[j], J[on, j])).reshape(np.where(on, 2, 1))
        # max-shift so large couplings do not overflow
        logw -= logw.max()
        p = np.exp(logw, out=logw)
        p /= p.sum()
        return p

    @property
    def probabilities(self) -> np.ndarray:
        """The table flattened to configuration-index order."""
        return self._p.reshape(-1)


def _log_2cosh(t: np.ndarray) -> np.ndarray:
    """log 2cosh(t) = logaddexp(t, -t), stable for large |t|, in place."""
    return np.logaddexp(t, -t, out=t)


def _outer_sum(start: float, weights) -> np.ndarray:
    """start + sum_i w_i s_i over all 2^k patterns s of k = len(weights)
    spins, the first spin most significant and index bit 1 meaning +1."""
    t = np.full(1, start, dtype=np.float64)
    for w in weights:
        t = np.add.outer(t, (-w, w)).ravel()
    return t


def node_set(S, n: int, *queried) -> tuple:
    """S as a sorted tuple. ValueError unless the nodes of S and the
    queried nodes are pairwise distinct and all lie in range(n)."""
    S = tuple(sorted(int(i) for i in S))
    nodes = S + tuple(int(i) for i in queried)
    if len(set(nodes)) != len(nodes):
        raise ValueError("queried nodes and S must be pairwise distinct")
    if not all(0 <= i < n for i in nodes):
        raise ValueError("node index out of range")
    return S


def check_shape(kind: str, n: int, m: int, d2_target: int) -> None:
    """Raise ValueError unless ``kind`` is learnable and (n, m, d2_target)
    is a shape generate_model accepts, before any weight bound is known."""
    if kind not in LEARNABLE_KINDS:
        raise ValueError("kind must be " + " or ".join(map(repr, LEARNABLE_KINDS)))
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    if not 0 <= d2_target <= n - 1:
        raise ValueError("d2_target must be in [0, n-1]")
    if d2_target > 0 and m == 0:
        raise ValueError("d2_target > 0 requires at least one hidden node")


def generate_model(
    kind: str,
    n: int,
    m: int,
    d2_target: int,
    params: NonDegeneracyParams,
    seed,
) -> RbmModel:
    """Random (alpha, beta)-non-degenerate model with two-hop degree d2_target.

    The support is built hidden node by hidden node: the first hidden node
    links a clique of d2_target + 1 visible nodes (so the target degree is
    achieved), later ones attach random groups that never push any node's
    two-hop degree past the target. Coupling magnitudes are drawn from
    [alpha, min(2 alpha, cap)] where cap keeps every row and column within
    0.9 beta; fields use the remaining 0.1 beta. Magnitudes are continuous,
    so fine-tuned cancellations (a distributional two-hop set strictly
    inside the graph-theoretic one) occur with probability zero.

    Deterministic given ``seed``. Raises ValueError on infeasible requests.
    """
    check_shape(kind, n, m, d2_target)
    # 0.9 beta goes to couplings, 0.1 beta to fields; a node can then carry
    # at most floor(0.9 beta / alpha) incident couplings of magnitude >= alpha
    max_units = int(math.floor(0.9 * params.beta / params.alpha))
    if max_units < 1:
        raise ValueError("infeasible weight bounds: alpha exceeds 0.9 beta")
    if d2_target > 0 and d2_target + 1 > max_units:
        raise ValueError(
            f"infeasible: a degree-{d2_target} clique needs {d2_target + 1} couplings "
            f"per hidden node but beta/alpha allows only {max_units}"
        )

    rng = np.random.default_rng(seed)
    support = np.zeros((n, m), dtype=bool)
    nbrs = [set() for _ in range(n)]
    row_units = np.zeros(n, dtype=int)

    def fits(group) -> bool:
        gset = set(int(i) for i in group)
        return all(len(nbrs[i] | (gset - {i})) <= d2_target for i in gset)

    def attach(group, j):
        gset = set(int(i) for i in group)
        support[list(gset), j] = True
        for i in gset:
            nbrs[i] |= gset - {i}
            row_units[i] += 1

    for j in range(m):
        avail = np.flatnonzero(row_units < max_units)
        if avail.size == 0:
            continue  # leave this hidden node disconnected
        if d2_target == 0:
            attach(rng.choice(avail, size=1, replace=False), j)
            continue
        if j == 0:
            attach(rng.choice(n, size=d2_target + 1, replace=False), j)
            continue
        group = None
        cmax = min(d2_target + 1, max_units, avail.size)
        for _ in range(50):
            size = int(rng.integers(1, cmax + 1))
            cand = rng.choice(avail, size=size, replace=False)
            if fits(cand):
                group = cand
                break
        if group is None:
            group = rng.choice(avail, size=1, replace=False)
        attach(group, j)

    row_counts = support.sum(axis=1)
    col_counts = support.sum(axis=0)
    max_count = int(max(row_counts.max(initial=0), col_counts.max(initial=0), 1))
    cap = 0.9 * params.beta / max_count  # >= alpha since max_count <= max_units
    hi = min(2.0 * params.alpha, cap)

    J = np.zeros((n, m))
    nnz = int(support.sum())
    J[support] = rng.uniform(params.alpha, hi, size=nnz)
    field_hi = 0.1 * params.beta
    if kind == KIND_FERROMAGNETIC:
        f = rng.uniform(0.0, field_hi, size=n)
        g = rng.uniform(0.0, field_hi, size=m)
    else:
        col_signs = rng.choice([-1.0, 1.0], size=m)
        J *= col_signs
        f = rng.uniform(-field_hi, field_hi, size=n)
        g = rng.uniform(-field_hi, field_hi, size=m)

    model = RbmModel(J, f, g, kind=kind)
    violations = validate_nondegenerate(model, params)
    if violations:
        raise RuntimeError(f"generator produced a degenerate model: {violations}")
    return model


def save_model(model: RbmModel, path) -> None:
    """Write a model as JSON: {n, m, J (row-major), f, g, kind}.

    Floats serialize via repr (17 significant digits), so load(save(m))
    reproduces the model bit for bit.
    """
    payload = {
        "n": model.n,
        "m": model.m,
        "J": [float(x) for x in model.J.ravel(order="C")],
        "f": [float(x) for x in model.f],
        "g": [float(x) for x in model.g],
        "kind": model.kind,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> RbmModel:
    """Read a model written by save_model. The header's n and m must be
    integers with n >= 1 and m >= 0 that account for every coupling, so
    no dimension is inferred from the array, and the model constructor
    must accept the fields; any other file is a malformed model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        n, m = payload["n"], payload["m"]
        J = np.array(payload["J"], dtype=np.float64)
        if not (type(n) is int and type(m) is int and n >= 1 and m >= 0 and J.shape == (n * m,)):
            raise ValueError(f"header n = {n!r}, m = {m!r} does not match {J.size} couplings")
        J = J.reshape(n, m)
        f = np.array(payload["f"], dtype=np.float64)
        g = np.array(payload["g"], dtype=np.float64)
        return RbmModel(J, f, g, kind=payload["kind"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
