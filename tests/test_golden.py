"""Golden regression: fixed-seed outputs of all four learners.

Every case runs ``learn_full_graph`` on a fixed sample set and pins, per
node, the greedy trace (scores as float hex), the estimate, the pruned
set and both flags, plus the four QueryMeter counters of the quantum
runs. One case pins a ``sweep_scaling`` row set. A refactor that is meant
to keep outputs must leave ``tests/data/golden_learners.jsonl`` as it is.
``test_benchmark_shape_digests`` pins the same form, as a sha256, at the
shapes of the benchmark's exact-sampler workloads (n = 16, M = 128k and
256k), which the golden file does not reach.

Regenerate (only when an output change is intended, and say why in
CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from rbmstruct.greedy import LearnerConfig, learn_full_graph
from rbmstruct.harness import sweep_scaling
from rbmstruct.model import NonDegeneracyParams, generate_model
from rbmstruct.sampling import SampleSet, exact_sample

sys.path.insert(0, os.path.dirname(__file__))
from conftest import demo_ring_model  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_learners.jsonl")

_PARAMS = NonDegeneracyParams(0.4, 2.0)


def _sample_sets():
    ring = demo_ring_model()
    for M in (0, 9, 60, 4000):
        yield f"ring-M{M}", exact_sample(ring, M, seed=[1, M])
    for kind, n, seed in (("ferromagnetic", 7, 3), ("locally-consistent", 7, 4)):
        mdl = generate_model(kind, n, 3, 2, _PARAMS, seed=seed)
        for M in (9, 300, 4000):
            yield f"{kind}-n{n}-M{M}", exact_sample(mdl, M, seed=[2, M])
    for kind, seed in (("ferromagnetic", 5), ("locally-consistent", 6)):
        mdl = generate_model(kind, 8, 4, 3, _PARAMS, seed=seed)
        yield f"{kind}-n8-M4000", exact_sample(mdl, 4000, seed=[3, seed])
    yield "all-minus-one", SampleSet.from_pm1(np.full((10, 5), -1, dtype=np.int8))


def _settings(n: int):
    """(label, {family: LearnerConfig kwargs}): practical budgets, a budget
    that runs out of candidates, and loose/tight failure probabilities."""
    def both(ferro, lc, **kw):
        return {"ferro": dict(threshold=ferro, **kw), "lc": dict(threshold=lc, **kw)}

    yield "practical", both(0.02, 0.025, rounds=3)
    yield "exhaust", both(1e-9, 1e-9, rounds=n)
    yield "loose", both(0.02, 0.025, rounds=2, fail_prob=0.9, seed=7)
    yield "tight", both(0.02, 0.025, rounds=3, fail_prob=1e-6, seed=8)


def dump_result(res) -> dict:
    """The pinned form of a ``FullGraphResult``: the edges, each node's
    estimate, pruned set, both flags and trace (scores as float hex), and
    the four QueryMeter counters (None for a classical run)."""
    meter = res.meter
    return {
        "edges": sorted(list(e) for e in res.graph.edges),
        "nodes": [
            [
                r.u,
                list(r.estimate),
                list(r.pruned),
                r.insufficient_samples,
                r.exhausted,
                [[int(j), float(v).hex()] for j, v in r.trace],
            ]
            for r in res.per_node
        ],
        "meter": None
        if meter is None
        else [meter.raw_queries, meter.score_evals, meter.grover_iterations, meter.index_queries],
    }


def golden_cases():
    """Yield (case id, JSON-ready dump) for every pinned case."""
    for name, samples in _sample_sets():
        for label, by_family in _settings(samples.n):
            algorithms = ("ferro", "lc", "ferro-q", "lc-q")
            if label in ("loose", "tight"):
                algorithms = ("ferro-q", "lc-q")
            for alg in algorithms:
                kw = by_family[alg.split("-")[0]]
                res = learn_full_graph(samples, LearnerConfig(alg, **kw))
                yield f"{name}/{label}/{alg}", dump_result(res)
    sweep = sweep_scaling([16, 32, 64, 128, 256], trials=3, rho=0.5, seed=5)
    yield "sweep", {
        "rows": [[int(n), float(c).hex(), float(q).hex()] for n, c, q in sweep.rows],
        "slopes": [sweep.classical_slope.hex(), sweep.quantum_slope.hex()],
    }


def test_golden_outputs():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = dict(json.loads(line) for line in fh)
    computed = dict(golden_cases())
    assert list(computed) == list(expected)
    # each changed case with the fields that differ, e.g.
    # "ring-M0/practical/ferro-q: meter"
    changed = [
        f"{case}: {', '.join(k for k in dump if computed[case].get(k) != dump[k])}"
        for case, dump in expected.items()
        if computed[case] != dump
    ]
    assert changed == []


@pytest.mark.parametrize(
    "kind, M, algorithm, digest",
    [
        ("ferromagnetic", 256_000, "ferro",
         "89faa9a14379ae12cc2b78d15ed30d340e7d2bd62d9ab42db2569aa3bb7cddbd"),
        ("ferromagnetic", 256_000, "ferro-q",
         "87f8fca74e7b083afcf2db64ab63be8491efaffbc2e83354d0497a7c3cf2be38"),
        ("locally-consistent", 128_000, "lc",
         "5a6af60e4e091779fa908ac26ae45323bb8c3562ca847a6d1f148de3b31308c5"),
        ("locally-consistent", 128_000, "lc-q",
         "953fd15ac994824a4c7f4f5b6543f5603b82a6a0f6a0edf834f26b2325d96ca5"),
    ],
)
def test_benchmark_shape_digests(kind, M, algorithm, digest):
    # the shapes of perfbench's ferro16-exact and lc16-exact (n=16, m=8,
    # d2=3, exact sampler, rounds d2 + 1, default thresholds); the lc draw
    # is the one test_pinned_sample_digests pins. sha256 of the golden
    # form, so a change to any node's result or to the meter shows.
    # Never regenerate these digests to fit a change.
    model = generate_model(kind, 16, 8, 3, _PARAMS, seed=0)
    samples = exact_sample(model, M, seed=1)
    res = learn_full_graph(samples, LearnerConfig(algorithm, rounds=4, seed=2))
    dump = json.dumps(dump_result(res), separators=(",", ":"))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for case, dump in golden_cases():
            fh.write(json.dumps([case, dump], separators=(",", ":")) + "\n")
