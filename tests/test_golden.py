"""Golden regression: fixed-seed outputs of all four learners.

Every case runs ``learn_full_graph`` on a fixed sample set and pins, per
node, the greedy trace (scores as float hex), the estimate, the pruned
set and both flags, plus the four QueryMeter counters of the quantum
runs. One case pins a ``sweep_scaling`` row set. A refactor that is meant
to keep outputs must leave ``tests/data/golden_learners.jsonl`` as it is.

Regenerate (only when an output change is intended, and say why in
CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

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
    """(label, LearnerConfig kwargs): practical budgets, a budget that runs
    out of candidates, and loose/tight failure probabilities."""
    yield "practical", dict(eta=0.02, k=3, tau=0.025, t_max=3)
    yield "exhaust", dict(eta=1e-9, k=n, tau=1e-9, t_max=n)
    yield "loose", dict(eta=0.02, k=2, tau=0.025, t_max=2, delta=0.9, zeta=0.9, seed=7)
    yield "tight", dict(eta=0.02, k=3, tau=0.025, t_max=3, delta=1e-6, zeta=1e-6, seed=8)


def golden_cases():
    """Yield (case id, JSON-ready dump) for every pinned case."""
    for name, samples in _sample_sets():
        for label, kw in _settings(samples.n):
            algorithms = ("ferro", "lc", "ferro-q", "lc-q")
            if label in ("loose", "tight"):
                algorithms = ("ferro-q", "lc-q")
            for alg in algorithms:
                res = learn_full_graph(samples, LearnerConfig(alg, **kw))
                meter = res.meter
                yield f"{name}/{label}/{alg}", {
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
                    else [
                        meter.raw_queries,
                        meter.score_evals,
                        meter.grover_iterations,
                        meter.index_queries,
                    ],
                }
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


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for case, dump in golden_cases():
            fh.write(json.dumps([case, dump], separators=(",", ":")) + "\n")
