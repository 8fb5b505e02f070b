"""In-memory span recording and the wrappers that feed it.

A span is one call across a layer boundary: a name ("layer.what"), start
and end times, the span it was called from, and the trial it belongs to.
Spans are kept in flat arrays while the benchmark runs and written out
once at the end.

Wrappers are installed by rebinding a name in every ``rbmstruct`` module
that holds the original object, which is where each caller looks it up
(``greedy.build_index``, ``qsearch.build_index``, ``sampling.ExactOracle``,
...). ``instrument`` restores every rebinding when it exits.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("model", "sampling", "estimators", "greedy", "qsearch", "harness")

ROOT_SPAN = "harness.trial"


class Tracer:
    """Span store with an open-span stack; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self._stack: list[int] = []
        self.trial_id = -1
        self.counts: dict[int, Counter] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.trial_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counts.setdefault(self.trial_id, Counter())[key] += amount

    @contextlib.contextmanager
    def trial_span(self, trial_id: int):
        """Root span of one trial: the benchmark's call into harness."""
        self.trial_id = trial_id
        idx = self.open(self.name_id(ROOT_SPAN))
        try:
            yield
        finally:
            self.close(idx)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "trial": np.frombuffer(self.trial, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (children clipped to the parent, and
    overlapping children counted once)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(int(p), []).append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], lo), min(end[c], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


class MeterLog:
    """QueryMeters seen by maximum finding, grouped by trial, with the
    per-evaluation cost of the score oracle that charged them."""

    def __init__(self):
        self.trial_id = -1
        self.by_trial: dict[int, dict[int, tuple]] = {}

    def see(self, scores) -> None:
        seen = self.by_trial.setdefault(self.trial_id, {})
        seen.setdefault(id(scores.meter), (scores.meter, scores.cost))

    def pop_trial(self, trial_id: int) -> list[tuple]:
        return list(self.by_trial.pop(trial_id, {}).values())


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "rbmstruct"]


def _rebind(original, wrapper, restore: list) -> None:
    """Point every package-level name bound to ``original`` at ``wrapper``."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                restore.append((mod, attr, original))
                setattr(mod, attr, wrapper)


def _span_wrapper(fn, tracer: Tracer, name: str, after=None):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _after_build_index(tracer, args, kwargs, result):
    tracer.count("build_index_calls")
    tracer.count("index_cells", result.num_cells)


def _after_cov(tracer, args, kwargs, result):
    tracer.count("cov_calls")


def _after_score(tracer, args, kwargs, result):
    tracer.count("rounds")
    tracer.count("candidates_scored", len(result))


def _after_stage(tracer, args, kwargs, result):
    tracer.count("stage_calls")


def _after_exact(tracer, args, kwargs, result):
    tracer.count("samples", result.M)


def _after_gibbs(tracer, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tracer.count("samples", result.M)
    tracer.count("gibbs_sweeps", cfg.burn_in + cfg.thinning * result.M)


# (module, name, span, count hook, required). Optional hooks are private
# helpers a refactor may rename; a missing one leaves its counts at zero
# and is reported by name.
SPAN_HOOKS = (
    ("model", "generate_model", "model.generate", None, True),
    ("model", "ExactOracle", "model.oracle_build", None, True),
    ("model", "two_hop_graph", "harness.score", None, True),
    ("sampling", "exact_sample", "sampling.exact", _after_exact, True),
    ("sampling", "gibbs_sample", "sampling.gibbs", _after_gibbs, True),
    ("estimators", "build_index", "estimators.build_index", _after_build_index, True),
    ("estimators", "avg_cond_cov_decomposed", "estimators.cov", _after_cov, True),
    ("greedy", "learn_full_graph", "greedy.learn", None, True),
    ("greedy", "_score_candidates_ferro", "greedy.score", _after_score, False),
    ("greedy", "_score_candidates_lc", "greedy.score", _after_score, False),
    ("qsearch", "qsearch_sim", "qsearch.stage", _after_stage, True),
    ("harness", "write_records", "harness.write", None, True),
    ("harness", "write_aggregate_csv", "harness.write", None, True),
)


@contextlib.contextmanager
def instrument(meters: MeterLog, tracer: Tracer | None = None):
    """Install the maximum-finding meter capture and, with a tracer, every
    span wrapper; yields the names of optional hooks that were missing.
    All rebound names are restored on exit."""
    import rbmstruct.qsearch as qsearch

    restore: list = []
    missing: list[str] = []
    try:
        if tracer is not None:
            for mod_name, attr, span, after, required in SPAN_HOOKS:
                mod = sys.modules[f"rbmstruct.{mod_name}"]
                original = getattr(mod, attr, None)
                if original is None:
                    if required:
                        raise AttributeError(f"rbmstruct.{mod_name}.{attr} not found")
                    missing.append(f"{mod_name}.{attr}")
                    continue
                _rebind(original, _span_wrapper(original, tracer, span, after), restore)
        max_find = qsearch.dh_max_find
        _rebind(max_find, _max_find_wrapper(max_find, meters, tracer), restore)
        yield missing
    finally:
        for mod, attr, original in reversed(restore):
            setattr(mod, attr, original)


def _max_find_wrapper(fn, meters: MeterLog, tracer: Tracer | None):
    """Records the meter each search charges; traced, also a span, the
    call count and whether the answer missed the true argmax."""
    nid = tracer.name_id("qsearch.max_find") if tracer is not None else -1

    def wrapper(scores, *args, **kwargs):
        meters.see(scores)
        if tracer is None:
            return fn(scores, *args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(scores, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.count("max_find_calls")
        tracer.count("argmax_misses", int(result[0] != int(np.argmax(scores.values))))
        return result

    wrapper.__wrapped__ = fn
    return wrapper
