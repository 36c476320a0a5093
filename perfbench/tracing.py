"""In-memory span tracer for the benchmark's traced runs (``--trace 1``).

Wrappers from this file go around each layer's public entry points and
record ``(name, start, end, parent)`` spans in memory.  Drivers bind the
names they import (``from ..cluster.est import est_clustering``), so a
wrapper is installed at *every* module attribute that holds the original
function — the place where the caller looks the name up — not only at the
defining module.  Class entry points are wrapped on the class.

Nothing here imports or changes the program's own tracer; the charged
PRAM cost stays what it is.  Span times are ``time.perf_counter()``, which
is CLOCK_MONOTONIC on Linux and so comparable between the client and the
``serve`` daemon.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: (defining module, attribute, span name) for module-level functions.
FUNCTIONS = [
    ("repro.planar.dmp", "embed_planar", "planar.embed"),
    ("repro.planar.geometric", "embed_geometric", "planar.embed"),
    ("repro.planar.face_vertex", "build_face_vertex_graph",
     "planar.face_vertex"),
    ("repro.cluster.est", "est_clustering", "cluster.est"),
    ("repro.treedecomp.baker", "baker_decomposition", "treedecomp.baker"),
    ("repro.treedecomp.nice", "make_nice", "treedecomp.nice"),
    ("repro.treedecomp.minfill", "minfill_decomposition",
     "treedecomp.minfill"),
    ("repro.isomorphism.cover", "treewidth_cover", "isomorphism.cover"),
    ("repro.isomorphism.sequential_dp", "sequential_dp",
     "isomorphism.sequential_dp"),
    ("repro.isomorphism.parallel_dp", "parallel_dp",
     "isomorphism.parallel_dp"),
    ("repro.isomorphism.recovery", "first_witness", "isomorphism.recovery"),
    ("repro.isomorphism.recovery", "witness_images", "isomorphism.recovery"),
    ("repro.separating.cover", "separating_cover", "separating.cover"),
    ("repro.separating.driver", "decide_separating_isomorphism",
     "separating.driver"),
    ("repro.connectivity.planar_vc", "planar_vertex_connectivity",
     "connectivity.vc"),
    ("repro.connectivity.min_cuts", "minimum_vertex_cuts", "connectivity.vc"),
    ("repro.engine.keys", "graph_fingerprint", "engine.fingerprint"),
    ("repro.engine.keys", "target_fingerprint", "engine.fingerprint"),
    ("repro.engine.keys", "decomposition_fingerprint", "engine.fingerprint"),
    ("repro.engine.keys", "piece_fingerprint", "engine.fingerprint"),
    ("repro.engine.keys", "mask_fingerprint", "engine.fingerprint"),
    ("repro.engine.keys", "pattern_fingerprint", "engine.fingerprint"),
    ("repro.engine.planner", "apply_plan", "engine.plan"),
    ("repro.engine.shared", "decide_batch_shared", "engine.shared"),
    ("repro.serve.protocol", "parse_body", "serve.parse"),
    ("repro.serve.protocol", "parse_query", "serve.parse"),
    ("repro.serve.protocol", "result_to_dict", "serve.serialize"),
    ("repro.serve.protocol", "batch_to_dict", "serve.serialize"),
]

#: Generator functions: each ``next()`` is one span.
GENERATORS = [
    ("repro.isomorphism.recovery", "iter_witnesses", "isomorphism.recovery"),
]

#: Bindings renamed by the importing module: the separating driver runs
#: the shared DP engines on its own state space.
RENAMED = {
    ("repro.separating.driver", "sequential_dp"): "separating.dp",
    ("repro.separating.driver", "parallel_dp"): "separating.dp",
}

#: (module, class, method, span name) for class entry points.
METHODS = [
    ("repro.exec.backends", "_Handle", "result", "exec.wait"),
    ("repro.serve.pool", "SessionPool", "acquire", "serve.acquire"),
    ("repro.serve.pool", "SessionPool", "touch", "serve.touch"),
    ("repro.serve.server", "QueryServer", "_dispatch_query", "serve.query"),
]

#: (module, class, method, counter) — calls counted, not timed.
COUNTED = [
    ("repro.engine.session", "CacheStats", "record_hit", "engine.cache_hits"),
    ("repro.engine.session", "CacheStats", "record_miss",
     "engine.cache_misses"),
    ("repro.exec.backends", "ThreadsBackend", "submit", "exec.tasks"),
    ("repro.exec.backends", "ProcessesBackend", "submit", "exec.tasks"),
]

#: Modules imported before patching, so that every binding exists.
PRELOAD = [
    "repro.cli",
    "repro.engine.session",
    "repro.engine.shared",
    "repro.engine.planner",
    "repro.exec.task",
    "repro.isomorphism",
    "repro.connectivity",
    "repro.separating.driver",
    "repro.serve.server",
]


class SpanRecorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent, thread]
        self.events = []  # [name, time, amount]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), None, parent,
                  threading.get_ident()]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.events.append([name, time.perf_counter(), amount])

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "events": self.events}, fh)


def _timed(recorder: SpanRecorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(index)
        if name == "isomorphism.cover":
            recorder.count("isomorphism.pieces", len(result.pieces))
        elif name in ("isomorphism.sequential_dp", "isomorphism.parallel_dp"):
            recorder.count("isomorphism.dp_calls")
        elif name == "engine.fingerprint":
            recorder.count("engine.fingerprint_calls")
        return result
    return wrapper


def _timed_generator(recorder: SpanRecorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        inner = func(*args, **kwargs)
        while True:
            index = recorder.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.close(index)
            yield item
    return wrapper


def _counted(recorder: SpanRecorder, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return func(*args, **kwargs)
    return wrapper


def _rebind(original, make, default_name: str) -> int:
    """Replace ``original`` at every ``repro.*`` module attribute bound to
    it; returns the number of bindings replaced."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                name = RENAMED.get((mod_name, attr), default_name)
                setattr(module, attr, make(name, original))
                replaced += 1
    return replaced


def install(recorder: SpanRecorder) -> None:
    """Wrap every entry point listed above (idempotent per process)."""
    import importlib

    for mod_name in PRELOAD:
        importlib.import_module(mod_name)
    for mod_name, attr, name in FUNCTIONS:
        original = getattr(importlib.import_module(mod_name), attr)
        count = _rebind(
            original, lambda n, f: _timed(recorder, n, f), name
        )
        if count == 0:
            raise RuntimeError(f"no binding of {mod_name}.{attr} found")
    for mod_name, attr, name in GENERATORS:
        original = getattr(importlib.import_module(mod_name), attr)
        _rebind(original, lambda n, f: _timed_generator(recorder, n, f), name)
    for mod_name, cls_name, meth, name in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, meth, _timed(recorder, name, getattr(cls, meth)))
    for mod_name, cls_name, meth, name in COUNTED:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        setattr(cls, meth, _counted(recorder, name, getattr(cls, meth)))


def event_totals(events, keep=None):
    """Sum of counted amounts per name; ``keep(event)`` filters events."""
    totals = defaultdict(int)
    for event in events:
        if keep is None or keep(event):
            totals[event[0]] += event[2]
    return totals


def self_times(spans, keep=None):
    """Sum of self time per span name; ``keep(span)`` filters spans.

    A span's self time is its duration minus its child spans' durations
    (children are recorded on the same thread, so they nest inside it).
    """
    child_time = defaultdict(float)
    for span in spans:
        name, start, end, parent = span[:4]
        if end is not None and parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, span in enumerate(spans):
        name, start, end = span[:3]
        if end is None or (keep is not None and not keep(span)):
            continue
        totals[name] += (end - start) - child_time[index]
    return totals
