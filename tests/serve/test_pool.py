"""SessionPool unit tests: sizing, fingerprint keying, LRU eviction and
its artifact accounting (the eviction counters satellite 1 fixed must
surface through the pool).
"""

import sys
import threading

import numpy as np
import pytest

from repro import cli
from repro.serve import pool as pool_module
from repro.serve.errors import BadRequest
from repro.serve.pool import SessionPool, estimate_nbytes


def _run_query(pooled, pattern="cycle:4"):
    graph = cli.parse_pattern(pattern)
    with pooled.lock:
        result = pooled.session.find_occurrence(graph, seed=0, plan="auto")
    return result


def test_estimate_nbytes_counts_arrays_once():
    arr = np.zeros(1024, dtype=np.int64)
    assert estimate_nbytes(arr) >= arr.nbytes
    # Identity-level dedup: the same buffer reachable twice costs once.
    single = estimate_nbytes({"a": arr})
    double = estimate_nbytes({"a": arr, "b": arr})
    assert double < 2 * single
    assert estimate_nbytes([arr, {"x": (1, 2.5, "s")}]) >= arr.nbytes


def test_acquire_is_keyed_by_fingerprint_not_spec():
    pool = SessionPool(max_bytes=1 << 30)
    a = pool.acquire("grid:4x4")
    b = pool.acquire("grid:4x4")
    assert a is b
    assert pool.session_builds == 1
    assert pool.session_hits == 1
    assert len(pool) == 1
    assert a.fingerprint in pool


def test_touch_refreshes_size_and_marks_mru():
    pool = SessionPool(max_bytes=1 << 30)
    a = pool.acquire("grid:4x4")
    b = pool.acquire("grid:5x5")
    assert a.nbytes == 0
    _run_query(a)
    pool.touch(a)
    assert a.nbytes > 0
    assert pool.bytes_resident() >= a.nbytes
    # a was touched last, so b is now least-recently-used.
    assert pool.resident()[0] is b
    assert pool.resident()[-1] is a


def test_lru_eviction_under_tiny_budget():
    # A 1-byte budget means every touch evicts everything except the
    # session that just answered — the deterministic worst case.
    pool = SessionPool(max_bytes=1)
    a = pool.acquire("grid:4x4")
    _run_query(a)
    pool.touch(a)
    assert len(pool) == 1  # the in-use session is never evicted

    b = pool.acquire("grid:5x5")
    _run_query(b)
    pool.touch(b)
    assert len(pool) == 1
    assert b.fingerprint in pool
    assert a.fingerprint not in pool
    assert pool.sessions_evicted == 1
    # Eviction went through TargetSession.invalidate, so the dropped
    # artifacts were counted (satellite 1's accounting fix).
    assert pool.artifacts_evicted > 0

    # The spec memo was purged with the session: re-acquiring rebuilds.
    builds = pool.session_builds
    a2 = pool.acquire("grid:4x4")
    assert a2 is not a
    assert pool.session_builds == builds + 1


def test_eviction_skips_locked_sessions():
    pool = SessionPool(max_bytes=1)
    a = pool.acquire("grid:4x4")
    _run_query(a)
    b = pool.acquire("grid:5x5")
    _run_query(b)
    with a.lock:  # a is mid-query on another thread
        pool.touch(b)
        assert a.fingerprint in pool  # over budget, but not evictable
    pool.touch(b)
    assert a.fingerprint not in pool  # lock released: LRU drops it


def test_close_drops_everything_with_accounting():
    pool = SessionPool(max_bytes=1 << 30)
    for spec in ("grid:4x4", "grid:5x5"):
        _run_query(pool.acquire(spec))
    pool.close()
    assert len(pool) == 0
    assert pool.bytes_resident() == 0
    assert pool.sessions_evicted == 2
    assert pool.artifacts_evicted > 0
    assert list(pool.iter_stats()) == []


def test_acquire_maps_generator_rejection_to_bad_request():
    # grid:0x0 passes the syntax check; its generator rejects it.
    pool = SessionPool(max_bytes=1 << 30)
    with pytest.raises(BadRequest, match="grid:0x0"):
        pool.acquire("grid:0x0")
    assert len(pool) == 0


# -- incremental sizing -------------------------------------------------------

P = cli.parse_pattern

#: One of each query kind the daemon runs, against one session.
MIX = [
    lambda s: s.find_occurrence(P("cycle:4"), seed=0, plan="auto"),
    lambda s: s.count_exact(P("cycle:4"), plan="auto"),
    lambda s: s.list_occurrences(P("cycle:4"), seed=0, plan="auto"),
    lambda s: s.vertex_connectivity(seed=0, rounds=1, plan="auto"),
    lambda s: s.decide_batch(
        [P("triangle"), P("path:3"), P("cycle:4")], seed=0, rounds=1,
        plan="auto",
    ),
    lambda s: s.find_occurrence(P("triangle"), seed=1, plan="auto"),
]


def _ask(pool, pooled, query):
    with pooled.lock:
        query(pooled.session)
    pool.touch(pooled)


def _full_rewalk(pooled):
    """Every artifact of the session and its sub-sessions sized from
    scratch against one identity set."""
    seen = set()
    total = 0
    sessions = [pooled.session]
    while sessions:
        session = sessions.pop()
        for entry in session._cache.values():
            total += estimate_nbytes(entry.value, seen)
        sessions.extend(session._children.values())
    return total


def test_incremental_size_equals_a_full_rewalk():
    pool = SessionPool(max_bytes=1 << 30)
    pooled = pool.acquire("grid:4x4")
    for query in MIX:
        _ask(pool, pooled, query)
        assert pooled.nbytes == _full_rewalk(pooled) > 0
    assert pooled.session._children  # connectivity's sub-session counted
    assert pooled.queries == len(MIX)


def test_warm_repeat_sizes_nothing(monkeypatch):
    pool = SessionPool(max_bytes=1 << 30)
    pooled = pool.acquire("grid:4x4")
    for query in MIX:
        _ask(pool, pooled, query)
    keys, nbytes = pooled.session.derived_keys(), pooled.nbytes
    sized = []
    real = pool_module.estimate_nbytes

    def counting(obj, seen=None):
        sized.append(obj)
        return real(obj, seen)

    monkeypatch.setattr(pool_module, "estimate_nbytes", counting)
    for query in MIX:
        _ask(pool, pooled, query)
    assert pooled.session.derived_keys() == keys
    assert sized == []
    assert pooled.nbytes == nbytes


def test_invalidation_starts_the_sizing_over():
    pool = SessionPool(max_bytes=1 << 30)
    pooled = pool.acquire("grid:4x4")
    _ask(pool, pooled, MIX[0])
    first = pooled.nbytes
    pooled.session.invalidate()
    pool.touch(pooled)
    assert pooled.nbytes == 0
    _ask(pool, pooled, MIX[0])
    assert pooled.nbytes == _full_rewalk(pooled) == first


def test_concurrent_queries_and_touches_size_every_entry_once():
    pool = SessionPool(max_bytes=1 << 30)
    pooled = pool.acquire("grid:4x4")
    specs = ["path:3", "triangle", "cycle:4", "star:3", "path:4", "diamond"]
    errors = []

    def worker(spec):
        try:
            _ask(pool, pooled, lambda s: s.count_exact(P(spec)))
            _ask(pool, pooled, lambda s: s.find_occurrence(P(spec), seed=0))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(spec,)) for spec in specs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert pooled.queries == 2 * len(specs)
    assert pooled.nbytes == _full_rewalk(pooled) > 0


class _SignallingLock:
    """A lock that sets ``contended`` when an acquire has to wait."""

    def __init__(self):
        self._lock = threading.Lock()
        self.contended = threading.Event()

    def acquire(self, blocking=True):
        if self._lock.acquire(blocking=False):
            return True
        if not blocking:
            return False
        self.contended.set()
        return self._lock.acquire()

    def release(self):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


def test_touch_waits_for_a_running_query_then_sizes_its_entries():
    pool = SessionPool(max_bytes=1 << 30)
    pooled = pool.acquire("grid:4x4")
    lock = pooled.lock = _SignallingLock()
    # Set when touch blocks on the session's lock -- or, were touch not
    # to take the lock, once it has returned.
    progress = lock.contended

    def toucher():
        pool.touch(pooled)
        progress.set()

    with lock:  # a query is running on the session
        thread = threading.Thread(target=toucher)
        thread.start()
        assert progress.wait(60)
        MIX[0](pooled.session)  # the query stores its artifacts
        assert pooled.session.derived_keys()
    thread.join(60)
    assert not thread.is_alive()
    assert pooled.nbytes == _full_rewalk(pooled) > 0
