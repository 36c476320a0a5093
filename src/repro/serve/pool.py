"""Multi-tenant session pool: one warm :class:`TargetSession` per target.

The daemon's whole value is amortization — a query against a target the
pool has seen pays cover/clustering/decomposition costs only once.  The
pool keys resident sessions by the *target fingerprint*
(:func:`repro.engine.keys.target_fingerprint`), not the spec string, so
``grid:8x8`` and any other spec producing the same graph+embedding share
one session, and a mutated target can never alias a stale one.

A target is built once: :meth:`SessionPool.acquire` builds the graph
and its embedding when the spec is not resident, on the executor thread
that answers the query (requests check specs by syntax only).

Residency is byte-budgeted: after each query the pool sizes the
artifacts that query stored, and least-recently-used sessions are
invalidated and dropped until the pool fits the budget.  A session that
a request has acquired and not yet touched is never evicted, nor one
whose lock another thread holds: eviction takes the victim's lock
without waiting before it drops the session (a single oversized session
may therefore exceed the budget alone rather than thrash).  Sizing is
incremental: between invalidations a session's caches only grow, so
:meth:`touch` sizes only the entries stored since the last touch,
against one identity set per session (an object shared by several
artifacts counts once).  It runs under the session's lock, so it never
walks a cache that a query on another executor thread is filling.
Eviction goes through :meth:`TargetSession.invalidate`, so every dropped
artifact lands in the session's ``CacheStats.evictions`` — the pool
folds those counters into its lifetime totals, which ``/metrics``
exposes as ``repro_pool_evicted_artifacts_total``.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import BadRequest

__all__ = ["PooledSession", "SessionPool"]

#: Default residency budget: 256 MiB of estimated artifact bytes.
DEFAULT_BUDGET = 256 * 1024 * 1024


def estimate_nbytes(obj: object, _seen: Optional[set] = None) -> int:
    """Recursive resident-size estimate of one cached artifact.

    numpy arrays report their buffer size exactly; containers and plain
    objects recurse over their contents (a plain object's attribute
    values) with ``sys.getsizeof`` for the shells.  Shared sub-objects are
    counted once (identity-deduplicated), matching what eviction would
    actually free.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + sys.getsizeof(obj, 0)
    size = sys.getsizeof(obj, 64)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += estimate_nbytes(key, _seen)
            size += estimate_nbytes(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            size += estimate_nbytes(value, _seen)
    else:
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            # Not the dict shell: CPython sizes an instance dict's shared
            # keys only while no other instance shares them, so the
            # shell's size moves with other objects' lifetimes, and an
            # artifact sized once would seem to change.
            for value in attrs.values():
                size += estimate_nbytes(value, _seen)
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                size += estimate_nbytes(getattr(obj, slot), _seen)
    return size


def _caches(session, path: tuple = ()) -> Iterator[Tuple[tuple, dict]]:
    """(key path, artifact dict) of ``session`` and of every derived
    sub-session under it."""
    yield path, session._cache
    for key, child in session._children.items():
        yield from _caches(child, path + (key,))


class PooledSession:
    """One resident target session plus its pool bookkeeping."""

    def __init__(self, fingerprint: str, spec: str, session) -> None:
        self.fingerprint = fingerprint
        self.spec = spec
        self.session = session
        self.nbytes = 0
        self.queries = 0
        #: Acquisitions not yet ended by a touch (pool lock guards it):
        #: such a session is about to answer a query, so it is not
        #: evictable even before its request takes ``lock``.
        self.inflight = 0
        #: Serializes queries against this session: TargetSession is not
        #: thread-safe, and the server answers different targets'
        #: queries concurrently on executor threads.
        self.lock = threading.Lock()
        # Sizing state: ids of the objects counted so far, and how many
        # entries of each cache (by key path) have been sized.
        self._seen: set = set()
        self._sized: Dict[tuple, int] = {}
        self._invalidations = session.invalidations

    def refresh_nbytes(self) -> int:
        """Add the size of every artifact stored since the last refresh.

        Caller holds ``self.lock``.  Caches only grow between
        invalidations and dicts keep insertion order, so the entries past
        each cache's sized count are exactly the new ones; an
        invalidation starts the count over.
        """
        if self.session.invalidations != self._invalidations:
            self._invalidations = self.session.invalidations
            self._seen = set()
            self._sized = {}
            self.nbytes = 0
        for path, cache in _caches(self.session):
            start = self._sized.get(path, 0)
            if len(cache) > start:
                for entry in itertools.islice(cache.values(), start, None):
                    self.nbytes += estimate_nbytes(entry.value, self._seen)
                self._sized[path] = len(cache)
        return self.nbytes


class SessionPool:
    """LRU pool of :class:`TargetSession` keyed by target fingerprint."""

    def __init__(self, max_bytes: int = DEFAULT_BUDGET) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._sessions: "OrderedDict[str, PooledSession]" = OrderedDict()
        self._spec_fingerprints: Dict[str, str] = {}
        self._lock = threading.Lock()
        # Lifetime counters (survive eviction; /metrics exposes them).
        self.session_builds = 0
        self.session_hits = 0
        self.sessions_evicted = 0
        self.artifacts_evicted = 0

    # -- residency ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._sessions

    def bytes_resident(self) -> int:
        return sum(p.nbytes for p in self._sessions.values())

    def resident(self) -> List[PooledSession]:
        """Resident sessions, least-recently-used first."""
        return list(self._sessions.values())

    def iter_stats(self) -> Iterator[Tuple[str, object]]:
        """(fingerprint, CacheStats) per resident session, LRU first."""
        for pooled in self._sessions.values():
            yield pooled.fingerprint, pooled.session.stats

    # -- acquisition -------------------------------------------------------

    def acquire(self, target_spec: str) -> PooledSession:
        """The resident session for ``target_spec``, building on miss.

        Marks the session most-recently-used and in flight until the
        matching :meth:`touch`.  The build happens outside
        the pool lock (graph construction and embedding are real work);
        a concurrent build of the same fingerprint is resolved by
        last-writer-loses — the first registered session wins.  Raises
        :class:`BadRequest` when the spec's generator rejects it.
        """
        from ..engine.keys import target_fingerprint
        from ..engine.session import TargetSession

        with self._lock:
            fingerprint = self._spec_fingerprints.get(target_spec)
            if fingerprint is not None:
                pooled = self._sessions.get(fingerprint)
                if pooled is not None:
                    self._sessions.move_to_end(fingerprint)
                    self.session_hits += 1
                    pooled.inflight += 1
                    return pooled
        from .. import cli

        try:
            graph, embedding = cli.parse_target(target_spec)
        except SystemExit as exc:
            # Specs are checked by syntax only, so a family's generator
            # may still reject one (``grid:0x0``).  A SystemExit escaping
            # the executor would stop the daemon's event loop.
            raise BadRequest(str(exc)) from exc
        fingerprint = target_fingerprint(graph, embedding)
        with self._lock:
            self._spec_fingerprints[target_spec] = fingerprint
            pooled = self._sessions.get(fingerprint)
            if pooled is None:
                pooled = PooledSession(
                    fingerprint, target_spec, TargetSession(graph, embedding)
                )
                self._sessions[fingerprint] = pooled
                self.session_builds += 1
            else:
                self._sessions.move_to_end(fingerprint)
                self.session_hits += 1
            pooled.inflight += 1
            return pooled

    def touch(self, pooled: PooledSession) -> None:
        """End one acquisition of ``pooled``: size its new artifacts and
        evict LRU sessions over budget.  Sizing waits for the session's
        lock.  A session no longer pooled (dropped meanwhile) evicts
        nothing: its bytes are not the pool's.  A touch with no pending
        acquisition leaves the in-flight count at zero."""
        with pooled.lock:
            pooled.refresh_nbytes()
            pooled.queries += 1
        with self._lock:
            if pooled.inflight:
                pooled.inflight -= 1
            if self._sessions.get(pooled.fingerprint) is not pooled:
                return
            self._sessions.move_to_end(pooled.fingerprint)
            self._evict_over_budget(keep=pooled.fingerprint)

    def _evict_over_budget(self, keep: Optional[str] = None) -> None:
        """Drop LRU sessions until the pool fits ``max_bytes``.

        Caller holds ``self._lock``.  The ``keep`` session, sessions in
        flight and sessions whose lock is held elsewhere are skipped; a
        victim is dropped holding its lock, taken without waiting.
        """
        while self.bytes_resident() > self.max_bytes:
            for fingerprint, pooled in self._sessions.items():
                if (
                    fingerprint == keep
                    or pooled.inflight
                    or not pooled.lock.acquire(blocking=False)
                ):
                    continue
                try:
                    self._drop(fingerprint)
                finally:
                    pooled.lock.release()
                break
            else:
                return

    def _drop(self, fingerprint: str) -> None:
        pooled = self._sessions.pop(fingerprint)
        before = pooled.session.stats.eviction_count
        pooled.session.invalidate()
        self.artifacts_evicted += (
            pooled.session.stats.eviction_count - before
        )
        self.sessions_evicted += 1
        self._spec_fingerprints = {
            spec: fp
            for spec, fp in self._spec_fingerprints.items()
            if fp != fingerprint
        }

    def evict(self, fingerprint: str) -> bool:
        """Explicitly drop one session (e.g. an admin/testing hook)."""
        with self._lock:
            if fingerprint not in self._sessions:
                return False
            self._drop(fingerprint)
            return True

    def close(self) -> None:
        """Invalidate and drop every resident session."""
        with self._lock:
            for fingerprint in list(self._sessions):
                self._drop(fingerprint)
