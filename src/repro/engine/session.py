"""The target-session engine: one target graph, memoized derived artifacts.

Every per-query driver spends the bulk of its charged work on artifacts
determined by the *target* and the pattern's ``(k, d)`` alone — the
rotation-system embedding charge, EST clusterings, Theorem 2.4 k-d covers,
per-piece Baker/nice decompositions, the deterministic-count window
decompositions and the face--vertex graph G' — plus, one level up, the
per-piece DP solutions themselves, which are deterministic functions of
(piece, pattern, engine) and therefore cacheable like any artifact.  A :class:`TargetSession`
owns one target and memoizes those artifacts behind content-addressed keys
(see ``repro.engine.keys``), so an N-pattern workload pays one cover sweep
plus N cheap DP passes instead of N cold solves — the amortization
Eppstein's diameter-based approach exploits and the repeated-probe loop of
Theorem 4.2 performs internally.

Charged-cost policy (paper-faithful; see DESIGN.md, *Session engine &
caching*):

* construction cost is charged **once**, on first build, exactly as the
  cold driver would charge it;
* a cache hit charges ``Cost(0, 0)`` and records a zero-cost labeled leaf
  (with ``saved_work`` / ``saved_depth`` counters) in the caller's trace,
  so ``trace.cost == result.cost`` always holds;
* every result built over a session reports ``amortized=True`` whenever a
  hit occurred and a ``cold_equivalent_cost`` whose **work** equals the
  one-shot driver's charge exactly (work is additive, so where a skipped
  construction would have run does not matter) and whose **depth** is a
  conservative upper bound (skipped depth is re-added sequentially, while
  a cold run would absorb some of it under parallel-region maxima) —
  Table-1 comparisons against cold numbers stay honest.

Invalidation is explicit (:meth:`TargetSession.invalidate`); because every
key embeds the target fingerprint, a mutated target can never be served a
stale artifact even without invalidation — a new session over the mutated
graph addresses a disjoint key space (property-tested).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.csr import Graph
from ..planar.embedding import PlanarEmbedding
from ..planar.geometric import embedding_cost
from ..pram import Cost, Tracer
from .artifacts import ColdArtifacts
from .keys import (
    decomposition_fingerprint,
    graph_fingerprint,
    mask_fingerprint,
    pattern_fingerprint,
    piece_fingerprint,
    target_fingerprint,
)

__all__ = ["CacheStats", "TargetSession", "BatchResult"]


@dataclass
class _Entry:
    """One cached artifact: its value plus the cold construction cost a
    one-shot driver would charge for it (used for saved-cost accounting)."""

    value: object
    cold_cost: Cost


def _copy_result(result, **changes):
    """Copy of a driver result that shares no mutable field with it: its
    witness set or dict and its plan are copied too (the plan without its
    cost model, which keeps calibrating), so neither the cache nor any
    caller can change another's answer.  ``changes`` replace fields."""
    for f in dataclasses.fields(result):
        if f.name in changes:
            continue
        value = getattr(result, f.name)
        if f.name == "plan" and value is not None:
            changes["plan"] = dataclasses.replace(value, _model=None)
        elif isinstance(value, (set, dict, list)):
            changes[f.name] = copy.copy(value)
    return dataclasses.replace(result, **changes)


class _Amortization:
    """Mutable (hits, saved cost) accumulator shared by a session and its
    derived sub-sessions (vertex connectivity's G' session), so a driver's
    ``amortization_since`` sees hits that happened anywhere downstream."""

    __slots__ = ("hits", "saved")

    def __init__(self) -> None:
        self.hits = 0
        self.saved = Cost.zero()

    def record(self, saved: Cost) -> None:
        self.hits += 1
        self.saved = self.saved + saved


class CacheStats:
    """Counter surface of a session's cache: per-kind hits/misses plus the
    charged (built) and skipped (saved) cost totals.

    ``saved`` is the cost the cold drivers would have charged for the
    artifacts served from cache — the amortization a Table-1 style
    comparison must add back (``cold_equivalent_cost = cost + saved``).
    """

    def __init__(self) -> None:
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.evictions: Dict[str, int] = {}
        self.saved = Cost.zero()
        self.built = Cost.zero()

    def record_hit(self, kind: str, saved: Cost) -> None:
        self.hits[kind] = self.hits.get(kind, 0) + 1
        self.saved = self.saved + saved

    def record_miss(self, kind: str, built: Cost) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + 1
        self.built = self.built + built

    def record_eviction(self, kind: str, count: int = 1) -> None:
        self.evictions[kind] = self.evictions.get(kind, 0) + count

    @property
    def hit_count(self) -> int:
        return sum(self.hits.values())

    @property
    def miss_count(self) -> int:
        return sum(self.misses.values())

    @property
    def eviction_count(self) -> int:
        return sum(self.evictions.values())

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (the CLI's ``--session-stats``)."""
        return {
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "evictions": dict(self.evictions),
            "hit_count": self.hit_count,
            "miss_count": self.miss_count,
            "eviction_count": self.eviction_count,
            "saved_work": self.saved.work,
            "saved_depth": self.saved.depth,
            "built_work": self.built.work,
            "built_depth": self.built.depth,
        }

    def format(self) -> str:
        """Render the per-kind hit/miss table."""
        kinds = sorted(set(self.hits) | set(self.misses) | set(self.evictions))
        lines = [f"{'artifact':<16} {'hits':>8} {'misses':>8} {'evicted':>8}"]
        lines.append("-" * len(lines[0]))
        for kind in kinds:
            lines.append(
                f"{kind:<16} {self.hits.get(kind, 0):>8,}"
                f" {self.misses.get(kind, 0):>8,}"
                f" {self.evictions.get(kind, 0):>8,}"
            )
        lines.append(
            f"saved work={self.saved.work:,} depth={self.saved.depth:,}"
            f"  (built work={self.built.work:,})"
        )
        return "\n".join(lines)


@dataclass
class BatchResult:
    """Outcome of :meth:`TargetSession.decide_batch`.

    ``results[i]`` is the full per-query result for ``patterns[i]``, each
    byte-identical (verdict, witness, rounds) to the one-shot driver with
    the same seed.  ``cost`` sequentially composes the actually charged
    per-query costs; ``cold_equivalent_cost`` what N independent cold
    solves would have charged.
    """

    results: List
    cost: Cost
    cold_equivalent_cost: Cost
    amortized_queries: int
    cache_stats: dict = field(default_factory=dict)
    deduped_queries: int = 0
    shared: bool = False
    trace: Optional[object] = None

    @property
    def amortized(self) -> bool:
        return self.amortized_queries > 0


class TargetSession(ColdArtifacts):
    """A caching artifact provider bound to one target graph.

    Implements the same provider protocol as :class:`ColdArtifacts` (the
    drivers cannot tell them apart except through the amortization hooks)
    plus per-query wrapper methods (:meth:`decide`, :meth:`find_occurrence`,
    :meth:`list_occurrences`, :meth:`count_exact`,
    :meth:`decide_separating`, :meth:`vertex_connectivity`) and the batched
    :meth:`decide_batch`.

    Parameters
    ----------
    graph:
        The target.  Immutable (as all :class:`Graph` are); mutations must
        go through a new session (content keys make stale serving
        impossible regardless).
    embedding:
        A genus-0 rotation system for ``graph``.  When omitted, one is
        computed once (the memoized "rotation-system embedding" artifact)
        via the DMP embedder.
    """

    caching = True

    def __init__(
        self,
        graph: Graph,
        embedding: Optional[PlanarEmbedding] = None,
        stats: Optional[CacheStats] = None,
        _amort: Optional[_Amortization] = None,
    ) -> None:
        if embedding is None:
            from ..planar.dmp import embed_planar

            embedding = embed_planar(graph)
        super().__init__(graph, embedding)
        self.target_key = target_fingerprint(graph, embedding)
        self.stats = stats if stats is not None else CacheStats()
        self._amort = _amort if _amort is not None else _Amortization()
        self._cache: Dict[tuple, _Entry] = {}
        self._children: Dict[tuple, "TargetSession"] = {}
        #: Calls of :meth:`invalidate`; between two of them the caches
        #: only grow (the pool sizes new entries by that).
        self.invalidations = 0

    # -- cache plumbing ----------------------------------------------------

    def derived_keys(self) -> List[tuple]:
        """Every content-addressed key currently held (children included)."""
        keys = list(self._cache.keys())
        for key, child in self._children.items():
            keys.append(key)
            keys.extend(child.derived_keys())
        return keys

    def invalidate(self) -> None:
        """Drop every cached artifact (and derived sub-sessions).  Stats
        keep accumulating across invalidations; each dropped entry is
        recorded as an eviction under its artifact kind — including the
        ``("subsession", fp)`` keys themselves, which hold the derived
        child sessions: they are derived keys like any other (they appear
        in :meth:`derived_keys`, which the pool's LRU accounts by), so
        dropping one is an eviction too."""
        for key in self._cache:
            self.stats.record_eviction(key[0])
        for key, child in self._children.items():
            self.stats.record_eviction(key[0])
            child.invalidate()
        self._cache.clear()
        self._children.clear()
        self.invalidations += 1

    def _hit(self, kind: str, entry: _Entry, tracer: Optional[Tracer]):
        self.stats.record_hit(kind, entry.cold_cost)
        self._amort.record(entry.cold_cost)
        if tracer is not None:
            tracer.charge(
                Cost.zero(),
                label=f"{kind}-cached",
                amortized=1,
                saved_work=entry.cold_cost.work,
                saved_depth=entry.cold_cost.depth,
            )
        return entry.value

    def _store(self, kind: str, key: tuple, value, cold_cost: Cost) -> None:
        self.stats.record_miss(kind, cold_cost)
        self._cache[key] = _Entry(value, cold_cost)

    # -- the provider protocol (caching overrides) -------------------------

    def charge_embedding(self, tracer: Tracer) -> None:
        key = ("embed", self.target_key)
        entry = self._cache.get(key)
        if entry is not None:
            self._hit("embed", entry, tracer)
            return
        cost = embedding_cost(self.graph.n)
        tracer.charge(cost, label="embed")
        self._store("embed", key, None, cost)

    def _clustering(
        self, beta: float, seed: int, tracer: Tracer
    ) -> Tuple[object, Cost]:
        """Per-``(beta, seed)`` EST clustering; returns (clustering, the
        cold construction cost, charged only on first build)."""
        key = ("clustering", self.target_key, float(beta), int(seed))
        entry = self._cache.get(key)
        if entry is not None:
            return self._hit("clustering", entry, tracer), entry.cold_cost
        from ..cluster.est import est_clustering

        clustering, cost = est_clustering(
            self.graph, beta=beta, seed=seed, tracer=tracer
        )
        self._store("clustering", key, clustering, cost)
        return clustering, cost

    def cover(self, k: int, d: int, seed: int, tracer: Tracer):
        key = ("cover", self.target_key, int(k), int(d), int(seed))
        entry = self._cache.get(key)
        if entry is not None:
            return self._hit("cover", entry, tracer)
        from ..isomorphism.cover import treewidth_cover

        clustering, cl_cost = self._clustering(2.0 * k, seed, tracer)
        cover = treewidth_cover(
            self.graph, self.embedding, k, d, seed=seed, tracer=tracer,
            clustering=clustering,
        )
        # The cold-equivalent cover cost includes the clustering a cold
        # build would run inline (the cover span above charged only the
        # windows/decompositions when the clustering came from cache).
        self._store("cover", key, cover, cl_cost + cover.cost)
        return cover

    def separating_cover(
        self, marked: np.ndarray, k: int, d: int, seed: int, tracer: Tracer
    ):
        key = (
            "sep-cover",
            self.target_key,
            mask_fingerprint(np.asarray(marked, dtype=bool)),
            int(k),
            int(d),
            int(seed),
        )
        entry = self._cache.get(key)
        if entry is not None:
            return self._hit("sep-cover", entry, tracer)
        from ..separating.cover import separating_cover

        clustering, cl_cost = self._clustering(2.0 * k, seed, tracer)
        cover = separating_cover(
            self.graph, self.embedding, marked, k, d, seed=seed,
            tracer=tracer, clustering=clustering,
        )
        self._store("sep-cover", key, cover, cl_cost + cover.cost)
        return cover

    def nice(self, decomposition, tracer: Optional[Tracer]):
        key = ("nice", self.target_key, decomposition_fingerprint(decomposition))
        entry = self._cache.get(key)
        if entry is not None:
            return self._hit("nice", entry, tracer)
        from ..treedecomp.nice import make_nice

        nice, cost = make_nice(decomposition.binarize(), tracer=tracer)
        self._store("nice", key, nice, cost)
        return nice

    def window_decomposition(self, subgraph, tracer: Tracer):
        key = ("window", self.target_key, graph_fingerprint(subgraph))
        entry = self._cache.get(key)
        if entry is not None:
            return self._hit("window", entry, tracer)
        from ..treedecomp.minfill import minfill_decomposition
        from ..treedecomp.nice import make_nice

        td, td_cost = minfill_decomposition(subgraph, tracer=tracer)
        nice, nice_cost = make_nice(td.binarize(), tracer=tracer)
        self._store("window", key, nice, td_cost + nice_cost)
        return nice

    def _piece_key(
        self, piece, pattern, engine: str, want_witness: bool, kernel: str
    ) -> tuple:
        return (
            "piece-dp",
            self.target_key,
            piece_fingerprint(piece),
            graph_fingerprint(pattern.graph),
            engine,
            kernel,
            bool(want_witness),
        )

    def solve_piece(
        self, piece, pattern, engine: str, tracer: Tracer,
        want_witness: bool, kernel: str = "packed",
    ):
        hit, value = self.piece_solution_cached(
            piece, pattern, engine, tracer, want_witness, kernel
        )
        if hit:
            return value
        # The stored cold cost must equal what a one-shot driver charges for
        # this piece: the charged delta on the branch tracer *plus* whatever
        # nested artifacts (the nice decomposition) were themselves served
        # from cache during the build.
        before = tracer.cost
        mark = self.amortization_mark()
        witness = super().solve_piece(
            piece, pattern, engine, tracer, want_witness, kernel
        )
        after = tracer.cost
        _, nested_saved = self.amortization_since(mark)
        charged = Cost(after.work - before.work, after.depth - before.depth)
        self.store_piece_solution(
            piece, pattern, engine, want_witness, kernel, witness,
            charged + nested_saved,
        )
        return witness

    def piece_solution_cached(
        self, piece, pattern, engine: str, tracer: Tracer,
        want_witness: bool, kernel: str = "packed",
    ):
        key = self._piece_key(piece, pattern, engine, want_witness, kernel)
        entry = self._cache.get(key)
        if entry is not None:
            return (True, self._hit("piece-dp", entry, tracer))
        return (False, None)

    def store_piece_solution(
        self, piece, pattern, engine: str, want_witness: bool,
        kernel: str, value, cold_cost: Cost,
    ) -> None:
        key = self._piece_key(piece, pattern, engine, want_witness, kernel)
        self._store("piece-dp", key, value, cold_cost)

    def _subpattern_key(self, piece, canon: Tuple[int, int]) -> tuple:
        return ("piece-sub", self.target_key, piece_fingerprint(piece), canon)

    def subpattern_cached(
        self, piece, canon: Tuple[int, int], tracer: Optional[Tracer]
    ) -> Tuple[bool, object]:
        """Shared-subpattern occurrence table of ``piece`` for the
        canonical subpattern ``canon`` (``repro.engine.shared``) — cached
        like any derived artifact, so a repeated shared batch skips the
        extension cascade outright."""
        entry = self._cache.get(self._subpattern_key(piece, canon))
        if entry is not None:
            return (True, self._hit("piece-sub", entry, tracer))
        return (False, None)

    def store_subpattern(
        self, piece, canon: Tuple[int, int], table, cold_cost: Cost
    ) -> None:
        self._store(
            "piece-sub", self._subpattern_key(piece, canon), table, cold_cost
        )

    def face_vertex(self, tracer: Tracer):
        key = ("face-vertex", self.target_key)
        entry = self._cache.get(key)
        if entry is not None:
            return self._hit("face-vertex", entry, tracer)
        from ..planar.face_vertex import build_face_vertex_graph

        fv, fcost = build_face_vertex_graph(self.embedding)
        tracer.charge(fcost, label="face-vertex")
        self._store("face-vertex", key, fv, fcost)
        return fv

    def sub_provider(self, graph, embedding) -> "TargetSession":
        key = ("subsession", target_fingerprint(graph, embedding))
        child = self._children.get(key)
        if child is None:
            child = TargetSession(
                graph, embedding, stats=self.stats, _amort=self._amort
            )
            # Derived sub-sessions share the parent's once-per-kind
            # PackedOverflowWarning scope: one session, one warning.
            child.overflow_warned = self.overflow_warned
            self._children[key] = child
        return child

    # -- amortization hooks ------------------------------------------------

    def amortization_mark(self) -> Tuple[int, Cost]:
        return (self._amort.hits, self._amort.saved)

    def amortization_since(self, mark: Tuple[int, Cost]) -> Tuple[int, Cost]:
        hits0, saved0 = mark
        saved = Cost(
            self._amort.saved.work - saved0.work,
            self._amort.saved.depth - saved0.depth,
        )
        return (self._amort.hits - hits0, saved)

    # -- per-query wrappers ------------------------------------------------

    def decide(self, pattern, seed: int = 0, **kwargs):
        """Session-backed :func:`~repro.isomorphism.planar_si.decide_subgraph_isomorphism`."""
        from ..isomorphism.planar_si import decide_subgraph_isomorphism

        return decide_subgraph_isomorphism(
            self.graph, self.embedding, pattern, seed, artifacts=self,
            **kwargs,
        )

    def find_occurrence(self, pattern, seed: int = 0, **kwargs):
        """Session-backed :func:`~repro.isomorphism.planar_si.find_occurrence`."""
        from ..isomorphism.planar_si import find_occurrence

        return find_occurrence(
            self.graph, self.embedding, pattern, seed, artifacts=self,
            **kwargs,
        )

    def list_occurrences(
        self, pattern, seed: int = 0, engine: Optional[str] = None,
        confidence_log_factor: float = 1.0,
        max_iterations: Optional[int] = None, backend=None, plan=None,
    ):
        """Session-backed :func:`~repro.isomorphism.listing.list_occurrences`;
        a repeated query is answered from the cache (see :meth:`_answer`)."""
        from ..isomorphism.listing import list_occurrences

        return self._answer(
            "list-answer", "list-occurrences", plan,
            (
                pattern_fingerprint(pattern), int(seed), engine,
                float(confidence_log_factor), max_iterations,
            ),
            lambda: list_occurrences(
                self.graph, self.embedding, pattern, seed, engine=engine,
                confidence_log_factor=confidence_log_factor,
                max_iterations=max_iterations, artifacts=self,
                backend=backend, plan=plan,
            ),
        )

    def count_exact(self, pattern, backend=None, plan=None):
        """Session-backed :func:`~repro.isomorphism.counting.count_occurrences_exact`;
        a repeated query is answered from the cache (see :meth:`_answer`)."""
        from ..isomorphism.counting import count_occurrences_exact

        return self._answer(
            "count-answer", "count-exact", plan,
            (pattern_fingerprint(pattern),),
            lambda: count_occurrences_exact(
                self.graph, self.embedding, pattern, artifacts=self,
                backend=backend, plan=plan,
            ),
        )

    def decide_separating(self, marked, pattern, seed: int = 0, **kwargs):
        """Session-backed :func:`~repro.separating.driver.decide_separating_isomorphism`."""
        from ..separating.driver import decide_separating_isomorphism

        return decide_separating_isomorphism(
            self.graph, self.embedding, marked, pattern, seed,
            artifacts=self, **kwargs,
        )

    def vertex_connectivity(
        self, seed: int = 0, engine: Optional[str] = None,
        rounds: Optional[int] = None, want_certificate: bool = False,
        backend=None, plan=None,
    ):
        """Session-backed :func:`~repro.connectivity.planar_vc.planar_vertex_connectivity`;
        a repeated query is answered from the cache (see :meth:`_answer`)."""
        from ..connectivity.planar_vc import planar_vertex_connectivity

        return self._answer(
            "vc-answer", "planar-vc", plan,
            (int(seed), engine, rounds, bool(want_certificate)),
            lambda: planar_vertex_connectivity(
                self.graph, self.embedding, seed=seed, engine=engine,
                rounds=rounds, want_certificate=want_certificate,
                artifacts=self, backend=backend, plan=plan,
            ),
        )

    def _answer(
        self, kind: str, root: str, plan, args: tuple, solve: Callable
    ):
        """The cached answer of a list, count or connectivity query.

        ``args`` holds every argument besides ``plan`` that can change the
        answer or its plan (the backend cannot).  A miss runs ``solve()``
        and stores a copy of its result without the span tree; a hit
        returns a zero-cost copy (see :meth:`_cached_result`) whose
        ``cold_equivalent_cost`` is the first answer's, so its work stays
        exactly the one-shot charge.  A query planned by a
        :class:`~repro.engine.planner.QueryPlan` object always runs.
        """
        if plan is not None and not isinstance(plan, str):
            return solve()
        key = (kind, self.target_key, plan) + args
        entry = self._cache.get(key)
        if entry is not None:
            return self._cached_result(
                entry.value, kind, root, entry.cold_cost
            )
        result = solve()
        self._store(
            kind, key, _copy_result(result, trace=None),
            result.cold_equivalent_cost,
        )
        return result

    def decide_batch(
        self, patterns: Sequence, seed: int = 0, plan=None, **kwargs
    ) -> BatchResult:
        """Decide every pattern against this target, sharing artifacts.

        Identical in-flight patterns are deduplicated first (request
        coalescing): each distinct pattern is solved once and the result
        fanned out in input order — duplicate entries carry a zero-cost
        trace, count as ``batch-dedup`` hits in :class:`CacheStats`, and
        keep the original's ``cold_equivalent_cost`` so Table-1 style
        accounting still reflects every query.

        With ``plan=None`` (default), queries run in input order with the
        *same seed schedule* the one-shot driver uses, so ``results[i]``
        is byte-identical (verdict, witness, rounds used) to
        ``decide_subgraph_isomorphism(graph, embedding, patterns[i], seed)``.
        Patterns of equal ``(k, d)`` share one cover sweep per round;
        patterns of equal ``k`` additionally share the per-seed EST
        clusterings; every query after the first reuses the per-piece nice
        decompositions, and *repeated* patterns reuse the per-piece DP
        solutions outright — that is where the >=3x warm wall-clock win of
        ``benchmarks/bench_batch.py`` comes from.

        With ``plan="auto"`` the planner takes over: batches of two or
        more distinct connected patterns run the shared-subpattern path
        (``repro.engine.shared``) — one Theorem 2.4 cover per round at
        ``(k_max, d_max)`` and per-piece occurrence tables computed once
        per shared canonical subpattern.  Verdicts keep the one-sided
        Monte Carlo guarantee but draw different covers, so they are
        verdict-equal, not byte-identical, to the per-pattern path (which
        is why sharing is opt-in).  The shared charge lives on
        ``BatchResult.cost``/``trace``; per-result costs are zero.
        """
        unique: List = []
        assign: List[int] = []
        index_of: Dict[str, int] = {}
        for pattern in patterns:
            fp = pattern_fingerprint(pattern)
            if fp not in index_of:
                index_of[fp] = len(unique)
                unique.append(pattern)
            assign.append(index_of[fp])
        deduped = len(patterns) - len(unique)

        if (
            plan == "auto"
            and len(unique) >= 2
            and all(p.is_connected() for p in unique)
        ):
            return self._decide_batch_shared(
                unique, assign, deduped, seed, **kwargs
            )

        unique_results: List = []
        total = Cost.zero()
        cold = Cost.zero()
        amortized_queries = 0
        results: List = []
        for i, pattern in enumerate(patterns):
            uidx = assign[i]
            if uidx < len(unique_results):
                original = unique_results[uidx]
                # The saved cost is the warm re-solve the duplicate skips.
                result = self._cached_result(
                    original, "batch-dedup", "decide-si", original.cost
                )
            else:
                result = self.decide(
                    pattern, seed=seed, plan=plan, **kwargs
                )
                unique_results.append(result)
            results.append(result)
            total = total + result.cost
            cold = cold + (result.cold_equivalent_cost or result.cost)
            if result.amortized:
                amortized_queries += 1
        return BatchResult(
            results=results,
            cost=total,
            cold_equivalent_cost=cold,
            amortized_queries=amortized_queries,
            cache_stats=self.stats.as_dict(),
            deduped_queries=deduped,
        )

    def _cached_result(self, original, kind: str, root: str, saved: Cost):
        """Zero-cost copy of an answered query's result: same answer (see
        :func:`_copy_result`), zero charged cost (a fresh trace ``root``
        with one zero-cost ``<kind>-cached`` leaf keeps
        ``result.trace.cost == result.cost``), the original's
        cold-equivalent charge, and a ``kind`` CacheStats hit whose saved
        cost is ``saved``."""
        tracer = Tracer(root)
        self._hit(kind, _Entry(original, saved), tracer)
        return _copy_result(
            original,
            cost=Cost.zero(),
            trace=tracer.root,
            amortized=True,
            cold_equivalent_cost=(
                original.cold_equivalent_cost or original.cost
            ),
        )

    def _decide_batch_shared(
        self, unique: List, assign: List[int], deduped: int, seed: int,
        **kwargs,
    ) -> BatchResult:
        """The ``plan="auto"`` shared-subpattern path (see
        :meth:`decide_batch`)."""
        from .shared import decide_batch_shared

        shared_kwargs = {
            key: value
            for key, value in kwargs.items()
            if key in (
                "rounds", "confidence_log_factor", "want_witness",
                "engine", "kernel", "cap",
            )
            and value is not None
        }
        mark = self.amortization_mark()
        unique_results, tracer = decide_batch_shared(
            self, unique, seed=seed, **shared_kwargs
        )
        _, saved = self.amortization_since(mark)
        for _ in range(deduped):
            self.stats.record_hit("batch-dedup", Cost.zero())
        results = [unique_results[uidx] for uidx in assign]
        return BatchResult(
            results=results,
            cost=tracer.cost,
            cold_equivalent_cost=tracer.cost + saved,
            amortized_queries=len(results),
            cache_stats=self.stats.as_dict(),
            deduped_queries=deduped,
            shared=True,
            trace=tracer.root,
        )
