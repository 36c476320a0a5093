"""Target-session engine tests: cache-key soundness, cost accounting and
session ≡ one-shot equivalence for every refactored driver."""

import numpy as np
from hypothesis import given, note, settings
from hypothesis import strategies as st

from repro.baselines import count_isomorphisms
from repro.connectivity import planar_vertex_connectivity
from repro.engine import ColdArtifacts, TargetSession, graph_fingerprint
from repro.graphs import (
    Graph,
    grid_graph,
    outerplanar_graph,
    random_tree,
    wheel_graph,
)
from repro.isomorphism import (
    count_occurrences_exact,
    cycle_pattern,
    decide_subgraph_isomorphism,
    diamond,
    find_occurrence,
    list_occurrences,
    path_pattern,
    star_pattern,
    triangle,
)
from repro.planar import embed_geometric, embed_planar
from repro.pram import Cost
from repro.separating.driver import decide_separating_isomorphism


def _grid(rows, cols):
    gg = grid_graph(rows, cols)
    emb, _ = embed_geometric(gg)
    return gg.graph, emb


def _cover_bytes(cover):
    """Canonical byte serialization of a treewidth cover (piece graphs,
    original-vertex maps and decomposition bags)."""
    chunks = []
    for piece in cover.pieces:
        chunks.append(np.asarray(piece.graph.edges(), dtype=np.int64).tobytes())
        chunks.append(np.asarray(piece.originals, dtype=np.int64).tobytes())
        td = piece.decomposition
        chunks.append(np.asarray(td.parent, dtype=np.int64).tobytes())
        for bag in td.bags:
            chunks.append(np.asarray(bag, dtype=np.int64).tobytes())
    return b"".join(chunks)


class TestKeySoundness:
    def test_target_mutation_disjoint_key_space(self):
        graph, emb = _grid(5, 5)
        s1 = TargetSession(graph, emb)
        s1.decide(cycle_pattern(4), seed=3)
        s1.count_exact(triangle())

        # Mutate the target: drop one edge (stays planar/embeddable).
        edges = graph.edges()
        mutated = Graph(graph.n, edges[:-1])
        s2 = TargetSession(mutated, embed_planar(mutated))
        s2.decide(cycle_pattern(4), seed=3)
        s2.count_exact(triangle())

        k1, k2 = set(s1.derived_keys()), set(s2.derived_keys())
        assert k1 and k2
        assert not (k1 & k2)

    @given(n=st.integers(4, 24), seed=st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_any_tree_mutation_changes_every_key(self, n, seed):
        note(f"tree n={n} seed={seed}")
        tree = random_tree(n, seed=seed)
        emb = embed_planar(tree)
        s1 = TargetSession(tree, emb)
        s1.decide(path_pattern(3), seed=seed, rounds=1)

        mutated = Graph(
            tree.n + 1,
            [tuple(e) for e in tree.edges()] + [(tree.n - 1, tree.n)],
        )
        s2 = TargetSession(mutated, embed_planar(mutated))
        s2.decide(path_pattern(3), seed=seed, rounds=1)
        assert not (set(s1.derived_keys()) & set(s2.derived_keys()))

    def test_equal_seeds_byte_identical_covers(self):
        graph, emb = _grid(6, 6)
        a = TargetSession(graph, emb)
        b = TargetSession(graph, emb)
        from repro.pram import Tracer

        ca = a.cover(4, 2, 17, Tracer("a"))
        cb = b.cover(4, 2, 17, Tracer("b"))
        assert _cover_bytes(ca) == _cover_bytes(cb)
        # ... and a cache hit returns the same object.
        assert a.cover(4, 2, 17, Tracer("a2")) is ca

    def test_different_seed_different_key(self):
        graph, emb = _grid(5, 5)
        s = TargetSession(graph, emb)
        from repro.pram import Tracer

        s.cover(4, 2, 1, Tracer("t"))
        s.cover(4, 2, 2, Tracer("t"))
        cover_keys = [k for k in s.derived_keys() if k[0] == "cover"]
        assert len(cover_keys) == len(set(cover_keys)) == 2

    def test_graph_fingerprint_sensitivity(self):
        g1 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        g2 = Graph(4, [(0, 1), (1, 2), (1, 3)])
        g3 = Graph(5, [(0, 1), (1, 2), (2, 3)])
        fps = {graph_fingerprint(g) for g in (g1, g2, g3)}
        assert len(fps) == 3

    def test_invalidate_drops_keys_keeps_stats(self):
        graph, emb = _grid(5, 5)
        s = TargetSession(graph, emb)
        s.decide(cycle_pattern(4), seed=0)
        misses_before = s.stats.miss_count
        assert s.derived_keys()
        s.invalidate()
        assert not s.derived_keys()
        assert s.stats.miss_count == misses_before
        # Rebuilding after invalidation is a miss again, not a hit.
        hits_before = s.stats.hit_count
        r = s.decide(cycle_pattern(4), seed=0)
        assert r.found
        assert s.stats.miss_count > misses_before
        assert s.stats.hit_count == hits_before

    def test_invalidate_records_evictions(self):
        graph, emb = _grid(5, 5)
        s = TargetSession(graph, emb)
        assert s.stats.eviction_count == 0
        s.decide(cycle_pattern(4), seed=0)
        held = len(s.derived_keys())
        assert held > 0 and not s._children
        s.invalidate()
        # Every dropped entry is an eviction.
        assert s.stats.eviction_count == held
        assert set(s.stats.evictions) <= set(s.stats.misses)
        evicted_once = s.stats.eviction_count
        # Invalidate-then-rebuild accounting: the rebuild re-misses, a
        # second invalidate evicts the rebuilt entries again.
        s.decide(cycle_pattern(4), seed=0)
        s.invalidate()
        assert s.stats.eviction_count > evicted_once
        assert "cover" in s.stats.evictions
        d = s.stats.as_dict()
        assert d["eviction_count"] == s.stats.eviction_count
        assert d["evictions"] == s.stats.evictions
        assert "evicted" in s.stats.format()

    def test_invalidate_records_child_session_evictions(self):
        """The ("subsession", fp) keys held in _children are derived keys
        like any other: invalidate() must record them as evictions too, so
        evictions == derived_keys() exactly (the pool's LRU accounts by
        derived keys)."""
        gg = wheel_graph(6)
        emb, _ = embed_geometric(gg)
        s = TargetSession(gg.graph, emb)
        s.vertex_connectivity(seed=0, rounds=1)
        held = s.derived_keys()
        assert s._children, "vc should have built the G' sub-session"
        # derived_keys counts the child keys themselves plus everything
        # the children hold.
        assert len(held) > len(s._cache)
        s.invalidate()
        assert s.stats.eviction_count == len(held)
        assert s.stats.evictions.get("subsession", 0) == sum(
            1 for key in held if key[0] == "subsession"
        )


class TestSessionEqualsOneShot:
    PATTERNS = [
        cycle_pattern(4),
        path_pattern(4),
        star_pattern(3),
        diamond(),
        triangle(),
    ]

    def test_decide_parity_and_cost_invariants(self):
        graph, emb = _grid(6, 6)
        session = TargetSession(graph, emb)
        for i, pattern in enumerate(self.PATTERNS):
            cold = decide_subgraph_isomorphism(graph, emb, pattern, seed=7)
            warm = session.decide(pattern, seed=7)
            assert cold.found == warm.found
            assert cold.rounds_used == warm.rounds_used
            # One-shot results never amortize and report their own cost.
            assert not cold.amortized
            assert cold.cold_equivalent_cost == cold.cost
            # Session traces stay internally consistent ...
            assert warm.trace.cost == warm.cost
            # ... and the cold-equivalent work is exactly the one-shot work
            # (depth re-adds skipped charges sequentially: upper bound).
            assert warm.cold_equivalent_cost.work == cold.cost.work
            assert warm.cold_equivalent_cost.depth >= cold.cost.depth
            assert warm.cost.work <= cold.cost.work

    def test_find_occurrence_witness_parity(self):
        graph, emb = _grid(6, 6)
        session = TargetSession(graph, emb)
        cold = find_occurrence(graph, emb, cycle_pattern(4), seed=5)
        warm = session.find_occurrence(cycle_pattern(4), seed=5)
        assert cold.found and warm.found
        assert cold.witness == warm.witness

    def test_repeat_query_fully_amortized(self):
        graph, emb = _grid(6, 6)
        session = TargetSession(graph, emb)
        first = session.decide(diamond(), seed=11)
        second = session.decide(diamond(), seed=11)
        assert first.found == second.found
        assert first.rounds_used == second.rounds_used
        assert second.amortized
        assert second.cost.work < first.cold_equivalent_cost.work
        assert second.cold_equivalent_cost.work == \
            first.cold_equivalent_cost.work

    def test_listing_parity(self):
        graph, emb = _grid(5, 5)
        session = TargetSession(graph, emb)
        cold = list_occurrences(graph, emb, path_pattern(3), seed=2)
        warm = session.list_occurrences(path_pattern(3), seed=2)
        assert cold.witnesses == warm.witnesses
        assert cold.iterations == warm.iterations
        assert warm.trace.cost == warm.cost

    def test_exact_count_parity_and_oracle(self):
        graph, emb = _grid(5, 5)
        session = TargetSession(graph, emb)
        for pattern in (path_pattern(3), triangle(), cycle_pattern(4)):
            cold = count_occurrences_exact(graph, emb, pattern)
            warm = session.count_exact(pattern)
            assert cold.isomorphisms == warm.isomorphisms
            assert cold.isomorphisms == count_isomorphisms(pattern, graph)
            assert warm.cold_equivalent_cost.work == cold.cost.work

    def test_separating_parity(self):
        graph, emb = _grid(5, 5)
        marked = np.zeros(graph.n, dtype=bool)
        marked[[0, graph.n - 1]] = True
        session = TargetSession(graph, emb)
        cold = decide_separating_isomorphism(
            graph, emb, marked, cycle_pattern(4), seed=9
        )
        warm = session.decide_separating(marked, cycle_pattern(4), seed=9)
        assert cold.found == warm.found
        assert cold.rounds_used == warm.rounds_used
        assert warm.cold_equivalent_cost.work == cold.cost.work

    def test_vertex_connectivity_parity_and_subsession(self):
        gg = wheel_graph(8)
        emb, _ = embed_geometric(gg)
        session = TargetSession(gg.graph, emb)
        cold = planar_vertex_connectivity(gg.graph, emb, seed=1)
        warm = session.vertex_connectivity(seed=1)
        again = session.vertex_connectivity(seed=1)
        assert cold.connectivity == warm.connectivity == again.connectivity
        assert warm.cold_equivalent_cost.work == cold.cost.work
        # The repeat run serves G', its covers and decompositions from the
        # shared sub-session cache.
        assert again.amortized
        assert again.cost.work < cold.cost.work
        assert any(k[0] == "subsession" for k in session.derived_keys())


class TestBatch:
    def test_decide_batch_matches_one_shot(self):
        graph, emb = _grid(6, 6)
        patterns = [
            cycle_pattern(4), path_pattern(4), star_pattern(3), diamond(),
            cycle_pattern(4),  # repeat: fully amortized
        ]
        session = TargetSession(graph, emb)
        batch = session.decide_batch(patterns, seed=7)
        assert len(batch.results) == len(patterns)
        total = Cost.zero()
        for pattern, result in zip(patterns, batch.results):
            cold = decide_subgraph_isomorphism(graph, emb, pattern, seed=7)
            assert result.found == cold.found
            assert result.rounds_used == cold.rounds_used
            assert result.cold_equivalent_cost.work == cold.cost.work
            assert result.trace.cost == result.cost
            total = total + result.cost
        assert batch.cost == total
        assert batch.amortized
        assert batch.amortized_queries >= 2
        assert batch.cost.work < batch.cold_equivalent_cost.work
        assert batch.cache_stats["hit_count"] > 0

    def test_batch_empty(self):
        graph, emb = _grid(3, 3)
        batch = TargetSession(graph, emb).decide_batch([])
        assert batch.results == []
        assert batch.cost == Cost.zero()
        assert not batch.amortized


class TestColdProvider:
    def test_cold_artifacts_never_amortize(self):
        graph, emb = _grid(4, 4)
        cold = ColdArtifacts(graph, emb)
        mark = cold.amortization_mark()
        from repro.pram import Tracer

        cold.cover(3, 2, 0, Tracer("t"))
        hits, saved = cold.amortization_since(mark)
        assert hits == 0 and saved == Cost.zero()
        assert not cold.caching

    def test_session_embedding_computed_when_omitted(self):
        graph, _ = _grid(4, 4)
        session = TargetSession(graph)
        result = session.decide(triangle(), seed=0, rounds=2)
        assert not result.found  # grids are bipartite

    def test_outerplanar_session(self):
        gg = outerplanar_graph(14, seed=3)
        emb, _ = embed_geometric(gg)
        session = TargetSession(gg.graph, emb)
        cold = decide_subgraph_isomorphism(gg.graph, emb, triangle(), seed=4)
        warm = session.decide(triangle(), seed=4)
        assert cold.found == warm.found


class TestStats:
    def test_stats_surface(self):
        graph, emb = _grid(5, 5)
        session = TargetSession(graph, emb)
        session.decide(cycle_pattern(4), seed=0)
        session.decide(cycle_pattern(4), seed=0)
        d = session.stats.as_dict()
        assert d["hit_count"] == sum(d["hits"].values())
        assert d["miss_count"] == sum(d["misses"].values())
        assert d["hit_count"] > 0 and d["miss_count"] > 0
        assert d["saved_work"] > 0
        assert d["built_work"] > 0
        text = session.stats.format()
        assert "cover" in text and "hits" in text

    def test_hit_leaves_charge_zero_and_carry_counters(self):
        graph, emb = _grid(5, 5)
        session = TargetSession(graph, emb)
        session.decide(star_pattern(3), seed=1)
        warm = session.decide(star_pattern(3), seed=1)

        cached_leaves = []

        def walk(span):
            if span.name.endswith("-cached"):
                cached_leaves.append(span)
            for child in span.children:
                walk(child)

        walk(warm.trace)
        assert cached_leaves
        for leaf in cached_leaves:
            assert leaf.cost == Cost.zero()
            assert leaf.counters.get("amortized") == 1
            assert leaf.counters.get("saved_work", 0) >= 0


class TestAnswerCache:
    """Repeated list, exact-count and connectivity queries are answered
    from the cache: zero charged cost, one ``<kind>-cached`` leaf, and the
    first answer's cold-equivalent charge (the one-shot work, exactly)."""

    def _cases(self, graph, emb, session):
        return [
            (
                "list-answer",
                lambda: session.list_occurrences(path_pattern(3), seed=2),
                lambda: list_occurrences(graph, emb, path_pattern(3), seed=2),
                lambda r: r.witnesses,
            ),
            (
                "count-answer",
                lambda: session.count_exact(cycle_pattern(4)),
                lambda: count_occurrences_exact(graph, emb, cycle_pattern(4)),
                lambda r: r.isomorphisms,
            ),
            (
                "vc-answer",
                lambda: session.vertex_connectivity(seed=1, rounds=1),
                lambda: planar_vertex_connectivity(
                    graph, emb, seed=1, rounds=1
                ),
                lambda r: r.connectivity,
            ),
        ]

    def test_repeat_is_a_zero_cost_hit_with_one_shot_cold_work(self):
        graph, emb = _grid(5, 5)
        session = TargetSession(graph, emb)
        for kind, warm, cold, answer in self._cases(graph, emb, session):
            first = warm()
            misses = session.stats.misses[kind]
            again = warm()
            one_shot = cold()
            assert answer(again) == answer(first) == answer(one_shot)
            assert session.stats.misses[kind] == misses == 1
            assert session.stats.hits[kind] == 1
            assert again.cost == Cost.zero()
            assert again.trace.cost == again.cost
            assert [c.name for c in again.trace.children] == [
                f"{kind}-cached"
            ]
            assert again.amortized
            assert again.cold_equivalent_cost == first.cold_equivalent_cost
            assert again.cold_equivalent_cost.work == one_shot.cost.work

    def test_answers_are_copied_in_and_out(self):
        graph, emb = _grid(4, 4)
        session = TargetSession(graph, emb)
        first = session.list_occurrences(cycle_pattern(4), seed=0)
        expected = set(first.witnesses)
        assert expected
        first.witnesses.clear()
        again = session.list_occurrences(cycle_pattern(4), seed=0)
        assert again.witnesses == expected
        again.witnesses.clear()
        third = session.list_occurrences(cycle_pattern(4), seed=0)
        assert third.witnesses == expected
        # The stored answer keeps no span tree.
        stored = [
            entry.value for key, entry in session._cache.items()
            if key[0] == "list-answer"
        ]
        assert len(stored) == 1 and stored[0].trace is None

    def test_key_holds_every_answer_argument_but_not_the_backend(self):
        graph, emb = _grid(4, 4)
        session = TargetSession(graph, emb)
        session.count_exact(path_pattern(3))
        session.count_exact(path_pattern(3), backend="serial")
        assert session.stats.hits["count-answer"] == 1
        session.count_exact(path_pattern(3), plan="auto")
        session.count_exact(triangle())
        assert session.stats.misses["count-answer"] == 3
        session.list_occurrences(path_pattern(3), seed=0)
        session.list_occurrences(path_pattern(3), seed=1)
        session.list_occurrences(path_pattern(3), seed=0, max_iterations=1)
        session.list_occurrences(path_pattern(3), seed=0, engine="sequential")
        assert session.stats.misses["list-answer"] == 4
        assert "list-answer" not in session.stats.hits

    def test_query_planned_by_a_plan_object_always_runs(self):
        from repro.engine.planner import plan_query

        graph, emb = _grid(4, 4)
        session = TargetSession(graph, emb)
        plan = plan_query(session, cycle_pattern(4), mode="count")
        first = session.count_exact(cycle_pattern(4), plan=plan)
        again = session.count_exact(cycle_pattern(4), plan=plan)
        assert again.isomorphisms == first.isomorphisms
        assert "count-answer" not in session.stats.misses
        assert "count-answer" not in session.stats.hits

    def test_planned_hit_echoes_the_first_plan(self):
        graph, emb = _grid(4, 4)
        session = TargetSession(graph, emb)
        first = session.count_exact(cycle_pattern(4), plan="auto")
        observed = session.cost_model.observations
        again = session.count_exact(cycle_pattern(4), plan="auto")
        assert again.plan is not first.plan
        assert again.plan.as_dict() == first.plan.as_dict()
        # A hit plans nothing, so the model calibrates on nothing.
        assert session.cost_model.observations == observed
