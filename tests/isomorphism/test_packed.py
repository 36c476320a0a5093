"""Packed-kernel tests: codec laws, table primitives, engine equivalence.

The packed engine's contract (see ``repro.isomorphism.packed``) has three
load-bearing parts, each tested here:

* the bag-relative codec is a bijection between tuple states and int64
  codes, strictly monotone w.r.t. the colexicographic digit order (sorted
  code arrays are canonical tables);
* the shared table primitives (dedup/membership/key bucketing) agree with
  their obvious dict/loop specifications;
* ``engine="packed"`` reproduces the reference engine's tables,
  multiplicities, accepting counts, parallel diagnostics and — crucially —
  charged costs, state for state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, grid_graph, triangulated_grid, wheel_graph
from repro.isomorphism import (
    SubgraphStateSpace,
    clique_pattern,
    cycle_pattern,
    dedup_accumulate,
    parallel_dp,
    path_pattern,
    sequential_dp,
    star_pattern,
    triangle,
)
from repro.isomorphism.pattern import Pattern
from repro.isomorphism.packed import (
    match_key_pairs,
    member_positions,
    packed_ops_for,
)
from repro.treedecomp import make_nice, minfill_decomposition


def _ops_and_ctx(bag_vertices, pattern=None, side=4):
    """A packed-ops instance over a small grid plus a ctx for ``bag``."""
    g = grid_graph(side, side).graph
    pattern = pattern if pattern is not None else path_pattern(3)
    space = SubgraphStateSpace(pattern, g)
    ops = space.packed_ops()
    bag = np.asarray(sorted(bag_vertices), dtype=np.int64)
    return ops, ops.ctx(bag)


# ---------------------------------------------------------------------------
# codec laws
# ---------------------------------------------------------------------------


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_identity(self, data):
        bag_size = data.draw(st.integers(min_value=0, max_value=6))
        k = data.draw(st.integers(min_value=2, max_value=4))
        bag_vertices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=15),
                min_size=bag_size,
                max_size=bag_size,
                unique=True,
            )
        )
        ops, ctx = _ops_and_ctx(bag_vertices, pattern=path_pattern(k))
        rows = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=bag_size + 1),
                    min_size=k,
                    max_size=k,
                ),
                min_size=0,
                max_size=20,
            )
        )
        # digit d: 0 -> unmatched, 1 -> in-child, 2+j -> bag vertex j.
        lut = [-1, -2] + [int(v) for v in ctx.bag]
        states = [tuple(lut[d] for d in row) for row in rows]
        codes = ops.encode(ctx, states)
        assert ops.decode(ctx, codes) == states

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_encoding_preserves_colex_order(self, data):
        bag_size = data.draw(st.integers(min_value=0, max_value=5))
        k = data.draw(st.integers(min_value=2, max_value=4))
        bag_vertices = list(range(bag_size))
        ops, ctx = _ops_and_ctx(bag_vertices, pattern=path_pattern(k))
        rows = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=bag_size + 1),
                    min_size=k,
                    max_size=k,
                ),
                min_size=2,
                max_size=20,
                unique_by=tuple,
            )
        )
        lut = [-1, -2] + [int(v) for v in ctx.bag]
        states = [tuple(lut[d] for d in row) for row in rows]
        codes = ops.encode(ctx, states)
        # Strictly monotone w.r.t. colex digit order: sorting codes sorts
        # the digit rows colexicographically, and distinct rows get
        # distinct codes.
        colex = sorted(range(len(rows)), key=lambda i: rows[i][::-1])
        by_code = sorted(range(len(rows)), key=lambda i: int(codes[i]))
        assert by_code == colex
        assert len(set(codes.tolist())) == len(rows)

    def test_codes_cover_valid_tables(self):
        # Every state of a real DP table encodes and round-trips: the codec
        # is total on bag-mapped states.
        g = triangulated_grid(3, 3).graph
        space = SubgraphStateSpace(triangle(), g)
        td, _ = minfill_decomposition(g)
        nice, _ = make_nice(td)
        ref = sequential_dp(space, nice, engine="reference")
        ops = space.packed_ops()
        for node in range(nice.num_nodes):
            ctx = ops.ctx(nice.bags[node])
            states = list(ref.valid[node])
            codes = ops.encode(ctx, states)
            assert ops.decode(ctx, codes) == states


# ---------------------------------------------------------------------------
# table primitives
# ---------------------------------------------------------------------------


class TestPrimitives:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=40,
        )
    )
    def test_dedup_accumulate(self, pairs):
        codes = np.asarray([c for c, _ in pairs], dtype=np.int64)
        mults = np.asarray([m for _, m in pairs], dtype=np.int64)
        out_codes, out_mults = dedup_accumulate(codes, mults)
        expect = {}
        for c, m in pairs:
            expect[c] = expect.get(c, 0) + m
        assert out_codes.tolist() == sorted(expect)
        assert out_mults.tolist() == [expect[c] for c in sorted(expect)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=30), max_size=20, unique=True),
        st.lists(st.integers(min_value=0, max_value=30), max_size=20),
    )
    def test_member_positions(self, table, queries):
        table = np.asarray(sorted(table), dtype=np.int64)
        queries = np.asarray(queries, dtype=np.int64)
        pos, found = member_positions(table, queries)
        for i, q in enumerate(queries.tolist()):
            assert bool(found[i]) == (q in table.tolist())
            if found[i]:
                assert table[pos[i]] == q

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=6), max_size=15),
        st.lists(st.integers(min_value=0, max_value=6), max_size=15),
    )
    def test_match_key_pairs(self, kl, kr):
        li, ri = match_key_pairs(
            np.asarray(kl, dtype=np.int64), np.asarray(kr, dtype=np.int64)
        )
        got = sorted(zip(li.tolist(), ri.tolist()))
        expect = sorted(
            (i, j)
            for i, a in enumerate(kl)
            for j, b in enumerate(kr)
            if a == b
        )
        assert got == expect


# ---------------------------------------------------------------------------
# decode once: kernels taking the caller's digit matrix
# ---------------------------------------------------------------------------


def _same(a, b):
    """Byte-identical arrays: same dtype, shape and contents."""
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


KERNEL_PATTERNS = [
    path_pattern(2), path_pattern(3), triangle(), cycle_pattern(4),
    star_pattern(3),
]


@st.composite
def _bag_tables(draw):
    """A plain space over a 4x4 triangulated grid (random hostable mask),
    a bag, and two random code tables over it."""
    g = triangulated_grid(4, 4).graph
    pattern = draw(st.sampled_from(KERNEL_PATTERNS))
    allowed = np.asarray(
        draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool
    )
    space = SubgraphStateSpace(pattern, g, allowed=allowed)
    bag = sorted(
        draw(st.lists(st.integers(0, g.n - 1), max_size=6, unique=True))
    )
    ops = space.packed_ops()
    ctx = ops.ctx(np.asarray(bag, dtype=np.int64))
    tables = []
    for _ in range(2):
        rows = draw(
            st.lists(
                st.lists(
                    st.integers(0, len(bag) + 1),
                    min_size=pattern.k,
                    max_size=pattern.k,
                ),
                max_size=24,
            )
        )
        digits = np.asarray(rows, dtype=np.int64).reshape(-1, pattern.k)
        tables.append(ops.codes_from_digits(ctx, digits))
    return g, ops, bag, ctx, tables


class TestDecodeOnce:
    """Every kernel returns byte-identical arrays whether it gets the
    digit matrix from its caller or decodes the codes itself."""

    @settings(max_examples=80, deadline=None)
    @given(_bag_tables(), st.data())
    def test_plain_kernels(self, drawn, data):
        g, ops, bag, ctx, (codes, other) = drawn
        digits = ops.digits(ctx, codes)
        odigits = ops.digits(ctx, other)
        for mask in ("trivial_source_mask", "join_lift", "occupied_bits"):
            kernel = getattr(ops, mask)
            assert _same(kernel(ctx, codes), kernel(ctx, codes, digits))
        fc = data.draw(st.integers(0, 3))
        assert _same(
            ops.admissible_mask(ctx, codes, fc, False),
            ops.admissible_mask(ctx, codes, fc, False, digits),
        )
        for a, b in zip(
            ops.join(ctx, codes, other),
            ops.join(ctx, codes, other, digits, odigits),
        ):
            assert _same(a, b)
        outside = [v for v in range(g.n) if v not in bag]
        v = data.draw(st.sampled_from(outside))
        pctx = ops.ctx(np.asarray(sorted(bag + [v]), dtype=np.int64))
        for a, b in zip(
            ops.introduce(ctx, pctx, v, codes),
            ops.introduce(ctx, pctx, v, codes, digits),
        ):
            assert _same(a, b)
        if bag:
            v = data.draw(st.sampled_from(bag))
            fctx = ops.ctx(
                np.asarray([u for u in bag if u != v], dtype=np.int64)
            )
            for a, b in zip(
                ops.forget(ctx, fctx, v, codes),
                ops.forget(ctx, fctx, v, codes, digits),
            ):
                assert _same(a, b)


# ---------------------------------------------------------------------------
# local-state memo
# ---------------------------------------------------------------------------


class TestLocalTableMemo:
    """The locally plausible states of a bag depend only on its local
    structure, so they are enumerated once per structure and shared
    through the pattern."""

    @staticmethod
    def _reference(space, ops, ctx):
        return np.sort(ops.encode(ctx, space.local_states(ctx.bag)))

    def test_equal_structure_shares_one_entry(self):
        pattern = Pattern(Graph(3, [(0, 1), (1, 2)]))  # a private memo
        g = grid_graph(4, 4).graph
        # Two unit squares of the grid: other vertices, same adjacency.
        a, b = [0, 1, 4, 5], [10, 11, 14, 15]
        assert np.array_equal(
            g.has_edges(np.asarray(a)[:, None], np.asarray(a)[None, :]),
            g.has_edges(np.asarray(b)[:, None], np.asarray(b)[None, :]),
        )
        space = SubgraphStateSpace(pattern, g)
        ops = space.packed_ops()
        codes_a, digits_a = ops.local_table(ops.ctx(a))
        # Another piece (another space over another graph) sees the same
        # structure and gets the same entry.
        other = SubgraphStateSpace(pattern, grid_graph(5, 5).graph)
        other_ops = other.packed_ops()
        ctx_b = other_ops.ctx([12, 13, 17, 18])
        codes_b, digits_b = other_ops.local_table(ctx_b)
        assert codes_b is codes_a and digits_b is digits_a
        assert len(pattern.local_tables) == 1
        assert np.array_equal(codes_b, self._reference(other, other_ops, ctx_b))
        assert np.array_equal(ops.local_table(ops.ctx(b))[0], codes_a)
        assert np.array_equal(
            ops.codes_from_digits(ctx_b, digits_b), codes_b
        )

    def test_host_or_class_mask_get_their_own_entry(self):
        pattern = Pattern(Graph(3, [(0, 1), (1, 2)]))
        g = grid_graph(4, 4).graph
        bag = [5, 6, 9, 10]
        allowed = np.ones(g.n, dtype=bool)
        allowed[6] = False
        spaces = [
            SubgraphStateSpace(pattern, g),
            SubgraphStateSpace(pattern, g, allowed=allowed),
            SubgraphStateSpace(
                pattern,
                g,
                host_classes=np.arange(g.n) % 2,
                pattern_classes=[0, None, 1],
            ),
        ]
        tables = []
        for space in spaces:
            ops = space.packed_ops()
            ctx = ops.ctx(bag)
            codes, _ = ops.local_table(ctx)
            assert np.array_equal(codes, self._reference(space, ops, ctx))
            tables.append(codes.tolist())
        assert len(pattern.local_tables) == 3
        assert len({tuple(t) for t in tables}) == 3

    def test_memoized_arrays_are_read_only(self):
        pattern = Pattern(Graph(3, [(0, 1), (1, 2)]))
        space = SubgraphStateSpace(pattern, grid_graph(4, 4).graph)
        ops = space.packed_ops()
        codes, digits = ops.local_table(ops.ctx([0, 1, 4, 5]))
        assert codes.size and digits.size
        with pytest.raises(ValueError):
            codes[0] = 0
        with pytest.raises(ValueError):
            digits[0, 0] = 0


# ---------------------------------------------------------------------------
# engine equivalence
# ---------------------------------------------------------------------------

TARGETS = [
    ("grid", grid_graph(4, 4).graph),
    ("tri-grid", triangulated_grid(3, 4).graph),
    ("wheel", wheel_graph(7).graph),
]

PATTERNS = [
    ("triangle", triangle()),
    ("p4", path_pattern(4)),
    ("c4", cycle_pattern(4)),
    ("star3", star_pattern(3)),
    ("k4", clique_pattern(4)),
]


@pytest.mark.parametrize("tname,target", TARGETS, ids=[t[0] for t in TARGETS])
@pytest.mark.parametrize("pname,pattern", PATTERNS, ids=[p[0] for p in PATTERNS])
class TestPackedMatchesReference:
    def test_sequential_tables_costs_identical(
        self, tname, target, pname, pattern
    ):
        td, _ = minfill_decomposition(target)
        nice, _ = make_nice(td)
        space = SubgraphStateSpace(pattern, target)
        assert packed_ops_for(space, nice) is not None
        ref = sequential_dp(space, nice, engine="reference")
        pkd = sequential_dp(space, nice, engine="packed")
        assert pkd.accepting_count == ref.accepting_count
        assert pkd.found == ref.found
        assert pkd.cost == ref.cost
        for node in range(nice.num_nodes):
            assert dict(pkd.valid[node]) == ref.valid[node], node

    def test_parallel_tables_costs_diagnostics_identical(
        self, tname, target, pname, pattern
    ):
        td, _ = minfill_decomposition(target)
        nice, _ = make_nice(td)
        space = SubgraphStateSpace(pattern, target)
        ref = parallel_dp(space, nice, engine="reference")
        pkd = parallel_dp(space, nice, engine="packed")
        assert pkd.accepting_count == ref.accepting_count
        assert pkd.cost == ref.cost
        assert (
            pkd.num_layers,
            pkd.num_paths,
            pkd.max_bfs_rounds,
            pkd.total_states,
            pkd.total_shortcuts,
        ) == (
            ref.num_layers,
            ref.num_paths,
            ref.max_bfs_rounds,
            ref.total_states,
            ref.total_shortcuts,
        )
        for node in range(nice.num_nodes):
            assert dict(pkd.valid[node]) == ref.valid[node], node


class TestRandomizedEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["triangle", "p4", "c4", "star3"]),
    )
    def test_random_graphs(self, n, seed, pname):
        rng = np.random.default_rng(seed)
        edges = []
        for _ in range(2 * n):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.append((int(u), int(v)))
        g = Graph(n, edges)
        pattern = dict(PATTERNS)[pname]
        td, _ = minfill_decomposition(g)
        nice, _ = make_nice(td)
        space = SubgraphStateSpace(pattern, g)
        ref = sequential_dp(space, nice, engine="reference")
        pkd = sequential_dp(space, nice, engine="packed")
        assert pkd.accepting_count == ref.accepting_count
        assert pkd.cost == ref.cost
        pref = parallel_dp(space, nice, engine="reference")
        ppkd = parallel_dp(space, nice, engine="packed")
        assert ppkd.cost == pref.cost
        assert ppkd.total_shortcuts == pref.total_shortcuts
        for node in range(nice.num_nodes):
            assert dict(ppkd.valid[node]) == pref.valid[node]


class TestOverflowFallback:
    """The packed -> reference int64-overflow fallback is correct but no
    longer silent: one PackedOverflowWarning per space type, plus a
    ``packed_overflow_fallbacks`` counter on the caller's trace."""

    def _overflowing_instance(self):
        # k = 31 overflows even for tiny bags: (bag + 2)^31 needs > 62
        # bits as soon as a bag has 3+ vertices (base 5^31 ~ 2^72), and a
        # path decomposition of a path has bags of size 2-3.
        gg = grid_graph(2, 20)
        pattern = path_pattern(31)
        g = gg.graph
        td, _ = minfill_decomposition(g)
        nice, _ = make_nice(td)
        space = SubgraphStateSpace(pattern, g)
        return space, nice

    def test_packed_ops_for_warns_once_and_counts(self):
        from repro.isomorphism.packed import (
            PackedOverflowWarning,
            overflow_warning_scope,
        )
        from repro.pram import Tracer

        space, nice = self._overflowing_instance()
        assert space.packed_ops().fits(nice) is False  # really overflows
        tracer = Tracer("overflow-test")
        with overflow_warning_scope():
            with pytest.warns(PackedOverflowWarning, match="falling back"):
                assert packed_ops_for(space, nice, tracer=tracer) is None
            assert tracer.root.counters["packed_overflow_fallbacks"] == 1
            # Second overflow for the same space type inside the same
            # scope: counted, not re-warned.
            import warnings as _warnings

            with _warnings.catch_warnings(record=True) as caught:
                _warnings.simplefilter("always")
                assert packed_ops_for(space, nice, tracer=tracer) is None
            assert not [
                w for w in caught
                if issubclass(w.category, PackedOverflowWarning)
            ]
            assert tracer.root.counters["packed_overflow_fallbacks"] == 2

    def test_warns_every_time_outside_any_scope(self):
        # No scope installed -> no dedup memory anywhere: nothing global
        # left to leak between unrelated callers or tests.
        from repro.isomorphism.packed import PackedOverflowWarning

        space, nice = self._overflowing_instance()
        for _ in range(2):
            with pytest.warns(PackedOverflowWarning, match="falling back"):
                assert packed_ops_for(space, nice) is None

    def test_warns_once_per_session(self):
        # Two back-to-back sessions over the same target: each session
        # owns a fresh warned-set, so the warning fires once per session.
        from repro.engine.session import TargetSession
        from repro.isomorphism.packed import (
            PackedOverflowWarning,
            overflow_warning_scope,
        )

        space, nice = self._overflowing_instance()
        graph = grid_graph(2, 20).graph
        for _ in range(2):
            session = TargetSession(graph)
            with overflow_warning_scope(session.overflow_warned):
                with pytest.warns(PackedOverflowWarning):
                    assert packed_ops_for(space, nice) is None
                import warnings as _warnings

                with _warnings.catch_warnings(record=True) as caught:
                    _warnings.simplefilter("always")
                    assert packed_ops_for(space, nice) is None
                assert not [
                    w for w in caught
                    if issubclass(w.category, PackedOverflowWarning)
                ]

    def test_overflow_fallback_still_correct(self):
        space, nice = self._overflowing_instance()
        with pytest.warns(Warning):
            packed = sequential_dp(space, nice, engine="packed")
        reference = sequential_dp(space, nice, engine="reference")
        # The fallback produced the reference behavior bit for bit.
        assert packed.found == reference.found
        assert packed.accepting_count == reference.accepting_count
        assert packed.cost == reference.cost
