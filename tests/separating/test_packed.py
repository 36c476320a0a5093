"""Separating packed-kernel tests: high-bit codec laws, engine equivalence.

The extended space packs ``(base, inside, outside, ix, ox)`` states as
``base_code | inside_bits << s0 | ix | ox`` (see
``repro.separating.packed``); outside membership is recomputed from the
occupied bag positions, so the codec must round-trip every state whose
side sets partition the free bag vertices — exactly the states the
reference space produces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import grid_graph, triangulated_grid
from repro.isomorphism import (
    cycle_pattern,
    parallel_dp,
    path_pattern,
    sequential_dp,
    star_pattern,
    triangle,
)
from repro.isomorphism.packed import packed_ops_for
from repro.separating import SeparatingStateSpace
from repro.treedecomp import make_nice, minfill_decomposition


def _sep_ops_and_ctx(bag_vertices, k=3, marked_seed=0):
    g = grid_graph(4, 4).graph
    rng = np.random.default_rng(marked_seed)
    marked = rng.random(g.n) < 0.5
    space = SeparatingStateSpace(path_pattern(k), g, marked)
    ops = space.packed_ops()
    bag = np.asarray(sorted(bag_vertices), dtype=np.int64)
    return ops, ops.ctx(bag)


class TestSeparatingCodec:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_identity(self, data):
        bag_size = data.draw(st.integers(min_value=0, max_value=5))
        k = data.draw(st.integers(min_value=2, max_value=4))
        bag_vertices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=15),
                min_size=bag_size,
                max_size=bag_size,
                unique=True,
            )
        )
        seed = data.draw(st.integers(min_value=0, max_value=10))
        ops, ctx = _sep_ops_and_ctx(bag_vertices, k=k, marked_seed=seed)
        bag = [int(v) for v in ctx.bctx.bag]
        lut = [-1, -2] + bag
        n_states = data.draw(st.integers(min_value=0, max_value=15))
        states = []
        for _ in range(n_states):
            row = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=bag_size + 1),
                    min_size=k,
                    max_size=k,
                )
            )
            base = tuple(lut[d] for d in row)
            occupied = {j for d in row if d >= 2 for j in [d - 2]}
            free = [j for j in range(bag_size) if j not in occupied]
            side_bits = data.draw(
                st.lists(
                    st.booleans(), min_size=len(free), max_size=len(free)
                )
            )
            inside = tuple(bag[j] for j, b in zip(free, side_bits) if b)
            outside = tuple(bag[j] for j, b in zip(free, side_bits) if not b)
            ix = data.draw(st.booleans())
            ox = data.draw(st.booleans())
            states.append((base, inside, outside, ix, ox))
        codes = ops.encode(ctx, states)
        assert ops.decode(ctx, codes) == states

    def test_codes_cover_valid_tables(self):
        g = triangulated_grid(3, 3).graph
        marked = np.ones(g.n, dtype=bool)
        space = SeparatingStateSpace(triangle(), g, marked)
        td, _ = minfill_decomposition(g)
        nice, _ = make_nice(td)
        ref = sequential_dp(space, nice, engine="reference")
        ops = space.packed_ops()
        for node in range(nice.num_nodes):
            ctx = ops.ctx(nice.bags[node])
            states = list(ref.valid[node])
            codes = ops.encode(ctx, states)
            assert ops.decode(ctx, codes) == states

    def test_high_bits_fit_check(self):
        # A bag too wide for base code + side bits + booleans must be
        # rejected by fits() so the engines fall back to reference.
        g = grid_graph(4, 4).graph
        space = SeparatingStateSpace(
            path_pattern(6), g, np.ones(g.n, dtype=bool)
        )
        ops = space.packed_ops()

        class _FakeNice:
            bags = [np.arange(31, dtype=np.int64)]

        assert not ops.fits(_FakeNice())


def _same(a, b):
    """Byte-identical arrays: same dtype, shape and contents."""
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@st.composite
def _sep_tables(draw):
    """A separating space over a 4x4 grid (random marks and hostable
    mask), a bag, and two random canonical code tables over it."""
    g = grid_graph(4, 4).graph
    k = draw(st.integers(2, 4))
    marked = np.asarray(
        draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool
    )
    allowed = np.asarray(
        draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool
    )
    space = SeparatingStateSpace(path_pattern(k), g, marked, allowed)
    ops = space.packed_ops()
    bag = sorted(
        draw(st.lists(st.integers(0, g.n - 1), max_size=5, unique=True))
    )
    ctx = ops.ctx(np.asarray(bag, dtype=np.int64))
    lut = [-1, -2] + bag
    tables = []
    for _ in range(2):
        states = []
        for _ in range(draw(st.integers(0, 16))):
            row = draw(
                st.lists(
                    st.integers(0, len(bag) + 1), min_size=k, max_size=k
                )
            )
            occupied = {d - 2 for d in row if d >= 2}
            free = [j for j in range(len(bag)) if j not in occupied]
            sides = draw(
                st.lists(st.booleans(), min_size=len(free), max_size=len(free))
            )
            states.append(
                (
                    tuple(lut[d] for d in row),
                    tuple(bag[j] for j, s in zip(free, sides) if s),
                    tuple(bag[j] for j, s in zip(free, sides) if not s),
                    draw(st.booleans()),
                    draw(st.booleans()),
                )
            )
        tables.append(ops.encode(ctx, states))
    return g, ops, bag, ctx, tables


class TestSeparatingDecodeOnce:
    """The separating kernels return byte-identical arrays whether they
    get the base digit matrix from their caller or decode it."""

    @settings(max_examples=80, deadline=None)
    @given(_sep_tables(), st.data())
    def test_kernels(self, drawn, data):
        g, ops, bag, ctx, (codes, other) = drawn
        digits = ops.plain.digits(ctx.bctx, codes & ctx.base_mask)
        odigits = ops.plain.digits(ctx.bctx, other & ctx.base_mask)
        for kernel in (ops.trivial_source_mask, ops.join_lift):
            assert _same(kernel(ctx, codes), kernel(ctx, codes, digits))
        fc = data.draw(st.integers(0, 3))
        mf = data.draw(st.booleans())
        assert _same(
            ops.admissible_mask(ctx, codes, fc, mf),
            ops.admissible_mask(ctx, codes, fc, mf, digits),
        )
        for a, b in zip(
            ops.join(ctx, codes, other),
            ops.join(ctx, codes, other, digits, odigits),
        ):
            assert _same(a, b)
        v = data.draw(st.sampled_from([u for u in range(g.n) if u not in bag]))
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

    def test_local_table_digits_match_its_codes(self):
        g = triangulated_grid(3, 3).graph
        marked = np.arange(g.n) % 3 == 0
        ops = SeparatingStateSpace(triangle(), g, marked).packed_ops()
        ctx = ops.ctx([0, 1, 3, 4])
        codes, digits = ops.local_table(ctx)
        assert codes.size and np.all(codes[1:] > codes[:-1])
        assert np.array_equal(
            digits, ops.plain.digits(ctx.bctx, codes & ctx.base_mask)
        )


TARGETS = [
    ("grid", grid_graph(4, 4).graph),
    ("tri-grid", triangulated_grid(3, 4).graph),
]

PATTERNS = [
    ("triangle", triangle()),
    ("p3", path_pattern(3)),
    ("c4", cycle_pattern(4)),
    ("star3", star_pattern(3)),
]


def _configs(g, seed):
    rng = np.random.default_rng(seed)
    marked = rng.random(g.n) < 0.5
    allowed = rng.random(g.n) < 0.8
    return marked, allowed


@pytest.mark.parametrize("tname,target", TARGETS, ids=[t[0] for t in TARGETS])
@pytest.mark.parametrize("pname,pattern", PATTERNS, ids=[p[0] for p in PATTERNS])
@pytest.mark.parametrize("seed", [0, 1])
class TestSeparatingPackedMatchesReference:
    def test_sequential_tables_costs_identical(
        self, tname, target, pname, pattern, seed
    ):
        marked, allowed = _configs(target, seed)
        td, _ = minfill_decomposition(target)
        nice, _ = make_nice(td)
        space = SeparatingStateSpace(pattern, target, marked, allowed)
        assert packed_ops_for(space, nice) is not None
        ref = sequential_dp(space, nice, engine="reference")
        pkd = sequential_dp(space, nice, engine="packed")
        assert pkd.accepting_count == ref.accepting_count
        assert pkd.found == ref.found
        assert pkd.cost == ref.cost
        for node in range(nice.num_nodes):
            assert dict(pkd.valid[node]) == ref.valid[node], node

    def test_parallel_tables_costs_diagnostics_identical(
        self, tname, target, pname, pattern, seed
    ):
        marked, allowed = _configs(target, seed)
        td, _ = minfill_decomposition(target)
        nice, _ = make_nice(td)
        space = SeparatingStateSpace(pattern, target, marked, allowed)
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


class TestSeparatingWithClasses:
    def test_host_pattern_classes_equivalence(self):
        # The vertex-connectivity pipeline's class-constrained variant.
        g = grid_graph(4, 4).graph
        marked = np.ones(g.n, dtype=bool)
        host_classes = (np.arange(g.n) % 2).astype(np.int64)
        pattern_classes = [0, None, 1]
        space = SeparatingStateSpace(
            path_pattern(3),
            g,
            marked,
            host_classes=host_classes,
            pattern_classes=pattern_classes,
        )
        td, _ = minfill_decomposition(g)
        nice, _ = make_nice(td)
        ref = sequential_dp(space, nice, engine="reference")
        pkd = sequential_dp(space, nice, engine="packed")
        assert pkd.accepting_count == ref.accepting_count
        assert pkd.cost == ref.cost
        for node in range(nice.num_nodes):
            assert dict(pkd.valid[node]) == ref.valid[node]
