"""Packed-state NumPy kernels for the DP table engines.

Every table engine in the reproduction (Eppstein-style ``sequential_dp``,
the Section 3.3 path/DAG/shortcut engine, and the Section 5.2 separating
variant) manipulates DP tables whose states are the paper's ``(phi, C, U)``
triples.  The reference implementation stores them as ``dict[tuple, int]``
and pays the ``(tau + 3)^k`` state explosion in Python interpreter overhead
on top of the charged work.  The paper's cost model already observes that
transitions are *data-parallel over states* — so this module executes them
as batched array kernels instead:

**Codec.**  A state of a decomposition node with bag ``X`` (sorted) is a
single ``int64`` code in base ``b = |X| + 2``: pattern vertex ``p``
contributes digit ``0`` (unmatched, the set U), ``1`` (matched in a child,
the set C) or ``2 + j`` (mapped onto the ``j``-th bag vertex), weighted by
``b^p``.  Encoding is bag-relative — every mapped target of a valid state
lies in the bag, so the codec is total on DP tables — and strictly monotone
with respect to the colexicographic order of the digit vectors, which makes
sorted code arrays canonical.

**Tables.**  A DP table is a pair ``(codes, mults)`` of equally long int64
arrays with ``codes`` sorted and unique.  Duplicate accumulation is
sort + ``np.add.reduceat``; join compatibility is ``join_key`` bucketing by
``np.searchsorted``; membership filters are ``np.searchsorted`` probes.

**Engine invariance.**  The kernels generate exactly the same candidate
multisets as the tuple-dict reference transitions, so the charged
``Cost``/trace totals are *identical* between ``engine="packed"`` and
``engine="reference"`` — only host wall-clock changes.  The extended
separating space packs its side sets and boolean history into the high bits
above the base code (see ``repro.separating.packed``).

``PackedValidTables`` re-exposes packed per-node tables through the
list-of-``dict[tuple, int]`` facade the recovery walker and the tests
consume, decoding lazily per visited node.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.contracts import cost_contract

__all__ = [
    "dedup_accumulate",
    "member_positions",
    "match_key_pairs",
    "overflow_warning_scope",
    "packed_ops_for",
    "table_from_buffers",
    "table_to_buffers",
    "PackedOverflowWarning",
    "PackedSubgraphOps",
    "PackedValidTables",
]

NIL = -1

_EMPTY = np.zeros(0, dtype=np.int64)


def table_to_buffers(
    codes: np.ndarray, mults: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable buffer form of one packed ``(codes, mults)`` table.

    Validates the canonical-table invariants (int64 dtypes, equal lengths,
    ``codes`` strictly increasing) so a table cannot cross a pickle or
    shared-memory boundary in a corrupted form; returns contiguous int64
    arrays suitable for raw-byte transport.  Empty tables round-trip to
    two zero-length buffers.  Inverse: :func:`table_from_buffers`.
    """
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    mults = np.ascontiguousarray(mults, dtype=np.int64)
    if codes.ndim != 1 or mults.ndim != 1 or codes.shape != mults.shape:
        raise ValueError("a packed table is two equally long 1-d arrays")
    if codes.size > 1 and not bool(np.all(codes[1:] > codes[:-1])):
        raise ValueError("packed table codes must be strictly increasing")
    return codes, mults


def table_from_buffers(
    codes: np.ndarray, mults: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Rebuild a packed table from transported buffers (any buffer-like
    int64 source, e.g. a shared-memory view); re-validates the canonical
    invariants.  Inverse of :func:`table_to_buffers`."""
    return table_to_buffers(
        np.frombuffer(codes, dtype=np.int64)
        if not isinstance(codes, np.ndarray)
        else codes,
        np.frombuffer(mults, dtype=np.int64)
        if not isinstance(mults, np.ndarray)
        else mults,
    )


# ---------------------------------------------------------------------------
# shared table helpers
# ---------------------------------------------------------------------------


def dedup_accumulate(
    codes: np.ndarray, mults: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate codes, summing multiplicities.

    Returns ``(unique_sorted_codes, summed_mults)`` — the canonical packed
    table form (sort + ``np.add.reduceat``).
    """
    if codes.size == 0:
        return _EMPTY, _EMPTY
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    mults = mults[order]
    boundaries = np.flatnonzero(
        np.concatenate([[True], codes[1:] != codes[:-1]])
    )
    return codes[boundaries], np.add.reduceat(mults, boundaries)


def member_positions(
    sorted_codes: np.ndarray, queries: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Locate ``queries`` inside a sorted unique code array.

    Returns ``(pos, found)``: ``pos[i]`` is the index of ``queries[i]`` in
    ``sorted_codes`` (valid only where ``found[i]``).
    """
    if sorted_codes.size == 0:
        z = np.zeros(queries.shape, dtype=np.int64)
        return z, np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(sorted_codes, queries)
    clipped = np.minimum(pos, sorted_codes.size - 1)
    found = sorted_codes[clipped] == queries
    return clipped, found


def expand_buckets(
    lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-query bucket ranges ``[lo, hi)`` into flat pair indices.

    Returns ``(query_idx, bucket_offset)`` such that iterating the pairs
    enumerates every (query, bucket member) combination.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    qi = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - resets
    return qi, starts + offsets


def match_key_pairs(
    kl: np.ndarray, kr: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(li, ri)`` with ``kl[li] == kr[ri]``.

    The join-compatibility bucketing: sort the right keys once, then locate
    each left key's bucket with two ``np.searchsorted`` probes and expand.
    """
    order = np.argsort(kr, kind="stable")
    krs = kr[order]
    lo = np.searchsorted(krs, kl, side="left")
    hi = np.searchsorted(krs, kl, side="right")
    li, bucket = expand_buckets(lo, hi)
    ri = order[bucket] if bucket.size else bucket
    return li, ri


# ---------------------------------------------------------------------------
# the plain (phi, C, U) space
# ---------------------------------------------------------------------------


class _BagCtx:
    """Per-bag packing context: base, digit weights and bag-local lookups."""

    __slots__ = (
        "bag",
        "size",
        "base",
        "pows",
        "bag_adj",
        "class_ok",
        "occ_lut",
        "local",
    )

    def __init__(self, bag: np.ndarray, k: int) -> None:
        self.bag = bag
        self.size = int(bag.size)
        self.base = self.size + 2
        pows = np.empty(k, dtype=np.int64)
        acc = 1
        for p in range(k):
            pows[p] = acc
            acc *= self.base
        self.pows = pows
        self.bag_adj: Optional[np.ndarray] = None
        self.class_ok: Optional[np.ndarray] = None
        self.occ_lut: Optional[np.ndarray] = None
        self.local: Optional[Tuple[np.ndarray, np.ndarray]] = None


class PackedSubgraphOps:
    """Vectorized kernels for :class:`SubgraphStateSpace` tables.

    Every kernel that reads a table's digits takes the table's ``(N, k)``
    digit matrix as an optional last argument: a caller that already
    holds it (a locally enumerated table comes with one) passes it in,
    otherwise the kernel decodes the codes itself — either way each
    transition decodes its input once.  Passing the matrix never changes
    a result.
    """

    def __init__(self, space) -> None:
        self.space = space
        self.k = space.k
        self.graph = space.graph
        self.pattern = space.pattern
        self.nbr = [
            space.pattern.neighbor_array(p) for p in range(self.k)
        ]
        self.hedges = space.pattern.edge_list()
        self.adj = space.pattern.adjacency_matrix
        self.cbits = np.int64(1) << np.arange(self.k, dtype=np.int64)
        self._ctxs: dict = {}
        self._remaps: dict = {}

    # -- feasibility -------------------------------------------------------

    def code_bits(self, bag_size: int) -> int:
        """Bits needed for codes of a bag of the given size."""
        return ((bag_size + 2) ** self.k - 1).bit_length()

    def fits(self, nice) -> bool:
        """Do all of ``nice``'s bags pack into int64 codes?"""
        max_bag = max((int(b.size) for b in nice.bags), default=0)
        return self.code_bits(max_bag) <= 62

    # -- contexts ----------------------------------------------------------

    def ctx(self, bag) -> _BagCtx:
        bag = np.asarray(bag, dtype=np.int64)
        key = bag.tobytes()
        ctx = self._ctxs.get(key)
        if ctx is None:
            ctx = _BagCtx(bag, self.k)
            self._ctxs[key] = ctx
        return ctx

    def _bag_adj(self, ctx: _BagCtx) -> np.ndarray:
        if ctx.bag_adj is None:
            if ctx.size:
                ctx.bag_adj = self.graph.has_edges(
                    ctx.bag[:, None], ctx.bag[None, :]
                )
            else:
                ctx.bag_adj = np.zeros((0, 0), dtype=bool)
        return ctx.bag_adj

    def _class_ok(self, ctx: _BagCtx) -> np.ndarray:
        if ctx.class_ok is None:
            space = self.space
            ok = np.ones((self.k, ctx.size), dtype=bool)
            if space.pattern_classes is not None and ctx.size:
                host = space.host_classes[ctx.bag]
                for p in range(self.k):
                    want = space.pattern_classes[p]
                    if want is not None:
                        ok[p] = host == want
            ctx.class_ok = ok
        return ctx.class_ok

    def _remap(self, size: int, jv: int, introduce: bool) -> np.ndarray:
        """Digit LUT from a child bag of ``size`` to its parent when the
        vertex at parent position ``jv`` is introduced, or at child
        position ``jv`` is forgotten (its pattern vertex moves to C)."""
        key = (size, jv, introduce)
        lut = self._remaps.get(key)
        if lut is None:
            j = np.arange(size, dtype=np.int64)
            shifted = 2 + j + (j >= jv) if introduce else 2 + j - (j > jv)
            lut = np.concatenate([np.arange(2, dtype=np.int64), shifted])
            if not introduce:
                lut[2 + jv] = 1
            self._remaps[key] = lut
        return lut

    # -- codec -------------------------------------------------------------

    def digits(self, ctx: _BagCtx, codes: np.ndarray) -> np.ndarray:
        """Unpack codes into an ``(N, k)`` digit matrix."""
        out = np.empty((codes.size, self.k), dtype=np.int64)
        rest = codes.copy()
        for p in range(self.k):
            np.divmod(rest, ctx.base, out=(rest, out[:, p]))
        return out

    def _decoded(
        self, ctx: _BagCtx, codes: np.ndarray, digits: Optional[np.ndarray]
    ) -> np.ndarray:
        return self.digits(ctx, codes) if digits is None else digits

    def codes_from_digits(self, ctx: _BagCtx, digits: np.ndarray) -> np.ndarray:
        return digits @ ctx.pows

    def encode(self, ctx: _BagCtx, states: Sequence[tuple]) -> np.ndarray:
        """Encode tuple states (same order) to codes."""
        if not len(states):
            return _EMPTY
        arr = np.asarray(list(states), dtype=np.int64).reshape(-1, self.k)
        mapped = 2 + np.searchsorted(ctx.bag, np.maximum(arr, 0))
        digits = np.where(arr == -1, 0, np.where(arr == -2, 1, mapped))
        return self.codes_from_digits(ctx, digits)

    def decode(self, ctx: _BagCtx, codes: np.ndarray) -> List[tuple]:
        """Decode codes back to tuple states (same order)."""
        if codes.size == 0:
            return []
        lut = np.concatenate(
            [np.asarray([-1, -2], dtype=np.int64), ctx.bag]
        )
        vals = lut[self.digits(ctx, codes)]
        return [tuple(row) for row in vals.tolist()]

    def occupied_bits(
        self,
        ctx: _BagCtx,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Bitmask (over bag positions) of the phi-occupied bag vertices."""
        if ctx.occ_lut is None:
            ctx.occ_lut = np.concatenate(
                [
                    np.zeros(2, dtype=np.int64),
                    np.int64(1) << np.arange(ctx.size, dtype=np.int64),
                ]
            )
        lut = ctx.occ_lut
        return np.bitwise_or.reduce(
            lut[self._decoded(ctx, codes, digits)], axis=1
        )

    # -- basic states ------------------------------------------------------

    def leaf_codes(self) -> np.ndarray:
        """The single all-unmatched state of an empty-bag leaf."""
        return np.zeros(1, dtype=np.int64)

    def accepting_mask(self, ctx: _BagCtx, codes: np.ndarray) -> np.ndarray:
        """All pattern vertices matched in a child (root acceptance)."""
        return codes == int(ctx.pows.sum())

    def trivial_source_mask(
        self,
        ctx: _BagCtx,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """States with empty C are unconditionally valid (Section 3.3.2)."""
        return ~(self._decoded(ctx, codes, digits) == 1).any(axis=1)

    def admissible_mask(
        self,
        ctx: _BagCtx,
        codes: np.ndarray,
        forgotten_count: int,
        marked_forgotten: bool,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized ``admissible_at``: |C| bounded by forget steps below."""
        digits = self._decoded(ctx, codes, digits)
        return (digits == 1).sum(axis=1) <= forgotten_count

    # -- transitions -------------------------------------------------------

    def introduce(
        self,
        cctx: _BagCtx,
        pctx: _BagCtx,
        v: int,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All parent candidates when ``v`` joins the bag.

        Returns ``(src, out, lift)``: candidate ``i`` extends child state
        ``src[i]`` into parent code ``out[i]`` (the multiset matches the
        reference ``space.introduce`` yields exactly); ``lift[n]`` is child
        state ``n``'s canonical no-new-match lift (here: itself, re-encoded
        relative to the parent bag).  The first ``n`` candidates are the
        lifts; the new matches follow, pattern vertex by pattern vertex,
        each in ascending child order.
        """
        n = codes.size
        jv = int(np.searchsorted(pctx.bag, v))
        pdigits = self._remap(cctx.size, jv, True)[
            self._decoded(cctx, codes, digits)
        ]
        rem_codes = self.codes_from_digits(pctx, pdigits)
        lift_src = np.arange(n, dtype=np.int64)
        if not (self.space._can_host(v) and n):
            return lift_src, rem_codes, rem_codes
        # blocked[i, q]: pattern vertex q, with parent digit d, rules out
        # matching a pattern neighbor of q onto v — q is in C (d == 1) or
        # mapped to a non-neighbor of v.
        blocks = np.concatenate([[False, True], ~self._bag_adj(pctx)[jv]])
        blocked = blocks[pdigits]
        # cand[i, p]: p is unmatched, its class admits v and none of its
        # pattern neighbors is blocked.
        cand = (
            (pdigits == 0)
            & ~(blocked @ self.adj)
            & self._class_ok(pctx)[:, jv]
        )
        p_idx, ext_src = np.nonzero(cand.T)
        ext_out = rem_codes[ext_src] + np.int64(2 + jv) * pctx.pows[p_idx]
        return (
            np.concatenate([lift_src, ext_src]),
            np.concatenate([rem_codes, ext_out]),
            rem_codes,
        )

    def forget(
        self,
        cctx: _BagCtx,
        pctx: _BagCtx,
        v: int,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The unique parent candidate (if any) when ``v`` leaves the bag.

        Returns ``(src, out, lift)``: kept child indices, their parent
        codes, and a per-child lift array (``-1`` where the state dies).
        """
        jv = int(np.searchsorted(cctx.bag, v))
        digits = self._decoded(cctx, codes, digits)
        # The pattern vertex on v moves to C, which needs every pattern
        # neighbor of it matched already (none left in U).
        stranded = (digits == 2 + jv) & ((digits == 0) @ self.adj)
        src = np.flatnonzero(~stranded.any(axis=1))
        out = self.codes_from_digits(
            pctx, self._remap(cctx.size, jv, False)[digits[src]]
        )
        lift = np.full(codes.size, NIL, dtype=np.int64)
        lift[src] = out
        return src, out, lift

    def join_parts(
        self,
        ctx: _BagCtx,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(key, c_part, c_bits)`` per code: the bucketing key is the
        mapped part of phi (C folded into U), ``c_part`` the code's C
        digits (``code = key + c_part``), ``c_bits`` the C bitmask over
        pattern vertices."""
        in_child = self._decoded(ctx, codes, digits) == 1
        c_part = in_child @ ctx.pows
        return codes - c_part, c_part, in_child @ self.cbits

    def join(
        self,
        ctx: _BagCtx,
        lcodes: np.ndarray,
        rcodes: np.ndarray,
        ldigits: Optional[np.ndarray] = None,
        rdigits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All key-compatible (left, right) pairs and their join results.

        Returns ``(li, ri, out, valid)`` over every pair whose join keys
        agree (the pairs the reference engine *examines*); ``valid`` marks
        pairs with disjoint C sets (the pairs that actually join), and
        ``out`` is the joined code (meaningful where ``valid``).
        """
        kl, ccl, cml = self.join_parts(ctx, lcodes, ldigits)
        kr, ccr, cmr = self.join_parts(ctx, rcodes, rdigits)
        li, ri = match_key_pairs(kl, kr)
        if li.size == 0:
            return li, ri, _EMPTY, np.zeros(0, dtype=bool)
        valid = (cml[li] & cmr[ri]) == 0
        out = kl[li] + ccl[li] + ccr[ri]
        return li, ri, out, valid

    def join_lift(
        self,
        ctx: _BagCtx,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Canonical lift through a join: combine with the empty-C twin."""
        return codes

    # -- local enumeration (Section 3.3.2) ----------------------------------

    def local_table(self, ctx: _BagCtx) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, digits)`` of every locally plausible state of the bag,
        sorted by code; both arrays are read-only.

        The state set depends only on the bag's *local structure* — its
        size, adjacency matrix, hostable positions and class mask — not on
        which target vertices form it, so it is enumerated once per
        structure and memoized on the pattern
        (:attr:`~repro.isomorphism.pattern.Pattern.local_tables`).
        """
        if ctx.local is None:
            adj = self._bag_adj(ctx)
            class_ok = self._class_ok(ctx)
            host = tuple(
                j
                for j in range(ctx.size)
                if self.space._can_host(int(ctx.bag[j]))
            )
            key = (ctx.size, adj.tobytes(), host, class_ok.tobytes())
            memo = self.pattern.local_tables
            table = memo.get(key)
            if table is None:
                table = self._enumerate_local(ctx, adj, host, class_ok)
                memo[key] = table
            ctx.local = table
        return ctx.local

    def _enumerate_local(
        self,
        ctx: _BagCtx,
        adj: np.ndarray,
        host: Tuple[int, ...],
        class_ok: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Incremental column-wise expansion with vectorized pruning — the
        same state set (and the same ``(tau + 3)^k`` bound) as the
        reference recursive enumeration, without per-state Python frames.
        """
        k = self.k
        # luts[j][d]: a pattern neighbor with digit d admits bag vertex j.
        luts = np.concatenate(
            [np.ones((ctx.size, 2), dtype=bool), adj], axis=1
        )
        digits = np.zeros((1, k), dtype=np.int64)
        occ = np.zeros(1, dtype=np.int64)
        # Mapped skeletons: each pattern vertex either stays off the bag or
        # lands on a free, class-compatible bag vertex consistent with its
        # already-placed pattern neighbors.
        for p in range(k):
            rows = digits.shape[0]
            sel = [np.arange(rows, dtype=np.int64)]
            val = [np.zeros(rows, dtype=np.int64)]
            earlier = [int(q) for q in self.nbr[p] if q < p]
            for j in host:
                if not class_ok[p, j]:
                    continue
                mask = (occ >> j) & 1 == 0
                for q in earlier:
                    if not mask.any():
                        break
                    mask &= luts[j][digits[:, q]]
                idx = np.flatnonzero(mask)
                if idx.size:
                    sel.append(idx)
                    val.append(np.full(idx.size, 2 + j, dtype=np.int64))
            sel_all = np.concatenate(sel)
            val_all = np.concatenate(val)
            digits = digits[sel_all]
            digits[:, p] = val_all
            occ = occ[sel_all] | np.where(
                val_all >= 2,
                np.int64(1) << np.maximum(val_all - 2, 0),
                np.int64(0),
            )
        # U/C refinement: each off-bag pattern vertex independently stays
        # unmatched or moves to C ...
        for p in range(k):
            idx = np.flatnonzero(digits[:, p] == 0)
            if idx.size:
                twin = digits[idx].copy()
                twin[:, p] = 1
                digits = np.concatenate([digits, twin])
        # ... pruning C members adjacent (in H) to a U member — the edge
        # between them could never be realized.
        ok = np.ones(digits.shape[0], dtype=bool)
        for p, q in self.hedges:
            dp = digits[:, p]
            dq = digits[:, q]
            ok &= ~(((dp == 1) & (dq == 0)) | ((dp == 0) & (dq == 1)))
        digits = digits[ok]
        codes = self.codes_from_digits(ctx, digits)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        digits = digits[order]
        codes.flags.writeable = False
        digits.flags.writeable = False
        return codes, digits


# ---------------------------------------------------------------------------
# engine-facing helpers
# ---------------------------------------------------------------------------


class PackedOverflowWarning(RuntimeWarning):
    """The packed int64 codec cannot represent this instance's states;
    the engine silently produced the right answer via the reference
    tuple-dict path, but at reference-engine wall-clock."""


# Active once-per-kind suppression scope for PackedOverflowWarning.  The
# warned-kind set is *owned by the caller* (a driver invocation or a
# TargetSession) and installed for the dynamic extent of one run via
# overflow_warning_scope() — never a module global, so a fallback seen by
# one session can no longer silently mute the warning for every session
# and test that follows in the same process.
_warn_scope: ContextVar[Optional[set]] = ContextVar(
    "packed_overflow_warn_scope", default=None
)


@contextmanager
def overflow_warning_scope(warned: Optional[set] = None) -> Iterator[set]:
    """Deduplicate :class:`PackedOverflowWarning` per kind within a scope.

    ``warned`` is the set of space-type names that already warned; pass a
    session-owned set to deduplicate across the queries of one session, or
    omit it for a fresh per-invocation set (what the one-shot drivers do).
    Scopes nest: the innermost set wins, and leaving the scope always
    restores the previous one.  Outside any scope every overflow fallback
    warns — there is deliberately no process-global memory.
    """
    token = _warn_scope.set(warned if warned is not None else set())
    try:
        yield _warn_scope.get()  # type: ignore[return-value]
    finally:
        _warn_scope.reset(token)


@cost_contract(work="O(c_k)", depth="O(1)")
def packed_ops_for(space, nice, tracer=None):
    """The packed kernel set for ``space`` if it exists and fits ``nice``.

    Returns ``None`` when the space has no packed implementation or the
    codes would overflow int64 — engines then fall back to the reference
    tuple-dict path.  Results and charged costs are identical either way,
    but the *overflow* fallback costs real wall-clock, so it is no longer
    silent: the first occurrence per space type *per scope* (see
    :func:`overflow_warning_scope`; the drivers open one per invocation, a
    :class:`~repro.engine.session.TargetSession` one per session) raises a
    :class:`PackedOverflowWarning`, and every occurrence bumps the
    ``packed_overflow_fallbacks`` counter on ``tracer`` (when given) —
    warning dedup never rounds the counter down.
    """
    factory = getattr(space, "packed_ops", None)
    if factory is None:
        return None
    ops = factory()
    if ops.fits(nice):
        return ops
    if tracer is not None:
        tracer.count(packed_overflow_fallbacks=1)
    kind = type(space).__name__
    warned = _warn_scope.get()
    if warned is None or kind not in warned:
        if warned is not None:
            warned.add(kind)
        max_bag = max((int(b.size) for b in nice.bags), default=0)
        warning = PackedOverflowWarning(
            f"packed int64 codes overflow for {kind} "
            f"(k={ops.k}, max bag size {max_bag} needs > 62 bits); "
            "falling back to the reference tuple-dict engine — results and "
            "charged costs are unchanged, wall-clock is not"
        )
        # The space-type name rides on the warning object so execution
        # backends can dedup re-emission parent-side without parsing the
        # message (repro.exec.task).
        warning.kind = kind
        emit = getattr(warned, "emit", None)
        if emit is not None:
            # A collector scope (worker-side task execution): record the
            # event instead of emitting — the parent process re-emits it
            # once per kind per provider.
            emit(warning)
        else:
            warnings.warn(warning, stacklevel=2)
    return None


class PackedValidTables(Sequence):
    """List-of-dict facade over packed per-node tables, decoded lazily.

    Indexing node ``i`` yields the familiar ``dict[state, multiplicity]``
    (multiplicity 1 for reachability engines); the packed codes stay
    available through :meth:`codes_at` for kernel consumers.
    """

    def __init__(
        self,
        ops,
        bags: Sequence[np.ndarray],
        codes: List[Optional[np.ndarray]],
        mults: Optional[List[Optional[np.ndarray]]] = None,
    ) -> None:
        self._ops = ops
        self._bags = bags
        self._codes = codes
        self._mults = mults
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        table = self._cache.get(i)
        if table is None:
            codes = self._codes[i]
            if codes is None or codes.size == 0:
                table = {}
            else:
                states = self._ops.decode(
                    self._ops.ctx(self._bags[i]), codes
                )
                if self._mults is None or self._mults[i] is None:
                    table = {s: 1 for s in states}
                else:
                    table = {
                        s: int(m)
                        for s, m in zip(states, self._mults[i])
                    }
            self._cache[i] = table
        return table

    def codes_at(self, i: int) -> Optional[np.ndarray]:
        """The raw sorted code array of node ``i`` (or None)."""
        return self._codes[i]
