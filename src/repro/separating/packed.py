"""Packed int64 kernels for the separating state space (Section 5.2.2).

Extends the plain packed codec (``repro.isomorphism.packed``) with the
extended state's side sets and boolean history, packed into the high bits
above the base code:

``code = base | inside_bits << s0 | ix << s0+B | ox << s0+B+1``

where ``s0`` is the bit width of the plain base code for the bag, ``B`` the
bag size, and bit ``j`` of ``inside_bits`` says bag vertex ``j`` lies on the
inside of the sought separation.  An *occupied* bag vertex (mapped by phi)
canonically carries side bit 0 — its outside membership is recomputed from
the base digits (``outside = free & ~inside``), which keeps the packing
injective and join keys addition-safe.  Lemma 5.3's ``2^O(k)`` blow-up
appears here as exactly ``B + 2`` extra bits.

The kernels generate the same candidate multisets as the reference
``SeparatingStateSpace`` transitions, so charged costs are engine-invariant
(see the plain module's docstring for the contract).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..isomorphism.packed import (
    NIL,
    match_key_pairs,
    table_from_buffers,
    table_to_buffers,
)

__all__ = [
    "PackedSeparatingOps",
    "sep_table_from_buffers",
    "sep_table_to_buffers",
]

_EMPTY = np.zeros(0, dtype=np.int64)


def sep_table_to_buffers(
    codes: np.ndarray, mults: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable buffer form of one separating packed table.

    The separating codec packs side sets and history into the high bits
    of the same sorted-unique int64 codes, so the canonical-table
    invariants (and hence the transport validation) are those of the plain
    kernel; kept as a named entry point so serialization callers do not
    depend on that coincidence.
    """
    return table_to_buffers(codes, mults)


def sep_table_from_buffers(
    codes: np.ndarray, mults: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`sep_table_to_buffers` (revalidating)."""
    return table_from_buffers(codes, mults)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _SepCtx:
    """Per-bag context: the plain context plus the high-bit layout."""

    __slots__ = (
        "bctx",
        "size",
        "s0",
        "s_ix",
        "s_ox",
        "base_mask",
        "full",
        "marked_bits",
        "adj_bits",
        "local",
    )

    def __init__(self, ops: "PackedSeparatingOps", bag: np.ndarray) -> None:
        self.bctx = ops.plain.ctx(bag)
        b = self.bctx.size
        self.size = b
        self.s0 = ops.plain.code_bits(b)
        self.s_ix = self.s0 + b
        self.s_ox = self.s_ix + 1
        self.base_mask = np.int64((1 << self.s0) - 1)
        self.full = np.int64((1 << b) - 1)
        marked = 0
        for j in range(b):
            if ops.space.marked[int(bag[j])]:
                marked |= 1 << j
        self.marked_bits = np.int64(marked)
        adj = ops.plain._bag_adj(self.bctx)
        weights = np.int64(1) << np.arange(b, dtype=np.int64)
        self.adj_bits = (
            (adj @ weights) if b else np.zeros(0, dtype=np.int64)
        )
        self.local: Optional[Tuple[np.ndarray, np.ndarray]] = None


class PackedSeparatingOps:
    """Vectorized kernels for :class:`SeparatingStateSpace` tables."""

    def __init__(self, space) -> None:
        self.space = space
        self.plain = space.base.packed_ops()
        self.k = space.k
        self._ctxs: dict = {}

    # -- feasibility -------------------------------------------------------

    def fits(self, nice) -> bool:
        """Base code + side bits + two booleans must pack into int64."""
        max_bag = max((int(b.size) for b in nice.bags), default=0)
        return self.plain.code_bits(max_bag) + max_bag + 2 <= 62

    # -- contexts ----------------------------------------------------------

    def ctx(self, bag) -> _SepCtx:
        bag = np.asarray(bag, dtype=np.int64)
        key = bag.tobytes()
        ctx = self._ctxs.get(key)
        if ctx is None:
            ctx = _SepCtx(self, bag)
            self._ctxs[key] = ctx
        return ctx

    def _parts(
        self, ctx: _SepCtx, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        base = codes & ctx.base_mask
        inside = (codes >> ctx.s0) & ctx.full
        ix = (codes >> ctx.s_ix) & 1
        ox = (codes >> ctx.s_ox) & 1
        return base, inside, ix, ox

    def _outside(
        self,
        ctx: _SepCtx,
        base: np.ndarray,
        inside: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        occ = self.plain.occupied_bits(ctx.bctx, base, digits)
        return ctx.full & ~occ & ~inside

    # -- codec -------------------------------------------------------------

    def encode(self, ctx: _SepCtx, states: Sequence[tuple]) -> np.ndarray:
        if not len(states):
            return _EMPTY
        base_codes = self.plain.encode(ctx.bctx, [s[0] for s in states])
        pos = {int(v): j for j, v in enumerate(ctx.bctx.bag)}
        s0, s_ix, s_ox = ctx.s0, ctx.s_ix, ctx.s_ox
        extras = np.zeros(len(states), dtype=np.int64)
        for i, (_b, inside, _outside, ix, ox) in enumerate(states):
            bits = 0
            for x in inside:
                bits |= 1 << pos[int(x)]
            extras[i] = (
                (bits << s0)
                | (int(bool(ix)) << s_ix)
                | (int(bool(ox)) << s_ox)
            )
        return base_codes | extras

    def decode(self, ctx: _SepCtx, codes: np.ndarray) -> List[tuple]:
        if codes.size == 0:
            return []
        base, inside, ix, ox = self._parts(ctx, codes)
        base_states = self.plain.decode(ctx.bctx, base)
        outside = self._outside(ctx, base, inside)
        bag = [int(v) for v in ctx.bctx.bag]
        out = []
        for b, ib, ob, ixv, oxv in zip(
            base_states,
            inside.tolist(),
            outside.tolist(),
            (ix != 0).tolist(),
            (ox != 0).tolist(),
        ):
            out.append(
                (
                    b,
                    tuple(bag[j] for j in _iter_bits(ib)),
                    tuple(bag[j] for j in _iter_bits(ob)),
                    ixv,
                    oxv,
                )
            )
        return out

    # -- basic states ------------------------------------------------------

    def leaf_codes(self) -> np.ndarray:
        return np.zeros(1, dtype=np.int64)

    def accepting_mask(self, ctx: _SepCtx, codes: np.ndarray) -> np.ndarray:
        base, _inside, ix, ox = self._parts(ctx, codes)
        return (
            self.plain.accepting_mask(ctx.bctx, base) & (ix == 1) & (ox == 1)
        )

    def trivial_source_mask(
        self,
        ctx: _SepCtx,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Never — side consistency through forgotten vertices is not
        locally checkable (see the reference space)."""
        return np.zeros(codes.size, dtype=bool)

    def admissible_mask(
        self,
        ctx: _SepCtx,
        codes: np.ndarray,
        forgotten_count: int,
        marked_forgotten: bool,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``digits``, here and in every kernel below, is the digit matrix
        of the codes' base part (see ``PackedSubgraphOps``)."""
        base, inside, ix, ox = self._parts(ctx, codes)
        digits = self.plain._decoded(ctx.bctx, base, digits)
        ok = self.plain.admissible_mask(
            ctx.bctx, base, forgotten_count, marked_forgotten, digits
        )
        if not marked_forgotten:
            outside = self._outside(ctx, base, inside, digits)
            ok = ok & ((ix == 0) | ((inside & ctx.marked_bits) != 0))
            ok = ok & ((ox == 0) | ((outside & ctx.marked_bits) != 0))
        return ok

    # -- transitions -------------------------------------------------------

    def introduce(
        self,
        cctx: _SepCtx,
        pctx: _SepCtx,
        v: int,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = int(codes.size)
        base = codes & cctx.base_mask
        high = codes >> cctx.s0  # inside | ix << B | ox << B + 1
        inside = high & cctx.full
        digits = self.plain._decoded(cctx.bctx, base, digits)
        psrc, pout, prem = self.plain.introduce(
            cctx.bctx, pctx.bctx, v, base, digits
        )
        jv = int(np.searchsorted(pctx.bctx.bag, v))
        # The parent's high bits: v's side bit (0) inserted at position
        # jv, which moves ix and ox up one bit with the side bits above.
        low = (1 << jv) - 1
        p_high = ((high >> jv) << (jv + 1)) | (high & low)
        # Plain-kernel layout contract: the first n candidates are the
        # "v hosts nothing" copies; the separating space replaces them with
        # the side options, so slice them off and keep the extensions.
        ext_src = psrc[n:]
        ext_out = pout[n:] | (p_high[ext_src] << pctx.s0)
        # Side options: legal iff v has no G-neighbor on the opposite side
        # (v's neighbors at child positions: its adjacency bits with bit
        # jv squeezed out); a marked v raises its side's boolean.
        avj = int(pctx.adj_bits[jv])
        nbrs = ((avj >> (jv + 1)) << jv) | (avj & low)
        legal_in = (self._outside(cctx, base, inside, digits) & nbrs) == 0
        legal_out = (inside & nbrs) == 0
        mk = int(bool(self.space.marked[v]))
        in_bits = (1 << jv) | (mk << (pctx.s_ix - pctx.s0))
        in_code = prem | ((p_high | in_bits) << pctx.s0)
        out_code = prem | ((p_high | (mk << (pctx.s_ox - pctx.s0))) << pctx.s0)
        idx_in = np.flatnonzero(legal_in)
        idx_out = np.flatnonzero(legal_out)
        src = np.concatenate([ext_src, idx_in, idx_out])
        out = np.concatenate([ext_out, in_code[idx_in], out_code[idx_out]])
        # Canonical lift prefers the outside placement, then inside.
        lift = np.where(
            legal_out,
            out_code,
            np.where(legal_in, in_code, np.int64(NIL)),
        )
        return src, out, lift

    def forget(
        self,
        cctx: _SepCtx,
        pctx: _SepCtx,
        v: int,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The plain kernel uniformly covers all three cases: an occupied v
        # moves its pattern vertex to C (with the neighbor check), a
        # side-carrying v leaves its base digits untouched; its side bit
        # (1 for inside, 0 for outside/occupied) is squeezed out of the
        # high bits below, moving ix and ox down one bit.
        psrc, pout, _ = self.plain.forget(
            cctx.bctx, pctx.bctx, v, codes & cctx.base_mask, digits
        )
        jv = int(np.searchsorted(cctx.bctx.bag, v))
        high = codes[psrc] >> cctx.s0
        p_high = ((high >> (jv + 1)) << jv) | (high & ((1 << jv) - 1))
        out = pout | (p_high << pctx.s0)
        lift = np.full(codes.size, NIL, dtype=np.int64)
        lift[psrc] = out
        return psrc, out, lift

    def join(
        self,
        ctx: _SepCtx,
        lcodes: np.ndarray,
        rcodes: np.ndarray,
        ldigits: Optional[np.ndarray] = None,
        rdigits: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Key = mapped part of phi + the side assignment (booleans free)."""
        bl, il, ixl, oxl = self._parts(ctx, lcodes)
        br, ir, ixr, oxr = self._parts(ctx, rcodes)
        bkl, ccl, cml = self.plain.join_parts(ctx.bctx, bl, ldigits)
        bkr, ccr, cmr = self.plain.join_parts(ctx.bctx, br, rdigits)
        kl = bkl | (il << ctx.s0)
        kr = bkr | (ir << ctx.s0)
        li, ri = match_key_pairs(kl, kr)
        if li.size == 0:
            return li, ri, _EMPTY, np.zeros(0, dtype=bool)
        valid = (cml[li] & cmr[ri]) == 0
        out = (
            kl[li]
            + ccl[li]
            + ccr[ri]
            | ((ixl[li] | ixr[ri]) << ctx.s_ix)
            | ((oxl[li] | oxr[ri]) << ctx.s_ox)
        )
        return li, ri, out, valid

    def join_lift(
        self,
        ctx: _SepCtx,
        codes: np.ndarray,
        digits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Combine with the empty-C twin carrying the same sides; its
        booleans are exactly the bag's marked contribution."""
        base, inside, _ix, _ox = self._parts(ctx, codes)
        outside = self._outside(ctx, base, inside, digits)
        m_in = ((inside & ctx.marked_bits) != 0).astype(np.int64)
        m_out = ((outside & ctx.marked_bits) != 0).astype(np.int64)
        return codes | (m_in << ctx.s_ix) | (m_out << ctx.s_ox)

    # -- local enumeration -------------------------------------------------

    def _component_masks(self, ctx: _SepCtx, free_mask: int) -> List[int]:
        """Connected components of G[bag] restricted to ``free_mask``."""
        adj = [int(a) for a in ctx.adj_bits]
        comps: List[int] = []
        rem = free_mask
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier:
                nxt = 0
                for j in _iter_bits(frontier):
                    nxt |= adj[j]
                nxt &= free_mask & ~comp
                comp |= nxt
                frontier = nxt
            comps.append(comp)
            rem &= ~comp
        return comps

    def local_table(self, ctx: _SepCtx) -> Tuple[np.ndarray, np.ndarray]:
        """``(codes, digits)`` of every locally plausible extended state,
        sorted by code (``digits`` of the base part): base skeletons
        refined with per-component side assignments and bag-consistent
        booleans (same set as the reference enumeration)."""
        if ctx.local is not None:
            return ctx.local
        bcodes, bdigits = self.plain.local_table(ctx.bctx)
        occ = self.plain.occupied_bits(ctx.bctx, bcodes, bdigits)
        uniq, inv = np.unique(ctx.full & ~occ, return_inverse=True)
        marked = int(ctx.marked_bits)
        parts: List[np.ndarray] = []
        row_parts: List[np.ndarray] = []
        for gi, fm in enumerate(uniq.tolist()):
            rows = np.flatnonzero(inv == gi)
            comps = self._component_masks(ctx, fm)
            c = len(comps)
            for mask in range(1 << c):
                ins = 0
                for i in range(c):
                    if mask >> i & 1:
                        ins |= comps[i]
                outs = fm & ~ins
                m_in = (ins & marked) != 0
                m_out = (outs & marked) != 0
                for ixv in (1,) if m_in else (0, 1):
                    for oxv in (1,) if m_out else (0, 1):
                        extra = (
                            (ins << ctx.s0)
                            | (ixv << ctx.s_ix)
                            | (oxv << ctx.s_ox)
                        )
                        parts.append(bcodes[rows] + np.int64(extra))
                        row_parts.append(rows)
        if parts:
            codes = np.concatenate(parts)
            order = np.argsort(codes)
            ctx.local = (codes[order], bdigits[np.concatenate(row_parts)[order]])
        else:
            ctx.local = (_EMPTY, bdigits[:0])
        return ctx.local
