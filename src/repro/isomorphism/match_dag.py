"""The graph of partial matches over one decomposition path (Section 3.3.2)
with shortcuts (Section 3.3.3) and hop-bounded reachability.

Given a bottom-to-top path ``P`` of the (nice) decomposition tree whose
off-path children are already solved, validity of partial matches along P is
exactly reachability in a DAG:

* vertices — the locally plausible partial matches of every path node
  (``(tau + 3)^k`` of them at most; sparse-pruned);
* edges — compatibility of a child match with a parent match, conditioned on
  a *valid* match of the off-path child at join nodes;
* sources — the solved matches of the path's bottom node, plus every match
  that "does not mark any vertices as matched in a child" (such matches are
  unconditionally valid — Section 3.3.2's tagging rule);
* the *no-new-match forest F* — each match's unique canonical lift
  (Figure 5) — receives shortcuts: every F-tree is split into layered paths
  (Lemma 3.2 again), every ``ceil(log2 N)``-th path vertex becomes a hub
  carrying exponentially-spaced jumps, and every vertex gets an exit jump to
  its path top.  Any source-to-match walk then needs only
  O(k log N) hops (Lemma 3.3): at most k match-introducing edges, and each
  F-segment between them crosses O(log N) F-layers at O(log N) hops each —
  O(1) amortized through the exit jumps plus one O(log N) hub landing.

The BFS is level-synchronous; its round count is the measured depth, and
``tests/isomorphism`` property-checks that reachability reproduces the
sequential engine's valid sets exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..pram import Cost, log2_ceil
from ..treedecomp.nice import FORGET, INTRODUCE, JOIN, LEAF, NiceDecomposition
from ..treedecomp.tree_paths import layered_paths
from .packed import expand_buckets, member_positions, packed_ops_for

__all__ = ["PathDAGResult", "solve_path"]

NIL = -1

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass
class PathDAGResult:
    """Valid matches of every node on the path, plus diagnostics."""

    valid_per_node: List[Dict[tuple, int]]
    num_states: int
    num_edges: int
    num_shortcuts: int
    bfs_rounds: int
    cost: Cost


def _bottom_states(space, nice, node, kids, valid_tables) -> Dict[tuple, int]:
    """Directly solve the path's bottom node from its (off-path) children."""
    kind = nice.kinds[node]
    cs = kids[node]
    out: Dict[tuple, int] = {}
    if kind == LEAF:
        out[space.leaf_state()] = 1
    elif kind == INTRODUCE:
        v = int(nice.vertex[node])
        for s in valid_tables[cs[0]]:
            for t in space.introduce(v, s):
                out[t] = 1
    elif kind == FORGET:
        v = int(nice.vertex[node])
        for s in valid_tables[cs[0]]:
            t = space.forget(v, s)
            if t is not None:
                out[t] = 1
    elif kind == JOIN:
        left, right = cs
        buckets: Dict[tuple, List[tuple]] = {}
        for sr in valid_tables[right]:
            buckets.setdefault(space.join_key(sr), []).append(sr)
        for sl in valid_tables[left]:
            for sr in buckets.get(space.join_key(sl), ()):
                t = space.join(sl, sr)
                if t is not None:
                    out[t] = 1
    else:  # pragma: no cover
        raise ValueError(f"unknown node kind {kind!r}")
    return out


def solve_path(
    space,
    nice: NiceDecomposition,
    path_nodes: Sequence[int],
    valid_tables: List[Optional[Dict[tuple, int]]],
    node_stats: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    engine: str = "packed",
) -> PathDAGResult:
    """Compute the valid partial matches of every node on ``path_nodes``
    (bottom-to-top) via the shortcut DAG (Lemma 3.3).

    ``node_stats`` optionally carries per-nice-node subtree statistics
    ``(forgotten_count, marked_forgotten)`` used to filter the local state
    enumeration (a sound prune — see ``admissible_at`` on the spaces).

    ``engine="packed"`` (default) runs the vectorized int64 DAG builder
    (identical reachability, diagnostics and charged cost; dict tables are
    re-encoded at the boundary), falling back to the reference tuple-dict
    build when the space has no packed kernels or a bag does not fit.
    """
    if engine not in ("packed", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "packed":
        ops = packed_ops_for(space, nice)
        if ops is not None:
            kids = nice.children()
            needed = set(kids[path_nodes[0]])
            for i in range(1, len(path_nodes)):
                if nice.kinds[path_nodes[i]] == JOIN:
                    cs = kids[path_nodes[i]]
                    needed.add(
                        cs[0] if cs[1] == path_nodes[i - 1] else cs[1]
                    )
            valid_codes: List[Optional[np.ndarray]] = [None] * nice.num_nodes
            for nd in needed:
                states = list(valid_tables[nd])
                valid_codes[nd] = np.sort(
                    ops.encode(ops.ctx(nice.bags[nd]), states)
                )
            res = _solve_path_packed(
                ops, nice, path_nodes, valid_codes, node_stats
            )
            valid_per_node = [
                {
                    s: 1
                    for s in ops.decode(
                        ops.ctx(nice.bags[node]), res.valid_codes[i]
                    )
                }
                for i, node in enumerate(path_nodes)
            ]
            return PathDAGResult(
                valid_per_node=valid_per_node,
                num_states=res.num_states,
                num_edges=res.num_edges,
                num_shortcuts=res.num_shortcuts,
                bfs_rounds=res.bfs_rounds,
                cost=res.cost,
            )
    kids = nice.children()
    t = len(path_nodes)
    work = 0

    # ---- vertex sets -------------------------------------------------------
    bottom = _bottom_states(space, nice, path_nodes[0], kids, valid_tables)
    states_per_node: List[List[tuple]] = [list(bottom.keys())]
    for i in range(1, t):
        node = path_nodes[i]
        states = space.local_states(nice.bags[node])
        if node_stats is not None:
            fc = int(node_stats[0][node])
            mf = bool(node_stats[1][node])
            states = [s for s in states if space.admissible_at(s, fc, mf)]
        states_per_node.append(states)
    index: List[Dict[tuple, int]] = []
    offsets = [0]
    for states in states_per_node:
        index.append({s: offsets[-1] + j for j, s in enumerate(states)})
        offsets.append(offsets[-1] + len(states))
    total = offsets[-1]
    work += total

    # ---- edges and the forest F -------------------------------------------
    adjacency: List[List[int]] = [[] for _ in range(total)]
    # F oriented along the DAG: f_up[src] = the vertex holding src's
    # canonical no-new-match lift (Figure 5); a forest of in-trees.
    f_up = np.full(total, NIL, dtype=np.int64)
    num_edges = 0

    def add_edge(src: int, dst: int) -> None:
        nonlocal num_edges
        adjacency[src].append(dst)
        num_edges += 1

    for i in range(1, t):
        node = path_nodes[i]
        kind = nice.kinds[node]
        cs = kids[node]
        here = index[i]
        below = index[i - 1]
        off_child_states = None
        buckets: Dict[tuple, List[tuple]] = {}
        if kind == JOIN:
            off_child = cs[0] if cs[1] == path_nodes[i - 1] else cs[1]
            off_child_states = valid_tables[off_child]
            for so in off_child_states:
                buckets.setdefault(space.join_key(so), []).append(so)
        v = int(nice.vertex[node]) if kind in (INTRODUCE, FORGET) else NIL
        for s, src in below.items():
            lift = space.lift(kind, v, s)
            targets: List[tuple] = []
            if kind == INTRODUCE:
                targets = list(space.introduce(v, s))
            elif kind == FORGET:
                tgt = space.forget(v, s)
                targets = [tgt] if tgt is not None else []
            else:  # JOIN
                for so in buckets.get(space.join_key(s), ()):
                    tgt = space.join(s, so)
                    if tgt is not None:
                        targets.append(tgt)
            work += max(len(targets), 1)
            targets = list(dict.fromkeys(targets))
            for tgt in targets:
                dst = here.get(tgt)
                if dst is None:
                    continue  # pruned locally (cannot be valid)
                add_edge(src, dst)
                if tgt == lift:
                    f_up[src] = dst
    work += total

    # ---- shortcuts on F (Lemma 3.3) ----------------------------------------
    num_shortcuts = 0
    if total > 1:
        pd, _ = layered_paths(np.asarray(f_up), None)
        # Charge Lemma 3.2's bound for the F decomposition (O(n) work,
        # O(log n) depth); the host-side layer evaluation is sequential but
        # the parallel evaluation is implemented and tested in repro.pram.
        pd_cost = Cost(
            max(2 * total, 1), max(1, 2 * log2_ceil(max(total, 2)))
        )
        h = max(1, log2_ceil(max(total, 2)))
        for f_path in pd.all_paths_bottom_up():
            ln = len(f_path)
            if ln <= 1:
                continue
            top = f_path[-1]
            for pos, u in enumerate(f_path[:-1]):
                # Exit jump to the path top.
                adjacency[u].append(top)
                num_shortcuts += 1
            hubs = f_path[::h]
            m = len(hubs)
            for a in range(m):
                step = 1
                while a + step < m:
                    adjacency[hubs[a]].append(hubs[a + step])
                    num_shortcuts += 1
                    step <<= 1
    else:
        pd_cost = Cost.zero()
    work += num_shortcuts

    # ---- hop-bounded reachability (level-synchronous BFS) ------------------
    reached = np.zeros(total, dtype=bool)
    frontier: List[int] = []
    for s, idx0 in index[0].items():
        reached[idx0] = True
        frontier.append(idx0)
    for i in range(1, t):
        for s, idx_i in index[i].items():
            if space.is_trivial_source(s) and not reached[idx_i]:
                reached[idx_i] = True
                frontier.append(idx_i)
    rounds = 0
    bfs_work = len(frontier)
    while frontier:
        rounds += 1
        nxt: List[int] = []
        for u in frontier:
            for w in adjacency[u]:
                bfs_work += 1
                if not reached[w]:
                    reached[w] = True
                    nxt.append(w)
        frontier = nxt
    work += bfs_work

    valid_per_node: List[Dict[tuple, int]] = []
    for i in range(t):
        valid_per_node.append(
            {s: 1 for s, idx_i in index[i].items() if reached[idx_i]}
        )

    lg = log2_ceil(max(total, 2))
    build_work = max(work - bfs_work, 1)
    cost = (
        Cost(build_work, min(build_work, max(1, 4 * lg)))
        + pd_cost
        + Cost(max(bfs_work, 1), min(max(bfs_work, 1), max(rounds, 1)))
    )
    return PathDAGResult(
        valid_per_node=valid_per_node,
        num_states=total,
        num_edges=num_edges,
        num_shortcuts=num_shortcuts,
        bfs_rounds=rounds,
        cost=cost,
    )


@dataclass
class _PackedPathResult:
    """Packed-engine path result: per-node sorted code arrays."""

    valid_codes: List[np.ndarray]
    num_states: int
    num_edges: int
    num_shortcuts: int
    bfs_rounds: int
    cost: Cost


def _bottom_codes(ops, nice, node, kids, valid_codes) -> np.ndarray:
    """Packed ``_bottom_states``: solved states of the path's bottom node."""
    kind = nice.kinds[node]
    cs = kids[node]
    if kind == LEAF:
        return ops.leaf_codes()
    ctx = ops.ctx(nice.bags[node])
    if kind == INTRODUCE:
        v = int(nice.vertex[node])
        _src, out, _ = ops.introduce(
            ops.ctx(nice.bags[cs[0]]), ctx, v, valid_codes[cs[0]]
        )
        return np.unique(out)
    if kind == FORGET:
        v = int(nice.vertex[node])
        _src, out, _ = ops.forget(
            ops.ctx(nice.bags[cs[0]]), ctx, v, valid_codes[cs[0]]
        )
        return np.unique(out)
    if kind == JOIN:
        _li, _ri, out, ok = ops.join(
            ctx, valid_codes[cs[0]], valid_codes[cs[1]]
        )
        return np.unique(out[ok])
    raise ValueError(f"unknown node kind {kind!r}")  # pragma: no cover


def _forest_shortcuts(
    f_up: np.ndarray,
    offsets: np.ndarray,
    t: int,
    h: int,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Shortcut edges of the layered path decomposition of F, vectorized.

    Produces the same edge multiset as running :func:`layered_paths` on
    ``f_up`` and emitting exit jumps plus hub doubling jumps per path (the
    reference builder's loops), exploiting that F's edges go strictly from
    DAG level ``i-1`` to level ``i``: the Appendix-A layer recursion and the
    within-path positions are evaluated with one vector sweep per level.
    """
    total = int(f_up.shape[0])
    layer = np.zeros(total, dtype=np.int64)
    # Appendix-A layer numbers, bottom-up one DAG level at a time: a parent
    # inherits its children's unique maximum, ties bump the layer by one.
    for i in range(1, t):
        lo, hi = int(offsets[i - 1]), int(offsets[i])
        child = np.flatnonzero(f_up[lo:hi] != NIL) + lo
        if not child.size:
            continue
        lp = f_up[child] - offsets[i]
        width = int(offsets[i + 1]) - int(offsets[i])
        best = np.full(width, -1, dtype=np.int64)
        np.maximum.at(best, lp, layer[child])
        ties = np.zeros(width, dtype=np.int64)
        np.add.at(ties, lp, (layer[child] == best[lp]).astype(np.int64))
        np.copyto(
            layer[offsets[i] : offsets[i + 1]],
            np.where(best >= 0, best + (ties >= 2), 0),
        )
    # Same-layer parent pointers form the path successor relation.
    succ = np.where(
        (f_up != NIL) & (layer[np.maximum(f_up, 0)] == layer), f_up, NIL
    )
    # Within-path positions (bottom = 0) and each node's path top, again one
    # sweep per level: succ edges also go strictly one level up.
    pos = np.zeros(total, dtype=np.int64)
    for i in range(1, t):
        lo, hi = int(offsets[i - 1]), int(offsets[i])
        child = np.flatnonzero(succ[lo:hi] != NIL) + lo
        pos[succ[child]] = pos[child] + 1
    top_of = np.arange(total, dtype=np.int64)
    for i in range(t - 2, -1, -1):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        child = np.flatnonzero(succ[lo:hi] != NIL) + lo
        top_of[child] = top_of[succ[child]]

    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    # Exit jumps: every non-top path node jumps to its path top.
    inner = np.flatnonzero(succ != NIL)
    if inner.size:
        src_parts.append(inner)
        dst_parts.append(top_of[inner])
    # Hub doubling jumps: hubs sit at positions 0, h, 2h, ... of each path;
    # hub a jumps to hubs a+1, a+2, a+4, ... within the same path.
    hubs = np.flatnonzero(pos % h == 0)
    if hubs.size:
        order = np.lexsort((pos[hubs], top_of[hubs]))
        hs = hubs[order]
        group = np.cumsum(
            np.concatenate(
                [[True], top_of[hs[1:]] != top_of[hs[:-1]]]
            ).astype(np.int64)
        )
        m = int(hs.size)
        step = 1
        idx = np.arange(m, dtype=np.int64)
        while step < m:
            ok = np.flatnonzero(
                (idx + step < m)
                & (group[np.minimum(idx + step, m - 1)] == group)
            )
            if not ok.size:
                break
            src_parts.append(hs[ok])
            dst_parts.append(hs[ok + step])
            step <<= 1
    return src_parts, dst_parts


def _solve_path_packed(
    ops,
    nice: NiceDecomposition,
    path_nodes: Sequence[int],
    valid_codes: List[Optional[np.ndarray]],
    node_stats: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> _PackedPathResult:
    """The shortcut-DAG path solve over packed code arrays.

    Mirrors the reference builder candidate-for-candidate: identical state
    sets, edge/shortcut counts, BFS rounds/work and charged cost — the DAG
    vertex numbering differs (codes are sorted) but the graph is isomorphic,
    and every accounted quantity is numbering-invariant.
    """
    kids = nice.children()
    t = len(path_nodes)
    work = 0
    ctxs = [ops.ctx(nice.bags[node]) for node in path_nodes]

    # ---- vertex sets ------------------------------------------------------
    # Above the bottom node the states are the bag's locally plausible
    # ones, enumerated with their digit matrix; the kept rows of that
    # matrix feed every kernel below, so no local table is decoded.
    states_codes: List[np.ndarray] = [
        _bottom_codes(ops, nice, path_nodes[0], kids, valid_codes)
    ]
    states_digits: List[Optional[np.ndarray]] = [None]
    for i in range(1, t):
        node = path_nodes[i]
        codes, digits = ops.local_table(ctxs[i])
        if node_stats is not None:
            fc = int(node_stats[0][node])
            mf = bool(node_stats[1][node])
            keep = ops.admissible_mask(ctxs[i], codes, fc, mf, digits)
            codes, digits = codes[keep], digits[keep]
        states_codes.append(codes)
        states_digits.append(digits)
    sizes = [int(c.size) for c in states_codes]
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(sizes, dtype=np.int64)]
    )
    total = int(offsets[-1])
    work += total

    # ---- edges and the forest F ------------------------------------------
    f_up = np.full(total, NIL, dtype=np.int64)
    edge_src_parts: List[np.ndarray] = []
    edge_dst_parts: List[np.ndarray] = []
    num_edges = 0
    for i in range(1, t):
        node = path_nodes[i]
        kind = nice.kinds[node]
        cs = kids[node]
        below = states_codes[i - 1]
        below_digits = states_digits[i - 1]
        here = states_codes[i]
        if kind == INTRODUCE:
            v = int(nice.vertex[node])
            csrc, cout, lift = ops.introduce(
                ctxs[i - 1], ctxs[i], v, below, below_digits
            )
        elif kind == FORGET:
            v = int(nice.vertex[node])
            csrc, cout, lift = ops.forget(
                ctxs[i - 1], ctxs[i], v, below, below_digits
            )
        else:  # JOIN
            off_child = cs[0] if cs[1] == path_nodes[i - 1] else cs[1]
            li, ri, jout, ok = ops.join(
                ctxs[i], below, valid_codes[off_child], below_digits
            )
            csrc = li[ok]
            cout = jout[ok]
            lift = ops.join_lift(ctxs[i], below, below_digits)
        counts = np.bincount(csrc, minlength=below.size)
        work += int(np.maximum(counts, 1).sum())
        pos, found = member_positions(here, cout)
        esrc = csrc[found]
        epos = pos[found]
        if esrc.size:
            here_n = np.int64(here.size)
            pair_keys = np.unique(esrc * here_n + epos)
            usrc = pair_keys // here_n
            upos = pair_keys % here_n
        else:
            pair_keys = usrc = upos = _EMPTY
        num_edges += int(usrc.size)
        edge_src_parts.append(offsets[i - 1] + usrc)
        edge_dst_parts.append(offsets[i] + upos)
        # f_up[src] is set exactly when the canonical lift is among src's
        # generated targets and locally plausible at the node above.
        lpos, lfound = member_positions(here, lift)
        cand = np.flatnonzero(lfound)
        if cand.size and pair_keys.size:
            lkeys = cand * np.int64(here.size) + lpos[cand]
            _p, inpairs = member_positions(pair_keys, lkeys)
            sel = cand[inpairs]
            f_up[offsets[i - 1] + sel] = offsets[i] + lpos[sel]
    work += total

    # ---- shortcuts on F (Lemma 3.3) --------------------------------------
    num_shortcuts = 0
    sc_src_parts: List[np.ndarray] = []
    sc_dst_parts: List[np.ndarray] = []
    if total > 1:
        sc_src_parts, sc_dst_parts = _forest_shortcuts(
            f_up, offsets, t, max(1, log2_ceil(max(total, 2)))
        )
        num_shortcuts = sum(int(a.size) for a in sc_src_parts)
        pd_cost = Cost(
            max(2 * total, 1), max(1, 2 * log2_ceil(max(total, 2)))
        )
    else:
        pd_cost = Cost.zero()
    work += num_shortcuts

    # ---- hop-bounded reachability (level-synchronous BFS) -----------------
    src_parts = edge_src_parts + sc_src_parts
    all_src = np.concatenate(src_parts) if src_parts else _EMPTY
    all_dst = (
        np.concatenate(edge_dst_parts + sc_dst_parts)
        if src_parts
        else _EMPTY
    )
    order = np.argsort(all_src, kind="stable")
    dst_sorted = all_dst[order]
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(all_src, minlength=total), out=indptr[1:]
    )

    reached = np.zeros(total, dtype=bool)
    frontier_parts = [np.arange(sizes[0], dtype=np.int64)]
    for i in range(1, t):
        trivial = np.flatnonzero(
            ops.trivial_source_mask(
                ctxs[i], states_codes[i], states_digits[i]
            )
        )
        if trivial.size:
            frontier_parts.append(offsets[i] + trivial)
    frontier = np.concatenate(frontier_parts)
    reached[frontier] = True
    rounds = 0
    bfs_work = int(frontier.size)
    while frontier.size:
        rounds += 1
        lo = indptr[frontier]
        hi = indptr[frontier + 1]
        bfs_work += int((hi - lo).sum())
        _q, bucket = expand_buckets(lo, hi)
        targets = dst_sorted[bucket] if bucket.size else bucket
        nxt = np.unique(targets)
        if nxt.size:
            nxt = nxt[~reached[nxt]]
        reached[nxt] = True
        frontier = nxt
    work += bfs_work

    out_codes = [
        states_codes[i][reached[offsets[i] : offsets[i + 1]]]
        for i in range(t)
    ]

    lg = log2_ceil(max(total, 2))
    build_work = max(work - bfs_work, 1)
    cost = (
        Cost(build_work, min(build_work, max(1, 4 * lg)))
        + pd_cost
        + Cost(max(bfs_work, 1), min(max(bfs_work, 1), max(rounds, 1)))
    )
    return _PackedPathResult(
        valid_codes=out_codes,
        num_states=total,
        num_edges=num_edges,
        num_shortcuts=num_shortcuts,
        bfs_rounds=rounds,
        cost=cost,
    )
