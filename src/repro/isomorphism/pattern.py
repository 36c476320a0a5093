"""Pattern graphs: the small graph H we search for (k vertices, diameter d).

Bundles the pattern with the precomputed facts the engines need (neighbor
tuples, diameter, connectivity, components) plus a small library of the
named patterns used throughout the paper and the benchmarks (triangles,
paths, cycles — including the separating 8-cycle of Section 5 — stars, K4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graphs.csr import Graph
from ..graphs.components import connected_components

__all__ = [
    "Pattern",
    "triangle",
    "path_pattern",
    "cycle_pattern",
    "star_pattern",
    "clique_pattern",
    "diamond",
]


@dataclass(frozen=True)
class Pattern:
    """A pattern graph H with cached structure.

    Attributes
    ----------
    graph:
        The pattern as a :class:`Graph` (vertices ``0..k-1``).
    """

    graph: Graph
    _neighbors: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)
    _neighbor_arrays: Tuple[np.ndarray, ...] = field(
        init=False, repr=False, compare=False
    )
    _adj_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _adj_bits: np.ndarray = field(init=False, repr=False, compare=False)
    # Lazily memoized derived statistics (diameter BFS sweeps, component
    # labelling, connected-subpattern counting are each paid once per
    # pattern object, not once per query of a batch).
    _diameter: Optional[int] = field(
        init=False, repr=False, compare=False, default=None
    )
    _connected: Optional[bool] = field(
        init=False, repr=False, compare=False, default=None
    )
    _subpattern_count: Optional[int] = field(
        init=False, repr=False, compare=False, default=None
    )
    # Locally plausible packed states per bag *structure* (the packed
    # kernels' Section 3.3.2 enumeration), shared by every state space,
    # piece and session that uses this pattern object.
    _local_tables: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.graph.n == 0:
            raise ValueError("the pattern must have at least one vertex")
        object.__setattr__(
            self,
            "_neighbors",
            tuple(
                tuple(int(w) for w in self.graph.neighbors(v))
                for v in range(self.graph.n)
            ),
        )
        # NumPy views of the adjacency, precomputed once so the packed DP
        # kernels never iterate neighbor tuples per call: per-vertex sorted
        # neighbor arrays, the dense k x k boolean matrix, and (for k <= 63)
        # one int64 neighbor bitmask per vertex.
        k = self.graph.n
        object.__setattr__(
            self,
            "_neighbor_arrays",
            tuple(
                np.asarray(self._neighbors[v], dtype=np.int64)
                for v in range(k)
            ),
        )
        adj = np.zeros((k, k), dtype=bool)
        for u, v in self.graph.iter_edges():
            adj[u, v] = adj[v, u] = True
        object.__setattr__(self, "_adj_matrix", adj)
        if k <= 63:
            bits = (adj.astype(np.int64) << np.arange(k, dtype=np.int64)).sum(
                axis=1
            )
        else:  # pragma: no cover - patterns are tiny by construction
            bits = np.zeros(k, dtype=np.int64)
        object.__setattr__(self, "_adj_bits", bits)

    @property
    def k(self) -> int:
        """Number of pattern vertices."""
        return self.graph.n

    def neighbors(self, p: int) -> Tuple[int, ...]:
        return self._neighbors[p]

    def neighbor_array(self, p: int) -> np.ndarray:
        """Sorted neighbor ids of ``p`` as an int64 array (do not mutate)."""
        return self._neighbor_arrays[p]

    @property
    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``k x k`` boolean adjacency (do not mutate)."""
        return self._adj_matrix

    @property
    def adjacency_bits(self) -> np.ndarray:
        """Per-vertex int64 neighbor bitmasks (``k <= 63`` only)."""
        return self._adj_bits

    @property
    def local_tables(self) -> Dict[tuple, Tuple[np.ndarray, np.ndarray]]:
        """Memo of the packed kernels' local-state tables, keyed by bag
        structure (see ``repro.isomorphism.packed``); lives as long as
        this pattern object."""
        return self._local_tables

    def edge_list(self) -> List[Tuple[int, int]]:
        """Canonical ``u < v`` pattern edges as Python int pairs."""
        return [(int(u), int(v)) for u, v in self.graph.edges()]

    def is_connected(self) -> bool:
        if self._connected is None:
            _, count, _ = connected_components(self.graph)
            object.__setattr__(self, "_connected", count <= 1)
        return bool(self._connected)

    def components(self) -> List[np.ndarray]:
        """Vertex arrays of the connected components."""
        labels, count, _ = connected_components(self.graph)
        from ..graphs.components import component_members

        return component_members(labels, count)

    def component_patterns(self) -> List[Tuple["Pattern", np.ndarray]]:
        """Each component as its own pattern plus the original vertex ids."""
        out = []
        for members in self.components():
            sub, originals = self.graph.induced_subgraph(members)
            out.append((Pattern(sub), originals))
        return out

    def diameter(self) -> int:
        """Diameter of the pattern (max over components; the quantity ``d``
        of Corollary 2.2).  Memoized: the all-sources BFS sweep runs once
        per pattern object, not once per query."""
        if self._diameter is not None:
            return self._diameter
        from ..graphs.bfs import parallel_bfs

        best = 0
        for v in range(self.k):
            res, _ = parallel_bfs(self.graph, [v])
            reached = res.level[res.level >= 0]
            best = max(best, int(reached.max(initial=0)))
        object.__setattr__(self, "_diameter", best)
        return best

    def connected_subpattern_count(self) -> int:
        """``|C(H)|`` — the number of vertex subsets inducing a connected
        subpattern (Eppstein's connected-pattern decomposition bound; the
        planner's state-richness statistic).

        Computed by bitmask BFS over the precomputed adjacency bitmasks for
        ``k <= 20`` (at most ~1M subsets for the tiny patterns this library
        handles); for larger patterns the trivial upper bound ``2^k`` is
        returned.  Memoized per pattern object.
        """
        if self._subpattern_count is not None:
            return self._subpattern_count
        k = self.k
        if k > 20:  # pragma: no cover - patterns are tiny by construction
            count = 1 << k
        else:
            bits = [int(b) for b in self._adj_bits]
            count = 0
            for subset in range(1, 1 << k):
                # Flood from the lowest member through adjacency bitmasks.
                low = subset & -subset
                seen = low
                frontier = low
                while frontier:
                    reach = 0
                    f = frontier
                    while f:
                        v = f & -f
                        reach |= bits[v.bit_length() - 1]
                        f ^= v
                    frontier = reach & subset & ~seen
                    seen |= frontier
                if seen == subset:
                    count += 1
        object.__setattr__(self, "_subpattern_count", count)
        return count

    def spanning_forest_edges(self) -> List[Tuple[int, int]]:
        """A spanning forest (used by Observation 1's argument)."""
        seen = np.zeros(self.k, dtype=bool)
        edges = []
        for root in range(self.k):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            while queue:
                u = queue.pop()
                for w in self.neighbors(u):
                    if not seen[w]:
                        seen[w] = True
                        edges.append((u, w))
                        queue.append(w)
        return edges


# The named factories are interned: patterns (and graphs) are immutable, so
# repeated batch entries reuse one Pattern object and share its memoized
# fingerprint, adjacency bitmasks, diameter and |C(H)| statistics.


@lru_cache(maxsize=None)
def triangle() -> Pattern:
    """K3."""
    return Pattern(Graph(3, [(0, 1), (1, 2), (0, 2)]))


@lru_cache(maxsize=None)
def path_pattern(k: int) -> Pattern:
    """The path on ``k`` vertices."""
    if k < 1:
        raise ValueError("need at least one vertex")
    return Pattern(Graph(k, [(i, i + 1) for i in range(k - 1)]))


@lru_cache(maxsize=None)
def cycle_pattern(k: int) -> Pattern:
    """The cycle on ``k >= 3`` vertices (``k = 2c`` for Section 5's
    separating cycles)."""
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Pattern(Graph(k, [(i, (i + 1) % k) for i in range(k)]))


@lru_cache(maxsize=None)
def star_pattern(leaves: int) -> Pattern:
    """The star with ``leaves`` leaves."""
    if leaves < 1:
        raise ValueError("need at least one leaf")
    return Pattern(Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)]))


@lru_cache(maxsize=None)
def clique_pattern(k: int) -> Pattern:
    """K_k (planar-embeddable only for k <= 4)."""
    return Pattern(
        Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
    )


@lru_cache(maxsize=None)
def diamond() -> Pattern:
    """K4 minus an edge."""
    return Pattern(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
