"""Immutable simple graphs on vertex set {0, ..., n-1} with bitset adjacency.

Each adjacency row is a Python int used as a bit mask: bit ``u`` of
``g.adj[v]`` is set iff ``uv`` is an edge.  Arbitrary-precision ints give
word-parallel set operations (intersection, popcount) for free, which is
what the enumeration and detection inner loops live on.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """An immutable, loop-free, undirected graph.

    Equality and hashing are *labelled* (same n, same adjacency rows);
    use :func:`p6c4.canon.is_isomorphic` for unlabelled comparison.

    Three memo slots hang off each graph and take no part in equality or
    hashing, which is sound because the graph never changes: ``_canon``
    holds the canonical code, the canonical order and the automorphism
    generators once :mod:`p6c4.canon` has computed them; ``_found`` is
    :func:`p6c4.detect.find_induced_copy`'s answer cache, a dict from
    ``(pattern.n, pattern.adj)`` to the first embedding or ``None``; and
    ``_cutset`` is :func:`p6c4.structure.find_clique_cutset`'s answer.
    ``_canon`` and ``_found`` start as ``None``; ``_cutset`` starts as
    ``False``, because ``None`` there is an answer (no clique cutset).
    A graph pickles as its rows and ``_canon``, so a canonical search
    result crosses a process boundary with its graph; the answer caches
    do not, and arrive fresh.
    """

    __slots__ = ("n", "adj", "_canon", "_found", "_cutset")

    def __init__(self, n: int, adj: tuple[int, ...], _checked: bool = False):
        if not _checked:
            if n < 0:
                raise ValueError("vertex count must be non-negative")
            if len(adj) != n:
                raise ValueError("adjacency row count does not match n")
            full = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~full:
                    raise ValueError(f"row {v} references vertices outside range")
                if row >> v & 1:
                    raise ValueError(f"self-loop at vertex {v}")
            for v in range(n):
                for u in bits(adj[v]):
                    if not adj[u] >> v & 1:
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self.adj = tuple(adj)
        self._canon = None
        self._found = None
        self._cutset = False

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"multi-edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows), _checked=True)

    def add_vertex(self, nbr_mask: int) -> "Graph":
        """Return the graph extended by one new vertex adjacent to ``nbr_mask``."""
        if nbr_mask >> self.n:
            raise ValueError("neighbour mask out of range")
        w = self.n
        wbit = 1 << w
        rows = list(self.adj)
        for u in bits(nbr_mask):
            rows[u] |= wbit
        rows.append(nbr_mask)
        return Graph(w + 1, tuple(rows), _checked=True)

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``perm[v]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        rows = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in bits(self.adj[v]):
                row |= 1 << perm[u]
            rows[perm[v]] = row
        return Graph(self.n, tuple(rows), _checked=True)

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min_degree of the empty graph is undefined")
        return min(row.bit_count() for row in self.adj)

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            later = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits(later):
                out.append((v, u))
        return out

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def component_mask(self, start: int, within: int = -1) -> int:
        """The component of ``start`` in the subgraph induced by the vertex
        mask ``within`` (default: every vertex); ``start`` must be in it."""
        adj = self.adj
        seen = frontier = 1 << start
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & within & ~seen
            seen |= frontier
        return seen

    def is_connected(self) -> bool:
        """Whether the graph has at most one component (vacuously true for n = 0)."""
        if self.n <= 1:
            return True
        return self.component_mask(0) == self.full_mask()

    def is_clique(self, vertex_mask: int) -> bool:
        for v in bits(vertex_mask):
            if vertex_mask & ~self.adj[v] & ~(1 << v):
                return False
        return True

    def is_independent(self, vertex_mask: int) -> bool:
        for v in bits(vertex_mask):
            if vertex_mask & self.adj[v]:
                return False
        return True

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __reduce__(self):
        return (_unpickle, (self.n, self.adj, self._canon))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _unpickle(n: int, adj: tuple[int, ...], canon) -> Graph:
    g = Graph(n, adj, _checked=True)
    g._canon = canon
    return g


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``s`` plus the relabelling map.

    Returns ``(h, vmap)`` where ``vmap[i]`` is the vertex of ``g`` that
    became vertex ``i`` of ``h`` (ascending order of ``s``).
    """
    vmap = sorted(set(s))
    for v in vmap:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    pos = {v: i for i, v in enumerate(vmap)}
    rows = []
    smask = mask_of(vmap)
    for v in vmap:
        row = 0
        for u in bits(g.adj[v] & smask):
            row |= 1 << pos[u]
        rows.append(row)
    return Graph(len(vmap), tuple(rows), _checked=True), tuple(vmap)
