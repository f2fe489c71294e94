"""Canonical labelling via colour refinement and individualization.

``canonical_code(g)`` returns bytes such that two graphs get the same code
iff they are isomorphic.  The search refines the vertex partition to a
stable colouring, then branches on the first non-singleton colour class,
taking the minimum adjacency code over all discrete refinements.  Leaves
with equal codes yield automorphisms; their orbits prune sibling branches
(classic individualization-refinement, sized for graphs up to a few dozen
vertices).  The automorphisms found on the way generate a subgroup of
Aut(g); :func:`automorphism_generators` hands them out.
"""

from __future__ import annotations

from .graphs import Graph, bits


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """Stable colouring: rank (own colour, sorted neighbour colours) until
    no class splits.  The result uses the colours 0, 1, ... in rank order.
    """
    while True:
        sigs = [
            (c, tuple(sorted([colors[u] for u in nb]))) for c, nb in zip(colors, nbrs)
        ]
        ranked = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(ranked)}
        new = [rank[s] for s in sigs]
        if len(ranked) == len(set(colors)):
            # No class split, so ``new`` is a monotone relabelling of
            # ``colors`` and another round would return ``new`` unchanged.
            return new
        colors = new


def _code_under(n: int, adj: tuple[int, ...], order: list[int]) -> bytes:
    acc = 0
    for i in range(n):
        row = adj[order[i]]
        for j in range(i + 1, n):
            acc = (acc << 1) | (row >> order[j] & 1)
    nbytes = (n * (n - 1) // 2 + 7) // 8
    return n.to_bytes(4, "big") + acc.to_bytes(nbytes, "big")


def orbits(n: int, perms) -> list[int]:
    """An orbit label per vertex of {0, ..., n-1} under the group that the
    permutations ``perms`` generate; equal labels mean the same orbit."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in perms:
        for a in range(n):
            ra, rb = find(a), find(s[a])
            if ra != rb:
                parent[ra] = rb
    return [find(a) for a in range(n)]


def _canonical(
    g: Graph,
) -> tuple[bytes, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    n, adj = g.n, g.adj
    if n == 0:
        return b"\x00\x00\x00\x00", (), ()
    nbrs = [list(bits(row)) for row in adj]
    best_code: bytes | None = None
    best_order: list[int] | None = None
    gens: list[tuple[int, ...]] = []

    def rec(colors: list[int], path: tuple[int, ...]) -> None:
        nonlocal best_code, best_order
        colors = _refine(nbrs, colors)  # colours 0..k-1, k = class count
        if max(colors) == n - 1:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            code = _code_under(n, adj, order)
            if best_code is None or code < best_code:
                best_code, best_order = code, order
            elif code == best_code:
                aut = [0] * n
                for i in range(n):
                    aut[best_order[i]] = order[i]
                gens.append(tuple(aut))
            return
        size = [0] * n
        for c in colors:
            size[c] += 1
        target = next(c for c in range(n) if size[c] > 1)
        cell = [v for v, c in enumerate(colors) if c == target]
        branched: list[int] = []
        known, orbit = 0, None
        for v in cell:
            if branched and gens:
                # Skip v if an automorphism fixing the individualized path
                # maps an already-branched vertex to it.
                if len(gens) != known:
                    known = len(gens)
                    orbit = orbits(n, [s for s in gens if all(s[w] == w for w in path)])
                if any(orbit[v] == orbit[u] for u in branched):
                    continue
            branched.append(v)
            child = [2 * c for c in colors]
            child[v] = 2 * colors[v] - 1
            rec(child, path + (v,))

    rec([0] * n, ())
    assert best_code is not None and best_order is not None
    return best_code, tuple(best_order), tuple(gens)


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic graphs."""
    if g._canon is None:
        g._canon = _canonical(g)
    return g._canon[0]


def canonical_order(g: Graph) -> tuple[int, ...]:
    """``order[i]`` is the vertex of ``g`` placed at canonical position ``i``."""
    canonical_code(g)
    return g._canon[1]


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of ``g`` found by the canonical search, ``s[v]`` being
    the image of ``v``.  They generate a subgroup of Aut(g), often all of it;
    the tuple is empty when the search met no symmetry."""
    canonical_code(g)
    return g._canon[2]


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_code(g) == canonical_code(h)


def isomorphism_map(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """A vertex bijection ``f`` with ``f[v_of_g] = v_of_h``, or None."""
    if not is_isomorphic(g, h):
        return None
    og, oh = canonical_order(g), canonical_order(h)
    f = [0] * g.n
    for i in range(g.n):
        f[og[i]] = oh[i]
    for v in range(g.n):
        for u in bits(g.adj[v]):
            assert h.adj[f[v]] >> f[u] & 1, "canonical orders disagree"
    return tuple(f)
