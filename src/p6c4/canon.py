"""Canonical labelling via colour refinement and individualization.

``canonical_code(g)`` returns bytes such that two graphs get the same code
iff they are isomorphic.  The search refines an ordered partition of the
vertices into cells until it is stable, then branches on the first cell
with more than one vertex, individualizing each of its vertices in turn,
and takes the minimum adjacency code over all discrete refinements.
Leaves with equal codes yield automorphisms; their orbits prune sibling
branches (classic individualization-refinement, sized for graphs up to a
few dozen vertices).  The automorphisms found on the way generate a
subgroup of Aut(g); :func:`automorphism_generators` hands them out.

Refinement splits cells in the manner of McKay & Piperno, "Practical graph
isomorphism, II" (J. Symbolic Comput. 60, 2014).  A partition is two
lists: ``cells[o]`` is the ascending vertex list of the cell that starts at
position ``o`` of the ordered partition, and ``cls[v]`` is that start for
``v``'s cell.  Cell ids thus order like the cells, and splitting one cell
changes no other cell's id.  A round splits cells by their vertices'
sorted tuples of neighbour cell ids, the pieces taking the cell's place in
ascending tuple order.

A round re-splits only the cells with a neighbour in a piece split off in
the previous round, leaving out the largest piece of each split cell.  No
other cell can split: its vertices agreed on the number of neighbours in
every old cell (that is why they share a cell), they still agree on every
cell that did not split, and the count into the left-out piece is the
count into its old cell minus the counts into the other pieces.

The colourings are exactly those of the plain rule, which ranks every
vertex in every round by (own colour, sorted neighbour colours) and
renumbers the colours 0, 1, ...  (``tests/test_canon.py`` keeps it as the
reference).  Because the own colour sorts first, a vertex's new colour is
its cell's place plus the rank of its tuple within the cell, which is what
splitting in place gives, and cell starts order like the dense colours,
so sorted tuples compare the same way under either.  The first round from
the single cell ranks by degree.  Individualizing ``v`` (colour ``2c - 1``
against ``2c`` for the rest of its cell) splits its cell into ``[v]``
followed by the rest, after which only the cells next to ``v`` can split.
So the search tree, codes, orders and generators are the plain rule's.

The first round after individualizing ``v`` needs no keys.  The partition
was equitable before ``v`` left its cell, whose start is ``o``: the
vertices of any one cell had equal tuples.  Within a cell, a neighbour
of ``v`` now has one ``o`` (for ``[v]``) where a non-neighbour has
``o + 1`` (for the rest of the old cell), all else equal, and no id lies
between the two, so the neighbours' tuple is the smaller one.  Each cell
next to ``v`` thus splits into its neighbours of ``v`` followed by the
rest, or not at all, and the general rounds continue from the pieces
moved.  The scan for the cell to branch on starts just after ``[v]``:
the cells before it are singletons already, and refinement only splits
cells.

Orbit pruning at a node uses the orbits of the generators that fix its
individualized path.  Each open node keeps its own orbit labels and
folds in only the generators found since it last looked, joining the
orbits of ``u`` and ``s[u]`` for every vertex ``u`` of each such ``s``.
The orbits are those a fresh pass over all the generators gives, so the
pruning is the same.

The search is one explicit loop over a stack of open nodes, so its depth
is not bounded by Python's recursion limit.

A caller may hand the search automorphisms of the graph that it knows
beforehand.  The enumerator does: a child ``G + w`` of a parent ``G`` has
every parent automorphism that maps ``N(w)`` onto itself, extended by
``w -> w`` (McKay, "Isomorph-free exhaustive generation", J. Algorithms
26, 1998).  The generators start from them, so orbit pruning uses them
from the first branching.  This is sound for the same reason orbit
pruning is: a subtree is skipped only when an automorphism fixing its
path maps an explored sibling onto it, and then its leaves are images of
explored leaves with the same codes.  So the first leaf that reaches the
least code is never skipped, and the code and the canonical order do not
change.  Only the generators do: fewer are found, and the inherited ones
come first.  They still generate the whole automorphism group (the proof
is in :mod:`p6c4.enumeration`, which decides a child's canonical deletion
by their orbits and keeps the same search result with the child).
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, bits


def _code_under(n: int, adj: tuple[int, ...], order: list[int]) -> bytes:
    acc = 0
    for i in range(n - 1):
        row = adj[order[i]]
        for w in order[i + 1 :]:
            acc = (acc << 1) | (row >> w & 1)
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


def _search(
    n: int,
    adj: tuple[int, ...],
    nbrs: list[list[int]],
    auts: Sequence[tuple[int, ...]] = (),
) -> tuple[bytes, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The search as one explicit loop: ``(code, order, generators)``.

    ``adj`` holds the rows and ``nbrs[v]`` the neighbours of ``v`` of an
    ``n``-vertex graph.  ``auts`` are automorphisms of that graph known
    before the search; the generators start from them, so orbit pruning
    uses them from the first branching (see the module docstring).

    ``stack`` holds a frame per open node on the current path: its
    partition (``cls``, ``cells``), the start ``o`` of the cell it branches
    on, the index of the next vertex of that cell to try, the vertices
    already branched on, the number of generators folded into its orbit
    labels ``orbit`` (None until the first fold), and the mask ``path`` of
    the vertices individualized on the way to it.  ``fixed[j]`` masks the
    fixed points of ``gens[j]`` (filled when a fold first needs it), so a
    generator fixes a path when its mask covers the path's.

    Each pass of the outer loop refines one node, handles it as a leaf or
    pushes its frame, and then moves to the next child of the deepest open
    node.  ``splits`` holds the splits of the round about to be applied,
    each a cell start and the pieces that take the cell's place: the
    degree classes at the root, and the first round's splits after an
    individualization.
    """
    best_code: bytes | None = None
    best_order: list[int] | None = None
    gens: list[tuple[int, ...]] = list(auts)
    fixed: list[int] = []  # fixed-point masks of the first generators

    # The root's first round ranks by degree.
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    cls, cells = [0] * n, [[]] * n  # the splits set every cell start
    splits = [(0, [by_degree[d] for d in sorted(by_degree)])] if n else []
    path = 0  # the individualized vertices, as a mask
    stack: list[list] = []
    o = 0  # where the scan for a cell to branch on starts
    while True:
        while splits:  # apply a round, then find the next one's splits
            moved = []
            for c, pieces in splits:
                big = max(pieces, key=len)  # the first largest on ties
                for j, piece in enumerate(pieces):
                    cells[c] = piece
                    if j:
                        for v in piece:
                            cls[v] = c
                    if piece is not big:
                        moved += piece
                    c += len(piece)
            splits = []
            key_of = cls.__getitem__
            for c in {key_of(u) for v in moved for u in nbrs[v]}:
                members = cells[c]
                if len(members) == 1:
                    continue
                groups: dict[tuple[int, ...], list[int]] = {}
                for v in members:
                    key = tuple(sorted(map(key_of, nbrs[v])))
                    if key in groups:
                        groups[key].append(v)
                    else:
                        groups[key] = [v]
                if len(groups) > 1:
                    splits.append((c, [groups[key] for key in sorted(groups)]))
        while o < n and len(cells[o]) == 1:
            o += 1
        if o < n:  # branch on the first cell with more than one vertex
            stack.append([cls, cells, o, 0, [], 0, None, path])
        else:
            order = [cell[0] for cell in cells]
            code = _code_under(n, adj, order)
            if best_code is None or code < best_code:
                best_code, best_order = code, order
            elif code == best_code:
                aut = [0] * n
                for i in range(n):
                    aut[best_order[i]] = order[i]
                gens.append(tuple(aut))
        # Descend into the next unpruned child of the deepest open node.
        while stack:
            frame = stack[-1]
            cls, cells, o, i, branched, ngens, orbit, path = frame
            cell = cells[o]
            v = -1
            while i < len(cell):
                u = cell[i]
                i += 1
                if branched and gens:
                    # Skip u if an automorphism fixing the individualized
                    # path maps an already-branched vertex to it.
                    if ngens < len(gens):
                        if orbit is None:
                            orbit = list(range(n))
                        for s in gens[len(fixed) :]:
                            fixed.append(sum(1 << a for a in range(n) if s[a] == a))
                        for j in range(ngens, len(gens)):
                            if fixed[j] & path == path:
                                s = gens[j]
                                for a in range(n):
                                    x, y = orbit[a], orbit[s[a]]
                                    if x != y:
                                        orbit = [y if z == x else z for z in orbit]
                        ngens = len(gens)
                    x = orbit[u]
                    if any(orbit[w] == x for w in branched):
                        continue
                v = u
                break
            if v < 0:
                stack.pop()
                continue
            frame[3], frame[5], frame[6] = i, ngens, orbit
            branched.append(v)
            # Individualize v: its cell becomes [v] followed by the rest.
            cls, cells = cls[:], cells[:]
            rest = [u for u in cell if u != v]
            cells[o], cells[o + 1] = [v], rest
            for u in rest:
                cls[u] = o + 1
            path |= 1 << v
            # The first round: each cell next to v splits into its
            # neighbours of v followed by the rest, or not at all.
            row = adj[v]
            for c in {cls[u] for u in nbrs[v]}:
                members = cells[c]
                if len(members) > 1:
                    inside = [u for u in members if row >> u & 1]
                    if len(inside) < len(members):
                        splits.append((c, [inside, [u for u in members if not row >> u & 1]]))
            o += 1
            break
        else:
            break  # no open node left: the search is complete
    assert best_code is not None and best_order is not None
    return best_code, tuple(best_order), tuple(gens)


def _canonical(g: Graph) -> tuple[bytes, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """:func:`_search` on ``g`` with no automorphisms known beforehand."""
    return _search(g.n, g.adj, [list(bits(row)) for row in g.adj])


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant code: equal codes iff isomorphic graphs."""
    if g._canon is None:
        g._canon = _canonical(g)
    return g._canon[0]


def canonical_order(g: Graph) -> tuple[int, ...]:
    """``order[i]`` is the vertex of ``g`` placed at canonical position ``i``."""
    canonical_code(g)
    return g._canon[1]


def canonical_form(g: Graph) -> Graph:
    """``g`` with vertex ``canonical_order(g)[i]`` renamed to ``i``: the graph
    its canonical code encodes, so it depends only on ``g``'s class and is
    its own canonical form."""
    position = sorted(range(g.n), key=canonical_order(g).__getitem__)
    return g.relabel(tuple(position))


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of ``g`` found by the canonical search, ``s[v]`` being
    the image of ``v``.  They generate a subgroup of Aut(g), often all of it;
    the tuple is empty when the search met no symmetry.  A graph made by
    the enumerator carries the generators its search started from, the
    automorphisms inherited from its parent, followed by those it found,
    so the tuple can differ from the one a fresh copy of ``g`` gets."""
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
