"""Exhaustive enumeration of pattern-free graphs and minimal obstructions.

Graphs are generated level by level: every n-vertex candidate arises from
an (n-1)-vertex parent by attaching one new vertex to a nonempty
admissible neighborhood, so every graph generated is connected.
Forbidden patterns are hereditary, so a candidate is checked only around
the new vertex; isomorphic duplicates are removed by canonical code within
each level.  Every connected graph in the target family is reachable this
way — deleting any non-cut vertex of a connected family member leaves a
smaller connected family member.

Each parent is analysed once.  A table indexed by neighbourhood mask
(:func:`_bad_masks`) marks the masks that put a forbidden pattern through
the new vertex; it is built from the induced copies of each pattern minus
one vertex in the parent, so it is exact for any pattern.  The table of a
parent P = G + b, with b its last vertex, comes from the table of the
parent G that produced it: a copy in P that avoids b is a copy in G and
makes mask M bad exactly when it makes M minus b bad for G, so P's table
is G's table twice over (the second half for the masks that contain b),
and only the copies whose largest vertex is b are enumerated and added.
The producer's table travels with its children to the next level, beside
its class table (below); a parent without one (a seed, a level resumed
from a checkpoint) folds the same rule over its vertices from the empty
graph.  Either way each copy is counted once, at its largest vertex, and
the table is the one a pass over every copy gives.  Masks are then
walked in ascending order, and the parent's automorphisms (kept by
:mod:`p6c4.canon`) skip every mask in the orbit of one already taken: its
child is isomorphic to an earlier child of the same parent.  Only the
remaining children are canonically labelled, and each level keeps the
same labelled representatives as a walk over every mask would.

A child's canonical search starts from the parent's automorphisms that
map its mask onto itself, each extended by fixing the new vertex; these
are automorphisms of the child, so its search prunes with them from the
first branching and reaches fewer leaves for the same code and order
(see :mod:`p6c4.canon`).  The child's rows and neighbour lists are
built from the parent's, and a :class:`~p6c4.graphs.Graph` is made only
for a child that is kept, carrying its search result.

A level is expanded in chunks of parents (:func:`_expand_chunk`), and
the parents of a chunk share one dict ``known`` from canonical-search
leaf code to class code (see :mod:`p6c4.canon`).  A child isomorphic to
a graph already kept is recognised at its first search leaf and dropped
there; the first child of each class still runs its whole search.  A
serial run makes the whole level one chunk; with several workers, each
task is one chunk, parents and children cross the process boundary as
:class:`~p6c4.graphs.Graph` objects, which pickle with their canonical
search results, and the merge keeps the first child of each class in
parent order.  So the level keeps the same representatives whatever the
worker count, and no worker searches a parent again for its
automorphisms.

Many children are dropped before any labelling by the earlier-parent
test.  While a level is built, each parent G records a class table: for
every free mask M whose child was labelled, the class of G + a(M) (a
kept child's code, or the class code a duplicate's first leaf maps to
in ``known``).  Once the level is sorted and sifted, the classes
become indices into the next parent list (-1 for a class that is not a
parent), and every parent P_i = G + b, with b its last vertex, carries
the table of the G that produced it.
A child X = P_i + a(M) is dropped when G's table maps the mask M minus b
to an index j < i.  This is exact: X - b is G + a(M minus b), so it is
isomorphic to P_j by some map f, and X is isomorphic to P_j plus a vertex
on f(N_X(b)): the walk over P_j, which comes earlier, meets X's class at
that mask (or X has a forbidden pattern and is never kept).  By
induction on the parent index, the first parent whose walk meets a
class never drops it, so the level keeps the same representatives,
codes and sizes, whatever the worker count.  A parent without a table
(the seeds, a level resumed from a checkpoint) drops nothing, and the
last level builds no tables.  (A counted last level, below, runs no
earlier-parent test: it would drop children that are counted there, and
only the forbidden-mask tables pass down to it.)  Both searches run
this level loop (:func:`_grow`), which stops at ``n_max`` or at a level
with nothing to extend.

The obstruction search additionally prunes extensions of graphs that are
already non-k-colorable: such a graph either is a minimal obstruction
(recorded, never extended) or properly contains one (hence no extension
can be minimal).  Every graph it extends comes with a k-coloring, and
each child inherits one when its mask misses a color class: the new
vertex takes the smallest such color.  A child with an inherited
coloring is kept with no coloring search; only the others (the seeds,
the children of parents resumed from a checkpoint, and masks that meet
all k classes) cost one.  Colorings travel with their level, to the
workers and back, and are dropped with it; the family search carries
none.  A non-colorable graph with a vertex of degree below k is not
minimal (that vertex extends any k-coloring of the rest), so the
deletion checks run only on graphs of minimum degree at least k.

The obstruction search never extends its last level (``n_max``), so it
counts that level instead of building it (:func:`_count_level`), unless a
checkpoint must list its graphs.  The parents are the k-colorable
connected family members on ``n_max - 1`` vertices, one per class, and
each class of the level is counted once, from one parent, by canonical
deletion (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998).  For a child X = P + w, D(X) is the set of vertices v with X - v
connected and k-colorable: exactly the v for which X - v is a parent, so
D(X) holds w and is invariant under isomorphism.

- **D(X) without coloring.**  Every minimal obstruction with fewer
  vertices than X is found by then, and P is k-colorable, so every copy
  of one in X goes through w, and X - v is k-colorable iff v lies on
  every such copy.  ``core[M]`` (:func:`_core_masks`, built per parent
  like :func:`_bad_masks` from the obstructions minus one vertex) is the
  intersection of those copies, or every vertex when there is none, and
  D(X) is the non-cut vertices of X in ``core[M]``.
- **The canonical deletion.**  m(X) is the vertex of D(X) with the
  largest invariant (its degree, then the sum of its neighbours'
  degrees), and on a tie the tied vertex at the least position of X's
  canonical order.  X is accepted iff w lies in the orbit of m(X) under
  Aut(X).  A child whose w some vertex of D(X) beats is rejected, and one
  whose w is the unique maximum accepted, both without labelling; only a
  tie labels X, its search starting from the parent automorphisms that
  fix the mask, and the orbits of the generators it returns decide.
- **Exactly once.**  Let X be a class of the level and v = m(X).  X - v is
  isomorphic to exactly one parent P.  Two children P + w with masks M1,
  M2 are isomorphic by a map taking w to w iff some automorphism of P
  maps M1 to M2, so the accepted children of P isomorphic to X are one
  orbit of Aut(P) on masks, and no other parent has one.  The walk takes
  one mask per orbit of the parent's generators, so this needs the
  generators to generate all of Aut(P) (and, for ties, those of X all of
  Aut(X)).  They do, although :mod:`p6c4.canon` compares each leaf only
  with the best leaf so far.  Let ζ be the first leaf with the least code,
  and Γ_i the automorphisms fixing the first i vertices individualized
  on the way to ζ, and H_i the group of the generators that fix them.  A
  vertex u of the next cell in the Γ_i-orbit of ζ's own choice u* is
  explored after u* (an earlier one would reach the least code first),
  and then its subtree meets a leaf with the least code, whose generator
  maps u* to u and fixes those i vertices; or u is pruned, because an
  element of H_i maps an explored vertex to it.  So H_i moves u* across
  its whole Γ_i-orbit, and by induction down from the discrete leaf,
  where Γ is trivial, H_i contains Γ_i; H_0 is Aut.
- **Colorability.**  An accepted X with ``core[M]`` not every vertex
  contains a smaller obstruction: it is counted, not minimal.  Otherwise X
  is k-colorable if it inherits a coloring, or else if ``k_color`` finds
  one; if not, it is a new minimal obstruction.
- **The same representatives.**  A built level keeps, for each class,
  the first child in (parent index, mask) order.  The parents that
  produce X are those isomorphic to some X - v, so the first is P_E with
  E the least parent index among the classes of the X - v; the
  earlier-parent test never drops that child, and within P_E it is the
  least mask M whose child is isomorphic to X, since a mask is skipped
  only in the orbit of a smaller one.  :func:`_first_child` rebuilds
  P_E + a(M) for each new obstruction: an isomorphism from X - v onto
  P_E maps N(v) to one such mask, and all of them are the images of
  these under the generators of P_E.

So the level sizes, obstructions and their bytes are those of the built
level, and a worker returns its chunk's count and obstructions only.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .graphs import Graph, bits, induced_subgraph, mask_of
from . import __version__, canon, codec, coloring, detect, families, structure


@dataclass(frozen=True)
class SearchConfig:
    k: int = 3
    n_max: int = 8
    forbidden: tuple[Graph, ...] = ()
    workers: int = 1

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def p6c4_config(**kw) -> SearchConfig:
    """A SearchConfig with the (P6,C4) forbidden family preloaded."""
    kw.setdefault("forbidden", families.P6C4)
    return SearchConfig(**kw)


# What a parent records for its children when a level is built (its class
# table and forbidden-mask table), and what each child inherits from it as
# a parent of the next level (the class table turned into parent indices,
# and the same forbidden-mask table).
Recorded = tuple[list[bytes | None], bytearray]
Inherited = tuple[array, bytearray]


@lru_cache(maxsize=64)
def _vertex_deleted(pat: Graph) -> tuple[tuple[Graph, int], ...]:
    """``(H - x, N_H(x) as a mask of H - x)`` for one ``x`` per orbit of the
    pattern's automorphisms (the other ``x`` give the same copies)."""
    label = canon.orbits(pat.n, canon.automorphism_generators(pat))
    out = []
    for x in range(pat.n):
        if label.index(label[x]) != x:
            continue  # not the first vertex of its orbit
        sub, keep = induced_subgraph(pat, [v for v in range(pat.n) if v != x])
        nbrs = mask_of(i for i, v in enumerate(keep) if pat.has_edge(x, v))
        out.append((sub, nbrs))
    return tuple(out)


def _bad_masks(
    parent: Graph, forbidden: tuple[Graph, ...], base: bytearray | None = None
) -> bytearray:
    """``bad[M]`` is 1 iff ``parent.add_vertex(M)`` has a forbidden pattern
    through the new vertex ``w``.

    Such a copy of H puts ``w`` on some pattern vertex ``x``; the rest is an
    induced copy of ``H - x`` in the parent on a vertex set S, and ``w``
    sees exactly the image R of ``N_H(x)`` inside S.  So the bad masks are
    ``R | sub`` for every such (S, R) and every ``sub`` outside S.

    The table doubles one vertex at a time.  Let P = G + b, with b the last
    vertex of P.  A copy in P either avoids b, and is then a copy in G with
    the same (S, R), or has b as its largest vertex.  So ``bad_P`` is
    ``bad_G + bad_G`` (entry M is ``bad_G[M minus b]``) with the masks of
    the copies whose largest vertex is b added.  ``base`` is the table of
    ``parent`` minus its last vertex; without it the rule folds over the
    vertices 0, ..., n-1 from the empty graph's one-entry table (bad iff a
    pattern has one vertex), so each copy is counted once, at its largest
    vertex.
    """
    pieces = [piece for pat in forbidden for piece in _vertex_deleted(pat)]
    if base is None:
        bad, start = bytearray([any(sub.n == 0 for sub, _ in pieces)]), 0
    else:
        bad, start = base, parent.n - 1
    for b in range(start, parent.n):
        bad = bad + bad  # a new table: ``base`` is shared by its siblings
        full = (2 << b) - 1
        for s_mask, r_mask in _copy_pairs(parent, pieces, b):
            rest = full & ~s_mask
            sub = rest
            while True:
                bad[r_mask | sub] = 1
                if not sub:
                    break
                sub = (sub - 1) & rest
    return bad


def _copy_pairs(parent: Graph, pieces, top: int | None = None) -> set[tuple[int, int]]:
    """``(S, R)`` as vertex masks for every induced copy of a piece ``(H -
    x, N_H(x))`` in ``parent`` (with ``top``, only the copies whose largest
    vertex is ``top``): S the copy's vertices, R the image of N_H(x)."""
    pairs = set()
    for sub, nbrs in pieces:
        for emb in detect.iter_induced_copies(parent, sub, top):
            vmap = emb.vmap
            pairs.add((mask_of(vmap), mask_of(vmap[i] for i in bits(nbrs))))
    return pairs


def _core_masks(parent: Graph, obstructions: list[Graph]) -> list[int]:
    """``core[M]`` is the set of vertices, as a mask, that lie on every
    induced copy of an obstruction in ``X = parent.add_vertex(M)`` through
    its new vertex ``w``, or -1 (every vertex) where there is no such copy.

    Such a copy puts ``w`` on a vertex x of an obstruction O and the rest
    on a copy (S, R) of the piece ``(O - x, N_O(x))`` with ``M & S == R``,
    as in :func:`_bad_masks`; its vertex set is S plus ``w``."""
    n = parent.n
    wbit = 1 << n
    pieces = [piece for g in obstructions for piece in _vertex_deleted(g)]
    core = [-1] * wbit
    for s_mask, r_mask in _copy_pairs(parent, pieces):
        keep = s_mask | wbit
        rest = (wbit - 1) & ~s_mask
        sub = rest
        while True:
            core[r_mask | sub] &= keep
            if not sub:
                break
            sub = (sub - 1) & rest
    return core


class _MaskWalk:
    """The neighbourhood masks of ``parent`` that are free of forbidden
    patterns, one per orbit of its automorphisms: iterating gives each
    orbit's least mask with the whole orbit, in ascending order.

    ``bad`` is the parent's forbidden-mask table, built from ``base``
    (:func:`_bad_masks`).  :meth:`auts` gives the automorphisms a child
    inherits and :meth:`coloring` the k-coloring it inherits from the
    parent's ``colors`` (see :func:`_expand_parent`).  Both level builders
    walk the masks this way: :func:`_expand_parent` and
    :func:`_count_parent`.
    """

    def __init__(self, parent: Graph, cfg: SearchConfig, base=None, colors=None):
        self.n = n = parent.n
        self.bad = _bad_masks(parent, cfg.forbidden, base)
        gens = canon.automorphism_generators(parent)
        self.images = [_mask_images(s) for s in gens]
        self.fixing_w = [s + (n,) for s in gens]  # each extended by w -> w
        # Each color class as a vertex mask, with the coloring a child gets
        # when its new vertex takes that color (one object for all of them).
        self.palette = []
        if colors is not None:
            for color in range(1, cfg.k + 1):
                members = mask_of(v for v, c in enumerate(colors) if c == color)
                self.palette.append((members, colors + bytes((color,))))

    def __iter__(self) -> Iterator[tuple[int, list[int]]]:
        bad, images = self.bad, self.images
        done = bytearray(1 << self.n)
        for mask in range(1, 1 << self.n):
            if bad[mask] or done[mask]:
                continue
            orbit = [mask]
            if images:
                done[mask] = 1
                for m in orbit:
                    for img in images:
                        if not done[img[m]]:
                            done[img[m]] = 1
                            orbit.append(img[m])
            yield mask, orbit

    def auts(self, mask: int) -> list[tuple[int, ...]]:
        """The parent generators that map ``mask`` onto itself, extended by
        ``w -> w``: automorphisms of the child."""
        return [s for s, img in zip(self.fixing_w, self.images) if img[mask] == mask]

    def coloring(self, mask: int) -> bytes | None:
        """The child's coloring: the parent's, with the new vertex in the
        smallest color class ``mask`` misses; None if it meets all."""
        return next((ext for members, ext in self.palette if not mask & members), None)


def _expand_parent(
    parent: Graph,
    cfg: SearchConfig,
    known: dict[bytes, bytes],
    record: bool = False,
    inherited: Inherited | None = None,
    index: int = 0,
    colors: bytes | None = None,
) -> tuple[list[tuple[bytes, Graph, bytes | None]], Recorded | None]:
    """The admissible one-vertex extensions of ``parent`` (with codes and
    colorings) that are new to ``known``, one per orbit of the parent's
    automorphisms on neighbourhood masks, and the parent's class and
    forbidden-mask tables.

    Masks are walked in ascending order.  The first free mask of an orbit
    is kept and its whole orbit marked done: the later members give
    children isomorphic to the kept one, which the level deduplication
    would drop anyway, so skipping them changes no output.  ``known`` maps
    the leaf codes of the graphs kept so far to their classes; a child
    isomorphic to one of them stops its canonical search at its first leaf
    and is left out, so the first child of each class is the one returned.
    Each child's search starts from the parent generators that fix its
    mask, extended by ``w -> w``.

    ``inherited`` holds what ``parent``, the parent at ``index`` in its
    level, takes from the parent G that produced it: the earlier-parent
    table ``prior`` and G's forbidden-mask table.  With ``b`` the last
    vertex, a child whose mask minus ``b`` is mapped by ``prior`` to an
    index below ``index`` is dropped before any labelling (see the module
    docstring), and the parent's own forbidden-mask table is built from
    G's (:func:`_bad_masks`).  If ``record``, the second value is the
    parent's class table, which maps each free mask of a child that was
    labelled to its child's class code (None elsewhere), and its
    forbidden-mask table; otherwise it is None.

    ``colors`` is a k-coloring of ``parent`` (``colors[v]`` the color of
    ``v``, in 1..k) or None.  Each child whose mask misses a color class
    gets it extended by the smallest such color for the new vertex; the
    other children, and every child of a parent without one, get None.
    """
    n = parent.n
    prior, base = inherited or (None, None)
    walk = _MaskWalk(parent, cfg, base, colors)
    nbrs = [list(bits(row)) for row in parent.adj]
    wbit = 1 << n
    low = (wbit >> 1) - 1  # every vertex but b
    classes = [None] * (1 << n) if record else None
    out = []
    for mask, orbit in walk:
        if prior is not None and -1 < prior[mask & low] < index:
            continue  # an earlier parent already produced this child's class
        adj = list(parent.adj)
        child_nbrs = nbrs[:]
        for u in bits(mask):
            adj[u] |= wbit
            child_nbrs[u] = nbrs[u] + [n]
        adj.append(mask)
        adj = tuple(adj)
        child_nbrs.append(list(bits(mask)))
        result = canon._search(n + 1, adj, child_nbrs, known, walk.auts(mask))
        if type(result) is tuple:
            child = Graph(n + 1, adj, _checked=True)
            child._canon = result
            out.append((result[0], child, walk.coloring(mask)))
            result = result[0]
        if classes is not None:
            for m in orbit:
                classes[m] = result
    return out, (classes, walk.bad) if record else None


def _mask_images(perm: tuple[int, ...]) -> list[int]:
    """``img[M]`` is the image of vertex mask ``M`` under ``perm``."""
    img = [0] * (1 << len(perm))
    for m in range(1, len(img)):
        low = m & -m
        img[m] = img[m ^ low] | 1 << perm[low.bit_length() - 1]
    return img


def _expand_chunk(
    parents: list[Graph],
    inherited: list[Inherited | None],
    start: int,
    cfg: SearchConfig,
    record: bool,
    colorings: list[bytes | None] | None = None,
) -> list[tuple[list[tuple[bytes, Graph, bytes | None]], Recorded | None]]:
    """:func:`_expand_parent` on each of ``parents`` in order, ``parents[i]``
    being the parent at ``start + i`` in its level with the coloring
    ``colorings[i]`` (none without the list), all sharing one ``known``."""
    known: dict[bytes, bytes] = {}
    return [
        _expand_parent(parent, cfg, known, record, tables, start + i, col)
        for i, (parent, tables, col) in enumerate(
            zip(parents, inherited, colorings or itertools.repeat(None))
        )
    ]


def _next_level(
    parents: list[Graph],
    inherited: list[Inherited | None],
    cfg: SearchConfig,
    pool: ProcessPoolExecutor | None,
    record: bool = False,
    colorings: list[bytes | None] | None = None,
) -> tuple[list[Graph], list[bytes | None], dict[Graph, tuple[bytes, Recorded]]]:
    """One augmentation level, deduplicated and sorted by canonical code,
    the coloring each of its graphs inherited (or None), and, if
    ``record``, each child's code and the class and forbidden-mask tables
    of the parent that produced it.

    ``inherited[i]`` is what ``parents[i]`` takes from its producer, and
    ``colorings[i]`` is a k-coloring of it or None (see
    :func:`_expand_parent`); without ``colorings`` no child inherits one.
    A pool maps :func:`_expand_chunk` over chunks (:func:`_map_chunks`),
    and ``seen`` drops the duplicates that fall in different chunks.
    Either way the first child of each class in parent order is kept,
    with the coloring it came back with.
    """
    results = _map_chunks(_expand_chunk, parents, inherited, cfg, pool, record, colorings)
    # A class code -> its first (code, child, coloring), the very tuple the
    # expansion returned, so no new tuple is made per child.
    seen: dict[bytes, tuple[bytes, Graph, bytes | None]] = {}
    made: dict[bytes, Recorded] = {}
    for result in results:
        for children, tables in result:
            for kid in children:
                if kid[0] not in seen:
                    seen[kid[0]] = kid
                    if record:
                        made[kid[0]] = tables
    kids = [seen[code] for code in sorted(seen)]
    del seen
    made_by = {child: (code, made[code]) for code, child, _ in kids if code in made}
    return [kid[1] for kid in kids], [kid[2] for kid in kids], made_by


def _map_chunks(fn, parents, inherited, cfg, pool, extra, colorings):
    """``fn(parents, inherited, start, cfg, extra, colorings)`` over the
    level's parents in chunks, the results in chunk order.  Without a pool
    the whole level is one chunk, the lists themselves (a copy would raise
    the peak memory); a pool takes about four chunks per worker, each with
    its parents' colorings (``colorings`` may be None)."""
    size = max(1, len(parents) // (cfg.workers * 4) if pool else len(parents))
    starts = range(0, len(parents), size)
    chunks = (lambda xs: [xs[i : i + size] for i in starts]) if pool else (lambda xs: [xs])
    return (pool.map if pool else map)(
        fn,
        chunks(parents),
        chunks(inherited),
        starts,
        itertools.repeat(cfg),
        itertools.repeat(extra),
        chunks(colorings) if colorings else itertools.repeat(None),
    )


def _earlier_parent_tables(
    parents: list[Graph], made_by: dict[Graph, tuple[bytes, Recorded]]
) -> list[Inherited | None]:
    """What each parent inherits from the parent that produced it: that
    producer's class table, each class replaced by its index in
    ``parents`` (-1 for a class that is not a parent), and its
    forbidden-mask table; or None for every parent when ``made_by`` is
    empty.  Parents of one producer share one pair of tables, so a chunk
    sent to a worker pickles each pair once."""
    if not made_by:
        return [None] * len(parents)
    index = {made_by[g][0]: i for i, g in enumerate(parents)}
    tables: dict[int, Inherited] = {}
    for g in parents:
        classes, bad = recorded = made_by[g][1]
        if id(recorded) not in tables:
            tables[id(recorded)] = (array("i", [index.get(c, -1) for c in classes]), bad)
    return [tables[id(made_by[g][1])] for g in parents]


def _count_parent(
    parent: Graph,
    cfg: SearchConfig,
    found: list[Graph],
    base: bytearray | None = None,
    colors: bytes | None = None,
) -> tuple[int, list[Graph]]:
    """How many classes of the last level have ``parent`` as their
    canonical parent, and the children among them that are minimal
    obstructions (see the module docstring).

    ``found`` holds every minimal obstruction with fewer vertices than a
    child, ``base`` is the forbidden-mask table of ``parent`` minus its last
    vertex and ``colors`` a k-coloring of ``parent``, each or None.
    """
    n = parent.n
    walk = _MaskWalk(parent, cfg, base, colors)
    core = _core_masks(parent, found)
    rows = parent.adj
    deg = [row.bit_count() for row in rows]
    deg_sum = [sum(deg[u] for u in bits(row)) for row in rows]
    wbit = 1 << n
    count, obstructions = 0, []
    for mask, _ in walk:
        # X = parent + w; the invariant of a vertex is its degree in X, then
        # the sum of its neighbours' degrees in X.
        dw = mask.bit_count()
        sw = sum(deg[u] for u in bits(mask)) + dw
        x, ties = None, []
        for v in bits(core[mask] & (wbit - 1)):
            inside = mask >> v & 1
            d = deg[v] + inside
            if d < dw:
                continue
            tie = d == dw
            if tie:
                s = deg_sum[v] + (rows[v] & mask).bit_count() + dw * inside
                if s < sw:
                    continue
                tie = s == sw
            if x is None:
                x = parent.add_vertex(mask)
            rest = ((wbit << 1) - 1) & ~(1 << v)
            if x.component_mask(n, rest) != rest:
                continue  # v is a cut vertex of X: X - v is no parent
            if not tie:
                break  # v beats w
            ties.append(v)
        else:
            if ties:
                _, order, gens = canon._search(
                    n + 1, x.adj, [list(bits(row)) for row in x.adj], None, walk.auts(mask)
                )
                first = min(ties + [n], key=order.index)
                label = canon.orbits(n + 1, gens)
                if label[first] != label[n]:
                    continue
            count += 1
            if core[mask] == -1 and walk.coloring(mask) is None:
                x = x or parent.add_vertex(mask)
                if coloring.k_color(x, cfg.k) is None:
                    obstructions.append(x)
    return count, obstructions


def _count_chunk(
    parents: list[Graph],
    inherited: list[Inherited | None],
    start: int,
    cfg: SearchConfig,
    found: list[Graph],
    colorings: list[bytes | None] | None = None,
) -> tuple[int, list[Graph]]:
    """:func:`_count_parent` on each of ``parents``, summed."""
    count, obstructions = 0, []
    for parent, tables, col in zip(parents, inherited, colorings or itertools.repeat(None)):
        more, new = _count_parent(parent, cfg, found, tables and tables[1], col)
        count += more
        obstructions += new
    return count, obstructions


def _count_level(
    parents: list[Graph],
    inherited: list[Inherited | None],
    cfg: SearchConfig,
    pool: ProcessPoolExecutor | None,
    colorings: list[bytes | None] | None,
    found: list[tuple[bytes, Graph]],
) -> int:
    """The size of the level the sorted ``parents`` give, which is not
    built; its minimal obstructions are added to ``found``, each as the
    graph that building the level would keep (:func:`_first_child`)."""
    older = [g for _, g in found]
    total, new = 0, []
    for count, graphs in _map_chunks(_count_chunk, parents, inherited, cfg, pool, older, colorings):
        total += count
        new += graphs
    index = {canon.canonical_code(g): i for i, g in enumerate(parents)}
    for x in new:
        g = _first_child(x, parents, index)
        assert g.min_degree() >= cfg.k, "minimal obstruction with a vertex of low degree"
        assert structure.find_clique_cutset(g) is None, "minimal obstruction with clique cutset"
        found.append((canon.canonical_code(g), g))
    return total


def _first_child(x: Graph, parents: list[Graph], index: dict[bytes, int]) -> Graph:
    """The child of ``parents`` isomorphic to ``x`` that a built level keeps:
    ``P_E + a(M)``, with E the least index of a parent isomorphic to some
    ``x - v`` and M the least mask of ``P_E`` whose child is isomorphic to
    ``x`` (``index`` maps each parent's code to its index).

    An isomorphism ``f`` from ``x - v`` onto ``P_E`` gives one such mask,
    ``f(N(v))``; every other one is its image under an automorphism of
    ``P_E`` or comes the same way from another such ``v``."""
    masks: dict[int, list[int]] = {}
    for v in range(x.n):
        sub, keep = induced_subgraph(x, [u for u in range(x.n) if u != v])
        i = index.get(canon.canonical_code(sub))
        if i is not None:
            f = canon.isomorphism_map(sub, parents[i])
            mask = mask_of(f[j] for j, u in enumerate(keep) if x.has_edge(u, v))
            masks.setdefault(i, []).append(mask)
    parent = parents[min(masks)]
    orbit = masks[min(masks)]
    for m in orbit:
        for s in canon.automorphism_generators(parent):
            image = mask_of(s[u] for u in bits(m))
            if image not in orbit:
                orbit.append(image)
    return parent.add_vertex(min(orbit))


def _seeds(cfg: SearchConfig) -> list[Graph]:
    empty = Graph(0, ())
    # Every graph contains K0, which has no vertex to delete for the table.
    if any(pat.n == 0 for pat in cfg.forbidden) or _bad_masks(empty, cfg.forbidden)[0]:
        return []
    return [empty.add_vertex(0)]


def _grow(
    cfg: SearchConfig, parents: list[Graph], colorings, start_n: int, keep, count=None
) -> Iterator[tuple[int, int, list[Graph]]]:
    """The level loop: from ``parents`` on ``start_n`` vertices, with their
    ``colorings`` (see :func:`_next_level`), build each level up to
    ``n_max`` and yield ``(n, level size, next parents)``.  ``keep(level,
    colorings)``, given a level and the colorings its graphs inherited,
    returns the graphs it picks as the next level's parents and their
    colorings.  With ``count``, the level at ``n_max`` is not built:
    ``count(parents, inherited, colorings, pool)`` gives its size, and it
    has no next parents.  The loop stops before it would build a level
    from no parents.  One worker builds the levels in this process,
    without a pool."""
    inherited: list[Inherited | None] = [None] * len(parents)
    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else contextlib.nullcontext() as pool:
        for n in range(start_n + 1, cfg.n_max + 1):
            if not parents:
                return
            if count and n == cfg.n_max:
                yield n, count(parents, inherited, colorings, pool), []
                return
            level, colorings, made_by = _next_level(
                parents, inherited, cfg, pool, n < cfg.n_max, colorings
            )
            parents, colorings = keep(level, colorings)
            inherited = _earlier_parent_tables(parents, made_by)
            del made_by  # the producers' tables, no longer needed
            yield n, len(level), parents


def enumerate_family(cfg: SearchConfig) -> Iterator[Graph]:
    """Every connected pattern-free graph with 1 <= n <= n_max, one per
    isomorphism class, in (order, canonical code) order."""
    seeds = _seeds(cfg)
    yield from seeds
    for _, _, level in _grow(cfg, seeds, None, 1, lambda level, _: (level, None)):
        yield from level


def is_minimal_obstruction(g: Graph, k: int) -> bool:
    """Not k-colorable, but every proper induced subgraph is."""
    return coloring.k_color(g, k) is None and coloring._deletions_colorable(g, k)


@dataclass
class CriticalRun:
    """Result of an obstruction search: entries plus run metadata."""

    k: int
    n_max: int
    obstructions: list[coloring.ObstructionEntry]
    level_sizes: dict[int, int]


def enumerate_critical(
    cfg: SearchConfig,
    checkpoint: str | Path | None = None,
    log=None,
) -> CriticalRun:
    """All minimal non-k-colorable graphs in the family, up to n_max vertices.

    Found obstructions are re-audited on the spot: minimum degree >= k and
    the absence of a clique cutset are theorems for minimal obstructions,
    so their failure is an internal bug, not a filter.
    """
    state = _load_checkpoint(checkpoint, cfg) if checkpoint else None
    if state is None:
        seeds = _seeds(cfg)
        found: list[tuple[bytes, Graph]] = []
        start_n = 1
        level_sizes: dict[int, int] = {1: len(seeds)}
        extendable, colorings = _sift_level(seeds, cfg, found, None)
    else:
        extendable, found, start_n, level_sizes = state
        colorings = None  # a checkpoint keeps no colorings
        if log:
            log(f"resumed at level {start_n}")

    t0 = time.monotonic()
    sift = lambda level, colorings: _sift_level(level, cfg, found, colorings)
    # A checkpoint lists the graphs of its level, so with one the last level
    # is built; otherwise it is only counted.
    count = None if checkpoint else (
        lambda parents, inherited, colorings, pool: _count_level(
            parents, inherited, cfg, pool, colorings, found
        )
    )
    for n, size, extendable in _grow(cfg, extendable, colorings, start_n, sift, count):
        level_sizes[n] = size
        if log:
            log(
                f"level {n}: {size} graphs, "
                f"{len(found)} obstructions so far "
                f"({time.monotonic() - t0:.1f}s)"
            )
        if checkpoint:
            _save_checkpoint(checkpoint, cfg, extendable, found, n, level_sizes)
        t0 = time.monotonic()

    found.sort(key=lambda cg: cg[0])
    entries = [
        coloring.ObstructionEntry(
            id=f"M{cfg.k}_{i}",
            k=cfg.k,
            graph=g,
            provenance="enumeration-derived",
            verified={
                "non_k_colorable": True,
                "minimal": True,
                "min_degree_ge_k": True,
                "no_clique_cutset": True,
            },
        )
        for i, (code, g) in enumerate(found)
    ]
    return CriticalRun(cfg.k, cfg.n_max, entries, level_sizes)


def _sift_level(level, cfg, found, colorings=None) -> tuple[list[Graph], list[bytes]]:
    """Record this level's minimal obstructions; return what to extend,
    and a k-coloring of each.

    ``colorings[i]`` is the coloring ``level[i]`` inherited from its
    producer (see :func:`_expand_parent`) or None.  A graph with one is
    kept with no search; only the others go to ``k_color``.  Every built
    level comes here; the last level is built, and sifted, only when a
    checkpoint is written (otherwise :func:`_count_level` records its
    obstructions).
    """
    extendable, kept = [], []
    for g, col in zip(level, colorings or itertools.repeat(None)):
        if col is None:
            found_col = coloring.k_color(g, cfg.k)
            col = None if found_col is None else bytes(found_col.assignment)
        if col is not None:
            extendable.append(g)
            kept.append(col)
            continue
        # Non-colorable graphs are either minimal (recorded, and no
        # extension of them can be minimal) or contain a smaller
        # obstruction (so no extension can be minimal either).  A
        # vertex of degree < k extends any k-coloring of the rest, so
        # deleting it leaves a non-k-colorable graph: not minimal.
        if g.min_degree() >= cfg.k and coloring._deletions_colorable(g, cfg.k):
            assert (
                structure.find_clique_cutset(g) is None
            ), "minimal obstruction with clique cutset"
            found.append((canon.canonical_code(g), g))
    return extendable, kept


def _config_fingerprint(cfg: SearchConfig) -> dict:
    """What a checkpoint must match to be resumed: the search's k and
    forbidden patterns, and the package version that wrote it."""
    return {
        "k": cfg.k,
        "forbidden": sorted(codec.to_graph6(f) for f in cfg.forbidden),
        "version": __version__,
    }


def _save_checkpoint(path, cfg, extendable, found, n, level_sizes) -> None:
    payload = {
        "config": _config_fingerprint(cfg),
        "level": n,
        "extendable": [codec.to_graph6(g) for g in extendable],
        "obstructions": [codec.to_graph6(g) for _, g in found],
        "level_sizes": {str(k): v for k, v in level_sizes.items()},
    }
    codec.write_atomic(path, json.dumps(payload))


_CHECKPOINT_FIELDS = {
    "config": dict,
    "level": int,
    "extendable": list,
    "obstructions": list,
    "level_sizes": dict,
}


def _load_checkpoint(path, cfg):
    path = Path(path)
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError("checkpoint is not a JSON object")
    for name, kind in _CHECKPOINT_FIELDS.items():
        value = payload.get(name)
        if type(value) is not kind or kind is list and any(type(s) is not str for s in value):
            raise ValueError(f"checkpoint field {name!r} is missing or malformed")
    written = payload["config"].get("version")
    if written != __version__:
        raise ValueError(f"checkpoint was written by p6c4 version {written!r}, not {__version__!r}")
    if payload["config"] != _config_fingerprint(cfg):
        raise ValueError("checkpoint was produced by a different configuration")
    level = payload["level"]
    if level < 1:
        raise ValueError(f"checkpoint field 'level' is {level}, below 1")
    if level > cfg.n_max:
        # Its obstructions and level sizes would reach beyond n_max.
        raise ValueError(f"checkpoint is at level {level}, above n_max {cfg.n_max}")
    extendable = [codec.from_graph6(line) for line in payload["extendable"]]
    obstructions = [codec.from_graph6(line) for line in payload["obstructions"]]
    if any(g.n != level for g in extendable) or any(g.n > level for g in obstructions):
        raise ValueError(f"checkpoint field 'level' is {level}, which its graphs do not match")
    levels = {str(n): n for n in range(1, level + 1)}
    sizes = payload["level_sizes"]
    if sizes.keys() != levels.keys() or any(type(v) is not int or v < 0 for v in sizes.values()):
        raise ValueError(f"checkpoint field 'level_sizes' needs a count per level 1 to {level}")
    level_sizes = {levels[key]: v for key, v in sizes.items()}
    found = [(canon.canonical_code(g), g) for g in obstructions]
    return extendable, found, level, level_sizes


# -- nice critical graphs ----------------------------------------------------


@dataclass(frozen=True)
class NiceWitness:
    """An independent triple whose removal preserves the clique number.

    For a k-critical graph h (minimal non-(k-1)-colorable) the witness
    requires omega(h) = k - 1 and omega(h - triple) = k - 1.
    """

    triple: tuple[int, int, int]
    omega: int


def nice_check(h: Graph, k: int) -> NiceWitness | None:
    """First nice witness of a k-critical graph in ascending triple order.

    Raises ``ValueError`` if ``h`` is not k-critical.
    """
    if k < 2:
        raise ValueError("criticality needs k >= 2")
    if not is_minimal_obstruction(h, k - 1):
        raise ValueError("graph is not k-critical")
    omega = len(detect.max_clique(h))
    if omega != k - 1:
        return None
    for triple in itertools.combinations(range(h.n), 3):
        if is_nice_triple(h, triple, omega):
            return NiceWitness(triple, omega)
    return None


def is_nice_triple(h: Graph, triple: tuple[int, int, int], omega: int) -> bool:
    """Is ``triple`` independent in ``h`` with omega(h - triple) == omega?"""
    tmask = mask_of(triple)
    if not h.is_independent(tmask):
        return False
    rest, _ = induced_subgraph(h, bits(h.full_mask() & ~tmask))
    return len(detect.max_clique(rest)) == omega


def find_nice_critical(
    k: int, n_max: int, forbidden: tuple[Graph, ...], workers: int = 1
) -> list[tuple[Graph, NiceWitness]]:
    """k-critical graphs in the family admitting a nice witness."""
    cfg = SearchConfig(k=k - 1, n_max=n_max, forbidden=forbidden, workers=workers)
    run = enumerate_critical(cfg)
    out = []
    for entry in run.obstructions:
        w = nice_check(entry.graph, k)
        if w is not None:
            out.append((entry.graph, w))
    return out
