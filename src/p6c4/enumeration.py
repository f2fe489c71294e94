"""Exhaustive enumeration of pattern-free graphs and minimal obstructions.

Graphs are generated level by level: every n-vertex child arises from an
(n-1)-vertex parent P by attaching one new vertex w to a nonempty
admissible neighbourhood, so every graph generated is connected.
Forbidden patterns are hereditary, so a child is checked only around w.
Every connected graph in the target family is reachable this way —
deleting any non-cut vertex of a connected family member leaves a smaller
connected family member.  Both searches build every level with one rule,
canonical deletion (below), which accepts each class of the level from
exactly one parent, so no level is ever deduplicated.  The level loop
(:func:`_grow`) stops at ``n_max`` or at a level with nothing to extend.

Each parent is analysed once.  A table indexed by neighbourhood mask
(:func:`_bad_masks`) marks the masks that put a forbidden pattern through
the new vertex; it is built from the induced copies of each pattern minus
one vertex in the parent, so it is exact for any pattern.  A copy of such
a piece (H - x, N_H(x)) matters only through its vertex set S and the
image R of N_H(x), so the matcher finds one copy per pair (S, R), under
the piece's symmetry conditions (:func:`p6c4.detect.symmetry_conditions`),
and in the parent peeled to its δ-core, δ the piece's minimum degree.
The obstruction pieces behind :func:`_core_masks` have δ >= k - 1 (a
minimal obstruction has minimum degree at least k), so most of their
searches end there.  The table of a parent P = G + b, with b its last
vertex, comes from the table of the parent G that produced it: a copy in
P that avoids b is a copy in G and makes mask M bad exactly when it makes
M minus b bad for G, so P's table is G's table twice over (the second
half for the masks that contain b), and only the copies whose largest
vertex is b are enumerated and added.
The producer's table travels with its children to the next level; a
parent without one (a seed, a level resumed from a checkpoint) folds the
same rule over its vertices from the empty graph.  Either way each copy
is counted once, at its largest vertex, and the table is the one a pass
over every copy gives.  Masks are then walked in ascending order, and
the parent's automorphisms (kept by :mod:`p6c4.canon`) skip every mask
in the orbit of one already taken: its child is isomorphic to an earlier
child of the same parent.

The obstruction search additionally never extends a graph that is not
k-colorable: such a graph either is a minimal obstruction (recorded) or
properly contains one, and then no extension of it can be minimal.  So
the parents of its levels are the k-colorable connected family members,
one per class, each with a k-coloring, and each child inherits one when
its mask misses a color class: the new vertex takes the smallest such
color.  Only the other children (masks that meet all k classes) cost a
coloring search.  The family search colors nothing; its parents are all
the connected family members, one per class.

**Canonical deletion** (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998; :func:`_extend_parent`).  For a child X = P + w,
D(X) is the set of vertices v with X - v connected and, in the
obstruction search, k-colorable: exactly the v for which X - v is a
parent, so D(X) holds w and is invariant under isomorphism.

- **D(X) without coloring.**  Every minimal obstruction with fewer
  vertices than X is found by then, and P is k-colorable, so every copy
  of one in X goes through w, and X - v is k-colorable iff v lies on
  every such copy.  ``core[M]`` (:func:`_core_masks`, built per parent
  like :func:`_bad_masks` from the obstructions minus one vertex) is the
  intersection of those copies, or every vertex when there is none (as
  always in the family search), and D(X) is the non-cut vertices of X in
  ``core[M]``.  Whether v of P is a cut vertex of X needs no X either:
  the cut table (:func:`_cut_tables`, per parent) lists the components of
  P - v, and X - v is connected iff w meets each of them.  So X is built
  only for a search, a kept child or a coloring search.
- **The canonical deletion.**  m(X) is the vertex of D(X) with the
  largest invariant (its degree, then the sum of its neighbours'
  degrees), and on a tie the tied vertex at the least position of X's
  canonical order.  X is accepted iff w lies in the orbit of m(X) under
  Aut(X).  A child whose w some vertex of D(X) beats is rejected, and one
  whose w is the unique maximum accepted, both without labelling.  So is
  a tie whose tied vertices are all twins of w (:func:`_twins_of_w`: the
  parent's row of t is M minus t): swapping t and w then fixes every
  other adjacency, so it is an automorphism of X, every tied vertex and
  m(X) lie in w's orbit, and X is accepted.  Any other tie labels X, its
  search starting from the parent automorphisms that fix the mask, and
  the orbits of the generators it returns decide.
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
  contains a smaller obstruction: it counts towards the level size and is
  neither kept nor minimal.  Otherwise every X - v is k-colorable, and X
  is k-colorable if it inherits a coloring or ``k_color`` finds one; if
  not, it is a new minimal obstruction, whose minimum degree (at least k)
  and lack of a clique cutset are asserted, being theorems, and which is
  reported in canonical form (:func:`p6c4.canon.canonical_form`).

**Kept levels.**  A level below ``n_max`` is kept as the next level's
parents, and so is the last level of the family search, and that of the
obstruction search when a checkpoint must list it; otherwise the last
level is only counted.  Each accepted child that is kept is materialised
as P + w, P being its canonical parent, with its canonical search result
(one search from the parent automorphisms that fix its mask, or the one
its tie already ran), its coloring, and P's forbidden-mask table, from
which its own is built.  A level is expanded in chunks of parents (the
whole level in a serial run, about four chunks per worker with a pool);
the chunks' children are concatenated and sorted by code, so the level is
the same whatever the worker count.  Graphs cross the process boundary
pickled with their search results, so no worker searches a parent again.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
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


# A kept child: its canonical code, the child, its k-coloring (None in the
# family search) and the forbidden-mask table of the parent that produced it.
Kid = tuple[bytes, Graph, bytes | None, bytearray]
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
    vertex is ``top``): S the copy's vertices, R the image of N_H(x).  The
    matcher finds each pair once, under the piece's symmetry conditions."""
    pairs = set()
    fits = parent.n if top is None else top + 1
    for sub, nbrs in pieces:
        if sub.n > fits:
            continue  # no copy, so no conditions to work out
        breaks = detect.symmetry_conditions(sub, nbrs)
        for emb in detect.iter_induced_copies(parent, sub, top, breaks):
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
    orbit's least mask, in ascending order.

    ``bad`` is the parent's forbidden-mask table, built from ``base``
    (:func:`_bad_masks`).  :meth:`auts` gives the automorphisms a child
    inherits and :meth:`coloring` the k-coloring it inherits from the
    parent's ``colors``.
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

    def __iter__(self) -> Iterator[int]:
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
            yield mask

    def auts(self, mask: int) -> list[tuple[int, ...]]:
        """The parent generators that map ``mask`` onto itself, extended by
        ``w -> w``: automorphisms of the child."""
        return [s for s, img in zip(self.fixing_w, self.images) if img[mask] == mask]

    def coloring(self, mask: int) -> bytes | None:
        """The child's coloring: the parent's, with the new vertex in the
        smallest color class ``mask`` misses; None if it meets all."""
        return next((ext for members, ext in self.palette if not mask & members), None)


def _cut_tables(parent: Graph) -> list[tuple[int, ...]]:
    """``cuts[v]`` holds the components of ``parent - v`` as vertex masks.
    For a child X = parent + w with neighbourhood mask M, X - v is
    connected iff M meets each of them (for a one-vertex parent there are
    none, and X - v = {w})."""
    full = parent.full_mask()
    cuts = []
    for v in range(parent.n):
        within = rest = full & ~(1 << v)
        parts = []
        while rest:
            part = parent.component_mask((rest & -rest).bit_length() - 1, within)
            parts.append(part)
            rest &= ~part
        cuts.append(tuple(parts))
    return cuts


def _twins_of_w(rows: tuple[int, ...], mask: int, ties: list[int]) -> bool:
    """Whether every tied vertex t of X = parent + w is a twin of w: the
    parent's row of t is ``mask`` minus t, so t and w have the same
    neighbours apart from each other, and swapping them is an automorphism
    of X."""
    return all(rows[t] == mask & ~(1 << t) for t in ties)


def _mask_images(perm: tuple[int, ...]) -> list[int]:
    """``img[M]`` is the image of vertex mask ``M`` under ``perm``."""
    img = [0] * (1 << len(perm))
    for m in range(1, len(img)):
        low = m & -m
        img[m] = img[m ^ low] | 1 << perm[low.bit_length() - 1]
    return img


def _coloring_of(g: Graph, k: int) -> bytes | None:
    """A k-coloring of ``g`` (``col[v]`` the color of ``v``, in 1..k), or
    None if it has none."""
    found = coloring.k_color(g, k)
    return None if found is None else bytes(found.assignment)


def _extend_parent(
    parent: Graph,
    cfg: SearchConfig,
    found: list[Graph] | None,
    keep: bool,
    base: bytearray | None = None,
    colors: bytes | None = None,
) -> tuple[int, list[Kid], list[Graph]]:
    """The classes of the next level whose canonical parent is ``parent``
    (see the module docstring): how many there are, the kept ones if
    ``keep`` (each as ``(code, child, coloring, parent's forbidden-mask
    table)``), and the new minimal obstructions among them.

    ``found`` holds every minimal obstruction with fewer vertices than a
    child, or is None in the family search, which keeps every child and
    colors none.  ``base`` is the forbidden-mask table of ``parent`` minus
    its last vertex and ``colors`` a k-coloring of ``parent``, each or None.
    """
    n = parent.n
    walk = _MaskWalk(parent, cfg, base, colors)
    core = _core_masks(parent, found or [])
    cuts = _cut_tables(parent)
    rows = parent.adj
    nbrs = [list(bits(row)) for row in rows]
    deg = [row.bit_count() for row in rows]
    deg_sum = [sum(deg[u] for u in bits(row)) for row in rows]
    wbit = 1 << n

    def search(x: Graph, mask: int):
        child_nbrs = nbrs[:]
        for u in bits(mask):
            child_nbrs[u] = nbrs[u] + [n]
        child_nbrs.append(list(bits(mask)))
        return canon._search(n + 1, x.adj, child_nbrs, walk.auts(mask))

    count, kept, obstructions = 0, [], []
    for mask in walk:
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
            if not all(map(mask.__and__, cuts[v])):
                continue  # v is a cut vertex of X: X - v is no parent
            if not tie:
                break  # v beats w
            ties.append(v)
        else:
            # Ties that are all twins of w lie in w's orbit, and so does m(X).
            if ties and not _twins_of_w(rows, mask, ties):
                x = parent.add_vertex(mask)
                x._canon = search(x, mask)
                _, order, gens = x._canon
                first = min(ties + [n], key=order.index)
                label = canon.orbits(n + 1, gens)
                if label[first] != label[n]:
                    continue
            count += 1
            if core[mask] != -1:
                continue  # X contains a smaller obstruction
            col = None
            if found is not None:
                col = walk.coloring(mask)
                if col is None:
                    x = x or parent.add_vertex(mask)
                    col = _coloring_of(x, cfg.k)
                    if col is None:
                        obstructions.append(x)
                        continue
            if keep:
                x = x or parent.add_vertex(mask)
                if x._canon is None:
                    x._canon = search(x, mask)
                kept.append((x._canon[0], x, col, walk.bad))
    return count, kept, obstructions


def _extend_chunk(
    parents, bases, colorings, cfg, found, keep
) -> tuple[int, list[Kid], list[Graph]]:
    """:func:`_extend_parent` on each of ``parents``, with its forbidden-mask
    base table and coloring, the results summed."""
    count, kept, obstructions = 0, [], []
    for parent, base, colors in zip(parents, bases, colorings):
        more, kids, new = _extend_parent(parent, cfg, found, keep, base, colors)
        count += more
        kept += kids
        obstructions += new
    return count, kept, obstructions


def _build_level(parents, bases, colorings, cfg, pool, found, keep):
    """One level from ``parents`` (with their base tables and colorings, as
    in :func:`_extend_chunk`): its size, its kept children sorted by code,
    and its new minimal obstructions.  Without a pool the whole level is one
    chunk, the lists themselves (a copy would raise the peak memory); a
    pool takes about four chunks per worker."""
    if pool:
        size = max(1, len(parents) // (cfg.workers * 4))
        chunks = lambda xs: [xs[i : i + size] for i in range(0, len(parents), size)]
        results = pool.map(
            _extend_chunk,
            chunks(parents),
            chunks(bases),
            chunks(colorings),
            itertools.repeat(cfg),
            itertools.repeat(found),
            itertools.repeat(keep),
        )
    else:
        results = [_extend_chunk(parents, bases, colorings, cfg, found, keep)]
    total, kids, new = 0, [], []
    for count, kept, obstructions in results:
        total += count
        kids += kept
        new += obstructions
    kids.sort(key=itemgetter(0))
    return total, kids, new


def _seeds(cfg: SearchConfig) -> list[Graph]:
    empty = Graph(0, ())
    # Every graph contains K0, which has no vertex to delete for the table.
    if any(pat.n == 0 for pat in cfg.forbidden) or _bad_masks(empty, cfg.forbidden)[0]:
        return []
    return [empty.add_vertex(0)]


def _grow(
    cfg: SearchConfig,
    parents: list[Graph],
    colorings: list,
    start_n: int,
    found: list[tuple[bytes, Graph]] | None = None,
    keep_last: bool = True,
) -> Iterator[tuple[int, int, list[Graph], list[Graph]]]:
    """The level loop: from ``parents`` on ``start_n`` vertices, with their
    ``colorings`` (None each in the family search), build each level up to
    ``n_max`` and yield ``(n, level size, kept graphs, new minimal
    obstructions)``.  The kept graphs are the next level's parents.

    ``found`` is None in the family search; in the obstruction search it is
    read as each level starts, so the obstructions the caller records in it
    while handling a yield count for the next level.  The level at
    ``n_max`` is kept only with ``keep_last``.  The loop stops before it
    would build a level from no parents.  One worker builds the levels in
    this process, without a pool."""
    bases: list[bytearray | None] = [None] * len(parents)
    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else contextlib.nullcontext() as pool:
        for n in range(start_n + 1, cfg.n_max + 1):
            if not parents:
                return
            older = None if found is None else [g for _, g in found]
            keep = keep_last or n < cfg.n_max
            size, kids, new = _build_level(parents, bases, colorings, cfg, pool, older, keep)
            parents = [kid[1] for kid in kids]
            colorings = [kid[2] for kid in kids]
            bases = [kid[3] for kid in kids]
            del kids
            yield n, size, parents, new


def enumerate_family(cfg: SearchConfig) -> Iterator[Graph]:
    """Every connected pattern-free graph with 1 <= n <= n_max, one per
    isomorphism class, in (order, canonical code) order."""
    seeds = _seeds(cfg)
    yield from seeds
    for _, _, level, _ in _grow(cfg, seeds, [None] * len(seeds), 1):
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
        extendable = _seeds(cfg)
        colorings = [_coloring_of(g, cfg.k) for g in extendable]
        found: list[tuple[bytes, Graph]] = []
        start_n = 1
        level_sizes: dict[int, int] = {1: len(extendable)}
    else:
        extendable, colorings, found, start_n, level_sizes = state
        if log:
            log(f"resumed at level {start_n}")

    t0 = time.monotonic()
    # A checkpoint lists the graphs of its level, so with one the last level
    # is kept; otherwise it is only counted.
    levels = _grow(cfg, extendable, colorings, start_n, found, keep_last=bool(checkpoint))
    for n, size, extendable, new in levels:
        for x in new:
            g = canon.canonical_form(x)
            assert g.min_degree() >= cfg.k, "minimal obstruction with a vertex of low degree"
            assert structure.find_clique_cutset(g) is None, "minimal obstruction with clique cutset"
            found.append((canon.canonical_code(x), g))
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


def _config_fingerprint(cfg: SearchConfig) -> dict:
    """What a checkpoint must match to be resumed: the search's k and
    forbidden patterns, and the package version that wrote it."""
    return {
        "k": cfg.k,
        "forbidden": sorted(codec.to_graph6(f) for f in cfg.forbidden),
        "version": __version__,
    }


def _level_digest(codes: list[bytes]) -> str:
    """The sha256 of a level's canonical codes in sorted order."""
    import hashlib  # loads OpenSSL, about 3.5 MiB: only checkpoints need it

    return hashlib.sha256(b"".join(sorted(codes))).hexdigest()


def _save_checkpoint(path, cfg, extendable, found, n, level_sizes) -> None:
    payload = {
        "config": _config_fingerprint(cfg),
        "level": n,
        "extendable": [codec.to_graph6(g) for g in extendable],
        "digest": _level_digest([canon.canonical_code(g) for g in extendable]),
        "obstructions": [codec.to_graph6(g) for _, g in found],
        "level_sizes": {str(k): v for k, v in level_sizes.items()},
    }
    codec.write_atomic(path, json.dumps(payload))


_CHECKPOINT_FIELDS = {
    "config": dict,
    "level": int,
    "extendable": list,
    "digest": str,
    "obstructions": list,
    "level_sizes": dict,
}


def _load_checkpoint(path, cfg):
    """The state a checkpoint resumes: its level's graphs to extend, a
    k-coloring of each, the obstructions found, the level and the level
    sizes; None if there is no checkpoint yet.  Raises ``ValueError`` for
    a checkpoint that another search wrote or that the search could not
    have written: canonical deletion would count a duplicate parent twice,
    and a missing one not at all, so the digest of the level's classes
    must match."""
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

    def family_member(g: Graph) -> bool:
        return g.is_connected() and detect.is_free(g, cfg.forbidden)[0]

    colorings = [_coloring_of(g, cfg.k) if family_member(g) else None for g in extendable]
    if None in colorings:
        line = payload["extendable"][colorings.index(None)]
        raise ValueError(
            f"checkpoint field 'extendable' holds {line}, "
            f"not a connected {cfg.k}-colorable member of the family"
        )
    for line, g in zip(payload["obstructions"], obstructions):
        if not (family_member(g) and is_minimal_obstruction(g, cfg.k)):
            raise ValueError(
                f"checkpoint field 'obstructions' holds {line}, "
                "not a connected minimal obstruction in the family"
            )
    # In canonical form, as a fresh run writes them, whatever labelling the
    # checkpoint used.
    found = [(canon.canonical_code(g), canon.canonical_form(g)) for g in obstructions]
    level_codes = [canon.canonical_code(g) for g in extendable]
    for name, codes in (("extendable", level_codes), ("obstructions", [code for code, _ in found])):
        if len(set(codes)) < len(codes):
            raise ValueError(f"checkpoint field {name!r} lists a class twice")
    if payload["digest"] != _level_digest(level_codes):
        raise ValueError("checkpoint field 'digest' does not match the classes in 'extendable'")
    return extendable, colorings, found, level, level_sizes


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
