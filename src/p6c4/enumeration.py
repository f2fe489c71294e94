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
last level builds no tables.  Both searches run this level loop
(:func:`_grow`), which stops at ``n_max`` or at a level with nothing to
extend.

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
        pairs = set()
        for sub, nbrs in pieces:
            for emb in detect.iter_induced_copies(parent, sub, b):
                vmap = emb.vmap
                pairs.add((mask_of(vmap), mask_of(vmap[i] for i in bits(nbrs))))
        full = (2 << b) - 1
        for s_mask, r_mask in pairs:
            rest = full & ~s_mask
            sub = rest
            while True:
                bad[r_mask | sub] = 1
                if not sub:
                    break
                sub = (sub - 1) & rest
    return bad


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
    bad = _bad_masks(parent, cfg.forbidden, base)
    gens = canon.automorphism_generators(parent)
    images = [_mask_images(s) for s in gens]
    fixing_w = [s + (n,) for s in gens]  # each extended by w -> w
    nbrs = [list(bits(row)) for row in parent.adj]
    wbit = 1 << n
    low = (wbit >> 1) - 1  # every vertex but b
    done = bytearray(1 << n)
    classes = [None] * (1 << n) if record else None
    # Each color class as a vertex mask, with the coloring a child gets when
    # its new vertex takes that color (one object for all such children).
    palette = []
    if colors is not None:
        for color in range(1, cfg.k + 1):
            members = mask_of(v for v, c in enumerate(colors) if c == color)
            palette.append((members, colors + bytes((color,))))
    out = []
    for mask in range(1, 1 << n):
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
        auts = [s for s, img in zip(fixing_w, images) if img[mask] == mask]
        result = canon._search(n + 1, adj, child_nbrs, known, auts)
        if type(result) is tuple:
            child = Graph(n + 1, adj, _checked=True)
            child._canon = result
            extended = next((ext for members, ext in palette if not mask & members), None)
            out.append((result[0], child, extended))
            result = result[0]
        if classes is not None:
            for m in orbit:
                classes[m] = result
    return out, (classes, bad) if record else None


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
    Without a pool the whole level is one chunk, the lists themselves (a
    copy would raise the peak memory); a pool maps :func:`_expand_chunk`
    over about four chunks per worker, each with its parents' colorings,
    and ``seen`` drops the duplicates that fall in different chunks.
    Either way the first child of each class in parent order is kept,
    with the coloring it came back with.
    """
    size = max(1, len(parents) // (cfg.workers * 4) if pool else len(parents))
    starts = range(0, len(parents), size)
    chunks = (lambda xs: [xs[i : i + size] for i in starts]) if pool else (lambda xs: [xs])
    results = (pool.map if pool else map)(
        _expand_chunk,
        chunks(parents),
        chunks(inherited),
        starts,
        itertools.repeat(cfg),
        itertools.repeat(record),
        chunks(colorings) if colorings else itertools.repeat(None),
    )
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


def _seeds(cfg: SearchConfig) -> list[Graph]:
    empty = Graph(0, ())
    # Every graph contains K0, which has no vertex to delete for the table.
    if any(pat.n == 0 for pat in cfg.forbidden) or _bad_masks(empty, cfg.forbidden)[0]:
        return []
    return [empty.add_vertex(0)]


def _grow(
    cfg: SearchConfig, parents: list[Graph], colorings, start_n: int, keep
) -> Iterator[tuple[int, list[Graph], list[Graph]]]:
    """The level loop: from ``parents`` on ``start_n`` vertices, with their
    ``colorings`` (see :func:`_next_level`), build each level up to
    ``n_max`` and yield ``(n, level, next parents)``.  ``keep(level,
    colorings)``, given a level and the colorings its graphs inherited,
    returns the graphs it picks as the next level's parents and their
    colorings.  The loop stops before it would build a level from no
    parents.  One worker builds the levels in this process, without a
    pool."""
    inherited: list[Inherited | None] = [None] * len(parents)
    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else contextlib.nullcontext() as pool:
        for n in range(start_n + 1, cfg.n_max + 1):
            if not parents:
                return
            level, colorings, made_by = _next_level(
                parents, inherited, cfg, pool, n < cfg.n_max, colorings
            )
            parents, colorings = keep(level, colorings)
            inherited = _earlier_parent_tables(parents, made_by)
            del made_by  # the producers' tables, no longer needed
            yield n, level, parents


def enumerate_family(cfg: SearchConfig) -> Iterator[Graph]:
    """Every connected pattern-free graph with 1 <= n <= n_max, one per
    isomorphism class, in (order, canonical code) order."""
    seeds = _seeds(cfg)
    yield from seeds
    for _, level, _ in _grow(cfg, seeds, None, 1, lambda level, _: (level, None)):
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
    for n, level, extendable in _grow(cfg, extendable, colorings, start_n, sift):
        level_sizes[n] = len(level)
        if log:
            log(
                f"level {n}: {len(level)} graphs, "
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
    kept with no search; only the others go to ``k_color``.
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
