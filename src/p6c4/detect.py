"""Induced-subgraph detection: paths, cycles, wheels, cliques, patterns.

All searches are exhaustive and deterministic (lowest-index branching), so
the first witness found is stable across runs.  Worst-case exponential by
design; inputs here are desk-scale.

An :class:`Embedding` maps pattern vertices to host vertices and must
preserve both edges and non-edges (induced copies throughout).

There are four searches, each an explicit loop over per-position
candidate masks (no recursion, so long patterns are fine):
:func:`_has_induced_path` decides whether an induced path exists,
:func:`_iter_cycles` lists every induced cycle once (as a ring),
:func:`_first_cliques` grows cliques, and :func:`iter_induced_copies` matches
any pattern.  Everything else is derived from these.  The decision search
grows each induced path once, as two arms from its minimum vertex, so a
P_t-free host (the usual case for freeness checks) is settled without
naming a witness; only when a path exists does :func:`find_induced_path`
ask the matcher for the first one.  :func:`find_induced_cycle` takes the
first ring, and :func:`has_clique` and :func:`max_clique` share the clique
loop, which goes on from each K_k to look for a K_{k+1}.

No loop grows a dead or repeated path: :func:`_iter_cycles` drops a
partial ring once no vertex can close it, :func:`_has_induced_path` grows a
path with equal arms from one arm only, and :func:`iter_induced_copies`
drops a placement that leaves a later pattern vertex no host vertex, and
first peels the host to the pattern's degree core.  No prune changes an
answer (see each docstring).  The conditions of :func:`symmetry_conditions`
make the matcher find one copy per vertex set and image of a marked set
(Grochow & Kellis, RECOMB 2007).

:func:`find_induced_copy` is the one entry point for whole-graph pattern
searches.  It classifies the pattern once (cached), sends a path or cycle
labelled in path or ring order to :func:`find_induced_path` or
:func:`find_induced_cycle`, a complete graph to :func:`has_clique`, and
anything else, wheels included, to the generic matcher :func:`_match`.
All four return the same first embedding, so the dispatch changes no
answer.  Answers are memoized on the host graph (see
:class:`p6c4.graphs.Graph`), so repeating a search on one graph is free.

:func:`has_pattern_through` (a copy using a given vertex) is the test
oracle for the enumerator's per-parent neighbourhood tables; the program
itself does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .graphs import Graph, bits, mask_of


@dataclass(frozen=True)
class Embedding:
    """``vmap[i]`` is the host vertex playing pattern vertex ``i``."""

    pattern_order: int
    vmap: tuple[int, ...]


def verify_embedding(g: Graph, pattern: Graph, emb: Embedding) -> bool:
    """Check that ``emb`` is an induced copy of ``pattern`` in ``g``."""
    if emb.pattern_order != pattern.n or len(emb.vmap) != pattern.n:
        return False
    if len(set(emb.vmap)) != pattern.n:
        return False
    if any(not 0 <= v < g.n for v in emb.vmap):
        return False
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            if pattern.has_edge(i, j) != g.has_edge(emb.vmap[i], emb.vmap[j]):
                return False
    return True


# -- induced paths ---------------------------------------------------------


def _has_induced_path(adj: tuple[int, ...], n: int, t: int) -> int:
    """The least vertex that is the minimum of an induced P_t in the graph
    with rows ``adj`` on ``n`` vertices, or -1 if it has none, for
    ``t >= 3``.

    Every induced P_t has one minimum vertex s, and s splits it into two
    induced arms in G[{v > s}] whose lengths add up to t - 1.  From each s
    in turn, the longer arm R grows from s, lowest candidate first; once R
    has at least ceil((t - 1) / 2) vertices, the next position may instead
    start the other arm at a neighbour of s, which then grows like R.
    ``far[i]`` holds the vertices no arm may use once ``path[i]`` is
    placed, besides the neighbours of s: the vertices up to s and the arms'
    vertices and neighbours.  ``turn`` is the position where the second arm
    starts, or 0 while R is still growing.

    For odd t, a path with two arms of (t - 1) / 2 vertices could grow
    with either as R, so at that length the second arm starts only above
    ``path[1]``.  Each path still grows once from its minimum: the answer
    does not change.
    """
    half = t // 2  # ceil((t - 1) / 2)
    equal = half if t & 1 else -1  # the right arm's length when both arms are equal
    path = [0] * t
    far = [0] * t
    cand = [0] * t  # untried vertices for each placed position
    for s in range(n - t + 1):  # the path minimum has t - 1 vertices above it
        ns = adj[s]
        far[0] = (2 << s) - 1
        cand[1] = ns & ~far[0]
        turn = 0
        i = 1
        while i:
            c = cand[i]
            if not c:
                i -= 1
                continue
            low = c & -c
            cand[i] = c ^ low
            v = path[i] = low.bit_length() - 1
            if i == t - 1:
                return s
            if turn >= i:
                turn = 0
            if i > 1 and ns & low:
                turn = i
            far[i] = far[i - 1] | low | adj[v]
            nxt = adj[v] & ~(far[i - 1] | ns)
            if not turn and i >= half:
                left = ns & ~far[i]
                if i == equal:
                    left &= -(2 << path[1])
                nxt |= left
            i += 1
            cand[i] = nxt
    return -1


def find_induced_path(g: Graph, t: int) -> Embedding | None:
    """First induced path on ``t`` vertices, as a P_t embedding in path order.

    For ``t >= 3``, :func:`_has_induced_path` first decides whether any
    induced P_t exists, growing each path once from its minimum vertex; on
    a P_t-free graph that is the whole search.  Only if one exists does the
    generic matcher name the first, with P_t labelled in path order.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > g.n or t >= 3 and _has_induced_path(g.adj, g.n, t) < 0:
        return None
    return _match(g, _path(t))


@lru_cache(maxsize=64)
def _path(t: int) -> Graph:
    """P_t labelled in path order."""
    rows = tuple((1 << i >> 1) | (1 << i + 1 if i < t - 1 else 0) for i in range(t))
    return Graph(t, rows, True)


# -- induced cycles --------------------------------------------------------


def _iter_cycles(g: Graph, l: int) -> Iterator[tuple[int, ...]]:
    """Every induced C_l once, as a ring from its minimum vertex towards
    the smaller of its two neighbours, in ascending order.

    From each start s, the ring grows as a chordless path on vertices above
    s, lowest candidate first; its inner vertices miss s, and the last one,
    above ``ring[1]``, closes back to s.  ``block[i]`` holds the vertices
    no later inner position may use once ``ring[i]`` is placed: the ring so
    far, the vertices up to s, and the neighbours of ``ring[0..i-1]``.

    ``close[i]`` holds the vertices that can still be the last one: the
    neighbours of s above ``ring[1]`` that miss ``ring[1..min(i, l - 3)]``
    (inner vertices miss s, so none is in it).  A placement that empties
    it has no ring below and is not grown (Uno & Satoh's pruning), so the
    rings and their order are the unpruned search's.
    """
    if l < 3:
        raise ValueError("l must be at least 3")
    adj = g.adj
    ring = [0] * l
    block = [0] * l
    close = [0] * l
    cand = [0] * l  # untried vertices for each placed position
    for s in range(g.n - l + 1):  # the ring minimum has l - 1 vertices above it
        ns = adj[s]
        ring[0] = s
        block[0] = (2 << s) - 1
        cand[1] = ns & ~block[0]
        i = 1
        while i:
            c = cand[i]
            if not c:
                i -= 1
                continue
            low = c & -c
            cand[i] = c ^ low
            v = ring[i] = low.bit_length() - 1
            if i == l - 1:
                yield tuple(ring)
                continue
            cl = (close[i - 1] if i > 1 else ns & -(2 << v)) & ~(adj[v] if i < l - 2 else 0)
            if not cl:
                continue
            close[i] = cl
            block[i] = block[i - 1] | low | adj[ring[i - 1]]
            i += 1
            cand[i] = adj[v] & (cl if i == l - 1 else ~block[i - 1])


def find_induced_cycle(g: Graph, l: int) -> Embedding | None:
    """First induced cycle on ``l`` vertices, as a C_l embedding in ring order."""
    ring = next(_iter_cycles(g, l), None)
    return None if ring is None else Embedding(l, ring)


def find_all_induced_cycles(g: Graph, l: int) -> list[Embedding]:
    """Every induced C_l, one embedding per cycle (canonical ring order)."""
    return [Embedding(l, ring) for ring in _iter_cycles(g, l)]


# -- cliques ---------------------------------------------------------------


def _first_cliques(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """The first K_k in ascending vertex order, then the first K_{k+1},
    and so on up to the first maximum clique.

    The clique grows in ascending order, lowest candidate first;
    ``cand[i]`` holds the untried vertices above ``clique[i - 1]`` adjacent
    to all of ``clique[:i]``, and a position backtracks once too few remain
    to reach k.  Each K_k found raises k by one and the search goes on from
    it: the search meets cliques in ascending order, and every K_{k+1}
    starts with a K_k no earlier than this one, so the next clique yielded
    is the first K_{k+1}.
    """
    adj = g.adj
    clique = [0] * g.n
    cand = [0] * (g.n + 1)  # untried vertices for each placed position
    cand[0] = g.full_mask()
    i = 0
    while i >= 0:
        c = cand[i]
        if i + c.bit_count() < k:
            i -= 1
            continue
        low = c & -c
        cand[i] = c ^ low
        v = clique[i] = low.bit_length() - 1
        if i == k - 1:
            yield tuple(clique[:k])
            k += 1
        i += 1
        cand[i] = (c ^ low) & adj[v]


def has_clique(g: Graph, k: int) -> Embedding | None:
    """The first K_k in ascending vertex order, or None (early-exit search)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    clique = next(_first_cliques(g, k), None)
    return None if clique is None else Embedding(k, clique)


def max_clique(g: Graph) -> frozenset[int]:
    """An exact maximum clique: the first in ascending vertex order."""
    clique: tuple[int, ...] = ()
    for clique in _first_cliques(g, 1):
        pass
    return frozenset(clique)


# -- general patterns ------------------------------------------------------


def find_induced_copy(g: Graph, pattern: Graph) -> Embedding | None:
    """First induced copy of ``pattern`` in ``g`` (lowest-index branching).

    Dispatches on the pattern's shape: a path labelled 0-1-...-(t-1) goes to
    :func:`find_induced_path`, a cycle labelled around its ring to
    :func:`find_induced_cycle`, a complete graph on four or more vertices
    to :func:`has_clique`, and any other pattern to :func:`_match`.

    The answer is the generic matcher's in every case.  It is memoized in
    ``g._found``, keyed by the pattern's labelled adjacency.  A cycle C_l
    is not searched for when the memo already says that ``g`` has no P_t
    labelled in path order for some t < l: deleting one vertex of a C_l
    leaves an induced P_{l-1}, and every shorter path lies inside that.
    """
    key = (pattern.n, pattern.adj)
    memo = g._found
    if memo is None:
        memo = g._found = {}
    elif key in memo:
        return memo[key]
    kind, size, in_order = _pattern_shape(pattern)
    if kind == "cycle" and any(memo.get((t, _path(t).adj), ()) is None for t in range(1, size)):
        emb = None  # a C_l contains an induced P_t for every t < l
    elif in_order and kind == "path":
        emb = find_induced_path(g, size)
    elif in_order and kind == "cycle":
        emb = find_induced_cycle(g, size)
    elif kind == "complete":
        emb = has_clique(g, size)
    else:
        emb = _match(g, pattern)
    memo[key] = emb
    return emb


def _match(g: Graph, pattern: Graph) -> Embedding | None:
    """Generic matcher: the first copy :func:`iter_induced_copies` yields."""
    return next(iter_induced_copies(g, pattern), None)


def iter_induced_copies(
    g: Graph,
    pattern: Graph,
    top: int | None = None,
    conditions: tuple[tuple[int, int], ...] = (),
) -> Iterator[Embedding]:
    """Every induced copy of ``pattern`` in ``g``, in ascending order of vmap.

    Pattern vertices 0, 1, ... are assigned in turn, each to the free host
    vertices that keep every edge and non-edge so far, lowest first.
    ``room[i][k]`` holds the vertices position k may still take once
    positions 0..i-1 are assigned, and a placement that leaves some later
    position no vertex is not grown (forward checking).  No copy lies
    below such a placement, so the copies and their order are unchanged.

    A copy lies in the δ-core of ``g``, δ the pattern's minimum degree, so
    for δ >= 2 the host is first peeled to it (:func:`_core`), and a host
    vertex is never tried for a pattern vertex of larger degree than its
    own in what is left.

    ``conditions`` holds pairs ``(a, b)``: only the copies with ``vmap[a] <
    vmap[b]`` are yielded, in the same order.  Once the edges are checked,
    placing the earlier of a and b narrows the later one's room to the
    vertices above or below it.

    With ``top``, only the copies whose largest vertex is ``top``, each
    once, in no promised order.  Such a copy puts exactly one pattern
    vertex y on ``top``, so the same loop runs once per y on the pattern
    relabelled from y in BFS order (:func:`_runs`), with ``top`` the one
    host vertex for y's position and the vertices below ``top`` for the
    others; each copy found is mapped back to the pattern's labels.  A y
    that a condition puts below another vertex cannot be on ``top`` and
    gets no run.
    """
    p = pattern.n
    if top is None:
        if p == 0:
            yield Embedding(0, ())
            return
        if p > g.n:
            return
        domain = first = g.full_mask()
    else:
        if not 0 < p <= top + 1:
            return
        domain, first = (1 << top) - 1, 1 << top
    runs = _runs(pattern, conditions, top is not None)
    if not runs:
        return
    adj = g.adj
    alive = domain | first
    least = min(runs[0][2])
    if least >= 2:
        alive = _core(adj, alive, least)
        if alive.bit_count() < p or not alive & first:
            return
        domain &= alive
        first &= alive
    at_least = [0] * p  # host vertices with at least d neighbours alive, d < p
    for v, row in enumerate(adj):
        d = (row & alive).bit_count()
        at_least[d if d < p else p - 1] |= 1 << v
    for d in range(p - 2, -1, -1):
        at_least[d] |= at_least[d + 1]
    fits = [m & domain for m in at_least]
    assign = [0] * p
    cand = [0] * p  # untried host vertices for each assigned position
    room = [[0] * p for _ in range(p)]
    for pos, padj, pdeg, bound in runs:
        room[0][:] = [fits[d] for d in pdeg]
        cand[0] = at_least[pdeg[0]] & first
        i = 0
        while i >= 0:
            c = cand[i]
            if not c:
                i -= 1
                continue
            low = c & -c
            cand[i] = c ^ low
            v = assign[i] = low.bit_length() - 1
            if i + 1 == p:
                vmap = tuple(assign) if pos is None else tuple([assign[j] for j in pos])
                yield Embedding(p, vmap)
                continue
            row = adj[v]
            miss = ~row ^ low
            now, after = room[i], room[i + 1]
            for k in range(i + 1, p):
                left = now[k] & (row if padj[k] >> i & 1 else miss)
                if not left:
                    break
                after[k] = left
            else:
                for k, up in bound[i]:
                    left = after[k] & (-(low << 1) if up else low - 1)
                    if not left:
                        break
                    after[k] = left
                else:
                    i += 1
                    cand[i] = after[i]


def _core(adj: tuple[int, ...], alive: int, d: int) -> int:
    """The vertices of the d-core of the subgraph with rows ``adj`` induced
    on ``alive``: vertices with fewer than d neighbours left are dropped
    until none is."""
    while True:
        drop, rest = 0, alive
        while rest:
            low = rest & -rest
            rest ^= low
            if (adj[low.bit_length() - 1] & alive).bit_count() < d:
                drop |= low
        if not drop:
            return alive
        alive ^= drop


@lru_cache(maxsize=256)
def _runs(pattern: Graph, conditions: tuple[tuple[int, int], ...], rooted: bool) -> tuple:
    """The runs of :func:`iter_induced_copies` over ``pattern``, each as
    ``(pos, rows, degrees, bound)``: the pattern in its own labels (``pos``
    None), or with ``rooted`` one run per pattern vertex y that no
    condition puts below another, relabelled in BFS order from y
    (continuing from the least unvisited vertex if it is disconnected) with
    ``pos[x]`` the new label of vertex x, so that every later position
    meets an earlier one where it can.  ``bound[i]`` lists the later
    positions k that a condition puts above (``(k, True)``) or below
    (``(k, False)``) position i."""
    n = pattern.n
    out = []
    for y in range(n) if rooted else (None,):
        if y is None:
            pos = None
        elif any(a == y for a, _ in conditions):
            continue  # y must map below another vertex, so not to ``top``
        else:
            order, seen = [], 0
            for start in (y, *range(n)):
                if seen >> start & 1:
                    continue
                i = len(order)
                order.append(start)
                seen |= 1 << start
                while i < len(order):
                    new = pattern.adj[order[i]] & ~seen
                    seen |= new
                    order.extend(bits(new))
                    i += 1
            pos = [0] * n
            for label, x in enumerate(order):
                pos[x] = label
            pos = tuple(pos)
        rows = pattern.adj if pos is None else pattern.relabel(pos).adj
        at = pos or range(n)
        bound = [[] for _ in range(n)]
        for a, b in conditions:
            i, k = sorted((at[a], at[b]))
            bound[i].append((k, k == at[b]))
        out.append((pos, rows, tuple(row.bit_count() for row in rows), tuple(map(tuple, bound))))
    return tuple(out)


@lru_cache(maxsize=256)
def symmetry_conditions(pattern: Graph, marked: int) -> tuple[tuple[int, int], ...]:
    """Conditions for :func:`iter_induced_copies` that leave exactly one
    copy of ``pattern`` per pair (vertex set, image of the vertex mask
    ``marked``).

    Two copies give the same pair iff they differ by an element of A, the
    automorphisms of ``pattern`` that map ``marked`` onto itself, found by
    matching the pattern into itself.  The conditions break A along its
    stabilizer chain (Grochow & Kellis, RECOMB 2007): for the least vertex
    v that A moves, ``vmap[v] < vmap[u]`` for every other u in v's orbit,
    then the same in the stabilizer of v, until only the identity is left.
    That stabilizer is the elements of A that fix every vertex up to v, so
    each element adds its least moved vertex's image to that vertex's
    orbit, and one pass over A, never stored, gives every orbit.
    """
    moved = [0] * pattern.n  # images of v under the elements that first move v
    for emb in iter_induced_copies(pattern, pattern):
        s = emb.vmap
        if mask_of(s[x] for x in bits(marked)) == marked:
            v = next((x for x in range(pattern.n) if s[x] != x), None)
            if v is not None:
                moved[v] |= 1 << s[v]
    return tuple((v, u) for v, images in enumerate(moved) for u in bits(images))


def is_free(
    g: Graph, patterns: list[Graph] | tuple[Graph, ...]
) -> tuple[bool, int | None, Embedding | None]:
    """Whether no pattern embeds; otherwise the first witness in list order."""
    for idx, pat in enumerate(patterns):
        emb = find_induced_copy(g, pat)
        if emb is not None:
            return False, idx, emb
    return True, None, None


@lru_cache(maxsize=64)
def _pattern_shape(pat: Graph) -> tuple[str, int, bool]:
    """Classify a pattern as ('path', t), ('cycle', l), ('complete', n) or
    ('generic', n).

    The third field says whether a path is labelled 0-1-...-(t-1) and a
    cycle 0-1-...-(l-1)-0; only then do the specialized finders' embeddings
    map pattern vertex ``i`` the way the generic matcher's do.  Every
    labelling of a complete graph is in order; K1, K2 and K3 are the path
    or cycle they equal.
    """
    n = pat.n
    degs = sorted(pat.degree(v) for v in range(n))
    if n == 1 or (n >= 2 and pat.is_connected() and degs == [1, 1] + [2] * (n - 2)):
        in_order = all(pat.adj[i] >> (i + 1) & 1 for i in range(n - 1))
        return "path", n, in_order
    if n >= 3 and pat.is_connected() and degs == [2] * n:
        in_order = all(pat.adj[i] >> ((i + 1) % n) & 1 for i in range(n))
        return "cycle", n, in_order
    if n >= 4 and degs == [n - 1] * n:
        return "complete", n, True
    return "generic", n, False


def has_pattern_through(g: Graph, pat: Graph, w: int) -> bool:
    """Is there an induced copy of ``pat`` using vertex ``w``?  A test oracle
    for the enumerator's per-parent tables of forbidden neighbourhoods."""
    return any(w in e.vmap for e in iter_induced_copies(g, pat))
