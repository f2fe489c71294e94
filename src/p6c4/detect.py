"""Induced-subgraph detection: paths, cycles, holes, cliques, general patterns.

All searches are exhaustive and deterministic (lowest-index branching), so
the first witness found is stable across runs.  Worst-case exponential by
design; inputs here are desk-scale.

An :class:`Embedding` maps pattern vertices to host vertices and must
preserve both edges and non-edges (induced copies throughout).

:func:`find_induced_copy` is the one entry point for whole-graph pattern
searches.  It classifies the pattern once (cached), sends a path or cycle
labelled in path or ring order to :func:`find_induced_path` or
:func:`find_induced_cycle`, and anything else to the generic matcher
:func:`_match`.  All three return the same first embedding, so the
dispatch changes no answer.  Answers are memoized on the host graph (see
:class:`p6c4.graphs.Graph`), so repeating a search on one graph is free.
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


def find_induced_path(g: Graph, t: int) -> Embedding | None:
    """First induced path on ``t`` vertices, as a P_t embedding in path order."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > g.n:
        return None
    if t == 1:
        return Embedding(1, (0,))
    adj = g.adj
    for s in range(g.n):
        path = [s]
        if _grow_path(path, 1 << s, 0, t, adj):
            return Embedding(t, tuple(path))
    return None


def _grow_path(
    path: list[int], pmask: int, earlier_nbrs: int, t: int, adj: tuple[int, ...]
) -> bool:
    """Extend the chordless ``path`` in place at its right end to length t;
    on failure ``path`` is left as it came."""
    if len(path) == t:
        return True
    last = path[-1]
    allowed = adj[last] & ~pmask & ~earlier_nbrs
    earlier_nbrs |= adj[last]
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        path.append(low.bit_length() - 1)
        if _grow_path(path, pmask | low, earlier_nbrs, t, adj):
            return True
        path.pop()
    return False


# -- induced cycles --------------------------------------------------------


def find_induced_cycle(g: Graph, l: int) -> Embedding | None:
    """First induced cycle on ``l`` vertices, as a C_l embedding in ring order."""
    if l < 3:
        raise ValueError("l must be at least 3")
    if l > g.n:
        return None
    adj = g.adj
    for s in range(g.n):
        gt = ~((1 << (s + 1)) - 1)  # vertices > s, so s is the ring minimum
        ring = [s]
        if _grow_cycle(ring, 1 << s, 0, l, adj, s, gt):
            return Embedding(l, tuple(ring))
    return None


def _grow_cycle(path, pmask, mid_nbrs, l, adj, s, gt) -> bool:
    """Chordless paths from s using vertices > s; close back to s at length l.

    Grows ``path`` in place and leaves it as it came on failure.
    ``mid_nbrs`` holds neighbours of path[0..-2] except s's own (tracked so
    the closing vertex may touch s but nothing else before the end).
    """
    last = path[-1]
    if len(path) == l - 1:
        allowed = adj[last] & adj[s] & ~pmask & ~mid_nbrs & gt
        if allowed:
            path.append((allowed & -allowed).bit_length() - 1)
            return True
        return False
    allowed = adj[last] & ~pmask & ~mid_nbrs & gt
    if len(path) >= 2:
        allowed &= ~adj[s]
        mid_nbrs |= adj[last]
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        path.append(low.bit_length() - 1)
        if _grow_cycle(path, pmask | low, mid_nbrs, l, adj, s, gt):
            return True
        path.pop()
    return False


def find_all_induced_cycles(g: Graph, l: int) -> list[Embedding]:
    """Every induced C_l, one embedding per cycle (canonical ring order)."""
    if l < 3:
        raise ValueError("l must be at least 3")
    out: list[Embedding] = []
    adj = g.adj

    def grow(path, pmask, mid_nbrs, s, gt):
        last = path[-1]
        if len(path) == l - 1:
            allowed = adj[last] & adj[s] & ~pmask & ~mid_nbrs & gt
            for u in bits(allowed):
                ring = path + [u]
                if ring[1] < ring[-1]:  # fix direction: one embedding per cycle
                    out.append(Embedding(l, tuple(ring)))
            return
        allowed = adj[last] & ~pmask & ~mid_nbrs & gt
        if len(path) >= 2:
            allowed &= ~adj[s]
        for u in bits(allowed):
            nxt = mid_nbrs | (adj[last] if len(path) >= 2 else 0)
            grow(path + [u], pmask | (1 << u), nxt, s, gt)

    for s in range(g.n):
        gt = ~((1 << (s + 1)) - 1)
        grow([s], 1 << s, 0, s, gt)
    return out


def find_hole(g: Graph) -> Embedding | None:
    """Smallest chordless cycle of length at least 4, if any."""
    for l in range(4, g.n + 1):
        emb = find_induced_cycle(g, l)
        if emb is not None:
            return emb
    return None


# -- chordality ------------------------------------------------------------


def _lexbfs_order(g: Graph) -> list[int]:
    labels: list[list[int]] = [[] for _ in range(g.n)]
    order = []
    numbered = 0
    for step in range(g.n, 0, -1):
        best = -1
        for v in range(g.n):
            if not numbered >> v & 1 and (best < 0 or labels[v] > labels[best]):
                best = v
        order.append(best)
        numbered |= 1 << best
        for u in bits(g.adj[best] & ~numbered):
            labels[u].append(step)
    return order


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | Embedding | None]:
    """Chordality with a certificate.

    Returns ``(True, peo)`` with a perfect elimination order, or
    ``(False, hole)`` with a chordless cycle embedding of length >= 4.
    """
    if g.n == 0:
        return True, ()
    visit = _lexbfs_order(g)
    peo = tuple(reversed(visit))
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [u for u in bits(g.adj[v]) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=pos.__getitem__)
        for u in later:
            if u != parent and not g.has_edge(parent, u):
                hole = find_hole(g)
                assert hole is not None, "PEO check failed on a graph with no hole"
                return False, hole
    return True, peo


# -- cliques ---------------------------------------------------------------


def max_clique(g: Graph) -> frozenset[int]:
    """An exact maximum clique (deterministic branch and bound)."""
    best: list[int] = []
    adj = g.adj

    def expand(r: list[int], cand: int) -> None:
        nonlocal best
        if len(r) + cand.bit_count() <= len(best):
            return
        if not cand:
            if len(r) > len(best):
                best = r[:]
            return
        while cand:
            if len(r) + cand.bit_count() <= len(best):
                return
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            expand(r + [v], cand & adj[v])

    expand([], g.full_mask())
    return frozenset(best)


def has_clique(g: Graph, k: int) -> Embedding | None:
    """An induced K_k embedding if one exists (early-exit search)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > g.n:
        return None
    adj = g.adj
    found: list[int] | None = None

    def expand(r: list[int], cand: int) -> bool:
        nonlocal found
        if len(r) == k:
            found = r[:]
            return True
        if len(r) + cand.bit_count() < k:
            return False
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            if expand(r + [v], cand & adj[v]):
                return True
            if len(r) + cand.bit_count() < k:
                return False
        return False

    expand([], g.full_mask())
    return Embedding(k, tuple(found)) if found is not None else None


# -- general patterns ------------------------------------------------------


def find_induced_copy(g: Graph, pattern: Graph) -> Embedding | None:
    """First induced copy of ``pattern`` in ``g`` (lowest-index branching).

    Dispatches on the pattern's shape: a path labelled 0-1-...-(t-1) goes to
    :func:`find_induced_path`, a cycle labelled around its ring to
    :func:`find_induced_cycle`, and any other pattern to :func:`_match`.
    The answer is the generic matcher's in every case, and it is memoized
    in ``g._found``, keyed by the pattern's labelled adjacency.
    """
    key = (pattern.n, pattern.adj)
    memo = g._found
    if memo is None:
        memo = g._found = {}
    elif key in memo:
        return memo[key]
    kind, size, in_order = _pattern_shape(pattern)
    if in_order and kind == "path":
        emb = find_induced_path(g, size)
    elif in_order and kind == "cycle":
        emb = find_induced_cycle(g, size)
    else:
        emb = _match(g, pattern)
    memo[key] = emb
    return emb


def _match(g: Graph, pattern: Graph) -> Embedding | None:
    """Generic matcher: the first copy :func:`iter_induced_copies` yields."""
    return next(iter_induced_copies(g, pattern), None)


def iter_induced_copies(g: Graph, pattern: Graph) -> Iterator[Embedding]:
    """Every induced copy of ``pattern`` in ``g``, in ascending order of vmap.

    Pattern vertices 0, 1, ... are assigned in turn, each to the free host
    vertices that keep every edge and non-edge so far, lowest first; a host
    vertex of smaller degree than the pattern vertex is never tried.
    """
    p = pattern.n
    if p == 0:
        yield Embedding(0, ())
        return
    if p > g.n:
        return
    adj, padj = g.adj, pattern.adj
    fits = [
        mask_of(v for v in range(g.n) if adj[v].bit_count() >= prow.bit_count())
        for prow in padj
    ]
    assign = [0] * p
    cand = [0] * p  # untried host vertices for each assigned position
    cand[0] = fits[0]
    i = 0
    while i >= 0:
        c = cand[i]
        if not c:
            i -= 1
            continue
        low = c & -c
        cand[i] = c ^ low
        assign[i] = low.bit_length() - 1
        if i + 1 == p:
            yield Embedding(p, tuple(assign))
            continue
        i += 1
        allowed = fits[i]
        prow = padj[i]
        for j in range(i):
            u = assign[j]
            allowed &= (adj[u] if prow >> j & 1 else ~adj[u]) & ~(1 << u)
        cand[i] = allowed


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
    """Classify a pattern as ('path', t), ('cycle', l), or ('generic', n).

    The third field says whether a path is labelled 0-1-...-(t-1) and a
    cycle 0-1-...-(l-1)-0; only then do the specialized finders' embeddings
    map pattern vertex ``i`` the way the generic matcher's do.
    """
    n = pat.n
    degs = sorted(pat.degree(v) for v in range(n))
    if n == 1 or (n >= 2 and pat.is_connected() and degs == [1, 1] + [2] * (n - 2)):
        in_order = all(pat.adj[i] >> (i + 1) & 1 for i in range(n - 1))
        return "path", n, in_order
    if n >= 3 and pat.is_connected() and degs == [2] * n:
        in_order = all(pat.adj[i] >> ((i + 1) % n) & 1 for i in range(n))
        return "cycle", n, in_order
    return "generic", n, False


# -- localized variants (used by the enumerator on freshly added vertices) --


def has_c4_through(g: Graph, w: int) -> bool:
    """Is there an induced C4 containing vertex ``w``?"""
    adj = g.adj
    nw = adj[w]
    outside = g.full_mask() & ~nw & ~(1 << w)
    nbrs = list(bits(nw))
    for ai in range(len(nbrs)):
        a = nbrs[ai]
        for ci in range(ai + 1, len(nbrs)):
            c = nbrs[ci]
            if adj[a] >> c & 1:
                continue
            if adj[a] & adj[c] & outside:
                return True
    return False


def has_path_through(g: Graph, t: int, w: int) -> bool:
    """Is there an induced P_t containing vertex ``w``?

    A P_t through ``w`` splits into two chordless arms meeting at ``w``;
    arms are mutually non-adjacent apart from their shared endpoint.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > g.n:
        return False
    if t == 1:
        return True
    adj = g.adj

    def grow_left(path, pmask, earlier, r, rmask, rblock):
        if len(path) - 1 == r:
            return True
        last = path[-1]
        allowed = adj[last] & ~pmask & ~earlier & ~rmask & ~rblock
        for u in bits(allowed):
            if grow_left(path + [u], pmask | (1 << u), earlier | adj[last], r, rmask, rblock):
                return True
        return False

    def grow_right(path, pmask, earlier, m):
        if len(path) - 1 == m:
            r = t - 1 - m
            if r == 0:
                return True
            rblock = 0
            for x in path[1:]:
                rblock |= adj[x]
            return grow_left([w], 1 << w, 0, r, pmask & ~(1 << w), rblock)
        last = path[-1]
        allowed = adj[last] & ~pmask & ~earlier
        for u in bits(allowed):
            if grow_right(path + [u], pmask | (1 << u), earlier | adj[last], m):
                return True
        return False

    return any(grow_right([w], 1 << w, 0, m) for m in range(t - 1, -1, -1))


def has_cycle_through(g: Graph, l: int, w: int) -> bool:
    """Is there an induced C_l containing vertex ``w``?"""
    adj = g.adj
    full = g.full_mask()

    def grow(path, pmask, mid_nbrs):
        last = path[-1]
        if len(path) == l - 1:
            return bool(adj[last] & adj[w] & ~pmask & ~mid_nbrs & full)
        allowed = adj[last] & ~pmask & ~mid_nbrs
        if len(path) >= 2:
            allowed &= ~adj[w]
        for u in bits(allowed):
            nxt = mid_nbrs | (adj[last] if len(path) >= 2 else 0)
            if grow(path + [u], pmask | (1 << u), nxt):
                return True
        return False

    return grow([w], 1 << w, 0)


def has_pattern_through(g: Graph, pat: Graph, w: int) -> bool:
    """Is there an induced copy of ``pat`` using vertex ``w``?

    Specialized for paths/cycles; general patterns fall back to a matcher
    that pins one pattern vertex to ``w``.
    """
    kind, size, _ = _pattern_shape(pat)
    if kind == "path":
        return has_path_through(g, size, w)
    if kind == "cycle":
        return has_cycle_through(g, size, w)
    for anchor in range(pat.n):
        if _find_copy_pinned(g, pat, anchor, w):
            return True
    return False


def _find_copy_pinned(g: Graph, pat: Graph, anchor: int, w: int) -> bool:
    p = pat.n
    order = [anchor] + [i for i in range(p) if i != anchor]
    assign: dict[int, int] = {}
    used = 0

    def rec(idx: int) -> bool:
        nonlocal used
        if idx == p:
            return True
        i = order[idx]
        allowed = g.full_mask() & ~used
        if idx == 0:
            allowed &= 1 << w
        for j in assign:
            if pat.has_edge(j, i):
                allowed &= g.adj[assign[j]]
            else:
                allowed &= ~g.adj[assign[j]]
        for v in bits(allowed):
            assign[i] = v
            used |= 1 << v
            if rec(idx + 1):
                return True
            del assign[i]
            used &= ~(1 << v)
        return False

    return rec(0)
