"""Structure around induced five-cycles, clique cutsets, and decomposition.

Vertices outside a fixed induced C5 are classified by how many ring
vertices they see; the refined buckets (attachment sets) drive a family
of adjacency laws that hold in every connected (P6,C4)-free graph.  Each
law is evaluated as a predicate with a replayable witness on violation,
so the checker doubles as an audit tool on graphs *outside* the class.

Clique cutsets come from one MCS-M minimal triangulation per graph: the
minimal separators of a minimal triangulation that are cliques in the
graph are exactly its clique minimal separators, and MCS-M lists at most
n - 1 of them.  ``minimal_separators`` enumerates every minimal separator,
which can take exponential time; it is kept as the tests' oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import Graph, bits, mask_of, induced_subgraph
from . import canon, detect, families


# -- C5 embeddings and S-partitions -----------------------------------------


@dataclass(frozen=True)
class C5Embedding:
    """An induced five-cycle, ring order v0 v1 v2 v3 v4 (indices mod 5)."""

    ring: tuple[int, int, int, int, int]

    def validate(self, g: Graph) -> None:
        ring = self.ring
        if len(set(ring)) != 5:
            raise ValueError("ring vertices must be distinct")
        for v in ring:
            if not 0 <= v < g.n:
                raise ValueError(f"ring vertex {v} out of range")
        for i in range(5):
            for j in range(i + 1, 5):
                expect = (j - i) % 5 in (1, 4)
                if g.has_edge(ring[i], ring[j]) != expect:
                    raise ValueError(
                        f"ring positions {i},{j} do not induce a five-cycle"
                    )


def find_all_c5(g: Graph) -> list[C5Embedding]:
    """Every induced C5 of ``g``, one canonical ring per cycle."""
    return [C5Embedding(tuple(e.vmap)) for e in detect.find_all_induced_cycles(g, 5)]


@dataclass(frozen=True)
class SPartition:
    """Vertices off the ring, bucketed by their ring neighborhoods.

    ``s[p]`` holds vertices with exactly p ring neighbors.  ``s1_at[i]``
    refines s[1] by the neighbor ``v_i``; ``s2_at[i]`` holds vertices
    whose two ring neighbors are the consecutive pair ``v_i, v_{i+1}``;
    ``s3_at[i]`` holds vertices seeing exactly ``v_{i-1}, v_i, v_{i+1}``.
    In a C4-free host every s[2] / s[3] vertex lands in such a bucket;
    on arbitrary graphs the buckets may undercover (the count partition
    ``s`` itself is always total).
    """

    ring: tuple[int, ...]
    s: tuple[frozenset[int], ...]  # index 0..5 by ring-neighbor count
    s1_at: tuple[frozenset[int], ...]
    s2_at: tuple[frozenset[int], ...]
    s3_at: tuple[frozenset[int], ...]


def classify(g: Graph, c: C5Embedding) -> SPartition:
    c.validate(g)
    ring = c.ring
    buckets: list[set[int]] = [set() for _ in range(6)]
    s1 = [set() for _ in range(5)]
    s2 = [set() for _ in range(5)]
    s3 = [set() for _ in range(5)]
    ring_set = set(ring)
    for v in range(g.n):
        if v in ring_set:
            continue
        hits = [i for i in range(5) if g.has_edge(v, ring[i])]
        buckets[len(hits)].add(v)
        if len(hits) == 1:
            s1[hits[0]].add(v)
        elif len(hits) == 2:
            i, j = hits
            if (j - i) % 5 == 1:
                s2[i].add(v)
            elif (i - j) % 5 == 1:
                s2[j].add(v)
        elif len(hits) == 3:
            for i in range(5):
                if set(hits) == {(i - 1) % 5, i, (i + 1) % 5}:
                    s3[i].add(v)
                    break
    return SPartition(
        ring,
        tuple(frozenset(b) for b in buckets),
        tuple(frozenset(x) for x in s1),
        tuple(frozenset(x) for x in s2),
        tuple(frozenset(x) for x in s3),
    )


# -- adjacency-law checks ----------------------------------------------------


HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: tuple[int, ...] | None = None
    detail: str | None = None

    def to_json(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


def _missing_edge(g: Graph, a: frozenset[int], b: frozenset[int]):
    """A non-adjacent pair (x, y) with x in a, y in b, if any (x != y)."""
    for x in sorted(a):
        for y in sorted(b):
            if x != y and not g.has_edge(x, y):
                return x, y
    return None


def _present_edge(g: Graph, a: frozenset[int], b: frozenset[int]):
    """An adjacent pair (x, y) with x in a, y in b, if any."""
    for x in sorted(a):
        for y in sorted(b):
            if x != y and g.has_edge(x, y):
                return x, y
    return None


def _clique_defect(g: Graph, a: frozenset[int]):
    return _missing_edge(g, a, a)


def check_properties(g: Graph, c: C5Embedding, p: SPartition | None = None) -> dict[str, Verdict]:
    """Evaluate the C5 attachment laws P0..P12 and O5.1..O5.3.

    P0..P11 are unconditional predicates; P12 applies only when the host
    has no clique cutset; the O5 laws apply only to W5-free hosts.  Every
    ``violated`` verdict carries a replayable witness.
    """
    if p is None:
        p = classify(g, c)
    s1, s2, s3 = p.s1_at, p.s2_at, p.s3_at
    out: dict[str, Verdict] = {}

    # P0: s[5] and each s3(i) are cliques; s[4] is empty.
    w = _clique_defect(g, p.s[5])
    if w is None and p.s[4]:
        w = (min(p.s[4]),)
    if w is None:
        for i in range(5):
            w = _clique_defect(g, s3[i])
            if w is not None:
                break
    out["P0"] = Verdict(VIOLATED, w) if w else Verdict(HOLDS)

    # P1: s1(i) complete to s1(i+2), anti-complete to s1(i+1);
    #     if s1(i) and s1(i+2) both nonempty, both are cliques.
    out["P1"] = _first_violation(
        [
            lambda i=i: _missing_edge(g, s1[i], s1[(i + 2) % 5])
            for i in range(5)
        ]
        + [lambda i=i: _present_edge(g, s1[i], s1[(i + 1) % 5]) for i in range(5)]
        + [
            lambda i=i: (
                (_clique_defect(g, s1[i]) or _clique_defect(g, s1[(i + 2) % 5]))
                if s1[i] and s1[(i + 2) % 5]
                else None
            )
            for i in range(5)
        ]
    )

    # P2: s2(i) complete to s2(i+1), anti-complete to s2(i+2);
    #     if s2(i) and s2(i+1) both nonempty, both are cliques.
    out["P2"] = _first_violation(
        [lambda i=i: _missing_edge(g, s2[i], s2[(i + 1) % 5]) for i in range(5)]
        + [lambda i=i: _present_edge(g, s2[i], s2[(i + 2) % 5]) for i in range(5)]
        + [
            lambda i=i: (
                (_clique_defect(g, s2[i]) or _clique_defect(g, s2[(i + 1) % 5]))
                if s2[i] and s2[(i + 1) % 5]
                else None
            )
            for i in range(5)
        ]
    )

    # P3: s3(i) anti-complete to s3(i+2).
    out["P3"] = _first_violation(
        [lambda i=i: _present_edge(g, s3[i], s3[(i + 2) % 5]) for i in range(5)]
    )

    # P4: s1(i) anti-complete to s2(j) unless j == i+2; a vertex of s2(i+2)
    #     with a neighbor in s1(i) is universal inside s2(i+2).
    def p4_check(i, j):
        if j == (i + 2) % 5:
            return None
        return _present_edge(g, s1[i], s2[j])

    def p4_universal(i):
        tgt = s2[(i + 2) % 5]
        for y in sorted(tgt):
            if any(g.has_edge(y, x) for x in s1[i]):
                for z in sorted(tgt - {y}):
                    if not g.has_edge(y, z):
                        return y, z
        return None

    out["P4"] = _first_violation(
        [lambda i=i, j=j: p4_check(i, j) for i in range(5) for j in range(5)]
        + [lambda i=i: p4_universal(i) for i in range(5)]
    )

    # P5: s1(i) anti-complete to s3(i+2).
    out["P5"] = _first_violation(
        [lambda i=i: _present_edge(g, s1[i], s3[(i + 2) % 5]) for i in range(5)]
    )

    # P6: s2(i+2) anti-complete to s3(i).
    out["P6"] = _first_violation(
        [lambda i=i: _present_edge(g, s2[(i + 2) % 5], s3[i]) for i in range(5)]
    )

    # P7: one of s1(i), s2(i+3) is empty, and one of s1(i), s2(i+1) is empty.
    def p7(i):
        for j in ((i + 3) % 5, (i + 1) % 5):
            if s1[i] and s2[j]:
                return (min(s1[i]), min(s2[j]))
        return None

    out["P7"] = _first_violation([lambda i=i: p7(i) for i in range(5)])

    # P8: one of s2(i-1), s2(i), s2(i+2) is empty.
    def p8(i):
        trio = (s2[(i - 1) % 5], s2[i], s2[(i + 2) % 5])
        if all(trio):
            return tuple(min(t) for t in trio)
        return None

    out["P8"] = _first_violation([lambda i=i: p8(i) for i in range(5)])

    # P9: s1(i-1) and s1(i+1) nonempty => s2 empty;
    #     s1(i) and s1(i+1) nonempty => s2 == s2(i).
    def p9(i):
        if s1[(i - 1) % 5] and s1[(i + 1) % 5] and p.s[2]:
            return (min(s1[(i - 1) % 5]), min(s1[(i + 1) % 5]), min(p.s[2]))
        if s1[i] and s1[(i + 1) % 5]:
            stray = p.s[2] - s2[i]
            if stray:
                return (min(s1[i]), min(s1[(i + 1) % 5]), min(stray))
        return None

    out["P9"] = _first_violation([lambda i=i: p9(i) for i in range(5)])

    # P10: for x in s3(i), if s2(i+1) and s2(i+3) are both nonempty then x is
    #      complete or anti-complete to their union; complete forces both
    #      cliques; if s2(i+2) is nonempty too, x must be anti-complete.
    def p10(i):
        a, b = s2[(i + 1) % 5], s2[(i + 3) % 5]
        if not (a and b):
            return None
        union = a | b
        for x in sorted(s3[i]):
            nbrs = [y for y in sorted(union) if g.has_edge(x, y)]
            if nbrs and len(nbrs) != len(union):
                miss = next(y for y in sorted(union) if not g.has_edge(x, y))
                return (x, nbrs[0], miss)
            if nbrs:
                if s2[(i + 2) % 5]:
                    return (x, nbrs[0], min(s2[(i + 2) % 5]))
                defect = _clique_defect(g, a) or _clique_defect(g, b)
                if defect:
                    return (x,) + defect
        return None

    out["P10"] = _first_violation([lambda i=i: p10(i) for i in range(5)])

    # P11: s1(i) not anti-complete to s2(i+2) => s1 == s1(i).
    def p11(i):
        hit = _present_edge(g, s1[i], s2[(i + 2) % 5])
        if hit is not None:
            stray = p.s[1] - s1[i]
            if stray:
                return hit + (min(stray),)
        return None

    out["P11"] = _first_violation([lambda i=i: p11(i) for i in range(5)])

    # P12 (host without clique cutset): s1(i) complete to s3(i).
    if find_clique_cutset(g) is None:
        out["P12"] = _first_violation(
            [lambda i=i: _missing_edge(g, s1[i], s3[i]) for i in range(5)]
        )
    else:
        out["P12"] = Verdict(NOT_APPLICABLE, detail="host has a clique cutset")

    # O5 laws require a W5-free host.
    if detect.find_induced_copy(g, families.wheel_graph(5)) is None:
        def o51(i):
            if s1[(i - 1) % 5] and s1[(i + 1) % 5]:
                return _present_edge(g, s3[i], s1[(i - 1) % 5]) or _present_edge(
                    g, s3[i], s1[(i + 1) % 5]
                )
            return None

        def o52(i):
            if s2[(i - 1) % 5] and s2[i]:
                return _missing_edge(g, s3[i], s2[(i - 1) % 5]) or _missing_edge(
                    g, s3[i], s2[i]
                )
            return None

        def o53(i):
            pool = s3[(i - 1) % 5] | s3[(i + 1) % 5]
            if not pool:
                return None
            for pvx in sorted(s1[i]):
                for q in sorted(s2[(i + 2) % 5]):
                    if g.has_edge(pvx, q):
                        for x in sorted(pool):
                            if g.has_edge(x, pvx):
                                return (x, pvx)
                            if g.has_edge(x, q):
                                return (x, q)
            return None

        out["O5.1"] = _first_violation([lambda i=i: o51(i) for i in range(5)])
        out["O5.2"] = _first_violation([lambda i=i: o52(i) for i in range(5)])
        out["O5.3"] = _first_violation([lambda i=i: o53(i) for i in range(5)])
    else:
        na = Verdict(NOT_APPLICABLE, detail="host contains W5")
        out["O5.1"] = out["O5.2"] = out["O5.3"] = na
    return out


def _first_violation(checks) -> Verdict:
    for chk in checks:
        w = chk()
        if w is not None:
            return Verdict(VIOLATED, tuple(w))
    return Verdict(HOLDS)


def report_to_json(report: dict[str, Verdict]) -> dict:
    return {name: v.to_json() for name, v in report.items()}


# -- domination --------------------------------------------------------------


def is_dominating(g: Graph, s) -> bool:
    smask = mask_of(s)
    cover = smask
    for v in bits(smask):
        cover |= g.adj[v]
    return cover & g.full_mask() == g.full_mask()


# -- clique cutsets ----------------------------------------------------------


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def minimal_separators(g: Graph) -> list[frozenset[int]]:
    """All minimal vertex separators of a connected graph.

    Uses the neighborhood-deletion closure; on a disconnected graph the
    empty separator is not reported.  There can be exponentially many, so
    the program itself never calls this: it is the oracle the tests hold
    :func:`find_clique_cutset` and :func:`mcs_m_separators` to.
    """
    if g.n == 0:
        return []
    full = g.full_mask()
    found: set[int] = set()
    queue: list[int] = []

    def note(sep_mask: int) -> None:
        if sep_mask and sep_mask not in found:
            found.add(sep_mask)
            queue.append(sep_mask)

    def comp_neighborhoods(removed: int):
        remaining = full & ~removed
        while remaining:
            start = (remaining & -remaining).bit_length() - 1
            comp = 1 << start
            frontier = comp
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    nxt |= g.adj[v]
                frontier = nxt & remaining & ~comp
                comp |= frontier
            nb = 0
            for v in bits(comp):
                nb |= g.adj[v]
            yield nb & ~comp
            remaining &= ~comp

    for v in range(g.n):
        for nb in comp_neighborhoods(g.adj[v] | (1 << v)):
            note(nb)
    while queue:
        sep = queue.pop()
        for x in bits(sep):
            for nb in comp_neighborhoods(sep | g.adj[x]):
                note(nb)
    return sorted(
        (frozenset(bits(m)) for m in found), key=lambda s: (len(s), sorted(s))
    )


def mcs_m_separators(g: Graph) -> list[int]:
    """The minimal separators of an MCS-M minimal triangulation of ``g``.

    ``g`` must be connected.  MCS-M (Berry, Blair, Heggernes & Peyton,
    Algorithmica 39 (2004)) numbers the vertices from n down to 1, each
    time taking the lowest unnumbered vertex of largest label.  Every
    unnumbered vertex y reachable from it through unnumbered vertices of
    labels below y's gets its label raised and the chosen vertex added to ``madj[y]``;
    those additions are the edges of the triangulation H.  A vertex
    chosen with a label no larger than the previous pick's is a
    generator, and the ``madj`` sets of the generators are exactly the
    minimal separators of H (Berry, Pogorelcnik & Simonet, Algorithms 3
    (2010)).  Returns them as vertex masks, at most n - 1 of them, in the
    order found; a separator may repeat.
    """
    adj = g.adj
    n = g.n
    label = [0] * n
    buckets = [0] * (n + 1)  # buckets[l]: unnumbered vertices of label l
    buckets[0] = unnumbered = g.full_mask()
    madj = [0] * n
    top = 0
    prev = -1
    seps: list[int] = []
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        x = _lowest(buckets[top])
        if top <= prev:
            seps.append(madj[x])
        prev = top
        xbit = 1 << x
        buckets[top] &= ~xbit
        unnumbered &= ~xbit
        # y is reached iff it neighbours x or a vertex of ``inner``, the
        # part of {label < label(y)} that x reaches through that set.
        near = adj[x] & unnumbered
        inner = low = reach = 0
        for lvl in range(top + 1):
            here = buckets[lvl]
            if here & ~near:  # grow ``inner`` only when it can reach more
                new = near & low & ~inner
                while new:
                    inner |= new
                    for v in bits(new):
                        near |= adj[v]
                    near &= unnumbered
                    new = near & low & ~inner
            reach |= near & here
            low |= here
        for y in bits(reach):
            lvl = label[y]
            label[y] = lvl + 1
            ybit = 1 << y
            buckets[lvl] &= ~ybit
            buckets[lvl + 1] |= ybit
            madj[y] |= xbit
        top += 1  # a reached vertex may now outrank the rest
    return seps


def find_clique_cutset(g: Graph):
    """A clique whose removal disconnects ``g``, with the two sides.

    Returns ``(cutset, side, rest)`` as frozensets, or None.  For a
    disconnected graph the empty clique qualifies.  The cutset returned is
    the first clique minimal separator in (size, sorted vertices) order;
    ``side`` is the component of ``g - cutset`` holding its lowest vertex.

    The clique minimal separators of ``g`` are exactly the minimal
    separators of any minimal triangulation that are cliques in ``g``
    (Berry, Pogorelcnik & Simonet 2010), so one MCS-M pass
    (:func:`mcs_m_separators`) yields them all, whatever its tie-breaks,
    without enumerating the minimal separators of ``g`` itself.  The
    answer is memoized in ``g._cutset``.
    """
    memo = g._cutset
    if memo is False:
        memo = g._cutset = _clique_cutset(g)
    return memo


def _clique_cutset(g: Graph):
    if g.n == 0:
        return None
    comps = g.components()
    if len(comps) > 1:
        side = comps[0]
        rest = frozenset(v for comp in comps[1:] for v in comp)
        return frozenset(), side, rest
    cliques = [m for m in set(mcs_m_separators(g)) if g.is_clique(m)]
    if not cliques:
        return None
    smask = min(cliques, key=lambda m: (m.bit_count(), list(bits(m))))
    remaining = g.full_mask() & ~smask
    comp = g.component_mask(_lowest(remaining), remaining)
    return (
        frozenset(bits(smask)),
        frozenset(bits(comp)),
        frozenset(bits(remaining & ~comp)),
    )


@dataclass(frozen=True)
class CutsetNode:
    """Clique cutset decomposition tree; vertex ids are host coordinates.

    Leaves are atoms (no clique cutset); an internal node records the
    clique ``cutset`` shared by all its children.
    """

    vertices: tuple[int, ...]
    cutset: tuple[int, ...] | None
    children: tuple["CutsetNode", ...]

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "cutset": None if self.cutset is None else list(self.cutset),
            "children": [ch.to_json() for ch in self.children],
        }


def decompose(g: Graph) -> CutsetNode:
    """Clique cutset decomposition down to atoms.

    Each piece is split along :func:`find_clique_cutset` of its induced
    subgraph; its children are the components of the piece minus the
    cutset, each with the cutset added back, in order of their lowest
    vertex.  The pieces are walked with an explicit stack, so a deep tree
    (a long path has depth n - 2) needs no recursion.
    """

    def split(vset: tuple[int, ...]):
        """The cutset of a piece in host ids and its child pieces, or
        ``(None, ())`` for an atom."""
        sub, vmap = induced_subgraph(g, vset)
        hit = find_clique_cutset(sub)
        if hit is None:
            return None, ()
        cut_mask = mask_of(hit[0])
        remaining = sub.full_mask() & ~cut_mask
        pieces = []
        while remaining:
            comp = sub.component_mask(_lowest(remaining), remaining)
            pieces.append(tuple([vmap[i] for i in bits(comp | cut_mask)]))
            remaining &= ~comp
        assert len(pieces) > 1, "clique cutset does not separate"
        return tuple([vmap[i] for i in bits(cut_mask)]), pieces

    # One frame (vertices, cutset, child pieces, finished children) per
    # piece whose subtree is still being built.
    vset = tuple(range(g.n))
    stack = [(vset, *split(vset), [])]
    while True:
        vset, cut, pieces, done = stack[-1]
        if len(done) < len(pieces):
            child = pieces[len(done)]
            stack.append((child, *split(child), []))
            continue
        node = CutsetNode(vset, cut, tuple(done))
        stack.pop()
        if not stack:
            return node
        stack[-1][3].append(node)


def atom_list(tree: CutsetNode) -> list[tuple[int, ...]]:
    """The leaves of ``tree``, left to right."""
    out: list[tuple[int, ...]] = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if node.children:
            todo.extend(reversed(node.children))
        else:
            out.append(node.vertices)
    return out


# -- the blown-up Petersen-plus-universal family -----------------------------


def _twin_quotient(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Quotient by true-twin classes (N[u] == N[v]); returns sizes per class."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    reps: list[int] = []
    cls: list[list[int]] = []
    for v in range(g.n):
        for idx, r in enumerate(reps):
            if closed[v] == closed[r]:
                cls[idx].append(v)
                break
        else:
            reps.append(v)
            cls.append([v])
    q = len(reps)
    rows = [0] * q
    for i in range(q):
        for j in range(i + 1, q):
            if g.has_edge(reps[i], reps[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(q, tuple(rows), _checked=True), tuple(len(c) for c in cls)


@functools.lru_cache(maxsize=1)
def _base_quotients() -> list[tuple[Graph, tuple[int, ...]]]:
    """Twin quotients of all induced subgraphs of the 11-vertex base.

    Deduplication keys on the size vector in canonical vertex order, which
    only merges configurations that are exactly equivalent; ambiguous ones
    are kept (harmless — the matcher tries every stored profile).
    """
    base = families.specific_base()
    seen: dict[bytes, tuple[Graph, tuple[int, ...]]] = {}
    for mask in range(1 << base.n):
        sub, _ = induced_subgraph(base, bits(mask))
        q, sizes = _twin_quotient(sub)
        order = canon.canonical_order(q)
        key = canon.canonical_code(q) + bytes(sizes[v] for v in order)
        if key not in seen:
            seen[key] = (q, sizes)
    return list(seen.values())


def is_specific(g: Graph) -> bool:
    """Is ``g`` a clique blow-up of the Petersen-plus-universal base?

    Each base vertex is replaced by a clique (possibly empty); substituted
    cliques are joined completely iff the base vertices are adjacent.
    Recognition goes through true-twin quotients: ``g`` is such a blow-up
    iff its quotient matches the quotient of some induced subgraph of the
    base with classwise capacity to spare: an isomorphism (an induced copy
    of one in the other, equal order) sending each class of ``g`` to a
    base class no larger.
    """
    if g.n == 0:
        return True
    qg, a = _twin_quotient(g)
    qcode = canon.canonical_code(qg)
    for qb, b in _base_quotients():
        if qb.n != qg.n or canon.canonical_code(qb) != qcode:
            continue
        for e in detect.iter_induced_copies(qb, qg):
            if all(a[i] >= b[j] for i, j in enumerate(e.vmap)):
                return True
    return False


# -- C6 domination law -------------------------------------------------------


def check_c6_lemma(g: Graph) -> dict:
    """Audit: a (P6,C4)-free graph with no clique cutset is either a blown-up
    Petersen-plus-universal graph or has every induced C6 dominating.
    """
    free, _, _ = detect.is_free(g, [families.path_graph(6), families.cycle_graph(4)])
    if not free:
        return {"status": NOT_APPLICABLE, "reason": "host is not (P6,C4)-free"}
    if find_clique_cutset(g) is not None:
        return {"status": NOT_APPLICABLE, "reason": "host has a clique cutset"}
    if is_specific(g):
        return {"status": HOLDS, "case": "specific"}
    for emb in detect.find_all_induced_cycles(g, 6):
        if not is_dominating(g, emb.vmap):
            return {"status": VIOLATED, "witness": list(emb.vmap)}
    return {"status": HOLDS, "case": "all-c6-dominating"}


# -- size bounds --------------------------------------------------------------


def check_size_bounds(g: Graph, c: C5Embedding, p: SPartition | None = None, k: int = 3) -> dict:
    """Evaluate the attachment-set size bounds under their hypotheses.

    Base preconditions (re-verified; otherwise everything is
    not-applicable): connected, (P6,C4)-free, K_{k+1}-free host with a
    valid induced C5.  The two-sided bound on s1(i)/s2(i+2) and the
    single-s1 bounds additionally require a C6-free host with no clique
    cutset — the ambient hypotheses of the argument they come from.
    """
    if p is None:
        p = classify(g, c)
    out: dict = {"k": k, "checks": {}}
    free, _, _ = detect.is_free(g, [families.path_graph(6), families.cycle_graph(4)])
    ok_base = (
        g.is_connected() and free and detect.has_clique(g, k + 1) is None
    )
    if not ok_base:
        out["status"] = NOT_APPLICABLE
        out["reason"] = "host must be connected, (P6,C4)-free, and K_{k+1}-free"
        return out
    out["status"] = "evaluated"
    checks = out["checks"]
    checks["s5"] = {
        "bound": k - 2,
        "size": len(p.s[5]),
        "status": HOLDS if len(p.s[5]) <= k - 2 else VIOLATED,
    }
    for i in range(5):
        checks[f"s3({i})"] = {
            "bound": k - 2,
            "size": len(p.s3_at[i]),
            "status": HOLDS if len(p.s3_at[i]) <= k - 2 else VIOLATED,
        }
    deeper = (
        find_clique_cutset(g) is None
        and detect.find_induced_cycle(g, 6) is None
    )
    for i in range(5):
        name = f"anticomplete_pair({i})"
        s1i = p.s1_at[i]
        s2o = p.s2_at[(i + 2) % 5]
        if not deeper:
            checks[name] = {"status": NOT_APPLICABLE, "reason": "needs C6-free host without clique cutset"}
            continue
        if _present_edge(g, s1i, s2o) is not None:
            checks[name] = {"status": NOT_APPLICABLE, "reason": "s1 not anti-complete to s2"}
            continue
        ok = len(s1i) <= k * (k - 2) ** 2 and len(s2o) <= 2 * k * (k - 2)
        checks[name] = {
            "s1_bound": k * (k - 2) ** 2,
            "s1_size": len(s1i),
            "s2_bound": 2 * k * (k - 2),
            "s2_size": len(s2o),
            "status": HOLDS if ok else VIOLATED,
        }
    # Single populated s1(i) meeting s2(i+2), flanking s2 buckets empty.
    name = "single_s1_case"
    if not deeper:
        checks[name] = {"status": NOT_APPLICABLE, "reason": "needs C6-free host without clique cutset"}
    else:
        hit = None
        for i in range(5):
            if p.s1_at[i] and all(not p.s1_at[j] for j in range(5) if j != i):
                if (
                    _present_edge(g, p.s1_at[i], p.s2_at[(i + 2) % 5]) is not None
                    and not p.s2_at[(i + 1) % 5]
                    and not p.s2_at[(i + 3) % 5]
                ):
                    hit = i
                break
        if hit is None:
            checks[name] = {"status": NOT_APPLICABLE, "reason": "case hypotheses not met"}
        else:
            s1b = k**2 + k**3 + k**5
            s2b = k**4 + k**2
            ok = len(p.s1_at[hit]) <= s1b and len(p.s2_at[(hit + 2) % 5]) <= s2b
            checks[name] = {
                "i": hit,
                "s1_bound": s1b,
                "s1_size": len(p.s1_at[hit]),
                "s2_bound": s2b,
                "s2_size": len(p.s2_at[(hit + 2) % 5]),
                "status": HOLDS if ok else VIOLATED,
            }
    out["ok"] = all(
        entry.get("status") != VIOLATED for entry in checks.values()
    )
    return out
