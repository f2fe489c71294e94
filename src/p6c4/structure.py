"""Structure around induced five-cycles, clique cutsets, and decomposition.

Vertices outside a fixed induced C5 are classified by how many ring
vertices they see; the refined buckets (attachment sets, kept as vertex
masks like every other vertex set in the package) drive a family of
adjacency laws that hold in every connected (P6,C4)-free graph.  Each law
is evaluated as a predicate with a replayable witness on violation, so the
checker doubles as an audit tool on graphs *outside* the class.

Clique cutsets come from one MCS-M minimal triangulation per component:
the minimal separators of a minimal triangulation that are cliques in the
graph are exactly its clique minimal separators, and MCS-M lists at most
n - 1 of them.  Those of the whole input also serve every piece of its
decomposition tree, so no piece is triangulated again.
``minimal_separators`` enumerates every minimal separator, which can take
exponential time; it is kept as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits, mask_of, induced_subgraph
from . import detect, families


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

    Every bucket is a vertex mask (bit v set iff v is in it).  ``s[p]``
    holds the vertices with exactly p ring neighbors.  ``s1_at[i]`` refines
    s[1] by the neighbor ``v_i``; ``s2_at[i]`` holds vertices whose two
    ring neighbors are the consecutive pair ``v_i, v_{i+1}``; ``s3_at[i]``
    holds vertices seeing exactly ``v_{i-1}, v_i, v_{i+1}``.  In a C4-free
    host every s[2] / s[3] vertex lands in such a bucket; on arbitrary
    graphs the buckets may undercover (the count partition ``s`` itself is
    always total).
    """

    ring: tuple[int, ...]
    s: tuple[int, ...]  # index 0..5 by ring-neighbor count
    s1_at: tuple[int, ...]
    s2_at: tuple[int, ...]
    s3_at: tuple[int, ...]


# (size, i) of the refined bucket for each 5-bit mask of ring positions:
# {i}, the consecutive pair {i, i+1} and the consecutive triple
# {i-1, i, i+1}.  The other masks have no refined bucket.
_BUCKET = {
    sum(1 << (i + d) % 5 for d in run): (len(run), i)
    for i in range(5)
    for run in ((0,), (0, 1), (-1, 0, 1))
}


def classify(g: Graph, c: C5Embedding) -> SPartition:
    """The S-partition of ``g`` around ``c``, every bucket a vertex mask.

    Each vertex off the ring gets the 5-bit mask of the ring positions it
    sees; its bit count picks its ``s`` bucket and :data:`_BUCKET` its
    refined one, if any.
    """
    c.validate(g)
    ring = c.ring
    s = [0] * 6
    at = [None, [0] * 5, [0] * 5, [0] * 5]  # at[size][i]: s1_at, s2_at, s3_at
    for v in bits(g.full_mask() & ~mask_of(ring)):
        row = g.adj[v]
        seen = sum(1 << i for i, r in enumerate(ring) if row >> r & 1)
        s[seen.bit_count()] |= 1 << v
        if seen in _BUCKET:
            size, i = _BUCKET[seen]
            at[size][i] |= 1 << v
    return SPartition(ring, tuple(s), tuple(at[1]), tuple(at[2]), tuple(at[3]))


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


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _missing_edge(g: Graph, a: int, b: int):
    """A non-adjacent pair (x, y) with x in mask a, y in mask b (x != y):
    the lowest x that has one, with its lowest y; None if there is none."""
    for x in bits(a):
        miss = b & ~g.adj[x] & ~(1 << x)
        if miss:
            return x, _lowest(miss)
    return None


def _present_edge(g: Graph, a: int, b: int):
    """An adjacent pair (x, y) with x in mask a, y in mask b: the lowest x
    that has one, with its lowest y; None if there is none."""
    for x in bits(a):
        hit = b & g.adj[x]
        if hit:
            return x, _lowest(hit)
    return None


def _clique_defect(g: Graph, a: int):
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
    out["P0"] = _first_violation(
        [_clique_defect(g, p.s[5])],
        [(_lowest(p.s[4]),)] if p.s[4] else [],
        (_clique_defect(g, m) for m in s3),
    )

    # P1: s1(i) complete to s1(i+2), anti-complete to s1(i+1);
    #     if s1(i) and s1(i+2) both nonempty, both are cliques.
    out["P1"] = _first_violation(
        (_missing_edge(g, s1[i], s1[(i + 2) % 5]) for i in range(5)),
        (_present_edge(g, s1[i], s1[(i + 1) % 5]) for i in range(5)),
        (
            _clique_defect(g, s1[i]) or _clique_defect(g, s1[(i + 2) % 5])
            for i in range(5)
            if s1[i] and s1[(i + 2) % 5]
        ),
    )

    # P2: s2(i) complete to s2(i+1), anti-complete to s2(i+2);
    #     if s2(i) and s2(i+1) both nonempty, both are cliques.
    out["P2"] = _first_violation(
        (_missing_edge(g, s2[i], s2[(i + 1) % 5]) for i in range(5)),
        (_present_edge(g, s2[i], s2[(i + 2) % 5]) for i in range(5)),
        (
            _clique_defect(g, s2[i]) or _clique_defect(g, s2[(i + 1) % 5])
            for i in range(5)
            if s2[i] and s2[(i + 1) % 5]
        ),
    )

    # P3: s3(i) anti-complete to s3(i+2).
    out["P3"] = _first_violation(
        _present_edge(g, s3[i], s3[(i + 2) % 5]) for i in range(5)
    )

    # P4: s1(i) anti-complete to s2(j) unless j == i+2; a vertex of s2(i+2)
    #     with a neighbor in s1(i) is universal inside s2(i+2).
    def touching(a: int, b: int) -> int:
        """The vertices of mask a with a neighbor in mask b."""
        return mask_of(x for x in bits(a) if g.adj[x] & b)

    out["P4"] = _first_violation(
        (
            _present_edge(g, s1[i], s2[j])
            for i in range(5)
            for j in range(5)
            if j != (i + 2) % 5
        ),
        (
            _missing_edge(g, touching(s2[(i + 2) % 5], s1[i]), s2[(i + 2) % 5])
            for i in range(5)
        ),
    )

    # P5: s1(i) anti-complete to s3(i+2).
    out["P5"] = _first_violation(
        _present_edge(g, s1[i], s3[(i + 2) % 5]) for i in range(5)
    )

    # P6: s2(i+2) anti-complete to s3(i).
    out["P6"] = _first_violation(
        _present_edge(g, s2[(i + 2) % 5], s3[i]) for i in range(5)
    )

    # P7: one of s1(i), s2(i+3) is empty, and one of s1(i), s2(i+1) is empty.
    out["P7"] = _first_violation(
        (_lowest(s1[i]), _lowest(s2[j]))
        for i in range(5)
        for j in ((i + 3) % 5, (i + 1) % 5)
        if s1[i] and s2[j]
    )

    # P8: one of s2(i-1), s2(i), s2(i+2) is empty.
    trios = ((s2[(i - 1) % 5], s2[i], s2[(i + 2) % 5]) for i in range(5))
    out["P8"] = _first_violation(
        tuple(_lowest(t) for t in trio) for trio in trios if all(trio)
    )

    # P9: s1(i-1) and s1(i+1) nonempty => s2 empty;
    #     s1(i) and s1(i+1) nonempty => s2 == s2(i).
    def p9(i):
        if s1[(i - 1) % 5] and s1[(i + 1) % 5] and p.s[2]:
            return (_lowest(s1[(i - 1) % 5]), _lowest(s1[(i + 1) % 5]), _lowest(p.s[2]))
        if s1[i] and s1[(i + 1) % 5]:
            stray = p.s[2] & ~s2[i]
            if stray:
                return (_lowest(s1[i]), _lowest(s1[(i + 1) % 5]), _lowest(stray))
        return None

    out["P9"] = _first_violation(p9(i) for i in range(5))

    # P10: for x in s3(i), if s2(i+1) and s2(i+3) are both nonempty then x is
    #      complete or anti-complete to their union; complete forces both
    #      cliques; if s2(i+2) is nonempty too, x must be anti-complete.
    def p10(i):
        a, b = s2[(i + 1) % 5], s2[(i + 3) % 5]
        if not (a and b):
            return None
        union = a | b
        for x in bits(s3[i]):
            nbrs = union & g.adj[x]
            if not nbrs:
                continue
            if nbrs != union:
                return (x, _lowest(nbrs), _lowest(union & ~nbrs))
            if s2[(i + 2) % 5]:
                return (x, _lowest(nbrs), _lowest(s2[(i + 2) % 5]))
            defect = _clique_defect(g, a) or _clique_defect(g, b)
            if defect:
                return (x,) + defect
        return None

    out["P10"] = _first_violation(p10(i) for i in range(5))

    # P11: s1(i) not anti-complete to s2(i+2) => s1 == s1(i).
    def p11(i):
        hit = _present_edge(g, s1[i], s2[(i + 2) % 5])
        stray = p.s[1] & ~s1[i]
        if hit is not None and stray:
            return hit + (_lowest(stray),)
        return None

    out["P11"] = _first_violation(p11(i) for i in range(5))

    # P12 (host without clique cutset): s1(i) complete to s3(i).
    if find_clique_cutset(g) is None:
        out["P12"] = _first_violation(
            _missing_edge(g, s1[i], s3[i]) for i in range(5)
        )
    else:
        out["P12"] = Verdict(NOT_APPLICABLE, detail="host has a clique cutset")

    # O5 laws require a W5-free host.
    if detect.find_induced_copy(g, families.wheel_graph(5)) is None:
        def o53(i):
            pool = s3[(i - 1) % 5] | s3[(i + 1) % 5]
            if not pool:
                return None
            for pvx in bits(s1[i]):
                for q in bits(s2[(i + 2) % 5] & g.adj[pvx]):
                    near = pool & (g.adj[pvx] | g.adj[q])
                    if near:
                        x = _lowest(near)
                        return (x, pvx) if g.adj[x] >> pvx & 1 else (x, q)
            return None

        out["O5.1"] = _first_violation(
            _present_edge(g, s3[i], s1[(i - 1) % 5])
            or _present_edge(g, s3[i], s1[(i + 1) % 5])
            for i in range(5)
            if s1[(i - 1) % 5] and s1[(i + 1) % 5]
        )
        out["O5.2"] = _first_violation(
            _missing_edge(g, s3[i], s2[(i - 1) % 5]) or _missing_edge(g, s3[i], s2[i])
            for i in range(5)
            if s2[(i - 1) % 5] and s2[i]
        )
        out["O5.3"] = _first_violation(o53(i) for i in range(5))
    else:
        na = Verdict(NOT_APPLICABLE, detail="host contains W5")
        out["O5.1"] = out["O5.2"] = out["O5.3"] = na
    return out


def _first_violation(*groups) -> Verdict:
    """The first witness that is not None, taking the groups in order.

    The groups are mostly generator expressions over the bucket masks, so
    checking stops at the first witness and computes no later one.
    """
    for group in groups:
        for w in group:
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


def mcs_m_separators(g: Graph, within: int) -> list[int]:
    """The minimal separators of an MCS-M minimal triangulation of
    ``g[within]``, which must be connected, as host vertex masks.

    MCS-M (Berry, Blair, Heggernes & Peyton, Algorithmica 39 (2004))
    numbers the m vertices of the mask from m down to 1, each time taking
    the lowest unnumbered vertex of largest label.  Every unnumbered
    vertex y reachable from it through unnumbered vertices of labels
    below y's gets its label raised and the chosen vertex added to
    ``madj[y]``; those additions are the edges of the triangulation H.  A
    vertex chosen with a label no larger than the previous pick's is a
    generator, and the ``madj`` sets of the generators are exactly the
    minimal separators of H (Berry, Pogorelcnik & Simonet, Algorithms 3
    (2010)).  Returns them as vertex masks, at most m - 1 of them, in the
    order found; a separator may repeat.

    Those that are cliques in ``g`` are exactly the clique minimal
    separators of ``g[within]``, and they serve every piece of the
    :func:`decompose` tree inside it too: a piece's clique minimal
    separators are the host's that still separate it, so one pass per
    component of the input is enough (:func:`_clique_separators`).
    """
    adj = g.adj
    n = g.n
    label = [0] * n
    buckets = [0] * (n + 1)  # buckets[l]: unnumbered vertices of label l
    buckets[0] = unnumbered = within
    madj = [0] * n
    top = 0
    prev = -1
    seps: list[int] = []
    for _ in range(within.bit_count()):
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

    Returns ``(cutset, side, rest)`` as frozensets, or None.  The cutset is
    the first entry of :func:`_clique_separators`: the first clique minimal
    separator in (size, sorted vertices) order, or the empty clique for a
    disconnected graph.  ``side`` is the component of ``g - cutset``
    holding its lowest vertex.  This is also the cutset :func:`decompose`
    puts at the root of its tree, and each piece's cutset there is the one
    this function would find on the subgraph the piece induces, though
    :func:`decompose` never builds that subgraph.  The answer is memoized
    in ``g._cutset``.
    """
    memo = g._cutset
    if memo is False:
        memo = g._cutset = _clique_cutset(g)
    return memo


def _clique_cutset(g: Graph):
    seps = _clique_separators(g)
    if not seps:
        return None
    remaining = g.full_mask() & ~seps[0]
    comp = g.component_mask(_lowest(remaining), remaining)
    return frozenset(bits(seps[0])), frozenset(bits(comp)), frozenset(bits(remaining & ~comp))


def _clique_separators(g: Graph) -> list[int]:
    """The clique minimal separators of ``g`` as vertex masks, in (size,
    sorted vertices) order, led by the empty clique if ``g`` is disconnected.

    The minimal separators of any minimal triangulation that are cliques
    in the graph are exactly its clique minimal separators (Berry,
    Pogorelcnik & Simonet 2010), so one MCS-M pass per component
    (:func:`mcs_m_separators`) yields them all, whatever its tie-breaks,
    without enumerating the minimal separators of ``g`` itself.
    """
    found = set()
    rest = g.full_mask()
    while rest:
        comp = g.component_mask(_lowest(rest), rest)
        found.update(mcs_m_separators(g, comp))
        rest &= ~comp
        if rest:  # a second component: the empty clique separates
            found.add(0)
    return sorted(filter(g.is_clique, found), key=lambda m: (m.bit_count(), list(bits(m))))


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

    Each piece P is split along the first clique minimal separator of
    ``g[P]`` in (size, sorted vertices) order (:func:`find_clique_cutset`
    of ``g[P]``); its children are the components of P minus the cutset,
    each with the cutset added back, in order of their lowest vertex.

    No piece gets its own triangulation.  Every component of g - P
    attaches to P through a clique, so the clique minimal separators of
    ``g[P]`` are exactly those T of ``g`` (:func:`_clique_separators`,
    one MCS-M pass per component) with T inside P and at least two
    components of P - T whose neighbourhoods contain T; :func:`_split`
    tests that with vertex-mask floods.  So a candidate that fails at P
    fails in every piece below P, and P's cutset does not separate any of
    its children: a child scans only the candidates after its parent's
    cutset.  (The first candidate of that scan that lies inside P always
    separates P, so the floods that test it are the ones that split P.)
    The pieces are walked with an explicit stack, so a deep tree (a long
    path has depth n - 2) needs no recursion.
    """
    seps = _clique_separators(g)
    # A frame per unfinished piece: (piece, cutset index, components, children).
    stack = [(g.full_mask(), *_split(g, seps, g.full_mask(), 0), [])]
    while True:
        piece, at, comps, done = stack[-1]
        if len(done) < len(comps):
            child = comps[len(done)] | seps[at]
            stack.append((child, *_split(g, seps, child, at + 1), []))
            continue
        cut = tuple([v for v in bits(seps[at])]) if comps else None
        node = CutsetNode(tuple([v for v in bits(piece)]), cut, tuple(done))
        stack.pop()
        if not stack:
            return node
        stack[-1][3].append(node)


def _split(g: Graph, seps: list[int], piece: int, start: int):
    """The index of the first candidate in ``seps[start:]`` that is a
    clique minimal separator of ``g[piece]``, with the components of the
    piece without it; ``(None, ())`` for an atom."""
    for i in range(start, len(seps)):
        cut = seps[i]
        if cut & ~piece:
            continue
        comps, rest = [], piece & ~cut
        while rest:
            comps.append(g.component_mask(_lowest(rest), rest))
            rest &= ~comps[-1]
        if sum(all(g.adj[t] & c for t in bits(cut)) for c in comps) > 1:
            return i, comps
    return None, ()


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


def _twin_quotient(g: Graph) -> Graph:
    """Quotient by true-twin classes (N[u] == N[v]), one vertex per class,
    by descending degree in the quotient and then by the classes' least
    vertices.  A pattern placed high degree first meets its constraints
    early, so a search for it in the base backtracks less."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    reps: list[int] = []
    for v in range(g.n):
        if all(closed[v] != closed[r] for r in reps):
            reps.append(v)
    sub, _ = induced_subgraph(g, reps)
    perm = [0] * sub.n
    for i, v in enumerate(sorted(range(sub.n), key=lambda v: -sub.degree(v))):
        perm[v] = i
    return sub.relabel(tuple(perm))


def is_specific(g: Graph) -> bool:
    """Is ``g`` a clique blow-up of the Petersen-plus-universal base?

    Each base vertex is replaced by a clique (possibly empty); substituted
    cliques are joined completely iff the base vertices are adjacent.
    ``g`` is such a blow-up iff its true-twin quotient ``Q`` is an induced
    subgraph of the base, so one induced-copy search decides it.

    If ``g`` blows up the base with the vertices of K kept (non-empty
    cliques), two vertices of ``g`` are true twins iff their base vertices
    are equal or true twins in ``base[K]``: the twin classes of ``g`` are
    unions of the cliques of base vertices that are twins in the part of
    the base that was kept.  So ``Q`` is the twin quotient of ``base[K]``,
    and keeping one base vertex per twin class embeds it in ``base[K]`` as
    an induced subgraph, hence in the base.  Conversely, a twin class is a
    clique, and two classes are joined completely or not at all, so ``g``
    is ``Q`` with each vertex blown up to its class; given an induced copy
    of ``Q`` in the base, blowing each image vertex up to its class and
    every other base vertex to the empty clique gives a copy of ``g``.
    """
    copy = detect.find_induced_copy(families.specific_base(), _twin_quotient(g))
    return copy is not None


# -- C6 domination law -------------------------------------------------------


def check_c6_lemma(g: Graph) -> dict:
    """Audit: a (P6,C4)-free graph with no clique cutset is either a blown-up
    Petersen-plus-universal graph or has every induced C6 dominating.
    """
    free, _, _ = detect.is_free(g, families.P6C4)
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
    cutset — the ambient hypotheses of the argument they come from.  The
    pattern searches behind these hypotheses go through
    :func:`detect.find_induced_copy`, memoized on the host, so each runs
    once per host and k however many rings are checked.
    """
    if p is None:
        p = classify(g, c)
    out: dict = {"k": k, "checks": {}}
    free, _, _ = detect.is_free(g, families.P6C4)
    clique = families.complete_graph(k + 1)
    ok_base = g.is_connected() and free and detect.find_induced_copy(g, clique) is None
    if not ok_base:
        out["status"] = NOT_APPLICABLE
        out["reason"] = "host must be connected, (P6,C4)-free, and K_{k+1}-free"
        return out
    out["status"] = "evaluated"
    checks = out["checks"]
    for name, m in [("s5", p.s[5])] + [(f"s3({i})", p.s3_at[i]) for i in range(5)]:
        size = m.bit_count()
        checks[name] = {
            "bound": k - 2,
            "size": size,
            "status": HOLDS if size <= k - 2 else VIOLATED,
        }
    deeper = (
        find_clique_cutset(g) is None
        and detect.find_induced_copy(g, families.cycle_graph(6)) is None
    )
    shallow = "needs C6-free host without clique cutset"
    for i in range(5):
        s1i, s2o = p.s1_at[i], p.s2_at[(i + 2) % 5]
        if not deeper:
            chk = {"status": NOT_APPLICABLE, "reason": shallow}
        elif _present_edge(g, s1i, s2o) is not None:
            chk = {"status": NOT_APPLICABLE, "reason": "s1 not anti-complete to s2"}
        else:
            chk = _pair_bounds(s1i, s2o, k * (k - 2) ** 2, 2 * k * (k - 2))
        checks[f"anticomplete_pair({i})"] = chk
    # Single populated s1(i) meeting s2(i+2), flanking s2 buckets empty.
    live = [i for i in range(5) if p.s1_at[i]]
    hit = live[0] if len(live) == 1 else None
    if not deeper:
        chk = {"status": NOT_APPLICABLE, "reason": shallow}
    elif (
        hit is None
        or p.s2_at[(hit + 1) % 5] | p.s2_at[(hit + 3) % 5]
        or _present_edge(g, p.s1_at[hit], p.s2_at[(hit + 2) % 5]) is None
    ):
        chk = {"status": NOT_APPLICABLE, "reason": "case hypotheses not met"}
    else:
        bounds = _pair_bounds(p.s1_at[hit], p.s2_at[(hit + 2) % 5], k**2 + k**3 + k**5, k**4 + k**2)
        chk = {"i": hit, **bounds}
    checks["single_s1_case"] = chk
    out["ok"] = all(
        entry.get("status") != VIOLATED for entry in checks.values()
    )
    return out


def _pair_bounds(s1: int, s2: int, s1_bound: int, s2_bound: int) -> dict:
    """Size check of an s1 bucket and an s2 bucket against their bounds."""
    s1_size, s2_size = s1.bit_count(), s2.bit_count()
    return {
        "s1_bound": s1_bound,
        "s1_size": s1_size,
        "s2_bound": s2_bound,
        "s2_size": s2_size,
        "status": HOLDS if s1_size <= s1_bound and s2_size <= s2_bound else VIOLATED,
    }
