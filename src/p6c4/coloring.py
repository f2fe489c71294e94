"""Exact k-coloring, obstruction minimization, and certified coloring.

The certifying pipeline never guesses: it decomposes along clique cutsets,
colors the atoms exactly, and on failure shrinks the offending atom to a
minimal non-k-colorable induced subgraph and matches it against a finite
obstruction catalog.  A strictly (P6,C4)-free input that fails to match
the catalog is reported as ``uncataloged`` — that outcome would falsify
the finiteness theorems this package is built around, so tests treat it
as a trap.  Vertex subsets (atoms, deletion trials) are host vertex masks.

The exact colorer (:func:`_color_within`) is DSATUR with
conflict-directed backjumping: each frame of its search keeps a conflict
mask, the depths of the frames whose colors caused its failures, and a
frame that runs out of colors jumps straight back to the deepest frame in
its mask.  The frames it skips lie inside a nogood, so they hold no
coloring, and every caller gets the same first coloring, or None, that
the search backtracking one frame at a time would return.  On the
hardness gadgets, whose unsatisfiable clauses fail far below the choices
that caused them, this skips most of the search.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import Graph, bits, mask_of, induced_subgraph
from . import canon, codec, detect, families, structure


@dataclass(frozen=True)
class Coloring:
    """A total proper coloring with palette {1, ..., k}."""

    k: int
    assignment: tuple[int, ...]

    def as_dict(self) -> dict[int, int]:
        return {v: c for v, c in enumerate(self.assignment)}


def verify_coloring(g: Graph, coloring: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """Check properness; returns ``(False, edge)`` with a conflict witness.

    Raises ``ValueError`` for partial assignments or palette overflow.
    """
    if len(coloring.assignment) != g.n:
        raise ValueError("assignment is not total")
    for v, c in enumerate(coloring.assignment):
        if not 1 <= c <= coloring.k:
            raise ValueError(f"vertex {v} has color {c} outside 1..{coloring.k}")
    for u, v in g.edges():
        if coloring.assignment[u] == coloring.assignment[v]:
            return False, (u, v)
    return True, None


def k_color(g: Graph, k: int) -> Coloring | None:
    """An exact k-coloring, or None if there is none (:func:`_color_within`)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    color = _color_within(g, k, g.full_mask())
    return None if color is None else Coloring(k, tuple(color))


def _color_within(g: Graph, k: int, within: int) -> list[int] | None:
    """An exact k-coloring of ``g[within]`` as a list over the vertices of
    ``g`` (0 outside the mask ``within``), or None.

    With k at least the mask's size the colors count up in vertex order.
    Otherwise, branch and bound (DSATUR, Brélaz 1979): next vertex by
    maximum saturation degree, ties by degree inside the mask, then lowest
    index; colors ascending, capped at one above the largest in use
    (symmetry break); a dead end once an uncolored neighbour sees all k
    colors.  One frame per chosen vertex on an explicit stack replaces
    recursion.

    The choice reads buckets instead of scanning the uncolored vertices.
    ``sat[s]`` masks the unchosen vertices that see ``s`` colors and
    ``nsat`` holds each vertex's count; both change only where a color
    is set on, or taken back from, the neighbours it touches.  A vertex
    leaves its bucket when it is chosen and returns when its frame is
    popped; its count cannot change in between, because a color touches
    only uncolored neighbours and the vertices of the frames below the
    top are colored.  ``deg_masks`` groups the vertices of the mask by
    degree inside it, highest first.  The lowest vertex of the first
    degree mask that meets the highest non-empty bucket maximizes
    (saturation, degree) with the lowest index among ties, which is
    exactly the scan's choice.

    Failures jump back over the frames that played no part in them
    (conflict-directed backjumping, Prosser 1993).  Each frame keeps a
    conflict mask of frame depths below its own.  At a dead end, where an
    uncolored neighbour u of the top frame's vertex sees all k colors,
    the top frame's mask gains, for each color, the depth of the
    shallowest colored neighbour of u in that color (the top frame
    itself left out).  When a frame runs out of colors, its mask gains
    the same reasons for its own vertex, for the colors its neighbours
    hold.  An empty mask then means no coloring at all; otherwise every
    frame above the mask's deepest depth d is popped without trying its
    other colors, and the mask, minus d, is merged into frame d.

    Every mask is a nogood.  Write C(M) for the colors that the frames in
    a frame's mask M hold; C(M) with any color already tried or blocked
    on the frame's own vertex extends to no coloring of ``g[within]``.  A
    dead end's reasons leave u no color; a tried color whose subtree
    failed is covered by the mask merged back from above; a color that a
    neighbour holds is covered by that neighbour.  A color above the
    symmetry cap is never tried, but it shares the nogood of the cap
    color, which is: no frame of that nogood holds either color (both lie
    above every color in use below the frame), so swapping the two colors
    turns a coloring with one into a coloring with the other.  So once a
    frame is out of colors, C(M) alone extends to no coloring.  Every
    frame between d and the top, with all the subtrees still untried
    under them, extends C(M) and holds no coloring: the plain search,
    backtracking one frame at a time, would explore them in vain and
    come back to frame d in the same state.  So the search returns the
    plain search's first coloring, or None, and every caller sees the
    same answers.  The reasons are computed only at dead ends and at
    exhausted frames; an ordinary frame pays for the depth of its vertex
    and its mask.
    """
    adj, n = g.adj, g.n
    color = [0] * n
    if k >= within.bit_count():
        for c, v in enumerate(bits(within), 1):
            color[v] = c
        return color
    by_deg: dict[int, int] = {}
    for v in bits(within):
        d = (adj[v] & within).bit_count()
        by_deg[d] = by_deg.get(d, 0) | 1 << v
    deg_masks = [by_deg[d] for d in sorted(by_deg, reverse=True)]
    nbr_used = [0] * n  # bitmask of colors (bit c-1) on colored neighbors
    nsat = [0] * n  # nbr_used[v].bit_count()
    sat = [within] + [0] * k  # sat[k] holds dead vertices until backtracking
    caps = [(1 << min(k, c + 1)) - 1 for c in range(k + 1)]  # caps[used_max]: colors open
    depth = [0] * n  # the frame depth of each chosen vertex
    uncolored = within
    # [vertex, untried colors, used_max before it, touched, conflict mask
    # of depths, or -1 once jumped over]
    frames: list[list] = []
    used_max = 0
    while uncolored:
        s = k - 1
        while not sat[s]:
            s -= 1
        level = sat[s]
        for dm in deg_masks:
            if dm & level:
                break
        vb = dm & level
        vb &= -vb
        v = vb.bit_length() - 1
        sat[s] ^= vb
        depth[v] = len(frames)
        frames.append([v, ~nbr_used[v] & caps[used_max], used_max, (), 0])
        dead = True
        while dead:  # the next color on top of the stack, backjumping as needed
            frame = frames[-1]
            v, avail, base, touched, conflict = frame
            if color[v]:  # take back the color tried last
                cbit = 1 << (color[v] - 1)
                for u in touched:
                    nbr_used[u] ^= cbit
                    s = nsat[u]
                    nsat[u] = s - 1
                    ub = 1 << u
                    sat[s] ^= ub
                    sat[s - 1] |= ub
                color[v] = 0
                uncolored |= 1 << v
            if not avail:  # out of colors, or jumped over
                frames.pop()
                sat[nsat[v]] |= 1 << v
                if conflict < 0:
                    continue
                conflict |= _first_depths(adj[v] & (within ^ uncolored), color, depth)
                if not conflict:
                    return None
                d = conflict.bit_length() - 1
                frames[d][4] |= conflict ^ 1 << d
                for skipped in frames[d + 1 :]:
                    skipped[1] = 0
                    skipped[4] = -1
                continue
            cbit = avail & -avail
            c = color[v] = cbit.bit_length()
            uncolored ^= 1 << v
            touched = []
            dead = False
            rest = adj[v] & uncolored
            while rest:
                ub = rest & -rest
                rest ^= ub
                u = ub.bit_length() - 1
                if not nbr_used[u] & cbit:
                    nbr_used[u] |= cbit
                    s = nsat[u] + 1
                    nsat[u] = s
                    sat[s - 1] ^= ub
                    sat[s] |= ub
                    touched.append(u)
                    if s == k:  # a dead end: later neighbours stay untouched
                        dead = True
                        colored = within ^ uncolored ^ 1 << v
                        frame[4] = conflict | _first_depths(adj[u] & colored, color, depth)
                        break
            frame[1], frame[3] = avail ^ cbit, touched
            used_max = c if c > base else base
    return color


def _first_depths(vs: int, color: list[int], depth: list[int]) -> int:
    """A mask of frame depths: for each color on the vertices of ``vs``,
    the depth of the shallowest one in that color."""
    by_color: dict[int, int] = {}
    for w in bits(vs):
        by_color[color[w]] = by_color.get(color[w], 0) | 1 << depth[w]
    out = 0
    for m in by_color.values():
        out |= m & -m
    return out


def chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    k = 1
    while k_color(g, k) is None:
        k += 1
    return k


def minimize_obstruction(g: Graph, k: int) -> tuple[Graph, tuple[int, ...]]:
    """Shrink a non-k-colorable graph to a minimal one by greedy deletion.

    Deletion attempts run in ascending vertex index; a deletion is kept iff
    the remainder stays non-k-colorable.  One pass suffices: colorability
    is monotone under taking induced subgraphs.  A vertex of degree below
    k in the remainder is deleted without a search: it extends any
    k-coloring of the rest, so the search would delete it too.  Returns
    the minimal graph and the surviving vertices of ``g``.
    """
    if k_color(g, k) is not None:
        raise ValueError("graph is k-colorable; nothing to minimize")
    adj, alive = g.adj, g.full_mask()
    for v in range(g.n):
        rest = alive & ~(1 << v)
        if (adj[v] & rest).bit_count() < k or _color_within(g, k, rest) is None:
            alive = rest
    return induced_subgraph(g, bits(alive))


# -- obstruction catalogs ----------------------------------------------------


@dataclass(frozen=True)
class ObstructionEntry:
    """One minimal non-k-colorable graph with provenance and audit flags."""

    id: str
    k: int
    graph: Graph
    provenance: str  # "paper-fixed" or "enumeration-derived"
    verified: dict = field(default_factory=dict)


class NotP6C4FreeError(ValueError):
    """Strict-mode refusal: the input contains an induced P6 or C4."""

    def __init__(self, pattern_name: str, embedding: detect.Embedding):
        super().__init__(f"input is not (P6,C4)-free: induced {pattern_name} found")
        self.pattern_name = pattern_name
        self.embedding = embedding


ENV_CATALOG_DIR = "P6C4_CATALOG_DIR"


def default_catalog_path(k: int) -> Path:
    base = os.environ.get(ENV_CATALOG_DIR)
    root = Path(base) if base else Path(__file__).parent / "data"
    return root / f"catalog_k{k}.g6"


def catalog_save(entries: list[ObstructionEntry], path: str | Path, n_max: int | None = None) -> None:
    """Write graph6 lines plus a JSON manifest sidecar (<path>.json)."""
    manifest = {
        "k": entries[0].k if entries else None,
        "n_max_searched": n_max,
        "entries": [manifest_entry(e) for e in entries],
    }
    codec.write_with_manifest(path, [codec.to_graph6(e.graph) for e in entries], manifest)


def manifest_entry(e: ObstructionEntry) -> dict:
    """The manifest record of one entry, shared by catalogs and ``enumerate``."""
    return {
        "id": e.id,
        "k": e.k,
        "n": e.graph.n,
        "line": codec.to_graph6(e.graph),
        "provenance": e.provenance,
        "verified": e.verified,
    }


# Checked with ``type(...) is``, so a bool ``k`` is refused too.
_ENTRY_FIELDS = {"id": str, "k": int, "provenance": str}


def catalog_load(path: str | Path) -> list[ObstructionEntry]:
    """Read a catalog and its manifest sidecar, if there is one.

    Each manifest entry needs a string ``id``, an integer ``k``, a string
    ``provenance`` and, if it has one, an object ``verified``; anything
    else raises ``ValueError``.  Each entry must match its graph6 line: the
    counts must agree, and an entry's ``line`` field, where present, must
    equal the line, so a graph6 file replaced without its manifest is
    rejected rather than paired with the wrong ids.
    """
    path = Path(path)
    lines = codec.graph6_lines(path.read_text())
    graphs = [codec.from_graph6(line) for line in lines]
    manifest_path = path.with_suffix(".json")
    if not manifest_path.exists():
        return [ObstructionEntry(f"entry_{i}", -1, h, "unknown") for i, h in enumerate(graphs)]
    manifest = json.loads(manifest_path.read_text())
    metas = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(metas, list) or not all(
        isinstance(m, dict)
        and all(type(m.get(name)) is kind for name, kind in _ENTRY_FIELDS.items())
        and isinstance(m.get("verified", {}), dict)
        for m in metas
    ):
        raise ValueError(
            'catalog manifest needs an "entries" list of objects with a string id, '
            "an integer k, a string provenance and, if present, an object verified"
        )
    if len(metas) != len(graphs) or any(
        m.get("line", line) != line for m, line in zip(metas, lines)
    ):
        raise ValueError("catalog manifest does not match graph6 lines")
    return [
        ObstructionEntry(m["id"], m["k"], h, m["provenance"], m.get("verified", {}))
        for m, h in zip(metas, graphs)
    ]


def catalog_lookup(entries: list[ObstructionEntry], g: Graph) -> str | None:
    code = canon.canonical_code(g)
    for e in entries:
        if canon.canonical_code(e.graph) == code:
            return e.id
    return None


def catalog_verify(entries: list[ObstructionEntry], k: int) -> dict:
    """Re-prove every catalog invariant from scratch.

    Each member must be connected, (P6,C4)-free, non-k-colorable, minimal,
    of minimum degree >= k, without clique cutset; codes pairwise distinct.
    """
    report: dict = {"k": k, "entries": [], "ok": True}
    codes = set()
    for e in entries:
        g = e.graph
        free, _, _ = detect.is_free(g, families.P6C4)
        checks = {
            "connected": g.is_connected(),
            "p6c4_free": free,
            "non_k_colorable": k_color(g, k) is None,
            "minimal": _deletions_colorable(g, k),
            "min_degree_ge_k": g.n > 0 and g.min_degree() >= k,
            "no_clique_cutset": structure.find_clique_cutset(g) is None,
        }
        code = canon.canonical_code(g)
        checks["code_distinct"] = code not in codes
        codes.add(code)
        ok = all(checks.values())
        report["entries"].append({"id": e.id, "n": g.n, "checks": checks, "ok": ok})
        report["ok"] &= ok
    return report


def _deletions_colorable(g: Graph, k: int) -> bool:
    full = g.full_mask()
    return all(_color_within(g, k, full & ~(1 << v)) is not None for v in range(g.n))


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Outcome of :func:`certify_color`.

    ``colored``      — ``coloring`` is a proper k-coloring.
    ``obstructed``   — ``obstruction_id`` names a catalog entry and
                       ``obstruction_vertices[i]`` is the host image of its
                       vertex ``i`` (an induced embedding).
    ``uncataloged``  — a minimal non-k-colorable induced subgraph matched
                       no catalog entry; its host vertices are reported.
    """

    result: str
    k: int
    coloring: Coloring | None = None
    obstruction_id: str | None = None
    obstruction_vertices: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        out: dict = {"result": self.result, "k": self.k}
        if self.coloring is not None:
            out["coloring"] = {str(v): c for v, c in self.coloring.as_dict().items()}
        if self.result in ("obstructed", "uncataloged"):
            out["obstruction"] = {
                "id": self.obstruction_id,
                "vertices": list(self.obstruction_vertices or ()),
            }
        return out


def certify_color(
    g: Graph,
    k: int,
    catalog: list[ObstructionEntry] | None = None,
    strict: bool = True,
) -> Certificate:
    """Certified k-coloring for k in {3, 4} against an obstruction catalog."""
    if k not in (3, 4):
        raise ValueError("certified coloring supports k = 3 and k = 4 only")
    if strict:
        free, idx, emb = detect.is_free(g, families.P6C4)
        if not free:
            raise NotP6C4FreeError(("P6", "C4")[idx], emb)
    if catalog is None:
        catalog = catalog_load(default_catalog_path(k))

    tree = structure.decompose(g)
    outcome = _color_tree(g, tree, k)
    if isinstance(outcome, tuple):  # failing atom: its host vertex set
        sub, vmap = induced_subgraph(g, outcome)
        small, svmap = minimize_obstruction(sub, k)
        host = tuple(vmap[i] for i in svmap)
        for entry in catalog:
            f = canon.isomorphism_map(entry.graph, small)
            if f is not None:
                return Certificate(
                    "obstructed",
                    k,
                    obstruction_id=entry.id,
                    obstruction_vertices=tuple(host[f[i]] for i in range(entry.graph.n)),
                )
        return Certificate("uncataloged", k, obstruction_vertices=host)

    coloring = Coloring(k, tuple(outcome[v] for v in range(g.n)))
    ok, conflict = verify_coloring(g, coloring) if g.n else (True, None)
    assert ok, f"merge produced a conflict at {conflict}"
    return Certificate("colored", k, coloring=coloring)


def _color_tree(g: Graph, tree, k: int) -> dict[int, int] | tuple[int, ...]:
    """Color a cutset-tree bottom-up, permuting child palettes to agree on cuts.

    Returns the merged assignment, or the vertex tuple of the first atom
    that is not k-colorable.  The tree is walked with an explicit stack of
    ``[node, merged children, next child]`` frames, so a deep tree needs
    no recursion.
    """
    stack: list[list] = [[tree, {}, 0]]
    while True:
        frame = stack[-1]
        node, part, i = frame
        if i < len(node.children):
            frame[2] = i + 1
            stack.append([node.children[i], {}, 0])
            continue
        if not node.children:
            col = _color_within(g, k, mask_of(node.vertices))
            if col is None:
                return node.vertices
            part = {v: col[v] for v in node.vertices}
        stack.pop()
        if not stack:
            return part
        parent, result = stack[-1][:2]
        if not result:
            result.update(part)
            continue
        perm = {part[v]: result[v] for v in parent.cutset or ()}
        unused = [c for c in range(1, k + 1) if c not in perm.values()]
        perm.update(zip([c for c in range(1, k + 1) if c not in perm], unused))
        for v, c in part.items():
            if v in result:
                assert result[v] == perm[c], "children disagree on the cutset"
            else:
                result[v] = perm[c]
