"""Exact k-coloring, obstruction minimization, and certified coloring.

The certifying pipeline never guesses: it decomposes along clique cutsets,
colors the atoms exactly, and on failure shrinks the offending atom to a
minimal non-k-colorable induced subgraph and matches it against a finite
obstruction catalog.  A strictly (P6,C4)-free input that fails to match
the catalog is reported as ``uncataloged`` — that outcome would falsify
the finiteness theorems this package is built around, so tests treat it
as a trap.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .graphs import Graph, bits, mask_of, induced_subgraph
from . import canon, codec, detect, families


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
    """An exact k-coloring, or None if no proper k-coloring exists.

    Branch and bound: next vertex by maximum saturation degree, ties by
    degree then lowest index; candidate colors ascending, capped at one
    more than the number of colors already used (symmetry break).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if n == 0:
        return Coloring(k, ())
    if k >= n:
        return Coloring(k, tuple(range(1, n + 1)))
    adj = g.adj
    degs = [g.degree(v) for v in range(n)]
    color = [0] * n
    nbr_used = [0] * n  # bitmask of colors (bit c-1) on colored neighbors
    full_k = (1 << k) - 1

    def pick() -> int:
        best, best_key = -1, None
        for v in range(n):
            if color[v]:
                continue
            key = (-nbr_used[v].bit_count(), -degs[v], v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def rec(done: int, used_max: int) -> bool:
        if done == n:
            return True
        v = pick()
        avail = ~nbr_used[v] & ((1 << min(k, used_max + 1)) - 1)
        while avail:
            cbit = avail & -avail
            avail ^= cbit
            c = cbit.bit_length()
            color[v] = c
            touched = []
            dead = False
            for u in bits(adj[v]):
                if not color[u] and not nbr_used[u] & cbit:
                    nbr_used[u] |= cbit
                    touched.append(u)
                    if nbr_used[u] == full_k:
                        dead = True
            if not dead and rec(done + 1, max(used_max, c)):
                return True
            color[v] = 0
            for u in touched:
                nbr_used[u] &= ~cbit
        return False

    if rec(0, 0):
        return Coloring(k, tuple(color))
    return None


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
    is monotone under taking induced subgraphs.  Returns the minimal graph
    and the surviving vertices of ``g``.
    """
    if k_color(g, k) is not None:
        raise ValueError("graph is k-colorable; nothing to minimize")
    alive = set(range(g.n))
    for v in range(g.n):
        trial = alive - {v}
        sub, _ = induced_subgraph(g, trial)
        if k_color(sub, k) is None:
            alive = trial
    return induced_subgraph(g, alive)


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
    path = Path(path)
    lines = [codec.to_graph6(e.graph) for e in entries]
    path.write_text("".join(line + "\n" for line in lines))
    manifest = {
        "k": entries[0].k if entries else None,
        "n_max_searched": n_max,
        "entries": [manifest_entry(e) for e in entries],
    }
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=2) + "\n")


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


def catalog_load(path: str | Path) -> list[ObstructionEntry]:
    path = Path(path)
    graphs = codec.read_graph6_lines(path.read_text())
    manifest_path = path.with_suffix(".json")
    metas = None
    if manifest_path.exists():
        metas = json.loads(manifest_path.read_text())["entries"]
        if len(metas) != len(graphs):
            raise ValueError("catalog manifest does not match graph6 lines")
    entries = []
    for i, graph in enumerate(graphs):
        if metas is not None:
            m = metas[i]
            entries.append(
                ObstructionEntry(m["id"], m["k"], graph, m["provenance"], m.get("verified", {}))
            )
        else:
            entries.append(ObstructionEntry(f"entry_{i}", -1, graph, "unknown"))
    return entries


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
    from . import structure  # local import; structure depends on coloring-free parts

    report: dict = {"k": k, "entries": [], "ok": True}
    codes = set()
    for e in entries:
        g = e.graph
        free, _, _ = detect.is_free(g, [families.path_graph(6), families.cycle_graph(4)])
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
    for v in range(g.n):
        sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
        if k_color(sub, k) is None:
            return False
    return True


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
    from . import structure

    if k not in (3, 4):
        raise ValueError("certified coloring supports k = 3 and k = 4 only")
    if strict:
        free, idx, emb = detect.is_free(
            g, [families.path_graph(6), families.cycle_graph(4)]
        )
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
            sub, vmap = induced_subgraph(g, node.vertices)
            col = k_color(sub, k)
            if col is None:
                return node.vertices
            part = {vmap[u]: col.assignment[u] for u in range(sub.n)}
        stack.pop()
        if not stack:
            return part
        parent, result = stack[-1][:2]
        if not result:
            result.update(part)
            continue
        perm = {part[v]: result[v] for v in parent.cutset or ()}
        free_targets = [c for c in range(1, k + 1) if c not in perm.values()]
        for c in range(1, k + 1):
            if c not in perm:
                perm[c] = free_targets.pop(0)
        for v, c in part.items():
            if v in result:
                assert result[v] == perm[c], "children disagree on the cutset"
            else:
                result[v] = perm[c]
