"""Named graph constructors and the pattern registry used across the toolkit."""

from __future__ import annotations

from .graphs import Graph
from . import codec


def path_graph(t: int) -> Graph:
    """The path P_t on t vertices (0-1-...-(t-1))."""
    if t < 1:
        raise ValueError("paths need at least one vertex")
    return Graph.from_edges(t, [(i, i + 1) for i in range(t - 1)])


def cycle_graph(l: int) -> Graph:
    """The cycle C_l, l >= 3."""
    if l < 3:
        raise ValueError("cycles need at least three vertices")
    return Graph.from_edges(l, [(i, (i + 1) % l) for i in range(l)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v)])


def wheel_graph(l: int) -> Graph:
    """C_l rim (vertices 0..l-1) plus a hub (vertex l) adjacent to the rim."""
    edges = [(i, (i + 1) % l) for i in range(l)] + [(i, l) for i in range(l)]
    return Graph.from_edges(l + 1, edges)


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner 5-vertex star polygon 5..9, spokes i-(i+5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def add_universal_vertex(g: Graph) -> Graph:
    return g.add_vertex(g.full_mask())


def specific_base() -> Graph:
    """The Petersen graph plus one vertex adjacent to everything (11 vertices)."""
    return add_universal_vertex(petersen_graph())


#: The class's forbidden pair, in the order (P6, C4) that witnesses report.
P6C4 = (path_graph(6), cycle_graph(4))

#: Patterns accepted by the CLI and by forbidden-family parsing.
_NAMED = {
    "P4": lambda: path_graph(4),
    "P5": lambda: path_graph(5),
    "P6": lambda: path_graph(6),
    "P7": lambda: path_graph(7),
    "C4": lambda: cycle_graph(4),
    "C5": lambda: cycle_graph(5),
    "C6": lambda: cycle_graph(6),
    "C7": lambda: cycle_graph(7),
    "K3": lambda: complete_graph(3),
    "K4": lambda: complete_graph(4),
    "K5": lambda: complete_graph(5),
    "W5": lambda: wheel_graph(5),
}


def pattern_by_name(name: str) -> Graph:
    """Resolve a pattern name ('P6', 'C4', ..., or 'g6:<code>') to a graph."""
    if name.startswith("g6:"):
        return codec.from_graph6(name[3:])
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; use one of {sorted(_NAMED)} or g6:<code>"
        ) from None
