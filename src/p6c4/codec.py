"""graph6 and JSON edge-list serialization.

The graph6 convention: byte values 63..126, vertex count first (one byte
below 63+63, '~'-prefixed multi-byte above), then the upper triangle of
the adjacency matrix column by column, packed six bits per byte, MSB
first, zero-padded.  Decode errors carry the byte offset of the problem.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from .graphs import Graph

_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _decode_n(data: str) -> tuple[int, int]:
    """Return (n, index of first edge byte)."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    c = ord(data[0])
    if c != 126:
        if not 63 <= c <= 125:
            raise Graph6Error(f"invalid size byte {c}", 0)
        return c - 63, 1
    if len(data) < 2:
        raise Graph6Error("truncated size field", 1)
    start, end = (2, 8) if data[1] == "~" else (1, 4)
    if len(data) < end:
        raise Graph6Error("truncated size field", len(data))
    n = 0
    for i in range(start, end):
        c = ord(data[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"invalid size byte {c}", i)
        n = (n << 6) | (c - 63)
    return n, end


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header allowed)."""
    data = text.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    n, at = _decode_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - at < nbytes:
        raise Graph6Error("truncated edge bits", len(data))
    if len(data) - at > nbytes:
        raise Graph6Error("trailing garbage after edge bits", at + nbytes)
    rows = [0] * n
    acc = 0
    have = 0
    for v in range(1, n):
        for u in range(v):
            if have == 0:
                c = ord(data[at])
                if not 63 <= c <= 126:
                    raise Graph6Error(f"invalid edge byte {c}", at)
                acc = c - 63
                have = 6
                at += 1
            have -= 1
            if acc >> have & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if have and acc & ((1 << have) - 1):
        raise Graph6Error("nonzero padding bits", at - 1)
    return Graph(n, tuple(rows), _checked=True)


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        raise ValueError("graph too large for this graph6 writer")
    acc = 0
    have = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (g.adj[u] >> v & 1)
            have += 1
            if have == 6:
                out.append(chr(acc + 63))
                acc = 0
                have = 0
    if have:
        out.append(chr((acc << (6 - have)) + 63))
    return "".join(out)


def from_edge_list(obj: Any) -> Graph:
    """Build a graph from ``{"n": int, "edges": [[u, v], ...]}``.

    Every count and endpoint must be an int (not a bool or a float);
    self-loops and repeated edges are rejected.
    """
    if isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('edge-list JSON must be {"n": int, "edges": [[u, v], ...]}')
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int or n < 0:
        raise ValueError("n must be a non-negative integer")
    if not isinstance(edges, (list, tuple)):
        raise ValueError("edges must be a list of [u, v] pairs")
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ValueError(f"bad edge entry {e!r}")
    return Graph.from_edges(n, edges)


def read_graph_text(text: str) -> Graph:
    """Parse a single graph from text: JSON edge list or one graph6 line.

    Blank lines and ``#`` comments are skipped; more than one graph6 line
    is an error rather than a silent pick of the first.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_edge_list(json.loads(text))
    graphs = read_graph6_lines(text)
    if not graphs:
        raise ValueError("no graph found in input")
    if len(graphs) > 1:
        raise ValueError(f"expected one graph, found {len(graphs)} graph6 lines")
    return graphs[0]


def graph6_lines(text: str) -> list[str]:
    """The graph6 lines of ``text``, stripped; blank lines and ``#``
    comments are skipped."""
    return [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]


def read_graph6_lines(text: str) -> list[Graph]:
    return [from_graph6(line) for line in graph6_lines(text)]


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``<path>.tmp`` and rename that over ``path``, so a
    crash mid-write leaves the previous file intact."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def manifest_path(path: str | Path) -> Path:
    """The ``.json`` manifest of ``path``; ``ValueError`` if that is ``path`` itself."""
    sidecar = Path(path).with_suffix(".json")
    if sidecar == Path(path):
        raise ValueError(f"{path} would be overwritten by its own .json manifest")
    return sidecar


def write_with_manifest(path: str | Path, lines: list[str], manifest: dict) -> None:
    """Write graph6 ``lines`` to ``path`` and ``manifest`` as indented JSON
    to its :func:`manifest_path`, each with :func:`write_atomic`; raise
    ``ValueError``, writing nothing, if ``path`` is its own sidecar."""
    sidecar = manifest_path(path)
    write_atomic(path, "".join(line + "\n" for line in lines))
    write_atomic(sidecar, json.dumps(manifest, indent=2) + "\n")
