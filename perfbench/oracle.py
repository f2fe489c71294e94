"""Independent graph code for making and checking benchmark inputs and outputs.

Nothing here imports p6c4: a graph is a list of adjacency bitmasks, and
every check is a plain search whose correctness is easy to see.  The
benchmark uses this module to build its inputs and to judge the program's
answers, so a defect in the program cannot hide itself.
"""

from __future__ import annotations

import itertools


C5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]  # the five-cycle 0-1-2-3-4


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def has_edge(adj: list[int], u: int, v: int) -> bool:
    return bool(adj[u] >> v & 1)


# -- graph6 ---------------------------------------------------------------


def encode_graph6(adj: list[int]) -> str:
    """graph6 for n <= 62: size byte, then the upper triangle column by column."""
    n = len(adj)
    if n > 62:
        raise ValueError("the benchmark only writes graphs with at most 62 vertices")
    out = [chr(n + 63)]
    acc = have = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (adj[u] >> v & 1)
            have += 1
            if have == 6:
                out.append(chr(acc + 63))
                acc = have = 0
    if have:
        out.append(chr((acc << (6 - have)) + 63))
    return "".join(out)


def decode_graph6(line: str) -> list[int]:
    """Inverse of :func:`encode_graph6` (single size byte only)."""
    n = ord(line[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"unsupported graph6 size byte in {line!r}")
    stream = []
    for ch in line[1:]:
        val = ord(ch) - 63
        stream.extend((val >> s) & 1 for s in range(5, -1, -1))
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if stream[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return adj


# -- freeness around a new vertex --------------------------------------------


def makes_c4(adj: list[int], w: int) -> bool:
    """Does vertex ``w`` lie on an induced four-cycle?"""
    nw = adj[w]
    closed = nw | (1 << w)
    for a, b in itertools.combinations(list(bits(nw)), 2):
        if not has_edge(adj, a, b) and adj[a] & adj[b] & ~closed:
            return True
    return False


def makes_p6(adj: list[int], w: int) -> bool:
    """Does vertex ``w`` lie on an induced path with six vertices?

    Grows the path from ``w`` to the right first, then to the left; every
    induced path through ``w`` arises this way.  A new end vertex must see
    the current end and nothing else on the path.
    """

    def grow(pmask: int, end: int, other: int, length: int, right: bool) -> bool:
        if length == 6:
            return True
        if right and length > 1 and grow(pmask, other, end, length, False):
            return True
        for u in bits(adj[end] & ~pmask):
            if adj[u] & pmask == 1 << end:
                if grow(pmask | (1 << u), u, other, length + 1, right):
                    return True
        return False

    return grow(1 << w, w, w, 1, True)


def c5_through(adj: list[int], w: int) -> int:
    """How many induced five-cycles pass through ``w``?

    Each one is ``w a b c d`` with ``a`` and ``d`` non-adjacent neighbours
    of ``w`` and ``a b c d`` an induced path that avoids the rest of N[w].
    """
    nw = adj[w]
    outside = ~(nw | (1 << w))
    count = 0
    for a, d in itertools.combinations(list(bits(nw)), 2):
        if has_edge(adj, a, d):
            continue
        for b in bits(adj[a] & outside & ~adj[d]):
            count += (adj[b] & adj[d] & outside & ~adj[a]).bit_count()
    return count


def clique_number(adj: list[int], mask: int) -> int:
    """Largest clique inside the vertex set ``mask`` (plain branch and bound)."""
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand ^= 1 << v
            expand(size + 1, cand & adj[v])

    expand(0, mask)
    return best


# -- answer checks -------------------------------------------------------------


def proper_coloring(adj: list[int], colors: list[int], k: int) -> bool:
    if len(colors) != len(adj) or any(not 1 <= c <= k for c in colors):
        return False
    return all(colors[u] != colors[v] for u in range(len(adj)) for v in bits(adj[u]))


def induces(adj: list[int], vertices: list[int], pattern: list[int]) -> bool:
    """Is ``vertices[i] -> i`` an isomorphism from the induced subgraph onto ``pattern``?"""
    p = len(pattern)
    if len(vertices) != p or len(set(vertices)) != p:
        return False
    if any(not 0 <= v < len(adj) for v in vertices):
        return False
    return all(
        has_edge(adj, vertices[i], vertices[j]) == has_edge(pattern, i, j)
        for i, j in itertools.combinations(range(p), 2)
    )


def is_clique(adj: list[int], vertices) -> bool:
    return all(has_edge(adj, u, v) for u, v in itertools.combinations(vertices, 2))


def is_induced_c5(adj: list[int], ring: list[int]) -> bool:
    return induces(adj, ring, C5)


def isomorphic(a: list[int], b: list[int]) -> bool:
    """Brute-force isomorphism: extend a vertex map one vertex at a time,
    keeping degrees and every adjacency to the vertices already mapped."""
    n = len(a)
    if n != len(b):
        return False
    deg_a = [x.bit_count() for x in a]
    deg_b = [x.bit_count() for x in b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    image = [-1] * n
    used = [False] * n

    def rec(v: int) -> bool:
        if v == n:
            return True
        for t in range(n):
            if used[t] or deg_b[t] != deg_a[v]:
                continue
            if all(has_edge(a, u, v) == has_edge(b, image[u], t) for u in range(v)):
                image[v], used[t] = t, True
                if rec(v + 1):
                    return True
                used[t] = False
        return False

    return rec(0)


def satisfiable(n_vars: int, clauses: tuple[tuple[int, ...], ...], nae: bool) -> bool:
    """Try every assignment.  CNF clauses need a true literal; NAE clauses
    need a true one and a false one."""
    for word in range(1 << n_vars):
        ok = True
        for clause in clauses:
            values = [bool(word >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause]
            ok = any(values) and not (nae and all(values))
            if not ok:
                break
        if ok:
            return True
    return False
