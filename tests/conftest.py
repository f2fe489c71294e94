"""Shared brute-force oracles and graph generators for the test suite.

The oracles here are deliberately naive (exhaustive over assignments,
injections, or permutations) so the fast implementations can be checked
against something whose correctness is obvious.
"""

import itertools
import sys

import pytest
from hypothesis import strategies as st

from p6c4.graphs import Graph, bits


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_mask(n, mask)


def brute_k_color(g: Graph, k: int):
    """Exhaustive proper-coloring search; returns an assignment or None."""
    assignment = [0] * g.n

    def rec(v):
        if v == g.n:
            return True
        for color in range(k):
            if all(assignment[u] != color for u in g.neighbors(v) if u < v):
                assignment[v] = color
                if rec(v + 1):
                    return True
        return False

    return tuple(assignment) if rec(0) else None


def components(g: Graph) -> list[frozenset[int]]:
    """The vertex sets of the components of ``g``, by least vertex."""
    out = []
    remaining = g.full_mask()
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = g.component_mask(start)
        out.append(frozenset(bits(comp)))
        remaining &= ~comp
    return out


def brute_induced_copy(g: Graph, pattern: Graph):
    """Injective-map enumeration; returns a vertex map or None."""
    return next(brute_induced_copies(g, pattern), None)


def brute_induced_copies(g: Graph, pattern: Graph):
    """Every injective vertex map that is an induced copy of ``pattern``."""
    for combo in itertools.combinations(range(g.n), pattern.n):
        for perm in itertools.permutations(combo):
            if all(
                g.has_edge(perm[a], perm[b]) == pattern.has_edge(a, b)
                for a, b in itertools.combinations(range(pattern.n), 2)
            ):
                yield perm


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so each call's arguments are appended to the
    returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def stack_depth() -> int:
    """Frames on the caller's stack; tests lower the recursion limit to this
    plus a margin to show that code does not recurse per vertex."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def brute_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    return any(
        all(
            a.has_edge(u, v) == b.has_edge(perm[u], perm[v])
            for u, v in itertools.combinations(range(a.n), 2)
        )
        for perm in itertools.permutations(range(b.n))
    )


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    n_pairs = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << n_pairs) - 1)) if n_pairs else 0
    return graph_from_mask(n, mask)


@pytest.fixture(scope="session")
def small_free_family():
    """All connected (P6,C4)-free graphs with at most 6 vertices."""
    from p6c4 import enumeration, families

    cfg = enumeration.SearchConfig(
        n_max=6, forbidden=(families.path_graph(6), families.cycle_graph(4))
    )
    return list(enumeration.enumerate_family(cfg))


@pytest.fixture(scope="session")
def family8():
    """All connected (P6,C4)-free graphs with at most 8 vertices."""
    from p6c4 import enumeration, families

    cfg = enumeration.SearchConfig(
        n_max=8, forbidden=(families.path_graph(6), families.cycle_graph(4))
    )
    return list(enumeration.enumerate_family(cfg))
