"""Induced-subgraph detection against injective-map enumeration oracles."""

import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings

from conftest import (
    blowup,
    brute_induced_copies,
    brute_induced_copy,
    count_calls,
    empty_graph,
    graphs,
    stack_depth,
)
from p6c4 import coloring, detect, enumeration, families
from p6c4.enumeration import NiceWitness
from p6c4.graphs import Graph, bits, mask_of
from p6c4.reductions import NAE, SatInstance, build_ghi, build_nae


def _check_embedding(g, pattern, emb):
    assert emb is not None
    assert detect.verify_embedding(g, pattern, emb)


def test_find_induced_path_examples():
    g = families.cycle_graph(6)
    _check_embedding(g, families.path_graph(5), detect.find_induced_path(g, 5))
    assert detect.find_induced_path(g, 6) is None  # closing edge chords it
    assert detect.find_induced_path(families.complete_graph(5), 3) is None
    pet = families.petersen_graph()
    assert detect.find_induced_path(pet, 6) is None  # spine of the family
    _check_embedding(pet, families.path_graph(5), detect.find_induced_path(pet, 5))


def test_find_induced_cycle_examples():
    pet = families.petersen_graph()
    assert detect.find_induced_cycle(pet, 3) is None
    assert detect.find_induced_cycle(pet, 4) is None
    _check_embedding(pet, families.cycle_graph(5), detect.find_induced_cycle(pet, 5))
    _check_embedding(pet, families.cycle_graph(6), detect.find_induced_cycle(pet, 6))
    k33 = Graph.from_edges(6, [(a, b + 3) for a in range(3) for b in range(3)])
    assert detect.find_induced_cycle(k33, 5) is None
    _check_embedding(k33, families.cycle_graph(4), detect.find_induced_cycle(k33, 4))


def test_find_all_induced_cycles_one_per_cycle():
    pet = families.petersen_graph()
    five = detect.find_all_induced_cycles(pet, 5)
    assert len(five) == 12  # the Petersen graph's pentagon count
    assert len({frozenset(e.vmap) for e in five}) == 12
    six = detect.find_all_induced_cycles(pet, 6)
    assert len(six) == 10
    w5 = families.wheel_graph(5)
    assert len(detect.find_all_induced_cycles(w5, 5)) == 1


def _ring_from_min(vmap):
    """A cycle's ring read from its minimum towards the smaller neighbour."""
    i = vmap.index(min(vmap))
    ring = vmap[i:] + vmap[:i]
    return ring if ring[1] < ring[-1] else ring[:1] + ring[:0:-1]


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=8))
def test_cycle_searches_match_brute_force(g):
    """Every induced C_l once, in ascending ring order; the first search
    returns the first of them."""
    for l in range(3, 9):
        brute = brute_induced_copies(g, families.cycle_graph(l))
        expected = sorted({_ring_from_min(vmap) for vmap in brute})
        rings = [emb.vmap for emb in detect.find_all_induced_cycles(g, l)]
        assert rings == expected
        first = detect.find_induced_cycle(g, l)
        assert (first and first.vmap) == (expected[0] if expected else None)


def test_long_cycle_search_needs_no_recursion():
    n = 1100
    g = families.cycle_graph(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)  # far below the cycle length
    try:
        first = detect.find_induced_cycle(g, n)
        every = detect.find_all_induced_cycles(g, n)
    finally:
        sys.setrecursionlimit(limit)
    assert first.vmap == tuple(range(n))
    assert every == [first]


def _reference_iter_cycles(g, l):
    """The ring loop without the closing set: every chordless path from the
    ring minimum grows until its last position, closable or not."""
    adj = g.adj
    ring = [0] * l
    block = [0] * l
    cand = [0] * l
    for s in range(g.n - l + 1):
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
            block[i] = block[i - 1] | low | (adj[ring[i - 1]] if i > 1 else 0)
            allowed = adj[v] & ~block[i]
            i += 1
            if i == l - 1:
                cand[i] = allowed & ns & -(2 << ring[1])
            else:
                cand[i] = allowed & ~ns


def _assert_same_rings(g, lengths):
    for l in lengths:
        assert list(detect._iter_cycles(g, l)) == list(_reference_iter_cycles(g, l))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_iter_cycles_matches_the_unpruned_loop(g):
    _assert_same_rings(g, range(3, g.n + 1))


def test_iter_cycles_matches_the_unpruned_loop_on_family8(family8):
    for g in family8:
        _assert_same_rings(g, range(3, g.n + 1))


def test_iter_cycles_matches_the_unpruned_loop_on_gadgets():
    for g in _gadgets():
        _assert_same_rings(g, range(3, g.n + 1))


def test_long_path_search_needs_no_recursion():
    n = 1100
    g = families.path_graph(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)  # far below the path length
    try:
        whole = detect.find_induced_path(g, n)
        found = detect.find_induced_copy(g, families.path_graph(n))
        decided = detect._has_induced_path(g.adj, n, n)
        chorded = detect._has_induced_path(families.cycle_graph(n).adj, n, n)
    finally:
        sys.setrecursionlimit(limit)
    assert whole.vmap == tuple(range(n))
    assert found == whole
    assert decided == 0 and chorded == -1


def _reference_induced_paths(g, t):
    """Every induced P_t in path order, lexicographically: the witness loop
    alone, without the decision search ahead of it."""
    if t == 1:
        yield from ((v,) for v in range(g.n))
        return
    adj = g.adj
    path = [0] * t
    block = [0] * t
    cand = [0] * t
    for s in range(g.n):
        path[0] = s
        block[0] = 1 << s
        cand[1] = adj[s]
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
                yield tuple(path)
                continue
            block[i] = block[i - 1] | low | adj[path[i - 1]]
            i += 1
            cand[i] = adj[v] & ~block[i - 1]


def _reference_find_induced_path(g, t):
    path = next(_reference_induced_paths(g, t), None)
    return None if path is None else detect.Embedding(t, path)


def _gadgets():
    """Gadget graphs of both reductions, P7-free by the paper's promise."""
    c7, witness = families.cycle_graph(7), NiceWitness((0, 2, 4), 2)
    cnf = [
        SatInstance(1, ((1, 1, -1),)),
        SatInstance(2, ((1, -2, 1), (-1, 2, 2))),
        SatInstance(3, ((1, 2, 3), (-1, -2, -3))),
    ]
    nae = [SatInstance(3, ((1, 2, 3),), NAE), SatInstance(3, ((1, 2, 3), (1, 1, 2)), NAE)]
    return [build_ghi(c7, witness, inst).graph for inst in cnf] + [
        build_nae(inst).graph for inst in nae
    ]


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_find_induced_path_matches_the_witness_loop(g):
    for t in range(1, 10):
        assert detect.find_induced_path(g, t) == _reference_find_induced_path(g, t)


def test_find_induced_path_matches_the_witness_loop_on_family8(family8):
    for g in family8:
        for t in (5, 6, 7):
            assert detect.find_induced_path(g, t) == _reference_find_induced_path(g, t)


def test_find_induced_path_matches_the_witness_loop_on_gadgets():
    for g in _gadgets():
        for t in (6, 7, 8):
            assert detect.find_induced_path(g, t) == _reference_find_induced_path(g, t)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=8))
def test_has_induced_path_matches_brute_force(g):
    for t in range(3, g.n + 1):
        # copies come by ascending vertex set, so the first has the least minimum
        brute = next(brute_induced_copies(g, families.path_graph(t)), None)
        assert detect._has_induced_path(g.adj, g.n, t) == (-1 if brute is None else min(brute))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_has_induced_path_gives_the_least_path_minimum(g):
    """Odd t included, where a path with equal arms is grown from one arm."""
    for t in range(3, 10):
        least = min((min(path) for path in _reference_induced_paths(g, t)), default=-1)
        assert detect._has_induced_path(g.adj, g.n, t) == least


def _networkx_least_path_minimum(nx, g, t):
    """The least s with an induced P_t through s inside G[{v >= s}], by
    networkx's induced matcher: s plays path vertex j for some j < t / 2."""
    GraphMatcher = nx.algorithms.isomorphism.GraphMatcher
    for s in range(g.n - t + 1):
        host = nx.Graph()
        host.add_nodes_from((v, {"mark": v == s}) for v in range(s, g.n))
        host.add_edges_from((u, v) for u in range(s, g.n) for v in g.neighbors(u) if v > u)
        if not GraphMatcher(host, nx.path_graph(t)).subgraph_is_isomorphic():
            return -1  # no P_t at all in G[{v >= s}]
        for j in range((t + 1) // 2):
            path = nx.path_graph(t)
            nx.set_node_attributes(path, {i: i == j for i in range(t)}, "mark")
            matcher = GraphMatcher(host, path, node_match=lambda a, b: a["mark"] == b["mark"])
            if matcher.subgraph_is_isomorphic():
                return s
    return -1


def test_has_induced_path_matches_networkx_on_larger_graphs():
    """n = 15..24, t = 5..8; in half the graphs the lowest third of the
    vertices is nearly complete, so the least minimum is often above 0."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(1307)
    answers = set()
    for _ in range(10):
        n = rng.randint(15, 24)
        p = rng.choice((0.15, 0.3, 0.6, 0.75))
        dense = rng.choice((0, n // 3))
        g = Graph.from_edges(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < (0.9 if u < dense else p)],
        )
        for t in range(5, 9):
            least = detect._has_induced_path(g.adj, n, t)
            assert least == _networkx_least_path_minimum(nx, g, t), (n, p, dense, t)
            answers.add(least)
    assert -1 in answers and 0 in answers and max(answers) > 1


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=10))
def test_decision_search_changes_no_answer(g):
    """With the decision search forced to report a path from vertex 0, the
    matcher alone gives every answer, and it gives the same ones."""
    fast = [detect.find_induced_path(g, t) for t in range(1, 9)]
    real = detect._has_induced_path
    detect._has_induced_path = lambda adj, n, t: 0
    try:
        slow = [detect.find_induced_path(g, t) for t in range(1, 9)]
    finally:
        detect._has_induced_path = real
    assert fast == slow


def test_max_clique_and_has_clique():
    g = blowup(families.path_graph(3), (2, 3, 1))
    assert len(detect.max_clique(g)) == 5  # the two middle-joined cliques
    assert detect.has_clique(g, 5) is not None
    assert detect.has_clique(g, 6) is None
    assert len(detect.max_clique(families.petersen_graph())) == 2
    assert len(detect.max_clique(empty_graph(3))) == 1
    assert len(detect.max_clique(empty_graph(0))) == 0


@settings(max_examples=60)
@given(graphs(max_n=6))
def test_find_induced_copy_matches_oracle(g):
    for pattern in [
        families.path_graph(4),
        families.cycle_graph(4),
        families.complete_graph(3),
        families.cycle_graph(5),
    ]:
        emb = detect.find_induced_copy(g, pattern)
        oracle = brute_induced_copy(g, pattern)
        assert (emb is None) == (oracle is None)
        if emb is not None:
            assert detect.verify_embedding(g, pattern, emb)


@settings(max_examples=60)
@given(graphs(max_n=9))
def test_specialized_finders_agree_with_generic(g):
    """The finders the dispatcher uses return the generic matcher's first
    embedding exactly, so dispatching changes no witness."""
    for t in range(1, 8):
        assert detect.find_induced_path(g, t) == detect._match(g, families.path_graph(t))
    for l in range(3, 9):
        assert detect.find_induced_cycle(g, l) == detect._match(g, families.cycle_graph(l))


@settings(max_examples=100)
@given(graphs(max_n=10))
def test_clique_finder_agrees_with_generic(g):
    """has_clique returns the generic matcher's first complete embedding,
    so sending complete patterns to it changes no witness."""
    for k in range(1, 8):
        assert detect.has_clique(g, k) == detect._match(g, families.complete_graph(k))


def test_clique_finder_agrees_with_generic_on_family8(family8):
    for g in family8:
        for k in (4, 5):
            assert detect.has_clique(g, k) == detect._match(g, families.complete_graph(k))


def test_complete_patterns_go_to_the_clique_finder(monkeypatch):
    calls = count_calls(monkeypatch, detect, "has_clique")
    g = blowup(families.cycle_graph(5), (1, 2, 3, 1, 1))
    assert detect.find_induced_copy(g, families.complete_graph(5)).vmap == (1, 2, 3, 4, 5)
    assert detect.find_induced_copy(g, families.complete_graph(6)) is None
    assert [args[1] for args in calls] == [5, 6]
    # K1, K2 and K3 are the path or cycle they equal
    assert [detect._pattern_shape(families.complete_graph(n))[0] for n in (1, 2, 3, 4)] == [
        "path",
        "path",
        "cycle",
        "complete",
    ]


def _reference_max_clique(g):
    """The recursive branch and bound that ``max_clique`` replaced."""
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


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_max_clique_matches_the_recursive_reference(g):
    assert detect.max_clique(g) == _reference_max_clique(g)


def test_max_clique_matches_the_recursive_reference_on_family8(family8):
    for g in family8:
        assert detect.max_clique(g) == _reference_max_clique(g)


def test_max_clique_needs_no_recursion():
    g = families.complete_graph(1100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)  # far below the clique size
    try:
        found = detect.max_clique(g)
    finally:
        sys.setrecursionlimit(limit)
    assert found == frozenset(range(1100))


def test_large_clique_search_needs_no_recursion():
    n = 600
    g = families.complete_graph(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)  # far below the clique size
    try:
        found = detect.find_induced_copy(g, families.complete_graph(n))
    finally:
        sys.setrecursionlimit(limit)
    assert found.vmap == tuple(range(n))


@settings(max_examples=60)
@given(graphs(max_n=7))
def test_generic_matcher_matches_oracle(g):
    for pattern in [
        families.path_graph(4),
        families.cycle_graph(4),
        families.complete_graph(3),
        families.cycle_graph(5),
        families.wheel_graph(5),
    ]:
        emb = detect._match(g, pattern)
        assert (emb is None) == (brute_induced_copy(g, pattern) is None)
        if emb is not None:
            assert detect.verify_embedding(g, pattern, emb)


def _to_networkx(nx, g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def _random_graph(rng, n, p):
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_max_clique_matches_networkx_on_larger_graphs():
    """n = 10..40 from sparse to dense: the clique found is a clique, as
    large as networkx's maximum clique (unit weights)."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(1709)
    sizes = set()
    for _ in range(30):
        n = rng.randint(10, 40)
        g = _random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.85)))
        found = detect.max_clique(g)
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(found, 2))
        _, size = nx.max_weight_clique(_to_networkx(nx, g), weight=None)
        assert len(found) == size, (n, g.m)
        sizes.add(size)
    assert len(sizes) > 4


GENERIC_PATTERNS = [
    Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),  # claw
    Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)]),  # P1 + P4
    Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),  # paw
    Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]),  # bull
    Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),  # house
    Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),  # 3K2
    empty_graph(3),
]


def test_generic_matcher_matches_networkx_on_larger_graphs():
    """n = 10..40: ``_match`` finds a copy exactly when networkx's induced
    ``GraphMatcher`` does, and the copy it returns is induced; up to 16
    vertices ``iter_induced_copies`` yields as many copies as networkx
    finds isomorphisms."""
    nx = pytest.importorskip("networkx")
    GraphMatcher = nx.algorithms.isomorphism.GraphMatcher
    rng = random.Random(1711)
    answers = set()
    for _ in range(24):
        n = rng.randint(10, 40)
        g = _random_graph(rng, n, rng.choice((0.05, 0.15, 0.5, 0.8)))
        host = _to_networkx(nx, g)
        for pattern in GENERIC_PATTERNS + [_random_graph(rng, rng.randint(4, 6), 0.5)]:
            emb = detect._match(g, pattern)
            matcher = GraphMatcher(host, _to_networkx(nx, pattern))
            assert (emb is not None) == matcher.subgraph_is_isomorphic(), (n, pattern.adj)
            if emb is not None:
                assert detect.verify_embedding(g, pattern, emb)
            if n <= 16:
                copies = sum(1 for _ in detect.iter_induced_copies(g, pattern))
                assert copies == sum(1 for _ in matcher.subgraph_isomorphisms_iter())
            answers.add(emb is None)
    assert answers == {True, False}


# Pieces (H - x, N_H(x)) of minimum degree at least 2, for which the
# matcher peels the host to its degree core: K3 and K4 (of K4 and K5), C5
# and a hub over P4 (of W5), and the pieces of two shipped k=4 obstructions.
CORE_PIECES = [
    piece
    for pattern in (
        families.complete_graph(4),
        families.complete_graph(5),
        families.wheel_graph(5),
        *(e.graph for e in coloring.catalog_load(coloring.default_catalog_path(4))[2:4]),
    )
    for piece in enumeration._vertex_deleted(pattern)
    if piece[0].min_degree() >= 2
]


def _reference_iter_induced_copies(g, pattern):
    """The matcher without forward checking: each position's candidates
    are worked out only when it is reached."""
    p = pattern.n
    if p == 0:
        yield ()
        return
    if p > g.n:
        return
    adj, padj = g.adj, pattern.adj
    fits = [
        sum(1 << v for v in range(g.n) if adj[v].bit_count() >= prow.bit_count())
        for prow in padj
    ]
    assign = [0] * p
    cand = [0] * p
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
            yield tuple(assign)
            continue
        i += 1
        allowed = fits[i]
        for j in range(i):
            u = assign[j]
            allowed &= (adj[u] if padj[i] >> j & 1 else ~adj[u]) & ~(1 << u)
        cand[i] = allowed


def test_forward_checking_keeps_every_copy_in_order():
    """Ablation of forward checking and degree-core peeling in
    ``iter_induced_copies``: on random hosts with 8 to 20 vertices, sparse
    to dense, the copies of every generic pattern, catalog entry and
    piece of minimum degree at least 2 come out as the plain loop yields
    them, in the same order."""
    rng = random.Random(2026)
    patterns = GENERIC_PATTERNS + [families.wheel_graph(5), families.path_graph(5)]
    for k in (3, 4):
        patterns += [e.graph for e in coloring.catalog_load(coloring.default_catalog_path(k))]
    patterns += [sub for sub, _ in CORE_PIECES]
    total = 0
    for _ in range(40):
        g = _random_graph(rng, rng.randint(8, 20), rng.choice((0.15, 0.3, 0.5, 0.7)))
        for pattern in patterns:
            got = [emb.vmap for emb in detect.iter_induced_copies(g, pattern)]
            assert got == list(_reference_iter_induced_copies(g, pattern)), (g.adj, pattern.adj)
            total += len(got)
    assert total


@settings(max_examples=60)
@given(graphs(max_n=7))
def test_iter_induced_copies_yields_every_copy_in_order(g):
    """All copies, each once, in ascending vmap order: the order the generic
    matcher branches in, so its answer is the first."""
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for pattern in [
        empty_graph(0),
        empty_graph(2),
        families.path_graph(4),
        families.cycle_graph(4),
        families.complete_graph(3),
        families.wheel_graph(5),
        claw,
        Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)]),  # P1 + P4
    ]:
        copies = [emb.vmap for emb in detect.iter_induced_copies(g, pattern)]
        assert copies == sorted(set(brute_induced_copies(g, pattern)))
        first = next(detect.iter_induced_copies(g, pattern), None)
        assert first == detect._match(g, pattern)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=9))
def test_rooted_copies_are_the_copies_with_that_largest_vertex(g):
    """With ``top``, ``iter_induced_copies`` yields each copy whose largest
    vertex is ``top`` exactly once, for connected, disconnected, symmetric
    and one-vertex patterns and pieces the host is peeled for, and nothing
    for the empty pattern."""
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    for pattern in [
        empty_graph(0),
        empty_graph(1),
        empty_graph(3),
        families.path_graph(5),
        families.cycle_graph(4),
        families.complete_graph(3),
        families.wheel_graph(5),
        claw,
        Graph.from_edges(5, [(1, 2), (2, 3), (3, 4)]),  # P1 + P4
        Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),  # 3K2
        *(sub for sub, _ in CORE_PIECES),
    ]:
        every = list(_reference_iter_induced_copies(g, pattern))
        for top in range(g.n):
            rooted = [emb.vmap for emb in detect.iter_induced_copies(g, pattern, top)]
            assert len(rooted) == len(set(rooted))
            assert sorted(rooted) == [vmap for vmap in every if vmap and max(vmap) == top]


def _pairs(copies, nbrs):
    """``(S, R)`` of each copy: its vertex set and the image of ``nbrs``."""
    return [(mask_of(e.vmap), mask_of(e.vmap[i] for i in bits(nbrs))) for e in copies]


def _marked_pieces():
    """Every piece (H - x, N_H(x)) of P6, C4, K4, K5, C5, W5, the shipped
    catalog entries, 3K2 (whose pieces are disconnected) and 4K1."""
    patterns = [
        families.path_graph(6),
        families.cycle_graph(4),
        families.complete_graph(4),
        families.complete_graph(5),
        families.cycle_graph(5),
        families.wheel_graph(5),
        Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),  # 3K2
        empty_graph(4),
    ]
    for k in (3, 4):
        patterns += [e.graph for e in coloring.catalog_load(coloring.default_catalog_path(k))]
    pieces = [piece for pattern in patterns for piece in enumeration._vertex_deleted(pattern)]
    assert any(not sub.is_connected() for sub, _ in pieces)
    return pieces


def test_symmetry_conditions_leave_one_copy_per_pair():
    """For every piece of :func:`_marked_pieces`, on random hosts with at
    most 10 vertices, with and without ``top``: the search under the
    piece's symmetry conditions finds the same (S, R) pairs as the plain
    search, each from exactly one copy."""
    pieces = _marked_pieces()
    rng = random.Random(2607)
    broken = total = 0
    for _ in range(60):
        g = _random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.4, 0.6, 0.8, 0.95)))
        for sub, nbrs in pieces:
            conditions = detect.symmetry_conditions(sub, nbrs)
            for top in (None, *range(g.n)):
                every = _pairs(detect.iter_induced_copies(g, sub, top), nbrs)
                once = _pairs(detect.iter_induced_copies(g, sub, top, conditions), nbrs)
                assert len(once) == len(set(once)), (g.adj, sub.adj, nbrs, top)
                assert set(once) == set(every), (g.adj, sub.adj, nbrs, top)
                broken += len(every) - len(once)
                total += len(once)
    assert total and broken


def test_copy_plan_streams_one_copy_per_pair_of_each_piece():
    """One :class:`detect.CopyPlan` over every piece of
    :func:`_marked_pieces` (and K1's, the empty piece), on random hosts
    with at most 12 vertices, unrooted and rooted at every ``top``: piece
    by piece it streams the (S, R) pairs of the plain per-piece search
    with no conditions, each pair of each piece exactly once."""
    pieces = _marked_pieces() + list(enumeration._vertex_deleted(empty_graph(1)))
    plan = detect.CopyPlan(pieces)
    rng = random.Random(2903)
    shared = total = 0
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.4, 0.6, 0.8, 0.95)))
        for top in (None, *range(g.n)):
            want = Counter()
            for sub, nbrs in pieces:
                want.update(set(_pairs(detect.iter_induced_copies(g, sub, top), nbrs)))
            got = Counter(plan.pairs(g, top))
            assert got == want, (g.adj, top)
            shared += sum(count > 1 for count in got.values())
            total += got.total()
    assert total and shared


def test_symmetry_conditions_break_the_marked_stabilizer():
    """K3 with every vertex marked has S3 to break, and so has 3K1 with
    none; P3 with its ends marked has only the flip, and with one end
    marked nothing, like P5."""
    assert detect.symmetry_conditions(families.complete_graph(3), 0b111) == (
        (0, 1), (0, 2), (1, 2),
    )
    assert detect.symmetry_conditions(families.path_graph(3), 0b101) == ((0, 2),)
    assert detect.symmetry_conditions(families.path_graph(3), 0b001) == ()
    assert detect.symmetry_conditions(families.path_graph(5), 0b00001) == ()
    assert detect.symmetry_conditions(empty_graph(3), 0) == ((0, 1), (0, 2), (1, 2))


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=12))
def test_cycle_answers_after_path_queries_match_the_ring_search(g):
    """Once a path P_t is known absent, every C_l with l > t is answered
    without a ring search, and the answers are the ring search's."""
    for t in (3, 4, 5):
        detect.find_induced_copy(g, families.path_graph(t))
        for l in range(3, 10):
            ring = next(detect._iter_cycles(g, l), None)
            want = None if ring is None else detect.Embedding(l, ring)
            assert detect.find_induced_copy(g, families.cycle_graph(l)) == want


def test_path_free_gadgets_skip_the_longer_ring_searches(monkeypatch):
    """The CNF audit's queries on a P7-free gadget: P7, then C8 and C9
    without a ring search; C6 still needs one."""
    rings = count_calls(monkeypatch, detect, "_iter_cycles")
    for g in _gadgets()[:3]:
        assert detect.find_induced_copy(g, families.path_graph(7)) is None
        for l in (8, 9):
            assert detect.find_induced_copy(g, families.cycle_graph(l)) is None
        assert not rings
        detect.find_induced_copy(g, families.cycle_graph(6))
        assert len(rings) == 1
        rings.clear()


@settings(max_examples=60)
@given(graphs(max_n=8))
def test_relabelled_paths_and_cycles_use_the_generic_matcher(g):
    """A path or cycle pattern whose labels do not run along it still gets
    an embedding of that labelling."""
    for pattern in [
        Graph.from_edges(4, [(0, 2), (2, 1), (1, 3)]),
        Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]),
    ]:
        emb = detect.find_induced_copy(g, pattern)
        assert emb == detect._match(g, pattern)
        if emb is not None:
            assert detect.verify_embedding(g, pattern, emb)


_WHEELS = [families.wheel_graph(l) for l in range(4, 8)]


def _reference_find_wheel(g, l):
    """The ring-search wheel finder that the matcher replaced: the first
    ring ``_iter_cycles`` yields that has a common neighbour, with the
    lowest such hub (rim 0..l-1 in ring order, hub l)."""
    for ring in detect._iter_cycles(g, l):
        hubs = g.full_mask()
        for v in ring:
            hubs &= g.adj[v]
        if hubs:
            return detect.Embedding(l + 1, ring + ((hubs & -hubs).bit_length() - 1,))
    return None


def _check_wheels(nx, g):
    """Each wheel is found exactly when networkx's induced ``GraphMatcher``
    finds one, the copy is induced, and it is the ring search's first."""
    host = _to_networkx(nx, g)
    hits = []
    for wheel in _WHEELS:
        emb = detect.find_induced_copy(g, wheel)
        matcher = nx.algorithms.isomorphism.GraphMatcher(host, _to_networkx(nx, wheel))
        assert (emb is not None) == matcher.subgraph_is_isomorphic(), (g.n, g.adj, wheel.n)
        if emb is not None:
            assert detect.verify_embedding(g, wheel, emb)
        assert emb == _reference_find_wheel(g, wheel.n - 1)
        hits.append(emb is not None)
    return hits


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=10))
def test_wheel_finder_agrees_with_generic(g):
    """A wheel labelled rim first goes to the generic matcher, which places
    the rim first and so returns the least ring with a common neighbour."""
    _check_wheels(pytest.importorskip("networkx"), g)


def test_wheel_finder_agrees_with_generic_on_dense_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4099)
    found = [0] * len(_WHEELS)
    for _ in range(200):
        n = rng.randint(10, 20)
        g = _random_graph(rng, n, rng.choice((0.5, 0.65, 0.8)))
        for k, hit in enumerate(_check_wheels(nx, g)):
            found[k] += hit
    assert all(0 < hits < 200 for hits in found[1:])


def test_wheel_patterns_go_to_the_wheel_finder():
    six = [(i, (i + 1) % 6) for i in range(6)]
    g = Graph.from_edges(8, six + [(i, hub) for i in range(6) for hub in (6, 7)])
    assert detect.find_induced_copy(g, families.wheel_graph(6)).vmap == (0, 1, 2, 3, 4, 5, 6)
    assert detect.find_induced_copy(g, families.wheel_graph(5)) is None
    # a hub that is not the last vertex is another labelling of the same pattern
    hub_first = families.wheel_graph(5).relabel((1, 2, 3, 4, 5, 0))
    assert detect._pattern_shape(hub_first) == ("generic", 6, False)
    emb = detect.find_induced_copy(families.wheel_graph(5), hub_first)
    assert emb.vmap == (5, 0, 1, 2, 3, 4)
    # W3 is K4, and a hub over two triangles is no wheel
    assert detect._pattern_shape(families.wheel_graph(3))[0] == "complete"
    two_triangles = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] + [(i, 6) for i in range(6)]
    )
    assert detect._pattern_shape(two_triangles)[0] == "generic"


# -- the per-graph memo ------------------------------------------------------------


def test_repeated_search_hits_the_memo(monkeypatch):
    calls = count_calls(monkeypatch, detect, "find_induced_path")
    g = families.cycle_graph(8)
    first = detect.find_induced_copy(g, families.path_graph(6))
    second = detect.find_induced_copy(g, families.path_graph(6))
    assert first == second and first is not None
    assert len(calls) == 1
    # is_free goes through the same memo
    assert detect.is_free(g, [families.path_graph(6)]) == (False, 0, first)
    assert len(calls) == 1
    # a fresh but equal graph starts with an empty memo
    detect.find_induced_copy(families.cycle_graph(8), families.path_graph(6))
    assert len(calls) == 2


def test_memo_keys_on_the_labelled_pattern():
    g = families.petersen_graph()
    assert g._found is None
    detect.find_induced_copy(g, families.cycle_graph(5))
    detect.find_induced_copy(g, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert len(g._found) == 1  # equal patterns built separately share one entry
    detect.find_induced_copy(g, families.path_graph(5))
    detect.find_induced_copy(g, Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]))
    assert len(g._found) == 3  # same order, different adjacency: separate entries


def test_memo_does_not_affect_equality_or_hashing():
    a = families.petersen_graph()
    b = families.petersen_graph()
    detect.find_induced_copy(a, families.cycle_graph(5))
    assert a._found and b._found is None
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_is_free_reports_first_hit():
    g = families.cycle_graph(4)
    free, idx, emb = detect.is_free(
        g, [families.path_graph(6), families.cycle_graph(4)]
    )
    assert not free and idx == 1
    assert detect.verify_embedding(g, families.cycle_graph(4), emb)
    free, idx, emb = detect.is_free(families.petersen_graph(), [families.path_graph(6)])
    assert free and idx is None and emb is None


@settings(max_examples=60)
@given(graphs(min_n=1, max_n=6))
def test_localized_checks_match_global_difference(g):
    """A pattern through the last vertex exists iff adding it created one."""
    from p6c4.graphs import induced_subgraph

    w = g.n - 1
    rest, _ = induced_subgraph(g, set(range(g.n)) - {w})
    for pattern in [
        families.cycle_graph(4),
        families.path_graph(4),
        families.path_graph(6),
        families.cycle_graph(5),
    ]:
        through = detect.has_pattern_through(g, pattern, w)
        whole = detect.find_induced_copy(g, pattern) is not None
        without = detect.find_induced_copy(rest, pattern) is not None
        if whole and not without:
            assert through
        if not whole:
            assert not through
        # localized hit always implies a global copy
        if through:
            assert whole


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=6))
def test_has_pattern_through_generic(g):
    w = g.n - 1
    for pattern in [families.complete_graph(3), families.wheel_graph(5)]:
        hit = detect.has_pattern_through(g, pattern, w)
        emb = detect.find_induced_copy(g, pattern)
        assert hit == any(w in vmap for vmap in brute_induced_copies(g, pattern))
        if hit:
            assert emb is not None


def test_verify_embedding_rejects_bad_maps():
    g = families.cycle_graph(5)
    p3 = families.path_graph(3)
    assert detect.verify_embedding(g, p3, detect.Embedding(3, (0, 1, 2)))
    assert not detect.verify_embedding(g, p3, detect.Embedding(3, (0, 1, 1)))
    assert not detect.verify_embedding(g, p3, detect.Embedding(3, (0, 2, 4)))
