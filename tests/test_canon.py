"""Canonical labeling: invariance, completeness, and the isomorphism map."""

import itertools
import random

from hypothesis import given, settings, strategies as st

from conftest import all_graphs, brute_isomorphic, graphs
from p6c4 import canon, families
from p6c4.graphs import Graph


def test_code_is_permutation_invariant():
    rng = random.Random(11)
    for g in [
        families.petersen_graph(),
        families.wheel_graph(5),
        families.specific_base(),
        families.blowup(families.path_graph(3), (2, 1, 3)),
    ]:
        code = canon.canonical_code(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canon.canonical_code(g.relabel(perm)) == code


def test_code_separates_all_small_classes():
    """On <= 5 vertices the code is a complete isomorphism invariant."""
    for n in range(6):
        by_code = {}
        for g in all_graphs(n):
            by_code.setdefault(canon.canonical_code(g), g)
        # every pair with distinct codes must be non-isomorphic
        reps = list(by_code.values())
        for a, b in itertools.combinations(reps, 2):
            assert not brute_isomorphic(a, b)
        # count of classes on n vertices (OEIS A000088): 1,1,2,4,11,34
        assert len(reps) == [1, 1, 2, 4, 11, 34][n]


@settings(max_examples=80)
@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_is_isomorphic_matches_brute_force(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canon.is_isomorphic(g, g.relabel(perm))
    # flipping one adjacency must break isomorphism whenever m changes
    if g.n >= 2:
        u, v = 0, 1
        adj = list(g.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        h = Graph(g.n, tuple(adj))
        assert canon.is_isomorphic(g, h) == brute_isomorphic(g, h)


def test_isomorphism_map_is_an_isomorphism():
    rng = random.Random(3)
    for g in [families.petersen_graph(), families.wheel_graph(5), families.complete_graph(6)]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        f = canon.isomorphism_map(g, h)
        assert f is not None
        for u, v in itertools.combinations(range(g.n), 2):
            assert g.has_edge(u, v) == h.has_edge(f[u], f[v])


def test_isomorphism_map_none_for_nonisomorphic():
    assert canon.isomorphism_map(families.path_graph(4), families.cycle_graph(4)) is None


def test_canonical_order_is_a_permutation():
    g = families.blowup(families.cycle_graph(5), (2, 1, 1, 2, 1))
    order = canon.canonical_order(g)
    assert sorted(order) == list(range(g.n))


def test_highly_symmetric_graphs_are_fast_enough():
    # cliques and complete multipartite blow-ups stress orbit pruning
    for g in [
        families.complete_graph(12),
        families.blowup(families.complete_graph(3), (4, 4, 4)),
        families.blowup(families.cycle_graph(5), (2, 2, 2, 2, 2)),
    ]:
        assert canon.canonical_code(g)  # completes without blowing up


def test_code_distinguishes_petersen_from_random_cubic():
    pet = families.petersen_graph()
    # another 3-regular graph on 10 vertices: the 5-prism plus swapped rungs
    prism = Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
    assert canon.canonical_code(pet) != canon.canonical_code(prism)


def _group(n, gens):
    """The permutation group ``gens`` generate, by closure."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        a = todo.pop()
        for s in gens:
            img = tuple(s[a[v]] for v in range(n))
            if img not in group:
                group.add(img)
                todo.append(img)
    return group


def test_automorphism_generators_generate_the_automorphism_group():
    """Each generator is an automorphism; on <= 5 vertices they generate all
    of Aut(g), so orbit pruning in the enumerator loses nothing there."""
    for n in range(6):
        for g in all_graphs(n):
            aut = {
                p
                for p in itertools.permutations(range(n))
                if all(
                    g.has_edge(p[u], p[v]) == g.has_edge(u, v)
                    for u, v in itertools.combinations(range(n), 2)
                )
            }
            gens = canon.automorphism_generators(g)
            assert set(gens) <= aut
            assert _group(n, gens) == aut


def test_automorphism_generators_of_symmetric_graphs():
    for g, order in [(families.petersen_graph(), 120), (families.cycle_graph(7), 14)]:
        gens = canon.automorphism_generators(g)
        assert all(g.relabel(s) == g for s in gens)
        assert len(_group(g.n, gens)) == order
