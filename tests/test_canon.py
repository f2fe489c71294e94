"""Canonical labeling: invariance, completeness, and the isomorphism map."""

import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_graphs, blowup, brute_isomorphic, empty_graph, graphs, stack_depth
from p6c4 import canon, codec, families
from p6c4.enumeration import enumerate_family, p6c4_config
from p6c4.graphs import Graph, bits

GOLDEN_CANON = Path(__file__).parent / "data" / "golden" / "canon-family-n7.txt"


def test_code_is_permutation_invariant():
    rng = random.Random(11)
    for g in [
        families.petersen_graph(),
        families.wheel_graph(5),
        families.specific_base(),
        blowup(families.path_graph(3), (2, 1, 3)),
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
    g = blowup(families.cycle_graph(5), (2, 1, 1, 2, 1))
    order = canon.canonical_order(g)
    assert sorted(order) == list(range(g.n))


def test_highly_symmetric_graphs_are_fast_enough():
    # cliques and complete multipartite blow-ups stress orbit pruning
    for g in [
        families.complete_graph(12),
        blowup(families.complete_graph(3), (4, 4, 4)),
        blowup(families.cycle_graph(5), (2, 2, 2, 2, 2)),
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


# -- reference refinement --------------------------------------------------


def _reference_refine(nbrs, colors):
    """The plain rule: rank every vertex by (own colour, sorted neighbour
    colours) each round, until no class splits."""
    while True:
        sigs = [
            (c, tuple(sorted([colors[u] for u in nb]))) for c, nb in zip(colors, nbrs)
        ]
        ranked = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(ranked)}
        new = [rank[s] for s in sigs]
        if len(ranked) == len(set(colors)):
            return new
        colors = new


def _reference_canonical(g):
    """``canon._canonical`` with every class re-ranked in every round: the
    reference for the cell refinement and the ablation of its skipping the
    classes that cannot split."""
    n, adj = g.n, g.adj
    if n == 0:
        return b"\x00\x00\x00\x00", (), ()
    nbrs = [list(bits(row)) for row in adj]
    best_code = best_order = None
    gens = []

    def rec(colors, path):
        nonlocal best_code, best_order
        colors = _reference_refine(nbrs, colors)
        if max(colors) == n - 1:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            code = canon._code_under(n, adj, order)
            if best_code is None or code < best_code:
                best_code, best_order = code, order
            elif code == best_code:
                aut = [0] * n
                for i in range(n):
                    aut[best_order[i]] = order[i]
                gens.append(tuple(aut))
            return
        size = [0] * n
        for c in colors:
            size[c] += 1
        target = next(c for c in range(n) if size[c] > 1)
        cell = [v for v, c in enumerate(colors) if c == target]
        branched = []
        known, orbit = 0, None
        for v in cell:
            if branched and gens:
                if len(gens) != known:
                    known = len(gens)
                    orbit = canon.orbits(n, [s for s in gens if all(s[w] == w for w in path)])
                if any(orbit[v] == orbit[u] for u in branched):
                    continue
            branched.append(v)
            child = [2 * c for c in colors]
            child[v] = 2 * colors[v] - 1
            rec(child, path + (v,))

    rec([0] * n, ())
    return best_code, tuple(best_order), tuple(gens)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=16))
def test_cell_refinement_matches_reference(g):
    assert canon._canonical(g) == _reference_canonical(g)


def test_cell_refinement_matches_reference_on_family8(family8):
    assert len(family8) == 2036
    for g in family8:
        assert canon._canonical(g) == _reference_canonical(g)


def _named_graphs():
    yield families.petersen_graph()
    yield Graph.from_edges(6, [(i, j) for i in range(3) for j in (3, 4, 5)])  # K_{3,3}
    rng = random.Random(17)
    base = families.specific_base()
    for sizes in [(1,) * base.n, (2,) + (1,) * (base.n - 1)]:
        yield blowup(base, sizes)
    for _ in range(6):
        yield blowup(base, [rng.randint(0, 2) for _ in range(base.n)])
    yield empty_graph(0)
    for n in range(1, 13):
        yield families.path_graph(n)
        yield families.complete_graph(n)
        yield empty_graph(n)
        if n >= 3:
            yield families.cycle_graph(n)


def test_cell_refinement_matches_reference_on_named_graphs():
    for g in _named_graphs():
        assert canon._canonical(g) == _reference_canonical(g), g


def test_search_needs_no_recursion():
    """A perfect matching on 40 vertices individualizes 20 levels deep."""
    g = Graph.from_edges(40, [(2 * i, 2 * i + 1) for i in range(20)])
    want = _reference_canonical(g)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 15)  # below the search depth
    try:
        code = canon.canonical_code(g)
    finally:
        sys.setrecursionlimit(limit)
    assert code == want[0]
    assert g._canon == want


# -- early stop on a known leaf code ---------------------------------------


def _search_known(g, known):
    """:func:`canon._search` on ``g`` with the dict ``known``."""
    return canon._search(g.n, g.adj, [list(bits(row)) for row in g.adj], known)


def _leaves(g, known):
    """``_search_known(g, known)`` and the codes of the leaves it reached."""
    codes = []
    real = canon._code_under

    def recorded(*args):
        codes.append(real(*args))
        return codes[-1]

    canon._code_under = recorded
    try:
        return _search_known(g, known), codes
    finally:
        canon._code_under = real


def _counting_leaves(g, known):
    """``_search_known(g, known)`` and the number of leaves it reached."""
    result, codes = _leaves(g, known)
    return result, len(codes)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _check_early_stop(g, rng):
    """Once ``g``'s search has filled ``known``, a relabelling of ``g`` stops
    at its first leaf with ``g``'s code, and a graph with one pair flipped
    (another edge count, so not isomorphic) gets the triple it gets
    without ``known``."""
    known = {}
    want = canon._canonical(g)
    assert _search_known(g, known) == want
    assert _counting_leaves(_shuffled(g, rng), known) == (want[0], 1)
    if g.n >= 2:
        u, v = rng.sample(range(g.n), 2)
        h = _flip(g, u, v)
        assert _search_known(h, dict(known)) == canon._canonical(h)


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=10), st.randoms(use_true_random=False))
def test_known_leaf_code_stops_a_relabelling_at_its_first_leaf(g, rng):
    _check_early_stop(g, rng)


def test_known_leaf_code_stops_at_the_first_leaf_on_named_graphs():
    rng = random.Random(29)
    for g in _named_graphs():
        _check_early_stop(g, rng)


def test_one_known_dict_across_the_family():
    """The family members with n <= 7 are pairwise non-isomorphic: sharing
    one ``known`` dict, each gets the triple it gets alone, and afterwards
    a relabelling of each stops at its first leaf with that graph's code."""
    rng = random.Random(31)
    family = list(enumerate_family(p6c4_config(n_max=7)))
    known = {}
    for g in family:
        fresh = codec.from_graph6(codec.to_graph6(g))
        assert _search_known(fresh, known) == canon._canonical(fresh)
    for g in family:
        assert _counting_leaves(_shuffled(g, rng), known) == (canon.canonical_code(g), 1)


def test_a_known_dict_maps_leaf_codes_to_their_class():
    """A completed search maps every leaf code it met, and no other, to
    the code it found: its leaves are those of the search without
    ``known``.  A relabelling's search returns that code at its first
    leaf.  ``canonical_code`` takes no ``known``."""
    rng = random.Random(37)
    for g in _named_graphs():
        known = {}
        want, leaves = _leaves(g, known)
        assert want == canon._canonical(g)
        assert known == dict.fromkeys(leaves, want[0])
        h = _shuffled(g, rng)
        assert _counting_leaves(h, known) == (want[0], 1)
    with pytest.raises(TypeError):
        canon.canonical_code(g, known=known)


# -- networkx oracle -------------------------------------------------------


def _to_nx(nx, g):
    gx = nx.Graph()
    gx.add_nodes_from(range(g.n))
    gx.add_edges_from(g.edges())
    return gx


def _flip(g, u, v):
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def _oracle_hosts(rng):
    for n in range(10, 41, 3):
        for p in (0.15, 0.5):
            yield Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
        yield Graph.from_edges(n, [(i, (i + j) % n) for i in range(n) for j in (1, 3)])
    yield families.petersen_graph()
    yield blowup(families.cycle_graph(5), (2, 3, 2, 3, 2))
    yield blowup(families.specific_base(), (2,) + (1,) * 10)


def test_canon_agrees_with_networkx_isomorphism():
    """On n = 10..40, beyond the brute-force oracles: a random relabelling
    keeps the code; flipping one pair of ``g`` and flipping another pair of
    the same kind (half the time its image under an automorphism found)
    give equal codes exactly when networkx finds the results isomorphic;
    and every generator preserves adjacency."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    agree = differ = 0
    for g in _oracle_hosts(rng):
        n = g.n
        code = canon.canonical_code(g)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canon.canonical_code(g.relabel(perm)) == code
        gens = canon.automorphism_generators(g)
        assert all(g.relabel(s) == g for s in gens)
        for _ in range(4):
            u, v = rng.sample(range(n), 2)
            if gens and rng.random() < 0.5:
                x, y = u, v
                for _ in range(3):
                    s = rng.choice(gens)
                    x, y = s[x], s[y]
            else:
                x, y = rng.choice(
                    [(a, b) for a, b in itertools.combinations(range(n), 2)
                     if g.has_edge(a, b) == g.has_edge(u, v)]
                )
            h1, h2 = _flip(g, u, v), _flip(g, x, y)
            same = nx.is_isomorphic(_to_nx(nx, h1), _to_nx(nx, h2))
            assert (canon.canonical_code(h1) == canon.canonical_code(h2)) == same
            agree += same
            differ += not same
    assert agree and differ  # both outcomes were exercised


# -- golden file -----------------------------------------------------------


def _render_canon_golden() -> bytes:
    """One line per (P6,C4)-free family member with n <= 7, decoded afresh
    from graph6: the graph6 line, the canonical code in hex, the canonical
    order, and the automorphism generators in the order the search found
    them (``;`` between generators, ``-`` when there are none)."""
    lines = []
    for member in enumerate_family(p6c4_config(n_max=7)):
        line = codec.to_graph6(member)
        g = codec.from_graph6(line)
        order = ",".join(map(str, canon.canonical_order(g)))
        gens = ";".join(",".join(map(str, s)) for s in canon.automorphism_generators(g))
        lines.append(f"{line} {canon.canonical_code(g).hex()} {order} {gens or '-'}\n")
    return "".join(lines).encode()


def test_canon_matches_golden():
    """Codes, orders and generators are pinned byte for byte, so a change
    to the search cannot alter them silently.  To record the file again,
    run ``PYTHONPATH=src python3 tests/test_canon.py``."""
    assert _render_canon_golden() == GOLDEN_CANON.read_bytes()


if __name__ == "__main__":
    GOLDEN_CANON.write_bytes(_render_canon_golden())
    print(f"recorded {GOLDEN_CANON.name}", file=sys.stderr)
