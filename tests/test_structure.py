"""Five-cycle attachment laws, separators, decomposition, and recognition."""

import functools
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_graphs, blowup, components, count_calls, graphs, stack_depth
from p6c4 import canon, codec, detect, families, structure
from p6c4.graphs import Graph, bits, induced_subgraph, mask_of

GOLDEN_LAWS = Path(__file__).parent / "data" / "golden" / "laws-random.txt"

def ring5(extra_n, extra_edges):
    """C5 on 0..4 plus extra vertices 5.. with the given attachments."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + extra_edges
    return Graph.from_edges(5 + extra_n, edges)


def base_ring(g):
    for c in structure.find_all_c5(g):
        if set(c.ring) == set(range(5)):
            return c
    raise AssertionError("expected the 0..4 ring to stay induced")


def report(g):
    c = base_ring(g)
    return structure.check_properties(g, c)


def test_find_all_c5():
    assert structure.find_all_c5(families.path_graph(5)) == []
    rings = structure.find_all_c5(families.petersen_graph())
    assert len(rings) == 12
    for c in rings:
        c.validate(families.petersen_graph())


def test_c5_embedding_validate_rejects_chords():
    g = families.wheel_graph(5)
    with pytest.raises(ValueError):
        structure.C5Embedding((0, 1, 2, 3, 5)).validate(g)  # 5 is the hub


def test_classify_buckets():
    g = ring5(4, [(5, 0), (6, 0), (6, 1), (7, 4), (7, 0), (7, 1), (8, 0), (8, 1), (8, 2), (8, 3), (8, 4)])
    p = structure.classify(g, base_ring(g))
    assert p.s1_at[0] == 1 << 5
    assert p.s2_at[0] == 1 << 6
    assert p.s3_at[0] == 1 << 7
    assert p.s[5] == 1 << 8
    assert p.s[0] == 0


def test_classify_nonconsecutive_pairs_stay_unbucketed():
    g = ring5(1, [(5, 0), (5, 2)])  # distance-2 pair: no s2 bucket
    p = structure.classify(g, base_ring(g))
    assert p.s[2] == 1 << 5
    assert all(not b for b in p.s2_at)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.data())
def test_classify_matches_definition(extra, data):
    """Each bucket of classify, against the ring neighbours of each vertex
    counted directly, on a C5 plus random vertices with shuffled labels."""
    n = 5 + extra
    pairs = [(u, v) for v in range(5, n) for u in range(v)]
    flags = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = data.draw(st.permutations(range(n)))
    g = ring5(extra, [e for e, on in zip(pairs, flags) if on]).relabel(tuple(perm))
    ring = tuple(perm[:5])
    p = structure.classify(g, structure.C5Embedding(ring))
    hits = {
        v: {i for i in range(5) if g.has_edge(v, ring[i])}
        for v in range(n)
        if v not in ring
    }

    def bucket(test):
        return mask_of(v for v, h in hits.items() if test(h))

    for count in range(6):
        assert p.s[count] == bucket(lambda h: len(h) == count)
    for i in range(5):
        assert p.s1_at[i] == bucket(lambda h: h == {i})
        assert p.s2_at[i] == bucket(lambda h: h == {i, (i + 1) % 5})
        assert p.s3_at[i] == bucket(lambda h: h == {(i - 1) % 5, i, (i + 1) % 5})


# -- single-property violation examples ---------------------------------------


def test_p0_two_nonadjacent_full_vertices():
    g = ring5(2, [(5, i) for i in range(5)] + [(6, i) for i in range(5)])
    assert report(g)["P0"] == structure.Verdict("violated", (5, 6))


def test_p0_s4_must_be_empty():
    g = ring5(1, [(5, 0), (5, 1), (5, 2), (5, 3)])
    assert report(g)["P0"] == structure.Verdict("violated", (5,))


def test_p1_distance_two_complete():
    g = ring5(2, [(5, 0), (6, 2)])
    assert report(g)["P1"] == structure.Verdict("violated", (5, 6))


def test_p1_consecutive_anticomplete():
    g = ring5(2, [(5, 0), (6, 1), (5, 6)])
    assert report(g)["P1"] == structure.Verdict("violated", (5, 6))


def test_p2_consecutive_complete():
    g = ring5(2, [(5, 0), (5, 1), (6, 1), (6, 2)])
    assert report(g)["P2"] == structure.Verdict("violated", (5, 6))
    # the theory survives: this host is not P6-free
    assert detect.find_induced_path(g, 6) is not None


def test_p2_distance_two_anticomplete():
    g = ring5(2, [(5, 0), (5, 1), (6, 2), (6, 3), (5, 6)])
    assert report(g)["P2"] == structure.Verdict("violated", (5, 6))


def test_p3_s3_distance_two_anticomplete():
    g = ring5(2, [(5, 4), (5, 0), (5, 1), (6, 1), (6, 2), (6, 3), (5, 6)])
    assert report(g)["P3"] == structure.Verdict("violated", (5, 6))


def test_p4_s1_anticomplete_to_most_s2():
    g = ring5(2, [(5, 0), (6, 1), (6, 2), (5, 6)])
    assert report(g)["P4"] == structure.Verdict("violated", (5, 6))


def test_p4_neighbor_must_be_universal_in_bucket():
    # 6 and 7 both in s2(2); 5 in s1(0) adjacent to 6 only
    g = ring5(3, [(5, 0), (6, 2), (6, 3), (7, 2), (7, 3), (5, 6), (6, 7)])
    rep = report(g)
    assert rep["P4"].status == "holds"
    g2 = ring5(3, [(5, 0), (6, 2), (6, 3), (7, 2), (7, 3), (5, 6)])
    assert report(g2)["P4"] == structure.Verdict("violated", (6, 7))


def test_p5_s1_anticomplete_s3():
    g = ring5(2, [(5, 0), (6, 1), (6, 2), (6, 3), (5, 6)])
    assert report(g)["P5"] == structure.Verdict("violated", (5, 6))


def test_p6_s2_anticomplete_s3():
    g = ring5(2, [(5, 2), (5, 3), (6, 4), (6, 0), (6, 1), (5, 6)])
    assert report(g)["P6"] == structure.Verdict("violated", (5, 6))


def test_p7_coexistence_ban():
    g = ring5(2, [(5, 0), (6, 3), (6, 4)])
    assert report(g)["P7"] == structure.Verdict("violated", (5, 6))


def test_p8_three_bucket_ban():
    g = ring5(3, [(5, 4), (5, 0), (6, 0), (6, 1), (7, 2), (7, 3), (5, 6)])
    assert report(g)["P8"].status == "violated"


def test_p9_flanking_s1_forces_empty_s2():
    g = ring5(3, [(5, 4), (6, 1), (7, 2), (7, 3)])
    assert report(g)["P9"].status == "violated"


def test_p10_mixed_attachment():
    g = ring5(3, [(5, 4), (5, 0), (5, 1), (6, 1), (6, 2), (7, 3), (7, 4), (5, 6)])
    assert report(g)["P10"] == structure.Verdict("violated", (5, 6, 7))


def test_p11_s1_concentrates():
    g = ring5(3, [(5, 0), (6, 2), (6, 3), (5, 6), (7, 1)])
    assert report(g)["P11"] == structure.Verdict("violated", (5, 6, 7))


def test_p12_needs_no_clique_cutset():
    # 5 in s1(0) held in place by an s2(2) anchor; 7 in s3(0) non-adjacent to 5
    g = ring5(3, [(5, 0), (6, 2), (6, 3), (5, 6), (7, 4), (7, 0), (7, 1)])
    assert structure.find_clique_cutset(g) is None
    assert report(g)["P12"] == structure.Verdict("violated", (5, 7))
    # with a clique cutset the law is out of scope
    g2 = ring5(2, [(5, 0), (6, 4), (6, 0), (6, 1)])
    assert structure.find_clique_cutset(g2) is not None
    assert report(g2)["P12"].status == "not-applicable"


def test_o5_laws_gate_on_w5():
    w5 = families.wheel_graph(5)
    rep = structure.check_properties(w5, base_ring(w5))
    assert rep["O5.1"].status == "not-applicable"

    # o5.1: flanking s1 buckets force s3(i) to avoid them
    g = ring5(3, [(5, 4), (6, 1), (7, 4), (7, 0), (7, 1), (5, 7)])
    rep = report(g)
    assert rep["O5.1"].status == "violated"

    # o5.2: s2(i-1), s2(i) nonempty force s3(i) complete to both
    g = ring5(3, [(5, 4), (5, 0), (6, 0), (6, 1), (7, 4), (7, 0), (7, 1), (6, 7)])
    rep = report(g)
    assert rep["O5.2"].status == "violated"

    # o5.3: an s1-s2 edge keeps neighboring s3 buckets away from both ends
    g = ring5(3, [(5, 0), (6, 2), (6, 3), (5, 6), (7, 0), (7, 1), (7, 2), (5, 7)])
    rep = report(g)
    assert rep["O5.3"].status == "violated"


def test_w5_all_laws_hold():
    w5 = families.wheel_graph(5)
    rep = structure.check_properties(w5, base_ring(w5))
    for name, verdict in rep.items():
        if name.startswith("O5"):
            assert verdict.status == "not-applicable"
        else:
            assert verdict.status == "holds", (name, verdict)


def test_property_sweep_small_family(small_free_family):
    """P0..P11 hold for every C5 of every small (P6,C4)-free graph."""
    unconditional = [f"P{i}" for i in range(12)]
    for g in small_free_family:
        for c in structure.find_all_c5(g):
            rep = structure.check_properties(g, c)
            for name in unconditional:
                assert rep[name].status == "holds", (g.edges(), c.ring, name)
            for name in ("P12", "O5.1", "O5.2", "O5.3"):
                assert rep[name].status in ("holds", "not-applicable")


def test_report_to_json_shape():
    rep = report(ring5(1, [(5, 0)]))
    doc = structure.report_to_json(rep)
    assert doc["P7"]["status"] == "holds"
    assert set(doc) == set(rep)


# -- domination ----------------------------------------------------------------


def test_is_dominating():
    g = families.wheel_graph(5)
    assert structure.is_dominating(g, [5])
    assert structure.is_dominating(g, [0, 2])
    assert not structure.is_dominating(families.path_graph(5), [0])


# -- separators and decomposition -----------------------------------------------


def _brute_minimal_separators(g):
    found = set()
    verts = range(g.n)
    for r in range(g.n - 1):
        for s in itertools.combinations(verts, r):
            s = frozenset(s)
            rest, vmap = induced_subgraph(g, set(verts) - s)
            comps = components(rest)
            if len(comps) < 2:
                continue
            full = 0
            for comp in comps:
                cv = {vmap[i] for i in comp}
                nb = set()
                for v in cv:
                    nb.update(g.neighbors(v))
                if nb & s == s:
                    full += 1
            if full >= 2:
                found.add(s)
    return found


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_minimal_separators_match_brute_force(g):
    # the closure algorithm targets connected graphs; the disconnected
    # case (empty separator) is handled by find_clique_cutset directly
    assume(g.is_connected())
    ours = set(structure.minimal_separators(g))
    assert ours == _brute_minimal_separators(g)


def _brute_has_clique_cutset(g):
    if not g.is_connected():
        return g.n > 1
    for r in range(g.n - 1):
        for s in itertools.combinations(range(g.n), r):
            if not g.is_clique(sum(1 << v for v in s)):
                continue
            rest, _ = induced_subgraph(g, set(range(g.n)) - set(s))
            if len(components(rest)) > 1:
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_find_clique_cutset_matches_brute_force(g):
    res = structure.find_clique_cutset(g)
    assert (res is not None) == _brute_has_clique_cutset(g)
    if res is not None:
        cutset, side, rest = res
        assert g.is_clique(sum(1 << v for v in cutset))
        assert side and rest
        assert not (side & rest)
        assert side | rest | cutset == set(range(g.n))
        # no edges straddle the split
        for u in side:
            for v in rest:
                assert not g.has_edge(u, v)


def test_find_clique_cutset_examples():
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4)])
    cutset, _, _ = structure.find_clique_cutset(bowtie)
    assert cutset == {2}
    assert structure.find_clique_cutset(families.cycle_graph(5)) is None
    assert structure.find_clique_cutset(families.complete_graph(4)) is None
    two = Graph.from_edges(2, [])
    cutset, side, rest = structure.find_clique_cutset(two)
    assert cutset == frozenset()


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=7))
def test_decompose_covers_and_separates(g):
    tree = structure.decompose(g)
    atoms = structure.atom_list(tree)
    covered = set().union(*(set(a) for a in atoms))
    assert covered == set(range(g.n))
    for u, v in g.edges():
        assert any(u in a and v in a for a in atoms)
    for a in atoms:
        sub, _ = induced_subgraph(g, a)
        assert structure.find_clique_cutset(sub) is None


def _reference_clique_cutset(g):
    """find_clique_cutset as it was before MCS-M: the first clique among all
    minimal separators of ``g``, in (size, sorted vertices) order."""
    if g.n == 0:
        return None
    comps = components(g)
    if len(comps) > 1:
        return frozenset(), comps[0], frozenset().union(*comps[1:])
    for sep in structure.minimal_separators(g):
        if g.is_clique(mask_of(sep)):
            rest, vmap = induced_subgraph(g, set(range(g.n)) - sep)
            comp = next(c for c in components(rest) if 0 in c)
            side = frozenset(vmap[i] for i in comp)
            return sep, side, frozenset(vmap) - side
    return None


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=0, max_n=12))
def test_find_clique_cutset_matches_reference(g):
    assert structure.find_clique_cutset(g) == _reference_clique_cutset(g)


def test_find_clique_cutset_matches_reference_on_family8(family8):
    assert len(family8) == 2036
    for g in family8:
        assert structure.find_clique_cutset(g) == _reference_clique_cutset(g)


def _relabelled_candidates(g, perm):
    """MCS-M's candidates on ``g`` relabelled by ``perm``, mapped back to
    the vertex ids of ``g``."""
    back = []
    h = g.relabel(perm)
    for m in structure.mcs_m_separators(h, h.full_mask()):
        back.append(mask_of(v for v in range(g.n) if m >> perm[v] & 1))
    return back


# The clique candidates must not depend on how MCS-M breaks ties, even
# though the triangulation, and so the full candidate list, does.  MCS-M
# always takes the lowest vertex on ties, so relabelling the graph is what
# changes the tie-breaks.
@settings(max_examples=120, deadline=None)
@given(graphs(min_n=1, max_n=10), st.integers(0, 2**32))
def test_mcs_m_separators_are_minimal_separators(g, seed):
    assume(g.is_connected())
    seps = {mask_of(s) for s in structure.minimal_separators(g)}
    cliques = {m for m in seps if g.is_clique(m)}
    rng = random.Random(seed)
    perms = [tuple(range(g.n)), tuple(reversed(range(g.n)))]
    perms += [tuple(rng.sample(range(g.n), g.n)) for _ in range(3)]
    for perm in perms:
        found = _relabelled_candidates(g, perm)
        assert len(found) < max(g.n, 1)
        assert set(found) <= seps
        assert {m for m in found if g.is_clique(m)} == cliques


def test_mcs_m_separators_examples():
    # A clique raises every label: no generator, no separator.
    k5 = families.complete_graph(5)
    assert structure.mcs_m_separators(k5, k5.full_mask()) == []
    # A path's minimal separators are its inner vertices.
    p6 = families.path_graph(6)
    found = structure.mcs_m_separators(p6, p6.full_mask())
    assert sorted(found) == [1 << v for v in range(1, 5)]
    # C5 triangulates into a fan; its two chords' ends separate.
    c5 = families.cycle_graph(5)
    assert all(m.bit_count() == 2 for m in structure.mcs_m_separators(c5, c5.full_mask()))


def test_cutset_memo_second_call_runs_no_search(monkeypatch):
    calls = count_calls(monkeypatch, structure, "_clique_cutset")
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4)])
    first = structure.find_clique_cutset(bowtie)
    assert structure.find_clique_cutset(bowtie) is first
    assert len(calls) == 1
    # a fresh but equal graph starts with an empty memo
    structure.find_clique_cutset(Graph(bowtie.n, bowtie.adj))
    assert len(calls) == 2


def test_cutset_memo_keeps_a_none_answer(monkeypatch):
    calls = count_calls(monkeypatch, structure, "_clique_cutset")
    g = families.petersen_graph()
    assert g._cutset is False
    assert structure.find_clique_cutset(g) is None
    assert g._cutset is None
    assert structure.find_clique_cutset(g) is None
    assert len(calls) == 1


def test_cutset_memo_does_not_affect_equality_or_hashing():
    a = families.path_graph(4)
    b = families.path_graph(4)
    structure.find_clique_cutset(a)
    assert a._cutset and b._cutset is False
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_induced_subgraphs_start_without_a_cutset_memo():
    g = families.path_graph(5)
    structure.find_clique_cutset(g)
    sub, _ = induced_subgraph(g, range(g.n))
    assert sub == g and sub._cutset is False
    assert structure.find_clique_cutset(sub) == g._cutset


def test_decompose_deep_path_needs_no_recursion():
    n = 300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)  # far below the tree depth
    try:
        tree = structure.decompose(families.path_graph(n))
        atoms = structure.atom_list(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert atoms == [(v, v + 1) for v in range(n - 1)]
    depth, node = 0, tree
    while node.children:
        assert node.cutset == (depth + 1,)
        assert [ch.vertices[0] for ch in node.children] == [depth, depth + 1]
        depth, node = depth + 1, node.children[1]
    assert depth == n - 2


def test_decompose_tree_shape():
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4)])
    tree = structure.decompose(bowtie)
    doc = tree.to_json()
    assert doc["cutset"] == [2]
    assert len(doc["children"]) == 2
    assert sorted(structure.atom_list(tree)) == [(0, 1, 2), (2, 3, 4)]
    atom = structure.decompose(families.complete_graph(3))
    assert atom.children == ()
    assert structure.atom_list(atom) == [(0, 1, 2)]


def _reference_decompose(g):
    """decompose as it was before the host's separators served every piece:
    each piece is split along find_clique_cutset of its induced subgraph."""

    def split(vset):
        sub, vmap = induced_subgraph(g, vset)
        hit = structure.find_clique_cutset(sub)
        if hit is None:
            return None, ()
        cut_mask = mask_of(hit[0])
        remaining = sub.full_mask() & ~cut_mask
        pieces = []
        while remaining:
            comp = sub.component_mask((remaining & -remaining).bit_length() - 1, remaining)
            pieces.append(tuple(vmap[i] for i in bits(comp | cut_mask)))
            remaining &= ~comp
        return tuple(vmap[i] for i in bits(cut_mask)), pieces

    def build(vset):
        cut, pieces = split(vset)
        return structure.CutsetNode(vset, cut, tuple(build(p) for p in pieces))

    return build(tuple(range(g.n)))


def _pieces(tree):
    """Every node of ``tree`` with its parent (None at the root)."""
    todo = [(tree, None)]
    while todo:
        node, parent = todo.pop()
        yield node, parent
        todo.extend((ch, node) for ch in node.children)


def _sparse_graph(seed):
    """A seeded graph with up to 30 vertices and at most 1.5 edges per
    vertex: forests, short cycles and several components are all common."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, rng.sample(pairs, min(len(pairs), rng.randint(0, 3 * n // 2))))


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=0, max_n=14))
def test_decompose_matches_reference(g):
    assert structure.decompose(g) == _reference_decompose(g)


def test_decompose_matches_reference_on_family8(family8):
    for g in family8:
        assert structure.decompose(g) == _reference_decompose(g)


def test_decompose_matches_reference_on_sparse_graphs():
    disconnected = 0
    for seed in range(300):
        g = _sparse_graph(seed)
        disconnected += not g.is_connected()
        assert structure.decompose(g) == _reference_decompose(g), seed
    assert disconnected > 100


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=10))
def test_host_separators_that_separate_a_piece_are_its_own(g):
    """The lemma behind decompose: at every piece P, the host's clique
    minimal separators that separate P are exactly the clique minimal
    separators of g[P].  Also, inside the scan from just after the parent's
    cutset, every candidate within P separates it, and every component of
    P minus the cutset sees the whole cutset."""
    seps = structure._clique_separators(g)
    for node, parent in _pieces(structure.decompose(g)):
        piece = mask_of(node.vertices)
        sub, vmap = induced_subgraph(g, node.vertices)
        own = {mask_of(vmap[i] for i in sep) for sep in structure.minimal_separators(sub)}
        own = {m for m in own if g.is_clique(m)}
        if not sub.is_connected():
            own.add(0)
        separating = {
            m for m in seps if structure._split(g, [m], piece, 0)[0] is not None
        }
        assert separating == own
        start = 0 if parent is None else seps.index(mask_of(parent.cutset)) + 1
        inside = [m for m in seps[start:] if not m & ~piece]
        assert all(m in own for m in inside)
        if node.cutset:
            cut = mask_of(node.cutset)
            for ch in node.children:
                comp = mask_of(ch.vertices) & ~cut
                assert all(g.adj[t] & comp for t in node.cutset)


def test_suffix_scan_ablation(monkeypatch):
    """Scanning every candidate at every piece gives the same tree as
    scanning only those after the parent's cutset."""
    graphs_ = [_sparse_graph(seed) for seed in range(120)]
    graphs_ += [families.path_graph(40), families.specific_base()]
    suffix = [structure.decompose(g) for g in graphs_]
    split = structure._split
    monkeypatch.setattr(
        structure, "_split", lambda g, seps, piece, start: split(g, seps, piece, 0)
    )
    assert [structure.decompose(g) for g in graphs_] == suffix


def test_decompose_triangulates_once_per_component(monkeypatch):
    mcs = count_calls(monkeypatch, structure, "mcs_m_separators")
    sub = count_calls(monkeypatch, structure, "induced_subgraph")
    path = families.path_graph(50)
    structure.decompose(path)
    assert len(mcs) == 1 and mcs[0][0] is path and mcs[0][1] == path.full_mask()
    # a path, a triangle, an isolated vertex and an edge: one pass on
    # each component's mask
    g = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (8, 9)])
    structure.decompose(g)
    assert [m for _, m in mcs[1:]] == [0b1111, 0b111 << 4, 1 << 7, 0b11 << 8]
    assert sub == []  # no input, connected or not, is copied out


def test_decompose_disconnected_and_nested_cutsets():
    # two triangles sharing vertex 1, a pendant edge, an isolated vertex
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (1, 3), (3, 4), (1, 4), (5, 6)])
    tree = structure.decompose(g)
    assert tree.cutset == ()
    assert [ch.vertices for ch in tree.children] == [(0, 1, 2, 3, 4), (5, 6)]
    assert structure.atom_list(tree) == [(0, 1, 2), (1, 3, 4), (5, 6)]
    # a cutset that strictly contains its parent's: {0, 1} splits the
    # common neighbours 2, 3, 4 after {0} cuts off the pendant 5
    nested = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (0, 5)]
    )
    tree = structure.decompose(nested)
    assert tree.cutset == (0,)
    assert tree.children[0].cutset == (0, 1)
    assert structure.atom_list(tree) == [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 5)]


# -- blow-up recognition ---------------------------------------------------------


def _all_blowup_codes(n_max):
    base = families.specific_base()
    codes = set()
    for total in range(n_max + 1):
        for combo in itertools.combinations_with_replacement(range(base.n), total):
            sizes = [0] * base.n
            for v in combo:
                sizes[v] += 1
            codes.add(canon.canonical_code(blowup(base, sizes)))
    return codes


def test_is_specific_matches_blowup_enumeration():
    codes = _all_blowup_codes(5)
    for n in range(6):
        for g in all_graphs(n):
            expect = canon.canonical_code(g) in codes
            assert structure.is_specific(g) == expect, g.edges()


def _reference_twin_quotient(g):
    """Quotient by true-twin classes, with the size of each class."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    reps, cls = [], []
    for v in range(g.n):
        for idx, r in enumerate(reps):
            if closed[v] == closed[r]:
                cls[idx].append(v)
                break
        else:
            reps.append(v)
            cls.append([v])
    q, _ = induced_subgraph(g, reps)
    return q, tuple(len(c) for c in cls)


@functools.lru_cache(maxsize=1)
def _reference_base_quotients():
    """Twin quotients, with class sizes, of all induced subgraphs of the base."""
    base = families.specific_base()
    seen = {}
    for mask in range(1 << base.n):
        sub, _ = induced_subgraph(base, bits(mask))
        q, sizes = _reference_twin_quotient(sub)
        order = canon.canonical_order(q)
        seen.setdefault(canon.canonical_code(q) + bytes(sizes[v] for v in order), (q, sizes))
    return list(seen.values())


def _reference_is_specific(g):
    """is_specific as it was: the twin quotient of ``g`` matched against the
    quotient of every induced subgraph of the base, class by class."""
    if g.n == 0:
        return True
    qg, a = _reference_twin_quotient(g)
    qcode = canon.canonical_code(qg)
    for qb, b in _reference_base_quotients():
        if qb.n != qg.n or canon.canonical_code(qb) != qcode:
            continue
        for e in detect.iter_induced_copies(qb, qg):
            if all(a[i] >= b[j] for i, j in enumerate(e.vmap)):
                return True
    return False


def _least_vertex_order_is_specific(g):
    """is_specific with the twin quotient in order of the classes' least
    vertices, as the induced-copy search received it before it was sorted
    by degree."""
    q, _ = _reference_twin_quotient(g)
    return detect.find_induced_copy(families.specific_base(), q) is not None


def test_is_specific_matches_reference_on_family8(family8):
    for g in family8:
        got = structure.is_specific(g)
        assert got == _reference_is_specific(g) == _least_vertex_order_is_specific(g), g.adj


def test_is_specific_matches_reference_on_random_blowups():
    """Relabelled blow-ups of the base, one edge flipped in half of them."""
    rng = random.Random(1414)
    base = families.specific_base()
    hits = 0
    for i in range(3000):
        g = blowup(base, [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(base.n)])
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabel(tuple(perm))
        if i % 2 and g.n >= 2:
            u, v = rng.sample(range(g.n), 2)
            rows = list(g.adj)
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            g = Graph(g.n, tuple(rows))
        got = structure.is_specific(g)
        assert got == _reference_is_specific(g) == _least_vertex_order_is_specific(g), g.adj
        hits += got
    assert 1500 <= hits < 3000  # every unflipped graph, and some flipped ones


def test_is_specific_examples():
    base = families.specific_base()
    assert structure.is_specific(base)
    assert structure.is_specific(blowup(base, (3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2)))
    assert structure.is_specific(families.petersen_graph())
    assert structure.is_specific(families.complete_graph(7))  # universal clique alone
    pendant_w5 = families.wheel_graph(5).add_vertex(0b000001)
    assert not structure.is_specific(pendant_w5)
    assert not structure.is_specific(families.cycle_graph(4))
    assert not structure.is_specific(families.path_graph(6))


# -- C6 lemma and size bounds ----------------------------------------------------


def test_check_c6_lemma_gates():
    assert structure.check_c6_lemma(families.cycle_graph(4))["status"] == "not-applicable"
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (3, 4)])
    assert structure.check_c6_lemma(bowtie)["status"] == "not-applicable"
    spec = blowup(families.specific_base(), (2,) + (1,) * 10)
    doc = structure.check_c6_lemma(spec)
    assert doc == {"status": "holds", "case": "specific"}
    w5 = families.wheel_graph(5)
    assert structure.check_c6_lemma(w5)["status"] == "holds"


def test_check_c6_lemma_sweep(small_free_family):
    for g in small_free_family:
        assert structure.check_c6_lemma(g)["status"] in ("holds", "not-applicable")


def test_size_bounds_gate_and_hub_count():
    w5 = families.wheel_graph(5)
    doc = structure.check_size_bounds(w5, base_ring(w5), k=3)
    assert doc["status"] == "evaluated" and doc["ok"]
    assert doc["checks"]["s5"] == {"bound": 1, "size": 1, "status": "holds"}

    double_hub = blowup(w5, (1, 1, 1, 1, 1, 2))  # hub pair forms a K4
    doc3 = structure.check_size_bounds(double_hub, base_ring(double_hub), k=3)
    assert doc3["status"] == "not-applicable"
    doc4 = structure.check_size_bounds(double_hub, base_ring(double_hub), k=4)
    assert doc4["status"] == "evaluated" and doc4["ok"]
    assert doc4["checks"]["s5"] == {"bound": 2, "size": 2, "status": "holds"}


def test_size_bounds_sweep(small_free_family):
    for g in small_free_family:
        for c in structure.find_all_c5(g):
            doc = structure.check_size_bounds(g, c, k=3)
            if doc["status"] == "evaluated":
                assert doc["ok"], (g.edges(), c.ring, doc)


def test_size_bounds_search_host_cliques_once_per_k(monkeypatch):
    calls = count_calls(monkeypatch, detect, "has_clique")
    g = blowup(families.specific_base(), (2,) * 11)
    rings = structure.find_all_c5(g)
    assert len(rings) == 384
    statuses = set()
    for k in (3, 6):
        for c in rings:
            statuses.add(structure.check_size_bounds(g, c, k=k)["status"])
    assert [args[1] for args in calls] == [4, 7]
    assert statuses == {"not-applicable", "evaluated"}


# -- golden file -------------------------------------------------------------


def _law_host(seed):
    """C5 plus random attachments: 7 to 11 vertices, each new vertex seeing
    every ring vertex with probability 1/2 and every earlier extra vertex
    with probability 0.3.  Odd seeds keep the host (P6,C4)-free by drawing
    each new vertex's neighbourhood up to 20 times, so the size bounds get
    evaluated too.  The labels are shuffled at the end."""
    rng = random.Random(seed)
    n = 7 + seed % 5
    forbidden = [families.path_graph(6), families.cycle_graph(4)]
    g = families.cycle_graph(5)
    while g.n < n:
        for _ in range(20):
            nbrs = mask_of(u for u in range(g.n) if rng.random() < (0.5 if u < 5 else 0.3))
            h = g.add_vertex(nbrs)
            if seed % 2 == 0 or detect.is_free(h, forbidden)[0]:
                break
        g = h
    perm = list(range(n))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


_STATUS = {"holds": "h", "violated": "v", "not-applicable": "n"}


def _bound_token(doc):
    """``-`` when the size bounds are not applicable; otherwise each check
    in order: its status letter, the first letter of its reason if it has
    one, then its ``i`` and sizes joined by ``/``."""
    if doc["status"] != "evaluated":
        return "-"
    return ",".join(
        _STATUS[chk["status"]]
        + chk.get("reason", "")[:1]
        + "/".join(str(v) for key, v in chk.items() if key == "i" or key.endswith("size"))
        for chk in doc["checks"].values()
    )


def _render_laws_golden() -> bytes:
    """One line per induced C5 of each of 200 seeded hosts, decoded afresh
    from graph6: the graph6 line, the ring, each law's status letter (a
    violated one followed by its witness joined by ``.``), and the k=3 and
    k=4 size bounds (:func:`_bound_token`)."""
    lines = []
    for seed in range(200):
        line = codec.to_graph6(_law_host(seed))
        g = codec.from_graph6(line)
        for c in structure.find_all_c5(g):
            laws = [
                _STATUS[v.status] + ".".join(map(str, v.witness or ()))
                for v in structure.check_properties(g, c).values()
            ]
            bounds = [_bound_token(structure.check_size_bounds(g, c, k=k)) for k in (3, 4)]
            ring = ",".join(map(str, c.ring))
            lines.append(" ".join([line, ring, *laws, *bounds]) + "\n")
    return "".join(lines).encode()


def test_laws_match_golden():
    """Law verdicts, witnesses and size bounds on random hosts are pinned
    byte for byte.  To record the file again, run ``PYTHONPATH=src python3
    tests/test_structure.py``."""
    assert _render_laws_golden() == GOLDEN_LAWS.read_bytes()


if __name__ == "__main__":
    GOLDEN_LAWS.write_bytes(_render_laws_golden())
    print(f"recorded {GOLDEN_LAWS.name}", file=sys.stderr)
