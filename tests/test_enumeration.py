"""Exhaustive family/obstruction enumeration against brute-force oracles."""

from __future__ import annotations

import io
import itertools
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings

from conftest import all_graphs, count_calls, graphs
from p6c4 import canon, codec, coloring, detect, enumeration, families
from p6c4.enumeration import (
    NiceWitness,
    SearchConfig,
    enumerate_critical,
    enumerate_family,
    find_nice_critical,
    is_minimal_obstruction,
    nice_check,
    p6c4_config,
)
from p6c4.graphs import Graph, bits, induced_subgraph, mask_of


P6C4 = (families.path_graph(6), families.cycle_graph(4))


def brute_family_codes(n: int, forbidden=P6C4) -> set[bytes]:
    """Isomorphism classes of connected pattern-free n-vertex graphs, the
    slow way."""
    out = set()
    for g in all_graphs(n):
        if g.is_connected() and detect.is_free(g, list(forbidden))[0]:
            out.add(canon.canonical_code(g))
    return out


def by_order(graphs_iter):
    levels: dict[int, list[Graph]] = {}
    for g in graphs_iter:
        levels.setdefault(g.n, []).append(g)
    return levels


# -- family enumeration --------------------------------------------------------


def test_family_matches_brute_force_up_to_n5():
    levels = by_order(enumerate_family(p6c4_config(n_max=5)))
    for n in range(1, 6):
        assert {canon.canonical_code(g) for g in levels[n]} == brute_family_codes(n)


def test_family_level_counts():
    levels = by_order(enumerate_family(p6c4_config(n_max=6)))
    assert {n: len(gs) for n, gs in levels.items()} == {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 62}


def test_family_with_single_forbidden_pattern():
    cfg = SearchConfig(n_max=4, forbidden=(families.cycle_graph(4),))
    levels = by_order(enumerate_family(cfg))
    assert len(levels[4]) == 5  # all six connected 4-vertex graphs except C4
    assert all(
        detect.find_induced_copy(g, families.cycle_graph(4)) is None for g in levels[4]
    )


def test_family_levels_are_deduplicated_and_sorted():
    for n, gs in by_order(enumerate_family(p6c4_config(n_max=6))).items():
        codes = [canon.canonical_code(g) for g in gs]
        assert codes == sorted(codes) and len(codes) == len(set(codes))


def test_family_output_is_free_and_connected():
    for g in enumerate_family(p6c4_config(n_max=6)):
        assert g.is_connected()
        assert detect.is_free(g, list(P6C4))[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_max=0)
    with pytest.raises(ValueError):
        SearchConfig(k=0)
    with pytest.raises(ValueError):
        SearchConfig(workers=0)


# -- child generation ------------------------------------------------------------


FORBID_SETS = {
    "P6,C4": P6C4,
    "P6,C6": (families.path_graph(6), families.cycle_graph(6)),
    "K3": (families.complete_graph(3),),
    "W5": (families.wheel_graph(5),),
    "claw": (families.pattern_by_name("g6:Cs"),),
}


@pytest.mark.parametrize("name", sorted(FORBID_SETS))
def test_bad_mask_table_matches_has_pattern_through(name, small_free_family):
    forbidden = FORBID_SETS[name]
    for parent in small_free_family:
        bad = enumeration._bad_masks(parent, forbidden)
        assert len(bad) == 1 << parent.n
        for mask in range(1 << parent.n):
            child = parent.add_vertex(mask)
            hit = any(detect.has_pattern_through(child, pat, parent.n) for pat in forbidden)
            assert bad[mask] == hit, (parent.adj, mask)


def _reference_bad_masks(parent, forbidden):
    """The forbidden-mask table built in one pass over every copy of each
    pattern minus one vertex, with no table one vertex smaller."""
    full = parent.full_mask()
    bad = bytearray(1 << parent.n)
    pairs = set()
    for pat in forbidden:
        for sub, nbrs in enumeration._vertex_deleted(pat):
            for emb in detect.iter_induced_copies(parent, sub):
                vmap = emb.vmap
                pairs.add((mask_of(vmap), mask_of(vmap[i] for i in bits(nbrs))))
    for s_mask, r_mask in pairs:
        rest = full & ~s_mask
        sub = rest
        while True:
            bad[r_mask | sub] = 1
            if not sub:
                break
            sub = (sub - 1) & rest
    return bad


def _without_last(g):
    """``g`` minus its last vertex."""
    return Graph(g.n - 1, tuple(row & ~(1 << (g.n - 1)) for row in g.adj[:-1]))


def _assert_tables_match_the_reference(g, forbidden):
    """The fold and the doubling of the reference table one vertex smaller
    both give the reference table of ``g``, and leave that smaller table
    as it was."""
    want = _reference_bad_masks(g, forbidden)
    assert enumeration._bad_masks(g, forbidden) == want, g.adj
    if g.n:
        base = _reference_bad_masks(_without_last(g), forbidden)
        kept = bytes(base)
        assert enumeration._bad_masks(g, forbidden, base) == want, g.adj
        assert base == kept


@pytest.mark.parametrize("name", sorted(FORBID_SETS))
def test_bad_mask_tables_match_the_reference_on_the_family(name, small_free_family):
    for parent in small_free_family:
        _assert_tables_match_the_reference(parent, FORBID_SETS[name])


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12))
def test_bad_mask_tables_match_the_reference(g):
    for forbidden in FORBID_SETS.values():
        _assert_tables_match_the_reference(g, forbidden)


def test_bad_mask_tables_match_the_reference_on_larger_graphs():
    rng = random.Random(2020)
    for n in range(13, 17):
        p = rng.choice((0.2, 0.35, 0.5))
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        for forbidden in FORBID_SETS.values():
            _assert_tables_match_the_reference(g, forbidden)


@pytest.mark.parametrize("k", [3, 4])
def test_inherited_mask_tables_match_the_reference(k, monkeypatch):
    """Every parent of the obstruction search to n <= 8 gets the reference
    table, and every parent above the seed level builds it from the table
    its producer handed down, which is the producer's own table."""
    cfg = p6c4_config(k=k, n_max=8)
    real = enumeration._bad_masks
    built = []

    def checked(parent, forbidden, base=None):
        bad = real(parent, forbidden, base)
        assert bad == _reference_bad_masks(parent, forbidden), parent.adj
        if base is not None:
            assert base == _reference_bad_masks(_without_last(parent), forbidden)
        built.append((parent.n, base is not None))
        return bad

    monkeypatch.setattr(enumeration, "_bad_masks", checked)
    enumerate_critical(cfg)
    assert all(inherits for n, inherits in built if n >= 2)
    assert len([n for n, _ in built if n >= 2]) > 100


def _reference_expand(parent, forbidden):
    """Every nonempty mask, the localized checks, no orbit pruning."""
    out = []
    for mask in range(1, 1 << parent.n):
        child = parent.add_vertex(mask)
        w = child.n - 1
        if not any(detect.has_pattern_through(child, pat, w) for pat in forbidden):
            out.append((canon.canonical_code(child), child))
    return out


def _first_occurrences(pairs) -> dict[bytes, tuple[int, ...]]:
    first: dict[bytes, tuple[int, ...]] = {}
    for code, child in pairs:
        first.setdefault(code, child.adj)
    return first


def test_orbit_pruning_keeps_every_first_occurrence():
    """The mask walk takes one mask per orbit of the parent's generators, and
    per class its children are the first children of a walk over every
    mask."""
    cfg = p6c4_config(n_max=7)
    for parent in enumerate_family(cfg):
        walk = enumeration._MaskWalk(parent, cfg)
        kept = [(canon.canonical_code(child), child) for child in map(parent.add_vertex, walk)]
        assert _first_occurrences(kept) == _first_occurrences(_reference_expand(parent, P6C4))


def _recorded_levels(monkeypatch) -> list:
    """Wrap ``enumeration._grow`` so that each level it yields, ``(n, size,
    kept graphs, new obstructions)``, is appended to the returned list."""
    levels, real = [], enumeration._grow

    def grow(*args, **kw):
        for level in real(*args, **kw):
            levels.append(level)
            yield level

    monkeypatch.setattr(enumeration, "_grow", grow)
    return levels


def _reference_levels(k, n_max):
    """The built levels of the obstruction search, the slow way: a level
    walks every free mask of every parent in code order, labels every child
    and keeps the first child of each class; its k-colorable graphs are the
    next level's parents and its minimal obstructions are recorded.  Maps
    each n to (level size, parents, obstructions), both lists by code."""
    parents, levels = enumeration._seeds(p6c4_config(k=k)), {}
    for n in range(2, n_max + 1):
        first: dict[bytes, Graph] = {}
        for parent in parents:
            for code, child in _reference_expand(parent, P6C4):
                first.setdefault(code, child)
        level = [first[code] for code in sorted(first)]
        parents = [g for g in level if coloring.k_color(g, k) is not None]
        levels[n] = (len(level), parents, [g for g in level if is_minimal_obstruction(g, k)])
    return levels


def _codes(graphs):
    return [canon.canonical_code(g) for g in graphs]


@pytest.mark.parametrize("k, n_max", [(2, 8), (3, 8), (4, 8)])
def test_levels_match_the_reference_levels(k, n_max, monkeypatch, tmp_path):
    """An oracle for canonical deletion: the search kept to its last level
    by a checkpoint has, per level, the reference level's size, keeps its
    k-colorable classes and finds its obstructions; every obstruction's
    graph6 line is the canonical form of the reference's."""
    levels = _recorded_levels(monkeypatch)
    run = enumerate_critical(p6c4_config(k=k, n_max=n_max), checkpoint=tmp_path / "ck.json")
    ref = _reference_levels(k, n_max)
    assert [level[0] for level in levels] == list(ref)
    for n, size, kept, new in levels:
        assert size == run.level_sizes[n] == ref[n][0]
        assert _codes(kept) == _codes(ref[n][1])
        assert sorted(_codes(new)) == _codes(ref[n][2])
    want = sorted((g for level in ref.values() for g in level[2]), key=canon.canonical_code)
    assert want and [codec.to_graph6(e.graph) for e in run.obstructions] == [
        codec.to_graph6(canon.canonical_form(g)) for g in want
    ]


def _colorable_deletions(x, k):
    """Is every ``x - v`` k-colorable?"""
    return all(
        coloring.k_color(induced_subgraph(x, [u for u in range(x.n) if u != v])[0], k)
        for v in range(x.n)
    )


def _reference_accepted(parent, k):
    """The masks of the walk over ``parent`` whose child X is accepted, with
    every child labelled: w must lie in the orbit of m(X), the deletable
    vertex with the largest (degree, sum of neighbour degrees), ties going
    to the least canonical position."""
    out = []
    for mask in enumeration._MaskWalk(parent, p6c4_config(k=k)):
        x = parent.add_vertex(mask)
        key = lambda v: (x.degree(v), sum(x.degree(u) for u in x.neighbors(v)))
        deletable = _deletable(x, k)
        best = max(map(key, deletable))
        order = canon.canonical_order(x)
        m = min((v for v in deletable if key(v) == best), key=order.index)
        label = canon.orbits(x.n, canon.automorphism_generators(x))
        if label[m] == label[parent.n]:
            out.append(mask)
    return out


@pytest.mark.parametrize("k", [3, 4])
def test_invariant_prefilter_only_saves_labelling(k, monkeypatch, tmp_path):
    """Ablation of the invariant pre-filter: labelling every child and
    accepting it iff its new vertex is in the orbit of m(X), each parent of
    the search to n <= 8 accepts the same children, so the levels are the
    same.  The kept children and obstructions are exactly the accepted
    children whose deletions are all k-colorable."""
    calls, real = [], enumeration._extend_parent

    def spy(parent, *args):
        out = real(parent, *args)
        calls.append((parent, out))
        return out

    monkeypatch.setattr(enumeration, "_extend_parent", spy)
    enumerate_critical(p6c4_config(k=k, n_max=8), checkpoint=tmp_path / "ck.json")
    assert len(calls) > 100
    for parent, (count, kept, new) in calls:
        want = _reference_accepted(parent, k)
        assert count == len(want), parent.adj
        masks = sorted(g.adj[-1] for g in [kid[1] for kid in kept] + new)
        assert masks == [m for m in want if _colorable_deletions(parent.add_vertex(m), k)]


@pytest.mark.parametrize("k", [3, 4])
def test_inherited_automorphisms_keep_every_child(k, monkeypatch, tmp_path):
    """Ablation of the automorphisms a child inherits from its parent: with
    them withheld from every canonical search, the search to n <= 8, kept to
    its last level by a checkpoint, keeps the same labelled graphs with the
    same codes and canonical orders, level sizes and obstructions.  Each
    kept graph's code and order are those of a fresh search, every
    generator it carries is an automorphism of it, and the inherited ones
    cut the leaves the searches reach."""
    search = canon._search

    def run(withhold):
        with monkeypatch.context() as m:
            if withhold:
                m.setattr(canon, "_search", lambda n, adj, nbrs, auts=(): search(n, adj, nbrs))
            levels = _recorded_levels(m)
            leaves = count_calls(m, canon, "_code_under")
            result = enumerate_critical(
                p6c4_config(k=k, n_max=8), checkpoint=tmp_path / f"ck{withhold}.json"
            )
        kept = [[(g.adj, g._canon[:2]) for g in level[2]] for level in levels]
        return (kept, _run_lines(result)), len(leaves), [g for level in levels for g in level[2]]

    (on, on_leaves, graphs), (off, off_leaves, _) = run(False), run(True)
    assert on == off and on_leaves < off_leaves
    for g in graphs:
        assert g._canon[:2] == canon._canonical(Graph(g.n, g.adj))[:2]
        assert all(g.relabel(s) == g for s in g._canon[2])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_inherited_colorings_never_change_a_level(k, monkeypatch, tmp_path):
    """Ablation of the colorings children inherit: with every inherited
    coloring withheld, so that ``k_color`` runs on every accepted child
    without a smaller obstruction, the kept levels, level sizes and
    obstructions of the search to n <= 8 are the same, with one worker and
    with two.  A run resumed from a level-6 checkpoint, whose parents get
    their colorings from ``k_color``, equals a fresh run.  Each run writes
    a checkpoint, so its last level is kept."""
    fresh = (tmp_path / f"ck{i}.json" for i in itertools.count())

    def run(workers, withhold, checkpoint=None, n_max=8):
        with monkeypatch.context() as m:
            if withhold:
                m.setattr(enumeration._MaskWalk, "coloring", lambda self, mask: None)
            levels = _recorded_levels(m)
            calls = count_calls(m, coloring, "k_color")
            cfg = p6c4_config(k=k, n_max=n_max, workers=workers)
            result = enumerate_critical(cfg, checkpoint=checkpoint or next(fresh))
        kept = [[g.adj for g in level[2]] for level in levels]
        lines = [codec.to_graph6(e.graph) for e in result.obstructions]
        return kept, result.level_sizes, lines, len(calls), levels

    on, on_two = run(1, False), run(2, False)
    off, off_two = run(1, True), run(2, True)
    assert len(on[0]) == 7 and on[2]
    assert on[:3] == on_two[:3] == off[:3] == off_two[:3]
    accepted = sum(len(kept) + len(new) for _, _, kept, new in off[4])
    assert off[3] == 1 + accepted > on[3]  # the seed, then every accepted child

    ck = tmp_path / "ck.json"
    run(1, False, ck, n_max=6)
    resumed = run(1, False, ck)
    assert resumed[0] == on[0][5:]
    assert resumed[1:3] == on[1:3]


@pytest.mark.parametrize("k", [3, 4])
def test_k_color_runs_only_where_no_coloring_was_inherited(k, monkeypatch, tmp_path):
    """In the search to n <= 8, kept to its last level by a checkpoint,
    ``k_color`` runs on the seed and then exactly on the accepted children
    without a smaller obstruction (those kept and the new obstructions)
    that inherited no coloring, in order.  Every kept graph's coloring is a
    proper coloring with palette 1..k, with one worker and with two, so
    the colorings come back from the workers."""
    offered, real_coloring = [], enumeration._MaskWalk.coloring

    def spy(self, mask):
        col = real_coloring(self, mask)
        offered.append((mask, col))
        return col

    monkeypatch.setattr(enumeration._MaskWalk, "coloring", spy)
    built, real_build = [], enumeration._build_level

    def build(*args):
        out = real_build(*args)
        built.append(out)
        return out

    monkeypatch.setattr(enumeration, "_build_level", build)
    calls = count_calls(monkeypatch, coloring, "k_color")
    enumerate_critical(p6c4_config(k=k, n_max=8), checkpoint=tmp_path / "ck.json")
    calls, graphs = list(calls), [g for g, _ in calls[1:]]
    assert calls[0][0].n == 1 and all(g.n > 1 for g in graphs)
    assert len(offered) == sum(len(kids) + len(new) for _, kids, new in built)
    assert [g.adj[-1] for g in graphs] == [mask for mask, col in offered if col is None]
    assert graphs and len(graphs) < len(offered)
    assert all(_colorable_deletions(g, k) for g in graphs)

    built.clear()
    enumerate_critical(p6c4_config(k=k, n_max=8, workers=2), checkpoint=tmp_path / "ck2.json")
    kids = [kid for _, level, _ in built for kid in level]
    assert len(kids) > 500
    for _, g, col, _ in kids:
        assert coloring.verify_coloring(g, coloring.Coloring(k, tuple(col))) == (True, None)


# -- minimal obstructions -------------------------------------------------------


def test_is_minimal_obstruction_examples():
    assert is_minimal_obstruction(families.complete_graph(4), 3)
    assert is_minimal_obstruction(families.wheel_graph(5), 3)
    assert is_minimal_obstruction(families.cycle_graph(5), 2)
    assert not is_minimal_obstruction(families.complete_graph(5), 3)  # not minimal
    assert not is_minimal_obstruction(families.cycle_graph(5), 3)  # colorable
    pendant = Graph.from_edges(5, list(families.complete_graph(4).edges()) + [(0, 4)])
    assert not is_minimal_obstruction(pendant, 3)


def test_enumerate_critical_small_run():
    run = enumerate_critical(p6c4_config(k=3, n_max=4))
    assert run.k == 3 and run.n_max == 4
    assert len(run.obstructions) == 1
    entry = run.obstructions[0]
    assert canon.is_isomorphic(entry.graph, families.complete_graph(4))
    assert entry.id == "M3_0"
    assert entry.provenance == "enumeration-derived"
    assert entry.verified == {
        "non_k_colorable": True,
        "minimal": True,
        "min_degree_ge_k": True,
        "no_clique_cutset": True,
    }
    assert run.level_sizes[4] == 5


def test_enumerate_critical_logs_one_line_per_level_built(tmp_path):
    """One ``level n:`` line per level built, n = 2..n_max in order, each
    with its level's size; a resumed run logs where it resumed, then only
    the levels above.  perfbench times the levels by these lines."""

    def levels(lines):
        return [tuple(map(int, re.match(r"level (\d+): (\d+) graphs,", s).groups())) for s in lines]

    ck, lines = tmp_path / "ck.json", []
    run = enumerate_critical(p6c4_config(k=3, n_max=5), checkpoint=ck, log=lines.append)
    assert levels(lines) == [(n, run.level_sizes[n]) for n in range(2, 6)]
    lines.clear()
    resumed = enumerate_critical(p6c4_config(k=3, n_max=7), checkpoint=ck, log=lines.append)
    assert lines[0] == "resumed at level 5"
    assert levels(lines[1:]) == [(n, resumed.level_sizes[n]) for n in (6, 7)]
    assert resumed.level_sizes == enumerate_critical(p6c4_config(k=3, n_max=7)).level_sizes


def test_enumerate_critical_finds_both_small_obstructions():
    run = enumerate_critical(p6c4_config(k=3, n_max=6))
    got = {canon.canonical_code(e.graph) for e in run.obstructions}
    want = {
        canon.canonical_code(families.complete_graph(4)),
        canon.canonical_code(families.wheel_graph(5)),
    }
    assert got == want


def test_enumerate_critical_matches_brute_filter():
    # filtering the whole family one graph at a time must find the same set
    fam = enumerate_family(p6c4_config(n_max=5))
    want = {canon.canonical_code(g) for g in fam if is_minimal_obstruction(g, 3)}
    run = enumerate_critical(p6c4_config(k=3, n_max=5))
    assert {canon.canonical_code(e.graph) for e in run.obstructions} == want


def test_worker_count_does_not_change_results():
    one = enumerate_critical(p6c4_config(k=3, n_max=6, workers=1))
    two = enumerate_critical(p6c4_config(k=3, n_max=6, workers=2))
    assert [canon.canonical_code(e.graph) for e in one.obstructions] == [
        canon.canonical_code(e.graph) for e in two.obstructions
    ]
    assert one.level_sizes == two.level_sizes


def test_worker_count_does_not_change_results_at_k4():
    one = enumerate_critical(p6c4_config(k=4, n_max=8, workers=1))
    two = enumerate_critical(p6c4_config(k=4, n_max=8, workers=2))
    assert [e.graph.adj for e in one.obstructions] == [e.graph.adj for e in two.obstructions]
    assert one.level_sizes == two.level_sizes


def test_pickled_parents_need_no_search_for_their_automorphisms(monkeypatch):
    """A parent that crossed a process boundary keeps its canonical search
    result: extending a chunk of parents runs one search per tie and kept
    child and none for a parent, the same searches as on the parents that
    never left, and each child's result comes back with it through a
    pickle round trip.  A parent without its result runs one more search."""
    cfg = p6c4_config(k=4, n_max=6)
    seeds, found = enumeration._seeds(cfg), []
    for _, _, parents, new in enumeration._grow(cfg, seeds, [b"\x01"], 1, found):
        found += [(canon.canonical_code(g), g) for g in new]
    n = parents[0].n
    assert n == 6 and all(g._canon for g in parents) and all(g.n == n for g in parents)
    none = [None] * len(parents)

    def expand(graphs):
        with monkeypatch.context() as m:
            calls = count_calls(m, canon, "_search")
            out = enumeration._extend_chunk(graphs, none, none, cfg, [g for _, g in found], True)
        return out, [(args[0], args[1]) for args in calls]

    home, home_searches = expand(parents)
    trip, trip_searches = expand(pickle.loads(pickle.dumps(parents)))
    bare, bare_searches = expand([Graph(g.n, g.adj) for g in parents])
    assert home_searches and all(size == n + 1 for size, _ in home_searches)
    assert trip_searches == home_searches
    assert sum(size == n for size, _ in bare_searches) == len(parents)
    assert [size for size, _ in bare_searches].count(n + 1) == len(home_searches)

    def children(chunk):
        return [(code, child, child._canon) for code, child, _, _ in chunk[1]]

    returned = children(pickle.loads(pickle.dumps(trip)))
    assert [(c, g.adj, r) for c, g, r in returned] == [(c, g.adj, r) for c, g, r in children(home)]
    assert [(c, g.adj) for c, g, _ in children(bare)] == [(c, g.adj) for c, g, _ in children(home)]
    for code, child, result in returned:
        assert result[0] == code
        assert result[:2] == canon._canonical(Graph(child.n, child.adj))[:2]


# -- the counted last level -------------------------------------------------------


def _run_lines(run):
    return run.level_sizes, [(e.id, codec.to_graph6(e.graph)) for e in run.obstructions]


@pytest.mark.parametrize("k, n_max", [(2, 9), (3, 9), (4, 9), (5, 9), (3, 10)])
def test_counted_last_level_equals_the_built_one(k, n_max, tmp_path):
    """A run without a checkpoint, which only counts its last level, gives
    the level sizes, obstruction ids and graph6 lines of a run with one,
    which keeps that level, with one worker and with two; and a run resumed
    from a checkpoint two levels down gives them too."""
    counted = _run_lines(enumerate_critical(p6c4_config(k=k, n_max=n_max)))
    for workers in (1, 2):
        cfg = p6c4_config(k=k, n_max=n_max, workers=workers)
        assert _run_lines(enumerate_critical(cfg)) == counted
        built = enumerate_critical(cfg, checkpoint=tmp_path / f"built{workers}.json")
        assert _run_lines(built) == counted
    ck = tmp_path / "resume.json"
    enumerate_critical(p6c4_config(k=k, n_max=n_max - 2), checkpoint=ck)
    assert _run_lines(enumerate_critical(p6c4_config(k=k, n_max=n_max), checkpoint=ck)) == counted


def _is_canonical_line(line: str) -> bool:
    """Whether relabelling the graph of ``line`` by its canonical order
    gives ``line`` again."""
    return codec.to_graph6(canon.canonical_form(codec.from_graph6(line))) == line


@pytest.mark.parametrize("k", [2, 3, 4])
def test_obstruction_lines_are_their_own_canonical_forms(k, tmp_path):
    """Every obstruction of the search to n <= 9, with one worker and with
    two, fresh and resumed from a level-6 checkpoint, is written in
    canonical form."""
    for workers in (1, 2):
        cfg = p6c4_config(k=k, n_max=9, workers=workers)
        ck = tmp_path / f"ck{workers}.json"
        enumerate_critical(p6c4_config(k=k, n_max=6, workers=workers), checkpoint=ck)
        for run in (enumerate_critical(cfg), enumerate_critical(cfg, checkpoint=ck)):
            lines = [codec.to_graph6(e.graph) for e in run.obstructions]
            assert lines and all(map(_is_canonical_line, lines)), lines


@pytest.mark.parametrize("k", [3, 4])
def test_shipped_catalog_lines_are_their_own_canonical_forms(k):
    """Each line of a shipped catalog, in its graph6 file and its manifest,
    is in canonical form."""
    path = coloring.default_catalog_path(k)
    lines = codec.graph6_lines(path.read_text())
    manifest = json.loads(path.with_suffix(".json").read_text())
    assert [entry["line"] for entry in manifest["entries"]] == lines
    assert all(map(_is_canonical_line, lines)), lines


def _deletable(x, k):
    """The vertices v of ``x`` with ``x - v`` connected and k-colorable."""
    out = []
    for v in range(x.n):
        sub, _ = induced_subgraph(x, [u for u in range(x.n) if u != v])
        if sub.is_connected() and coloring.k_color(sub, k) is not None:
            out.append(v)
    return out


@pytest.mark.parametrize("k", [3, 4])
def test_counted_level_labels_only_ties_and_obstructions(k, monkeypatch, tmp_path):
    """The search to n <= 8 without a checkpoint keeps no graph of its last
    level, and every canonical search it runs on an 8-vertex graph labels
    either a child whose new vertex ties another deletable vertex on the
    invariant (degree, then the sum of neighbour degrees), with at least
    one tied vertex that is no twin of it, or a new obstruction's
    representative.  With a checkpoint the level is kept, one graph per
    k-colorable class."""
    levels = _recorded_levels(monkeypatch)
    searches = count_calls(monkeypatch, canon, "_search")
    run = enumerate_critical(p6c4_config(k=k, n_max=8))
    labelled = list(searches)  # the checks below run searches of their own
    assert levels[-1][0] == 8 and levels[-1][2] == []
    new = {canon.canonical_code(e.graph) for e in run.obstructions if e.graph.n == 8}
    ties = 0
    for args in labelled:
        if args[0] != 8:
            continue
        x = Graph(8, args[1])
        if canon.canonical_code(x) in new:
            continue
        key = lambda v: (x.degree(v), sum(x.degree(u) for u in x.neighbors(v)))
        deletable = _deletable(x, k)
        keys = [key(v) for v in deletable]
        assert keys.count(key(7)) > 1 and max(keys) == key(7), x.adj
        tied = [v for v in deletable if v != 7 and key(v) == key(7)]
        assert not all(x.adj[t] & ~(1 << 7) == x.adj[7] & ~(1 << t) for t in tied), x.adj
        ties += 1
    assert 0 < ties < run.level_sizes[8] // 2
    levels.clear()
    enumerate_critical(p6c4_config(k=k, n_max=8), checkpoint=tmp_path / "ck.json")
    kept = levels[-1][2]
    assert 0 < len(kept) == len(set(_codes(kept))) < run.level_sizes[8]
    assert all(coloring.k_color(g, k) for g in kept)


@pytest.mark.parametrize("k", [3, 4])
def test_twin_settled_ties_only_save_labelling(k, monkeypatch, tmp_path):
    """Ablation of the twin rule: with no tie settled by twins, so that
    every tie is labelled, the search to n <= 8 builds the same levels,
    keeps the same graphs with the same search results, and finds the same
    obstructions, with and without a checkpoint, while it runs strictly
    more canonical searches."""

    def run(settle, checkpoint):
        with monkeypatch.context() as m:
            if not settle:
                m.setattr(enumeration, "_twins_of_w", lambda rows, mask, ties: False)
            levels = _recorded_levels(m)
            searches = count_calls(m, canon, "_search")
            result = enumerate_critical(p6c4_config(k=k, n_max=8), checkpoint=checkpoint)
        kept = [[(g.adj, g._canon) for g in level[2]] for level in levels]
        new = [[g.adj for g in level[3]] for level in levels]
        return (kept, new, _run_lines(result)), len(searches)

    for ck in (None, "ck"):
        (on, on_searches), (off, off_searches) = (
            run(settle, ck and tmp_path / f"{ck}{settle}.json") for settle in (True, False)
        )
        assert on == off and on_searches < off_searches
        assert sum(map(len, on[0])) > 100 and on[2][1]


@pytest.mark.parametrize("k, n_max", [(3, 8), (4, 8), (None, 7)])
def test_cut_tables_give_the_deletable_vertices(k, n_max, monkeypatch):
    """For every child X = P + a(M) the walk visits, in the obstruction
    search to n <= 8 (k = 3, 4) and the family search to n <= 7, D(X) read
    from the tables (the vertices v of P in ``core[M]`` whose cut table
    entries M meets each of, and w) is the brute-force D(X): the v with X -
    v connected and, in the obstruction search, k-colorable.  The parents
    include K1 and parents with cut vertices."""
    walked = count_calls(monkeypatch, enumeration, "_extend_parent")
    if k is None:
        list(enumerate_family(p6c4_config(n_max=n_max)))
    else:
        enumerate_critical(p6c4_config(k=k, n_max=n_max))
    children = 0
    for parent, _, found, *_ in walked:
        n = parent.n
        cuts = enumeration._cut_tables(parent)
        core = enumeration._core_masks(parent, found or [])
        for mask in enumeration._MaskWalk(parent, p6c4_config()):
            got = [v for v in bits(core[mask] & ((1 << n) - 1)) if all(mask & c for c in cuts[v])]
            x = parent.add_vertex(mask)
            assert got + [n] == _deletable(x, k or x.n), (parent.adj, mask)
            children += 1
    parents = [args[0] for args in walked]
    assert any(parent.n == 1 for parent in parents)
    assert any(len(parts) > 1 for parent in parents for parts in enumeration._cut_tables(parent))
    assert children > 1000


@pytest.mark.parametrize("k", [3, 4])
def test_core_masks_match_the_colorable_deletions(k):
    """Given the minimal obstructions on at most as many vertices as P, the
    core table of each k-colorable family member P on at most 6 vertices
    holds, for each free mask M, exactly the vertices v of X = P + a(M)
    with X - v k-colorable (-1 where every deletion is)."""
    found = [e.graph for e in enumerate_critical(p6c4_config(k=k, n_max=6)).obstructions]
    checked = 0
    for parent in enumerate_family(p6c4_config(n_max=6)):
        if coloring.k_color(parent, k) is None:
            continue
        core = enumeration._core_masks(parent, [g for g in found if g.n <= parent.n])
        bad = enumeration._bad_masks(parent, P6C4)
        for mask in range(1, 1 << parent.n):
            if bad[mask]:
                continue
            x = parent.add_vertex(mask)
            want = mask_of(
                v
                for v in range(x.n)
                if coloring.k_color(induced_subgraph(x, [u for u in range(x.n) if u != v])[0], k)
            )
            assert core[mask] & x.full_mask() == want, (parent.adj, mask)
            assert (core[mask] == -1) == (want == x.full_mask())
            checked += core[mask] != -1
    assert checked


@pytest.mark.parametrize("k", [3, 4])
def test_parent_generators_generate_the_automorphism_group(k, monkeypatch):
    """The generators each parent of every level carries generate its whole
    automorphism group (networkx counts the group), so one child per orbit
    of them is one child per orbit of the group."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    parents = count_calls(monkeypatch, enumeration, "_extend_parent")
    enumerate_critical(p6c4_config(k=k, n_max=8))
    assert {args[0].n for args in parents} == set(range(1, 8))
    for g, *_ in parents:
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        order = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        group = {tuple(range(g.n))}
        todo = list(group)
        for a in todo:
            for s in canon.automorphism_generators(g):
                image = tuple(s[a[v]] for v in range(g.n))
                if image not in group:
                    group.add(image)
                    todo.append(image)
        assert len(group) == order, g.adj


# -- checkpointing ---------------------------------------------------------------


def test_checkpoint_resume_matches_fresh_run(tmp_path):
    ck = tmp_path / "ck.json"
    cfg_short = p6c4_config(k=3, n_max=4)
    enumerate_critical(cfg_short, checkpoint=ck)
    assert ck.exists()

    messages = []
    cfg_long = p6c4_config(k=3, n_max=7)
    resumed = enumerate_critical(cfg_long, checkpoint=ck, log=messages.append)
    assert any("resumed at level 4" in m for m in messages)

    fresh = enumerate_critical(cfg_long)
    # The resumed level has no forbidden-mask tables from its producers; the
    # obstructions, labels included, must still be the fresh run's.
    assert [codec.to_graph6(e.graph) for e in resumed.obstructions] == [
        codec.to_graph6(e.graph) for e in fresh.obstructions
    ]
    assert resumed.level_sizes == fresh.level_sizes


class _TornFile:
    """A text file whose first write stores half the data, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_failed_checkpoint_write_keeps_the_previous_one(tmp_path, monkeypatch):
    ck = tmp_path / "ck.json"
    cfg = p6c4_config(k=3, n_max=6)
    real_save, real_open = enumeration._save_checkpoint, io.open
    saves = []

    def save(*args):
        saves.append(args)
        if len(saves) == 2:
            monkeypatch.setattr(io, "open", lambda *a, **kw: _TornFile(real_open(*a, **kw)))
        try:
            real_save(*args)
        finally:
            monkeypatch.setattr(io, "open", real_open)

    monkeypatch.setattr(enumeration, "_save_checkpoint", save)
    with pytest.raises(OSError, match="disk full"):
        enumerate_critical(cfg, checkpoint=ck)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
    assert json.loads(ck.read_text())["level"] == 2

    messages = []
    resumed = enumerate_critical(cfg, checkpoint=ck, log=messages.append)
    assert any("resumed at level 2" in m for m in messages)
    fresh = enumerate_critical(cfg)
    assert [e.graph for e in resumed.obstructions] == [e.graph for e in fresh.obstructions]
    assert resumed.level_sizes == fresh.level_sizes


def test_checkpoint_in_another_labelling_resumes_to_the_fresh_bytes(tmp_path):
    """A checkpoint whose obstruction lines use another labelling of their
    classes, as one written before obstructions were reported in canonical
    form does, resumes to the obstructions and the checkpoint file of a
    fresh run, byte for byte."""
    fresh_ck, ck = tmp_path / "fresh.json", tmp_path / "ck.json"
    fresh = enumerate_critical(p6c4_config(k=3, n_max=9), checkpoint=fresh_ck)
    enumerate_critical(p6c4_config(k=3, n_max=7), checkpoint=ck)
    payload = json.loads(ck.read_text())
    lines = payload["obstructions"]
    relabelled = []
    for line in lines:
        g = codec.from_graph6(line)
        relabelled.append(codec.to_graph6(g.relabel(tuple(range(g.n))[::-1])))
    assert len(lines) == 3 and relabelled != lines
    payload["obstructions"] = relabelled
    ck.write_text(json.dumps(payload))
    resumed = enumerate_critical(p6c4_config(k=3, n_max=9), checkpoint=ck)
    assert _run_lines(resumed) == _run_lines(fresh)
    assert ck.read_bytes() == fresh_ck.read_bytes()


def test_checkpoint_rejects_other_configuration(tmp_path):
    ck = tmp_path / "ck.json"
    enumerate_critical(p6c4_config(k=3, n_max=4), checkpoint=ck)
    with pytest.raises(ValueError):
        enumerate_critical(p6c4_config(k=4, n_max=5), checkpoint=ck)


# -- nice critical graphs ---------------------------------------------------------


def test_nice_check_on_seven_cycle():
    w = nice_check(families.cycle_graph(7), 3)
    assert w == NiceWitness((0, 2, 4), 2)


def test_nice_check_returns_none_without_witness():
    # too small an independence number
    assert nice_check(families.cycle_graph(5), 3) is None
    assert nice_check(families.wheel_graph(5), 4) is None
    # clique number exceeds k - 1
    assert nice_check(families.complete_graph(4), 4) is None


def test_nice_check_rejects_non_critical_input():
    with pytest.raises(ValueError):
        nice_check(families.cycle_graph(6), 3)  # 2-colorable
    with pytest.raises(ValueError):
        nice_check(families.complete_graph(4), 3)  # not minimal for k=2
    with pytest.raises(ValueError):
        nice_check(families.complete_graph(2), 1)


def test_find_nice_critical_small():
    hits = find_nice_critical(3, 7, forbidden=())
    assert len(hits) == 1
    g, w = hits[0]
    assert canon.is_isomorphic(g, families.cycle_graph(7))
    assert w.omega == 2
    for a, b in itertools.combinations(w.triple, 2):
        assert not g.has_edge(a, b)


# -- the mask tables' copy search -----------------------------------------------


@pytest.mark.parametrize("k", [3, 4])
def test_symmetry_conditions_and_peeling_only_save_copies(k, monkeypatch, tmp_path):
    """Ablation of the copy search behind the mask tables: with every
    piece's symmetry conditions set to () and no degree-core peeling, the
    search to n <= 8 gets the same (S, R) pairs from each ``_copy_pairs``
    call, builds the same levels, keeps the same graphs with the same
    search results and finds the same obstructions, with and without a
    checkpoint.  With the conditions, each call meets exactly one copy per
    pair; without them, strictly more copies than pairs."""

    def run(plain, checkpoint):
        copies_seen, calls = [], []
        real_copies, real_pairs = detect.iter_induced_copies, enumeration._copy_pairs

        def copies(*args):
            for emb in real_copies(*args):
                if len(args) == 4:  # from ``_copy_pairs``, not a self-match
                    copies_seen[-1] += 1
                yield emb

        def pairs(parent, pieces, top=None):
            copies_seen.append(0)
            out = real_pairs(parent, pieces, top)
            calls.append((copies_seen.pop(), out))
            return out

        with monkeypatch.context() as m:
            if plain:
                m.setattr(detect, "symmetry_conditions", lambda pattern, marked: ())
                m.setattr(detect, "_core", lambda adj, alive, d: alive)
            m.setattr(detect, "iter_induced_copies", copies)
            m.setattr(enumeration, "_copy_pairs", pairs)
            levels = _recorded_levels(m)
            result = enumerate_critical(p6c4_config(k=k, n_max=8), checkpoint=checkpoint)
        kept = [(n, size, [(g.adj, g._canon) for g in graphs]) for n, size, graphs, _ in levels]
        new = [[g.adj for g in level[3]] for level in levels]
        return (kept, new, _run_lines(result), [out for _, out in calls]), calls

    for ck in (None, "ck"):
        (broken, broken_calls), (plain, plain_calls) = (
            run(p, ck and tmp_path / f"{ck}{p}.json") for p in (False, True)
        )
        assert broken == plain
        assert all(seen == len(out) for seen, out in broken_calls)
        assert sum(seen for seen, _ in plain_calls) > sum(len(out) for _, out in plain_calls)
        assert len(broken_calls) > 300 and broken[2][1]


def test_copy_pairs_skips_pieces_larger_than_the_host(monkeypatch):
    """A piece with more vertices than the parent (or than ``top`` + 1) has
    no copy there, so ``_copy_pairs`` never works out its conditions: the
    piece (K10, all) of K11, whose conditions cost 10! self-copies, is not
    looked at in a 5-vertex parent."""
    asked = []
    real = detect.symmetry_conditions
    monkeypatch.setattr(
        detect, "symmetry_conditions", lambda sub, nbrs: asked.append(sub.n) or real(sub, nbrs)
    )
    pieces = [(families.complete_graph(10), (1 << 10) - 1), (families.complete_graph(2), 0b11)]
    host = families.complete_graph(5)
    edges = {mask_of(e) for e in itertools.combinations(range(5), 2)}
    assert enumeration._copy_pairs(host, pieces) == {(m, m) for m in edges}
    assert enumeration._copy_pairs(host, pieces, 1) == {(0b11, 0b11)}
    assert enumeration._copy_pairs(host, pieces, 0) == set()
    assert asked == [2, 2]
