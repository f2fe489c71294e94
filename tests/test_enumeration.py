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
from p6c4 import canon, codec, coloring, detect, enumeration, families, structure
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
from p6c4.graphs import Graph, bits, mask_of


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
    cfg = p6c4_config(n_max=7)
    for parent in enumerate_family(cfg):
        new, _ = enumeration._expand_parent(parent, cfg, {})
        ref = _reference_expand(parent, P6C4)
        kept = [(code, child) for code, child, _ in new]
        assert _first_occurrences(kept) == _first_occurrences(ref)


@pytest.mark.parametrize("k", [3, 4])
def test_shared_leaf_codes_keep_the_reference_level(k):
    """Ablation of the level-wide dict of leaf codes: each level of the
    obstruction search is the labelled level that every mask of every
    parent, each child fully labelled, gives by first occurrence."""
    cfg = p6c4_config(k=k, n_max=7)
    level, found = enumeration._seeds(cfg), []
    for _ in range(2, cfg.n_max + 1):
        parents, _ = enumeration._sift_level(level, cfg, found)
        first: dict[bytes, Graph] = {}
        for parent in parents:
            for code, child in _reference_expand(parent, P6C4):
                first.setdefault(code, child)
        level, _, _ = enumeration._next_level(parents, [None] * len(parents), cfg, None)
        assert [g.adj for g in level] == [first[code].adj for code in sorted(first)]


@pytest.mark.parametrize("k", [3, 4])
def test_inherited_automorphisms_keep_every_child(k, monkeypatch):
    """Ablation of the automorphisms a child inherits from its parent: on
    every level of the obstruction search with n <= 8, each parent's walk
    gives the children, codes and canonical orders that the same walk with
    no inherited automorphisms gives, and the level's set of leaf codes
    ends up the same.  Each kept child's code and order are those of a
    fresh search, every generator it carries is an automorphism of it, and
    the inherited ones cut the leaves the searches reach."""
    cfg = p6c4_config(k=k, n_max=8)
    search, code_under = canon._search, canon._code_under
    leaves = 0

    def counted(*args):
        nonlocal leaves
        leaves += 1
        return code_under(*args)

    monkeypatch.setattr(canon, "_code_under", counted)
    level, found = enumeration._seeds(cfg), []
    with_leaves = without_leaves = 0
    for _ in range(2, cfg.n_max + 1):
        parents, _ = enumeration._sift_level(level, cfg, found)
        known, known_without, seen = {}, {}, {}
        for parent in parents:
            leaves = 0
            got, _ = enumeration._expand_parent(parent, cfg, known)
            with_leaves += leaves
            with monkeypatch.context() as m:
                m.setattr(canon, "_search", lambda n, adj, nbrs, known, auts: search(n, adj, nbrs, known))
                leaves = 0
                want, _ = enumeration._expand_parent(parent, cfg, known_without)
                without_leaves += leaves
            assert [(code, g.adj, canon.canonical_order(g)) for code, g, _ in got] == [
                (code, g.adj, canon.canonical_order(g)) for code, g, _ in want
            ]
            for code, child, _ in got:
                assert child._canon[:2] == canon._canonical(Graph(child.n, child.adj))[:2]
                assert all(child.relabel(s) == child for s in child._canon[2])
                seen.setdefault(code, child)
        assert known == known_without
        level = [seen[code] for code in sorted(seen)]
    assert with_leaves < without_leaves


@pytest.mark.parametrize("k", [3, 4])
def test_earlier_parent_test_never_changes_a_level(k, monkeypatch):
    """Ablation of the earlier-parent test: with every table withheld, so
    that no child is dropped before labelling, the labelled levels and
    obstructions of the search to n <= 8 are the same, with one worker and
    with two; with the tables, one worker runs fewer canonical searches."""
    real_sift = enumeration._sift_level

    def run(workers):
        levels = []

        def sift(level, cfg, found, colorings):
            levels.append([g.adj for g in level])
            return real_sift(level, cfg, found, colorings)

        with monkeypatch.context() as m:
            m.setattr(enumeration, "_sift_level", sift)
            searches = count_calls(m, canon, "_search")
            result = enumerate_critical(p6c4_config(k=k, n_max=8, workers=workers))
        return levels, [codec.to_graph6(e.graph) for e in result.obstructions], len(searches)

    on, on_two = run(1), run(2)
    monkeypatch.setattr(
        enumeration, "_earlier_parent_tables", lambda parents, made_by: [None] * len(parents)
    )
    off, off_two = run(1), run(2)
    assert len(on[0]) == 8 and on[1]
    assert on[:2] == on_two[:2] == off[:2] == off_two[:2]
    assert on[2] < off[2]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_inherited_colorings_never_change_a_level(k, monkeypatch, tmp_path):
    """Ablation of the colorings children inherit: with every inherited
    coloring withheld, so that every graph of every level goes to
    ``k_color``, the labelled levels, level sizes and obstructions of the
    search to n <= 8 are the same, with one worker and with two.  With
    the colorings, two workers make as few ``k_color`` calls as one, so
    the colorings come back from the workers; and a run resumed from a
    level-6 checkpoint, whose first resumed level inherits nothing,
    equals a fresh run."""
    real_sift = enumeration._sift_level

    def run(workers, withhold, checkpoint=None, n_max=8):
        levels = []

        def sift(level, cfg, found, colorings):
            levels.append([g.adj for g in level])
            return real_sift(level, cfg, found, None if withhold else colorings)

        with monkeypatch.context() as m:
            m.setattr(enumeration, "_sift_level", sift)
            calls = count_calls(m, coloring, "k_color")
            result = enumerate_critical(
                p6c4_config(k=k, n_max=n_max, workers=workers), checkpoint=checkpoint
            )
        lines = [codec.to_graph6(e.graph) for e in result.obstructions]
        return levels, result.level_sizes, lines, len(calls)

    on, on_two = run(1, False), run(2, False)
    off, off_two = run(1, True), run(2, True)
    assert len(on[0]) == 8 and on[2]
    assert on[:3] == on_two[:3] == off[:3] == off_two[:3]
    assert off[3] == sum(map(len, off[0])) > on[3] == on_two[3]

    ck = tmp_path / "ck.json"
    run(1, False, ck, n_max=6)
    resumed = run(1, False, ck)
    assert resumed[0] == on[0][6:]
    assert resumed[1:3] == on[1:3]


@pytest.mark.parametrize("k", [3, 4])
def test_k_color_runs_only_where_no_coloring_was_inherited(k, monkeypatch):
    """In the obstruction search to n <= 8, ``k_color`` is called on
    exactly the sifted graphs that inherited no coloring, in order, and
    every inherited coloring is a proper coloring with palette 1..k."""
    real_sift = enumeration._sift_level
    uncolored, inherited = [], 0

    def sift(level, cfg, found, colorings):
        nonlocal inherited
        for g, col in zip(level, colorings or itertools.repeat(None)):
            if col is None:
                uncolored.append(g)
            else:
                assert coloring.verify_coloring(g, coloring.Coloring(k, tuple(col))) == (True, None)
                inherited += 1
        return real_sift(level, cfg, found, colorings)

    monkeypatch.setattr(enumeration, "_sift_level", sift)
    calls = count_calls(monkeypatch, coloring, "k_color")
    enumerate_critical(p6c4_config(k=k, n_max=8))
    assert calls == [(g, k) for g in uncolored]
    assert all(args[0] is g for args, g in zip(calls, uncolored))
    assert inherited and calls


def test_earlier_parent_tables_index_the_parents():
    """Each entry of a parent's table is the index of the class its
    producer's child falls in, for every free mask whose child was
    labelled, or -1; the last level builds no tables."""
    cfg = p6c4_config(n_max=6)
    parents, priors, hits = enumeration._seeds(cfg), [None], 0
    for n in range(2, 6):
        level, _, made_by = enumeration._next_level(parents, priors, cfg, None, record=True)
        assert set(made_by) == set(level)
        priors = enumeration._earlier_parent_tables(level, made_by)
        index = {canon.canonical_code(g): i for i, g in enumerate(level)}
        for g, (table, bad) in zip(level, priors):
            producer = _without_last(g)
            assert bad == _reference_bad_masks(producer, P6C4)
            assert len(table) == 1 << producer.n and table[0] == -1
            for mask, j in enumerate(table):
                if j >= 0:
                    assert index[canon.canonical_code(producer.add_vertex(mask))] == j
                    hits += 1
        parents = level
    assert hits
    last, _, made_by = enumeration._next_level(parents, priors, cfg, None)
    assert made_by == {}
    assert enumeration._earlier_parent_tables(last, made_by) == [None] * len(last)


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
    result: the expansion runs one search per labelled child and none for
    the parent, the same searches as on the parents that never left, and
    each child's result comes back with it through a pickle round trip.
    A parent without its result runs one more search."""
    cfg = p6c4_config(k=4, n_max=7)
    parents, found = enumeration._seeds(cfg), []
    for _ in range(2, 7):
        level, _, _ = enumeration._next_level(parents, [None] * len(parents), cfg, None)
        parents, _ = enumeration._sift_level(level, cfg, found)
    n = parents[0].n
    assert all(g._canon for g in parents) and all(g.n == n for g in parents)
    priors = [None] * len(parents)

    def expand(graphs):
        with monkeypatch.context() as m:
            calls = count_calls(m, canon, "_search")
            out = enumeration._expand_chunk(graphs, priors, 0, cfg, False)
        return out, [(args[0], args[1]) for args in calls]

    home, home_searches = expand(parents)
    trip, trip_searches = expand(pickle.loads(pickle.dumps(parents)))
    bare, bare_searches = expand([Graph(g.n, g.adj) for g in parents])
    assert home_searches and all(size == n + 1 for size, _ in home_searches)
    assert trip_searches == home_searches
    assert sum(size == n for size, _ in bare_searches) == len(parents)
    assert [size for size, _ in bare_searches].count(n + 1) == len(home_searches)

    def children(chunk):
        return [(code, child, child._canon) for kids, _ in chunk for code, child, _ in kids]

    returned = children(pickle.loads(pickle.dumps(trip)))
    assert [(c, g.adj, r) for c, g, r in returned] == [(c, g.adj, r) for c, g, r in children(home)]
    assert [(c, g.adj) for c, g, _ in children(bare)] == [(c, g.adj) for c, g, _ in children(home)]
    for code, child, result in returned:
        assert result[0] == code
        assert result[:2] == canon._canonical(Graph(child.n, child.adj))[:2]


def _reference_sift_level(level, cfg, found):
    """The sift without the low-degree shortcut: every non-colorable graph
    goes through :func:`is_minimal_obstruction`."""
    extendable = []
    for g in level:
        if coloring.k_color(g, cfg.k) is None:
            if is_minimal_obstruction(g, cfg.k):
                assert structure.find_clique_cutset(g) is None
                found.append((canon.canonical_code(g), g))
        else:
            extendable.append(g)
    return extendable


@pytest.mark.parametrize("k", [3, 4])
def test_low_degree_shortcut_never_changes_the_obstructions(k, monkeypatch):
    checks = count_calls(monkeypatch, coloring, "_deletions_colorable")
    fast = enumerate_critical(p6c4_config(k=k, n_max=8))
    fast_checks = len(checks)
    monkeypatch.setattr(
        enumeration,
        "_sift_level",
        lambda level, cfg, found, colorings: (_reference_sift_level(level, cfg, found), None),
    )
    slow = enumerate_critical(p6c4_config(k=k, n_max=8))
    assert [(e.id, e.graph.adj) for e in fast.obstructions] == [
        (e.id, e.graph.adj) for e in slow.obstructions
    ]
    assert fast.level_sizes == slow.level_sizes
    assert fast.obstructions and fast_checks < len(checks) - fast_checks


def test_containment_prune_never_changes_the_obstructions(monkeypatch):
    """Ablation of the containment prune: extending every graph of each
    level, the non-colorable ones too, and recording obstructions with the
    reference sift finds the same obstructions."""
    base = enumerate_critical(p6c4_config(k=3, n_max=7))

    def sift_keeping_all(level, cfg, found, colorings):
        _reference_sift_level(level, cfg, found)
        return list(level), colorings

    monkeypatch.setattr(enumeration, "_sift_level", sift_keeping_all)
    other = enumerate_critical(p6c4_config(k=3, n_max=7))
    key = lambda run: [canon.canonical_code(e.graph) for e in run.obstructions]
    assert key(base) == key(other)
    assert base.level_sizes[7] < other.level_sizes[7]


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
    # The resumed level has no earlier-parent tables; the representatives,
    # labels included, must still be the fresh run's.
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
