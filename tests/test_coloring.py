"""Exact coloring, obstruction minimization, catalogs, and certificates."""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_k_color, disjoint_union, empty_graph, graphs, stack_depth
from p6c4 import canon, codec, detect, families, structure
from p6c4.coloring import (
    Coloring,
    NotP6C4FreeError,
    ObstructionEntry,
    catalog_load,
    catalog_lookup,
    catalog_save,
    catalog_verify,
    certify_color,
    chromatic_number,
    default_catalog_path,
    k_color,
    minimize_obstruction,
    verify_coloring,
    _color_within,
    _first_depths,
)
from p6c4.enumeration import NiceWitness
from p6c4.graphs import Graph, bits, induced_subgraph, mask_of
from p6c4.reductions import CNF, NAE, SatInstance, all_clauses, build_ghi, build_nae, sat_brute

GOLDEN = Path(__file__).parent / "data" / "golden"


def moser_spindle() -> Graph:
    return Graph.from_edges(
        7,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (4, 5), (4, 6), (5, 6), (3, 6)],
    )


def small_catalog() -> list[ObstructionEntry]:
    """The two minimal non-3-colorable (P6,C4)-free graphs on <= 6 vertices."""
    return [
        ObstructionEntry("K4", 3, families.complete_graph(4), "test-fixed"),
        ObstructionEntry("W5", 3, families.wheel_graph(5), "test-fixed"),
    ]


# -- exact coloring ----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(graphs(max_n=7), st.integers(1, 4))
def test_k_color_matches_brute_force(g, k):
    got = k_color(g, k)
    expected = brute_k_color(g, k)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        ok, conflict = verify_coloring(g, got)
        assert ok, conflict


def test_k_color_edge_cases():
    assert k_color(empty_graph(0), 2) == Coloring(2, ())
    assert k_color(families.complete_graph(3), 5).assignment == (1, 2, 3)
    with pytest.raises(ValueError):
        k_color(families.complete_graph(3), 0)


def _reference_k_color(g: Graph, k: int) -> Coloring | None:
    """The recursive search that ``k_color`` replaced, kept as its oracle."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if n == 0:
        return Coloring(k, ())
    if k >= n:
        return Coloring(k, tuple(range(1, n + 1)))
    adj = g.adj
    degs = [g.degree(v) for v in range(n)]
    color = [0] * n
    nbr_used = [0] * n  # bitmask of colors (bit c-1) on colored neighbors
    full_k = (1 << k) - 1

    def pick() -> int:
        best, best_key = -1, None
        for v in range(n):
            if color[v]:
                continue
            key = (-nbr_used[v].bit_count(), -degs[v], v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def rec(done: int, used_max: int) -> bool:
        if done == n:
            return True
        v = pick()
        avail = ~nbr_used[v] & ((1 << min(k, used_max + 1)) - 1)
        while avail:
            cbit = avail & -avail
            avail ^= cbit
            c = cbit.bit_length()
            color[v] = c
            touched = []
            dead = False
            for u in bits(adj[v]):
                if not color[u] and not nbr_used[u] & cbit:
                    nbr_used[u] |= cbit
                    touched.append(u)
                    if nbr_used[u] == full_k:
                        dead = True
            if not dead and rec(done + 1, max(used_max, c)):
                return True
            color[v] = 0
            for u in touched:
                nbr_used[u] &= ~cbit
        return False

    if rec(0, 0):
        return Coloring(k, tuple(color))
    return None


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14))
def test_k_color_matches_the_recursive_reference(g):
    for k in range(1, 6):
        assert k_color(g, k) == _reference_k_color(g, k)


def test_k_color_matches_the_recursive_reference_on_family8(family8):
    for g in family8:
        for k in (3, 4):
            assert k_color(g, k) == _reference_k_color(g, k)


def _reference_color_within(g: Graph, k: int, mask: int) -> list[int] | None:
    """``_reference_k_color`` of ``g[mask]`` as a list over the vertices of
    ``g`` (0 outside the mask), or None."""
    sub, vmap = induced_subgraph(g, bits(mask))
    expected = _reference_k_color(sub, k)
    if expected is None:
        return None
    host = [0] * g.n
    for i, c in enumerate(expected.assignment):
        host[vmap[i]] = c
    return host


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=14), st.integers(0, 2**14 - 1), st.integers(1, 5))
def test_color_within_is_k_color_of_the_induced_subgraph(g, mask, k):
    mask &= g.full_mask()
    assert _color_within(g, k, mask) == _reference_color_within(g, k, mask)


C7_WITNESS = NiceWitness((0, 2, 4), 2)


def _gadget_sample(
    seed: int, per_stratum: int, clause_counts: tuple[int, ...] = (1, 2)
) -> list[tuple[Graph, bool]]:
    """Seeded NAE gadgets and CNF gadgets over the seven-cycle, both with
    palette 4, for instances with 1-3 variables and each of
    ``clause_counts`` clauses: up to ``per_stratum`` satisfiable and as
    many unsatisfiable instances for each flavor, variable count and
    clause count, each graph with whether its instance is satisfiable."""
    rng = random.Random(seed)
    out = []
    for flavor in (NAE, CNF):
        for n_vars, m in itertools.product((1, 2, 3), clause_counts):
            bodies = list(itertools.combinations_with_replacement(all_clauses(n_vars, flavor), m))
            rng.shuffle(bodies)
            left = {True: per_stratum, False: per_stratum}
            for body in bodies:
                inst = SatInstance(n_vars, body, flavor)
                sat = sat_brute(inst) is not None
                if not left[sat]:
                    continue
                left[sat] -= 1
                if flavor == NAE:
                    built = build_nae(inst)
                else:
                    built = build_ghi(families.cycle_graph(7), C7_WITNESS, inst)
                out.append((built.graph, sat))
    return out


def test_k_color_matches_the_recursive_reference_on_gadgets():
    sample = _gadget_sample(1212, per_stratum=3)
    assert {(g.n, sat) for g, sat in sample} >= {(10, True), (43, True), (43, False)}
    for g, sat in sample:
        got = k_color(g, 4)
        assert got == _reference_k_color(g, 4)
        assert (got is not None) == sat


# The NAE instance whose gadget took the most frames before backjumping:
# 69,880, against 1,503 at most for any NAE instance with at most 3
# variables and 3 clauses since.
WORST_NAE = SatInstance(3, ((1, 2, 3), (1, 2, 3), (2, 2, 2)), NAE)


def test_backjumping_keeps_the_reference_colorings_on_three_clause_gadgets():
    """Three-clause gadgets are where backjumping skips most of the search:
    an unsatisfiable clause fails far below the choices that caused it.
    The colorings and None answers are still those of the chronological
    reference, on the whole gadget and on seeded random vertex masks."""
    sample = _gadget_sample(1818, per_stratum=2, clause_counts=(3,))
    assert sat_brute(WORST_NAE) is None
    sample.append((build_nae(WORST_NAE).graph, False))
    # CNF gadgets over C7 with 1 and 3 variables, NAE gadgets with 3
    assert {(g.n, sat) for g, sat in sample} >= set(
        itertools.product((24, 30, 57), (True, False))
    )
    rng = random.Random(1819)
    for g, sat in sample:
        got = k_color(g, 4)
        assert got == _reference_k_color(g, 4)
        assert (got is not None) == sat
        for _ in range(2):
            keep = rng.uniform(0.8, 1.0)
            mask = sum(1 << v for v in range(g.n) if rng.random() < keep)
            assert _color_within(g, 4, mask) == _reference_color_within(g, 4, mask)


def test_first_depths_names_the_shallowest_vertex_of_each_color():
    """A conflict reason: for each color among the given vertices, the
    depth of the shallowest frame that gave one of them that color."""
    color = [1, 2, 1, 2, 3, 1]
    depth = [4, 1, 2, 5, 0, 3]
    assert _first_depths(0b111111, color, depth) == 1 << 2 | 1 << 1 | 1 << 0
    assert _first_depths(0b101001, color, depth) == 1 << 3 | 1 << 5
    assert _first_depths(0, color, depth) == 0


def test_color_within_matches_the_reference_on_larger_random_graphs():
    rng = random.Random(1213)
    outcomes = set()
    for _ in range(200):
        n, k = rng.randint(20, 40), rng.randint(3, 5)
        p = rng.uniform(0.6, 1.4) * 2 * k / n  # near the k-colorability threshold
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        keep = rng.uniform(0.5, 1.0)
        mask = sum(1 << v for v in range(n) if rng.random() < keep)
        got = _color_within(g, k, mask)
        assert got == _reference_color_within(g, k, mask)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_k_color_needs_no_recursion():
    path = families.path_graph(1500)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)  # far below the path length
    try:
        col = k_color(path, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert col.assignment == (2, 1) * 750
    assert verify_coloring(path, col) == (True, None)


def test_verify_coloring_reports_conflicts():
    g = families.path_graph(3)
    assert verify_coloring(g, Coloring(2, (1, 2, 1))) == (True, None)
    ok, conflict = verify_coloring(g, Coloring(2, (1, 1, 2)))
    assert not ok and conflict == (0, 1)
    with pytest.raises(ValueError):
        verify_coloring(g, Coloring(2, (1, 2)))
    with pytest.raises(ValueError):
        verify_coloring(g, Coloring(2, (1, 3, 1)))


def test_chromatic_number_examples():
    assert chromatic_number(empty_graph(0)) == 0
    assert chromatic_number(empty_graph(4)) == 1
    assert chromatic_number(families.path_graph(6)) == 2
    assert chromatic_number(families.cycle_graph(5)) == 3
    assert chromatic_number(families.petersen_graph()) == 3
    assert chromatic_number(families.wheel_graph(5)) == 4
    assert chromatic_number(moser_spindle()) == 4
    assert chromatic_number(families.complete_graph(6)) == 6


# -- obstruction minimization -------------------------------------------------


def test_minimize_obstruction_strips_pendant():
    w5 = families.wheel_graph(5)
    g = Graph.from_edges(7, list(w5.edges()) + [(0, 6)])
    small, vmap = minimize_obstruction(g, 3)
    assert vmap == (0, 1, 2, 3, 4, 5)
    assert canon.is_isomorphic(small, w5)


def test_minimize_obstruction_picks_one_component():
    g = disjoint_union(families.complete_graph(4), families.complete_graph(4))
    small, vmap = minimize_obstruction(g, 3)
    assert small.n == 4 and canon.is_isomorphic(small, families.complete_graph(4))


def test_minimize_obstruction_rejects_colorable():
    with pytest.raises(ValueError):
        minimize_obstruction(families.cycle_graph(5), 3)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=4, max_n=7))
def test_minimize_obstruction_is_minimal(g):
    # overlay a clique so the input is guaranteed non-3-colorable
    edges = set(g.edges()) | {(i, j) for i in range(4) for j in range(i + 1, 4)}
    g = Graph.from_edges(g.n, sorted(edges))
    small, vmap = minimize_obstruction(g, 3)
    # an induced subgraph of g ...
    for i in range(small.n):
        for j in range(i + 1, small.n):
            assert small.has_edge(i, j) == g.has_edge(vmap[i], vmap[j])
    # ... that is non-3-colorable and vertex-minimal with that property
    assert k_color(small, 3) is None
    for v in range(small.n):
        sub, _ = induced_subgraph(small, set(range(small.n)) - {v})
        assert k_color(sub, 3) is not None


def _reference_minimize(g: Graph, k: int) -> tuple[Graph, tuple[int, ...]]:
    """The greedy deletion loop with a search for every vertex."""
    alive = g.full_mask()
    for v in range(g.n):
        if _color_within(g, k, alive & ~(1 << v)) is None:
            alive &= ~(1 << v)
    return induced_subgraph(g, bits(alive))


def _same_minimization(g: Graph, k: int) -> None:
    small, vmap = minimize_obstruction(g, k)
    ref_small, ref_vmap = _reference_minimize(g, k)
    assert (small.adj, vmap) == (ref_small.adj, ref_vmap)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=5, max_n=10), st.integers(2, 4))
def test_minimize_obstruction_matches_the_search_for_every_vertex(g, k):
    # overlay a (k+1)-clique so the input is guaranteed non-k-colorable
    edges = set(g.edges()) | set(itertools.combinations(range(k + 1), 2))
    _same_minimization(Graph.from_edges(g.n, sorted(edges)), k)


@pytest.mark.parametrize("name", ["base", "c5blowup", "pendant_w5"])
def test_minimize_obstruction_matches_on_the_obstructed_goldens(name):
    g = codec.from_graph6((GOLDEN / f"{name}.g6").read_text().strip())
    assert certify_color(g, 3).result == "obstructed"
    _same_minimization(g, 3)
    stack = [structure.decompose(g)]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if not node.children and _color_within(g, 3, mask_of(node.vertices)) is None:
            _same_minimization(induced_subgraph(g, node.vertices)[0], 3)


# -- catalogs ------------------------------------------------------------------


def test_catalog_roundtrip(tmp_path):
    entries = small_catalog()
    path = tmp_path / "cat_k3.g6"
    catalog_save(entries, path, n_max=6)
    manifest = json.loads(path.with_suffix(".json").read_text())
    assert manifest["k"] == 3 and manifest["n_max_searched"] == 6
    assert [m["id"] for m in manifest["entries"]] == ["K4", "W5"]

    loaded = catalog_load(path)
    assert [e.id for e in loaded] == ["K4", "W5"]
    assert all(canon.is_isomorphic(a.graph, b.graph) for a, b in zip(entries, loaded))
    assert loaded[0].provenance == "test-fixed"


def test_catalog_load_rejects_mismatched_manifest(tmp_path):
    path = tmp_path / "cat.g6"
    catalog_save(small_catalog(), path, n_max=6)
    manifest = json.loads(path.with_suffix(".json").read_text())
    manifest["entries"].pop()
    path.with_suffix(".json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        catalog_load(path)


def test_failed_catalog_write_keeps_the_previous_one(tmp_path, monkeypatch):
    path = tmp_path / "cat.g6"
    catalog_save(small_catalog(), path, n_max=6)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        catalog_save(small_catalog()[:1], path, n_max=4)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert [e.id for e in catalog_load(path)] == ["K4", "W5"]


def test_catalog_load_rejects_a_torn_save(tmp_path, monkeypatch):
    """Saving [W5, K4] over [K4, W5] with the manifest's rename made to
    fail leaves the new graph6 file beside the old manifest."""
    path = tmp_path / "cat.g6"
    catalog_save(small_catalog(), path, n_max=6)
    real_replace = os.replace
    renames = []

    def second_fails(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    with pytest.raises(OSError, match="rename failed"):
        catalog_save(small_catalog()[::-1], path, n_max=6)
    monkeypatch.undo()
    assert path.read_text().splitlines() == [
        codec.to_graph6(e.graph) for e in small_catalog()[::-1]
    ]
    with pytest.raises(ValueError, match="does not match"):
        catalog_load(path)


def test_catalog_load_accepts_manifests_without_lines(tmp_path):
    path = tmp_path / "cat.g6"
    catalog_save(small_catalog(), path, n_max=6)
    manifest = json.loads(path.with_suffix(".json").read_text())
    for m in manifest["entries"]:
        del m["line"]
    path.with_suffix(".json").write_text(json.dumps(manifest))
    assert [e.id for e in catalog_load(path)] == ["K4", "W5"]


def test_catalog_lookup_is_isomorphism_invariant():
    entries = small_catalog()
    w5_relabeled = families.wheel_graph(5).relabel((5, 0, 1, 2, 3, 4))
    assert catalog_lookup(entries, w5_relabeled) == "W5"
    assert catalog_lookup(entries, families.cycle_graph(5)) is None


# The k=4 obstructions on 10 and 11 vertices, which the n <= 11 search
# added after the seven entries with at most 9 vertices.
NEW_K4_LINES = ["IuQ`IvkUo", "IspHLcV}O", "IsOi^_]{O", "JsPL@[\\cNc_", "JspL@MOD^t?", "JsOk?zqBvd?"]


def test_certify_color_names_each_k4_entry_found_at_n10_and_n11():
    """The shipped k=4 catalog was searched to n <= 11: it keeps its seven
    smaller entries first and lists the six larger ones after them, and
    ``certify_color`` answers each of those, and a relabelling of it, with
    that entry's id and an embedding of it."""
    catalog = catalog_load(default_catalog_path(4))
    manifest = json.loads(default_catalog_path(4).with_suffix(".json").read_text())
    assert manifest["n_max_searched"] == 11
    assert [e.graph.n for e in catalog[:7]] == [5, 7, 8, 9, 9, 9, 9]
    assert [codec.to_graph6(e.graph) for e in catalog[7:]] == NEW_K4_LINES
    rng = random.Random(41)
    for entry in catalog[7:]:
        perm = list(range(entry.graph.n))
        rng.shuffle(perm)
        for g in (entry.graph, entry.graph.relabel(perm)):
            cert = certify_color(g, 4)
            assert cert.result == "obstructed" and cert.obstruction_id == entry.id
            emb = detect.Embedding(entry.graph.n, cert.obstruction_vertices)
            assert detect.verify_embedding(g, entry.graph, emb)


def test_catalog_verify_accepts_the_real_entries():
    report = catalog_verify(small_catalog(), 3)
    assert report["ok"]
    assert [e["id"] for e in report["entries"]] == ["K4", "W5"]
    assert all(all(e["checks"].values()) for e in report["entries"])


def test_catalog_verify_flags_impostors():
    bogus = small_catalog() + [ObstructionEntry("C5", 3, families.cycle_graph(5), "test-fixed")]
    report = catalog_verify(bogus, 3)
    assert not report["ok"]
    checks = report["entries"][-1]["checks"]
    assert not checks["non_k_colorable"]

    doubled = small_catalog() + [ObstructionEntry("K4bis", 3, families.complete_graph(4), "x")]
    report = catalog_verify(doubled, 3)
    assert not report["entries"][-1]["checks"]["code_distinct"]


def test_default_catalog_path_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("P6C4_CATALOG_DIR", str(tmp_path))
    assert default_catalog_path(3) == tmp_path / "catalog_k3.g6"
    monkeypatch.delenv("P6C4_CATALOG_DIR")
    assert default_catalog_path(4).name == "catalog_k4.g6"
    assert default_catalog_path(4).parent.name == "data"


def test_shipped_catalogs_load_and_verify():
    for k, expected_ids in ((3, {"K4", "W5", "moser_spindle"}), (4, {"K5"})):
        entries = catalog_load(default_catalog_path(k))
        assert expected_ids <= {e.id for e in entries}
        assert catalog_verify(entries, k)["ok"]


# -- certified coloring --------------------------------------------------------


def test_certify_color_colored_outcome():
    g = families.specific_base()
    cert = certify_color(g, 4, catalog=[])
    assert cert.result == "colored"
    assert verify_coloring(g, cert.coloring) == (True, None)
    payload = cert.to_json()
    assert payload["result"] == "colored" and set(payload["coloring"]) == {
        str(v) for v in range(g.n)
    }


def test_certify_color_obstructed_outcome():
    w5 = families.wheel_graph(5)
    g = Graph.from_edges(7, list(w5.edges()) + [(0, 6)])
    cert = certify_color(g, 3, catalog=small_catalog())
    assert cert.result == "obstructed"
    assert cert.obstruction_id == "W5"
    emb = detect.Embedding(6, cert.obstruction_vertices)
    assert detect.verify_embedding(g, w5, emb)
    payload = cert.to_json()
    assert payload["obstruction"]["id"] == "W5"
    assert sorted(payload["obstruction"]["vertices"]) == [0, 1, 2, 3, 4, 5]


def test_certify_color_merges_across_clique_cutsets():
    # two triangles glued at a vertex force palette permutation on merge
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    cert = certify_color(g, 3, catalog=small_catalog())
    assert cert.result == "colored"
    assert verify_coloring(g, cert.coloring) == (True, None)


def test_certify_color_handles_disconnected_input():
    g = disjoint_union(families.complete_graph(4), families.path_graph(2))
    cert = certify_color(g, 3, catalog=small_catalog())
    assert cert.result == "obstructed" and cert.obstruction_id == "K4"
    assert set(cert.obstruction_vertices) == {0, 1, 2, 3}


def test_certify_color_strict_mode_refuses_non_free_input():
    with pytest.raises(NotP6C4FreeError) as info:
        certify_color(families.cycle_graph(4), 3, catalog=[])
    assert info.value.pattern_name == "C4"
    assert detect.verify_embedding(
        families.cycle_graph(4), families.cycle_graph(4), info.value.embedding
    )
    with pytest.raises(NotP6C4FreeError) as info:
        certify_color(families.path_graph(6), 3, catalog=[])
    assert info.value.pattern_name == "P6"


def test_certify_color_non_strict_colors_anyway():
    cert = certify_color(families.cycle_graph(4), 3, catalog=[], strict=False)
    assert cert.result == "colored"


def test_certify_deep_tree_needs_no_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)  # far below the tree depth
    try:
        cert = certify_color(families.path_graph(300), 3, catalog=[], strict=False)
    finally:
        sys.setrecursionlimit(limit)
    assert cert.result == "colored"
    assert verify_coloring(families.path_graph(300), cert.coloring) == (True, None)


def test_certify_color_rejects_unsupported_k():
    with pytest.raises(ValueError):
        certify_color(families.complete_graph(3), 5, catalog=[])


def test_certify_color_agrees_with_exact_coloring(small_free_family):
    catalog = small_catalog()
    for g in small_free_family:
        cert = certify_color(g, 3, catalog=catalog)
        if k_color(g, 3) is None:
            assert cert.result == "obstructed"
            sub, _ = induced_subgraph(g, cert.obstruction_vertices)
            assert k_color(sub, 3) is None
        else:
            assert cert.result == "colored"
            assert verify_coloring(g, cert.coloring) == (True, None)
