"""End-to-end command-line behavior: payloads, exit codes, idempotence."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import stack_depth, to_edge_list
import p6c4
from p6c4 import codec, coloring, detect, families
from p6c4.cli import main
from p6c4.graphs import Graph


def write_graph(tmp_path, g, name="g.g6"):
    path = tmp_path / name
    path.write_text(codec.to_graph6(g) + "\n")
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else {}
    return code, payload


def pendant_w5() -> Graph:
    return Graph.from_edges(7, list(families.wheel_graph(5).edges()) + [(0, 6)])


# -- color ---------------------------------------------------------------------


def test_color_plain_success(tmp_path, capsys):
    path = write_graph(tmp_path, families.cycle_graph(5))
    code, payload = run_cli(capsys, "color", "--k", "3", "--in", path)
    assert code == 0 and payload["result"] == "colored"
    colors = {int(v): c for v, c in payload["coloring"].items()}
    assert set(colors) == set(range(5)) and all(1 <= c <= 3 for c in colors.values())


def test_color_plain_failure(tmp_path, capsys):
    path = write_graph(tmp_path, families.complete_graph(4))
    code, payload = run_cli(capsys, "color", "--k", "3", "--in", path)
    assert code == 2 and payload["result"] == "not-colorable"


def test_color_certify_obstructed_names_the_wheel(tmp_path, capsys):
    path = write_graph(tmp_path, pendant_w5())
    code, payload = run_cli(capsys, "color", "--k", "3", "--in", path, "--certify")
    assert code == 2
    assert payload["result"] == "obstructed"
    assert payload["obstruction"]["id"] == "W5"
    # the witness embeds the catalog's own copy of W5 into the input
    entry = next(
        e
        for e in coloring.catalog_load(coloring.default_catalog_path(3))
        if e.id == "W5"
    )
    emb = detect.Embedding(6, tuple(payload["obstruction"]["vertices"]))
    assert detect.verify_embedding(pendant_w5(), entry.graph, emb)


def test_color_certify_success_uses_packaged_catalog(tmp_path, capsys):
    path = write_graph(tmp_path, families.specific_base())
    code, payload = run_cli(capsys, "color", "--k", "4", "--in", path, "--certify")
    assert code == 0 and payload["result"] == "colored"


def test_color_strict_rejects_non_free_input(tmp_path, capsys):
    path = write_graph(tmp_path, families.cycle_graph(4))
    for extra in ((), ("--certify",)):
        code, payload = run_cli(
            capsys, "color", "--k", "3", "--in", path, "--strict", *extra
        )
        assert code == 4
        assert payload["result"] == "not-p6c4-free" and payload["pattern"] == "C4"
        assert len(payload["witness"]) == 4


def test_color_reads_edge_list_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_edge_list(families.cycle_graph(5))))
    code, payload = run_cli(capsys, "color", "--k", "3", "--in", str(path))
    assert code == 0 and payload["result"] == "colored"


# -- detect / props / decompose ---------------------------------------------------


def test_detect_reports_witness(tmp_path, capsys):
    path = write_graph(tmp_path, families.petersen_graph())
    code, payload = run_cli(capsys, "detect", "--pattern", "C5", "--in", path)
    assert code == 0 and payload["free"] is False
    emb = detect.Embedding(5, tuple(payload["witness"]))
    assert detect.verify_embedding(families.petersen_graph(), families.cycle_graph(5), emb)

    code, payload = run_cli(capsys, "detect", "--pattern", "P6", "--in", path)
    assert code == 0 and payload["free"] is True and "witness" not in payload


def test_detect_accepts_raw_graph6_patterns(tmp_path, capsys):
    path = write_graph(tmp_path, families.complete_graph(4))
    k3_code = codec.to_graph6(families.complete_graph(3))
    code, payload = run_cli(capsys, "detect", "--pattern", f"g6:{k3_code}", "--in", path)
    assert code == 0 and payload["free"] is False


def test_detect_long_path_pattern_needs_no_recursion(tmp_path, capsys):
    g = families.path_graph(1100)
    path = write_graph(tmp_path, g)
    pattern = f"g6:{codec.to_graph6(g)}"
    code, payload = run_cli(capsys, "detect", "--pattern", pattern, "--in", path)
    assert code == 0 and payload["free"] is False


def test_props_reports_ring_properties(tmp_path, capsys):
    path = write_graph(tmp_path, families.wheel_graph(5))
    code, payload = run_cli(capsys, "props", "--in", path)
    assert code == 0 and payload["c5_count"] == 1
    report = payload["reports"][0]
    assert len(report["ring"]) == 5
    props = report["properties"]
    assert props["P0"]["status"] == "holds"
    assert "O5.1" in props and "size_bounds" in report


def test_props_on_a_graph_without_five_cycles(tmp_path, capsys):
    path = write_graph(tmp_path, families.path_graph(4))
    code, payload = run_cli(capsys, "props", "--in", path)
    assert code == 0 and payload["c5_count"] == 0 and "note" in payload


def test_decompose_reports_atoms(tmp_path, capsys):
    bowtie = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    path = write_graph(tmp_path, bowtie)
    code, payload = run_cli(capsys, "decompose", "--in", path)
    assert code == 0
    assert sorted(map(tuple, payload["atoms"])) == [(0, 1, 2), (2, 3, 4)]
    assert payload["tree"]["cutset"] == [2]


@pytest.mark.parametrize("argv", [["decompose"]], ids=["decompose"])
def test_too_deep_for_the_recursion_limit_exits_65(tmp_path, capsys, argv):
    # A 200-level decomposition tree is too deep for json.
    path = write_graph(tmp_path, families.path_graph(200))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)
    try:
        code = main(argv + ["--in", path])
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert code == 65 and captured.out == ""
    assert captured.err == "input too large: recursion limit exceeded\n"


def test_plain_color_on_a_long_path_exits_0(tmp_path, capsys):
    g = families.path_graph(1500)
    path = write_graph(tmp_path, g)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 150)  # far below the path length
    try:
        code, payload = run_cli(capsys, "color", "--k", "3", "--in", path)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0 and payload["result"] == "colored"
    col = coloring.Coloring(3, tuple(payload["coloring"][str(v)] for v in range(g.n)))
    assert coloring.verify_coloring(g, col) == (True, None)


# -- enumerate ----------------------------------------------------------------------


def test_enumerate_family_to_stdout(capsys):
    code, payload = run_cli(capsys, "enumerate", "--mode", "family", "--max-n", "5")
    assert code == 0
    assert payload["manifest"]["count"] == len(payload["graphs"]) == 25
    assert payload["manifest"]["forbidden"] == ["P6", "C4"]
    assert payload["manifest"]["n_max_searched"] == 5


def test_enumerate_critical_writes_files_idempotently(tmp_path, capsys):
    out = tmp_path / "crit.g6"
    argv = [
        "enumerate", "--mode", "critical", "--k", "3", "--max-n", "6",
        "--out", str(out), "--workers", "1",
    ]
    assert main(argv) == 0
    first = (out.read_bytes(), out.with_suffix(".json").read_bytes())
    assert main(argv) == 0
    assert (out.read_bytes(), out.with_suffix(".json").read_bytes()) == first

    manifest = json.loads(first[1])
    assert manifest["count"] == 2 and manifest["mode"] == "critical"
    assert manifest["n_max_searched"] == 6
    assert {e["n"] for e in manifest["entries"]} == {4, 6}
    assert out.read_text().count("\n") == 2
    # the same entry records, key order included, as a saved catalog
    saved = tmp_path / "saved.g6"
    coloring.catalog_save(coloring.catalog_load(out), saved)
    saved_entries = json.loads(saved.with_suffix(".json").read_text())["entries"]
    assert json.dumps(saved_entries) == json.dumps(manifest["entries"])
    capsys.readouterr()


def test_enumerate_refuses_an_out_path_that_is_its_own_manifest(tmp_path, capsys):
    """``--out x.json`` would have the manifest overwrite the graph6 file,
    so it exits 65 and writes nothing."""
    out = tmp_path / "x.json"
    argv = ["enumerate", "--mode", "critical", "--k", "3", "--max-n", "6", "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 65 and captured.out == ""
    assert "manifest" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_enumerate_output_does_not_depend_on_workers(tmp_path, capsys):
    files = []
    for workers in ("1", "2"):
        out = tmp_path / f"crit{workers}.g6"
        argv = [
            "enumerate", "--mode", "critical", "--k", "3", "--max-n", "8",
            "--workers", workers, "--out", str(out),
        ]
        assert main(argv) == 0
        files.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert files[0] == files[1]
    assert files[0][0].count(b"\n") == 4
    capsys.readouterr()


def test_enumerate_nice_mode(capsys):
    code, payload = run_cli(
        capsys, "enumerate", "--mode", "nice", "--k", "3", "--max-n", "7",
        "--forbid", "",
    )
    assert code == 0
    assert payload["manifest"]["count"] == 1
    entry = payload["manifest"]["entries"][0]
    assert entry["n"] == 7 and entry["omega"] == 2
    host = codec.from_graph6(entry["line"])
    a, b, c = entry["triple"]
    assert not (host.has_edge(a, b) or host.has_edge(a, c) or host.has_edge(b, c))


def test_enumerate_critical_requires_k(capsys):
    code = main(["enumerate", "--mode", "critical", "--max-n", "5"])
    capsys.readouterr()
    assert code == 65


def test_enumerate_rejects_zero_workers(capsys):
    """``--workers 0`` is refused like any other count below 1, not taken
    as one worker per CPU."""
    for workers in ("0", "-1"):
        code = main(["enumerate", "--mode", "family", "--max-n", "3", "--workers", workers])
        captured = capsys.readouterr()
        assert code == 65 and captured.out == ""
        assert "workers" in captured.err


def test_enumerate_refuses_resume_outside_critical_mode(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    for mode in ("family", "nice"):
        argv = ["enumerate", "--mode", mode, "--k", "3", "--max-n", "4", "--resume", str(ck)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 65 and captured.out == ""
        assert "--resume" in captured.err
    assert not ck.exists()


def test_enumerate_with_the_empty_graph_forbidden_finds_nothing(capsys):
    """Every graph contains K0, so forbidding it leaves no graph at all."""
    for mode in ("family", "critical"):
        code, payload = run_cli(
            capsys, "enumerate", "--mode", mode, "--k", "3", "--max-n", "3",
            "--forbid", "g6:?",
        )
        assert code == 0
        assert payload["graphs"] == [] and payload["manifest"]["count"] == 0
    assert payload["manifest"]["level_sizes"] == {"1": 0}


def test_enumerate_rejects_a_malformed_checkpoint(tmp_path, capsys):
    """A missing or mistyped field is refused.  Level sizes go into the
    manifest as they stand, so a resumed run takes only one count, a
    non-negative int, for each level from 1 to the checkpoint's level.
    Each graph to extend must be a connected, pattern-free, k-colorable
    graph and each obstruction a connected, pattern-free minimal one, each
    class listed once: a search that counts each class from one parent
    would count a duplicate twice.  The digest of the level's classes must
    match, so a level with a graph left out (and a checkpoint without a
    digest) is refused too: the levels above it would be short."""
    ck = tmp_path / "ck.json"
    argv = ["enumerate", "--mode", "critical", "--k", "3", "--max-n", "4", "--resume", str(ck)]
    assert main([*argv, "--workers", "1"]) == 0
    written = json.loads(ck.read_text())
    no_extendable = {**written}
    del no_extendable["extendable"]
    bad_line = {**no_extendable, "extendable": [1]}
    sizes = written["level_sizes"]
    assert sizes == {"1": 1, "2": 1, "3": 2, "4": 5}
    bad_sizes = [
        {"1": "abc", "2": [1]},
        *({**sizes, key: bad} for key, bad in (("1", True), ("1", -1), ("1", 1.0), ("2", [1]))),
        *({**sizes, key: 1} for key in ("5", "0", "01", "x")),
        {},
        {key: v for key, v in sizes.items() if key != "2"},
    ]
    c4, k4 = families.cycle_graph(4), families.complete_graph(4)
    triangle_and_vertex = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    again = codec.to_graph6(codec.from_graph6(written["extendable"][0]).relabel((3, 2, 1, 0)))
    assert written["obstructions"] == [codec.to_graph6(k4)] and again not in written["extendable"]
    tampered = [
        ({**written, "extendable": written["extendable"] + [codec.to_graph6(g)]}, "'extendable'")
        for g in (c4, k4, triangle_and_vertex)
    ] + [
        ({**written, "extendable": written["extendable"] + [again]}, "'extendable'"),
        ({**written, "obstructions": [codec.to_graph6(families.path_graph(4))]}, "'obstructions'"),
        ({**written, "obstructions": ["C~", "C~"]}, "'obstructions'"),
        ({**written, "extendable": written["extendable"][1:]}, "'digest'"),
        ({**written, "digest": 0}, "'digest'"),
        ({**written, "digest": written["digest"][::-1]}, "'digest'"),
        ({key: v for key, v in written.items() if key != "digest"}, "'digest'"),
    ]
    capsys.readouterr()
    for payload, field in [
        ({}, "config"),
        ([], "object"),
        (no_extendable, "extendable"),
        (bad_line, "extendable"),
    ] + [({**written, "level_sizes": bad}, "'level_sizes'") for bad in bad_sizes] + tampered:
        ck.write_text(json.dumps(payload))
        assert main(argv) == 65, payload
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and field in captured.err


def test_enumerate_refuses_a_checkpoint_beyond_max_n(tmp_path, capsys):
    """A checkpoint written by a run to n <= 7 would hand a run to n <= 5
    the obstructions and level sizes of levels 6 and 7."""
    ck = tmp_path / "ck.json"
    argv = ["enumerate", "--mode", "critical", "--k", "3", "--resume", str(ck)]
    assert main([*argv, "--max-n", "7"]) == 0
    assert json.loads(ck.read_text())["level"] == 7
    capsys.readouterr()
    assert main([*argv, "--max-n", "5"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "level 7" in captured.err


def test_enumerate_refuses_a_checkpoint_of_another_version(tmp_path, capsys):
    """A checkpoint records the package version that wrote it; another
    version's search may keep other graphs, so its levels are refused,
    and so is a checkpoint that records no version."""
    ck = tmp_path / "ck.json"
    argv = ["enumerate", "--mode", "critical", "--k", "3", "--resume", str(ck)]
    assert main([*argv, "--max-n", "4"]) == 0
    written = json.loads(ck.read_text())
    assert written["config"]["version"] == p6c4.__version__
    capsys.readouterr()
    unversioned = {**written, "config": {**written["config"]}}
    del unversioned["config"]["version"]
    for payload in ({**written, "config": {**written["config"], "version": "0.0.1"}}, unversioned):
        ck.write_text(json.dumps(payload))
        assert main([*argv, "--max-n", "5"]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "version" in captured.err


def test_enumerate_refuses_a_checkpoint_at_a_level_its_graphs_do_not_match(tmp_path, capsys):
    """A checkpoint written by a run to n <= 4 holds 4-vertex graphs; at a
    level below 1 a resumed run would regrow levels it had counted (or,
    with no graphs left, count levels below 1), and at any other level
    its level sizes and obstructions would be wrong."""
    ck = tmp_path / "ck.json"
    argv = ["enumerate", "--mode", "critical", "--k", "3", "--resume", str(ck)]
    assert main([*argv, "--max-n", "4"]) == 0
    written = json.loads(ck.read_text())
    assert written["level"] == 4 and written["extendable"] and written["obstructions"]
    capsys.readouterr()
    empty = {**written, "extendable": [], "obstructions": []}
    for payload in [{**written, "level": level} for level in (0, -3, 3, 5)] + [
        {**empty, "level": 0}
    ]:
        ck.write_text(json.dumps(payload))
        assert main([*argv, "--max-n", "5"]) == 65
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "'level'" in captured.err


def test_enumerate_resumed_manifest_matches_a_fresh_one(tmp_path, capsys):
    """At k = 1 the search runs out of graphs to extend after level 2.
    Resuming its checkpoint, to the same or a larger max-n, builds no
    empty level, and neither does a search whose seed level is empty."""
    ck = str(tmp_path / "ck.json")

    def manifest(max_n, *argv):
        code, payload = run_cli(
            capsys, "enumerate", "--mode", "critical", "--k", "1", "--workers", "1",
            "--max-n", str(max_n), *argv,
        )
        assert code == 0
        return payload["manifest"]

    fresh = {max_n: manifest(max_n) for max_n in (3, 4)}
    assert fresh[3]["level_sizes"] == fresh[4]["level_sizes"] == {"1": 1, "2": 1}
    for max_n in (3, 3, 4, 4):
        assert manifest(max_n, "--resume", ck) == fresh[max_n]
    assert manifest(3, "--forbid", "g6:@")["level_sizes"] == {"1": 0}


# -- reduce -------------------------------------------------------------------------


def test_reduce_nae_with_check(tmp_path, capsys):
    inst = tmp_path / "one_clause.json"
    inst.write_text('{"n": 3, "clauses": [[1, 2, 3]]}')
    code, payload = run_cli(
        capsys, "reduce", "nae", "--instance", str(inst), "--check"
    )
    assert code == 0
    assert payload["n"] == 29 and payload["palette"] == 4
    assert payload["equivalence"]["agree"] is True
    assert payload["equivalence"]["satisfiable"] is True
    assert payload["equivalence"]["colorable"] is True


def test_reduce_ghi_with_default_host(tmp_path, capsys):
    inst = tmp_path / "inst.cnf"
    inst.write_text("p cnf 2 2\n1 -2 2 0\n-1 -1 -1 0\n")
    code, payload = run_cli(
        capsys, "reduce", "ghi", "--instance", str(inst), "--check"
    )
    assert code == 0
    assert payload["palette"] == 4  # seven-cycle host is 3-critical
    assert payload["n"] == 3 * 2 + 2 * 7
    assert payload["equivalence"]["agree"] is True
    kinds = {r["kind"] for r in payload["roles"]}
    assert {"X", "Xbar", "D", "C", "U"} <= kinds


def test_reduce_ghi_rejects_host_without_witness(tmp_path, capsys):
    inst = tmp_path / "inst.cnf"
    inst.write_text("p cnf 1 1\n1 1 1 0\n")
    host = write_graph(tmp_path, families.cycle_graph(5), "host.g6")
    code = main(["reduce", "ghi", "--instance", str(inst), "--critical", host])
    capsys.readouterr()
    assert code == 65


# -- catalog ------------------------------------------------------------------------


def test_catalog_verify_packaged_data(capsys):
    for k in ("3", "4"):
        code, payload = run_cli(capsys, "catalog", "verify", "--k", k)
        assert code == 0 and payload["ok"] is True


def test_catalog_verify_flags_a_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text(codec.to_graph6(families.cycle_graph(5)) + "\n")
    code, payload = run_cli(capsys, "catalog", "verify", "--k", "3", "--file", str(bad))
    assert code == 1 and payload["ok"] is False


def test_catalog_verify_rejects_a_graph6_file_newer_than_its_manifest(tmp_path, capsys):
    path = tmp_path / "cat.g6"
    coloring.catalog_save(coloring.catalog_load(coloring.default_catalog_path(3)), path)
    path.write_text("".join(reversed(path.read_text().splitlines(keepends=True))))
    code = main(["catalog", "verify", "--k", "3", "--file", str(path)])
    capsys.readouterr()
    assert code == 65


def test_catalog_lookup(tmp_path, capsys):
    w5 = write_graph(tmp_path, families.wheel_graph(5).relabel((3, 0, 5, 1, 4, 2)))
    code, payload = run_cli(capsys, "catalog", "lookup", "--k", "3", "--in", w5)
    assert code == 0 and payload["match"] == "W5"

    c5 = write_graph(tmp_path, families.cycle_graph(5), "c5.g6")
    code, payload = run_cli(capsys, "catalog", "lookup", "--k", "3", "--in", c5)
    assert code == 0 and payload["match"] is None


@pytest.mark.parametrize("action", ["verify", "lookup"])
def test_catalog_manifest_with_wrong_field_types_exits_65(tmp_path, capsys, action):
    """A manifest entry whose fields have the wrong types is a data error:
    no report, no match."""
    path = tmp_path / "cat.g6"
    path.write_text(codec.to_graph6(families.complete_graph(4)) + "\n")
    path.with_suffix(".json").write_text(
        json.dumps({"entries": [{"id": 5, "k": "x", "provenance": None, "verified": 7}]})
    )
    argv = ["catalog", action, "--k", "3", "--file", str(path)]
    if action == "lookup":
        argv += ["--in", write_graph(tmp_path, families.complete_graph(4), "k4.g6")]
    code = main(argv)
    assert code == 65 and capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "entry",
    [
        {"id": 5, "k": 3, "provenance": "p"},
        {"id": "K4", "k": "3", "provenance": "p"},
        {"id": "K4", "k": True, "provenance": "p"},
        {"id": "K4", "k": 3, "provenance": None},
        {"id": "K4", "k": 3, "provenance": "p", "verified": [True]},
    ],
)
def test_catalog_load_checks_each_field_type(tmp_path, entry):
    path = tmp_path / "cat.g6"
    path.write_text(codec.to_graph6(families.complete_graph(4)) + "\n")
    path.with_suffix(".json").write_text(json.dumps({"entries": [entry]}))
    with pytest.raises(ValueError):
        coloring.catalog_load(path)
    good = {"id": "K4", "k": 3, "provenance": "p", "verified": {}}
    path.with_suffix(".json").write_text(json.dumps({"entries": [good]}))
    assert [(e.id, e.k) for e in coloring.catalog_load(path)] == [("K4", 3)]


def test_catalog_lookup_requires_input(capsys):
    code = main(["catalog", "lookup", "--k", "3"])
    capsys.readouterr()
    assert code == 65


def test_catalog_honors_environment_directory(tmp_path, capsys, monkeypatch):
    target = tmp_path / "catalog_k3.g6"
    target.write_text(codec.to_graph6(families.complete_graph(4)) + "\n")
    monkeypatch.setenv("P6C4_CATALOG_DIR", str(tmp_path))
    code, payload = run_cli(capsys, "catalog", "verify", "--k", "3")
    assert code == 0 and payload["ok"] is True and len(payload["entries"]) == 1


# -- plumbing -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, text",
    [
        ("color", '{"n": 3, "edges": 5}'),
        ("color", '{"n": 3, "edges": [[0, null]]}'),
        ("color", '{"n": 3, "edges": [[0, 1.7]]}'),
        ("reduce", '{"n": 3, "clauses": 5}'),
        ("reduce", '{"n": 3, "clauses": [[1, 2, "a"]]}'),
        ("catalog", "{}"),
        ("catalog", "[]"),
    ],
)
def test_malformed_json_exits_65(tmp_path, capsys, command, text):
    """Edge lists, NAE instances and catalog manifests of the wrong shape
    are data errors, not crashes."""
    path = tmp_path / "data.json"
    path.write_text(text)
    if command == "color":
        argv = ["color", "--k", "3", "--in", str(path)]
    elif command == "reduce":
        argv = ["reduce", "nae", "--instance", str(path)]
    else:
        path.with_suffix(".g6").write_text(codec.to_graph6(families.complete_graph(4)) + "\n")
        argv = ["catalog", "verify", "--k", "3", "--file", str(path.with_suffix(".g6"))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 65 and captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_missing_file_exit_code(capsys):
    code = main(["color", "--k", "3", "--in", "/nonexistent/г.g6"])
    capsys.readouterr()
    assert code == 66


def test_corrupt_graph_data_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("C~~~~\n")
    code = main(["color", "--k", "3", "--in", str(path)])
    capsys.readouterr()
    assert code == 65


def test_multi_graph_input_exit_code(tmp_path, capsys, caplog):
    path = tmp_path / "two.g6"
    path.write_text("C~\nCh\n")
    for argv in (["color", "--k", "3"], ["detect", "--pattern", "P4"], ["props"]):
        assert main([*argv, "--in", str(path)]) == 65
    assert capsys.readouterr().out == ""
    assert "found 2 graph6 lines" in caplog.text


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["color", "--in", "x.g6"])  # --k missing
    capsys.readouterr()
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    capsys.readouterr()
    assert info.value.code == 64


def test_out_file_is_byte_identical_across_runs(tmp_path, capsys):
    graph = write_graph(tmp_path, families.wheel_graph(5))
    out = tmp_path / "result.json"
    argv = ["color", "--k", "3", "--in", graph, "--certify", "--out", str(out)]
    assert main(argv) == 2
    first = out.read_bytes()
    assert main(argv) == 2
    assert out.read_bytes() == first
    capsys.readouterr()


def test_module_entrypoint_smoke(tmp_path):
    path = write_graph(tmp_path, families.cycle_graph(5))
    proc = subprocess.run(
        [sys.executable, "-m", "p6c4", "color", "--k", "3", "--in", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "colored"


def test_successive_calls_each_log_to_the_current_stderr(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_text("C~\nCh\n")
    for _ in range(2):
        assert main(["color", "--k", "3", "--in", str(path)]) == 65
        assert "found 2 graph6 lines" in capsys.readouterr().err
