"""Bitset graph core and the graph6 / edge-list codecs."""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_graphs, components, graphs
from p6c4 import canon, codec, detect, families, structure
from p6c4.graphs import Graph, bits, mask_of, induced_subgraph


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2 and sorted(g.neighbors(1)) == [0, 2]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]


def test_components_and_connectivity():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_connected()
    assert families.path_graph(1).is_connected()
    assert Graph.from_edges(0, []).is_connected()


def test_clique_and_independent_masks():
    g = families.complete_graph(4)
    assert g.is_clique(mask_of([0, 1, 3]))
    assert not g.is_independent(mask_of([0, 1]))
    e = families.empty_graph(4)
    assert e.is_independent(e.full_mask())
    assert e.is_clique(mask_of([2]))


def test_pickle_carries_rows_and_canon_without_answer_caches():
    g = families.wheel_graph(5)
    canon.canonical_code(g)
    detect.find_induced_copy(g, families.path_graph(4))
    structure.find_clique_cutset(g)
    assert g._canon is not None and g._found and g._cutset is None
    h = pickle.loads(pickle.dumps(g))
    assert h == g and h.adj == g.adj
    assert (h._canon, h._found, h._cutset) == (g._canon, None, False)
    bare = pickle.loads(pickle.dumps(families.wheel_graph(5)))
    assert (bare._canon, bare._found, bare._cutset) == (None, None, False)


def test_relabel_and_equality():
    g = families.path_graph(3)
    h = g.relabel([2, 1, 0])
    assert h.has_edge(2, 1) and h.has_edge(1, 0) and not h.has_edge(0, 2)
    assert g == g.relabel([0, 1, 2])


def test_add_vertex():
    g = families.complete_graph(3)
    h = g.add_vertex(0b011)
    assert h.n == 4 and h.degree(3) == 2 and not h.has_edge(3, 2)


def test_induced_subgraph_keeps_all_edges():
    g = families.wheel_graph(5)
    sub, vmap = induced_subgraph(g, {0, 1, 2, 5})
    assert sub.n == 4 and vmap == (0, 1, 2, 5)
    assert sub.m == sum(
        g.has_edge(u, v) for u, v in itertools.combinations(vmap, 2)
    )


def test_min_degree_empty_raises():
    with pytest.raises(ValueError):
        Graph.from_edges(0, []).min_degree()


# -- graph6 codec -------------------------------------------------------------


def test_graph6_known_values():
    assert codec.to_graph6(families.complete_graph(4)) == "C~"
    assert codec.from_graph6("?").n == 0
    assert codec.from_graph6("@").n == 1
    assert codec.from_graph6(">>graph6<<A_").m == 1


def test_graph6_roundtrip_exhaustive_small():
    for n in range(5):
        for g in all_graphs(n):
            assert codec.from_graph6(codec.to_graph6(g)) == g


@settings(max_examples=150)
@given(graphs(max_n=12))
def test_graph6_roundtrip_random(g):
    assert codec.from_graph6(codec.to_graph6(g)) == g


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in [
        families.petersen_graph(),
        families.wheel_graph(5),
        families.path_graph(7),
        families.specific_base(),
    ]:
        ours = codec.to_graph6(g)
        gx = nx.Graph()
        gx.add_nodes_from(range(g.n))
        gx.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(gx, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert sorted(back.edges()) == g.edges()


def test_graph6_error_offsets():
    cases = [
        ("", 0),  # empty
        ("C", 1),  # truncated body
        ("C~~", 2),  # trailing garbage
        ("A" + chr(62), 1),  # bad edge byte
        ("B" + chr(64), 1),  # nonzero padding bits
        ("~", 1),  # truncated size field
        ("~??", 3),
        ("~?" + chr(62) + "?", 2),  # bad size byte
        ("~~????", 6),
        ("~~???" + chr(127) + "??", 5),
        ("~~???~??", 8),  # n = 258048, no edge bytes
    ]
    for text, offset in cases:
        with pytest.raises(codec.Graph6Error) as info:
            codec.from_graph6(text)
        assert info.value.offset == offset, text


def test_graph6_large_n_header():
    g = families.empty_graph(70)  # needs the 4-byte size form
    line = codec.to_graph6(g)
    assert codec.from_graph6(line).n == 70


def test_edge_list_json_roundtrip():
    g = families.wheel_graph(5)
    doc = codec.to_edge_list(g)
    assert doc["n"] == 6
    assert codec.from_edge_list(doc) == g
    with pytest.raises(ValueError):
        codec.from_edge_list({"n": 2, "edges": [[0, 0]]})
    with pytest.raises(ValueError):
        codec.from_edge_list({"n": 2, "edges": [[0, 1], [1, 0]]})


def test_read_graph_text_sniffs_format():
    g = families.path_graph(4)
    assert codec.read_graph_text(codec.to_graph6(g)) == g
    assert codec.read_graph_text('{"n": 2, "edges": [[0, 1]]}') == families.complete_graph(2)
    assert codec.read_graph_text("# comment\nCh\n") == g


def test_read_graph_text_rejects_several_graphs():
    with pytest.raises(ValueError, match="found 3 graph6 lines"):
        codec.read_graph_text("C~\nCh\n# note\n\nD~{\n")
    with pytest.raises(ValueError, match="no graph found"):
        codec.read_graph_text("# only a comment\n\n")


def test_read_graph6_lines():
    text = "C~\nCh\n# note\n\nD~{\n"
    gs = codec.read_graph6_lines(text)
    assert [g.n for g in gs] == [4, 4, 5]
