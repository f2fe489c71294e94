"""Satisfiability gadgets: shape, structural laws, equivalences, freeness."""

from __future__ import annotations

import itertools

import pytest

from conftest import count_calls
from p6c4 import detect, families, structure
from p6c4.enumeration import NiceWitness
from p6c4.reductions import (
    CNF,
    C_TYPE,
    CPRIME_TYPE,
    D_TYPE,
    F_TYPE,
    NAE,
    U_TYPE,
    X_TYPE,
    XBAR_TYPE,
    LabeledGraph,
    Role,
    SatInstance,
    all_clauses,
    build_ghi,
    build_nae,
    check_equivalence,
    check_freeness,
    read_dimacs,
    read_nae_json,
    role_violations,
    sat_brute,
)

C7 = families.cycle_graph(7)
C7_WITNESS = NiceWitness((0, 2, 4), 2)


# -- instances and the oracle ---------------------------------------------------


def test_instance_validation():
    SatInstance(2, ((1, -2, 1),))  # fine, repeats allowed
    with pytest.raises(ValueError):
        SatInstance(2, ((1, 2),), CNF)  # arity
    with pytest.raises(ValueError):
        SatInstance(2, ((1, 2, 0),), CNF)  # zero literal
    with pytest.raises(ValueError):
        SatInstance(2, ((1, 2, 3),), CNF)  # out of range
    with pytest.raises(ValueError):
        SatInstance(0, ())  # no variables
    with pytest.raises(ValueError):
        SatInstance(2, ((1, -1, 2),), NAE)  # NAE takes positive literals
    with pytest.raises(ValueError):
        SatInstance(2, (), "xor")
    assert SatInstance(3, ((1, 2, 3), (1, 1, 1))).m == 2


def test_sat_brute_cnf():
    assert sat_brute(SatInstance(3, ((1, 2, 3),))) is not None
    model = sat_brute(SatInstance(2, ((-1, -1, -1), (1, 1, 2))))
    assert model == {1: False, 2: True}
    assert sat_brute(SatInstance(1, ((1, 1, 1), (-1, -1, -1)))) is None


def test_sat_brute_nae():
    # a NAE clause on a single repeated variable can never split
    assert sat_brute(SatInstance(1, ((1, 1, 1),), NAE)) is None
    model = sat_brute(SatInstance(2, ((1, 1, 2),), NAE))
    assert model is not None and model[1] != model[2]


def test_sat_brute_guards_instance_size():
    with pytest.raises(ValueError):
        sat_brute(SatInstance(21, ((1, 2, 3),)))


def test_all_clauses_enumerates_literal_multisets():
    assert len(all_clauses(1)) == 4
    assert all_clauses(2, NAE) == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    assert all(len(c) == 3 for c in all_clauses(3))


# -- CNF gadget -------------------------------------------------------------------


def test_cnf_gadget_shape():
    inst = SatInstance(3, ((1, -2, 3),))
    lg = build_ghi(C7, C7_WITNESS, inst)
    assert lg.graph.n == 3 * 3 + 1 * 7 == 16
    assert len(lg.by_kind(X_TYPE)) == 3
    assert len(lg.by_kind(XBAR_TYPE)) == 3
    assert len(lg.by_kind(D_TYPE)) == 3
    assert len(lg.by_kind(C_TYPE)) == 3
    assert len(lg.by_kind(U_TYPE)) == 4
    assert role_violations(lg, "ghi") == []


def test_cnf_gadget_wiring():
    inst = SatInstance(2, ((1, -2, 2), (-1, -1, 2)))
    lg = build_ghi(C7, C7_WITNESS, inst)
    g = lg.graph
    # each variable pair is an edge
    for i in (1, 2):
        x = lg.roles.index(Role(X_TYPE, variable=i))
        xbar = lg.roles.index(Role(XBAR_TYPE, variable=i))
        assert g.has_edge(x, xbar)
    # a connector reaches its d vertex and the vertex matching its polarity
    for cv, role in enumerate(lg.roles):
        if role.kind != C_TYPE:
            continue
        i = role.variable
        d = lg.roles.index(Role(D_TYPE, variable=i))
        lit_kind = X_TYPE if role.literal > 0 else XBAR_TYPE
        lit_vertex = lg.roles.index(Role(lit_kind, variable=i))
        assert g.has_edge(cv, d) and g.has_edge(cv, lit_vertex)
    assert role_violations(lg, "ghi") == []


def test_cnf_gadget_is_deterministic():
    inst = SatInstance(3, ((1, 2, -3), (-1, -2, -3)))
    a = build_ghi(C7, C7_WITNESS, inst)
    b = build_ghi(C7, C7_WITNESS, inst)
    assert a.graph.adj == b.graph.adj and a.roles == b.roles


def test_cnf_gadget_rejects_bad_inputs():
    nae_inst = SatInstance(2, ((1, 1, 2),), NAE)
    with pytest.raises(ValueError):
        build_ghi(C7, C7_WITNESS, nae_inst)
    inst = SatInstance(2, ((1, 1, 2),))
    with pytest.raises(ValueError):
        build_ghi(C7, NiceWitness((0, 1, 3), 2), inst)  # adjacent pair
    with pytest.raises(ValueError):
        build_ghi(C7, NiceWitness((0, 0, 2), 2), inst)  # repeated vertex
    with pytest.raises(ValueError):
        build_ghi(C7, NiceWitness((0, 2, 4), 3), inst)  # wrong clique number


# -- NAE gadget --------------------------------------------------------------------


def test_nae_gadget_shape():
    inst = SatInstance(3, ((1, 2, 3),), NAE)
    lg = build_nae(inst)
    assert lg.graph.n == 5 * 3 + 14 * 1 == 29
    assert len(lg.by_kind(X_TYPE)) == 3
    assert len(lg.by_kind(F_TYPE)) == 12
    assert len(lg.by_kind(C_TYPE)) == 3
    assert len(lg.by_kind(CPRIME_TYPE)) == 3
    assert len(lg.by_kind(U_TYPE)) == 8
    assert role_violations(lg, "nae") == []


def test_nae_gadget_truth_paths():
    lg = build_nae(SatInstance(2, ((1, 1, 2),), NAE))
    g = lg.graph
    for i in (1, 2):
        chain = [
            next(
                v
                for v, r in enumerate(lg.roles)
                if r.kind == F_TYPE and r.variable == i and r.label == lab
            )
            for lab in ("d", "e'", "e", "d'")
        ]
        for a, b in zip(chain, chain[1:]):
            assert g.has_edge(a, b)
        assert not g.has_edge(chain[0], chain[3])  # a path, not a cycle
    # plain connectors anchor at d, primed ones at d'
    for cv, role in enumerate(lg.roles):
        if role.kind not in (C_TYPE, CPRIME_TYPE):
            continue
        lab = "d" if role.kind == C_TYPE else "d'"
        anchor = next(
            v
            for v, r in enumerate(lg.roles)
            if r.kind == F_TYPE and r.variable == role.variable and r.label == lab
        )
        x = lg.roles.index(Role(X_TYPE, variable=role.variable))
        assert g.has_edge(cv, anchor) and g.has_edge(cv, x)


def test_nae_gadget_rejects_cnf_instances():
    with pytest.raises(ValueError):
        build_nae(SatInstance(2, ((1, 1, 2),), CNF))


def test_labeled_graph_json_shape():
    lg = build_nae(SatInstance(1, ((1, 1, 1),), NAE))
    payload = lg.to_json()
    assert set(payload) == {"graph6", "n", "roles"}
    assert payload["n"] == lg.graph.n == len(payload["roles"])
    connector = next(r for r in payload["roles"] if r["kind"] == C_TYPE)
    assert {"vertex", "kind", "variable", "clause", "literal"} <= set(connector)


def test_labeled_graph_requires_total_roles():
    with pytest.raises(ValueError):
        LabeledGraph(families.path_graph(3), (Role(U_TYPE),))


# -- equivalences ------------------------------------------------------------------


def test_check_equivalence_cnf_examples():
    sat_inst = SatInstance(3, ((1, 2, 3), (-1, -2, -3)))
    v = check_equivalence("ghi", C7, sat_inst, 3, witness=C7_WITNESS)
    assert v.satisfiable and v.colorable and v.agree and v.palette == 4
    assert "agree" in v.describe()

    unsat_inst = SatInstance(1, ((1, 1, 1), (-1, -1, -1)))
    v = check_equivalence("ghi", C7, unsat_inst, 3)  # witness found automatically
    assert not v.satisfiable and not v.colorable and v.agree


def test_check_equivalence_nae_examples():
    v = check_equivalence("nae", None, SatInstance(2, ((1, 1, 2),), NAE), 4)
    assert v.satisfiable and v.colorable and v.agree and v.n_vertices == 24
    v = check_equivalence("nae", None, SatInstance(1, ((1, 1, 1),), NAE), 4)
    assert not v.satisfiable and not v.colorable and v.agree


def test_check_equivalence_rejects_bad_setups():
    inst = SatInstance(2, ((1, 1, 2),), NAE)
    with pytest.raises(ValueError):
        check_equivalence("nae", None, inst, 3)  # palette must be 4
    with pytest.raises(ValueError):
        check_equivalence("ghi", None, SatInstance(2, ((1, 1, 2),)), 3)  # no host
    with pytest.raises(ValueError):
        check_equivalence("xor", None, inst, 4)
    with pytest.raises(ValueError):
        # C5 is 3-critical but admits no independent triple
        check_equivalence("ghi", families.cycle_graph(5), SatInstance(2, ((1, 1, 2),)), 3)


def test_cnf_equivalence_sweep_two_variables():
    clauses = all_clauses(2)
    singles = [(c,) for c in clauses]
    pairs = [tuple(p) for p in itertools.combinations_with_replacement(clauses, 2)]
    for body in singles + pairs:
        inst = SatInstance(2, body)
        v = check_equivalence("ghi", C7, inst, 3, witness=C7_WITNESS)
        assert v.agree, v.describe()


def test_nae_equivalence_sweep_three_variables():
    for n_vars in (1, 2, 3):
        clauses = all_clauses(n_vars, NAE)
        singles = [(c,) for c in clauses]
        pairs = [tuple(p) for p in itertools.combinations_with_replacement(clauses, 2)]
        for body in singles + pairs:
            inst = SatInstance(n_vars, body, NAE)
            v = check_equivalence("nae", None, inst, 4)
            assert v.agree, v.describe()


# -- freeness ----------------------------------------------------------------------


def test_cnf_gadget_freeness_verdicts():
    inst = SatInstance(3, ((1, -2, 3), (2, 2, 3)))
    lg = build_ghi(C7, C7_WITNESS, inst)
    v = check_freeness("ghi", lg, 7, 6, h=C7)
    assert v["path"].status == structure.HOLDS
    assert v["cycle"].status == structure.HOLDS
    # C7 contains induced P6 and C7, so those hypotheses are unmet
    assert check_freeness("ghi", lg, 6, 7, h=C7)["path"].status == structure.NOT_APPLICABLE
    assert check_freeness("ghi", lg, 6, 7, h=C7)["cycle"].status == structure.NOT_APPLICABLE
    # short cycles are outside the claim entirely
    assert check_freeness("ghi", lg, 7, 5, h=C7)["cycle"].status == structure.NOT_APPLICABLE
    for l in (8, 9):
        assert check_freeness("ghi", lg, 7, l, h=C7)["cycle"].status == structure.HOLDS
    with pytest.raises(ValueError):
        check_freeness("ghi", lg, 7, 6)  # host required
    with pytest.raises(ValueError):
        check_freeness("xor", lg, 7, 6)


def test_cnf_freeness_sweep_searches_each_pattern_once(monkeypatch):
    """The path verdict for l = 6, 8, 9 is one P7 search on the gadget and
    one on the host."""
    calls = count_calls(monkeypatch, detect, "find_induced_path")
    host = families.cycle_graph(7)  # a fresh graph, so its memo starts empty
    lg = build_ghi(host, C7_WITNESS, SatInstance(3, ((1, -2, 3), (2, 2, 3))))
    for l in (6, 8, 9):
        check_freeness("ghi", lg, 7, l, h=host)
    assert [t for g, t in calls if g is lg.graph] == [7]
    assert [t for g, t in calls if g is host] == [7]


def test_nae_gadget_freeness_verdicts():
    lg = build_nae(SatInstance(2, ((1, 1, 2),), NAE))
    v = check_freeness("nae", lg, 7, 5)
    assert v["path"].status == structure.HOLDS
    assert v["cycle"].status == structure.HOLDS
    out_of_claim = check_freeness("nae", lg, 6, 6)
    assert out_of_claim["path"].status == structure.NOT_APPLICABLE
    assert out_of_claim["cycle"].status == structure.NOT_APPLICABLE


def test_freeness_reports_witness_on_violation():
    # a hand-labeled P7 is its own induced P7; the checker must say so
    p7 = families.path_graph(7)
    lg = LabeledGraph(p7, tuple(Role(U_TYPE) for _ in range(7)))
    v = check_freeness("nae", lg, 7, 5)
    assert v["path"].status == structure.VIOLATED
    emb = detect.Embedding(7, v["path"].witness)
    assert detect.verify_embedding(p7, families.path_graph(7), emb)


# -- file formats ------------------------------------------------------------------


GOOD_DIMACS = """\
c tiny instance
p cnf 3 2
1 -2 3 0
% trailing comment
-1 2
-3 0
"""


def test_read_dimacs():
    inst = read_dimacs(GOOD_DIMACS)
    assert inst == SatInstance(3, ((1, -2, 3), (-1, 2, -3)), CNF)


@pytest.mark.parametrize(
    "text",
    [
        "p cnf x 1\n1 2 3 0\n",  # malformed header
        "p sat 3 1\n1 2 3 0\n",  # wrong format tag
        "1 2 3 0\n",  # clause before header
        "p cnf 3 1\n1 2 0\n",  # two-literal clause
        "p cnf 3 1\n1 2 3\n",  # unterminated clause
        "c nothing here\n",  # missing header
        "p cnf 2 1\n1 2 3 0\n",  # literal out of range
    ],
)
def test_read_dimacs_rejects(text):
    with pytest.raises(ValueError):
        read_dimacs(text)


def test_read_nae_json():
    inst = read_nae_json('{"n": 3, "clauses": [[1, 2, 3], [1, 1, 2]]}')
    assert inst == SatInstance(3, ((1, 2, 3), (1, 1, 2)), NAE)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"clauses": [[1, 2, 3]]}',  # missing n
        '{"n": 2}',  # missing clauses
        '{"n": 2, "clauses": [[1, -2, 2]]}',  # negative literal
        '{"n": 2, "clauses": [[1, 2]]}',  # arity
    ],
)
def test_read_nae_json_rejects(text):
    with pytest.raises(ValueError):
        read_nae_json(text)
