"""Hardness gadgets tying satisfiability to coloring, with brute oracles.

Two constructions are provided.  The first turns a CNF 3-SAT instance and a
nice k-critical graph h into a graph that is (k+1)-colorable exactly when
the instance is satisfiable.  The second turns a positive-literal
not-all-equal 3-SAT instance into a graph that is 4-colorable exactly when
the instance is NAE-satisfiable; its output contains no induced C5 and no
induced P7.  Both are deterministic vertex-for-vertex, and both come with
exhaustive satisfiability oracles so the equivalences can be checked
outright on small instances.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .graphs import Graph
from . import codec, coloring, detect, families, structure
from .enumeration import NiceWitness, is_nice_triple, nice_check

CNF = "cnf"
NAE = "nae"


@dataclass(frozen=True)
class SatInstance:
    """A 3-SAT instance; literals are nonzero 1-based ints, sign = polarity."""

    n_vars: int
    clauses: tuple[tuple[int, int, int], ...]
    flavor: str = CNF

    def __post_init__(self):
        if self.flavor not in (CNF, NAE):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if type(self.n_vars) is not int or self.n_vars < 1:
            raise ValueError(f"need a positive int variable count, not {self.n_vars!r}")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause} does not have three literals")
            for lit in clause:
                if type(lit) is not int or lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit!r} is not an int in range")
                if self.flavor == NAE and lit < 0:
                    raise ValueError("NAE instances take positive literals only")

    @property
    def m(self) -> int:
        return len(self.clauses)


def sat_brute(inst: SatInstance, limit: int = 20) -> dict[int, bool] | None:
    """Exhaustive satisfiability check; returns a model or None.

    CNF clauses need a true literal; NAE clauses need a true one and a
    false one.
    """
    if inst.n_vars > limit:
        raise ValueError(f"instance has {inst.n_vars} variables, limit is {limit}")
    for bitsword in range(1 << inst.n_vars):
        model = {v: bool(bitsword >> (v - 1) & 1) for v in range(1, inst.n_vars + 1)}
        ok = True
        for clause in inst.clauses:
            values = [model[abs(lit)] == (lit > 0) for lit in clause]
            if inst.flavor == CNF:
                ok = any(values)
            else:
                ok = any(values) and not all(values)
            if not ok:
                break
        if ok:
            return model
    return None


# -- labeled outputs ---------------------------------------------------------

X_TYPE = "X"
XBAR_TYPE = "Xbar"
D_TYPE = "D"
F_TYPE = "F"
C_TYPE = "C"
CPRIME_TYPE = "Cprime"
U_TYPE = "U"


@dataclass(frozen=True)
class Role:
    """What a gadget vertex stands for (ids are 1-based, like the instance)."""

    kind: str
    variable: int | None = None
    clause: int | None = None
    label: str | None = None  # F-component position: d, e', e, d'
    literal: int | None = None  # signed literal a C-type vertex encodes


@dataclass(frozen=True)
class LabeledGraph:
    graph: Graph
    roles: tuple[Role, ...]

    def __post_init__(self):
        if len(self.roles) != self.graph.n:
            raise ValueError("role map must cover every vertex")

    def by_kind(self, kind: str) -> list[int]:
        return [v for v, r in enumerate(self.roles) if r.kind == kind]

    def to_json(self) -> dict:
        return {
            "graph6": codec.to_graph6(self.graph),
            "n": self.graph.n,
            "roles": [
                {
                    "vertex": v,
                    "kind": r.kind,
                    **({"variable": r.variable} if r.variable is not None else {}),
                    **({"clause": r.clause} if r.clause is not None else {}),
                    **({"label": r.label} if r.label is not None else {}),
                    **({"literal": r.literal} if r.literal is not None else {}),
                }
                for v, r in enumerate(self.roles)
            ],
        }


def _validate_witness(h: Graph, witness: NiceWitness) -> None:
    a, b, c = witness.triple
    if len({a, b, c}) != 3 or not all(0 <= v < h.n for v in (a, b, c)):
        raise ValueError("witness triple is not three distinct vertices of h")
    if h.has_edge(a, b) or h.has_edge(a, c) or h.has_edge(b, c):
        raise ValueError("witness triple is not independent")
    omega = len(detect.max_clique(h))
    if omega != witness.omega:
        raise ValueError("witness omega is not the clique number of h")
    if not is_nice_triple(h, witness.triple, omega):
        raise ValueError("removing the triple changes the clique number")


def build_ghi(h: Graph, witness: NiceWitness, inst: SatInstance) -> LabeledGraph:
    """Satisfiability gadget over a nice critical graph h.

    Layout: the variable pairs (x_i, xbar_i) come first, then the d_i,
    then one copy of h per clause in input order.  Inside each copy the
    witness triple plays the clause's three literal connectors, one per
    literal position; everything else in the copy is joined completely to
    all variable-pair and d vertices.
    """
    if inst.flavor != CNF:
        raise ValueError("this gadget takes CNF instances")
    _validate_witness(h, witness)
    n, m = inst.n_vars, inst.m

    def x(i):
        return 2 * (i - 1)

    def xbar(i):
        return 2 * (i - 1) + 1

    def d(i):
        return 2 * n + (i - 1)

    def block(j):
        return 3 * n + (j - 1) * h.n

    roles: list[Role | None] = [None] * (3 * n + m * h.n)
    edges: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        edges.append((x(i), xbar(i)))
        roles[x(i)] = Role(X_TYPE, variable=i)
        roles[xbar(i)] = Role(XBAR_TYPE, variable=i)
        roles[d(i)] = Role(D_TYPE, variable=i)

    xd = [x(i) for i in range(1, n + 1)] + [xbar(i) for i in range(1, n + 1)]
    xd += [d(i) for i in range(1, n + 1)]
    for j, clause in enumerate(inst.clauses, start=1):
        base = block(j)
        for u, v in h.edges():
            edges.append((base + u, base + v))
        for t, lit in enumerate(clause):
            cv = base + witness.triple[t]
            i = abs(lit)
            edges.append((cv, d(i)))
            edges.append((cv, x(i) if lit > 0 else xbar(i)))
            roles[cv] = Role(C_TYPE, variable=i, clause=j, literal=lit)
        for p in range(h.n):
            if p in witness.triple:
                continue
            roles[base + p] = Role(U_TYPE, clause=j)
            edges.extend((base + p, w) for w in xd)

    return LabeledGraph(Graph.from_edges(len(roles), edges), tuple(roles))


_C7_TRIPLE = (0, 2, 4)
_F_LABELS = ("d", "e'", "e", "d'")


def build_nae(inst: SatInstance) -> LabeledGraph:
    """Not-all-equal gadget: 4-colorable iff the instance is NAE-satisfiable.

    One vertex per variable, one four-vertex truth-assignment path
    d e' e d' per variable, and two seven-cycles per clause whose
    connector triples sit at ring positions 0, 2, 4.  Ring connectors of
    the first cycle attach to (x_i, d_i); those of the second to
    (x_i, d'_i).  All non-connector cycle vertices are joined completely
    to every variable vertex and every truth-assignment vertex.
    """
    if inst.flavor != NAE:
        raise ValueError("this gadget takes NAE instances")
    n, m = inst.n_vars, inst.m

    def x(i):
        return i - 1

    def f(i, pos):
        return n + 4 * (i - 1) + pos

    def ring(j, prime):
        return 5 * n + 14 * (j - 1) + (7 if prime else 0)

    roles: list[Role | None] = [None] * (5 * n + 14 * m)
    edges: list[tuple[int, int]] = []
    fvs = []
    for i in range(1, n + 1):
        roles[x(i)] = Role(X_TYPE, variable=i)
        for pos, label in enumerate(_F_LABELS):
            roles[f(i, pos)] = Role(F_TYPE, variable=i, label=label)
            fvs.append(f(i, pos))
        edges.extend((f(i, p), f(i, p + 1)) for p in range(3))

    xf = [x(i) for i in range(1, n + 1)] + fvs
    for j, clause in enumerate(inst.clauses, start=1):
        for prime in (False, True):
            base = ring(j, prime)
            edges.extend((base + p, base + (p + 1) % 7) for p in range(7))
            kind = CPRIME_TYPE if prime else C_TYPE
            anchor = 3 if prime else 0  # d'_i sits at path position 3, d_i at 0
            for t, lit in enumerate(clause):
                cv = base + _C7_TRIPLE[t]
                roles[cv] = Role(kind, variable=lit, clause=j, literal=lit)
                edges.append((cv, x(lit)))
                edges.append((cv, f(lit, anchor)))
            for p in range(7):
                if p in _C7_TRIPLE:
                    continue
                roles[base + p] = Role(U_TYPE, clause=j)
                edges.extend((base + p, w) for w in xf)

    return LabeledGraph(Graph.from_edges(len(roles), edges), tuple(roles))


def role_violations(lg: LabeledGraph, kind: str) -> list[str]:
    """Structural laws the role map promises, checked on the built graph.

    Returns human-readable violations (empty list = all laws hold).
    ``kind`` is "ghi" or "nae".
    """
    g = lg.graph
    out = []
    connectors = lg.by_kind(C_TYPE) + lg.by_kind(CPRIME_TYPE)
    for u, v in itertools.combinations(connectors, 2):
        if g.has_edge(u, v):
            out.append(f"connector vertices {u},{v} are adjacent")
    if kind == "ghi":
        targets = lg.by_kind(X_TYPE) + lg.by_kind(XBAR_TYPE) + lg.by_kind(D_TYPE)
    else:
        targets = lg.by_kind(X_TYPE) + lg.by_kind(F_TYPE)
    for u in lg.by_kind(U_TYPE):
        for w in targets:
            if not g.has_edge(u, w):
                out.append(f"filler vertex {u} misses {w}")
    block_of = {v: lg.roles[v].clause for v in range(g.n)}
    for cv in connectors:
        cross = [w for w in g.neighbors(cv) if block_of[w] != lg.roles[cv].clause]
        if len(cross) != 2:
            out.append(f"connector {cv} has {len(cross)} cross edges, wanted 2")
    return out


# -- equivalence and freeness harnesses --------------------------------------


@dataclass(frozen=True)
class EquivalenceVerdict:
    satisfiable: bool
    colorable: bool
    palette: int
    n_vertices: int

    @property
    def agree(self) -> bool:
        return self.satisfiable == self.colorable

    def describe(self) -> str:
        sat = "satisfiable" if self.satisfiable else "unsatisfiable"
        col = f"{self.palette}-colorable" if self.colorable else f"not {self.palette}-colorable"
        verdict = "agree" if self.agree else "DISAGREE"
        return f"instance {sat}; gadget ({self.n_vertices} vertices) {col}; sides {verdict}"


def check_equivalence(
    kind: str,
    h: Graph | None,
    inst: SatInstance,
    k: int,
    witness: NiceWitness | None = None,
) -> EquivalenceVerdict:
    """Brute-force both sides of the sat <-> colorable equivalence.

    For the CNF gadget, ``k`` is the criticality of ``h`` and the palette
    is k+1; for the NAE gadget ``k`` is the palette itself (always 4).
    """
    if kind == "ghi":
        if h is None:
            raise ValueError("the CNF gadget needs a host graph")
        if witness is None:
            witness = nice_check(h, k)
            if witness is None:
                raise ValueError("host graph admits no nice witness")
        built = build_ghi(h, witness, inst)
        palette = k + 1
    elif kind == "nae":
        if k != 4:
            raise ValueError("the NAE gadget targets palette 4")
        built = build_nae(inst)
        palette = 4
    else:
        raise ValueError(f"unknown gadget kind {kind!r}")
    sat = sat_brute(inst) is not None
    colorable = coloring.k_color(built.graph, palette) is not None
    return EquivalenceVerdict(sat, colorable, palette, built.graph.n)


def check_freeness(
    kind: str, built: LabeledGraph, t: int, l: int, h: Graph | None = None
) -> dict[str, structure.Verdict]:
    """Check the freeness the constructions promise.

    CNF gadget: if h is path-free for t >= 6 the output is too, and the
    same for cycle length l >= 6.  NAE gadget: no induced path on 7+
    vertices and no induced C5, unconditionally.  Unmet hypotheses yield
    not-applicable verdicts rather than failures.
    """
    verdicts = {}
    if kind == "ghi":
        if h is None:
            raise ValueError("the CNF gadget check needs the host graph")
        path = families.path_graph(t) if t >= 6 else None
        cycle = families.cycle_graph(l) if l >= 6 else None
        path_ok = path is not None and detect.find_induced_copy(h, path) is None
        cycle_ok = cycle is not None and detect.find_induced_copy(h, cycle) is None
        verdicts["path"] = (
            _freeness_verdict(built.graph, path)
            if path_ok
            else structure.Verdict(structure.NOT_APPLICABLE, None, "host not path-free or t < 6")
        )
        verdicts["cycle"] = (
            _freeness_verdict(built.graph, cycle)
            if cycle_ok
            else structure.Verdict(structure.NOT_APPLICABLE, None, "host not cycle-free or l < 6")
        )
    elif kind == "nae":
        verdicts["path"] = (
            _freeness_verdict(built.graph, families.path_graph(t))
            if t >= 7
            else structure.Verdict(structure.NOT_APPLICABLE, None, "claim covers t >= 7 only")
        )
        verdicts["cycle"] = (
            _freeness_verdict(built.graph, families.cycle_graph(l))
            if l == 5
            else structure.Verdict(structure.NOT_APPLICABLE, None, "claim covers l = 5 only")
        )
    else:
        raise ValueError(f"unknown gadget kind {kind!r}")
    return verdicts


def _freeness_verdict(g: Graph, pattern: Graph) -> structure.Verdict:
    emb = detect.find_induced_copy(g, pattern)
    if emb is None:
        return structure.Verdict(structure.HOLDS, None, "no induced copy")
    return structure.Verdict(structure.VIOLATED, tuple(emb.vmap), "induced copy found")


def all_clauses(n_vars: int, flavor: str = CNF):
    """Every 3-literal clause over the variables, one per literal multiset."""
    if flavor == CNF:
        lits = [v for v in range(1, n_vars + 1)] + [-v for v in range(1, n_vars + 1)]
    else:
        lits = list(range(1, n_vars + 1))
    return list(itertools.combinations_with_replacement(sorted(lits), 3))


# -- file formats ------------------------------------------------------------


def read_dimacs(text: str) -> SatInstance:
    """DIMACS CNF with three literals per clause."""
    n_vars = None
    clauses = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            n_vars = int(parts[2])
            continue
        if n_vars is None:
            raise ValueError("clause before problem line")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if len(current) != 3:
                    raise ValueError(f"clause {current} does not have three literals")
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("unterminated clause at end of input")
    if n_vars is None:
        raise ValueError("missing problem line")
    return SatInstance(n_vars, tuple(clauses), CNF)


def read_nae_json(text: str) -> SatInstance:
    """JSON instance {"n": int, "clauses": [[i, j, k], ...]}, 1-based."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad NAE JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "clauses" not in payload:
        raise ValueError('NAE JSON needs keys "n" and "clauses"')
    clauses = payload["clauses"]
    if not isinstance(clauses, list) or not all(isinstance(cl, list) for cl in clauses):
        raise ValueError('NAE "clauses" must be a list of [i, j, k] lists')
    return SatInstance(payload["n"], tuple(map(tuple, clauses)), NAE)
