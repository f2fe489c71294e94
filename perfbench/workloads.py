"""The three workloads: their set-up, their ops and the checks on each op.

A workload's ``setup(seed)`` builds its inputs and loads what the ops need;
``ops()`` lists the ops of one pass as ``(label, fn)`` pairs; ``check(i,
result)`` judges op ``i``'s result with the benchmark's own code and
returns ``None`` when it is right or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import inputs
import oracle
from p6c4 import canon, codec, coloring, enumeration, families, reductions, structure

DATA = Path(coloring.__file__).parent / "data"

# Sizes of the extendable levels (the k-colorable family members), n = 1..8.
ENUM_LEVELS = {
    3: (1, 1, 2, 5, 15, 57, 252, 1257),
    4: (1, 1, 2, 5, 16, 61, 286, 1598),
}
ENUM_N_MAX = 8
QUERY_GRAPHS = 120
GADGET_HOST_CRITICALITY = 3
CNF_AUDIT = (7, (6, 8, 9))  # path length t, cycle lengths l
NAE_AUDIT = (7, 5)
PROPERTY_LAWS = [f"P{i}" for i in range(12)]


def _own_catalog(k: int) -> dict[str, list[int]]:
    """Catalog entries by id, decoded by the benchmark's own graph6 reader."""
    lines = (DATA / f"catalog_k{k}.g6").read_text().split()
    ids = [e["id"] for e in json.loads((DATA / f"catalog_k{k}.json").read_text())["entries"]]
    return {i: oracle.decode_graph6(line) for i, line in zip(ids, lines)}


class Enum:
    """``enumerate_critical`` for (P6,C4), one worker: k=3 then k=4, n <= 8."""

    def setup(self, seed: int) -> None:
        # The search has no random input; the seed changes nothing.
        self.configs = [
            enumeration.p6c4_config(k=k, n_max=ENUM_N_MAX, workers=1) for k in (3, 4)
        ]
        self.catalogs = {k: _own_catalog(k) for k in (3, 4)}
        self.input_lines = [f"critical k={k} n_max={ENUM_N_MAX} forbid=P6,C4 workers=1" for k in (3, 4)]

    def ops(self):
        return [(f"critical-k{cfg.k}", lambda cfg=cfg: self._search(cfg)) for cfg in self.configs]

    @staticmethod
    def _search(cfg):
        stamps: list[tuple[int, float]] = []
        t0 = time.perf_counter()

        def log(msg: str) -> None:
            m = re.match(r"level (\d+):", msg)
            if m:
                stamps.append((int(m.group(1)), time.perf_counter()))

        run = enumeration.enumerate_critical(cfg, log=log)
        level_s, prev = {}, t0
        for n, t in stamps:
            level_s[n], prev = t - prev, t
        return run, level_s

    def check(self, i: int, result) -> str | None:
        run, _ = result
        k = self.configs[i].k
        sizes = tuple(run.level_sizes.get(n) for n in range(1, ENUM_N_MAX + 1))
        if sizes != ENUM_LEVELS[k]:
            return f"k={k}: level sizes {sizes}"
        expected = [adj for adj in self.catalogs[k].values() if len(adj) <= ENUM_N_MAX]
        found = [list(e.graph.adj) for e in run.obstructions]
        if len(found) != len(expected):
            return f"k={k}: {len(found)} obstructions, catalog has {len(expected)}"
        for adj in found:
            if sum(oracle.isomorphic(adj, cat) for cat in expected) != 1:
                return f"k={k}: obstruction {oracle.encode_graph6(adj)} matches no catalog entry"
        return None


class Queries:
    """Single-graph user calls on a seeded corpus: color --certify --strict
    for k=3 and k=4, decompose, and props --all-c5."""

    def setup(self, seed: int) -> None:
        self.corpus = inputs.query_corpus(seed, QUERY_GRAPHS)
        self.catalogs = {}
        for k in (3, 4):
            entries = coloring.catalog_load(DATA / f"catalog_k{k}.g6")
            for e in entries:
                canon.canonical_code(e.graph)
            self.catalogs[k] = entries
        self.own_catalogs = {k: _own_catalog(k) for k in (3, 4)}
        self.input_lines = [item["g6"] for item in self.corpus]

    def ops(self):
        out = []
        for item in self.corpus:
            line = item["g6"]
            for k in (3, 4):
                out.append((f"color-k{k}", lambda line=line, k=k: self._color(line, k)))
            out.append(("decompose", lambda line=line: self._decompose(line)))
            out.append(("props", lambda line=line: self._props(line)))
        return out

    def _color(self, line: str, k: int) -> str:
        g = codec.from_graph6(line)
        cert = coloring.certify_color(g, k, catalog=self.catalogs[k], strict=True)
        return json.dumps(cert.to_json(), indent=2)

    @staticmethod
    def _decompose(line: str) -> str:
        tree = structure.decompose(codec.from_graph6(line))
        payload = {
            "tree": tree.to_json(),
            "atoms": [list(a) for a in structure.atom_list(tree)],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def _props(line: str) -> str:
        g = codec.from_graph6(line)
        rings = structure.find_all_c5(g)
        reports = []
        for c in rings:
            part = structure.classify(g, c)
            reports.append(
                {
                    "ring": list(c.ring),
                    "properties": structure.report_to_json(structure.check_properties(g, c, part)),
                    "size_bounds": structure.check_size_bounds(g, c, part),
                }
            )
        return json.dumps({"c5_count": len(rings), "reports": reports}, indent=2)

    def check(self, i: int, result: str) -> str | None:
        adj = self.corpus[i // 4]["adj"]
        payload = json.loads(result)
        kind = i % 4  # the order ops() lists them in
        if kind < 2:
            return self._check_color(adj, 3 + kind, payload)
        if kind == 2:
            return self._check_tree(adj, payload)
        return self._check_props(adj, payload)

    def _check_color(self, adj, k, payload) -> str | None:
        if payload["result"] == "colored":
            colors = [payload["coloring"][str(v)] for v in range(len(adj))]
            return None if oracle.proper_coloring(adj, colors, k) else "improper coloring"
        if payload["result"] == "obstructed":
            ob = payload["obstruction"]
            pattern = self.own_catalogs[k].get(ob["id"])
            if pattern is None:
                return f"unknown catalog id {ob['id']}"
            ok = oracle.induces(adj, ob["vertices"], pattern)
            return None if ok else f"vertices do not induce {ob['id']}"
        return f"result {payload['result']}"

    @staticmethod
    def _check_tree(adj, payload) -> str | None:
        covered = set()
        for atom in payload["atoms"]:
            covered.update(atom)
        if covered != set(range(len(adj))):
            return "atoms do not cover V"
        todo = [payload["tree"]]
        while todo:
            node = todo.pop()
            if node["cutset"] is not None and not oracle.is_clique(adj, node["cutset"]):
                return f"cutset {node['cutset']} is not a clique"
            todo.extend(node["children"])
        return None

    @staticmethod
    def _check_props(adj, payload) -> str | None:
        if payload["c5_count"] != len(payload["reports"]):
            return "report count differs from c5_count"
        for rep in payload["reports"]:
            if not oracle.is_induced_c5(adj, rep["ring"]):
                return f"ring {rep['ring']} is not an induced C5"
            for law in PROPERTY_LAWS:
                if rep["properties"][law]["status"] != structure.HOLDS:
                    return f"{law} on ring {rep['ring']}: {rep['properties'][law]}"
        return None


class Gadgets:
    """Equivalence plus freeness audits for a seeded sample of the gadget
    sweep: CNF over the host C7, positive NAE."""

    def setup(self, seed: int) -> None:
        self.host = families.cycle_graph(7)
        self.witness = enumeration.nice_check(self.host, GADGET_HOST_CRITICALITY)
        self.sample = inputs.gadget_sample(seed)
        self.instances = [
            reductions.SatInstance(n, body, reductions.NAE if flavor == "nae" else reductions.CNF)
            for flavor, n, body in self.sample
        ]
        self.input_lines = [repr(item) for item in self.sample]

    def ops(self):
        return [(f"gadget-{inst.flavor}", lambda inst=inst: self._audit(inst)) for inst in self.instances]

    def _audit(self, inst) -> dict:
        if inst.flavor == reductions.CNF:
            verdict = reductions.check_equivalence(
                "ghi", self.host, inst, GADGET_HOST_CRITICALITY, self.witness
            )
            built = reductions.build_ghi(self.host, self.witness, inst)
            t, ls = CNF_AUDIT
            frees = [reductions.check_freeness("ghi", built, t, l, h=self.host) for l in ls]
        else:
            verdict = reductions.check_equivalence("nae", None, inst, 4)
            built = reductions.build_nae(inst)
            frees = [reductions.check_freeness("nae", built, *NAE_AUDIT)]
        return {
            "sat": verdict.satisfiable,
            "colorable": verdict.colorable,
            "statuses": [v.status for f in frees for v in f.values()],
        }

    def check(self, i: int, result: dict) -> str | None:
        flavor, n_vars, body = self.sample[i]
        sat = oracle.satisfiable(n_vars, body, flavor == "nae")
        if result["sat"] != sat or result["colorable"] != sat:
            return f"{self.sample[i]}: sat={sat}, reported {result}"
        if any(s != structure.HOLDS for s in result["statuses"]):
            return f"{self.sample[i]}: freeness {result['statuses']}"
        return None


WORKLOADS = {"enum": Enum, "queries": Queries, "gadgets": Gadgets}
