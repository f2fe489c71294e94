"""Seeded benchmark inputs, built and checked with the benchmark's own code.

The inputs depend on the seed alone: every random choice comes from one
``random.Random(seed)`` stream, and stalled growth restarts after a fixed
number of rejected additions, never on a timer.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import oracle

# A growing graph that rejects this many additions in a row starts over.
STALL_LIMIT = 200
QUERY_N_RANGE = (12, 40)
C5_CAPS = (0, 2, 4, 6, 6)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _propose(rng: random.Random, adj: list[int]) -> int:
    """A neighbourhood for a new vertex, local to a random vertex ``v``.

    A third of the proposals make a true twin of ``v`` (this grows clique
    blow-ups); the rest pick one to three vertices within distance two of
    ``v``, always including ``v``.
    """
    n = len(adj)
    v = rng.randrange(n)
    if rng.random() < 1 / 3:
        return adj[v] | (1 << v)
    near = adj[v]
    for u in oracle.bits(adj[v]):
        near |= adj[u]
    near &= ~(1 << v)
    pool = list(oracle.bits(near))
    extra = rng.sample(pool, min(len(pool), rng.randrange(3)))
    mask = 1 << v
    for u in extra:
        mask |= 1 << u
    return mask


def _grow(rng: random.Random, n_target: int, omega_cap: int, c5_cap: int) -> list[int]:
    """A connected (P6,C4)-free graph on ``n_target`` vertices with clique
    number at most ``omega_cap`` and at most ``c5_cap`` induced five-cycles,
    grown one checked vertex at a time from an induced five-cycle, or from
    one edge when ``c5_cap`` is 0."""
    start, start_c5 = (oracle.C5, 1) if c5_cap else ([0b10, 0b01], 0)
    adj, rings = list(start), start_c5
    stalled = 0
    while len(adj) < n_target:
        mask = _propose(rng, adj)
        w = len(adj)
        trial = [row | ((mask >> u & 1) << w) for u, row in enumerate(adj)] + [mask]
        ok = oracle.clique_number(trial, mask) + 1 <= omega_cap and not oracle.makes_c4(trial, w)
        if ok:
            new_rings = rings + oracle.c5_through(trial, w)
            ok = new_rings <= c5_cap and not oracle.makes_p6(trial, w)
        if ok:
            adj, rings, stalled = trial, new_rings, 0
        else:
            stalled += 1
            if stalled == STALL_LIMIT:
                adj, rings, stalled = list(start), start_c5, 0
    return adj


def query_corpus(seed: int, count: int) -> list[dict]:
    """``count`` graphs: each with its graph6 line, adjacency and clique cap."""
    rng = random.Random(f"queries:{seed}")
    out = []
    lo, hi = QUERY_N_RANGE
    for i in range(count):
        n = lo + i % (hi - lo + 1)
        cap = rng.choice((3, 4))
        adj = _grow(rng, n, cap, C5_CAPS[i % len(C5_CAPS)])
        out.append({"g6": oracle.encode_graph6(adj), "adj": adj, "omega_cap": cap})
    return out


# Instances drawn per (variables, clauses) stratum.  Gadget size, and with
# it the cost of an audit, is fixed by the stratum, so a fixed allocation
# keeps the sample's cost the same for every seed.  Most weight sits on the
# largest stratum of each flavor, as in the sweep itself; that also puts
# the median op inside the CNF (3, 2) cluster and the tail inside the NAE
# (3, 2) cluster instead of on the edge between two clusters.
GADGET_STRATA = {
    "cnf": {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 4, (3, 1): 4, (3, 2): 36},
    "nae": {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 2, (3, 1): 2, (3, 2): 16},
}


def _bodies(n_vars: int, m: int, nae: bool) -> list:
    """Every instance with ``m`` clauses (a multiset of clauses, repeats
    allowed), as in the acceptance sweep."""
    lits = list(range(1, n_vars + 1))
    if not nae:
        lits += [-v for v in lits]
    clauses = list(itertools.combinations_with_replacement(sorted(lits), 3))
    return list(itertools.combinations_with_replacement(clauses, m))


def gadget_sample(seed: int) -> list[tuple[str, int, tuple]]:
    """A seeded stratified sample of (flavor, n_vars, clauses) from the
    sweep's space: at most 3 variables and 1-2 clauses."""
    rng = random.Random(f"gadgets:{seed}")
    picked = []
    for flavor, strata in GADGET_STRATA.items():
        for (n_vars, m), count in strata.items():
            for body in rng.sample(_bodies(n_vars, m, flavor == "nae"), count):
                picked.append((flavor, n_vars, body))
    return picked
