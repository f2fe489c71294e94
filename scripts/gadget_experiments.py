#!/usr/bin/env python3
"""Exhaustive gadget experiments: equivalence and freeness, with timings.

Sweeps every 3-SAT instance with up to --max-vars variables and
--max-clauses clauses (clause multisets, repeats allowed) through the
CNF gadget over a chosen host, and every positive-literal NAE instance
of the same size through the NAE gadget.  Reports, per gadget, the
mismatches and freeness violations (there should be none), the
worst-case gadget size, and two times: the equivalence checks (building
and exactly coloring each gadget, and solving its instance by brute
force) and the freeness checks (building the gadget again and auditing
it).  On one core of a 2-core x86-64 machine with Python 3.11, the run
below takes about 2 seconds (CNF: equivalence 0.33 s, freeness 1.19 s;
NAE: 0.06 s and 0.24 s) and ``--max-clauses 3`` about 53 seconds (CNF:
8.45 s and 42.08 s; NAE: 0.40 s and 1.98 s).

    python3 scripts/gadget_experiments.py --max-vars 3 --max-clauses 2
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from p6c4 import enumeration, families, reductions, structure
from p6c4.reductions import CNF, NAE, SatInstance


def bodies(n_vars: int, max_clauses: int, flavor: str):
    clauses = reductions.all_clauses(n_vars, flavor)
    for m in range(1, max_clauses + 1):
        for body in itertools.combinations_with_replacement(clauses, m):
            yield SatInstance(n_vars, tuple(body), flavor)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-vars", type=int, default=3)
    ap.add_argument("--max-clauses", type=int, default=2)
    ap.add_argument("--host", default=None, help="graph6 host for the CNF gadget (default C7)")
    args = ap.parse_args(argv)

    if args.host:
        from p6c4 import codec

        host = codec.from_graph6(args.host)
    else:
        host = families.cycle_graph(7)
    k_crit = 3
    witness = enumeration.nice_check(host, k_crit)
    if witness is None:
        raise SystemExit("host admits no independent clique-preserving triple")

    for flavor, kind in ((CNF, "ghi"), (NAE, "nae")):
        total = mismatches = free_violations = 0
        largest = 0
        equivalence_s = freeness_s = 0.0
        for n_vars in range(1, args.max_vars + 1):
            for inst in bodies(n_vars, args.max_clauses, flavor):
                total += 1
                t0 = time.perf_counter()
                if kind == "ghi":
                    verdict = reductions.check_equivalence(kind, host, inst, k_crit, witness)
                else:
                    verdict = reductions.check_equivalence(kind, None, inst, 4)
                t1 = time.perf_counter()
                if kind == "ghi":
                    built = reductions.build_ghi(host, witness, inst)
                    frees = [
                        reductions.check_freeness(kind, built, 7, l, h=host)
                        for l in (6, 8, 9)
                    ]
                else:
                    built = reductions.build_nae(inst)
                    frees = [reductions.check_freeness(kind, built, 7, 5)]
                equivalence_s += t1 - t0
                freeness_s += time.perf_counter() - t1
                largest = max(largest, built.graph.n)
                if not verdict.agree:
                    mismatches += 1
                    print(f"  MISMATCH {inst}: {verdict.describe()}")
                for v in frees:
                    for arm in v.values():
                        if arm.status == structure.VIOLATED:
                            free_violations += 1
                            print(f"  FREENESS {inst}: {arm}")
        print(
            f"{kind}: {total} instances, {mismatches} mismatches, "
            f"{free_violations} freeness violations, largest gadget {largest} "
            f"vertices (equivalence {equivalence_s:.2f}s, freeness {freeness_s:.2f}s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
