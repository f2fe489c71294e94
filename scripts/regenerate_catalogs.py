#!/usr/bin/env python3
"""Regenerate the shipped obstruction catalogs from scratch.

Enumerates all minimal non-k-colorable (P6,C4)-free graphs up to the
searched vertex bound for k = 3 and k = 4, names the entries (standard
names where one exists, ``cone_<name>`` for a graph obtained from a
smaller obstruction by adding a universal vertex, ``M<k>_<n><letter>``
otherwise), re-verifies every catalog invariant, and writes the graph6
files plus JSON manifests into ``src/p6c4/data/``.

Each k's line reports its run time and the peak resident memory so far.
A default run (k = 3 to n = 10, k = 4 to n = 11) takes about 2 minutes
on one core with Python 3.11 and peaks near 140 MiB (the last level of
each search is counted, not stored):

    python3 scripts/regenerate_catalogs.py --out src/p6c4/data
"""

from __future__ import annotations

import argparse
import resource
import string
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from p6c4 import canon, coloring, enumeration, families
from p6c4.coloring import ObstructionEntry
from p6c4.graphs import Graph


def moser_spindle() -> Graph:
    return Graph.from_edges(
        7,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5), (4, 5), (4, 6), (5, 6), (3, 6)],
    )


def named_graphs() -> dict[str, Graph]:
    return {
        "K4": families.complete_graph(4),
        "K5": families.complete_graph(5),
        "W5": families.wheel_graph(5),
        "moser_spindle": moser_spindle(),
    }


def assign_ids(entries: list[ObstructionEntry], names: dict[str, str]) -> list[ObstructionEntry]:
    """Rename entries via a canonical-code -> name table, else M<k>_<n><letter>."""
    out = []
    suffixes: dict[int, int] = {}
    for e in entries:
        code = canon.canonical_code(e.graph)
        if code in names:
            ident = names[code]
        else:
            i = suffixes.get(e.graph.n, 0)
            suffixes[e.graph.n] = i + 1
            ident = f"M{e.k}_{e.graph.n}{string.ascii_lowercase[i]}"
            names[code] = ident
        out.append(ObstructionEntry(ident, e.k, e.graph, e.provenance, e.verified))
    return out


def peak_rss(workers: int) -> str:
    """Peak resident set size so far, from ``resource.getrusage``: this
    process's and, with workers, the largest of its finished children's."""
    mib = lambda who: resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
    text = f"peak RSS {mib(resource.RUSAGE_SELF):.0f} MiB"
    if workers > 1:
        text += f", workers {mib(resource.RUSAGE_CHILDREN):.0f} MiB"
    return text


def run(k: int, n_max: int, names: dict[str, str], out_dir: Path, workers: int, checkpoint: Path | None) -> list[ObstructionEntry]:
    cfg = enumeration.p6c4_config(k=k, n_max=n_max, workers=workers)
    t0 = time.time()
    result = enumeration.enumerate_critical(cfg, checkpoint=checkpoint, log=print)
    entries = assign_ids(result.obstructions, names)
    report = coloring.catalog_verify(entries, k)
    if not report["ok"]:
        raise SystemExit(f"catalog k={k} failed verification: {report}")
    path = out_dir / f"catalog_k{k}.g6"
    coloring.catalog_save(entries, path, n_max=n_max)
    print(f"k={k}: {len(entries)} obstructions up to n={n_max} "
          f"in {time.time() - t0:.1f}s ({peak_rss(workers)}) -> {path}")
    for e in entries:
        print(f"  {e.id}: n={e.graph.n}, m={e.graph.m}")
    return entries


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path(__file__).resolve().parent.parent / "src" / "p6c4" / "data")
    ap.add_argument("--n-max-k3", type=int, default=10)
    ap.add_argument("--n-max-k4", type=int, default=11)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--checkpoint-dir", type=Path, default=None,
                    help="directory for resumable enumeration checkpoints")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    names = {canon.canonical_code(g): name for name, g in named_graphs().items()}
    ck = args.checkpoint_dir
    k3 = run(3, args.n_max_k3, names, args.out, args.workers, ck and ck / "ckpt_k3.json")
    # a universal vertex turns a minimal non-3-colorable graph into a
    # minimal non-4-colorable one; name those cones after their base
    for e in k3:
        cone = families.add_universal_vertex(e.graph)
        names.setdefault(canon.canonical_code(cone), f"cone_{e.id}")
    run(4, args.n_max_k4, names, args.out, args.workers, ck and ck / "ckpt_k4.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
