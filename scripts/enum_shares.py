#!/usr/bin/env python3
"""Where a pass of the ``enum`` workload spends its time, without a profiler.

One pass is ``enumerate_critical`` for (P6,C4), k=3 then k=4, to
``--n-max`` with one worker.  A few functions are wrapped by timers (an
outermost call only, so a recursive or re-entrant call is not counted
twice), one warm-up pass fills the caches a benchmark pass also finds
full, and then each timed pass records its wall time and each function's
time.  Printed: the median pass in ms and, per function, the median over
passes of its share of the pass.

    python3 scripts/enum_shares.py --n-max 8 --passes 5
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from p6c4 import canon, enumeration

# (module, attribute name, the name printed)
TIMED = [
    (enumeration, "_bad_masks", "_bad_masks"),
    (enumeration, "_core_masks", "_core_masks"),
    (canon, "_search", "canon._search"),
    (enumeration, "_mask_images", "_mask_images"),
    (enumeration, "_cut_tables", "_cut_tables"),
]


def _timer(real, spent: dict, name: str):
    depth = 0

    def timed(*args, **kw):
        nonlocal depth
        if depth:
            return real(*args, **kw)
        depth += 1
        t0 = time.perf_counter()
        try:
            return real(*args, **kw)
        finally:
            spent[name] += time.perf_counter() - t0
            depth -= 1

    return timed


def measure(n_max: int, passes: int) -> tuple[list[float], dict[str, list[float]]]:
    """Each timed pass's wall time in seconds, and each function's share
    of every pass."""
    configs = [enumeration.p6c4_config(k=k, n_max=n_max) for k in (3, 4)]
    spent = dict.fromkeys([label for _, _, label in TIMED], 0.0)
    originals = [(module, name, getattr(module, name)) for module, name, _ in TIMED]
    walls, shares = [], {label: [] for label in spent}
    try:
        for module, name, label in TIMED:
            setattr(module, name, _timer(getattr(module, name), spent, label))
        for i in range(passes + 1):  # the first pass warms the caches
            spent.update(dict.fromkeys(spent, 0.0))
            t0 = time.perf_counter()
            for cfg in configs:
                enumeration.enumerate_critical(cfg)
            wall = time.perf_counter() - t0
            if i:
                walls.append(wall)
                for label, s in spent.items():
                    shares[label].append(s / wall)
    finally:
        for module, name, real in originals:
            setattr(module, name, real)
    return walls, shares


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    if args.n_max < 1 or args.passes < 1:
        ap.error("--n-max and --passes must be at least 1")
    walls, shares = measure(args.n_max, args.passes)
    print(
        f"enum k=3,4 n<={args.n_max}, {args.passes} timed passes: "
        f"median {statistics.median(walls) * 1000:.1f} ms per pass"
    )
    for label, values in shares.items():
        print(f"  {label:<14} {statistics.median(values) * 100:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
