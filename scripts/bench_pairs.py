#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs ``perfbench/run.py`` once in each checkout per pair, on the same
seed, alternating which side goes first, and writes each side's median,
quartiles and runs for every end-to-end metric of ``BENCHMARK.json``,
with the number of pairs the change won and ``beyond_bound``: whether the
change's median is worse than the parent's by more than the metric's
relative ``bound``, the regression the benchmark gate refuses.  Results
for other workloads already in ``--out`` are kept, so one file can hold
every workload.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload enum \\
        --pairs 10 --seconds 35 --first-seed 1101 --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(side: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``checkout``; its metric values by name.

    Exits non-zero, naming the side and the seed, if the run failed or
    any of its answers was wrong, so no summary holds such a run."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"bench_pairs.py: {side} run, seed {seed}, in {checkout} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) > 0:
        sys.exit(
            f"bench_pairs.py: {side} run, seed {seed}, in {checkout} gave wrong answers: "
            f"correct={result.get('correct')}, failed={result.get('failed')}\n"
            + "\n".join(line for line in lines if line.startswith("FAILED"))
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def beyond_bound(parent: float, change: float, lower: bool, bound: float) -> bool:
    """Whether the median ``change`` is worse than ``parent`` by more than
    the fraction ``bound`` of ``parent``."""
    worse = change - parent if lower else parent - change
    return worse > bound * abs(parent)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=("enum", "queries", "gadgets"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--first-seed", type=int, default=1, help="pair i runs seed first_seed + i")
    ap.add_argument("--labels", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(side, sides[side], args.workload, seed, args.seconds))
        wall = {side: round(runs[side][-1]["wall_s"], 3) for side in order}
        print(f"pair {i + 1}/{args.pairs} seed {seed}: wall_s {wall}", file=sys.stderr)

    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        par, chg = summary(par), summary(chg)
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": par,
            "change": chg,
            "change_wins": wins,
            "beyond_bound": beyond_bound(par["median"], chg["median"], lower, m["bound"]),
        }

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["sides"] = args.labels or [args.parent.resolve().name, args.change.resolve().name]
    out.setdefault("workloads", {})[args.workload] = {
        "command": f"perfbench/run.py --workload {args.workload} --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "seeds": seeds,
        "first_side": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for name, m in metrics.items():
        print(
            f"{args.workload} {name}: parent {m['parent']['median']:.4g} "
            f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}] -> change "
            f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, {m['change']['q3']:.4g}], "
            f"change better in {m['change_wins']} of {args.pairs}"
            + (f"; worse beyond the {m['bound']:g} bound" if m["beyond_bound"] else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
