#!/usr/bin/env python3
"""p6c4 benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 35 --trace 0

Set-up (import of the program, input generation, catalog load) runs
SETUP_REPS times, each with a fresh import, and its time is the median.
The timed phase then repeats passes over the workload's fixed ops, at
least MIN_PASSES times and then as long as one more pass fits in
``--seconds``.  Each op's time is its median over the passes; the pass
time is their sum, and the median and tail op are taken over them.  Every
op's output is checked after its pass with the benchmark's own code.

The end-to-end times are host-normalized.  A timer interrupts the run
every REF_EVERY_S to time a fixed pure-Python reference loop.  Set-up and
op times leave those samples out, and each is scaled by REF_LOOP_S over
the median of the samples taken during it and the REF_NEAR samples on
either side, before the medians above are taken: seconds on a host where
the loop takes REF_LOOP_S.  The raw times go to the details file.

With ``--trace 1`` the run makes one untraced pass, then traced passes, and
reports per-layer calls, self time, ratios, ``enum``'s per-level wall times
and the tracing overhead.  Details go to ``.bench_out/`` in the checkout; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
MIN_PASSES = 2
# The reference loop, its nominal time and the sampling interval.  The
# nominal time is near the loop's median on the 2-vCPU Xeon VM the
# benchmark was tuned on; it sets only the scale of the time metrics.
REF_LOOP_N = 5000
REF_LOOP_S = 0.0004
REF_EVERY_S = 0.02
REF_NEAR = 5
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("enum", "queries", "gadgets"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_sources() -> None:
    """Exit with status 1 unless this checkout holds the program's sources."""
    if not (SRC / "p6c4" / "__init__.py").is_file():
        sys.exit(f"run.py: no p6c4 sources under {SRC}")
    sys.path.insert(0, str(SRC))


def fresh_setup(workload: str, seed: int, clock):
    """Import the program anew and set the workload up; returns (seconds,
    sample span, workloads module, workload).  Dropping the cached modules
    first makes every repetition pay the import a user pays on each
    command."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("p6c4", "workloads"):
            del sys.modules[name]
    first = len(clock.samples)
    t = clock.now()
    workloads = importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload]()
    wl.setup(seed)
    elapsed = clock.now() - t
    span = (first, len(clock.samples))
    p6c4 = sys.modules["p6c4"]
    if Path(p6c4.__file__).resolve().parent != SRC / "p6c4":
        sys.exit(f"run.py: imported p6c4 from {p6c4.__file__}, not from {SRC}")
    return elapsed, span, workloads, wl


def reference_loop() -> float:
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i
    return time.perf_counter() - t


class HostClock:
    """Times the reference loop from a SIGALRM handler every REF_EVERY_S.

    The samples spread evenly over the run, inside long ops too.  A shared
    host's speed drifts by up to 2x within minutes and by tens of percent
    within a second; the program and the loop, both pure Python, slow down
    together, so an op's time over the loop's time around it holds still
    where raw times do not.  ``now()`` is ``perf_counter`` less the time
    spent in samples, so the times it measures leave the samples out.  A
    clock that is never started takes no samples.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.busy = False

    def _sample(self, signum, frame) -> None:
        if self.busy:  # a tick that lands inside a sample is dropped
            return
        self.busy = True
        t = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:  # retry if a sample landed between the two reads
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:
                return t - spent

    def scale(self, span: tuple[int, int]) -> float:
        """REF_LOOP_S over the median of the samples numbered ``span``
        (taken while something ran) and the REF_NEAR on either side."""
        a, b = span
        return REF_LOOP_S / statistics.median(self.samples[max(0, a - REF_NEAR) : b + REF_NEAR])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_MIN_BEYOND ops beyond it; the maximum when there are too few ops."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_MIN_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


def run_pass(ops, clock, tracer=None):
    """Run every op once; returns (seconds of all ops, per-op seconds,
    per-op sample spans, results)."""
    times, spans, results = [], [], []
    for _, fn in ops:
        if tracer is not None:
            tracer.start_op()
        first = len(clock.samples)
        t0 = clock.now()
        try:
            res = fn()
        except Exception as exc:  # a failing op is counted, not fatal
            res = exc
        times.append(clock.now() - t0)
        spans.append((first, len(clock.samples)))
        results.append(res)
    return sum(times), times, spans, results


def walls_median(passes) -> float:
    return statistics.median(p[0] for p in passes)


def check_pass(wl, results, reasons: list[str]) -> int:
    """Check one pass's results; returns the failure count and keeps the
    first reasons."""
    failed = 0
    for i, res in enumerate(results):
        why = f"raised {res!r}" if isinstance(res, Exception) else wl.check(i, res)
        if why is not None:
            failed += 1
            if len(reasons) < 20:
                reasons.append(f"op {i}: {why}")
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    check_sources()
    import inputs  # the benchmark's own modules load once, untimed

    # The traced run reports raw per-layer times and starts no host clock.
    clock = HostClock()
    tracer = None
    untraced = None
    reasons: list[str] = []
    failed = 0
    passes = []
    timed = 0.0
    setups = []
    if not args.trace:
        clock.start()
    try:
        for _ in range(SETUP_REPS):
            elapsed, span, workloads, wl = fresh_setup(args.workload, args.seed, clock)
            setups.append((elapsed, span))
        ops = wl.ops()
        if args.trace:
            import tracing

            untraced = run_pass(ops, clock)
            failed += check_pass(wl, untraced[3], reasons)
            tracer = tracing.Tracer()
            tracer.install()
        # Each pass is checked right after it, untimed, and its results
        # dropped, so memory does not grow with the number of passes.
        while len(passes) < MIN_PASSES or timed + walls_median(passes) <= args.seconds:
            wall, times, spans, results = run_pass(ops, clock, tracer)
            timed += wall
            failed += check_pass(wl, results, reasons)
            passes.append((wall, times, spans))
    finally:
        if not args.trace:
            clock.stop()
        if tracer is not None:
            tracer.uninstall()
    attempted = len(ops) * (len(passes) + bool(untraced))
    digest = inputs.digest(wl.input_lines)

    walls = [p[0] for p in passes]
    setup_s = statistics.median(t for t, _ in setups)
    op_s = [statistics.median(p[1][i] for p in passes) for i in range(len(ops))]
    tail_s, tail_pct = tail(op_s)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_sha256": digest,
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "pass_wall_s": walls,
        "tail_percentile": tail_pct,
        "setup_reps_s": [t for t, _ in setups],
        "failures": reasons,
    }

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics = layer_metrics(tracer, passes, untraced, ops, workloads.ENUM_N_MAX)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        info["host"] = {
            "ref_loop_samples": len(clock.samples),
            "ref_loop_median_s": statistics.median(clock.samples),
            "raw_setup_s": setup_s,
            "raw_wall_s": sum(op_s),
            "raw_op_p50_s": statistics.median(op_s),
            "raw_op_tail_s": tail_s,
        }
        setup_s = statistics.median(t * clock.scale(span) for t, span in setups)
        op_s = [
            statistics.median(p[1][i] * clock.scale(p[2][i]) for p in passes)
            for i in range(len(ops))
        ]
        tail_s, _ = tail(op_s)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(sum(op_s), "s"),
            "op_p50_ms": metric(1e3 * statistics.median(op_s), "ms"),
            "op_tail_ms": metric(1e3 * tail_s, "ms"),
            "peak_rss_mib": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
            ),
            "ok_frac": metric((attempted - failed) / attempted, "ratio"),
        }

    info["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2) + "\n"
    )
    print(
        f"{args.workload} seed={args.seed} inputs sha256={digest} "
        f"ops/pass={len(ops)} passes={len(passes)} tail=p{tail_pct:.1f}"
    )
    for why in reasons:
        print(f"FAILED {why}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def layer_metrics(tracer, passes, untraced, ops, n_max) -> dict:
    """Per traced pass: calls and self seconds per function, the ratios,
    ``enum``'s per-level wall times (from the untraced pass) and overhead."""
    n = len(passes)
    out = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        out[f"{name}.calls"] = metric(calls / n, "count")
        out[f"{name}.self_s"] = metric(self_s / n, "s")
    for name, (value, base) in tracer.ratios().items():
        out[name] = metric(value, "ratio")
        out[f"{name}.base"] = metric(base / n, "count")
    levels = {}
    for (label, _), res in zip(ops, untraced[3]):
        if label.startswith("critical-k") and not isinstance(res, Exception):
            levels[int(label[-1])] = res[1]
    for k in (3, 4):
        for lvl in range(2, n_max + 1):
            out[f"enumeration.level.k{k}.n{lvl}.wall_s"] = metric(
                levels.get(k, {}).get(lvl, 0.0), "s"
            )
    traced_wall = walls_median(passes)
    out["trace.wall_s.untraced"] = metric(untraced[0], "s")
    out["trace.wall_s.traced"] = metric(traced_wall, "s")
    out["trace.overhead_ratio"] = metric(traced_wall / untraced[0], "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
