"""Span tracing from outside the program.

``Tracer.install`` rebinds each listed public function, in every loaded
``p6c4`` module that holds it, to a wrapper that records a span: name,
start, end, parent span and op id.  Rebinding the module attribute catches
calls from other modules (``canon.canonical_code(g)``) and the module's own
global calls alike; a name copied by ``from .x import f`` is found and
rebound too, because every module attribute bound to the same function
object is replaced.  Hot helpers in ``graphs`` (``bits``, ``has_edge``,
``add_vertex``) are never wrapped: they run millions of times per run.

Spans stay in memory until the run ends.  A few wrappers also look at
arguments and results to count the ratios the benchmark reports.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

TRACED = {
    "canon": ("canonical_code", "isomorphism_map"),
    "codec": ("from_graph6",),
    "detect": (
        "has_pattern_through",
        "find_induced_path",
        "find_induced_cycle",
        "find_all_induced_cycles",
        "find_induced_copy",
        "has_clique",
        "max_clique",
    ),
    "coloring": ("k_color", "minimize_obstruction", "certify_color"),
    "structure": (
        "minimal_separators",
        "find_clique_cutset",
        "decompose",
        "classify",
        "check_properties",
        "check_size_bounds",
    ),
    "enumeration": ("enumerate_critical", "is_minimal_obstruction"),
    "reductions": ("build_ghi", "build_nae", "sat_brute", "check_equivalence", "check_freeness"),
}

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # id of the current op, unique within the run
        self._restore: list[tuple[object, str, object]] = []
        # ratio counters
        self.canonicalized = 0
        self.duplicates = 0
        self._codes_seen: set = set()
        self.children = 0
        self.rejected = 0
        self._last_child = None
        self.k_color_none = 0
        self.cutset_calls = 0
        self.cutset_repeats = 0
        self._cutset_seen: set = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "p6c4"]
        for mod_name, funcs in TRACED.items():
            home = sys.modules[f"p6c4.{mod_name}"]
            for fn in funcs:
                orig = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, orig):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before = {"canon.canonical_code": self._before_canon}.get(name)
        after = {
            "canon.canonical_code": self._after_canon,
            "detect.has_pattern_through": self._after_pattern,
            "coloring.k_color": self._after_k_color,
            "structure.find_clique_cutset": self._after_cutset,
        }.get(name)

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                after(args, result, state)
            return result

        return wrapper

    def start_op(self) -> None:
        """Start the next op: a new op id for its spans, and fresh duplicate
        and repeat tracking, which count within one op."""
        self.op += 1
        self._codes_seen.clear()
        self._cutset_seen.clear()

    # -- ratio hooks --------------------------------------------------------

    def _in_enumeration(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[0]][NAME] == "enumeration.enumerate_critical"

    def _before_canon(self, args):
        # A graph without a cached code is a child being canonicalized.
        return getattr(args[0], "_canon", None) is None

    def _after_canon(self, args, code, fresh):
        if fresh and self._in_enumeration():
            self.canonicalized += 1
            key = (args[0].n, code)
            if key in self._codes_seen:
                self.duplicates += 1
            else:
                self._codes_seen.add(key)

    def _after_pattern(self, args, hit, _):
        if args[0] is not self._last_child:
            self._last_child = args[0]
            self.children += 1
        if hit:
            self.rejected += 1

    def _after_k_color(self, args, col, _):
        if col is None:
            self.k_color_none += 1

    def _after_cutset(self, args, _result, _):
        g = args[0]
        key = (g.n, g.adj)
        self.cutset_calls += 1
        if key in self._cutset_seen:
            self.cutset_repeats += 1
        else:
            self._cutset_seen.add(key)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per function: (calls, self seconds), self = span minus its children."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp[PARENT] >= 0:
                child[sp[PARENT]] += sp[END] - sp[START]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, sp in enumerate(self.spans):
            calls[sp[NAME]] += 1
            self_s[sp[NAME]] += sp[END] - sp[START] - child[i]
        return {
            f"{mod}.{fn}": (calls[f"{mod}.{fn}"], self_s[f"{mod}.{fn}"])
            for mod, funcs in TRACED.items()
            for fn in funcs
        }

    def ratios(self) -> dict[str, tuple[float, int]]:
        """Each ratio with its base (the count it divides by)."""

        def ratio(num: int, base: int) -> tuple[float, int]:
            return (num / base if base else 0.0, base)

        k_calls = sum(1 for sp in self.spans if sp[NAME] == "coloring.k_color")
        return {
            "enumeration.dup_ratio": ratio(self.duplicates, self.canonicalized),
            "detect.has_pattern_through.hit_ratio": ratio(self.rejected, self.children),
            "coloring.k_color.none_ratio": ratio(self.k_color_none, k_calls),
            "structure.find_clique_cutset.repeat_ratio": ratio(
                self.cutset_repeats, self.cutset_calls
            ),
        }

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,name,start,end,parent,op\n")
            for i, sp in enumerate(self.spans):
                out.write(f"{i},{sp[NAME]},{sp[START]:.9f},{sp[END]:.9f},{sp[PARENT]},{sp[OP]}\n")
