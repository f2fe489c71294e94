"""Command-line drivers: color, detect, props, decompose, enumerate, reduce,
catalog.

JSON results go to ``--out`` or standard output; human-readable progress goes
to standard error.  The ``color`` command's exit status encodes its
certificate: 0 colored, 2 obstructed, 3 uncataloged obstruction, 4 input not
(P6,C4)-free under ``--strict``.  Other commands exit 0 on success and 1 when
a requested check fails; 64/65/66 flag usage, data, and file errors.  An input
that exceeds Python's recursion limit also exits 65.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .graphs import Graph
from . import codec, coloring, detect, enumeration, families, reductions, structure

log = logging.getLogger("p6c4")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is at that moment, so every
    :func:`main` call logs to its own caller's standard error."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _value):
        pass


_HANDLER = _StderrHandler()
_HANDLER.setFormatter(logging.Formatter("%(message)s"))

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_OBSTRUCTED = 2
EXIT_UNCATALOGED = 3
EXIT_NOT_FREE = 4
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOFILE = 66


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_graph(path: str) -> Graph:
    return codec.read_graph_text(Path(path).read_text())


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


# -- color -------------------------------------------------------------------


def cmd_color(args) -> int:
    g = _read_graph(args.infile)
    if args.strict:
        free, idx, emb = detect.is_free(g, families.P6C4)
        if not free:
            _emit(_not_free_payload(args.k, ("P6", "C4")[idx], emb), args.out)
            return EXIT_NOT_FREE
    if not args.certify:
        col = coloring.k_color(g, args.k)
        if col is None:
            _emit({"result": "not-colorable", "k": args.k}, args.out)
            return EXIT_OBSTRUCTED
        _emit(coloring.Certificate("colored", args.k, coloring=col).to_json(), args.out)
        return EXIT_OK

    cert = coloring.certify_color(g, args.k, strict=False)
    _emit(cert.to_json(), args.out)
    return {
        "colored": EXIT_OK,
        "obstructed": EXIT_OBSTRUCTED,
        "uncataloged": EXIT_UNCATALOGED,
    }[cert.result]


def _not_free_payload(k: int, pattern: str, emb: detect.Embedding) -> dict:
    return {
        "result": "not-p6c4-free",
        "k": k,
        "pattern": pattern,
        "witness": list(emb.vmap),
    }


# -- detect / props / decompose ----------------------------------------------


def cmd_detect(args) -> int:
    g = _read_graph(args.infile)
    pattern = families.pattern_by_name(args.pattern)
    emb = detect.find_induced_copy(g, pattern)
    payload: dict = {"pattern": args.pattern, "free": emb is None}
    if emb is not None:
        payload["witness"] = list(emb.vmap)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_props(args) -> int:
    g = _read_graph(args.infile)
    rings = structure.find_all_c5(g)
    chosen = rings if args.all_c5 else rings[:1]
    reports = []
    for c in chosen:
        part = structure.classify(g, c)
        reports.append(
            {
                "ring": list(c.ring),
                "properties": structure.report_to_json(
                    structure.check_properties(g, c, part)
                ),
                "size_bounds": structure.check_size_bounds(g, c, part),
            }
        )
    payload = {"c5_count": len(rings), "reports": reports}
    if not rings:
        payload["note"] = "graph has no induced five-cycle"
    _emit(payload, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _read_graph(args.infile)
    tree = structure.decompose(g)
    payload = {
        "tree": tree.to_json(),
        "atoms": [list(a) for a in structure.atom_list(tree)],
    }
    _emit(payload, args.out)
    return EXIT_OK


# -- enumerate -----------------------------------------------------------------


def _forbidden(spec: str) -> tuple[tuple[Graph, ...], list[str]]:
    names = [tok.strip() for tok in spec.split(",") if tok.strip()]
    return tuple(families.pattern_by_name(s) for s in names), names


def cmd_enumerate(args) -> int:
    forbidden, names = _forbidden(args.forbid)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    k = args.k if args.k is not None else 3
    if args.mode in ("critical", "nice") and args.k is None:
        raise ValueError(f"--k is required for mode {args.mode}")
    if args.mode != "critical" and args.resume:
        raise ValueError(f"--resume applies to mode critical only, not {args.mode}")
    if args.out:
        codec.manifest_path(args.out)  # refuse a bad path before the search, not after it
    cfg = enumeration.SearchConfig(k=k, n_max=args.max_n, forbidden=forbidden, workers=workers)
    manifest: dict = {
        "mode": args.mode,
        "k": k,
        "n_max_searched": args.max_n,
        "forbidden": names,
    }

    if args.mode == "family":
        lines = [codec.to_graph6(g) for g in enumeration.enumerate_family(cfg)]
        manifest["count"] = len(lines)
    elif args.mode == "critical":
        run = enumeration.enumerate_critical(cfg, checkpoint=args.resume, log=log.info)
        lines = [codec.to_graph6(e.graph) for e in run.obstructions]
        manifest["count"] = len(lines)
        manifest["level_sizes"] = run.level_sizes
        manifest["entries"] = [coloring.manifest_entry(e) for e in run.obstructions]
    else:  # nice
        results = enumeration.find_nice_critical(k, args.max_n, forbidden, workers)
        lines = [codec.to_graph6(g) for g, _ in results]
        manifest["count"] = len(lines)
        manifest["entries"] = [
            {
                "line": codec.to_graph6(g),
                "n": g.n,
                "triple": list(w.triple),
                "omega": w.omega,
            }
            for g, w in results
        ]

    if args.out:
        out = Path(args.out)
        codec.write_with_manifest(out, lines, manifest)
        log.info("wrote %s and %s", out, out.with_suffix(".json"))
    else:
        _emit({"graphs": lines, "manifest": manifest}, None)
    return EXIT_OK


# -- reduce --------------------------------------------------------------------


def cmd_reduce(args) -> int:
    text = Path(args.instance).read_text()
    witness = None
    h = None
    if args.kind == "ghi":
        inst = reductions.read_dimacs(text)
        h = _read_graph(args.critical) if args.critical else families.cycle_graph(7)
        k_crit = coloring.chromatic_number(h)
        witness = enumeration.nice_check(h, k_crit)
        if witness is None:
            raise ValueError("host graph admits no independent clique-preserving triple")
        built = reductions.build_ghi(h, witness, inst)
        palette = k_crit + 1
    else:
        inst = reductions.read_nae_json(text)
        built = reductions.build_nae(inst)
        k_crit = None
        palette = 4

    payload = built.to_json()
    payload["palette"] = palette
    verdict = None
    if args.check:
        verdict = reductions.check_equivalence(
            args.kind, h, inst, k_crit if args.kind == "ghi" else 4, witness
        )
        payload["equivalence"] = {
            "satisfiable": verdict.satisfiable,
            "colorable": verdict.colorable,
            "palette": verdict.palette,
            "agree": verdict.agree,
        }
        log.info("%s", verdict.describe())
    _emit(payload, args.out)
    if verdict is not None and not verdict.agree:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- catalog -------------------------------------------------------------------


def cmd_catalog(args) -> int:
    path = Path(args.file) if args.file else coloring.default_catalog_path(args.k)
    entries = coloring.catalog_load(path)
    if args.action == "verify":
        report = coloring.catalog_verify(entries, args.k)
        _emit(report, args.out)
        return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED
    if not args.infile:
        raise ValueError("catalog lookup needs --in")
    g = _read_graph(args.infile)
    match = coloring.catalog_lookup(entries, g)
    _emit({"match": match}, args.out)
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="p6c4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="k-color a graph, optionally with a certificate")
    p.add_argument("--k", type=int, choices=(3, 4), required=True)
    p.add_argument("--in", dest="infile", required=True, help="graph6 or edge-list JSON")
    p.add_argument("--certify", action="store_true", help="emit a checkable certificate")
    p.add_argument("--strict", action="store_true", help="reject inputs with induced P6 or C4")
    p.add_argument("--out")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("detect", help="find one induced copy of a pattern")
    p.add_argument("--pattern", required=True, help="P6, C4, ... or g6:<code>")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("props", help="five-cycle neighborhood properties")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--all-c5", dest="all_c5", action="store_true", help="report every induced C5")
    p.add_argument("--out")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("decompose", help="clique-cutset decomposition tree")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("enumerate", help="exhaustive family / obstruction search")
    p.add_argument("--mode", choices=("family", "critical", "nice"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--forbid", default="P6,C4", help="comma-separated pattern names")
    p.add_argument("--out", help="graph6 output path; manifest lands beside it")
    p.add_argument("--resume", help="checkpoint file for long critical runs")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("reduce", help="build a satisfiability gadget")
    p.add_argument("kind", choices=("ghi", "nae"))
    p.add_argument("--critical", help="host graph file (default: seven-cycle)")
    p.add_argument("--instance", required=True, help="DIMACS CNF (ghi) or JSON (nae)")
    p.add_argument("--check", action="store_true", help="brute-force the equivalence")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("catalog", help="verify or query an obstruction catalog")
    p.add_argument("action", choices=("verify", "lookup"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--file", help="catalog path (default: packaged data)")
    p.add_argument("--in", dest="infile", help="graph to look up")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    log.addHandler(_HANDLER)  # no-op once attached
    log.setLevel(logging.INFO)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except codec.Graph6Error as exc:
        log.error("bad graph data: %s", exc)
        return EXIT_DATA
    except FileNotFoundError as exc:
        log.error("cannot read %s", exc.filename or exc)
        return EXIT_NOFILE
    except OSError as exc:
        log.error("file error: %s", exc)
        return EXIT_NOFILE
    except ValueError as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except RecursionError:
        # Only json of a very deep decompose tree runs out of stack.
        log.error("input too large: recursion limit exceeded")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
