"""Byte-for-byte command-line outputs on a small fixed corpus.

Each case in ``tests/data/golden/cases.json`` gives the arguments of one
command (``{golden}`` stands for the data directory) and its exit status;
``<name>.out`` holds its expected standard output.  The corpus covers
``detect`` (named and ``g6:`` patterns, hits and misses), ``props
--all-c5``, ``color --certify --strict``, ``decompose`` and ``reduce
ghi|nae --check``.
Any change to the search code must reproduce these outputs exactly.

To add a case, append it to ``cases.json`` without an ``exit`` key and run
``PYTHONPATH=src python3 tests/test_golden_cli.py``.  That records the
missing exit statuses and ``.out`` files and leaves existing ones alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from p6c4.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def _cases() -> list[dict]:
    return json.loads((GOLDEN / "cases.json").read_text())


def _argv(case: dict) -> list[str]:
    return [arg.replace("{golden}", str(GOLDEN)) for arg in case["argv"]]


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c["name"])
def test_cli_output_matches_golden(case, capsys):
    code = main(_argv(case))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()


def _record() -> None:
    cases = _cases()
    for case in cases:
        target = GOLDEN / f"{case['name']}.out"
        if "exit" in case and target.exists():
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            case["exit"] = main(_argv(case))
        target.write_bytes(buf.getvalue().encode())
        print(f"recorded {case['name']} (exit {case['exit']})", file=sys.stderr)
    lines = ",\n".join("  " + json.dumps(c) for c in cases)
    (GOLDEN / "cases.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    _record()
