"""Byte-for-byte labelled enumeration output on fixed configurations.

The other enumeration tests compare canonical codes, so they cannot see
which labelled copy of each class the search writes.  The family search
writes each graph as its canonical parent plus the new vertex, and the
obstruction search writes each obstruction in canonical form.  These
labelled copies reach users through ``enumerate`` output and the shipped
catalogs, so they are pinned here as graph6 lines, one file per
configuration in ``tests/data/golden/``.  Each configuration runs
serially and with two workers (the CLI's default is one worker per CPU)
against the same file.

To record the files again, run
``PYTHONPATH=src python3 tests/test_golden_enumeration.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from p6c4 import codec
from p6c4.enumeration import enumerate_critical, enumerate_family, p6c4_config

GOLDEN = Path(__file__).parent / "data" / "golden"


def _family_n7(workers: int = 1):
    return enumerate_family(p6c4_config(n_max=7, workers=workers))


def _critical(k: int):
    def run(workers: int = 1):
        cfg = p6c4_config(k=k, n_max=8, workers=workers)
        return (e.graph for e in enumerate_critical(cfg).obstructions)

    return run


CASES = {
    "enum-family-n7": _family_n7,
    "enum-critical-k3-n8": _critical(3),
    "enum-critical-k4-n8": _critical(4),
}


def _render(graphs) -> bytes:
    return "".join(codec.to_graph6(g) + "\n" for g in graphs).encode()


@pytest.mark.parametrize(
    "name, workers",
    [
        pytest.param(name, workers, id=name if workers == 1 else f"{name}-workers{workers}")
        for workers in (1, 2)
        for name in sorted(CASES)
    ],
)
def test_labelled_enumeration_matches_golden(name, workers):
    assert _render(CASES[name](workers)) == (GOLDEN / f"{name}.g6").read_bytes()


if __name__ == "__main__":
    for name, run in CASES.items():
        (GOLDEN / f"{name}.g6").write_bytes(_render(run()))
        print(f"recorded {name}", file=sys.stderr)
