"""``scripts/gadget_experiments.py`` on the smallest sweep."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gadget_experiments.py"


def test_smallest_sweep_finds_no_mismatch_and_no_violation(capsys):
    spec = importlib.util.spec_from_file_location("gadget_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--max-vars", "1", "--max-clauses", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    pattern = (
        r"(ghi|nae): (\d+) instances, 0 mismatches, 0 freeness violations, "
        r"largest gadget \d+ vertices \(equivalence \d+\.\d\ds, freeness \d+\.\d\ds\)"
    )
    matches = [re.fullmatch(pattern, line) for line in lines]
    assert all(matches) and [m[1] for m in matches] == ["ghi", "nae"]
    assert all(int(m[2]) > 0 for m in matches)
