"""``scripts/enum_shares.py`` on the smallest useful search."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "enum_shares.py"


def test_shares_of_a_small_search_are_printed_and_the_timers_removed(capsys):
    spec = importlib.util.spec_from_file_location("enum_shares", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    before = [getattr(mod, name) for mod, name, _ in module.TIMED]
    assert module.main(["--n-max", "5", "--passes", "2"]) == 0
    assert [getattr(mod, name) for mod, name, _ in module.TIMED] == before
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"enum k=3,4 n<=5, 2 timed passes: median \d+\.\d ms per pass", lines[0])
    shares = [re.fullmatch(r"  (\S+) +(\d+\.\d)%", line) for line in lines[1:]]
    assert all(shares) and [m[1] for m in shares] == [
        "_bad_masks", "_core_masks", "canon._search", "_mask_images", "_cut_tables"
    ]
    assert all(float(m[2]) < 100 for m in shares) and sum(float(m[2]) for m in shares) > 0
