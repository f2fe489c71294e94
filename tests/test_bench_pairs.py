"""``scripts/bench_pairs.py`` against stub checkouts whose benchmark
prints a fixed result."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, correct: bool, failed: int, wall: float = 1.0, ok: float = 1.0) -> Path:
    """A directory whose ``perfbench/run.py`` prints one fixed result."""
    (root / "perfbench").mkdir(parents=True)
    result = {
        "correct": correct,
        "attempted": 4,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "ok_frac": {"value": ok, "unit": "ratio"},
        },
    }
    lines = ["FAILED op 2: wrong answer"] * failed + [json.dumps(result)]
    (root / "perfbench" / "run.py").write_text(f"print({chr(10).join(lines)!r})\n")
    spec = {
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
        ]
    }
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def _argv(parent: Path, change: Path, out: Path) -> list[str]:
    return [str(parent), str(change), "--workload", "gadgets", "--pairs", "2",
            "--seconds", "1", "--first-seed", "5", "--out", str(out)]


def test_bench_pairs_summarizes_correct_runs(tmp_path):
    parent = _checkout(tmp_path / "parent", True, 0)
    change = _checkout(tmp_path / "change", True, 0)
    out = tmp_path / "BENCH.json"
    assert _bench_pairs().main(_argv(parent, change, out)) == 0
    wall = json.loads(out.read_text())["workloads"]["gadgets"]["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == wall["change"]["runs"] == [1.0, 1.0]
    assert wall["beyond_bound"] is False


@pytest.mark.parametrize(
    "wall, ok, flagged",
    [(1.25, 1.0, set()), (1.26, 1.0, {"wall_s"}), (0.5, 0.995, set()), (1.0, 0.98, {"ok_frac"})],
)
def test_bench_pairs_flags_medians_worse_beyond_the_bound(tmp_path, capsys, wall, ok, flagged):
    """A metric is flagged when the change's median is worse than the
    parent's by more than its relative bound: higher for ``wall_s``
    (bound 0.25), lower for ``ok_frac`` (bound 0.01); a change within the
    bound or better is not."""
    parent = _checkout(tmp_path / "parent", True, 0)
    change = _checkout(tmp_path / "change", True, 0, wall, ok)
    out = tmp_path / "BENCH.json"
    assert _bench_pairs().main(_argv(parent, change, out)) == 0
    metrics = json.loads(out.read_text())["workloads"]["gadgets"]["metrics"]
    assert {name for name, m in metrics.items() if m["beyond_bound"]} == flagged
    printed = [line for line in capsys.readouterr().out.splitlines() if "beyond the" in line]
    assert [line.split()[1].rstrip(":") for line in printed] == sorted(flagged)


@pytest.mark.parametrize("correct, failed", [(False, 1), (True, 2), (False, 0)])
def test_bench_pairs_refuses_wrong_runs(tmp_path, correct, failed):
    parent = _checkout(tmp_path / "parent", True, 0)
    change = _checkout(tmp_path / "change", correct, failed)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as info:
        _bench_pairs().main(_argv(parent, change, out))
    message = str(info.value.code)
    assert "change run, seed 5" in message
    assert message.count("FAILED op 2") == failed
    assert not out.exists()
