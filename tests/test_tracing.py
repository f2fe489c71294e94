"""``perfbench/tracing.py`` finds every function it is told to trace."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_rebinds_every_traced_name():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = {
        (mod, fn): getattr(mod, fn)
        for name, funcs in tracing.TRACED.items()
        for mod in [importlib.import_module(f"p6c4.{name}")]
        for fn in funcs
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        missed = [
            f"{mod.__name__}.{fn}"
            for (mod, fn), orig in originals.items()
            if getattr(mod, fn) is orig
        ]
    finally:
        tracer.uninstall()
    assert missed == []
    assert all(getattr(mod, fn) is orig for (mod, fn), orig in originals.items())
