"""The benchmark's traced run wraps egodyn functions by name.

``bench/tracing.py`` is loaded read-only here so that renaming a traced
function fails this test rather than only the traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [
        (module, qualname)
        for module, qualnames in tracing.TRACED.items()
        for qualname in qualnames
    ]


@pytest.mark.parametrize("module_name,qualname", _traced_names())
def test_traced_name_resolves(module_name, qualname):
    target = importlib.import_module(f"egodyn.{module_name}")
    for part in qualname.split("."):
        assert hasattr(target, part), f"egodyn.{module_name} has no {qualname}"
        target = getattr(target, part)
    assert callable(target)
