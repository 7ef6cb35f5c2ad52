"""The benchmark's per-layer tracer wraps reformkit functions by the names
their callers look them up by; a name that no longer resolves would leave
its layer metric reading 0 instead of failing."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert spans.TARGETS and missing == []
