"""The functions the benchmark traces and captures still exist in the package.

``perfbench`` rebinds them by their defining dotted path (``spans.patched``).
A path that no longer resolves breaks ``perfbench/run.py --trace 1`` and the
reference checks, which no other test runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PATHS = sorted({*workloads.trace_targets(spans.Tracer()), *refcheck.Capture().targets()})


@pytest.mark.parametrize("path", PATHS)
def test_target_resolves_to_its_defining_path(path):
    _, _, fn = spans._lookup(path)
    assert f"{fn.__module__}.{fn.__qualname__}" == path
