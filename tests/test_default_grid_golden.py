"""The default bench grid stays row for row what it was.

``data/default-grid.csv`` is the CSV report of

    mcsym bench --topology diamond,zigzag,house,ring --seeds 0,1,2 --mode none,full,generators --format csv

with the timing columns (``t_*``) dropped, so every instance's state counts,
compression, group size and generator count are pinned.  Rebuild it by

    PYTHONPATH=src python3 tests/test_default_grid_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
from pathlib import Path

from mcsym.cli import main

GOLDEN = Path(__file__).parent / "data" / "default-grid.csv"
ARGS = [
    "bench", "--topology", "diamond,zigzag,house,ring", "--seeds", "0,1,2",
    "--mode", "none,full,generators", "--format", "csv",
]


def untimed_report() -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(ARGS) == 0
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    kept = [c for c in rows[0] if not c.startswith("t_")]
    out = io.StringIO()
    w = csv.DictWriter(out, fieldnames=kept, extrasaction="ignore", lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return out.getvalue()


def test_default_grid_matches_its_golden():
    assert untimed_report() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(untimed_report())
