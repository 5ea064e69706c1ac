"""Rewrites stay byte-identical to committed golden digests.

``data/rewrite-sha256.txt`` has one line per rewrite of the grid below: the
mode, the topology, the size and the seed, then the sha256 of
``emit_system(extend_mcs(m, breakers))``, where ``m`` is the generated
instance and the breakers come from ``select_breakers(m, 1, mode)`` with its
default budget.  The file was written by

    PYTHONPATH=src python3 tests/test_rewrite_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from mcsym import TopologySpec, emit_system, extend_mcs, generate
from mcsym.bench import DEFAULT_SIZES, select_breakers

DIGESTS = Path(__file__).parent / "data" / "rewrite-sha256.txt"
MODES = ("full", "generators")
SEEDS = (0, 1, 2)


def golden_cells() -> list[tuple[str, str, int, int]]:
    sizes = {t: [*ns, 13] if t == "house" else ns for t, ns in DEFAULT_SIZES.items()}
    return [(mode, t, n, s) for mode in MODES for t, ns in sizes.items() for n in ns for s in SEEDS]


def digest(mode: str, topology: str, n: int, seed: int) -> str:
    m = generate(TopologySpec(topology, n, seed))
    breakers, _ = select_breakers(m, 1, mode)
    return hashlib.sha256(emit_system(extend_mcs(m, breakers)).encode()).hexdigest()


def read_digests() -> dict[tuple[str, str, int, int], str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        mode, topology, n, seed, sha = line.split()
        out[mode, topology, int(n), int(seed)] = sha
    return out


def test_digest_file_covers_the_grid():
    assert list(read_digests()) == golden_cells()


def test_every_rewrite_regenerates_its_digest():
    wrong = [cell for cell, sha in read_digests().items() if digest(*cell) != sha]
    assert not wrong, f"{len(wrong)} rewrites differ, first {wrong[:3]}"


def write() -> None:
    DIGESTS.write_text("".join(" ".join(map(str, (*cell, digest(*cell)))) + "\n" for cell in golden_cells()))


if __name__ == "__main__":
    write()
