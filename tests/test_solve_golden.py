"""Solver output stays byte-identical to committed golden digests.

``data/solve-sha256.txt`` has one line per solve of the grid below: the
mode, the topology, the size, the seed, the pair probability and the root
(``none`` for the whole system), then the sha256 of the sorted ``str`` of
the states ``evaluate_distributed`` returns, one per line.  Each generated
instance is solved as it is (mode ``none``) at root 1 and with no root, and
its ``full`` and ``generators`` rewrites, with breakers from
``select_breakers(m, 1, mode)``, at root 1.  The file was written by

    PYTHONPATH=src python3 tests/test_solve_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from mcsym import TopologySpec, evaluate_distributed, extend_mcs, generate
from mcsym.bench import DEFAULT_SIZES, select_breakers

DIGESTS = Path(__file__).parent / "data" / "solve-sha256.txt"
SEEDS = (0, 1, 2)
PAIR_PROBABILITIES = (0.8, 1.0)
# (mode, root): the plain instance from root 1 and from every context, the rewrites from root 1
SOLVES = (("none", 1), ("none", None), ("full", 1), ("generators", 1))


def golden_cells() -> list[tuple[str, str, int, int, float, int | None]]:
    return [
        (mode, t, n, s, p, root)
        for t, ns in DEFAULT_SIZES.items()
        for n in ns
        for s in SEEDS
        for p in PAIR_PROBABILITIES
        for mode, root in SOLVES
    ]


def digest(mode: str, topology: str, n: int, seed: int, pair_probability: float, root: int | None) -> str:
    m = generate(TopologySpec(topology, n, seed, pair_probability=pair_probability))
    if mode != "none":
        m = extend_mcs(m, select_breakers(m, 1, mode)[0])
    text = "".join(line + "\n" for line in sorted(map(str, evaluate_distributed(m, root))))
    return hashlib.sha256(text.encode()).hexdigest()


def read_digests() -> dict[tuple[str, str, int, int, float, int | None], str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        mode, topology, n, seed, p, root, sha = line.split()
        out[mode, topology, int(n), int(seed), float(p), None if root == "none" else int(root)] = sha
    return out


def test_digest_file_covers_the_grid():
    assert list(read_digests()) == golden_cells()


def test_every_solve_regenerates_its_digest():
    wrong = [cell for cell, sha in read_digests().items() if digest(*cell) != sha]
    assert not wrong, f"{len(wrong)} solves differ, first {wrong[:3]}"


def write() -> None:
    lines = []
    for mode, t, n, s, p, root in golden_cells():
        cell = (mode, t, n, s, p, "none" if root is None else root)
        lines.append(" ".join(map(str, (*cell, digest(mode, t, n, s, p, root)))) + "\n")
    DIGESTS.write_text("".join(lines))


if __name__ == "__main__":
    write()
