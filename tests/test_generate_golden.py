"""Generated instances stay byte-identical to committed golden outputs.

``data/generate-sha256.txt`` has one line per :class:`TopologySpec` of the
grid below: the spec's fields in declaration order, then the sha256 of
``emit_system(generate(spec))``.  ``data/generated/`` holds the whole text of
a few small instances.  Both were written while :func:`generate` drew from
numpy's SeedSequence and Philox generator, which ``mcsym._rng`` now ports,
by

    PYTHONPATH=src python3 tests/test_generate_golden.py
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple
from pathlib import Path

import pytest

from mcsym import TopologySpec, emit_system, generate

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "generate-sha256.txt"
TEXTS = {
    "diamond-n4-s0": TopologySpec("diamond", 4, 0),
    "zigzag-n4-s3-p0.5": TopologySpec("zigzag", 4, 3, pair_probability=0.5),
    "house-n5-s7-p1": TopologySpec("house", 5, 7, pair_probability=1.0),
    "ring-n3-s2e64": TopologySpec("ring", 3, 2**64),
    "ring-n2-s0-wide": TopologySpec(
        "ring", 2, 0, atoms_per_context=7, max_exports=5, max_kb_rules=4,
        max_bridge_rules=6, max_body=4,
    ),
}

SIZES = {"diamond": (4, 7, 10), "zigzag": (4, 7, 10), "house": (5, 9, 13), "ring": (2, 3, 6, 9)}
SEEDS = (*range(40), 2**64, 2**64 + 1, 2**70 + 12345, 2**128 + 7)
PROBABILITIES = (0.0, 0.5, 0.8, 1.0)
VARIANTS = (
    {"atoms_per_context": 3},
    {"atoms_per_context": 7, "max_exports": 5, "max_kb_rules": 4, "max_bridge_rules": 6, "max_body": 4},
    {"max_exports": 1, "max_kb_rules": 1, "max_bridge_rules": 1, "max_body": 1},
    {"atoms_per_context": 12, "max_kb_rules": 6, "max_body": 9, "pair_probability": 0.5},
)
# perfbench's cells (call dropped): its seed-0 run draws seeds k * 1000 + j
PERFBENCH_CELLS = (
    ("diamond", 7, 6), ("zigzag", 7, 4), ("house", 5, 6),
    ("diamond", 7, 3), ("zigzag", 7, 3), ("house", 5, 3),
    ("diamond", 4, 20), ("zigzag", 4, 20), ("ring", 4, 10), ("house", 5, 4),
    ("diamond", 7, 60), ("zigzag", 7, 60), ("house", 5, 60), ("ring", 6, 60),
)


def golden_specs() -> list[TopologySpec]:
    specs = [
        TopologySpec(t, n, s, pair_probability=p)
        for t, sizes in SIZES.items() for n in sizes for s in SEEDS for p in PROBABILITIES
    ]
    specs += [
        TopologySpec(t, n, s, **v)
        for t, sizes in SIZES.items() for n in sizes[:2] for s in range(10) for v in VARIANTS
    ]
    specs += [
        TopologySpec(t, n, k * 1000 + j, pair_probability=1.0)
        for k, (t, n, count) in enumerate(PERFBENCH_CELLS) for j in range(count)
    ]
    specs.append(TopologySpec("ring", 1100, 0, pair_probability=0.0))
    return list(dict.fromkeys(specs))


def digest(spec: TopologySpec) -> str:
    return hashlib.sha256(emit_system(generate(spec)).encode()).hexdigest()


def read_digests() -> dict[TopologySpec, str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        topology, *counts, probability, sha = line.split()
        out[TopologySpec(topology, *map(int, counts), float(probability))] = sha
    return out


def test_digest_file_covers_the_grid():
    assert list(read_digests()) == golden_specs()


def test_every_spec_regenerates_its_digest():
    wrong = [spec for spec, sha in read_digests().items() if digest(spec) != sha]
    assert not wrong, f"{len(wrong)} specs differ, first {wrong[:3]}"


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_small_instances_regenerate_their_text(name):
    assert emit_system(generate(TEXTS[name])) == (DATA / "generated" / f"{name}.mcs").read_text()


def write() -> None:
    (DATA / "generated").mkdir(exist_ok=True)
    for name, spec in TEXTS.items():
        (DATA / "generated" / f"{name}.mcs").write_text(emit_system(generate(spec)))
    DIGESTS.write_text(
        "".join(" ".join(map(str, (*astuple(s), digest(s)))) + "\n" for s in golden_specs())
    )


if __name__ == "__main__":
    write()
