"""Relabelling invariance: new context ids, atom names and declaration orders change no result.

Each system is compared with a copy from :func:`helpers.relabel`: detection
gives the conjugate set, solving gives the image of the solutions, and the
counts a rewrite reaches stay the same, though the copy's atom order, and
so its lex-leaders, differ.
"""

from __future__ import annotations

import random

import pytest

from mcsym import BeliefState, Permutation, TopologySpec, dsd, evaluate_distributed, generate
from mcsym.bench import DEFAULT_SIZES, run_pipeline, select_breakers

from helpers import random_system, relabel

GENERATED = [TopologySpec(t, n, s) for t, sizes in DEFAULT_SIZES.items() for n in sizes for s in (0, 1, 2)]


def conjugate(p: Permutation, amap) -> Permutation:
    return Permutation({amap[a]: amap[p(a)] for a in p.support}, domain={amap[a] for a in p.domain})


def image(s: BeliefState, amap, ids) -> BeliefState:
    return BeliefState.make({ids[i]: None if v is None else {amap[a] for a in v} for i, v in s.components})


def check_invariance(m, root: int, rng: random.Random) -> int:
    """Check ``m`` against a relabelled copy from ``root``; return the order of the group detected."""
    m2, amap = relabel(m, rng)
    ids = {a.context_id: b.context_id for a, b in amap.items()}
    root2 = ids[root]
    group = dsd(m, root)
    assert dsd(m2, root2) == {conjugate(p, amap) for p in group}
    assert evaluate_distributed(m2, root2) == {image(s, amap, ids) for s in evaluate_distributed(m, root)}
    assert run_pipeline(m2, root2, "full").after == run_pipeline(m, root, "full").after
    assert select_breakers(m2, root2, "generators")[1] == select_breakers(m, root, "generators")[1]
    return len(group)


@pytest.mark.parametrize("spec", GENERATED, ids=lambda s: f"{s.topology}-n{s.n}-s{s.seed}")
def test_generated_systems(spec):
    assert check_invariance(generate(spec), 1, random.Random(spec.seed)) > 1


def test_random_systems_with_repeats_and_self_reads():
    symmetric = 0
    for seed in range(200):
        rng = random.Random(seed)
        m = random_system(rng, max_contexts=4, max_atoms=4, repeat_rules=True, self_reads=True)
        symmetric += check_invariance(m, rng.choice(m.ids), rng) > 1
    assert symmetric == 42  # the rest detect the identity alone
