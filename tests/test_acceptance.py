"""End-to-end acceptance suite.

Freezes the shipped behaviour of the whole engine: the bundled example's
solutions and symmetry sets, oracle equivalence of the distributed detector,
graph-based detection against the definition filter, constraint rewrites
against the reference filters, generator-mode guarantees, generating-set
bounds, topology generation, and pipeline compression.
"""

from __future__ import annotations

import random
import time
from unittest import mock

import pytest

from mcsym import (
    Permutation,
    apply,
    brute_force_partial_symmetries,
    build_gap,
    compose,
    default_order,
    dsd,
    emit_system,
    enumerate_partial_equilibria,
    evaluate_distributed,
    extend_mcs,
    generate,
    graph_perm_to_partial_symmetry,
    group_closure,
    import_closure,
    is_partial_equilibrium,
    is_symmetry,
    lex_leader_filter,
    load_system,
    lsd,
    orbit_of_states,
    pc_satisfied,
    project_original,
    reduce_irredundant,
    rule,
    run_pipeline,
    select_breaking_set,
    topology_edges,
    TopologySpec,
)
from mcsym import perm
from mcsym.autograph import automorphism_generators
from mcsym.detect import exported_atoms

from helpers import cyc, random_system, state_of

PAIR_SWAP = "(1.a 1.b)(2.d 2.e)"
TRIPLE_SWAP = "(1.a 1.b)(2.d 2.e)(2.f 2.g)"
LOCAL_SWAP = "(2.f 2.g)"


def _undirected_imports(m) -> set[frozenset[int]]:
    pairs: set[frozenset[int]] = set()
    for c in m.contexts:
        for b in c.br:
            for a in b.body_pos | b.body_neg:
                if a.context_id != c.id:
                    pairs.add(frozenset({c.id, a.context_id}))
    return pairs


class TestFrozenExampleSolutions:
    def test_solutions_and_root_view_exact_within_a_second(self, example1_path):
        t0 = time.perf_counter()
        m = load_system(example1_path)
        whole = enumerate_partial_equilibria(m)
        rooted = evaluate_distributed(m, 1)
        elapsed = time.perf_counter() - t0
        assert whole == {
            state_of(m, {1: {"b"}, 2: {"d"}, 3: set()}),
            state_of(m, {1: {"a"}, 2: {"e"}, 3: {"h"}}),
            state_of(m, {1: set(), 2: {"d", "e", "f"}, 3: set()}),
            state_of(m, {1: set(), 2: {"d", "e", "g"}, 3: set()}),
        }
        assert rooted == {
            state_of(m, {1: {"b"}, 2: {"d"}}),
            state_of(m, {1: {"a"}, 2: {"e"}}),
            state_of(m, {1: set(), 2: {"d", "e", "f"}}),
            state_of(m, {1: set(), 2: {"d", "e", "g"}}),
        }
        assert rooted == enumerate_partial_equilibria(m, 1)
        assert elapsed < 1.0


def _planted_swaps(m) -> list[Permutation]:
    """The swaps of each context's ``p :- not q.  q :- not p.`` pair."""
    swaps = []
    for c in m.contexts:
        p, q = c.alphabet[-2:]
        if rule(head=[p], neg=[q]) in c.kb and rule(head=[q], neg=[p]) in c.kb:
            swaps.append(Permutation({p: q, q: p}))
    return swaps


class TestStackedDiamondSolve:
    def test_sixteen_contexts_solve_within_ten_seconds(self):
        m = generate(TopologySpec("diamond", 16, 0))
        t0 = time.perf_counter()
        states = evaluate_distributed(m, 1)
        elapsed = time.perf_counter() - t0
        assert len(states) == 8192
        swaps = _planted_swaps(m)
        assert len(swaps) >= 2
        for swap in (swaps[0], swaps[-1]):
            assert is_symmetry(m, swap)
            assert {apply(swap, s) for s in states} == states
        for s in random.Random(16).sample(sorted(states, key=str), 5):
            assert is_partial_equilibrium(m, s, 1)
        assert elapsed < 10.0


@pytest.fixture(scope="module")
def frozen_detection(example1):
    t0 = time.perf_counter()
    data = {
        "brute": {k: brute_force_partial_symmetries(example1, [k]) for k in (1, 2, 3)},
        "local": {k: lsd(example1, k) for k in (1, 2, 3)},
        "joined": {k: dsd(example1, k) for k in (1, 3)},
        "pair_oracle": brute_force_partial_symmetries(example1, [1, 2]),
    }
    data["elapsed"] = time.perf_counter() - t0
    return data


class TestFrozenExampleDetection:
    def test_member_set_1_exact(self, frozen_detection):
        got = frozen_detection["brute"][1]
        assert cyc(got) == {"()", PAIR_SWAP}
        assert got == frozen_detection["local"][1]

    def test_member_set_2_closes_over_the_listing(self, frozen_detection):
        got = frozen_detection["brute"][2]
        assert {"()", TRIPLE_SWAP, LOCAL_SWAP} <= cyc(got)
        assert cyc(got) == cyc(group_closure(got))
        assert len(got) == 4
        assert got == frozen_detection["local"][2]

    def test_member_set_3_trivial(self, frozen_detection):
        got = frozen_detection["brute"][3]
        assert cyc(got) == {"()"}
        assert got == frozen_detection["local"][3]

    def test_root_1_join_equals_member_set_2(self, frozen_detection):
        joined = frozen_detection["joined"][1]
        assert joined == frozen_detection["pair_oracle"]
        assert cyc(joined) == cyc(frozen_detection["brute"][2])

    def test_root_3_join(self, frozen_detection):
        assert cyc(frozen_detection["joined"][3]) == {"()", LOCAL_SWAP}

    def test_runs_under_a_second(self, frozen_detection):
        assert frozen_detection["elapsed"] < 1.0


class TestDistributedAgainstOracle:
    def test_two_hundred_random_instances_no_mismatch(self):
        t0 = time.perf_counter()
        rng = random.Random(2026)
        mismatches = 0
        for i in range(200):
            m = random_system(rng, max_contexts=4, max_atoms=4, allow_cycles=(i % 2 == 0))
            oracle: dict[frozenset[int], frozenset] = {}
            for k in m.ids:
                members = frozenset(import_closure(m, k))
                if members not in oracle:
                    oracle[members] = brute_force_partial_symmetries(m, sorted(members))
                if dsd(m, k) != oracle[members]:
                    mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - t0 < 300.0


@pytest.fixture(scope="module")
def single_contexts():
    rng = random.Random(424242)
    return [random_system(rng, max_contexts=1, max_atoms=6) for _ in range(200)]


class TestGraphDetectionMatchesDefinition:
    def test_translated_closure_equals_definition_filter(self, single_contexts):
        fully_occurring = 0
        for m in single_contexts:
            brute = brute_force_partial_symmetries(m, [1])
            assert lsd(m, 1) == brute
            ctx = m.context(1)
            gap = build_gap(ctx, len(m.contexts), "shared", exported_atoms(m, 1))
            if frozenset(gap.atoms) != ctx.atoms:
                continue
            fully_occurring += 1
            dom = m.universe(within=[1])
            gens = [
                graph_perm_to_partial_symmetry(gap, vp, dom)
                for vp in automorphism_generators(gap.graph)
            ]
            nonid = [g for g in gens if not g.is_identity()]
            with mock.patch.object(perm, "CLOSURE_CAP", 100_000):
                literal = (
                    group_closure(g.extend(dom) for g in nonid)
                    if nonid
                    else frozenset({Permutation.identity(dom)})
                )
            assert literal == brute
        assert fully_occurring >= 80

    def test_translation_preserves_composition(self, single_contexts):
        for m in single_contexts:
            ctx = m.context(1)
            gap = build_gap(ctx, len(m.contexts), "shared", exported_atoms(m, 1))
            dom = m.universe(within=[1])
            vgens = automorphism_generators(gap.graph)
            for g1 in vgens:
                for g2 in vgens:
                    applied_in_sequence = tuple(g2[g1[v]] for v in range(len(g1)))
                    assert graph_perm_to_partial_symmetry(
                        gap, applied_in_sequence, dom
                    ) == compose(
                        graph_perm_to_partial_symmetry(gap, g1, dom),
                        graph_perm_to_partial_symmetry(gap, g2, dom),
                    )


@pytest.fixture(scope="module")
def small_suite():
    rng = random.Random(31415)
    suite = []
    for i in range(120):
        m = random_system(
            rng, max_contexts=3, max_atoms=3 + (i % 2), allow_cycles=(i % 3 != 0)
        )
        order = default_order(m)
        suite.append((m, order, enumerate_partial_equilibria(m, 1), dsd(m, 1)))
    return suite


class TestRewriteMatchesReferenceFilter:
    def test_each_permutation_rewrite_equals_lex_filter(self, small_suite):
        checked = 0
        for m, order, pe, perms in small_suite:
            for p in perms:
                if p.is_identity():
                    continue
                checked += 1
                m1 = extend_mcs(m, [p], order)
                got = {
                    project_original(m1, s)
                    for s in enumerate_partial_equilibria(m1, 1)
                }
                assert got == {s for s in pe if pc_satisfied(s, p, order)}
        assert checked >= 100

    def test_full_closure_keeps_exactly_one_leader_per_orbit(self, small_suite):
        for m, order, pe, perms in small_suite:
            mall = extend_mcs(m, perms, order)
            after = enumerate_partial_equilibria(mall, 1)
            assert evaluate_distributed(mall, 1) == after
            got = {project_original(mall, s) for s in after}
            assert got == lex_leader_filter(pe, perms, order)
            nonid = [p for p in perms if not p.is_identity()]
            if not nonid:
                continue
            seen: set = set()
            orbits = 0
            for s in pe:
                if s in seen:
                    continue
                orb = orbit_of_states(nonid, s)
                seen |= orb
                orbits += 1
                assert len(got & orb) == 1
            assert orbits == len(got)


class TestGeneratorModeGuarantees:
    def test_orbit_coverage_and_leader_survival(self, small_suite):
        for m, order, pe, perms in small_suite:
            pool: set[Permutation] = set()
            for k in sorted(import_closure(m, 1)):
                pool |= {p for p in lsd(m, k, mode="local") if not p.is_identity()}
            breakers = select_breaking_set(pool, budget=8)
            mg = extend_mcs(m, breakers, order)
            after = enumerate_partial_equilibria(mg, 1)
            assert evaluate_distributed(mg, 1) == after
            survivors = {project_original(mg, s) for s in after}
            assert lex_leader_filter(pe, perms, order) <= survivors
            nonid = [p for p in perms if not p.is_identity()]
            for s in pe:
                orbit = orbit_of_states(nonid, s) if nonid else {s}
                assert survivors & orbit


class TestGeneratingSetBound:
    def test_irredundant_sets_are_logarithmic(self, example1):
        groups = [
            brute_force_partial_symmetries(example1, [k]) for k in (1, 2, 3)
        ] + [dsd(example1, 1)]
        rng = random.Random(777)
        for i in range(60):
            m = random_system(rng, max_contexts=3, max_atoms=4, allow_cycles=(i % 2 == 0))
            groups.append(dsd(m, 1))
        for grp in groups:
            gens = reduce_irredundant(grp)
            assert 2 ** len(gens) <= len(grp)
            if gens:
                assert group_closure(gens) == grp
            else:
                assert len(grp) == 1


HOUSE_EDGES = frozenset({(1, 2), (1, 3), (2, 4), (4, 3), (3, 5), (5, 2)})
DIAMOND_EDGES = frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})


class TestGeneratedTopologyShapes:
    def test_house_cells_have_five_nodes_and_six_edges(self):
        assert topology_edges(TopologySpec("house", 5, 0)) == HOUSE_EDGES
        for seed in range(3):
            m = generate(TopologySpec("house", 5, seed))
            assert _undirected_imports(m) == {frozenset(e) for e in HOUSE_EDGES}
        assert len(topology_edges(TopologySpec("house", 13, 0))) == 18

    def test_diamond_middles_stay_unconnected(self):
        assert topology_edges(TopologySpec("diamond", 4, 0)) == DIAMOND_EDGES
        for seed in range(3):
            m = generate(TopologySpec("diamond", 4, seed))
            assert frozenset({2, 3}) not in _undirected_imports(m)
        stacked = topology_edges(TopologySpec("diamond", 7, 0))
        for u, v in ((2, 3), (5, 6)):
            assert (u, v) not in stacked and (v, u) not in stacked

    def test_seeds_reproduce_byte_identical_instances(self):
        for topo, n in (("diamond", 4), ("zigzag", 4), ("house", 5), ("ring", 3)):
            for seed in (0, 1):
                spec = TopologySpec(topo, n, seed)
                assert emit_system(generate(spec)) == emit_system(generate(spec))


class TestPipelineCompression:
    def test_bounds_hold_and_every_topology_improves(self):
        grid = (("diamond", 4), ("zigzag", 4), ("house", 5), ("ring", 3))
        improved = {t: False for t, _ in grid}
        for topo, n in grid:
            for seed in range(5):
                m = generate(TopologySpec(topo, n, seed))
                rep = run_pipeline(
                    m, 1, mode="full", topology=topo, n=n, seed=seed
                )
                assert 0.0 <= rep.compression <= 1.0
                assert rep.after <= rep.before
                if rep.group_size > 1 and rep.before and rep.after < rep.before:
                    improved[topo] = True
        assert all(improved.values()), improved
