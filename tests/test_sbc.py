"""Permutation constraints: ordering, chain encoding, rewrite, reference filters."""

from __future__ import annotations

import random

import pytest

from mcsym import (
    Atom,
    BeliefState,
    BridgeRule,
    InternalError,
    Permutation,
    apply,
    build_pc,
    default_order,
    distribute_pc,
    dsd,
    emit_system,
    encode_asp,
    enumerate_partial_equilibria,
    evaluate_distributed,
    extend_mcs,
    lex_leader_filter,
    parse_system,
    pc_satisfied,
    project_original,
    rule,
    select_breaking_set,
    vec,
)

from helpers import atoms_of, state_of


@pytest.fixture(scope="module")
def order(example1):
    return default_order(example1)


@pytest.fixture(scope="module")
def abde(example1):
    a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
    return Permutation({a: b, b: a, d: e, e: d})


@pytest.fixture(scope="module")
def fg(example1):
    f, g = atoms_of(example1, "f", "g")
    return Permutation({f: g, g: f})


@pytest.fixture(scope="module")
def abdefg(example1):
    a, b, d, e, f, g = atoms_of(example1, "a", "b", "d", "e", "f", "g")
    return Permutation({a: b, b: a, d: e, e: d, f: g, g: f})


def partial_wrt_1(m):
    return frozenset(
        {
            state_of(m, {1: {"b"}, 2: {"d"}}),
            state_of(m, {1: {"a"}, 2: {"e"}}),
            state_of(m, {1: set(), 2: {"d", "e", "f"}}),
            state_of(m, {1: set(), 2: {"d", "e", "g"}}),
        }
    )


class TestOrderAndVec:
    def test_default_order(self, example1, order):
        assert order.atoms == atoms_of(example1, *"abcdefgh")
        assert order.index(order.atoms[3]) == 3
        assert len(order) == 8

    def test_unknown_atom_rejected(self, order):
        with pytest.raises(InternalError):
            order.index(Atom(9, "zz"))

    def test_vec_reads_truth_along_order(self, example1, order):
        s = state_of(example1, {1: {"b"}, 2: {"d"}})
        assert vec(s, order) == (0, 1, 0, 1, 0, 0, 0, 0)
        t = state_of(example1, {1: set(), 2: {"d", "e", "g"}})
        assert vec(t, order) == (0, 0, 0, 1, 1, 0, 1, 0)

    def test_vec_reads_undefined_as_false(self, example1, order):
        assert vec(state_of(example1, {}), order) == (0,) * 8


class TestPcSatisfied:
    def test_prunes_the_lex_larger_twin(self, example1, order, abde):
        keep = state_of(example1, {1: {"b"}, 2: {"d"}})
        drop = state_of(example1, {1: {"a"}, 2: {"e"}})
        assert pc_satisfied(keep, abde, order)
        assert not pc_satisfied(drop, abde, order)

    def test_fixed_states_always_pass(self, example1, order, abde):
        s = state_of(example1, {1: set(), 2: {"d", "e", "f"}})
        assert pc_satisfied(s, abde, order)

    def test_matches_lex_comparison_with_inverse_image(self, example1, order):
        rng = random.Random(7)
        blocks = [list(c.alphabet) for c in example1.contexts]
        for _ in range(200):
            mapping = {}
            for block in blocks:
                img = block[:]
                rng.shuffle(img)
                mapping.update(zip(block, img))
            p = Permutation(mapping)
            comps = {
                c.id: (
                    None
                    if rng.random() < 0.2
                    else frozenset(
                        a for a in c.alphabet if rng.random() < 0.5
                    )
                )
                for c in example1.contexts
            }
            s = BeliefState.make(comps)
            expected = vec(s, order) <= vec(apply(p.inverse(), s), order)
            assert pc_satisfied(s, p, order) == expected


class TestBuildPc:
    def test_two_cycles_reduce_to_their_leaders(self, example1, order, abde):
        a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
        pc = build_pc(abde, order)
        assert pc.support_sequence == (a, d)
        assert [(p.index, p.atom, p.image) for p in pc.positions] == [
            (1, a, b),
            (2, d, e),
        ]

    def test_single_transposition(self, example1, order):
        a, b = atoms_of(example1, "a", "b")
        pc = build_pc(Permutation({a: b, b: a}), order)
        assert [(p.index, p.atom, p.image) for p in pc.positions] == [(1, a, b)]

    def test_identity_has_no_positions(self, example1, order):
        pc = build_pc(Permutation({}), order)
        assert pc.positions == ()
        assert distribute_pc(pc) == ()

    def test_three_cycle_keeps_all_positions(self, example1, order):
        a, b, c = atoms_of(example1, "a", "b", "c")
        pc = build_pc(Permutation({a: b, b: c, c: a}), order)
        assert pc.support_sequence == (a, b, c)

    def test_cross_context_move_rejected(self, example1, order):
        a, d = atoms_of(example1, "a", "d")
        with pytest.raises(InternalError):
            build_pc(Permutation({a: d, d: a}), order)


class TestDistribute:
    def test_owners_follow_the_previous_sequence_atom(self, example1, order, abde):
        pieces = distribute_pc(build_pc(abde, order))
        assert [p.context_id for p in pieces] == [1, 2]
        one, two = pieces
        assert one.first and not one.terminator
        assert [p.index for p in one.rule_positions] == [2]
        assert two.terminator and not two.first
        assert two.rule_positions == ()

    def test_single_context_piece(self, example1, order):
        a, b = atoms_of(example1, "a", "b")
        (piece,) = distribute_pc(build_pc(Permutation({a: b, b: a}), order))
        assert piece.first and piece.terminator
        assert piece.rule_positions == ()


class TestEncode:
    def test_example_additions(self, example1, order, abde):
        a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
        out = encode_asp(example1, abde, order, "t")
        assert set(out) == {1, 2}

        c2 = Atom(1, "sbc_t_c2")
        pd = Atom(1, "sbc_t_p_d")
        pe = Atom(1, "sbc_t_p_e")
        link = Atom(1, "sbc_t_pc3")
        c3 = Atom(2, "sbc_t_c3")

        one = out[1]
        assert one.aux == [c2, pd, pe, link]
        constraints = [r for r in one.kb if not r.head]
        chain = [r for r in one.kb if r.head]
        assert constraints == [rule(pos=[a], neg=[b]), rule(pos=[c2])]
        assert chain == [
            rule(head=[c2], pos=[a, pd], neg=[pe]),
            rule(head=[c2], pos=[pd], neg=[b, pe]),
            rule(head=[c2], pos=[a, link]),
            rule(head=[c2], pos=[link], neg=[b]),
        ]
        assert one.br == [
            BridgeRule(pd, frozenset({d}), frozenset()),
            BridgeRule(pe, frozenset({e}), frozenset()),
            BridgeRule(link, frozenset({c3}), frozenset()),
        ]

        two = out[2]
        assert two.aux == [c3]
        assert two.kb == [] and two.br == []

    def test_single_context_permutation_needs_no_bridges(self, example1, order):
        a, b = atoms_of(example1, "a", "b")
        out = encode_asp(example1, Permutation({a: b, b: a}), order, "t")
        assert set(out) == {1}
        assert out[1].aux == [Atom(1, "sbc_t_c2")]
        assert out[1].kb == [rule(pos=[a], neg=[b]), rule(pos=[Atom(1, "sbc_t_c2")])]
        assert out[1].br == []

    def test_identity_encodes_to_nothing(self, example1, order):
        assert encode_asp(example1, Permutation({}), order, "t") == {}


class TestExtend:
    def test_rewrite_is_well_formed_and_round_trips(self, example1, abde):
        m2 = extend_mcs(example1, [abde])
        assert parse_system(emit_system(m2)) == m2
        assert [c.alphabet for c in m2.contexts] == [
            c.alphabet for c in example1.contexts
        ]
        names1 = [x.name for x in m2.context(1).aux]
        assert names1 == ["sbc_p0_c2", "sbc_p0_p_d", "sbc_p0_p_e", "sbc_p0_pc3"]
        assert [x.name for x in m2.context(2).aux] == ["sbc_p0_c3"]

    def test_no_permutations_leave_the_system_unchanged(self, example1):
        assert extend_mcs(example1, []) == example1
        assert extend_mcs(example1, [Permutation({})]) == example1

    def test_rewrite_is_deterministic(self, example1, abde, fg, abdefg):
        once = emit_system(extend_mcs(example1, [abdefg, fg, abde]))
        again = emit_system(extend_mcs(example1, [fg, abde, abdefg]))
        assert once == again

    def test_surviving_states_are_the_constraint_satisfiers(
        self, example1, order, abde, fg, abdefg
    ):
        m2 = extend_mcs(example1, [abde])
        got = {
            project_original(m2, s) for s in enumerate_partial_equilibria(m2, 1)
        }
        want = {s for s in partial_wrt_1(example1) if pc_satisfied(s, abde, order)}
        assert got == want == {
            state_of(example1, {1: {"b"}, 2: {"d"}}),
            state_of(example1, {1: set(), 2: {"d", "e", "f"}}),
            state_of(example1, {1: set(), 2: {"d", "e", "g"}}),
        }
        # abdefg's chain passes from context 1 to context 2 through primed
        # copies whose values arrive as auxiliary bridge heads
        for p in (abde, fg, abdefg):
            m1 = extend_mcs(example1, [p])
            want = {s for s in partial_wrt_1(example1) if pc_satisfied(s, p, order)}
            for solve in (enumerate_partial_equilibria, evaluate_distributed):
                assert {project_original(m1, s) for s in solve(m1, 1)} == want

    def test_closed_set_keeps_exactly_the_lex_leaders(self, example1, order):
        perms = dsd(example1, 1)
        m4 = extend_mcs(example1, perms)
        got = {
            project_original(m4, s) for s in enumerate_partial_equilibria(m4, 1)
        }
        want = lex_leader_filter(partial_wrt_1(example1), perms, order)
        assert got == want == {
            state_of(example1, {1: {"b"}, 2: {"d"}}),
            state_of(example1, {1: set(), 2: {"d", "e", "g"}}),
        }

    def test_more_constraints_never_add_states(self, example1, abde):
        sizes = [
            len(enumerate_partial_equilibria(extend_mcs(example1, ps), 1))
            for ps in ([], [abde], dsd(example1, 1))
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes == [4, 3, 2]


class TestProjection:
    def test_aux_atoms_are_dropped(self, example1, abde):
        m2 = extend_mcs(example1, [abde])
        b, d = atoms_of(example1, "b", "d")
        c2 = Atom(1, "sbc_p0_c2")
        s = BeliefState.make({1: frozenset({b, c2}), 2: frozenset({d}), 3: None})
        assert project_original(m2, s) == state_of(example1, {1: {"b"}, 2: {"d"}})

    def test_undefined_components_stay_undefined(self, example1, abde):
        m2 = extend_mcs(example1, [abde])
        s = state_of(example1, {})
        assert project_original(m2, s) == s


class TestReferenceFilters:
    def test_lex_leader_keeps_the_orbit_minimum(self, example1, order, abde):
        states = {
            state_of(example1, {1: {"b"}, 2: {"d"}}),
            state_of(example1, {1: {"a"}, 2: {"e"}}),
        }
        got = lex_leader_filter(states, [abde], order)
        assert got == {state_of(example1, {1: {"b"}, 2: {"d"}})}

    def test_identity_only_keeps_everything(self, example1, order):
        states = partial_wrt_1(example1)
        assert lex_leader_filter(states, [Permutation({})], order) == states

    def test_select_breaking_set_prefers_small_support(self, fg, abdefg):
        assert select_breaking_set([abdefg, fg], budget=1) == [fg]
        assert select_breaking_set([abdefg, fg]) == [fg, abdefg]

    def test_select_drops_redundant_members(self, example1, abde, fg, abdefg):
        gens = select_breaking_set([abde, fg, abdefg])
        assert len(gens) == 2
