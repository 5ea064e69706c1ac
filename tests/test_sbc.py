"""Permutation constraints: ordering, chain encoding, rewrite, reference filters."""

from __future__ import annotations

import random

import pytest

from mcsym import (
    Atom,
    AtomOrder,
    BeliefState,
    BridgeRule,
    InternalError,
    Permutation,
    apply,
    build_pc,
    default_order,
    dsd,
    emit_system,
    encode_asp,
    enumerate_partial_equilibria,
    evaluate_distributed,
    extend_mcs,
    group_closure,
    import_closure,
    lex_leader_filter,
    parse_cycles,
    parse_system,
    pc_satisfied,
    project_original,
    rule,
    select_breaking_set,
    System,
    vec,
)
from mcsym import bench
from mcsym.asp import Singletons

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
        assert build_pc(abde, order) == ((a, b), (d, e))

    def test_single_transposition(self, example1, order):
        a, b = atoms_of(example1, "a", "b")
        assert build_pc(Permutation({a: b, b: a}), order) == ((a, b),)

    def test_identity_has_no_positions(self, example1, order):
        assert build_pc(Permutation({}), order) == ()

    def test_three_cycle_keeps_all_positions(self, example1, order):
        a, b, c = atoms_of(example1, "a", "b", "c")
        pc = build_pc(Permutation({a: b, b: c, c: a}), order)
        assert [p.atom for p in pc] == [a, b, c]
        assert [p.image for p in pc] == [b, c, a]

    def test_cross_context_move_rejected(self, example1, order):
        a, d = atoms_of(example1, "a", "d")
        with pytest.raises(InternalError):
            build_pc(Permutation({a: d, d: a}), order)


class TestEncode:
    def test_example_additions(self, example1, order, abde):
        a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
        out = encode_asp(abde, order, "t", Singletons(), {})
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
        out = encode_asp(Permutation({a: b, b: a}), order, "t", Singletons(), {})
        assert set(out) == {1}
        assert out[1].aux == [Atom(1, "sbc_t_c2")]
        assert out[1].kb == [rule(pos=[a], neg=[b]), rule(pos=[Atom(1, "sbc_t_c2")])]
        assert out[1].br == []

    def test_identity_encodes_to_nothing(self, example1, order):
        assert encode_asp(Permutation({}), order, "t", Singletons(), {}) == {}


# pi = (a b)(c d)(e f) and sigma = (g h)(c d)(e f) end in the same two positions
SHARED_SUFFIX = """mcs 2
context 1
  atoms a b g h
  kb
    a :- not b.
    b :- not a.
    g :- not h.
    h :- not g.
  br
    a :- (2:c), (2:d).
context 2
  atoms c d e f
  kb
    c :- not d.
    d :- not c.
    e :- not f.
    f :- not e.
  br
"""


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

    def test_rewriting_a_rewrite_keeps_the_constraint_satisfiers(self):
        # the second rewrite's chain atoms must not reuse the first one's
        names = "abcdefg"
        m = parse_system(
            "mcs 1\ncontext 1\n  atoms " + " ".join([*names, *("n" + x for x in names)])
            + "\n  kb\n" + "".join(f"    {x} :- not n{x}.\n    n{x} :- not {x}.\n" for x in names)
            + "  br\n"
        )
        order = default_order(m)
        p = parse_cycles("(a e f d)(b c)", m.context(1).alphabet)
        q = parse_cycles("(a b)(c e g d f)", m.context(1).alphabet)
        want = {
            s for s in enumerate_partial_equilibria(m, 1)
            if pc_satisfied(s, p, order) and pc_satisfied(s, q, order)
        }
        assert len(want) == 40
        for m2 in (extend_mcs(extend_mcs(m, [p]), [q]), extend_mcs(m, [p, q])):
            assert {project_original(m2, s) for s in evaluate_distributed(m2, 1)} == want
            assert parse_system(emit_system(m2)) == m2

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

    def test_breakers_that_share_a_suffix_share_its_atoms(self):
        m = parse_system(SHARED_SUFFIX)
        pi = parse_cycles("(1.a 1.b)(2.c 2.d)(2.e 2.f)", m.universe())
        sigma = parse_cycles("(1.g 1.h)(2.c 2.d)(2.e 2.f)", m.universe())
        group = group_closure([pi, sigma])  # (a b)(g h) is tagged p0, pi p1, sigma p2
        m2 = extend_mcs(m, group)
        # sigma's chain c2 -> c3 -> c4 ends in pi's c3 -> c4: one definition,
        # read in context 1 through one set of primed copies
        assert [a.name for a in m2.context(2).aux] == ["sbc_p1_c3", "sbc_p1_c4"]
        assert len(m2.context(2).kb) == 4 + 4
        assert [a.name for a in m2.context(1).aux] == [
            "sbc_p0_c2", "sbc_p0_c3", "sbc_p1_c2", "sbc_p1_p_c", "sbc_p1_p_d", "sbc_p1_pc3", "sbc_p2_c2"
        ]
        assert [b.head.name for b in m2.context(1).br[1:]] == ["sbc_p1_p_c", "sbc_p1_p_d", "sbc_p1_pc3"]
        sigma_rules = [r for r in m2.context(1).kb if Atom(1, "sbc_p2_c2") in r.head]
        assert len(sigma_rules) == 4
        assert all(r.atoms() & {Atom(1, "sbc_p1_p_c"), Atom(1, "sbc_p1_pc3")} for r in sigma_rules)
        pe = enumerate_partial_equilibria(m, 1)
        want = lex_leader_filter(pe, group, default_order(m))
        assert len(pe) == 16 and len(want) == 4
        assert solved(m2) == want
        assert {project_original(m2, s) for s in enumerate_partial_equilibria(m2, 1)} == want
        assert parse_system(emit_system(m2)) == m2

    @pytest.mark.parametrize(
        "topology, n, seed, sizes",
        [("house", 13, 0, (1023, 5085, 1103, 2126)), ("diamond", 16, 1, (4095, 20439, 4215, 8310))],
    )
    def test_full_rewrites_build_each_shared_atom_once(self, topology, n, seed, sizes):
        m = bench.generate(bench.TopologySpec(topology=topology, n=n, seed=seed))
        breakers, _ = bench.select_breakers(m, 1, "full")
        m2 = extend_mcs(m, breakers)

        def added(field):
            return sum(len(getattr(c, field)) for c in m2.contexts) - sum(len(getattr(c, field)) for c in m.contexts)

        # (breakers, kb rules, bridge rules, aux atoms); one chain per breaker
        # would add 18,434 kb rules, 12,291 bridges and 17,411 atoms to house-n13
        assert (len(breakers), added("kb"), added("br"), added("aux")) == sizes
        # no added rule is stated twice (diamond-n16 s1 repeats one original fact)
        assert sum(len(set(c.kb)) for c in m2.contexts) - sum(len(set(c.kb)) for c in m.contexts) == added("kb")

    def test_more_constraints_never_add_states(self, example1, abde):
        sizes = [
            len(enumerate_partial_equilibria(extend_mcs(example1, ps), 1))
            for ps in ([], [abde], dsd(example1, 1))
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes == [4, 3, 2]


# contexts 2 and 3 declare the same names; context 1 reads both x atoms
SHARED_NAMES = """mcs 3
context 1
  atoms a b c d e
  kb
  br
    e :- (2:x), (3:x).
context 2
  atoms x y
  kb
    x :- not y.
    y :- not x.
  br
context 3
  atoms x y
  kb
    x :- not y.
    y :- not x.
  br
"""


def shared_name_system(rng: random.Random) -> System:
    """Contexts 2 to 3 or 4 declare ``x y z``; context 1 reads ``x`` of every one.

    Context 1 has five atoms, so an interleaving order can hand its piece of
    a constraint the same-named atoms of two other contexts.
    """
    n = rng.randint(3, 4)
    lines = [f"mcs {n}", "context 1", "atoms a b c d e", "kb"]
    if rng.random() < 0.5:
        lines += ["c :- not d.", "d :- not c."]
    lines.append("br")
    for j in range(2, n + 1):
        lines.append(f"{rng.choice('abe')} :- ({j}:x).")
    for j in range(2, n + 1):
        lines += [f"context {j}", "atoms x y z", "kb", "x :- not y.", "y :- not x."]
        if rng.random() < 0.5:
            lines.append("z :- x.")
        lines.append("br")
        if j < n and rng.random() < 0.5:
            lines.append(f"z :- ({j + 1}:y).")
    return parse_system("\n".join(lines) + "\n")


def within_contexts(rng: random.Random, m: System, ids) -> Permutation:
    """A random permutation moving each listed context's atoms among themselves."""
    mapping = {}
    for i in ids:
        atoms = list(m.context(i).alphabet)
        mapping.update(zip(atoms, rng.sample(atoms, len(atoms))))
    return Permutation(mapping)


def shuffled_order(rng: random.Random, m: System) -> AtomOrder:
    atoms = list(default_order(m).atoms)
    rng.shuffle(atoms)
    return AtomOrder(tuple(atoms))


def solved(m):
    return {project_original(m, s) for s in evaluate_distributed(m, 1)}


class TestInterleavedOrders:
    """Orders that interleave contexts, over contexts that share atom names."""

    def test_same_named_imports_keep_their_own_copies(self):
        m = parse_system(SHARED_NAMES)
        pi = parse_cycles("(1.a 1.b)(1.c 1.d)(2.x 2.y)(3.x 3.y)", m.universe())
        a, b, c, d, e = m.context(1).alphabet
        x2, y2 = m.context(2).alphabet
        x3, y3 = m.context(3).alphabet
        order = AtomOrder((a, x2, c, x3, b, d, e, y2, y3))
        m2 = extend_mcs(m, [pi], order)
        pe = enumerate_partial_equilibria(m, 1)
        want = {s for s in pe if pc_satisfied(s, pi, order)}
        assert len(pe) == 4 and len(want) == 2
        assert solved(m2) == want
        assert {project_original(m2, s) for s in enumerate_partial_equilibria(m2, 1)} == want
        # the second x and y read here are qualified with their context
        assert [r.head.name for r in m2.context(1).br[1:]] == [
            "sbc_p0_p_x", "sbc_p0_p_y", "sbc_p0_pc3", "sbc_p0_p3_x", "sbc_p0_p3_y", "sbc_p0_pc5"
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_rewrites_match_the_reference_filters(self, seed):
        rng = random.Random(seed)
        for _ in range(6):
            m = shared_name_system(rng)
            pe = enumerate_partial_equilibria(m, 1)
            for _ in range(4):
                pi = within_contexts(rng, m, import_closure(m, 1))
                order = shuffled_order(rng, m)
                want = {s for s in pe if pc_satisfied(s, pi, order)}
                assert solved(extend_mcs(m, [pi], order)) == want, (emit_system(m), pi, order)
                group = group_closure([pi])
                want = lex_leader_filter(pe, group, order)
                assert solved(extend_mcs(m, group, order)) == want, (emit_system(m), pi, order)

    def test_the_shared_names_system_over_many_orders(self):
        rng = random.Random(5)
        m = parse_system(SHARED_NAMES)
        pe = enumerate_partial_equilibria(m, 1)
        for _ in range(200):
            pi = within_contexts(rng, m, m.ids)
            order = shuffled_order(rng, m)
            want = {s for s in pe if pc_satisfied(s, pi, order)}
            assert solved(extend_mcs(m, [pi], order)) == want, (pi, order)


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
