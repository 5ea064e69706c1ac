"""System model, equilibria, symmetry predicates, oracles, file format."""

from __future__ import annotations

import random

import pytest

from mcsym import (
    Atom,
    BeliefState,
    BoundExceeded,
    BridgeRule,
    Context,
    InsufficientBeliefState,
    InternalError,
    ParseError,
    Permutation,
    Rule,
    System,
    applicable,
    apply,
    brute_force_partial_symmetries,
    default_order,
    dsd,
    emit_cycles,
    emit_system,
    enumerate_partial_equilibria,
    evaluate_distributed,
    extend_mcs,
    group_closure,
    generate,
    import_closure,
    is_equilibrium,
    is_local_symmetry,
    is_partial_equilibrium,
    is_partial_symmetry,
    is_symmetry,
    join,
    lex_leader_filter,
    parse_system,
    project_original,
    rule,
    TopologySpec,
)

import mcsym.asp
import mcsym.mcs
from mcsym.bench import select_breakers
from helpers import (
    atoms_of,
    chain_system,
    cyc,
    post_order,
    random_system,
    round_based_completion,
    state_of,
    with_random_aux_layer,
)


JOINT_SWAP = """mcs 2
context 1
  atoms x y nx ny
  kb
    x :- not nx.
    nx :- not x.
    y :- not ny.
    ny :- not y.
  br
context 2
  atoms a b c d e
  kb
    a :- not b.
    b :- not a.
    e :- a, c.
    e :- b, d.
  br
    c :- (1:x).
    d :- (1:y).
"""


@pytest.fixture(scope="module")
def abcdefgh(example1):
    return atoms_of(example1, "a", "b", "c", "d", "e", "f", "g", "h")


def the_four_equilibria(m):
    return frozenset(
        {
            state_of(m, {1: {"b"}, 2: {"d"}, 3: set()}),
            state_of(m, {1: {"a"}, 2: {"e"}, 3: {"h"}}),
            state_of(m, {1: set(), 2: {"d", "e", "f"}, 3: set()}),
            state_of(m, {1: set(), 2: {"d", "e", "g"}, 3: set()}),
        }
    )


def the_four_partial_wrt_1(m):
    return frozenset(
        {
            state_of(m, {1: {"b"}, 2: {"d"}}),
            state_of(m, {1: {"a"}, 2: {"e"}}),
            state_of(m, {1: set(), 2: {"d", "e", "f"}}),
            state_of(m, {1: set(), 2: {"d", "e", "g"}}),
        }
    )


class TestImports:
    def test_neighbourhood(self, example1):
        assert example1.context(1).imports == frozenset({2})
        assert example1.context(2).imports == frozenset({1})
        assert example1.context(3).imports == frozenset({1})

    def test_closure(self, example1):
        assert import_closure(example1, 1) == frozenset({1, 2})
        assert import_closure(example1, 3) == frozenset({1, 2, 3})

    def test_closure_without_bridges(self):
        p = Atom(1, "p")
        m = System((Context(1, (p,), (), ()),))
        assert import_closure(m, 1) == frozenset({1})


class TestApplicable:
    def test_negative_body_fires(self, example1):
        a, e = atoms_of(example1, "a", "e")
        s = state_of(example1, {1: None, 2: {"e"}, 3: None})
        assert a in applicable(example1.context(1), s)

    def test_positive_body_blocked(self, example1):
        h = atoms_of(example1, "h")[0]
        s = state_of(example1, {1: {"b"}, 2: None, 3: None})
        assert h not in applicable(example1.context(3), s)

    def test_empty_body_always_fires(self):
        p, q = Atom(1, "p"), Atom(2, "q")
        ctx = Context(1, (p,), (), (BridgeRule(p, frozenset(), frozenset()),))
        m = System((ctx, Context(2, (q,), (), ())))
        s = BeliefState.make({1: frozenset(), 2: None})
        assert applicable(ctx, s) == frozenset({p})

    def test_undefined_component_rejected(self, example1):
        s = state_of(example1, {1: None, 2: None, 3: None})
        with pytest.raises(InsufficientBeliefState):
            applicable(example1.context(1), s)
        # as a dict, an eps or a missing import is rejected alike
        for comps in ({1: frozenset(), 2: None, 3: frozenset()}, {1: frozenset(), 3: frozenset()}):
            with pytest.raises(InsufficientBeliefState):
                applicable(example1.context(1), comps)

    def test_dict_gives_the_same_heads_as_the_belief_state(self):
        rng = random.Random(20261019)
        for _ in range(40):
            m = random_system(rng, max_contexts=4, max_atoms=3)
            comps = {c.id: frozenset(a for a in c.alphabet if rng.random() < 0.5) for c in m.contexts}
            s = BeliefState.make(comps)
            for ctx in m.contexts:
                assert applicable(ctx, comps) == applicable(ctx, s)


class TestEquilibria:
    def test_the_four_equilibria(self, example1):
        for s in the_four_equilibria(example1):
            assert is_equilibrium(example1, s)

    def test_non_equilibrium(self, example1):
        assert not is_equilibrium(
            example1, state_of(example1, {1: {"a"}, 2: {"d"}, 3: set()})
        )

    def test_partial_wrt_1(self, example1):
        for s in the_four_partial_wrt_1(example1):
            assert is_partial_equilibrium(example1, s, 1)

    def test_partial_requires_eps_outside_closure(self, example1):
        s = state_of(example1, {1: {"b"}, 2: {"d"}, 3: set()})
        assert not is_partial_equilibrium(example1, s, 1)

    def test_transposed_tuple_is_not_partial(self, example1):
        assert not is_partial_equilibrium(
            example1, state_of(example1, {1: {"a"}, 2: {"d"}}), 1
        )
        assert not is_partial_equilibrium(
            example1, state_of(example1, {1: {"b"}, 2: {"e"}}), 1
        )

    def test_all_eps_is_not_partial(self, example1):
        s = state_of(example1, {})
        for k in (1, 2, 3):
            assert not is_partial_equilibrium(example1, s, k)

    def test_enumerate_full(self, example1):
        assert enumerate_partial_equilibria(example1) == the_four_equilibria(example1)

    def test_enumerate_wrt_1(self, example1):
        assert enumerate_partial_equilibria(example1, 1) == the_four_partial_wrt_1(
            example1
        )

    def test_trivial_single_context(self):
        p = Atom(1, "p")
        m = System((Context(1, (p,), (), ()),))
        assert enumerate_partial_equilibria(m, 1) == frozenset(
            {BeliefState.make({1: frozenset()})}
        )

    def test_distributed_matches_enumeration(self, example1):
        for k in (1, 2, 3):
            assert evaluate_distributed(example1, k) == enumerate_partial_equilibria(
                example1, k
            )

    def test_distributed_root_3_gives_full_equilibria(self, example1):
        assert evaluate_distributed(example1, 3) == the_four_equilibria(example1)

    def test_acyclic_chain_combines_cartesian(self):
        p, u, t = Atom(1, "p"), Atom(1, "u"), Atom(1, "t")
        q, r, z = Atom(2, "q"), Atom(2, "r"), Atom(2, "z")
        c1 = Context(
            1,
            (p, u, t),
            (rule(head=[p, u]),),
            (BridgeRule(t, frozenset(), frozenset({z})),),
        )
        c2 = Context(2, (q, r, z), (rule(head=[q, r]),), ())
        m = System((c1, c2))
        got = evaluate_distributed(m, 1)
        assert got == enumerate_partial_equilibria(m, 1)
        assert len(got) == 4  # {p,t}/{u,t} x {q}/{r}

    def test_distributed_matches_on_random_instances(self):
        rng = random.Random(20260816)
        for _ in range(25):
            m = random_system(rng, max_contexts=3, max_atoms=3)
            for k in (*m.ids, None):
                assert evaluate_distributed(m, k) == enumerate_partial_equilibria(m, k)
        # larger closures: shared dependencies (diamonds), chords and cycles
        for _ in range(6):
            m = random_system(rng, min_contexts=4, max_contexts=5, max_atoms=3)
            for k in (*m.ids, None):
                assert evaluate_distributed(m, k) == enumerate_partial_equilibria(m, k)
        cases = [(t, 4, seed) for t in ("diamond", "zigzag", "ring") for seed in range(4)]
        for topo, n, seed in [*cases, ("house", 5, 0)]:
            m = generate(TopologySpec(topo, n, seed, atoms_per_context=3))
            for k in (1, None):
                assert evaluate_distributed(m, k) == enumerate_partial_equilibria(m, k)

    def test_distributed_matches_with_random_aux_layers(self):
        # the rewrite is not the only source of aux atoms: aux constraints that
        # a member violates without deriving any aux atom must still reject it
        rng = random.Random(20261018)
        for _ in range(100):
            m = with_random_aux_layer(rng, random_system(rng, max_contexts=3, max_atoms=3))
            for k in m.ids:
                assert evaluate_distributed(m, k) == enumerate_partial_equilibria(m, k)

    def test_distributed_matches_with_self_reading_bridges_and_cycles(self):
        # members that import themselves, or import a context assigned after
        # them, are filtered by lookup; the others draw from their table
        rng = random.Random(20261019)
        self_reading = cyclic = 0
        for n in range(150):
            m = random_system(rng, max_contexts=3, max_atoms=3, self_reads=True)
            if n % 2:
                m = with_random_aux_layer(rng, m)
            self_reading += any(c.id in c.imports for c in m.contexts)
            cyclic += any(
                i != j and i in import_closure(m, j) and j in import_closure(m, i)
                for i in m.ids for j in m.ids
            )
            for k in m.ids:
                assert evaluate_distributed(m, k) == enumerate_partial_equilibria(m, k)
        assert self_reading > 50 and cyclic > 25

    def test_one_pass_completion_matches_the_rounds(self):
        # the reference iterates per-context completions until nothing
        # changes; the solver and the oracle evaluate the import closure's
        # auxiliary layer as one program
        rng = random.Random(20261020)
        systems = [
            with_random_aux_layer(rng, random_system(rng, max_contexts=4, max_atoms=3))
            for _ in range(60)
        ]
        for _ in range(30):
            m = random_system(rng, max_contexts=3, max_atoms=3)
            breakers = [p for p in dsd(m, 1) if not p.is_identity()]
            systems.append(extend_mcs(m, breakers, default_order(m)))
        for seed in range(2):
            m = generate(TopologySpec("diamond", 4, seed, atoms_per_context=3))
            breakers = [p for p in dsd(m, 1) if not p.is_identity()]
            systems.append(extend_mcs(m, breakers, default_order(m)))
        derived = violated = 0
        for m in systems:
            for k in m.ids:
                closure = sorted(import_closure(m, k))
                strata = mcsym.mcs._aux_program(m, closure)
                for _ in range(8):
                    assignment = {
                        i: frozenset(a for a in m.context(i).alphabet if rng.random() < 0.5)
                        for i in closure
                    }
                    got = mcsym.mcs._complete_aux(strata, assignment)
                    assert got == round_based_completion(m, assignment)
                    derived += got[0] != assignment
                    violated += got[1]
                for s in evaluate_distributed(m, k):
                    assert is_partial_equilibrium(m, s, k)
        assert derived > 500 and violated > 200

    def test_members_are_assigned_in_depth_first_post_order(self, monkeypatch):
        built = []

        class Recorded(mcsym.mcs._LocalTable):
            def __init__(self, ctx, bound):
                built.append(ctx.id)
                super().__init__(ctx, bound)

        monkeypatch.setattr(mcsym.mcs, "_LocalTable", Recorded)
        rng = random.Random(20261021)
        for _ in range(80):
            m = random_system(rng, max_contexts=6, max_atoms=2, self_reads=True,
                              edge_probability=rng.choice((0.15, 0.3, 0.5)))
            for k in (*m.ids, None):
                built.clear()
                evaluate_distributed(m, k)
                assert built == post_order(m, k), k

    def test_long_import_chain_needs_no_recursion(self):
        # the search and its post-order keep their own stacks
        m = chain_system(1100)
        states = evaluate_distributed(m, 1)
        assert len(states) == 2 and evaluate_distributed(m, None) == states
        ring = generate(TopologySpec("ring", 1100, 0, pair_probability=0))
        assert evaluate_distributed(ring, 1) == frozenset()

    def test_rule_mixing_original_head_and_aux_fails_when_solved(self):
        # the kb split is checked when first used, not when the system is built
        p, x = Atom(1, "p"), Atom(1, "x")
        m = System((Context(1, (p,), (rule(head=[p], pos=[x]),), (), (x,)),))
        with pytest.raises(InternalError):
            enumerate_partial_equilibria(m, 1)
        with pytest.raises(InternalError):
            evaluate_distributed(m, 1)

    def test_bound_is_checked_for_members_the_search_never_reaches(self):
        # context 2 is assigned first and has no answer sets, so the search
        # never reads the root's table; the root is still over the bound
        a, b, c, q = Atom(1, "a"), Atom(1, "b"), Atom(1, "c"), Atom(2, "q")
        root = Context(
            1,
            (a, b, c),
            (rule(head=[a], neg=[b]), rule(head=[b], neg=[a]), rule(head=[c], pos=[a])),
            (BridgeRule(c, frozenset({q}), frozenset()),),
        )
        m = System((root, Context(2, (q,), (rule(head=[q], neg=[q]),), ())))
        assert evaluate_distributed(m, 2) == frozenset()
        with pytest.raises(BoundExceeded):
            enumerate_partial_equilibria(m, 1, bound=2)
        with pytest.raises(BoundExceeded):
            evaluate_distributed(m, 1, bound=2)

    def test_bound_is_checked_on_occurring_atoms_not_the_alphabet(self):
        # the root declares five atoms but its rules name only a and b, so it
        # is within a bound of 2 that its alphabet passes
        a, b, c, d, e = (Atom(1, x) for x in "abcde")
        q, r = Atom(2, "q"), Atom(2, "r")
        root = Context(
            1,
            (c, a, d, b, e),
            (rule(head=[a], neg=[b]), rule(head=[b], neg=[a])),
            (BridgeRule(b, frozenset({q}), frozenset()),),
        )
        m = System((root, Context(2, (q, r), (rule(head=[q], neg=[r]), rule(head=[r], neg=[q])), ())))
        got = evaluate_distributed(m, 1, bound=2)
        assert len(got) == 3 and got == enumerate_partial_equilibria(m, 1, bound=2)
        assert evaluate_distributed(m, None, bound=2) == got

    def test_tables_build_only_the_entries_the_search_reads(self, monkeypatch):
        calls = []
        kernel = mcsym.asp.answer_set_masks

        def counted(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(mcsym.asp, "answer_set_masks", counted)
        for seed in range(4):
            m = generate(TopologySpec("diamond", 4, seed))
            whole = sum(
                2 ** len({b.head for b in m.context(i).br} & m.context(i).original)
                for i in import_closure(m, 1)
            )
            calls.clear()
            got = evaluate_distributed(m, 1)
            assert calls and len(calls) < whole
            assert got == enumerate_partial_equilibria(m, 1)

    def test_search_branches_once_per_group_of_what_later_members_read(self, monkeypatch):
        # every context carries a swap pair that no bridge reads, so each
        # member's answer sets form one group and each depth is entered once
        calls = []
        fired = mcsym.mcs._fired_mask

        def counted(rules, assignment):
            calls.append(1)
            return fired(rules, assignment)

        monkeypatch.setattr(mcsym.mcs, "_fired_mask", counted)
        for seed in (0, 2, 3):
            m = generate(TopologySpec("diamond", 7, seed, pair_probability=1))
            for k, states in ((1, 128), (4, 16)):
                calls.clear()
                got = evaluate_distributed(m, k)
                assert len(got) == states
                assert len(calls) <= len(import_closure(m, k))
        # the oracle tries 2^27 candidates on root 1's closure, 2^15 on root 4's
        assert got == enumerate_partial_equilibria(m, 4)

    def test_leaves_complete_each_state_of_a_group(self):
        # the only symmetry swaps the root's pair a/b jointly with context
        # 1's pairs, so the first lex-leader position (1:x) is checked in
        # context 1 and the pair's in the auxiliary layer; no bridge with an
        # original head reads a or b, so both lie in one group of the root
        m = parse_system(JOINT_SWAP)
        breakers, _ = select_breakers(m, 2, "full")
        assert [emit_cycles(p) for p in breakers] == ["(1.nx 1.ny)(1.x 1.y)(2.a 2.b)(2.c 2.d)"]
        order = default_order(m)
        m2 = extend_mcs(m, breakers, order)
        a, b = atoms_of(m, "a", "b")
        read = {x for c in m2.contexts for r in c.br if r.head in c.original for x in r.body_pos | r.body_neg}
        aux_read = {x for c in m2.contexts for r in c.split_kb[1] for x in r.body_pos | r.body_neg}
        assert 2 not in m.exports and {a, b} <= aux_read - read
        before = enumerate_partial_equilibria(m, 2)
        after = {project_original(m2, s) for s in evaluate_distributed(m2, 2)}
        assert len(before) == 8 and len(after) == 4
        assert after == lex_leader_filter(before, breakers, order)

    def test_negative_bound_rejected(self, example1):
        with pytest.raises(ParseError, match="bound"):
            evaluate_distributed(example1, 1, bound=-1)
        with pytest.raises(ParseError, match="bound"):
            enumerate_partial_equilibria(example1, 1, bound=-1)
        with pytest.raises(ParseError, match="bound"):
            enumerate_partial_equilibria(example1, bound=-1)


class TestSymmetryPredicates:
    def test_fg_is_a_symmetry_and_local_for_2(self, example1):
        f, g = atoms_of(example1, "f", "g")
        fg = Permutation({f: g, g: f}, domain=example1.universe())
        assert is_symmetry(example1, fg)
        assert is_local_symmetry(example1, 2, fg)
        assert not is_local_symmetry(example1, 1, fg)

    def test_abde_is_partial_wrt_1_but_not_global(self, example1):
        a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
        abde = Permutation(
            {a: b, b: a, d: e, e: d}, domain=example1.universe(within=[1])
        )
        assert is_partial_symmetry(example1, abde, [1])
        assert not is_symmetry(example1, abde.extend(example1.universe()))

    def test_identity_satisfies_all_three(self, example1):
        ident = Permutation.identity(example1.universe())
        assert is_symmetry(example1, ident)
        for k in (1, 2, 3):
            assert is_local_symmetry(example1, k, ident)
            assert is_partial_symmetry(example1, ident, [k])

    def test_partial_symmetry_requires_covering_domain(self, example1):
        a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
        abde_small = Permutation({a: b, b: a, d: e, e: d})
        # domain misses c (and for {C_3} misses h): Def.-2 coverage fails
        assert not is_partial_symmetry(example1, abde_small, [1])
        assert not is_partial_symmetry(
            example1, abde_small.extend(example1.universe(within=[1])), [3]
        )


class TestBruteForceOracle:
    def test_wrt_1(self, example1):
        assert cyc(brute_force_partial_symmetries(example1, [1])) == {
            "()",
            "(1.a 1.b)(2.d 2.e)",
        }

    def test_wrt_2_is_the_closure_of_the_listed_elements(self, example1):
        got = brute_force_partial_symmetries(example1, [2])
        listed = {"()", "(1.a 1.b)(2.d 2.e)(2.f 2.g)", "(2.f 2.g)"}
        assert listed <= cyc(got)
        assert cyc(got) == cyc(group_closure(got))
        assert len(got) == 4

    def test_wrt_3(self, example1):
        assert cyc(brute_force_partial_symmetries(example1, [3])) == {"()"}

    def test_full_system_symmetries(self, example1):
        got = brute_force_partial_symmetries(example1, [1, 2, 3])
        assert cyc(got) == {"()", "(2.f 2.g)"}
        for pi in got:
            assert is_symmetry(example1, pi)

    def test_oracle_members_satisfy_definition(self, example1):
        for cs in ([1], [2], [3], [1, 2], [1, 2, 3]):
            for pi in brute_force_partial_symmetries(example1, cs):
                assert is_partial_symmetry(example1, pi, cs)

    def test_atoms_constrained_by_no_member_rule_swap_freely(self):
        m = parse_system(
            "mcs 2\n"
            "context 1\n"
            "  atoms p q r s\n"
            "  kb\n"
            "    p :- s.\n"
            "  br\n"
            "context 2\n"
            "  atoms t\n"
            "  kb\n"
            "    t.\n"
            "  br\n"
            "    t :- (1:q), (1:r).\n"
            "    t :- (1:s).\n"
        )
        got = brute_force_partial_symmetries(m, [1])
        assert cyc(got) == {"()", "(q r)"}
        for pi in got:
            assert is_partial_symmetry(m, pi, [1])
        assert cyc(brute_force_partial_symmetries(m, [1, 2])) == {"()", "(1.q 1.r)"}


class TestJoinAndTransport:
    def test_join_of_partial_symmetries(self, example1):
        sig1 = brute_force_partial_symmetries(example1, [1])
        sig2 = brute_force_partial_symmetries(example1, [2])
        defined = 0
        for p in sig1:
            for q in sig2:
                j = join(p, q)
                if j is not None:
                    defined += 1
                    assert is_partial_symmetry(example1, j, [1, 2])
        assert defined > 0

    def test_join_property_on_random_instances(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(20):
            m = random_system(rng, max_contexts=3, max_atoms=3)
            ids = list(m.ids)
            k1 = rng.choice(ids)
            k2 = rng.choice(ids)
            s1 = brute_force_partial_symmetries(m, [k1])
            s2 = brute_force_partial_symmetries(m, [k2])
            for p in s1:
                for q in s2:
                    j = join(p, q)
                    if j is not None:
                        checked += 1
                        assert is_partial_symmetry(m, j, [k1, k2])
        assert checked > 0

    def test_equilibrium_transport(self, example1):
        f, g = atoms_of(example1, "f", "g")
        fg = Permutation({f: g, g: f}, domain=example1.universe())
        for s in the_four_equilibria(example1):
            assert is_equilibrium(example1, apply(fg, s))

    def test_equilibrium_transport_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(15):
            m = random_system(rng, max_contexts=3, max_atoms=3)
            syms = brute_force_partial_symmetries(m, list(m.ids))
            eqs = enumerate_partial_equilibria(m)
            for pi in syms:
                for s in eqs:
                    assert apply(pi, s) in eqs


class TestUniverse:
    def test_full(self, example1, abcdefgh):
        assert example1.universe() == frozenset(abcdefgh)

    def test_within_one_context(self, example1, abcdefgh):
        a, b, c, d, e, f, g, h = abcdefgh
        assert example1.universe(within=[1]) == frozenset({a, b, c, d, e})
        assert example1.universe(within=[2]) == frozenset({a, b, d, e, f, g})
        assert example1.universe(within=[3]) == frozenset({h, a})


class TestBeliefState:
    def test_str_format(self, example1):
        s = state_of(example1, {1: {"b"}, 2: {"d"}})
        assert str(s) == "1={b} 2={d} 3=eps"

    def test_get_and_defined_ids(self, example1):
        s = state_of(example1, {1: {"b"}, 2: {"d"}})
        assert s.get(3) is None
        assert s.defined_ids() == frozenset({1, 2})

    def test_apply_keeps_eps(self, example1):
        a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
        abde = Permutation({a: b, b: a, d: e, e: d})
        s = state_of(example1, {1: {"a"}, 2: {"e"}})
        assert apply(abde, s) == state_of(example1, {1: {"b"}, 2: {"d"}})

    def test_apply_asks_the_state_before_mapping_it_as_a_tuple(self, example1):
        a, b, d, e = atoms_of(example1, "a", "b", "d", "e")
        abde = Permutation({a: b, b: a, d: e, e: d})
        s = state_of(example1, {1: {"a", "d"}, 2: {"e"}})
        t = apply(abde, s)
        assert type(t) is BeliefState and t == s._apply_perm(abde)

    def test_a_state_never_equals_a_plain_tuple(self, example1):
        s = state_of(example1, {1: {"b"}, 2: {"d"}})
        c = s.components
        assert type(c) is tuple and tuple(s) == c
        assert BeliefState(c) != c and c != BeliefState(c) and not BeliefState(c) == c
        assert BeliefState(c) == s and not BeliefState(c) != s
        assert s not in {c} and c not in {s}

    def test_equal_states_hash_equally(self, example1):
        s = state_of(example1, {1: {"b"}, 2: {"d"}})
        t = BeliefState.make({3: None, 2: {Atom(2, "d")}, 1: [Atom(1, "b")]})
        assert s == t and s is not t and hash(s) == hash(t)
        assert len({s, t, BeliefState(s.components)}) == 1

    def test_repr_names_the_components(self):
        s = BeliefState.make({2: None, 1: []})
        assert repr(s) == "BeliefState(components=((1, frozenset()), (2, None)))"


class TestFileFormat:
    def test_round_trip(self, example1):
        assert parse_system(emit_system(example1)) == example1

    def test_canonical_emission_is_stable(self, example1):
        once = emit_system(example1)
        assert emit_system(parse_system(once)) == once

    def test_aux_section_round_trip(self):
        text = (
            "mcs 1\n"
            "context 1\n"
            "  atoms p q\n"
            "  aux sbc_p0_c2\n"
            "  kb\n"
            "    p :- not q.\n"
            "  br\n"
        )
        m = parse_system(text)
        assert [x.name for x in m.context(1).aux] == ["sbc_p0_c2"]
        assert parse_system(emit_system(m)) == m

    def test_solved_system_equals_and_hashes_like_its_reparse(self, example1):
        # what solving keeps on the contexts stays out of equality and hashing
        m = extend_mcs(example1, dsd(example1, 1))
        enumerate_partial_equilibria(m)
        evaluate_distributed(m, 1)
        assert all("split_kb" in vars(c) for c in m.contexts)
        again = parse_system(emit_system(m))
        assert again == m
        assert hash(again) == hash(m)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_system("context 1\n  atoms a\n  kb\n  br\n")

    def test_wrong_context_count(self):
        with pytest.raises(ParseError):
            parse_system("mcs 2\ncontext 1\n  atoms a\n  kb\n  br\n")

    def test_duplicate_ids_rejected(self):
        p, q = Atom(1, "p"), Atom(1, "q")
        with pytest.raises(ParseError):
            System((Context(1, (p,), (), ()), Context(1, (q,), (), ())))

    def test_foreign_kb_atom_rejected(self):
        p, q = Atom(1, "p"), Atom(2, "q")
        with pytest.raises(ParseError):
            System(
                (
                    Context(1, (p,), (rule(head=[p], pos=[q]),), ()),
                    Context(2, (q,), (), ()),
                )
            )

    def test_bridge_head_must_be_local(self):
        p, q = Atom(1, "p"), Atom(2, "q")
        with pytest.raises(ParseError):
            System(
                (
                    Context(1, (p,), (), (BridgeRule(q, frozenset({q}), frozenset()),)),
                    Context(2, (q,), (), ()),
                )
            )

    def test_original_bridge_head_reading_aux_rejected(self):
        p, q, x = Atom(1, "p"), Atom(2, "q"), Atom(2, "x")
        with pytest.raises(ParseError):
            System(
                (
                    Context(1, (p,), (), (BridgeRule(p, frozenset(), frozenset({x})),)),
                    Context(2, (q,), (), (), (x,)),
                )
            )
        with pytest.raises(ParseError):
            parse_system(
                "mcs 2\ncontext 1\n  atoms p\n  kb\n  br\n    p :- not (2:x).\n"
                "context 2\n  atoms q\n  aux x\n  kb\n  br\n"
            )

    def test_undeclared_bridge_reference_rejected(self):
        with pytest.raises(ParseError):
            parse_system(
                "mcs 1\ncontext 1\n  atoms p\n  kb\n  br\n    p :- (2:q).\n"
            )

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param(
                "mcs 2\ncontext 1\n  atoms a b\n  kb\n    a :- not b.\n"
                "  % a comment\n\n    b :- zz.\n  br\n"
                "context 2\n  atoms q\n  kb\n  br\n",
                8,
                id="kb-after-comment-and-blank",
            ),
            pytest.param(
                "mcs 2\ncontext 1\n  atoms a b\n  kb\n  br\n    a :- (2:q).\n"
                "  % a comment\n\n    b :- not (2:zz).\n"
                "context 2\n  atoms q\n  kb\n  br\n",
                9,
                id="br-after-comment-and-blank",
            ),
            pytest.param(
                "mcs 1\ncontext 1\n  atoms a b\n  kb\n    a :- not b.\n"
                "    b :- not a,\n         zz.\n  br\n",
                6,
                id="statement-over-two-lines",
            ),
            pytest.param(
                "mcs 1\ncontext 1\n  atoms a b\n  kb\n  br\n    a :- (1:b).\n"
                "    b :- (9:q).\n",
                7,
                id="unknown-context-in-bridge-literal",
            ),
        ],
    )
    def test_errors_name_the_file_line(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    def test_emitted_random_systems_reparse(self):
        rng = random.Random(3)
        for _ in range(20):
            m = random_system(rng)
            assert parse_system(emit_system(m)) == m
