"""Answer-set semantics: frozen examples, independent oracle, properties."""

from __future__ import annotations

from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsym import (
    Atom,
    BoundExceeded,
    InternalError,
    ParseError,
    Permutation,
    Rule,
    answer_sets,
    apply,
    emit_program,
    emit_rule,
    extend_stratified,
    is_answer_set,
    occurring_atoms,
    parse_program,
    reduct,
    rule,
)
from mcsym.asp import evaluate_stratified, stratify
from mcsym.mcs import BridgeRule, Context, _LocalTable

a, b, c = Atom(1, "a"), Atom(1, "b"), Atom(1, "c")
d, e, f, g = Atom(2, "d"), Atom(2, "e"), Atom(2, "f"), Atom(2, "g")
ALPHA1 = (a, b, c)
ALPHA2 = (d, e, f, g)

KB2 = (
    rule(head=[f], pos=[d, e], neg=[g]),
    rule(head=[g], pos=[d, e], neg=[f]),
)


def subsets(atoms):
    atoms = list(atoms)
    return (
        frozenset(sub)
        for sub in chain.from_iterable(
            combinations(atoms, r) for r in range(len(atoms) + 1)
        )
    )


def naive_is_model(program, x):
    for r in program:
        if r.body_pos <= x and not (r.body_neg & x) and not (r.head & x):
            return False
    return True


def naive_answer_sets(program):
    """Independent oracle: direct definition over subsets of occurring atoms."""
    occ = occurring_atoms(program)
    out = set()
    for x in subsets(occ):
        red = reduct(program, x)
        if not naive_is_model(red, x):
            continue
        if any(naive_is_model(red, y) for y in subsets(x) if y != x):
            continue
        out.add(x)
    return frozenset(out)


class TestParse:
    def test_normal_rule(self):
        (r,) = parse_program("c :- a, b, not c.", ALPHA1)
        assert r == rule(head=[c], pos=[a, b], neg=[c])

    def test_integrity_constraint(self):
        (r,) = parse_program(":- a, not b.", ALPHA1)
        assert r == rule(pos=[a], neg=[b])
        assert r.is_constraint()

    def test_disjunctive_head(self):
        (r,) = parse_program("f ; g :- d.", ALPHA2)
        assert r == rule(head=[f, g], pos=[d])

    def test_fact(self):
        (r,) = parse_program("a.", ALPHA1)
        assert r.is_fact() and r.head == frozenset({a})

    def test_comments_and_multiline(self):
        prog = parse_program(
            "% leading comment\nc :- a,\n     b.  % trailing\na.\n", ALPHA1
        )
        assert len(prog) == 2

    def test_unknown_atom_rejected(self):
        with pytest.raises(ParseError):
            parse_program("a :- z.", ALPHA1)

    def test_missing_terminator_rejected(self):
        with pytest.raises(ParseError):
            parse_program("a :- b", ALPHA1)

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_program("a.\nb :- q.\n", ALPHA1)
        assert err.value.line == 2

    def test_emit_round_trip(self):
        text = "c :- a, b, not c.\nf ; g :- d.\n:- a, not b.\n"
        prog = parse_program(text, ALPHA1 + ALPHA2)
        assert parse_program(emit_program(prog), ALPHA1 + ALPHA2) == prog

    def test_emit_is_canonical(self):
        r = rule(head=[g, f], pos=[e, d], neg=[c])
        assert emit_rule(r) == "f ; g :- d, e, not c."


class TestReduct:
    def test_hand_computed(self):
        assert reduct(KB2, frozenset({d, e, f})) == (rule(head=[f], pos=[d, e]),)

    def test_negation_free_unchanged(self):
        prog = (rule(head=[a], pos=[b]),)
        assert reduct(prog, frozenset()) == prog

    def test_blocked_rule_dropped(self):
        prog = (rule(head=[a], neg=[a]),)
        assert reduct(prog, frozenset({a})) == ()


class TestAnswerSets:
    def test_kb2_with_facts(self):
        prog = KB2 + (rule(head=[d]), rule(head=[e]))
        assert answer_sets(prog) == frozenset(
            {frozenset({d, e, f}), frozenset({d, e, g})}
        )

    def test_empty_program(self):
        assert answer_sets(()) == frozenset({frozenset()})

    def test_odd_loop_has_no_answer_set(self):
        assert answer_sets((rule(head=[a], neg=[a]),)) == frozenset()

    def test_disjunctive_minimality(self):
        prog = (rule(head=[a, b]),)
        assert answer_sets(prog) == frozenset({frozenset({a}), frozenset({b})})
        assert not is_answer_set(prog, frozenset({a, b}))

    def test_head_cycle_is_not_shifted(self):
        # a and b lie on one positive cycle, so the program is not
        # head-cycle-free: its one answer set is {a, b}, while the shifted
        # program (a :- not b.  b :- not a.  a :- b.  b :- a.) has none
        prog = (rule(head=[a, b]), rule(head=[a], pos=[b]), rule(head=[b], pos=[a]))
        assert answer_sets(prog) == frozenset({frozenset({a, b})})
        shifted = (rule(head=[a], neg=[b]), rule(head=[b], neg=[a]), *prog[1:])
        assert answer_sets(shifted) == frozenset()
        table = _LocalTable(Context(1, ALPHA1, prog, ()), bound=3)
        assert table[0] == {table.bit[a] | table.bit[b]: (1, frozenset({a, b}))}

    def test_constraint_prunes(self):
        prog = (rule(head=[a, b]), rule(pos=[a]))
        assert answer_sets(prog) == frozenset({frozenset({b})})

    def test_is_answer_set_matches_enumeration(self):
        prog = KB2 + (rule(head=[d]),)
        for x in subsets(ALPHA2):
            assert is_answer_set(prog, x) == (x in naive_answer_sets(prog))

    def test_bound_exceeded(self):
        atoms = [Atom(1, f"x{i}") for i in range(21)]
        prog = tuple(rule(head=[x]) for x in atoms)
        with pytest.raises(BoundExceeded):
            answer_sets(prog, bound=20)


class TestExtendStratified:
    c2, c3 = Atom(1, "sbc_p0_c2"), Atom(1, "sbc_p0_c3")

    def test_chain_derivation(self):
        aux = (
            rule(head=[self.c2], pos=[a]),
            rule(head=[self.c3], neg=[self.c2]),
        )
        ext, violated = extend_stratified(frozenset({a}), aux)
        assert ext == frozenset({a, self.c2})
        assert violated == ()

    def test_violated_constraint_reported(self):
        aux = (rule(pos=[a], neg=[b]),)
        ext, violated = extend_stratified(frozenset({a}), aux)
        assert ext == frozenset({a})
        assert violated == aux

    def test_empty_aux(self):
        ext, violated = extend_stratified(frozenset({a}), ())
        assert ext == frozenset({a}) and violated == ()

    def test_cyclic_dependency_rejected(self):
        aux = (
            rule(head=[self.c2], pos=[self.c3]),
            rule(head=[self.c3], pos=[self.c2]),
        )
        with pytest.raises(InternalError):
            extend_stratified(frozenset(), aux)

    def test_negative_acyclic_dependency_allowed(self):
        aux = (
            rule(head=[self.c2], neg=[self.c3]),
            rule(head=[self.c3], pos=[a]),
        )
        ext, _ = extend_stratified(frozenset({a}), aux)
        assert ext == frozenset({a, self.c3})

    def test_seeded_head_acts_as_a_fact(self):
        aux = (
            rule(head=[self.c3], pos=[self.c2]),
            rule(pos=[self.c3], neg=[a]),
        )
        seeded = evaluate_stratified(frozenset({b, self.c2}), stratify(aux))
        assert seeded == extend_stratified(frozenset({b}), (*aux, rule(head=[self.c2])))
        assert seeded == (frozenset({b, self.c2, self.c3}), aux[1:])

    def test_disjunctive_aux_head_rejected(self):
        aux = (rule(head=[self.c2, self.c3]),)
        with pytest.raises(InternalError):
            extend_stratified(frozenset(), aux)


# ---------------------------------------------------------------------------
# properties

ATOMS4 = tuple(Atom(1, n) for n in "wxyz")


@st.composite
def programs(draw):
    n_rules = draw(st.integers(0, 4))
    rules = []
    for _ in range(n_rules):
        head = draw(st.sets(st.sampled_from(ATOMS4), max_size=2))
        pos = draw(st.sets(st.sampled_from(ATOMS4), max_size=2))
        neg = draw(st.sets(st.sampled_from(ATOMS4), max_size=2))
        rules.append(rule(head=head, pos=pos, neg=neg))
    return tuple(rules)


@given(programs())
def test_agrees_with_naive_oracle(prog):
    assert answer_sets(prog) == naive_answer_sets(prog)


@given(programs())
def test_answer_sets_are_minimal_models(prog):
    for x in answer_sets(prog):
        red = reduct(prog, x)
        assert naive_is_model(red, x)
        assert not any(naive_is_model(red, y) for y in subsets(x) if y != x)


@given(programs())
def test_answer_sets_form_an_antichain(prog):
    sets = list(answer_sets(prog))
    for x in sets:
        for y in sets:
            assert not (x < y)


@given(programs())
def test_symmetry_transport(prog):
    w, x, y, z = ATOMS4
    pi = Permutation({w: x, x: w, y: z, z: y})
    mirrored = prog + tuple(apply(pi, r) for r in prog)
    found = answer_sets(mirrored)
    for s in found:
        assert apply(pi, s) in found


ATOMS6 = tuple(Atom(1, f"p{i}") for i in range(6))


@st.composite
def normal_programs(draw):
    """Normal programs over up to 6 atoms with up to 8 rules.

    The atoms past ``n_heads`` occur only in bodies, so some negative bodies
    name atoms no rule can derive.  A program may start with a negative loop
    over its head atoms: even (length 2 or 4) or odd (length 1 or 3).
    """
    n_heads = draw(st.integers(1, 6))
    heads = ATOMS6[:n_heads]
    rules = []
    loop = draw(st.sampled_from([(), (2, 4), (1, 3)]))
    lengths = [n for n in loop if n <= n_heads]
    if lengths:
        cycle = draw(st.permutations(heads))[: draw(st.sampled_from(lengths))]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            rules.append(rule(head=[x], neg=[y]))
    for _ in range(draw(st.integers(0, 8 - len(rules)))):
        head = draw(st.sampled_from([(), *((h,) for h in heads)]))  # () is a constraint
        pos = draw(st.sets(st.sampled_from(ATOMS6), max_size=2))
        neg = draw(st.sets(st.sampled_from(ATOMS6), max_size=2))
        rules.append(rule(head=head, pos=pos, neg=neg))
    return tuple(rules)


@settings(max_examples=300)
@given(normal_programs())
def test_normal_programs_agree_with_naive_oracle(prog):
    assert answer_sets(prog) == naive_answer_sets(prog)


@st.composite
def bottoms(draw):
    """An original kb over up to 6 atoms, with the heads of its bridge rules.

    The kb may hold constraints, and is disjunctive when two-atom heads are
    drawn; some negative bodies name a bridge head.
    """
    heads = draw(st.lists(st.sampled_from(ATOMS6), unique=True, max_size=3))
    max_head = draw(st.sampled_from([1, 2]))
    rules = []
    for _ in range(draw(st.integers(0, 6))):
        head = draw(st.sets(st.sampled_from(ATOMS6), max_size=max_head))  # empty is a constraint
        pos = draw(st.sets(st.sampled_from(ATOMS6), max_size=2))
        neg = draw(st.sets(st.sampled_from(ATOMS6), max_size=2))
        if heads and draw(st.booleans()):
            neg.add(draw(st.sampled_from(heads)))
        rules.append(rule(head=head, pos=pos, neg=neg))
    return tuple(rules), heads


@settings(max_examples=200, deadline=None)
@given(bottoms())
def test_compiled_table_entries_agree_with_naive_oracle(case):
    bottom, heads = case
    q = Atom(2, "q")
    ctx = Context(1, ATOMS6, bottom, tuple(BridgeRule(h, frozenset({q}), frozenset()) for h in heads))
    table = _LocalTable(ctx, bound=len(ATOMS6))
    bit = {x: 1 << i for i, x in enumerate(ctx.alphabet)}
    for hs in chain.from_iterable(combinations(heads, r) for r in range(len(heads) + 1)):
        expected = naive_answer_sets([*bottom, *(rule(head=[h]) for h in hs)])
        assert table[sum(bit[h] for h in hs)] == {sum(bit[x] for x in s): (1, s) for s in expected}
