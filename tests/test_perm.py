"""Permutation algebra: frozen examples and algebraic properties."""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsym import (
    Atom,
    BeliefState,
    BoundExceeded,
    BridgeRule,
    InternalError,
    ParseError,
    Permutation,
    Rule,
    apply,
    compose,
    emit_cycles,
    group_closure,
    join,
    join_sets,
    orbit,
    orbit_of_states,
    parse_cycles,
    reduce_irredundant,
)
from mcsym import perm as perm_module
from mcsym.perm import perm_sort_key

from helpers import cyc

a, b, c = Atom(1, "a"), Atom(1, "b"), Atom(1, "c")
d, e, f, g = Atom(2, "d"), Atom(2, "e"), Atom(2, "f"), Atom(2, "g")
h = Atom(3, "h")

A12 = frozenset({a, b, c, d, e})
A2U = frozenset({a, b, d, e, f, g})


def perm(mapping: dict[Atom, Atom], domain=None) -> Permutation:
    return Permutation(mapping, domain=frozenset(domain) if domain else None)


FG = perm({f: g, g: f}, {d, e, f, g})
ABDE = perm({a: b, b: a, d: e, e: d}, A12)
ABDEFG = perm({a: b, b: a, d: e, e: d, f: g, g: f}, A2U)


class TestApply:
    def test_kb_rule(self):
        r = Rule(frozenset({f}), frozenset({d, e}), frozenset({g}))
        assert apply(FG, r) == Rule(frozenset({g}), frozenset({d, e}), frozenset({f}))

    def test_bridge_rule(self):
        r = BridgeRule(d, frozenset(), frozenset({a}))
        assert apply(ABDE, r) == BridgeRule(e, frozenset(), frozenset({b}))

    def test_belief_state_componentwise_eps_fixed(self):
        s = BeliefState.make({1: frozenset(), 2: frozenset({d, e, f}), 3: None})
        t = apply(FG, s)
        assert t == BeliefState.make({1: frozenset(), 2: frozenset({d, e, g}), 3: None})
        assert t.get(3) is None

    def test_atoms_outside_domain_are_fixed(self):
        assert apply(FG, h) == h
        assert apply(FG, frozenset({d, f, h})) == frozenset({d, g, h})


class TestCompose:
    def test_involution_squares_to_identity(self):
        assert compose(FG, FG).is_identity()

    def test_identity_is_unit(self):
        ident = Permutation.identity(A12)
        assert compose(ident, ABDE) == ABDE
        assert compose(ABDE, ident) == ABDE

    def test_three_cycle_squared(self):
        abc = perm({a: b, b: c, c: a}, {a, b, c})
        acb = perm({a: c, c: b, b: a}, {a, b, c})
        assert compose(abc, abc) == acb

    def test_application_order(self):
        ab = perm({a: b, b: a}, {a, b, c})
        bc = perm({b: c, c: b}, {a, b, c})
        # compose(pi, sigma) applies pi first, then sigma
        assert apply(compose(ab, bc), a) == c


class TestCycles:
    def test_parse_disjoint_transpositions(self):
        pi = parse_cycles("(a b) (d e)", A12)
        assert pi == ABDE
        assert apply(pi, c) == c

    def test_emit_identity_is_empty(self):
        assert emit_cycles(Permutation.identity(frozenset({a, b}))) == ""

    def test_round_trip(self):
        pi = parse_cycles("(f g)", frozenset({d, e, f, g}))
        assert emit_cycles(pi) == "(f g)"

    def test_canonical_emission_least_atom_first(self):
        u, v, w, x = (Atom(1, n) for n in "uvwx")
        pi = parse_cycles("(x w) (v u)", frozenset({u, v, w, x}))
        assert emit_cycles(pi) == "(u v)(w x)"
        assert emit_cycles(ABDE) == "(1.a 1.b)(2.d 2.e)"

    def test_multi_context_emission_is_qualified(self):
        assert emit_cycles(ABDE) == "(1.a 1.b)(2.d 2.e)"
        assert emit_cycles(FG) == "(f g)"  # single-context domain stays bare

    def test_qualified_names_parse(self):
        pi = parse_cycles("(1.a 1.b)(2.d 2.e)", A12)
        assert pi == ABDE

    def test_unknown_atom_rejected(self):
        with pytest.raises(ParseError):
            parse_cycles("(a z)", A12)

    def test_repeated_atom_rejected(self):
        with pytest.raises(ParseError):
            parse_cycles("(a b)(b c)", A12)

    def test_ambiguous_bare_name_rejected(self):
        twins = frozenset({Atom(1, "x"), Atom(2, "x"), Atom(1, "y"), Atom(2, "y")})
        with pytest.raises(ParseError):
            parse_cycles("(x y)", twins)


class TestOrbit:
    def test_two_cycle(self):
        assert orbit(FG, f) == frozenset({f, g})

    def test_fixed_point(self):
        assert orbit(FG, d) == frozenset({d})

    def test_outside_domain_rejected(self):
        from mcsym import McsymError

        with pytest.raises(McsymError):
            orbit(FG, h)

    def test_orbit_of_states(self):
        s = BeliefState.make({1: frozenset({a}), 2: frozenset({e}), 3: None})
        t = BeliefState.make({1: frozenset({b}), 2: frozenset({d}), 3: None})
        assert orbit_of_states([ABDE], s) == frozenset({s, t})


class TestJoin:
    def test_agreeing_join_extends(self):
        j = join(ABDE, ABDEFG)
        assert j == ABDEFG.extend(A12 | A2U)
        assert j.domain == A12 | A2U

    def test_disagreement_is_undefined(self):
        fg6 = perm({f: g, g: f}, A2U)
        assert join(ABDE, fg6) is None  # disagree at a

    def test_identity_join(self):
        ident = Permutation.identity(A12)
        assert join(ident, ident) == ident

    def test_join_sets_absorbing_case(self):
        pi_set = {Permutation.identity(A12), ABDE}
        sigma_set = {Permutation.identity(A2U), ABDEFG, perm({f: g, g: f}, A2U)}
        joined = join_sets(pi_set, sigma_set)
        assert cyc(joined) == cyc(sigma_set)

    def test_join_sets_filters_disagreements(self):
        pi_set = {Permutation.identity(A12), ABDE}
        sigma_set = {Permutation.identity(A2U), ABDEFG, perm({f: g, g: f}, A2U)}
        joined = join_sets(pi_set, sigma_set)
        theta = {Permutation.identity(frozenset({h, a}))}
        assert cyc(join_sets(joined, theta)) == {"()", "(2.f 2.g)"}

    def test_empty_set(self):
        assert join_sets([], [ABDE]) == frozenset()

    def test_join_sets_stops_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(perm_module, "JOIN_CAP", 3)
        ab = {Permutation.identity({a, b}), perm({a: b, b: a})}
        de = {Permutation.identity({d, e}), perm({d: e, e: d})}
        with pytest.raises(BoundExceeded, match="cap of 3"):
            join_sets(ab, de)  # four joins over disjoint domains

    def test_join_cap_counts_the_joins_made(self, monkeypatch):
        ab = {Permutation.identity({a, b}), perm({a: b, b: a})}
        de = {Permutation.identity({d, e}), perm({d: e, e: d})}
        group = join_sets(ab, de)
        # 16 pairs on one domain, but each member agrees only with itself
        monkeypatch.setattr(perm_module, "JOIN_CAP", 4)
        assert join_sets(group, group) == group


class TestClosureAndGenerators:
    def test_single_involution(self):
        assert cyc(group_closure([FG])) == {"()", "(f g)"}

    def test_two_commuting_involutions(self):
        grp = group_closure([ABDE.extend(A12 | A2U), FG.extend(A12 | A2U)])
        assert len(grp) == 4

    def test_empty_generators(self):
        assert len(group_closure([])) == 1

    def test_reduce_drops_duplicates(self):
        assert reduce_irredundant([FG, FG]) == [FG]

    def test_reduce_drops_generated_element(self):
        abc = perm({a: b, b: c, c: a}, {a, b, c})
        acb = perm({a: c, c: b, b: a}, {a, b, c})
        assert reduce_irredundant([abc, acb]) == [abc]

    def test_reduce_empty(self):
        assert reduce_irredundant([]) == []

    def test_reduce_product_beyond_cap(self, monkeypatch):
        # 12 disjoint swaps generate 4096 elements, but each swap is a block
        # of its own, so no closure exceeds 2 elements
        atoms = [Atom(1, f"p{i}") for i in range(24)]
        swaps = [perm({x: y, y: x}, atoms) for x, y in zip(atoms[::2], atoms[1::2])]
        monkeypatch.setattr(perm_module, "CLOSURE_CAP", 1000)
        assert reduce_irredundant(swaps) == sorted(swaps, key=perm_sort_key)

    def test_closure_cap_counts_the_atoms_members_move(self, monkeypatch):
        # three disjoint swaps generate 8 members that move 24 atoms in all
        atoms = [Atom(1, f"p{i}") for i in range(6)]
        swaps = [perm({x: y, y: x}, atoms) for x, y in zip(atoms[::2], atoms[1::2])]
        monkeypatch.setattr(perm_module, "CLOSURE_CAP", 32)
        assert len(group_closure(swaps)) == 8
        monkeypatch.setattr(perm_module, "CLOSURE_CAP", 31)
        with pytest.raises(BoundExceeded, match="cap of 31"):
            group_closure(swaps)


# ---------------------------------------------------------------------------
# properties

ATOMS = tuple(Atom(1, n) for n in "uvwxyz")


@st.composite
def perms(draw):
    imgs = draw(st.permutations(list(ATOMS)))
    return Permutation(dict(zip(ATOMS, imgs)), domain=frozenset(ATOMS))


@given(perms(), perms(), perms())
def test_compose_is_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms())
def test_inverse_cancels(p):
    assert compose(p, p.inverse()).is_identity()
    assert compose(p.inverse(), p).is_identity()


@given(perms())
def test_orbits_partition_domain(p):
    seen: set[Atom] = set()
    total = 0
    for x in ATOMS:
        o = orbit(p, x)
        if x == min(o):
            assert not (o & seen)
            seen |= o
            total += len(o)
    assert total == len(ATOMS)


@given(perms(), perms())
def test_join_is_commutative(p, q):
    assert join(p, q) == join(q, p)


@given(st.lists(perms(), max_size=3), st.lists(perms(), max_size=3))
def test_join_sets_is_commutative(ps, qs):
    assert join_sets(ps, qs) == join_sets(qs, ps)


@given(st.lists(perms(), max_size=3))
def test_closure_is_a_group(gens):
    with mock.patch.object(perm_module, "CLOSURE_CAP", 10**5):
        grp = group_closure(gens)
    assert any(p.is_identity() for p in grp)
    elems = list(grp)
    for p in elems[:5]:
        assert p.inverse() in grp
        for q in elems[:5]:
            assert compose(p, q) in grp


@given(st.lists(perms(), max_size=3))
def test_reduce_irredundant_properties(gens):
    # compare groups by their cycle structure: fixed points of the ambient
    # domain are group-theoretically irrelevant
    with mock.patch.object(perm_module, "CLOSURE_CAP", 10**5):
        reduced = reduce_irredundant(gens)
        grp = group_closure(gens)
        assert cyc(group_closure(reduced)) == cyc(grp)
        assert 2 ** len(reduced) <= len(grp)
        for i in range(len(reduced)):
            rest = reduced[:i] + reduced[i + 1 :]
            assert cyc(group_closure(rest)) != cyc(grp)


@given(perms())
def test_cycle_round_trip(p):
    text = emit_cycles(p)
    assert parse_cycles(text, frozenset(ATOMS)) == p


# ---------------------------------------------------------------------------
# reference implementations: breadth-first closure and the greedy reduction
# that restarts after every drop


def reference_group_closure(gens, cap=2**21):
    gens = list(gens)
    dom = frozenset()
    for g in gens:
        dom |= g.domain
    aligned = [g.extend(dom) for g in gens]
    ident = Permutation.identity(dom)
    group = {ident}
    stored = 1  # one per member plus one per atom it moves, as CLOSURE_CAP counts
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in aligned:
            q = compose(p, g)
            if q not in group:
                stored += 1 + len(q.support)
                if stored > cap:
                    raise BoundExceeded(f"group closure exceeds cap of {cap}")
                group.add(q)
                frontier.append(q)
    return frozenset(group)


def reference_reduce_irredundant(gens, cap=2**21):
    pool = [g for g in dict.fromkeys(gens) if not g.is_identity()]
    if not pool:
        return []
    target = reference_group_closure(pool, cap=cap)
    changed = True
    while changed and len(pool) > 1:
        changed = False
        for g in sorted(pool, key=perm_sort_key, reverse=True):
            rest = [h for h in pool if h != g]
            if reference_group_closure(rest, cap=cap) == target:
                pool = rest
                changed = True
                break
    return sorted(pool, key=perm_sort_key)


TWO_CONTEXTS = tuple(Atom(1, n) for n in "uvw") + tuple(Atom(2, n) for n in "xyz")


@st.composite
def sub_perm_lists(draw):
    """Permutations that each draw their own sub-domain of two contexts'
    atoms; a member may repeat the moves of an earlier one."""
    out = []
    for _ in range(draw(st.integers(0, 5))):
        if out and draw(st.booleans()):
            p = draw(st.sampled_from(out))
            moves = {x: p(x) for x in p.support}
        else:
            moved = draw(st.lists(st.sampled_from(TWO_CONTEXTS), unique=True, max_size=3))
            moves = dict(zip(moved, draw(st.permutations(moved))))
        extra = draw(st.lists(st.sampled_from(TWO_CONTEXTS), unique=True))
        out.append(Permutation(moves, domain=frozenset(moves) | frozenset(extra)))
    return out


@settings(max_examples=200)
@given(sub_perm_lists(), st.sampled_from([6, 24, 10**5]))
def test_group_closure_matches_reference(gens, cap):
    try:
        want = reference_group_closure(gens, cap=cap)
    except BoundExceeded:
        with mock.patch.object(perm_module, "CLOSURE_CAP", cap), pytest.raises(BoundExceeded):
            group_closure(gens)
        return
    with mock.patch.object(perm_module, "CLOSURE_CAP", cap):
        assert group_closure(gens) == want


@settings(max_examples=200)
@given(sub_perm_lists(), st.sampled_from([24, 10**5]))
def test_reduce_irredundant_matches_reference(gens, cap):
    try:
        want = reference_reduce_irredundant(gens, cap=cap)
    except BoundExceeded:
        return
    with mock.patch.object(perm_module, "CLOSURE_CAP", cap):
        assert reduce_irredundant(gens) == want


# ---------------------------------------------------------------------------
# the hash join against the nested loop over all pairs

THREE_CONTEXTS = (Atom(1, "u"), Atom(1, "v"), Atom(2, "x"), Atom(2, "y"), Atom(3, "p"), Atom(3, "q"))


@st.composite
def join_operands(draw):
    """A list of permutations on a few shared domains (possibly empty,
    overlapping or disjoint), some of them identities."""
    domains = draw(st.lists(st.frozensets(st.sampled_from(THREE_CONTEXTS)), min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(0, 5))):
        dom = draw(st.sampled_from(domains))
        moved = [] if not dom or draw(st.booleans()) else draw(st.lists(st.sampled_from(sorted(dom)), unique=True))
        out.append(Permutation(dict(zip(moved, draw(st.permutations(moved)))), domain=dom))
    return out


def nested_loop_join_sets(ps, qs):
    return frozenset(j for p in ps for q in qs if (j := join(p, q)) is not None)


@settings(max_examples=300)
@given(join_operands(), join_operands())
def test_join_sets_matches_nested_loop(ps, qs):
    joined = join_sets(ps, qs)
    assert joined == nested_loop_join_sets(ps, qs)
    for j in joined:  # built unchecked, so equal to and hashing like a checked one
        checked = Permutation(dict(j._map), domain=j.domain)
        assert j == checked and hash(j) == hash(checked)


def test_join_sets_mixed_domains():
    disjoint = perm({h: h}, {h})
    ps = [ABDE, Permutation.identity(A12), disjoint]
    qs = [FG, ABDEFG, Permutation.identity({a, d}), disjoint]
    joined = join_sets(ps, qs)
    assert joined == nested_loop_join_sets(ps, qs)
    assert join(ABDE, disjoint) in joined and join(disjoint, FG) in joined
    assert join_sets(ps, []) == join_sets([], qs) == frozenset()


# ---------------------------------------------------------------------------
# the kernel's invariant checks and its canonical cycle form


class TestPermutationChecks:
    def test_key_outside_domain(self):
        with pytest.raises(InternalError, match="maps atoms outside its domain"):
            Permutation({a: b, b: a}, domain={a})

    def test_image_outside_domain(self):
        with pytest.raises(InternalError, match="image leaves its domain"):
            Permutation({a: b}, domain={a})

    def test_not_injective(self):
        with pytest.raises(InternalError, match="not injective"):
            Permutation({a: b}, domain={a, b})
        with pytest.raises(InternalError, match="not injective"):
            Permutation({a: c, b: c, c: a})

    def test_moved_atoms(self):
        p = Permutation({a: b, b: a, c: c}, domain={a, b, c, d})
        assert p.support == {a, b} and not p.is_identity()
        assert p == Permutation({a: b, b: a}, domain={a, b, c, d})
        assert hash(p) == hash((frozenset({a, b, c, d}), frozenset({(a, b), (b, a)})))
        assert Permutation({c: c}, domain={c, d}).is_identity()


def reference_cycles(p):
    """The canonical cycles by a walk over the whole sorted domain."""
    seen: set[Atom] = set()
    out: list[tuple[Atom, ...]] = []
    for start in sorted(p.domain):
        if start in seen or p(start) == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = p(start)
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p(nxt)
        out.append(tuple(cyc))
    return out


def reference_emit_cycles(p):
    ids = {a.context_id for a in p.domain}
    qualify = len(ids) > 1
    parts = []
    for cyc in reference_cycles(p):
        names = [a.qualified() if qualify else a.name for a in cyc]
        parts.append("(" + " ".join(names) + ")")
    return "".join(parts)


@st.composite
def perms_over_contexts(draw):
    """A permutation of one to three contexts' atoms, possibly the identity."""
    k = draw(st.integers(1, 3))
    dom = sorted(x for x in THREE_CONTEXTS + (Atom(1, "w"), Atom(2, "z")) if x.context_id <= k)
    moved = [] if draw(st.integers(0, 4)) == 0 else draw(st.lists(st.sampled_from(dom), unique=True))
    return Permutation(dict(zip(moved, draw(st.permutations(moved)))), domain=dom)


@settings(max_examples=200)
@given(perms_over_contexts())
def test_cycles_match_sorted_domain_walk(p):
    assert p.cycles() == reference_cycles(p)
    assert emit_cycles(p) == reference_emit_cycles(p)


# ---------------------------------------------------------------------------
# atoms are plain (context_id, name) values


class TestAtomValue:
    def test_order_follows_context_then_name(self):
        atoms = [Atom(2, "a"), Atom(1, "b"), Atom(1, "a"), Atom(10, "a")]
        assert sorted(atoms) == [Atom(1, "a"), Atom(1, "b"), Atom(2, "a"), Atom(10, "a")]
        assert sorted(atoms) == sorted(atoms, key=lambda x: (x.context_id, x.name))

    def test_hash_and_equality_of_the_pair(self):
        assert hash(Atom(3, "x")) == hash((3, "x"))
        assert Atom(3, "x") == (3, "x")

    def test_repr_and_str(self):
        assert repr(Atom(1, "a")) == "Atom(context_id=1, name='a')"
        assert str(Atom(1, "a")) == "a" and Atom(1, "a").qualified() == "1.a"

    def test_fields_are_read_only(self):
        x = Atom(1, "a")
        with pytest.raises(AttributeError):
            x.name = "b"
        with pytest.raises(AttributeError):
            x.context_id = 2

    def test_apply_maps_an_atom_not_its_fields(self):
        assert apply(ABDE, a) == b
        assert apply(ABDE, (a, d)) == (b, e)
        assert apply(ABDE, ((a, h), frozenset({d}))) == ((b, h), frozenset({e}))
