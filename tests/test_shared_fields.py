"""Rule fields shared within a built system, slotted rule objects and the cached sort key."""

from __future__ import annotations

import pytest

from mcsym import (
    Rule,
    TopologySpec,
    emit_cycles,
    emit_system,
    evaluate_distributed,
    extend_mcs,
    generate,
    parse_system,
    rule,
)
from mcsym.asp import EMPTY
from mcsym.bench import select_breakers
from mcsym.mcs import BeliefState, BridgeRule
from mcsym.perm import Permutation, perm_sort_key

SPEC = TopologySpec("house", 5, 3, pair_probability=1.0)


def rule_fields(kb, br):
    """Every set-valued field of the given kb and bridge rules."""
    for r in kb:
        yield from (r.head, r.body_pos, r.body_neg)
    for b in br:
        yield from (b.body_pos, b.body_neg)


def system_fields(m):
    for c in m.contexts:
        yield from rule_fields(c.kb, c.br)


def added_fields(m, base):
    """The fields of the rules a rewrite of ``base`` added to it."""
    for c, c0 in zip(m.contexts, base.contexts):
        yield from rule_fields(c.kb[len(c0.kb):], c.br[len(c0.br):])


@pytest.fixture(scope="module")
def generated():
    return generate(SPEC)


@pytest.fixture(scope="module")
def parsed(generated):
    return parse_system(emit_system(generated))


@pytest.fixture(scope="module")
def rewrite(parsed):
    breakers, _ = select_breakers(parsed, 1, "full")
    assert breakers
    return extend_mcs(parsed, breakers)


@pytest.fixture(params=["generated", "parsed", "added"])
def fields(request, generated, parsed, rewrite):
    if request.param == "added":
        return list(added_fields(rewrite, parsed))
    return list(system_fields({"generated": generated, "parsed": parsed}[request.param]))


def test_every_empty_field_is_one_object(fields):
    empties = [f for f in fields if not f]
    assert empties
    assert all(f is EMPTY for f in empties)


def test_one_atom_fields_share_one_object_per_atom(fields):
    by_atom: dict = {}
    for f in fields:
        if len(f) == 1:
            (a,) = f
            by_atom.setdefault(a, set()).add(id(f))
    assert by_atom
    assert any(len(ids) == 1 for ids in by_atom.values())
    assert {a: len(ids) for a, ids in by_atom.items() if len(ids) != 1} == {}


def test_a_rewrite_shares_its_fields_across_constraints(parsed, rewrite):
    # the chain rules of different constraints read the same original atoms
    singles = [f for f in added_fields(rewrite, parsed) if len(f) == 1]
    assert len({id(f) for f in singles}) < len(singles)


def test_rule_objects_are_slotted(parsed, rewrite):
    states = evaluate_distributed(rewrite, 1)
    assert states
    objects = [next(iter(states))]
    for c in rewrite.contexts:
        objects += c.kb + c.br
    assert {type(x) for x in objects} == {Rule, BridgeRule, BeliefState}
    assert not any(hasattr(x, "__dict__") for x in objects)


def test_a_hand_built_rule_equals_its_shared_twin(parsed):
    shared = [r for c in parsed.contexts for r in c.kb]
    assert any(not r.body_pos for r in shared)
    for r in shared:
        twin = Rule(frozenset(r.head), frozenset(r.body_pos), frozenset(r.body_neg))
        assert twin == r and hash(twin) == hash(r)
        assert rule(r.head, r.body_pos, r.body_neg) == r
    for b in (b for c in parsed.contexts for b in c.br):
        twin = BridgeRule(b.head, frozenset(b.body_pos), frozenset(b.body_neg))
        assert twin == b and hash(twin) == hash(b)


def test_cached_sort_key_is_the_rendered_key(parsed):
    breakers, _ = select_breakers(parsed, 1, "full")
    for p in breakers:
        assert perm_sort_key(p) == (len(p.support), emit_cycles(p))
        assert perm_sort_key(p) is perm_sort_key(p)
    # equality and hashing ignore the cached key
    p = breakers[0]
    q = Permutation({a: p(a) for a in p.support}, domain=p.domain)
    assert q == p and hash(q) == hash(p)
    assert perm_sort_key(q) == perm_sort_key(p)
