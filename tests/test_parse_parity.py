"""What ``parse_system`` reads from the spellings the canonical emitter never writes.

Each input must give the same system, or the same ``ParseError`` text and
line, whatever shortcut the parser takes for the common statement.  The
expected systems are built by hand, without the parser.
"""

from __future__ import annotations

import pytest

from mcsym import emit_system, parse_system
from mcsym.asp import EMPTY, Rule
from mcsym.errors import ParseError
from mcsym.mcs import BridgeRule, Context, System
from mcsym.perm import Atom

A, B, C = Atom(1, "a"), Atom(1, "b"), Atom(1, "c")
D, E = Atom(2, "d"), Atom(2, "e")

HEAD = "mcs 2\ncontext 1\n  atoms a b c\n  kb\n"
TAIL = "context 2\n  atoms d e\n  kb\n  br\n"


def system(kb=(), br=()) -> System:
    """Context 1 over a, b, c with the given rules, beside context 2 over d, e."""
    return System((Context(1, (A, B, C), tuple(kb), tuple(br)), Context(2, (D, E), (), ())))


def r(head=(), pos=(), neg=()) -> Rule:
    return Rule(frozenset(head), frozenset(pos), frozenset(neg))


def bridge(head, pos=(), neg=()) -> BridgeRule:
    return BridgeRule(head, frozenset(pos), frozenset(neg))


@pytest.mark.parametrize(
    "text, want",
    [
        pytest.param(HEAD + "  br\n    a :- ( 2 : d ), not (2:e).\n" + TAIL,
                     system(br=[bridge(A, [D], [E])]), id="reference-with-inner-spaces"),
        pytest.param(HEAD + "  br\n    a :- (2: d ), not  ( 2:e ).\n" + TAIL,
                     system(br=[bridge(A, [D], [E])]), id="reference-with-spaces-at-the-name"),
        pytest.param(HEAD + "  br\n    a :- (02:d).\n" + TAIL,
                     system(br=[bridge(A, [D])]), id="reference-with-leading-zero"),
        pytest.param(HEAD + "    a :- not   b.\n  br\n    b :- not     (2:d).\n" + TAIL,
                     system([r([A], neg=[B])], [bridge(B, neg=[D])]), id="not-and-several-spaces"),
        pytest.param(HEAD + "    a :- b. b :- not c.\n  br\n    a :- (2:d). c :- (2:e).\n" + TAIL,
                     system([r([A], [B]), r([B], neg=[C])], [bridge(A, [D]), bridge(C, [E])]),
                     id="two-statements-on-a-line"),
        pytest.param(HEAD + "    a :- b,\n      not c.\n  br\n    a :-\n    (2:d).\n" + TAIL,
                     system([r([A], [B], [C])], [bridge(A, [D])]), id="statement-over-lines"),
        pytest.param(HEAD + "    a :- b. % a comment. with a dot\n  br\n    a :- (2:d).   % c\n" + TAIL,
                     system([r([A], [B])], [bridge(A, [D])]), id="comment-after-statement"),
        pytest.param(HEAD + "    a :- b, b.\n  br\n    a :- (2:d), (2:d).\n" + TAIL,
                     system([r([A], [B])], [bridge(A, [D])]), id="repeated-body-atom"),
        pytest.param(HEAD + "    a ; ; b.\n  br\n" + TAIL,
                     system([r([A, B])]), id="empty-head-disjunct"),
        pytest.param(HEAD + "    a\t:-\tb ,  not  c .\n  br\n" + TAIL,
                     system([r([A], [B], [C])]), id="tabs-and-space-before-the-dot"),
        pytest.param(HEAD + "    a :- b,, c.\n  br\n" + TAIL,
                     system([r([A], [B, C])]), id="empty-body-literal"),
        pytest.param(HEAD + "    a.. b.\n  br\n" + TAIL,
                     system([r([A]), r([B])]), id="empty-statement"),
        pytest.param(HEAD + "    :- a, not b.\n  br\n" + TAIL,
                     system([r(pos=[A], neg=[B])]), id="constraint"),
        pytest.param(HEAD + "  br\n    a :- .\n" + TAIL,
                     system(br=[bridge(A)]), id="bridge-with-an-empty-body"),
    ],
)
def test_spellings_parse_to_the_system(text, want):
    assert parse_system(text) == want


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("mcs 2\ncontext 1\n  atoms a b-c\n  kb\n    a :- b-c.\n  br\n" + TAIL,
                     "line 3: invalid atom name 'b-c'", id="declared-non-identifier-in-kb"),
        pytest.param("mcs 1\ncontext 1\n  atoms a 1x\n  kb\n    1x.\n  br\n",
                     "line 3: invalid atom name '1x'", id="declared-non-identifier-as-head"),
        pytest.param("mcs 1\ncontext 1\n  atoms a é\n  kb\n    a :- é.\n  br\n",
                     "line 3: invalid atom name 'é'", id="declared-non-ascii-name"),
        pytest.param("mcs 2\ncontext 1\n  atoms a\n  kb\n  br\n    a :- (2:d-e).\n"
                     "context 2\n  atoms d-e\n  kb\n  br\n",
                     "line 8: invalid atom name 'd-e'", id="declared-non-identifier-in-bridge"),
        pytest.param("mcs 2\ncontext 1\n  atoms a-b\n  kb\n  br\n    a-b :- (2:d).\n" + TAIL,
                     "line 3: invalid atom name 'a-b'", id="declared-non-identifier-bridge-head"),
        pytest.param("mcs 1\ncontext 1\n  atoms a\n  aux x (1:a)\n  kb\n  br\n",
                     "line 4: invalid atom name '(1:a)'", id="declared-non-identifier-aux"),
        pytest.param("mcs 1\ncontext 1\n  atoms a context\n  kb\n  br\n",
                     "line 3: invalid atom name 'context'", id="atom-named-context"),
        pytest.param("mcs 1\ncontext 1\n  atoms a\n  aux context\n  kb\n  br\n",
                     "line 4: invalid atom name 'context'", id="aux-atom-named-context"),
        pytest.param("mcs 1\ncontext 1\n  atomsa b\n  kb\n  br\n",
                     "line 3: expected 'atoms ...' after context header", id="atoms-keyword-run-on"),
        pytest.param("mcs 1\ncontext 1\n  atoms a\n  auxiliary x\n  kb\n  br\n",
                     "line 4: expected 'kb' section", id="aux-keyword-run-on"),
        pytest.param(HEAD + "    a.\n  br\n  context\n" + TAIL,
                     "line 7: expected 'context <id>', got 'context'", id="context-without-an-id"),
        pytest.param(HEAD + "  br\n    a :- d.\n" + TAIL,
                     "line 6: atom 'd' not in the alphabet", id="bare-foreign-name-in-bridge"),
        pytest.param(HEAD + "  br\n    a :- b.\n" + TAIL,
                     "line 6: atom 'b' not in the alphabet", id="bare-own-name-in-bridge"),
        pytest.param(HEAD + "    a :- (1:b).\n  br\n" + TAIL,
                     "line 5: atom '(1:b)' not in the alphabet", id="reference-in-kb"),
        pytest.param(HEAD + "  br\n    a :- (3:d).\n" + TAIL,
                     "line 6: atom '(3:d)' not in the alphabet", id="reference-to-no-context"),
        pytest.param(HEAD + "    a :- notb.\n  br\n" + TAIL,
                     "line 5: atom 'notb' not in the alphabet", id="not-without-space"),
        pytest.param(HEAD + "    a :- not\tb.\n  br\n" + TAIL,
                     "line 5: invalid atom name 'not\\tb'", id="not-and-a-tab"),
        pytest.param(HEAD + "    a :- not not b.\n  br\n" + TAIL,
                     "line 5: invalid atom name 'not b'", id="not-twice"),
        pytest.param(HEAD + "  br\n    a :- not(2:d).\n" + TAIL,
                     "line 6: invalid atom name 'not(2:d)'", id="not-against-a-reference"),
        pytest.param(HEAD + "    a :- b :- c.\n  br\n" + TAIL,
                     "line 5: rule has two ':-'", id="two-arrows"),
        pytest.param(HEAD + "    zz :- b :- c.\n  br\n" + TAIL,
                     "line 5: rule has two ':-'", id="two-arrows-before-the-head"),
        pytest.param(HEAD + "  br\n    a :- (2:d), zz :- (2:e).\n" + TAIL,
                     "line 6: rule has two ':-'", id="bridge-with-two-arrows"),
        pytest.param(HEAD + "  br\n    z :- (2:d) :- (2:e).\n" + TAIL,
                     "line 6: bridge head 'z' not in the alphabet", id="bridge-head-before-two-arrows"),
        pytest.param(HEAD + "    ; .\n  br\n" + TAIL, "line 5: malformed head", id="head-of-separators"),
        pytest.param(HEAD + "  br\n    a.\n" + TAIL, "line 6: bridge rule needs a body", id="bridge-fact"),
        pytest.param(HEAD + "  br\n    z :- (2:d).\n" + TAIL,
                     "line 6: bridge head 'z' not in the alphabet", id="bridge-head-undeclared"),
        pytest.param(HEAD + "    a :- b\n  br\n" + TAIL,
                     "line 5: rule not terminated by '.'", id="unterminated"),
        pytest.param(HEAD + "  br\n    br\n    a :- (2:d).\n" + TAIL,
                     "line 6: bridge head 'br a' not in the alphabet", id="second-br-line"),
        pytest.param("mcs \uff12\ncontext 1\n  atoms a\n  kb\n  br\ncontext 2\n  atoms d\n  kb\n  br\n",
                     "line 1: expected 'mcs <n>' header", id="fullwidth-digit-in-the-mcs-header"),
        pytest.param("mcs 1\ncontext \u0661\n  atoms a\n  kb\n  br\n",
                     "line 2: expected 'context <id>', got 'context \u0661'", id="arabic-indic-context-id"),
        pytest.param(HEAD + "  br\n    a :- (\uff12:d).\n" + TAIL,
                     "line 6: invalid atom name '(\uff12:d)'", id="fullwidth-digit-in-a-reference"),
        pytest.param("mcs\u30001\ncontext 1\n  atoms a\n  kb\n  br\n",
                     "line 1: expected 'mcs <n>' header", id="ideographic-space-in-the-mcs-header"),
        pytest.param("mcs 1\ncontext\u30001\n  atoms a\n  kb\n  br\n",
                     "line 2: expected 'context <id>', got 'context\\u30001'", id="ideographic-space-in-a-context-header"),
        pytest.param("mcs 1\ncontext 1\n  atoms\u3000a\u3000b\n  kb\n  br\n",
                     "line 3: expected 'atoms ...' after context header", id="ideographic-spaces-in-an-atoms-line"),
        pytest.param("mcs 1\ncontext 1\n  atoms a\n  aux\u3000b\n  kb\n  br\n",
                     "line 4: expected 'kb' section", id="ideographic-space-in-an-aux-line"),
        pytest.param(HEAD + "  br\n" + TAIL.replace("context 2", "context　2"),
                     "line 6: expected 'context <id>', got 'context\\u30002'",
                     id="ideographic-space-in-a-context-header-after-a-br-section"),
    ],
)
def test_spellings_raise_the_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert str(err.value) == message
    assert err.value.line == int(message.split()[1].rstrip(":"))


def test_a_repeated_body_atom_reads_the_shared_field():
    m = parse_system(HEAD + "    a :- b, b.\n    b.\n  br\n    a :- (2:d), not (2:d), (2:d).\n"
                     "    b :- (2:d).\n" + TAIL)
    (r1, r2), (b1, b2) = m.context(1).kb, m.context(1).br
    assert r1.body_pos == {B} and r1.body_pos is r2.head
    assert r1.body_neg is EMPTY and r2.body_pos is EMPTY
    assert b1.body_pos == {D} and b1.body_pos is b1.body_neg is b2.body_pos


def test_references_keep_contexts_apart_when_names_repeat():
    m = parse_system(
        "mcs 3\ncontext 1\n  atoms a b\n  kb\n    a :- not b.\n  br\n    b :- (2:a), not (3:a).\n"
        "context 2\n  atoms a\n  kb\n  br\n    a :- (3:a).\ncontext 3\n  atoms a b\n  kb\n    a :- b.\n  br\n"
    )
    a1, b1, a2, a3, b3 = Atom(1, "a"), Atom(1, "b"), Atom(2, "a"), Atom(3, "a"), Atom(3, "b")
    assert m.context(1).kb == (r([a1], neg=[b1]),)
    assert m.context(1).br == (bridge(b1, [a2], [a3]),)
    assert m.context(2).br == (bridge(a2, [a3]),)
    assert m.context(3).kb == (r([a3], [b3]),)


def test_a_rule_whose_first_word_starts_with_context_stays_in_its_section():
    m = parse_system(
        "mcs 2\ncontext 1\n  atoms a context_a contexts\n  kb\n    context_a :- a.\n  br\n"
        "    context_a :- (2:d).\n    contexts :- (2:e).\ncontext\t2\n  atoms d e\n  kb\n  br\n"
    )
    ca, cs = Atom(1, "context_a"), Atom(1, "contexts")
    assert m.context(1).kb == (r([ca], [A]),)
    assert m.context(1).br == (bridge(ca, [D]), bridge(cs, [E]))
    assert m.context(2).alphabet == (D, E)


def test_an_empty_atoms_line_declares_no_atoms():
    m = parse_system("mcs 1\ncontext 1\n  atoms\n  kb\n  br\n")
    assert m == System((Context(1, (), (), ()),))


def test_keyword_like_names_round_trip():
    names = ("context_a", "atomsx", "aux1", "kb", "br", "not")
    one = {nm: Atom(1, nm) for nm in names}
    two = {nm: Atom(2, nm) for nm in names}
    kb = (
        r([one["kb"]], [one["br"]], [one["not"]]),
        r([one["context_a"], one["atomsx"]]),
        r([one["not"]], neg=[one["kb"]]),
        r(pos=[one["br"]], neg=[one["aux1"]]),
    )
    br = (
        bridge(one["context_a"], [two["context_a"]], [two["not"]]),
        bridge(one["br"], [two["br"], two["kb"]]),
        bridge(one["aux1"], neg=[two["aux1"]]),
    )
    m = System((
        Context(1, tuple(one[nm] for nm in names if nm != "aux1"), kb, br, (one["aux1"],)),
        Context(2, tuple(two.values()), (r([two["kb"]], neg=[two["br"]]),), (bridge(two["not"], [one["atomsx"]]),)),
    ))
    assert parse_system(emit_system(m)) == m
