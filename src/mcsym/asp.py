"""Propositional disjunctive logic programs under the stable semantics.

Rules have the shape ``h1 ; h2 :- b1, b2, not c1.`` with an optional head
(an empty head is an integrity constraint) and an optional body (a fact).
An answer set holds only atoms that occur in some rule head, and everything
else is false by default.  :func:`answer_set_masks` enumerates answer sets
over a program that :func:`compile_program` turned into int bit masks once,
with facts as a mask.  The compiled program also holds what the kernel reads
on every call: the OR of its heads, the OR of its negative bodies and whether
it is disjunctive.  A normal program guesses just the head atoms that also
occur in a negative body, completing each guess by a least model.  A
disjunctive program that is head-cycle-free is compiled as its shifted normal
program, which has the same answer sets (Ben-Eliyahu & Dechter 1994); one with
a head cycle guesses sets of head atoms and checks each by minimality.

A system holds tens of thousands of rule fields, most of them empty or of one
atom, so the builders share them: every empty field is :data:`EMPTY`, and the
one-atom sets come from a :class:`Singletons` table made per build call
(:func:`parse_program`, :func:`mcsym.mcs.parse_system`,
:func:`mcsym.bench.generate` and :func:`mcsym.sbc.extend_mcs` each make one),
so a table lives exactly as long as what it built.  Sets of two or more atoms
are built per rule.  Sharing shows only through object identity; equality,
hashing and emitted text are those of the sets' contents.  Rule objects are
slotted, without a ``__dict__``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BoundExceeded, InternalError, ParseError
from .perm import Atom, Permutation

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_RE = re.compile(r"\(\s*([0-9]+)\s*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)")


# the one empty field of every rule a builder makes
EMPTY: frozenset[Atom] = frozenset()


class Singletons(dict):
    """One build's table from an atom to its one-atom set, made when first read.

    Builders index it inline, ``EMPTY if not s else table[s.pop()] if len(s) == 1
    else frozenset(s)``, so a hit costs one dict lookup and no Python call.
    A builder that knows its atoms up front fills them in with :meth:`fill`,
    which makes no Python call per atom.
    """

    def fill(self, atoms: Collection[Atom]) -> "Singletons":
        """Put the one-atom set of each of ``atoms`` in the table; returns the table."""
        self.update(zip(atoms, map(frozenset, zip(atoms))))
        return self

    def __missing__(self, a: Atom) -> frozenset[Atom]:
        s = self[a] = frozenset((a,))
        return s


@dataclass(frozen=True, slots=True)
class Rule:
    """A disjunctive rule; ``head`` empty means an integrity constraint.

    Slotted, so a rule is three references and no ``__dict__``; rules from
    one builder call share their empty and one-atom fields (see the module
    docstring).
    """

    head: frozenset[Atom]
    body_pos: frozenset[Atom]
    body_neg: frozenset[Atom]

    def atoms(self) -> frozenset[Atom]:
        return self.head | self.body_pos | self.body_neg

    def is_constraint(self) -> bool:
        return not self.head

    def is_fact(self) -> bool:
        return bool(self.head) and not self.body_pos and not self.body_neg

    def _apply_perm(self, pi: Permutation) -> "Rule":
        return Rule(
            frozenset(pi(a) for a in self.head),
            frozenset(pi(a) for a in self.body_pos),
            frozenset(pi(a) for a in self.body_neg),
        )


def rule(head: Iterable[Atom] = (), pos: Iterable[Atom] = (), neg: Iterable[Atom] = ()) -> Rule:
    return Rule(frozenset(head), frozenset(pos), frozenset(neg))


def occurring_atoms(program: Iterable[Rule]) -> frozenset[Atom]:
    return frozenset().union(*(r.atoms() for r in program))


# ---------------------------------------------------------------------------
# parsing / emission


def _code_lines(text: str) -> list[tuple[str, int]]:
    """The lines of ``text`` cut at ``%`` comments, as ``(text, file line)``; blank ones are dropped."""
    lines = text.splitlines()
    if "%" in text:
        lines = [raw.split("%", 1)[0] for raw in lines]
    return [(code, n) for n, raw in enumerate(lines, start=1) if (code := raw.strip())]


def _split_statements(lines: Iterable[tuple[str, int]]) -> list[tuple[str, int]]:
    """Split comment-free ``(text, file line)`` pairs into statements at each ``.``.

    Returns ``(statement, line)`` pairs, with the file line each statement
    starts on; a statement may span lines (see :func:`_code_lines`).  A line
    that holds one whole statement, as emitted ones do, is taken as it is.
    """
    out: list[tuple[str, int]] = []
    buf: list[str] = []
    start_line = 0
    for line, lineno in lines:
        if not buf and line.find(".") == len(line) - 1:
            if stmt := line[:-1].strip():
                out.append((stmt, lineno))
            continue
        while "." in line:
            chunk, line = line.split(".", 1)
            if not buf:
                start_line = lineno
            buf.append(chunk)
            stmt = " ".join(buf).strip()
            if stmt:
                out.append((stmt, start_line))
            buf = []
        if line.strip():
            if not buf:
                start_line = lineno
            buf.append(line)
    if buf:
        raise ParseError("rule not terminated by '.'", line=start_line)
    return out


def _parse_atom_token(tok: str, names: Mapping[str, Atom], lineno: int) -> Atom:
    tok = tok.strip()
    if _NAME_RE.fullmatch(tok):
        key = tok
    elif ref := _REF_RE.fullmatch(tok):
        key = f"({int(ref[1])}:{ref[2]})"
    else:
        raise ParseError(f"invalid atom name {tok!r}", line=lineno)
    atom = names.get(key)
    if atom is None:
        raise ParseError(f"atom {tok!r} not in the alphabet", line=lineno)
    return atom


def parse_rule(stmt: str, names: Mapping[str, Atom], lineno: int, sets: Singletons) -> Rule:
    """Parse one statement, without its ``.``, into a rule.

    An atom is written as a plain name or as ``(c:name)``, which may carry
    spaces and leading zeros; ``names`` resolves a name by its text and a
    reference by its canonical text ``(c:name)``, and a token it does not
    resolve is an error.  So each key of ``names`` is an ASCII identifier or
    such a canonical text.  A token costs one lookup of its text as written;
    only a miss goes through the regexes and their error messages.  Errors
    name ``lineno``.  One-atom fields come from ``sets``, the caller's table.
    """
    head_txt, _, body_txt = stmt.partition(":-")
    if ":-" in body_txt:
        raise ParseError("rule has two ':-'", line=lineno)
    if atom := names.get(head_txt.strip()):  # one atom, the common head
        return Rule(sets[atom], *_parse_body(body_txt, names, lineno, sets))
    head: set[Atom] = set()
    for part in head_txt.split(";"):
        if part := part.strip():
            head.add(names.get(part) or _parse_atom_token(part, names, lineno))
    if not head and head_txt.strip():
        raise ParseError("malformed head", line=lineno)
    return Rule(EMPTY if not head else sets[head.pop()] if len(head) == 1 else frozenset(head),
                *_parse_body(body_txt, names, lineno, sets))


def _parse_body(
    body_txt: str, names: Mapping[str, Atom], lineno: int, sets: Singletons
) -> tuple[frozenset[Atom], frozenset[Atom]]:
    """The positive and negative fields of a rule body, read as :func:`parse_rule` reads it."""
    pos: set[Atom] = set()
    neg: set[Atom] = set()
    for part in body_txt.split(","):
        part = part.strip()
        if atom := names.get(part):
            pos.add(atom)
        elif part.startswith("not "):
            neg.add(names.get(part[4:].lstrip()) or _parse_atom_token(part[4:], names, lineno))
        elif part:
            pos.add(_parse_atom_token(part, names, lineno))
    return (
        EMPTY if not pos else sets[pos.pop()] if len(pos) == 1 else frozenset(pos),
        EMPTY if not neg else sets[neg.pop()] if len(neg) == 1 else frozenset(neg),
    )


def parse_program(text: str, alphabet: Iterable[Atom]) -> tuple[Rule, ...]:
    """Parse a logic program over a fixed alphabet of atoms, each named by its identifier."""
    names = {a.name: a for a in alphabet if _NAME_RE.fullmatch(a.name)}
    sets = Singletons()
    statements = _split_statements(_code_lines(text))
    return tuple(parse_rule(stmt, names, lineno, sets) for stmt, lineno in statements)


def emit_rule(r: Rule) -> str:
    if len(r.head) == 1:  # most heads: one atom, nothing to sort
        (a,) = r.head
        head = a.name
    else:
        head = " ; ".join([a.name for a in sorted(r.head)])
    if not r.body_pos and not r.body_neg:
        return head + "."
    body = ", ".join([a.name for a in sorted(r.body_pos)] + ["not " + a.name for a in sorted(r.body_neg)])
    return f"{head} :- {body}." if head else f":- {body}."


def emit_program(program: Iterable[Rule]) -> str:
    return "\n".join(emit_rule(r) for r in program)


# ---------------------------------------------------------------------------
# stable semantics


def reduct(program: Iterable[Rule], x: frozenset[Atom]) -> tuple[Rule, ...]:
    """The Gelfond-Lifschitz reduct of ``program`` with respect to ``x``."""
    out = []
    for r in program:
        if r.body_neg & x:
            continue
        out.append(Rule(r.head, r.body_pos, EMPTY))
    return tuple(out)


def _is_model(program: Sequence[Rule], x: frozenset[Atom]) -> bool:
    for r in program:
        if r.body_pos <= x and x.isdisjoint(r.body_neg) and not (r.head & x):
            return False
    return True


def _least_model(definite: Sequence[Rule], constraints: Sequence[Rule]) -> frozenset[Atom] | None:
    lm: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for r in definite:
            (h,) = r.head
            if h not in lm and r.body_pos <= lm:
                lm.add(h)
                changed = True
    fz = frozenset(lm)
    for c in constraints:
        if c.body_pos <= fz:
            return None
    return fz


def is_answer_set(program: Sequence[Rule], x: frozenset[Atom]) -> bool:
    """Whether ``x`` is an answer set of ``program``.

    For a non-disjunctive reduct this is the usual least-model comparison; a
    genuinely disjunctive reduct falls back to a subset-minimality scan.
    """
    red = reduct(program, x)
    constraints = [r for r in red if r.is_constraint()]
    proper = [r for r in red if not r.is_constraint()]
    if all(len(r.head) == 1 for r in proper):
        return _least_model(proper, constraints) == x
    if not _is_model(red, x):
        return False
    atoms = sorted(x)
    for k in range(len(atoms)):
        for sub in combinations(atoms, k):
            if _is_model(red, frozenset(sub)):
                return False
    return True


def answer_sets(program: Sequence[Rule], bound: int = 20) -> frozenset[frozenset[Atom]]:
    """All answer sets of ``program``, by :func:`answer_set_masks` over its occurring atoms.

    Raises :class:`BoundExceeded` when more than ``bound`` atoms occur.
    """
    occ = occurring_atoms(program)
    if len(occ) > bound:
        raise BoundExceeded(f"program has {len(occ)} occurring atoms (bound {bound})")
    atoms = sorted(occ)
    compiled = compile_program(program, {a: 1 << b for b, a in enumerate(atoms)})
    return frozenset(atoms_of_mask(x, atoms) for x in answer_set_masks(compiled))


class Compiled(NamedTuple):
    """A program as ``(head, pos, neg)`` masks per rule, with the masks the kernel reads.

    ``heads`` is the OR of the rules' heads and ``negs`` of their negative
    bodies; ``disjunctive`` says that a rule has two head atoms or more.
    """

    rules: tuple[tuple[int, int, int], ...]
    heads: int
    negs: int
    disjunctive: bool


def compile_program(program: Iterable[Rule], bit: Mapping[Atom, int]) -> Compiled:
    """``program`` as masks, with ``bit[a]`` the one-bit mask of atom ``a``, in one pass.

    A disjunctive program that is head-cycle-free, where no two atoms of one
    head lie on a common cycle of the positive dependency graph, has the
    answer sets of its shifted program, in which ``h1 ; ... ; hk :- B``
    becomes ``hi :- B, not hj`` for each i and every j != i (Ben-Eliyahu &
    Dechter 1994), so such a program is compiled shifted, as a normal one.
    Facts add no edge to that graph, so the shift holds for every set of
    facts :func:`answer_set_masks` adds.  A program with a head cycle is
    compiled as it is.
    """
    get = bit.__getitem__
    rules = []
    heads = negs = 0
    multi = []  # the heads of two atoms or more
    for r in program:
        h = sum(map(get, r.head))
        n = sum(map(get, r.body_neg)) if r.body_neg else 0
        rules.append((h, sum(map(get, r.body_pos)) if r.body_pos else 0, n))
        heads |= h
        negs |= n
        if h & (h - 1):
            multi.append(h)
    if not multi or not _head_cycle_free(rules, multi):
        return Compiled(tuple(rules), heads, negs, bool(multi))
    shifted = []
    for h, p, n in rules:
        if h & (h - 1):
            negs |= h
            shifted += [(x, p, n | h & ~x) for x in _bits(h)]
        else:
            shifted.append((h, p, n))
    return Compiled(tuple(shifted), heads, negs, False)


def _bits(x: int) -> Iterator[int]:
    """The one-bit masks of the bits set in ``x``, lowest first."""
    while x:
        low = x & -x
        yield low
        x ^= low


def _head_cycle_free(rules: Sequence[tuple[int, int, int]], multi: Sequence[int]) -> bool:
    """Whether no two atoms of one head of ``multi`` lie on a common positive cycle.

    The positive dependency graph has an edge from each positive body atom of
    a rule to each of its head atoms; ``reach`` closes the edges
    transitively, one pass per atom that has edges out (Warshall 1962).
    """
    reach: dict[int, int] = {}
    for h, p, _ in rules:
        for x in _bits(p):
            reach[x] = reach.get(x, 0) | h
    for k in reach:
        for x, got in reach.items():
            if got & k:
                reach[x] = got | reach[k]
    return not any(
        reach.get(y, 0) & x for h in multi for x in _bits(h) for y in _bits(reach.get(x, 0) & h & ~x)
    )


def atoms_of_mask(x: int, atoms: Sequence[Atom]) -> frozenset[Atom]:
    """The atoms of the bits set in ``x``, with ``atoms[b]`` as bit ``b``."""
    return frozenset(a for b, a in enumerate(atoms) if x >> b & 1)


def answer_set_masks(program: Compiled, facts: int = 0) -> list[int]:
    """The answer sets of a compiled ``program`` plus the atoms of ``facts`` as facts.

    It reads the program's head and negative-body masks and its disjunctive
    flag as :func:`compile_program` stored them.  For a normal program (at
    most one head atom per rule, as a head-cycle-free program is after its
    shift) the reduct depends only on which head atoms that also occur in a
    negative body are true, so each guess of those (facts among them always
    true) is completed to the least model of the reduct it selects, kept when
    it agrees with the guess and violates no constraint (Gelfond & Lifschitz
    1988).  A disjunctive program, which has a head cycle, guesses every set
    of head atoms that holds the facts, and keeps a model of its reduct with
    no smaller model that holds them.
    """
    rules, heads, negs, disjunctive = program
    heads |= facts
    guessed = heads if disjunctive else heads & negs
    out = []
    for guess in _submasks(guessed & ~facts):
        guess |= guessed & facts
        kept = [(h, p) for h, p, n in rules if not n & guess]
        if disjunctive:
            if _models(kept, guess) and not any(
                _models(kept, y | facts) for y in _submasks(guess & ~facts) if y | facts != guess
            ):
                out.append(guess)
            continue
        lm, grown = facts, True
        while grown:
            grown = False
            for h, p in kept:
                if h & ~lm and p & lm == p:
                    lm, grown = lm | h, True
        if lm & guessed == guess and not any(not h and p & lm == p for h, p in kept):
            out.append(lm)
    return out


def _models(program: list[tuple[int, int]], x: int) -> bool:
    return all(h & x or p & x != p for h, p in program)


def _submasks(x: int) -> Iterator[int]:
    """Every mask whose bits are among those of ``x``, from ``x`` down to 0."""
    y = x
    while y:
        yield y
        y = (y - 1) & x
    yield 0


# ---------------------------------------------------------------------------
# stratified auxiliary extension


def extend_stratified(
    x: frozenset[Atom], aux_program: Sequence[Rule]
) -> tuple[frozenset[Atom], tuple[Rule, ...]]:
    """Extend ``x`` by the atoms an acyclic auxiliary program derives from it.

    Auxiliary atoms are the rule heads; they are evaluated once each, in
    dependency order (an atom may depend on other auxiliary atoms only
    acyclically, else this raises).  Returns the extended set together with
    the violated integrity constraints of the auxiliary program.
    """
    return evaluate_stratified(x, stratify(aux_program))


Strata = tuple[tuple[tuple[Atom, frozenset[Atom], frozenset[Atom]], ...], tuple[Rule, ...]]


def stratify(aux_program: Sequence[Rule]) -> Strata:
    """The evaluation order of an acyclic auxiliary program.

    Returns its proper rules as ``(head, body_pos, body_neg)``, ordered so
    that every head comes after the heads it depends on, and its integrity
    constraints in program order.  The depth-first walk keeps its own stack,
    so a long dependency chain does not exhaust Python's.  Raises
    :class:`InternalError` on a disjunctive rule or a cyclic dependency.
    """
    by_head: dict[Atom, list[Rule]] = {}
    for r in aux_program:
        if len(r.head) > 1:
            raise InternalError("auxiliary rules must have at most one head atom")
        for h in r.head:
            by_head.setdefault(h, []).append(r)

    order: list[tuple[Atom, frozenset[Atom], frozenset[Atom]]] = []
    opened: set[Atom] = set()
    done: set[Atom] = set()
    # per open head, the heads it has still to visit, below a virtual head
    # (None) that depends on every head
    path = [(None, iter(sorted(by_head)))]
    while path:
        a, todo = path[-1]
        for b in todo:
            if b in done:
                continue
            if b in opened:
                raise InternalError(f"auxiliary rules are cyclic at {b.name}")
            opened.add(b)
            deps = {c for r in by_head[b] for c in (*r.body_pos, *r.body_neg) if c in by_head}
            path.append((b, iter(sorted(deps))))
            break
        else:
            path.pop()
            done.add(a)
            order += [(a, r.body_pos, r.body_neg) for r in by_head.get(a, ())]
    return tuple(order), tuple(r for r in aux_program if r.is_constraint())


def evaluate_stratified(x: frozenset[Atom], strata: Strata) -> tuple[frozenset[Atom], tuple[Rule, ...]]:
    """:func:`extend_stratified` over a program already put in order by :func:`stratify`."""
    rules, constraints = strata
    true = set(x)
    for h, pos, neg in rules:
        if h not in true and pos <= true and true.isdisjoint(neg):
            true.add(h)
    fz = frozenset(true)
    return fz, tuple(r for r in constraints if r.body_pos <= fz and fz.isdisjoint(r.body_neg))
