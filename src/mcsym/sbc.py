"""Distributed symmetry-breaking constraints.

A permutation constraint for ``pi`` keeps exactly the belief states that are
lexicographically minimal in the direction of ``pi``: under the global atom
order ``a_1 < a_2 < ...`` (truth values ordered ``false < true``, most
significant first) a state ``S`` survives iff for every position ``i`` whose
prefix satisfies ``v(a_j) = v(pi(a_j))`` for all ``j < i`` it holds that
``v(a_i) <= v(pi(a_i))``.

The encoding chains over the *reduced support sequence*: the support atoms of
``pi`` in order, minus the order-larger element of every 2-cycle (its
constraint is implied by its partner's position, so dropping it is exact).
Position 1 contributes two integrity constraints; every later position ``i``
contributes four rules defining a chain atom ``c_i`` that signals "the prefix
before ``i-1`` was tied and the comparison at ``i-1`` did not already decide".
One ownership rule places everything: ``c_i`` (``i`` from 2 to ``q+1``, for a
sequence of ``q`` atoms) and the rules of position ``i`` live in the context
that owns atom ``i-1`` of the sequence, and position 1 in the owner of atom 1.
Atoms and chain links owned elsewhere are imported through bridge rules into
primed copies.  A context keeps one copy per source atom, with one bridge
rule: it is named after the source alone unless a same-named source of
another context already holds that name there, when it is qualified with its
source's context id (only an order that interleaves contexts has one context
read two others).

A rewrite with several constraints builds each added atom once.  ``c_i``
is a function of positions ``i-1`` and ``i`` and of ``c_{i+1}`` alone, the
final chain atom is never derived, and a primed copy equals its source.  So
constraints whose sequences end alike define the same chain atoms, and
constraints read the same copies in one context.  The rewrite keeps one
table of its added atoms, keyed by what defines them; each constraint's
chain is looked up from its end back, and the constraint adds only the
prefix not found there.  A shared atom keeps the name the first
constraint to add it gave it.  Constraints that start with the same (atom,
image) pair state their position-1 constraint once.

All added atoms are auxiliary: the rewritten system's acceptability splits
them off, and projecting them away is a bijection onto the surviving
original states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, NamedTuple

from .asp import EMPTY, Rule, Singletons
from .errors import InternalError
from .mcs import BeliefState, BridgeRule, Context, System
from .perm import Atom, Permutation, orbit_of_states, perm_sort_key, reduce_irredundant


@dataclass(frozen=True)
class AtomOrder:
    """A total order on the original atoms of a system."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if len(set(self.atoms)) != len(self.atoms):
            raise InternalError("atom order contains duplicates")
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.atoms)})

    def index(self, a: Atom) -> int:
        try:
            return self._index[a]  # type: ignore[attr-defined]
        except KeyError:
            raise InternalError(f"atom {a.qualified()} is not ordered") from None

    def __len__(self) -> int:
        return len(self.atoms)


def default_order(m: System) -> AtomOrder:
    """Contexts by ascending id, atoms in declaration order; originals only."""
    atoms: list[Atom] = []
    for c in m.contexts:
        atoms.extend(c.alphabet)
    return AtomOrder(tuple(atoms))


def vec(state: BeliefState, order: AtomOrder) -> tuple[int, ...]:
    """The state's truth vector along the order (undefined components read 0)."""
    out = []
    for a in order.atoms:
        s = state.get(a.context_id)
        out.append(1 if s is not None and a in s else 0)
    return tuple(out)


def pc_satisfied(state: BeliefState, pi: Permutation, order: AtomOrder) -> bool:
    """Direct evaluation of the permutation constraint (the reference form)."""
    values = vec(state, order)
    imaged = []
    for a in order.atoms:
        b = pi(a)
        s = state.get(b.context_id)
        imaged.append(1 if s is not None and b in s else 0)
    for i in range(len(values)):
        if all(values[j] == imaged[j] for j in range(i)) and values[i] > imaged[i]:
            return False
    return True


# ---------------------------------------------------------------------------
# constraint structure


class PcPosition(NamedTuple):
    atom: Atom
    image: Atom


def build_pc(pi: Permutation, order: AtomOrder) -> tuple[PcPosition, ...]:
    """The positions of ``pi``'s constraint: its reduced support sequence, each atom with its image."""
    index, image = order._index, pi._map  # type: ignore[attr-defined]
    positions: list[PcPosition] = []
    for a in sorted(image, key=order.index):  # raises for an atom the order lacks
        b = image[a]
        if b.context_id != a.context_id:
            raise InternalError(
                f"permutation moves {a.qualified()} across contexts; "
                "cannot encode its constraint"
            )
        if image[b] != a or index[a] < index[b]:  # else the order-larger atom of a 2-cycle
            positions.append(PcPosition(a, b))
    return tuple(positions)


# ---------------------------------------------------------------------------
# ASP encoding


@dataclass
class ContextAdditions:
    aux: list[Atom] = field(default_factory=list)
    kb: list[Rule] = field(default_factory=list)
    br: list[BridgeRule] = field(default_factory=list)


def encode_asp(
    pi: Permutation, order: AtomOrder, tag: str, sets: Singletons, table: dict
) -> dict[int, ContextAdditions]:
    """The distributed ASP encoding of ``pi``'s permutation constraint, by owning context.

    Auxiliary atoms are namespaced by ``tag``: chain atoms ``sbc_<tag>_c<i>``,
    primed imports ``sbc_<tag>_p_<atom>`` and ``sbc_<tag>_pc<i>`` for an
    imported chain link.  A context copies each source atom it reads once; a
    second source of the same name, from another context, gets the copy
    ``sbc_<tag>_p<context id>_<atom>``.  One-atom rule fields come from
    ``sets``, the caller's table.

    ``table`` holds what the constraints already encoded into the same
    rewrite added (empty for the first), keyed by what defines it: a chain
    atom by the (atom, image) pairs of its two positions and its next link,
    the never-derived terminator by its context id, a primed copy by (context
    id, source), and a position-1 constraint by itself.  What is found there
    is not made or stated again, and an atom keeps the name its first
    constraint gave it; since the chain is keyed from its end back, only a
    prefix of it is new.
    """
    pos = build_pc(pi, order)
    q = len(pos)
    if not q:
        return {}
    # chain[i] is c_i, for i from 2 to q + 1.  c_i is new for i <= fresh:
    # once a key is missed, every key before it holds a new atom, so it is
    # not looked up
    chain: list[Atom] = [None] * (q + 2)  # type: ignore[list-item]
    fresh = 1
    for i in range(q + 1, 1, -1):
        prev = pos[i - 2]
        if i > q:
            key: object = prev.atom.context_id  # the terminator is never derived, so one per context serves
        else:
            key = (prev.atom, prev.image, pos[i - 1].atom, pos[i - 1].image, chain[i + 1])
        found = table.get(key) if fresh == 1 else None
        if found is None:
            found = table[key] = Atom(prev.atom.context_id, f"sbc_{tag}_c{i}")
            fresh = max(fresh, i)
        chain[i] = found
    first = pos[0].atom.context_id
    out = {first: ContextAdditions()}
    # each context declares its new chain atoms, the terminator last, before its primed copies
    for c in chain[2 : fresh + 1]:
        out.setdefault(c.context_id, ContextAdditions()).aux.append(c)
    for rule in (Rule(EMPTY, sets[pos[0].atom], sets[pos[0].image]), Rule(EMPTY, sets[chain[2]], EMPTY)):
        if rule not in table:  # a constraint that starts alike states it already
            table[rule] = rule
            out[first].kb.append(rule)
    made: set[Atom] = set()  # the copies this constraint names, all under ``tag``

    def primed(k: int, source: Atom, name: str) -> Atom:
        copy = table.get((k, source))
        if copy is None:
            copy = Atom(k, f"sbc_{tag}_{name}")
            if copy in made:  # a same-named source of another context holds it
                copy = Atom(k, f"sbc_{tag}_p{source.context_id}_{source.name}")
            made.add(copy)
            table[k, source] = copy
            out[k].aux.append(copy)
            out[k].br.append(BridgeRule(copy, sets[source], EMPTY))
        return copy

    # the rules of the positions whose chain atoms are new
    for i in range(2, min(fresh, q) + 1):
        prev, p = pos[i - 2], pos[i - 1]
        head, nxt = chain[i], chain[i + 1]
        k = head.context_id
        if p.atom.context_id == k:
            cur, cur_img, link = p.atom, p.image, nxt
        else:
            cur, cur_img = primed(k, p.atom, f"p_{p.atom.name}"), primed(k, p.image, f"p_{p.image.name}")
            link = primed(k, nxt, f"pc{i + 1}")
        one, kb = sets[head], out[k].kb
        kb.append(Rule(one, frozenset({prev.atom, cur}), sets[cur_img]))
        kb.append(Rule(one, sets[cur], frozenset({prev.image, cur_img})))
        kb.append(Rule(one, frozenset({prev.atom, link}), EMPTY))
        kb.append(Rule(one, sets[link], sets[prev.image]))
    return out


def extend_mcs(
    m: System, perms: Iterable[Permutation], order: AtomOrder | None = None
) -> System:
    """Rewrite the system with the permutation constraints of ``perms``.

    Permutations are encoded in a deterministic order (ascending support size,
    then cycle notation) under the tags ``p0, p1, ...`` that no atom of ``m``
    already uses, so a rewrite of a rewrite adds chains of its own; identities
    are skipped.  The rules of all the constraints share one table of
    one-atom fields and one table of added atoms (see :func:`encode_asp`),
    so a chain suffix or a primed copy that several constraints read is
    defined once, under the tag of the first of them.
    """
    if order is None:
        order = default_order(m)
    todo = sorted({p for p in perms if not p.is_identity()}, key=perm_sort_key)
    used = {
        a.name.split("_", 2)[1] for c in m.contexts for a in c.alphabet + c.aux if a.name.startswith("sbc_")
    }
    tags = (tag for tag in (f"p{i}" for i in count()) if tag not in used)
    sets, table = Singletons(), {}
    merged: dict[int, list[ContextAdditions]] = {}
    for pi, tag in zip(todo, tags):
        for cid, add in encode_asp(pi, order, tag, sets, table).items():
            merged.setdefault(cid, []).append(add)
    contexts = []
    for c in m.contexts:
        adds = merged.get(c.id)
        if adds is None:
            contexts.append(c)
        else:
            contexts.append(
                Context(
                    c.id,
                    c.alphabet,
                    c.kb + tuple(r for add in adds for r in add.kb),
                    c.br + tuple(b for add in adds for b in add.br),
                    c.aux + tuple(a for add in adds for a in add.aux),
                )
            )
    return System(tuple(contexts))


# ---------------------------------------------------------------------------
# projections and reference filters


def project_original(m: System, state: BeliefState) -> BeliefState:
    """Drop auxiliary atoms from every defined component."""
    comps: dict[int, frozenset[Atom] | None] = {}
    for i, v in state:
        if v is None:
            comps[i] = None
        else:
            comps[i] = v & m.context(i).original
    return BeliefState.make(comps)


def lex_leader_filter(
    states: Iterable[BeliefState], perms: Iterable[Permutation], order: AtomOrder
) -> frozenset[BeliefState]:
    """Keep exactly the lexicographically least state of each orbit.

    The orbit is taken under the group generated by ``perms``; this is the
    reference semantics a complete set of permutation constraints enforces.
    """
    perms = [p for p in perms if not p.is_identity()]
    out = []
    for s in states:
        if not perms:
            out.append(s)
            continue
        v = vec(s, order)
        if all(v <= vec(t, order) for t in orbit_of_states(perms, s)):
            out.append(s)
    return frozenset(out)


def select_breaking_set(perms: Iterable[Permutation], budget: int | None = None) -> list[Permutation]:
    """An irredundant generating subset, truncated to ``budget`` by support size."""
    return reduce_irredundant(perms)[:budget]
