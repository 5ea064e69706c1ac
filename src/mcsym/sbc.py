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
Rules for position ``i`` live in the context owning atom ``i-1`` of the
sequence; atoms and chain links owned elsewhere are imported through bridge
rules into primed copies.  All added atoms are auxiliary: the rewritten
system's acceptability splits them off, and projecting them away is a
bijection onto the surviving original states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .asp import Rule
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


@dataclass(frozen=True)
class PcPosition:
    index: int  # 1-based position in the reduced support sequence
    atom: Atom
    image: Atom


@dataclass(frozen=True)
class PermConstraint:
    pi: Permutation
    positions: tuple[PcPosition, ...]

    @property
    def support_sequence(self) -> tuple[Atom, ...]:
        return tuple(p.atom for p in self.positions)


def build_pc(pi: Permutation, order: AtomOrder) -> PermConstraint:
    """The permutation constraint of ``pi`` over the reduced support sequence."""
    support = sorted(pi.support, key=order.index)
    for a in support:
        if pi(a).context_id != a.context_id:
            raise InternalError(
                f"permutation moves {a.qualified()} across contexts; "
                "cannot encode its constraint"
            )
    reduced = [
        a
        for a in support
        if not (pi(pi(a)) == a and order.index(pi(a)) < order.index(a))
    ]
    positions = tuple(
        PcPosition(i + 1, a, pi(a)) for i, a in enumerate(reduced)
    )
    return PermConstraint(pi, positions)


@dataclass(frozen=True)
class ContextPiece:
    """The part of one permutation constraint a single context is in charge of."""

    context_id: int
    first: bool  # carries the position-1 integrity constraints
    rule_positions: tuple[PcPosition, ...]  # positions >= 2 whose rules live here
    terminator: bool  # declares the final (never-derived) chain atom


def distribute_pc(pc: PermConstraint) -> tuple[ContextPiece, ...]:
    """Assign the constraint's positions to contexts.

    Position 1 and the rules of position ``i >= 2`` belong to the owner of
    sequence atom ``i-1``; the terminating chain atom belongs to the owner of
    the last sequence atom.
    """
    if not pc.positions:
        return ()
    by_ctx: dict[int, list[PcPosition]] = {}
    for p in pc.positions[1:]:
        owner = pc.positions[p.index - 2].atom.context_id
        by_ctx.setdefault(owner, []).append(p)
    first_owner = pc.positions[0].atom.context_id
    last_owner = pc.positions[-1].atom.context_id
    ids = sorted(set(by_ctx) | {first_owner, last_owner})
    return tuple(
        ContextPiece(
            context_id=i,
            first=(i == first_owner),
            rule_positions=tuple(by_ctx.get(i, ())),
            terminator=(i == last_owner),
        )
        for i in ids
    )


# ---------------------------------------------------------------------------
# ASP encoding


@dataclass
class ContextAdditions:
    aux: list[Atom] = field(default_factory=list)
    kb: list[Rule] = field(default_factory=list)
    br: list[BridgeRule] = field(default_factory=list)

    def declare(self, a: Atom) -> Atom:
        if a not in self.aux:
            self.aux.append(a)
        return a


def encode_asp(
    m: System, pi: Permutation, order: AtomOrder, tag: str
) -> dict[int, ContextAdditions]:
    """The distributed ASP encoding of ``pi``'s permutation constraint.

    Auxiliary atoms are namespaced by ``tag``: chain atoms ``sbc_<tag>_c<i>``,
    primed imports ``sbc_<tag>_p_<atom>`` and ``sbc_<tag>_pc<i>`` for an
    imported chain link.
    """
    pc = build_pc(pi, order)
    q = len(pc.positions)
    out: dict[int, ContextAdditions] = {}

    def chain_atom(owner: int, i: int) -> Atom:
        # c_i belongs to the owner of sequence atom i-1 (1-based)
        return Atom(owner, f"sbc_{tag}_c{i}")

    for piece in distribute_pc(pc):
        k = piece.context_id
        # the chain atoms this context owns come before its primed copies
        here = out[k] = ContextAdditions(
            aux=[chain_atom(k, p.index) for p in piece.rule_positions]
            + ([chain_atom(k, q + 1)] if piece.terminator else [])
        )
        if piece.first:
            s1, t1 = pc.positions[0].atom, pc.positions[0].image
            here.kb.append(Rule(frozenset(), frozenset({s1}), frozenset({t1})))
            here.kb.append(Rule(frozenset(), frozenset({chain_atom(k, 2)}), frozenset()))
        for p in piece.rule_positions:
            i = p.index
            prev = pc.positions[i - 2]
            head = chain_atom(k, i)
            nxt = chain_atom(p.atom.context_id, i + 1)
            if p.atom.context_id == k:
                cur, cur_img, link = p.atom, p.image, nxt
            else:
                cur = here.declare(Atom(k, f"sbc_{tag}_p_{p.atom.name}"))
                cur_img = here.declare(Atom(k, f"sbc_{tag}_p_{p.image.name}"))
                link = here.declare(Atom(k, f"sbc_{tag}_pc{i + 1}"))
                for aux_atom, source in ((cur, p.atom), (cur_img, p.image), (link, nxt)):
                    bridge = BridgeRule(aux_atom, frozenset({source}), frozenset())
                    if bridge not in here.br:
                        here.br.append(bridge)
            here.kb.append(Rule(frozenset({head}), frozenset({prev.atom, cur}), frozenset({cur_img})))
            here.kb.append(Rule(frozenset({head}), frozenset({cur}), frozenset({prev.image, cur_img})))
            here.kb.append(Rule(frozenset({head}), frozenset({prev.atom, link}), frozenset()))
            here.kb.append(Rule(frozenset({head}), frozenset({link}), frozenset({prev.image})))
    return out


def extend_mcs(
    m: System, perms: Iterable[Permutation], order: AtomOrder | None = None
) -> System:
    """Rewrite the system with the permutation constraints of ``perms``.

    Permutations are encoded in a deterministic order (ascending support size,
    then cycle notation) under tags ``p0, p1, ...``; identities are skipped.
    """
    if order is None:
        order = default_order(m)
    todo = sorted({p for p in perms if not p.is_identity()}, key=perm_sort_key)
    merged: dict[int, ContextAdditions] = {}
    for idx, pi in enumerate(todo):
        for cid, add in encode_asp(m, pi, order, f"p{idx}").items():
            into = merged.setdefault(cid, ContextAdditions())
            for a in add.aux:
                into.declare(a)
            into.kb.extend(add.kb)
            into.br.extend(add.br)
    contexts = []
    for c in m.contexts:
        add = merged.get(c.id)
        if add is None:
            contexts.append(c)
        else:
            contexts.append(
                Context(
                    c.id,
                    c.alphabet,
                    c.kb + tuple(add.kb),
                    c.br + tuple(add.br),
                    c.aux + tuple(a for a in add.aux if a not in c.aux),
                )
            )
    return System(tuple(contexts))


# ---------------------------------------------------------------------------
# projections and reference filters


def project_original(m: System, state: BeliefState) -> BeliefState:
    """Drop auxiliary atoms from every defined component."""
    comps: dict[int, frozenset[Atom] | None] = {}
    for i, v in state.components:
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
