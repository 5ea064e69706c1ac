"""Symmetry detection, local and distributed.

Local detection reduces one context to a vertex-coloured digraph whose
automorphisms correspond exactly to the partial symmetries of the system with
respect to that context: two vertices per occurring atom (a positive one
coloured by the declaring context and a negative one sharing a single
"negated" colour), one body vertex per rule (knowledge-base and bridge bodies
get distinct colours), edges from body literals to the body vertex, from the
body vertex to each head atom, and one consistency edge from each atom's
positive to its negative vertex.

Distributed detection joins the local sets of the import closure.  The join
of permutation sets is associative and commutative, and joining a context's
set a second time changes nothing, so :func:`dsd` folds each reachable
context's local set in once, in breadth-first order.  The service variant
keeps the message protocol of separate reasoners: each request names the
contexts already asked within the same outside request and is forwarded to
every import neighbour not yet asked, so each reachable context is asked
once; each node computes its local set once, and a reply that would exceed
the message cap degrades to irredundant generators, which the receiver
closes back to the group before joining.  Requests are handled in the
caller, one after another, and the message log keeps the newest
:data:`LOG_LINES` lines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import InternalError
from .autograph import Graph, automorphism_generators
from .mcs import Context, System
from .perm import (
    Atom,
    Permutation,
    emit_cycles,
    group_closure,
    join_sets,
    reduce_irredundant,
)


@dataclass(frozen=True)
class Gap:
    """A context's detection graph plus the vertex bookkeeping."""

    graph: Graph
    atoms: tuple[Atom, ...]
    pos: dict[Atom, int]
    neg: dict[Atom, int]


def exported_atoms(m: System, k: int) -> frozenset[Atom]:
    """Atoms of context ``k`` referenced by other contexts' bridge bodies."""
    out: set[Atom] = set()
    for c in m.contexts:
        if c.id == k:
            continue
        for b in c.br:
            for a in b.body_pos | b.body_neg:
                if a.context_id == k:
                    out.add(a)
    return frozenset(out)


def build_gap(
    ctx: Context, n: int, mode: str = "shared", exported: frozenset[Atom] = frozenset()
) -> Gap:
    """The detection graph of one context of an ``n``-context system.

    ``mode="shared"`` colours a positive atom vertex by its declaring context,
    so atoms of the same context stay interchangeable.  ``mode="local"`` pins
    every non-local atom and every exported local atom with a fresh singleton
    colour; automorphisms then move unexported local atoms only, and the
    resulting permutations are symmetries of the whole system.
    """
    if mode not in ("shared", "local"):
        raise InternalError(f"unknown gap mode {mode!r}")
    occ = sorted(ctx.occurring())
    top = max([n, ctx.id] + [a.context_id for a in occ]) if occ else max(n, ctx.id)
    neg_colour, kb_colour, br_colour = top + 1, top + 2, top + 3
    pos: dict[Atom, int] = {}
    neg: dict[Atom, int] = {}
    colours: list[int] = []
    for a in occ:
        pos[a] = len(colours)
        colours.append(a.context_id)
        neg[a] = len(colours)
        colours.append(neg_colour)
    if mode == "local":
        pinned = [a for a in occ if a.context_id != ctx.id or a in exported]
        fresh = br_colour + 1
        for a in pinned:
            colours[pos[a]] = fresh
            fresh += 1
    edges: set[tuple[int, int]] = set()
    for a in occ:
        edges.add((pos[a], neg[a]))

    def add_body(body_colour: int, pos_lits: Iterable[Atom], neg_lits: Iterable[Atom], heads: Iterable[Atom]) -> None:
        b = len(colours)
        colours.append(body_colour)
        for a in pos_lits:
            edges.add((pos[a], b))
        for a in neg_lits:
            edges.add((neg[a], b))
        for h in heads:
            edges.add((b, pos[h]))

    for r in ctx.kb:
        add_body(kb_colour, r.body_pos, r.body_neg, r.head)
    for br in ctx.br:
        add_body(br_colour, br.body_pos, br.body_neg, [br.head])
    return Gap(Graph(tuple(colours), frozenset(edges)), tuple(occ), pos, neg)


def graph_perm_to_partial_symmetry(
    gap: Gap, vperm: tuple[int, ...], domain: Iterable[Atom]
) -> Permutation:
    """Read an atom permutation off a graph automorphism.

    Positive vertices map to positive vertices (their colours are unique to
    the atom layer), so the restriction to atoms is well defined; atoms of
    the domain that do not occur in the graph stay fixed.
    """
    rev = {v: a for a, v in gap.pos.items()}
    mapping: dict[Atom, Atom] = {}
    for a, v in gap.pos.items():
        w = vperm[v]
        if w not in rev:
            raise InternalError("graph automorphism does not preserve the atom layer")
        mapping[a] = rev[w]
    return Permutation(mapping, domain=frozenset(domain) | frozenset(gap.atoms))


def lsd(m: System, k: int, mode: str = "shared") -> frozenset[Permutation]:
    """Local symmetry detection: the partial symmetries w.r.t. context ``k``.

    Returns the full enumerated set (identity included) over the universe of
    ``{k}``: the context's alphabet plus its bridge-body atoms.  Atoms of the
    context that occur in none of its rules are unconstrained, so they
    permute freely alongside the graph-detected part.  In local mode the set
    contains symmetries of the whole system that move only unexported local
    atoms.
    """
    ctx = m.context(k)
    dom = m.universe(within=[k])
    exported = exported_atoms(m, k)
    gap = build_gap(ctx, len(m.contexts), mode, exported)
    gens = [graph_perm_to_partial_symmetry(gap, vp, dom) for vp in automorphism_generators(gap.graph)]
    free = sorted(ctx.atoms - frozenset(gap.atoms))
    if mode == "local":
        free = [a for a in free if a not in exported]
    gens.extend(Permutation({x: y, y: x}) for x, y in zip(free, free[1:]))
    # the identity carries the domain when there is nothing to close
    return group_closure([Permutation.identity(dom), *gens])


def dsd(
    m: System, k: int, visited: frozenset[int] = frozenset(), *, mode: str = "shared"
) -> frozenset[Permutation]:
    """Distributed symmetry detection from context ``k``.

    Joins the local sets of ``k`` and of every context it reaches along
    import edges without entering ``visited``; started with no visited
    contexts it returns all partial symmetries with respect to the import
    closure of ``k``.
    """
    acc = lsd(m, k, mode=mode)
    for i in _reachable(m, k, visited)[1:]:
        acc = join_sets(acc, lsd(m, i, mode=mode))
    return acc


def _reachable(m: System, k: int, visited: frozenset[int]) -> list[int]:
    """``k`` and the contexts it reaches outside ``visited``, breadth first."""
    order = [k]
    seen = set(visited) | {k}
    for i in order:
        nxt = sorted(m.context(i).imports - seen)
        seen.update(nxt)
        order.extend(nxt)
    return order


# ---------------------------------------------------------------------------
# detection service

# Lines of the service's message log kept in memory; older lines are dropped.
LOG_LINES = 10_000


@dataclass(frozen=True)
class PermSet:
    """A detection message payload: an atom-permutation set.

    ``complete=False`` marks a degraded payload that only carries generators
    (the enumerated set would have exceeded the message cap).
    """

    perms: frozenset[Permutation]
    complete: bool = True


class DetectionService:
    """Per-context detection nodes exchanging the paper's request messages.

    A request ``DSD k H`` asks node ``k`` for its local set joined with the
    replies of its neighbours; ``H`` holds the contexts already asked within
    the same outside request, starting from its ``visited`` set.  The node
    forwards ``DSD i H`` to each neighbour ``i`` not yet in ``H`` and answers
    with a ``PERMSET``, so one outside request asks every context it reaches
    exactly once.  Each node computes its local set once and reuses it
    across requests.  A nontrivial reply larger than ``message_cap``
    degrades to an irredundant generating subset, which the receiving node
    closes back to the group before joining.  The message log records the
    line-delimited wire form of each exchange, keeping the newest
    :data:`LOG_LINES` lines.
    """

    def __init__(self, m: System, mode: str = "shared", message_cap: int = 4096) -> None:
        self.m = m
        self.mode = mode
        self.message_cap = message_cap
        self.requests = {c.id: 0 for c in m.contexts}
        self.cache_hits = {c.id: 0 for c in m.contexts}
        self.log: deque[str] = deque(maxlen=LOG_LINES)
        self._local: dict[int, frozenset[Permutation]] = {}

    def request(self, k: int, visited: frozenset[int] = frozenset()) -> PermSet:
        """Send one detection request to node ``k`` and return its reply."""
        return self._reply(k, set(visited))

    def _reply(self, k: int, asked: set[int]) -> PermSet:
        # neighbours are asked through here, so one outside request is one
        # call of ``request``
        self.log.append(f"DSD {k} H={','.join(map(str, sorted(asked))) or '-'}")
        asked.add(k)
        self.requests[k] += 1
        if k in self._local:
            self.cache_hits[k] += 1
        else:
            self._local[k] = lsd(self.m, k, mode=self.mode)
        perms = self._local[k]
        for i in sorted(self.m.context(k).imports):
            if i not in asked:
                payload = self._reply(i, asked)
                got = payload.perms if payload.complete else group_closure(payload.perms)
                perms = join_sets(perms, got)
        reply = PermSet(perms)
        # the identity alone has no generators to carry its domain
        if len(perms) > max(self.message_cap, 1):
            reply = PermSet(frozenset(reduce_irredundant(perms)), complete=False)
        lines = [f"PERMSET {len(reply.perms)}" + ("" if reply.complete else " generators")]
        lines.extend(sorted(emit_cycles(p) or "()" for p in reply.perms))
        self.log.extend(lines)
        return reply
