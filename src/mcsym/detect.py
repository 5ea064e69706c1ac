"""Symmetry detection, local and distributed.

Local detection reduces one context to a vertex-coloured digraph whose
automorphisms correspond exactly to the partial symmetries of the system with
respect to that context: two vertices per occurring atom (a positive one
coloured by the declaring context and a negative one sharing a single
"negated" colour), one body vertex per distinct rule (kb and bridge bodies
get distinct colours), edges from body literals to the body vertex, from the
body vertex to each head atom, and one consistency edge from each atom's
positive to its negative vertex.

Distributed detection joins the local sets of the import closure.  The join
of permutation sets is associative and commutative, and joining a context's
set a second time changes nothing, so :func:`dsd` folds each reachable
context's local set in once, as the solver's depth-first walk leaves it.  The
service keeps the message protocol of separate reasoners on the same walk:
each request names the contexts already asked within the same outside request
and is forwarded to every import neighbour not yet asked, so each reachable
context is asked once; each node computes its local set once.  The parent
joins a node's set, a group, as it is, and only the reply on the wire
degrades to irredundant generators past the message cap.  Requests are
handled in the caller, one after another, and the message log keeps whole
entries for its newest :data:`LOG_LINES` lines, rendering replies when read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import Iterable, Iterator

from .errors import InternalError, ParseError
from .autograph import Graph, automorphism_generators
from .mcs import Context, System, _walk
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
    return m.exports.get(k, frozenset())


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

    for r in dict.fromkeys(ctx.kb):
        add_body(kb_colour, r.body_pos, r.body_neg, r.head)
    for br in dict.fromkeys(ctx.br):
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

    Joins, in depth-first post-order, the local sets of ``k`` (even when
    ``visited`` holds it) and of every context it reaches along import edges
    without entering ``visited``; started with no visited contexts it returns
    all partial symmetries with respect to the import closure of ``k``.
    """
    left = (i for i, entered in _walk(m, k, set(visited)) if not entered)
    return reduce(join_sets, (lsd(m, i, mode=mode) for i in left))


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


def _size(entry: str | PermSet) -> int:
    return 1 if isinstance(entry, str) else 1 + len(entry.perms)


def _lines(entry: str | PermSet) -> Iterable[str]:
    if isinstance(entry, str):
        return (entry,)
    head = f"PERMSET {len(entry.perms)}" + ("" if entry.complete else " generators")
    return [head, *sorted(emit_cycles(p) or "()" for p in entry.perms)]


class _MessageLog:
    """The newest ``limit`` lines of the wire form, rendered when read.

    An entry is a request line or a reply, which stands for its header line
    and its sorted cycle lines.  Whole entries are kept, at most ``limit``
    lines plus the one entry the limit cuts, whose cut head reading skips.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: deque[str | PermSet] = deque()
        self._len = 0  # lines of the kept entries, the cut head included

    def __len__(self) -> int:
        return min(self._len, self.limit)

    def __iter__(self) -> Iterator[str]:
        lines = (line for entry in self._entries for line in _lines(entry))
        return islice(lines, self._len - len(self), None)

    def append(self, entry: str | PermSet) -> None:
        self._entries.append(entry)
        self._len += _size(entry)
        while self._entries and self._len - _size(self._entries[0]) >= self.limit:
            self._len -= _size(self._entries.popleft())


class DetectionService:
    """Per-context detection nodes exchanging the paper's request messages.

    A request ``DSD k H`` asks node ``k`` for its local set joined with the
    replies of its neighbours; ``H`` holds the contexts already asked within
    the same outside request, starting from its ``visited`` set.  The node
    forwards ``DSD i H`` to each neighbour ``i`` not yet in ``H`` and answers
    with a ``PERMSET``, so one outside request asks every context it reaches
    exactly once, ``k`` even when ``visited`` holds it.  Each node computes
    its local set once and serves later requests from it.  The node asking
    joins a node's set, a group, as it is, before the reply is built, which
    past ``message_cap`` degrades to an irredundant generating subset (a
    negative cap raises :class:`ParseError`).  The message log yields the
    newest :data:`LOG_LINES` lines of the wire form, rendering replies when
    read.
    """

    def __init__(self, m: System, mode: str = "shared", message_cap: int = 4096) -> None:
        if message_cap < 0:
            raise ParseError(f"message cap must be at least 0, got {message_cap}")
        self.m = m
        self.mode = mode
        self.message_cap = message_cap
        self.requests = {c.id: 0 for c in m.contexts}
        self.log = _MessageLog(LOG_LINES)
        self._local: dict[int, frozenset[Permutation]] = {}

    @property
    def cache_hits(self) -> dict[int, int]:
        """Requests per node answered from its cached local set."""
        return {k: max(n - 1, 0) for k, n in self.requests.items()}

    def request(self, k: int, visited: frozenset[int] = frozenset()) -> PermSet:
        """Send one detection request to node ``k`` and return its reply."""
        self.m.context(k)  # an unknown root raises before anything is sent
        # a node is asked as the walk enters it and replies as the walk leaves
        # it; a stack holds each open request's set so far
        asked = set(visited)
        opened: list[frozenset[Permutation]] = []
        for i, entered in _walk(self.m, k, asked):
            if entered:
                self.log.append(f"DSD {i} H={','.join(map(str, sorted(asked))) or '-'}")
                self.requests[i] += 1
                if i not in self._local:
                    self._local[i] = lsd(self.m, i, mode=self.mode)
                opened.append(self._local[i])
                continue
            perms = opened.pop()
            if opened:
                opened[-1] = join_sets(opened[-1], perms)
            reply = PermSet(perms)
            # the identity alone has no generators to carry its domain
            if len(perms) > max(self.message_cap, 1):
                reply = PermSet(frozenset(reduce_irredundant(perms)), complete=False)
            self.log.append(reply)
        return reply
