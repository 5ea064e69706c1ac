"""Multi-context systems with answer-set-programming contexts.

A system is a tuple of contexts; each context owns a finite alphabet, a local
knowledge base (a disjunctive logic program) and bridge rules whose bodies
query the belief sets of other contexts.  Belief states assign one belief set
per context, or the undefined marker ``eps`` (``None``); partial semantics is
always relative to the import closure of a starting context.

Acceptability of a belief set is stable-model based.  Contexts may carry an
auxiliary alphabet extension (used by the symmetry-breaking rewrite); the
acceptability check then splits the knowledge base at the auxiliary boundary:
the original part must be an answer set as before, and the auxiliary part is
a deterministic, acyclic completion on top of it.  Kb rules and bridge rules
with an original head use no auxiliary atoms, so the original part of a
belief state can be decided before any auxiliary atom is known.

The distributed solver runs one backtracking search over the import closure,
assigning contexts in depth-first post-order over import edges; the same walk
gives the closure and :mod:`mcsym.detect`'s order.  Per call it numbers each
member's original atoms as bits, so a belief set's original part is an int
mask, and gives each member a table of its local answer sets per subset of
its original bridge heads, filled on demand by one bit-mask kernel over its
original kb compiled once.  The search state is one stack of iterators over
the untried candidates of each member assigned (see
:func:`evaluate_distributed`).  The auxiliary atoms are completed only at
the leaves, where a whole assignment of the closure becomes a belief state:
the members' auxiliary layer is one stratified program over context-qualified
atoms (Apt, Blair & Walker 1988), put in order once per call, and one pass
over it completes a leaf and reports whether an auxiliary constraint is
violated.  Nothing the search derives outlives the call: tables, masks and
programs are local to it.

What the solver derives from a context is computed once, when first used, and
kept on the context: its original alphabet as a set, its atoms with the
auxiliary extension, the split knowledge base, its auxiliary rules in
evaluation order and its import neighbourhood.  A system likewise keeps its
export map, each context's atoms that other contexts' bridge bodies read,
built in one pass over all bridge rules when first read.
Validating a system derives nothing that is kept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Mapping

from . import asp
from .asp import Rule, evaluate_stratified, is_answer_set
from .errors import BoundExceeded, InsufficientBeliefState, InternalError, ParseError
from .perm import Atom, Permutation

@dataclass(frozen=True, slots=True)
class BridgeRule:
    """``head :- (c:b), not (c:d).`` — body literals query other contexts."""

    head: Atom
    body_pos: frozenset[Atom]
    body_neg: frozenset[Atom]

    def atoms(self) -> frozenset[Atom]:
        return frozenset({self.head}) | self.body_pos | self.body_neg

    def _apply_perm(self, pi: Permutation) -> "BridgeRule":
        return BridgeRule(
            pi(self.head),
            frozenset(pi(a) for a in self.body_pos),
            frozenset(pi(a) for a in self.body_neg),
        )


@dataclass(frozen=True)
class Context:
    id: int
    alphabet: tuple[Atom, ...]
    kb: tuple[Rule, ...]
    br: tuple[BridgeRule, ...]
    aux: tuple[Atom, ...] = ()

    @cached_property
    def original(self) -> frozenset[Atom]:
        """The original alphabet, without the auxiliary extension."""
        return frozenset(self.alphabet)

    @cached_property
    def atoms(self) -> frozenset[Atom]:
        """Original alphabet plus the auxiliary extension."""
        return frozenset(self.alphabet + self.aux)

    @cached_property
    def split_kb(self) -> tuple[tuple[Rule, ...], tuple[Rule, ...]]:
        """The kb split into (original-only rules, auxiliary rules and constraints)."""
        bottom: list[Rule] = []
        auxpart: list[Rule] = []
        original = self.original
        for r in self.kb:
            if r.head <= original and r.body_pos <= original and r.body_neg <= original:
                bottom.append(r)
            elif r.head.isdisjoint(original):
                auxpart.append(r)
            else:
                raise InternalError(
                    f"context {self.id}: rule mixes original head with auxiliary atoms"
                )
        return tuple(bottom), tuple(auxpart)

    @cached_property
    def aux_strata(self) -> asp.Strata:
        """The auxiliary part of the kb in evaluation order (see :func:`asp.stratify`)."""
        return asp.stratify(self.split_kb[1])

    @cached_property
    def imports(self) -> frozenset[int]:
        """In(k): the contexts whose belief sets the bridge rules query."""
        return frozenset(a.context_id for b in self.br for a in b.body_pos | b.body_neg)

    def occurring(self) -> frozenset[Atom]:
        """Atoms mentioned anywhere in this context's rules (foreign included)."""
        # filled in place: a union over the rules' atoms() would hold a set per rule at once
        out: set[Atom] = set()
        for r in self.kb:
            out.update(r.head, r.body_pos, r.body_neg)
        for b in self.br:
            out.add(b.head)
            out.update(b.body_pos, b.body_neg)
        return frozenset(out)


@dataclass(frozen=True)
class System:
    contexts: tuple[Context, ...]
    _by_id: dict[int, Context] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = [c.id for c in self.contexts]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate context ids")
        object.__setattr__(self, "contexts", tuple(sorted(self.contexts, key=lambda c: c.id)))
        object.__setattr__(self, "_by_id", {c.id: c for c in self.contexts})
        # plain locals: validation keeps nothing on the contexts
        declared = {c.id: frozenset(c.alphabet + c.aux) for c in self.contexts}
        aux = frozenset(a for c in self.contexts for a in c.aux)
        for c in self.contexts:
            names = [a.name for a in c.alphabet + c.aux]
            if len(set(names)) != len(names):
                raise ParseError(f"context {c.id}: duplicate atom names")
            atoms = declared[c.id]
            for a in c.alphabet + c.aux:
                if a.context_id != c.id:
                    raise InternalError(f"context {c.id} declares an atom of context {a.context_id}")
            for r in c.kb:
                if not (r.head <= atoms and r.body_pos <= atoms and r.body_neg <= atoms):
                    raise ParseError(f"context {c.id}: kb rule uses undeclared atoms")
            for b in c.br:
                if b.head not in atoms:
                    raise ParseError(f"context {c.id}: bridge head {b.head.name!r} is not local")
                body = b.body_pos | b.body_neg
                for a in body:
                    if a not in declared.get(a.context_id, ()):
                        raise ParseError(
                            f"context {c.id}: bridge literal ({a.context_id}:{a.name}) "
                            "does not name a declared atom"
                        )
                # the solver prunes on the original part before completing aux
                if b.head not in aux and not body.isdisjoint(aux):
                    raise ParseError(
                        f"context {c.id}: bridge rule for original atom {b.head.name!r} "
                        "reads an auxiliary atom"
                    )

    @cached_property
    def exports(self) -> dict[int, frozenset[Atom]]:
        """Per context id, its atoms that other contexts' bridge bodies read."""
        out: dict[int, set[Atom]] = {}
        for c in self.contexts:
            for b in c.br:
                for a in b.body_pos | b.body_neg:
                    if a.context_id != c.id:
                        out.setdefault(a.context_id, set()).add(a)
        return {k: frozenset(v) for k, v in out.items()}

    def context(self, i: int) -> Context:
        c = self._by_id.get(i)
        if c is None:
            raise InternalError(f"no context with id {i}")
        return c

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.contexts)

    def universe(self, within: Iterable[int] | None = None) -> frozenset[Atom]:
        """Alphabets (with aux) of the given contexts plus their bridge-body atoms.

        With ``within=None``: every context, which gives all atoms declared in
        the system.
        """
        out: frozenset[Atom] = frozenset()
        for c in self.contexts if within is None else map(self.context, within):
            out |= c.atoms
            for b in c.br:
                out |= b.body_pos | b.body_neg
        return out


# ---------------------------------------------------------------------------
# belief states


@dataclass(frozen=True, slots=True)
class BeliefState:
    """One belief set (or ``eps``) per context, keyed by context id."""

    components: tuple[tuple[int, frozenset[Atom] | None], ...]

    @classmethod
    def make(cls, mapping: Mapping[int, Iterable[Atom] | None]) -> "BeliefState":
        comps = []
        for i in sorted(mapping):
            v = mapping[i]
            comps.append((i, None if v is None else frozenset(v)))
        return cls(tuple(comps))

    def get(self, i: int) -> frozenset[Atom] | None:
        for j, v in self.components:
            if j == i:
                return v
        raise InternalError(f"belief state has no component for context {i}")

    def defined_ids(self) -> frozenset[int]:
        return frozenset(i for i, v in self.components if v is not None)

    def _apply_perm(self, pi: Permutation) -> "BeliefState":
        return BeliefState(
            tuple((i, None if v is None else frozenset(pi(a) for a in v)) for i, v in self.components)
        )

    def sort_key(self) -> tuple:
        return tuple([component_parts(*c)[0] for c in self.components])

    def __str__(self) -> str:
        return " ".join([component_parts(*c)[1] for c in self.components])


def component_parts(i: int, v: frozenset[Atom] | None) -> tuple[tuple, str]:
    """The sort key and the text of component ``i`` of a belief state: set ``v``, or eps."""
    if v is None:
        return (i, 1, ()), f"{i}=eps"
    names = tuple(sorted(a.name for a in v))
    return (i, 0, names), f"{i}={{{','.join(names)}}}"


# ---------------------------------------------------------------------------
# import topology


def _walk(m: System, k: int, seen: set[int]) -> Iterator[tuple[int, bool]]:
    """Depth-first walk over import edges from ``k``, imports in id order, on its own stack.

    Yields ``(i, True)`` on entering context ``i`` and ``(i, False)`` on
    leaving it.  It enters ``k``, and each import not in ``seen`` when reached,
    which it adds to the caller's ``seen`` after the entered event.
    """
    yield k, True
    seen.add(k)
    path = [(k, iter(sorted(m.context(k).imports)))]
    while path:
        i, todo = path[-1]
        j = next((j for j in todo if j not in seen), None)
        if j is None:
            path.pop()
            yield i, False
        else:
            yield j, True
            seen.add(j)
            path.append((j, iter(sorted(m.context(j).imports))))


def import_closure(m: System, k: int) -> frozenset[int]:
    """IC(k): least set containing k and closed under import neighbourhoods."""
    return frozenset(i for i, entered in _walk(m, k, set()) if entered)


# ---------------------------------------------------------------------------
# applicability and acceptability


def applicable(ctx: Context, state: BeliefState | Mapping[int, frozenset[Atom] | None]) -> frozenset[Atom]:
    """Heads of the bridge rules of ``ctx`` applicable in ``state``.

    ``state`` is a belief state or a dict from context id to belief set.
    Raises :class:`InsufficientBeliefState` if a referenced component is eps,
    or missing from a dict.
    """
    return frozenset(
        b.head
        for b in ctx.br
        if all(_holds(state, a) for a in b.body_pos) and not any(_holds(state, a) for a in b.body_neg)
    )


def _holds(state: BeliefState | Mapping[int, frozenset[Atom] | None], a: Atom) -> bool:
    s = state.get(a.context_id)
    if s is None:
        raise InsufficientBeliefState(f"insufficient belief state: context {a.context_id} is undefined")
    return a in s


def _acceptable(ctx: Context, s_i: frozenset[Atom], heads: frozenset[Atom]) -> bool:
    """Whether ``s_i`` is an acceptable belief set of ``ctx`` under bridge input ``heads``."""
    if not s_i <= ctx.atoms:
        return False
    x = s_i & ctx.original
    if not is_answer_set([*ctx.split_kb[0], *(asp.rule(head=[a]) for a in heads & ctx.original)], x):
        return False
    if not ctx.aux:
        return s_i == x
    # bridge heads outside the original alphabet are aux, and hold before
    # any auxiliary rule is evaluated
    ext, violated = evaluate_stratified(x | (heads - ctx.original), ctx.aux_strata)
    return not violated and s_i == ext


def is_equilibrium(m: System, state: BeliefState) -> bool:
    """All components defined, each acceptable under the applicable bridge heads."""
    return _equilibrium_on(m, state, frozenset(m.ids))


def is_partial_equilibrium(m: System, state: BeliefState, k: int) -> bool:
    """Equilibrium condition on IC(k); eps everywhere else."""
    return _equilibrium_on(m, state, import_closure(m, k))


def _equilibrium_on(m: System, state: BeliefState, ids: frozenset[int]) -> bool:
    """Defined exactly on ``ids``, each member acceptable under its applicable bridge heads."""
    if any((state.get(c.id) is None) == (c.id in ids) for c in m.contexts):
        return False
    return all(_acceptable(m.context(i), state.get(i), applicable(m.context(i), state)) for i in ids)


# ---------------------------------------------------------------------------
# enumeration (reference oracle)


def _candidate_atoms(ctx: Context, bound: int) -> frozenset[Atom]:
    """Atoms of ``ctx`` that any rule could make true: its occurring originals.

    Raises :class:`BoundExceeded` if there are more than ``bound``.
    """
    cand = ctx.occurring() & ctx.original
    if len(cand) > bound:
        raise BoundExceeded(f"context {ctx.id} has {len(cand)} candidate atoms (bound {bound})")
    return cand


def _check_bound(bound: int) -> None:
    """Reject a negative ``bound`` as malformed input."""
    if bound < 0:
        raise ParseError(f"bound must be at least 0, got {bound}")


def _aux_program(m: System, ids: Iterable[int]) -> asp.Strata:
    """The auxiliary layer of the contexts ``ids`` as one program in evaluation order.

    Its rules are the auxiliary kb rules and the bridge rules with auxiliary
    heads, which over context-qualified atoms are ordinary rules.  ``ids``
    must be closed under imports; a cycle raises :class:`InternalError`.
    """
    rules: list[Rule] = []
    for i in ids:
        c = m.context(i)
        rules += c.split_kb[1]
        rules += (Rule(frozenset({b.head}), b.body_pos, b.body_neg) for b in c.br if b.head not in c.original)
    return asp.stratify(rules)


def _complete_aux(
    strata: asp.Strata, assignment: Mapping[int, frozenset[Atom]]
) -> tuple[dict[int, frozenset[Atom]], bool]:
    """Extend original-atom components by what the auxiliary program ``strata`` derives.

    Also returns whether an auxiliary constraint is violated (see :func:`_aux_program`).
    """
    x = frozenset().union(*assignment.values())
    ext, violated = evaluate_stratified(x, strata)
    derived: dict[int, set[Atom]] = {i: set() for i in assignment}
    for a in ext - x:
        derived[a.context_id].add(a)
    return {i: s | derived[i] for i, s in assignment.items()}, bool(violated)


def enumerate_partial_equilibria(
    m: System, k: int | None = None, bound: int = 20
) -> frozenset[BeliefState]:
    """All (partial) equilibria by exhaustive search.

    With ``k`` given: partial equilibria with respect to C_k (eps outside
    IC(k)).  With ``k=None``: equilibria of the whole system.  Candidates
    range over subsets of each context's occurring original atoms; auxiliary
    atoms are completed deterministically.  A negative ``bound`` is a
    :class:`ParseError`.
    """
    _check_bound(bound)
    ids = sorted(import_closure(m, k)) if k is not None else list(m.ids)
    pools: list[list[frozenset[Atom]]] = []
    for i in ids:
        cand = sorted(_candidate_atoms(m.context(i), bound))
        pools.append([frozenset(sub) for r in range(len(cand) + 1) for sub in combinations(cand, r)])
    strata = _aux_program(m, ids)
    out = []
    eps_ids = [i for i in m.ids if i not in ids]
    for combo in product(*pools):
        assignment = dict(zip(ids, combo))
        completed, _ = _complete_aux(strata, assignment)
        full = {**completed, **{i: None for i in eps_ids}}
        state = BeliefState.make(full)
        if _equilibrium_on(m, state, frozenset(ids)):
            out.append(state)
    return frozenset(out)


# ---------------------------------------------------------------------------
# distributed evaluation


class _LocalTable(dict):
    """A member's local answer sets per bridge input, each computed when first read.

    ``atoms[b]``, of the context's sorted original atoms, is bit ``b`` of a
    mask, and ``program`` is the original kb compiled over them.  A key is the
    mask of a set of original bridge heads; its entry maps the mask of each
    answer set of the original kb plus those heads (by
    :func:`asp.answer_set_masks`) to its ``(context id, set)``, so a belief
    set's original part is acceptable under bridge input ``heads`` exactly
    when its mask is in ``table[mask of heads & ctx.original]``.  ``bound``
    is checked on the candidate atoms, which hold every entry's atoms.
    """

    def __init__(self, ctx: Context, bound: int) -> None:
        super().__init__()
        _candidate_atoms(ctx, bound)  # raises past the bound
        self.id, self.atoms = ctx.id, sorted(ctx.original)
        self.bit = {a: 1 << b for b, a in enumerate(self.atoms)}
        self.program = asp.compile_program(ctx.split_kb[0], self.atoms)

    def __missing__(self, heads: int) -> dict[int, tuple[int, frozenset[Atom]]]:
        entry = self[heads] = {
            x: (self.id, asp.atoms_of_mask(x, self.atoms)) for x in asp.answer_set_masks(self.program, heads)
        }
        return entry


_Compiled = tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]


def _fired_mask(rules: _Compiled, assignment: list[int]) -> int:
    """The mask of the heads of compiled ``rules`` applicable under the member masks."""
    heads = 0
    for bit, body in rules:
        for p, pos, neg in body:
            x = assignment[p]
            if x & pos != pos or x & neg:
                break
        else:
            heads |= bit
    return heads


def evaluate_distributed(m: System, k: int | None, bound: int = 20) -> frozenset[BeliefState]:
    """Partial equilibria w.r.t. C_k, by one backtracking search over IC(k).

    Equivalent to :func:`enumerate_partial_equilibria`; ``k=None`` gives the
    equilibria of the whole system.  The members are assigned in the order
    :func:`_walk` leaves them from ``k`` (from each context not yet reached,
    in id order, when ``k`` is None), so outside import cycles a context comes
    after everything it imports; the walk and the search keep their own stacks.
    Each member has a table of local answer sets per bridge input (see
    :class:`_LocalTable`), made per call and filled as the search reads it.
    Only bridge rules with original heads feed the table: :class:`System`
    rejects any that read auxiliary atoms, so their heads are the same before
    and after completion and a table lookup decides the original part exactly.

    The search works on masks of each member's original atoms.  Each bridge
    rule with an original head is compiled once per call into its head's bit
    and, per body context, the member's position with a positive and a
    negative mask.  The search state is one stack of iterators over untried
    candidates, as long as the depth.  Entering a depth pushes its member's
    table entry for its bridge input if all the member's imports come before
    it (so not itself), else the union of its whole table; such a member is
    checked by a lookup at the first depth where it and its imports are
    assigned.  A candidate that passes its checks at the last depth is a leaf,
    and that depth goes on; an exhausted depth is popped.  A leaf gathers the
    members' components, ready-made in their table entries, and one pass over
    their auxiliary program (see :func:`_aux_program`) completes the auxiliary
    atoms; the state is kept when that violates no auxiliary constraint.  A
    system without contexts has one equilibrium, the empty state.  A negative
    ``bound`` is a :class:`ParseError`.
    """
    _check_bound(bound)
    order: list[int] = []
    seen: set[int] = set()
    for root in m.ids if k is None else (k,):
        if root not in seen:
            order.extend(i for i, entered in _walk(m, root, seen) if not entered)
    if not order:
        return frozenset({BeliefState(())})
    members = [m.context(i) for i in order]
    position = {i: d for d, i in enumerate(order)}
    tables = [_LocalTable(c, bound) for c in members]

    def compile_rule(d: int, b: BridgeRule) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        masks: dict[int, list[int]] = {}
        for sign, atoms in enumerate((b.body_pos, b.body_neg)):
            for a in atoms:
                p = position[a.context_id]
                masks.setdefault(p, [0, 0])[sign] |= tables[p].bit[a]
        return tables[d].bit[b.head], tuple((p, pos, neg) for p, (pos, neg) in masks.items())

    rules = [
        tuple(compile_rule(d, b) for b in c.br if b.head in c.original)
        for d, c in enumerate(members)
    ]
    # per depth: the union of the member's entries if it is checked by
    # lookup, else None, and the members checked at that depth
    pools: list[dict[int, tuple[int, frozenset[Atom]]] | None] = [None] * len(order)
    checks_at: list[list[int]] = [[] for _ in members]
    for d, c in enumerate(members):
        last = max((position[j] for j in c.imports), default=-1)
        if last < d:  # so it does not import itself either
            continue
        checks_at[last].append(d)
        heads = sum({bit for bit, _ in rules[d]})  # distinct single bits, so their OR
        pools[d] = {mask: s for hs in asp._submasks(heads) for mask, s in tables[d][hs].items()}
    strata = _aux_program(m, order) if any(c.aux for c in members) else None
    ids = m.ids
    slot = {i: s for s, i in enumerate(ids)}
    slots = [slot[i] for i in order]
    final = len(order) - 1
    out: list[BeliefState] = []
    # entries past the current depth are stale, and no check reads them;
    # row holds the members' components at their places in a belief state
    assignment = [0] * len(order)
    row: list[tuple[int, frozenset[Atom] | None]] = [(i, None) for i in ids]

    def candidates(d: int) -> Iterator[tuple[int, tuple[int, frozenset[Atom]]]]:
        pool = pools[d]
        return iter((tables[d][_fired_mask(rules[d], assignment)] if pool is None else pool).items())

    # one iterator of untried candidates per depth entered, so its length is the depth
    untried = [candidates(0)]
    while untried:
        d = len(untried) - 1
        checks = checks_at[d]
        at = slots[d]
        for mask, component in untried[d]:
            assignment[d] = mask
            row[at] = component
            if checks and not all(
                assignment[p] in tables[p][_fired_mask(rules[p], assignment)] for p in checks
            ):
                continue
            if d < final:
                untried.append(candidates(d + 1))
                break
            # a leaf: the whole closure is assigned, and this depth goes on
            if strata is None:
                out.append(BeliefState(tuple(row)))
            else:
                completed, violated = _complete_aux(strata, {i: s for i, s in row if s is not None})
                if not violated:
                    out.append(BeliefState(tuple((i, completed.get(i)) for i in ids)))
        else:
            untried.pop()
    return frozenset(out)


# ---------------------------------------------------------------------------
# symmetries


def _preserves(c: Context, pi: Permutation) -> bool:
    """Whether ``pi`` maps the context's alphabet, kb and br onto themselves."""
    return (
        frozenset(pi(a) for a in c.atoms) == c.atoms
        and frozenset(r._apply_perm(pi) for r in c.kb) == frozenset(c.kb)
        and frozenset(b._apply_perm(pi) for b in c.br) == frozenset(c.br)
    )


def is_symmetry(m: System, pi: Permutation) -> bool:
    """Whether ``pi`` preserves every context: alphabets, kb and br as sets."""
    return all(_preserves(c, pi) for c in m.contexts)


def is_local_symmetry(m: System, k: int, pi: Permutation) -> bool:
    """Whether ``pi`` moves only C_k's atoms yet preserves the whole system."""
    if not pi.support <= m.context(k).atoms:
        return False
    return is_symmetry(m, pi.extend(m.universe()))


def is_partial_symmetry(m: System, pi: Permutation, contexts: Iterable[int]) -> bool:
    """Whether ``pi`` is a partial symmetry with respect to the given contexts.

    Requires the domain to cover each member's alphabet and bridge-body atoms,
    and each member's alphabet, kb and br to be preserved.
    """
    cset = sorted(set(contexts))
    needed = m.universe(within=cset)
    return needed <= pi.domain and all(_preserves(m.context(i), pi) for i in cset)


def brute_force_partial_symmetries(
    m: System, contexts: Iterable[int], class_bound: int = 8
) -> frozenset[Permutation]:
    """All partial symmetries w.r.t. ``contexts`` by exhaustive search.

    The domain is the members' universe (alphabets plus bridge-body atoms),
    partitioned blockwise per declaring context; atoms no member rule
    constrains move freely within their block.  Errors out if a block
    exceeds ``class_bound`` atoms.
    """
    cset = sorted(set(contexts))
    members = set(cset)
    dom = m.universe(within=cset)
    blocks: dict[int, list[Atom]] = {}
    for a in sorted(dom):
        blocks.setdefault(a.context_id, []).append(a)
    for cid, block in blocks.items():
        if len(block) > class_bound:
            raise BoundExceeded(
                f"{len(block)} permutable atoms in context {cid} (bound {class_bound})"
            )
    # alphabet invariance holds by block construction; knowledge-base
    # invariance of a member depends only on its own block, so filter each
    # member block up front before taking the cross product
    block_ids = sorted(blocks)
    choices: list[list[tuple[Atom, ...]]] = []
    for cid in block_ids:
        block = blocks[cid]
        images = list(permutations(block))
        if cid in members:
            kbset = frozenset(m.context(cid).kb)
            kept = []
            for img in images:
                mp = dict(zip(block, img))
                if all(_rule_image(r, mp) in kbset for r in kbset):
                    kept.append(img)
            images = kept
        choices.append(images)
    out = []
    for images in product(*choices):
        mapping: dict[Atom, Atom] = {}
        for cid, img in zip(block_ids, images):
            mapping.update(zip(blocks[cid], img))
        pi = Permutation(mapping, domain=dom)
        if is_partial_symmetry(m, pi, cset):
            out.append(pi)
    return frozenset(out)


def _rule_image(r: Rule, mp: dict[Atom, Atom]) -> Rule:
    return Rule(
        head=frozenset(mp.get(a, a) for a in r.head),
        body_pos=frozenset(mp.get(a, a) for a in r.body_pos),
        body_neg=frozenset(mp.get(a, a) for a in r.body_neg),
    )


# ---------------------------------------------------------------------------
# textual format

_BLANKS = re.compile(r"[ \t]+")  # what separates the words of a header, atoms or aux line


def parse_system(text: str) -> System:
    """Parse the system file format.

    ::

        mcs 2
        context 1
          atoms a b
          kb
            a :- not b.
          br
            b :- not (2:d).
        context 2
          atoms d
          kb
          br

    An optional ``aux`` line after ``atoms`` declares auxiliary atoms.  An
    atom name is an ASCII identifier other than ``context``, checked on the
    line that declares it.  A line opens a section only when its first word
    is the keyword; the words of a header, ``atoms`` or ``aux`` line are
    separated by ASCII spaces and tabs.  ``%`` starts a comment.  kb
    statements are read by :func:`asp.parse_rule`, and bridge bodies as its
    bodies are; a bridge body literal ``(c:name)`` resolves against every
    atom the file declares.  Errors name the line of the file.
    """
    # per context: its id, alphabet, aux atoms, kb lines and br lines
    sections: list[tuple[int, list[Atom], list[Atom], list, list]] = []
    expect = "mcs"
    for line, lineno in asp._code_lines(text):
        new_context = line.startswith("context") and not line[7:8].strip()  # its first word is "context"
        # the rule lines first: they are most of a file
        if expect == "br rules" and not new_context:
            rules.append((line, lineno))
        elif expect == "kb rules" and line != "br" and not new_context:
            rules.append((line, lineno))
        elif expect == "mcs":
            mhead = re.match(r"mcs[ \t]+([0-9]+)$", line)
            if not mhead:
                raise ParseError("expected 'mcs <n>' header", line=lineno)
            n, expect = int(mhead.group(1)), "context"
        elif expect == "atoms" or expect == "aux" and _BLANKS.split(line, 1)[0] == "aux":
            word, *names = _BLANKS.split(line)
            if word != expect:
                raise ParseError("expected 'atoms ...' after context header", line=lineno)
            for name in names:
                if name == "context" or not asp._NAME_RE.fullmatch(name):
                    raise ParseError(f"invalid atom name {name!r}", line=lineno)
            (alphabet if word == "atoms" else aux).extend(Atom(cid, name) for name in names)
            expect = "aux" if word == "atoms" else "kb"
        elif expect in ("aux", "kb"):
            if line != "kb":
                raise ParseError("expected 'kb' section", line=lineno)
            expect = "kb rules"
        elif expect == "kb rules" and line == "br":
            expect, rules = "br rules", br
        elif expect == "kb rules":
            raise ParseError("expected 'br' section", line=lineno)
        else:
            mctx = re.match(r"context[ \t]+([0-9]+)$", line)
            if not mctx:
                raise ParseError(f"expected 'context <id>', got {line!r}", line=lineno)
            cid, alphabet, aux, kb, br = int(mctx.group(1)), [], [], [], []
            sections.append((cid, alphabet, aux, kb, br))
            expect, rules = "atoms", kb
    if expect in ("mcs", "atoms"):
        raise ParseError("unexpected end of input")
    if expect in ("aux", "kb"):
        raise ParseError("expected 'kb' section", line=lineno)
    if expect == "kb rules":
        raise ParseError("expected 'br' section")
    if len(sections) != n:
        raise ParseError(f"header declares {n} contexts, found {len(sections)}")

    # a kb token and a bridge head resolve by name in their context, and a
    # bridge literal by its canonical text "(c:name)" in the whole file
    refs: dict[str, Atom] = {}
    local_names: list[dict[str, Atom]] = []
    declared: list[Atom] = []
    for cid, alphabet, aux, _, _ in sections:
        local_names.append(local := {})
        declared += (atoms := alphabet + aux)
        for a in atoms:
            local[a.name] = refs[f"({cid}:{a.name})"] = a
    sets = asp.Singletons().fill(declared)  # one-atom rule fields, shared across the system
    contexts: list[Context] = []
    for (cid, alphabet, aux, kb_lines, br_lines), local in zip(sections, local_names):
        kb = tuple([asp.parse_rule(stmt, local, ln, sets) for stmt, ln in asp._split_statements(kb_lines)])
        br = []
        for stmt, ln in asp._split_statements(br_lines):
            head_txt, arrow, body_txt = stmt.partition(":-")
            if not arrow:
                raise ParseError("bridge rule needs a body", line=ln)
            head_txt = head_txt.strip()
            head = local.get(head_txt)
            if head is None:
                raise ParseError(f"bridge head {head_txt!r} not in the alphabet", line=ln)
            if ":-" in body_txt:
                raise ParseError("rule has two ':-'", line=ln)
            br.append(BridgeRule(head, *asp._parse_body(body_txt, refs, ln, sets)))
        contexts.append(Context(cid, tuple(alphabet), kb, tuple(br), tuple(aux)))
    return System(tuple(contexts))


def emit_bridge_rule(b: BridgeRule) -> str:
    body = [f"({a.context_id}:{a.name})" for a in sorted(b.body_pos)]
    body += [f"not ({a.context_id}:{a.name})" for a in sorted(b.body_neg)]
    return f"{b.head.name} :- {', '.join(body)}."


def _emit_sections(
    out: list[str], aux: tuple[Atom, ...], kb: tuple[Rule, ...], br: tuple[BridgeRule, ...]
) -> None:
    """Append a context's ``aux`` line, if it has aux atoms, and its ``kb`` and ``br`` sections."""
    if aux:
        out.append("  aux " + " ".join(a.name for a in aux))
    out.append("  kb")
    for r in kb:
        out.append("    " + asp.emit_rule(r))
    out.append("  br")
    for b in br:
        out.append("    " + emit_bridge_rule(b))


def emit_system(m: System) -> str:
    out = [f"mcs {len(m.contexts)}"]
    for c in m.contexts:
        out.append(f"context {c.id}")
        out.append("  atoms " + " ".join(a.name for a in c.alphabet))
        _emit_sections(out, c.aux, c.kb, c.br)
    return "\n".join(out) + "\n"


def load_system(path) -> System:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())
