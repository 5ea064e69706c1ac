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
a deterministic, acyclic completion on top of it.

What the solver derives from a context is computed once, when first used, and
kept on the context: its original alphabet as a set, its atoms with the
auxiliary extension, the split knowledge base and its import neighbourhood.
Validating a system derives nothing that is kept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Mapping, Sequence

from . import asp
from .asp import Rule, extend_stratified, is_answer_set
from .errors import BoundExceeded, InsufficientBeliefState, InternalError, ParseError
from .perm import Atom, Permutation

_BRIDGE_REF_RE = re.compile(r"\(\s*(\d+)\s*:\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)")


@dataclass(frozen=True)
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
        for r in self.kb:
            if r.atoms() <= self.original:
                bottom.append(r)
            elif r.head.isdisjoint(self.original):
                auxpart.append(r)
            else:
                raise InternalError(
                    f"context {self.id}: rule mixes original head with auxiliary atoms"
                )
        return tuple(bottom), tuple(auxpart)

    @cached_property
    def imports(self) -> frozenset[int]:
        """In(k): the contexts whose belief sets the bridge rules query."""
        return frozenset(a.context_id for b in self.br for a in b.body_pos | b.body_neg)

    def occurring(self) -> frozenset[Atom]:
        """Atoms mentioned anywhere in this context's rules (foreign included)."""
        occ: frozenset[Atom] = frozenset()
        for r in self.kb:
            occ |= r.atoms()
        for b in self.br:
            occ |= b.atoms()
        return occ


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
        for c in self.contexts:
            names = [a.name for a in c.alphabet + c.aux]
            if len(set(names)) != len(names):
                raise ParseError(f"context {c.id}: duplicate atom names")
            atoms = declared[c.id]
            for a in c.alphabet + c.aux:
                if a.context_id != c.id:
                    raise InternalError(f"context {c.id} declares an atom of context {a.context_id}")
            for r in c.kb:
                if not r.atoms() <= atoms:
                    raise ParseError(f"context {c.id}: kb rule uses undeclared atoms")
            for b in c.br:
                if b.head not in atoms:
                    raise ParseError(f"context {c.id}: bridge head {b.head.name!r} is not local")
                for a in b.body_pos | b.body_neg:
                    if a not in declared.get(a.context_id, ()):
                        raise ParseError(
                            f"context {c.id}: bridge literal ({a.context_id}:{a.name}) "
                            "does not name a declared atom"
                        )

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

        With ``within=None``: all atoms declared anywhere in the system.
        """
        if within is None:
            out: frozenset[Atom] = frozenset()
            for c in self.contexts:
                out |= c.atoms
            return out
        out = frozenset()
        for i in within:
            c = self.context(i)
            out |= c.atoms
            for b in c.br:
                out |= b.body_pos | b.body_neg
        return out


# ---------------------------------------------------------------------------
# belief states


@dataclass(frozen=True)
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
        key = []
        for i, v in self.components:
            if v is None:
                key.append((i, 1, ()))
            else:
                key.append((i, 0, tuple(sorted(a.name for a in v))))
        return tuple(key)

    def __str__(self) -> str:
        parts = []
        for i, v in self.components:
            if v is None:
                parts.append(f"{i}=eps")
            else:
                parts.append(f"{i}={{{','.join(sorted(a.name for a in v))}}}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# import topology


def import_closure(m: System, k: int) -> frozenset[int]:
    """IC(k): least set containing k and closed under import neighbourhoods."""
    closed: set[int] = set()
    frontier = [k]
    while frontier:
        i = frontier.pop()
        if i in closed:
            continue
        closed.add(i)
        frontier.extend(m.context(i).imports - closed)
    return frozenset(closed)


# ---------------------------------------------------------------------------
# applicability and acceptability


def applicable(ctx: Context, state: BeliefState) -> frozenset[Atom]:
    """Heads of the bridge rules of ``ctx`` applicable in ``state``.

    Raises :class:`InsufficientBeliefState` if a referenced component is eps.
    """
    heads = set()
    for b in ctx.br:
        ok = True
        for a in b.body_pos:
            s = state.get(a.context_id)
            if s is None:
                raise InsufficientBeliefState(
                    f"insufficient belief state: context {a.context_id} is undefined"
                )
            if a not in s:
                ok = False
                break
        if ok:
            for a in b.body_neg:
                s = state.get(a.context_id)
                if s is None:
                    raise InsufficientBeliefState(
                        f"insufficient belief state: context {a.context_id} is undefined"
                    )
                if a in s:
                    ok = False
                    break
        if ok:
            heads.add(b.head)
    return frozenset(heads)


def _facts(atoms: Iterable[Atom]) -> list[Rule]:
    return [Rule(frozenset({a}), frozenset(), frozenset()) for a in atoms]


def _extend_aux(
    ctx: Context, x: frozenset[Atom], heads: frozenset[Atom]
) -> tuple[frozenset[Atom], tuple[Rule, ...]]:
    """Complete the original belief set ``x`` by the context's auxiliary part.

    Returns the extended set and the violated auxiliary constraints.  Bridge
    heads are local atoms, so those outside the original alphabet are aux.
    """
    return extend_stratified(x, [*ctx.split_kb[1], *_facts(heads - ctx.original)])


def _acceptable(ctx: Context, s_i: frozenset[Atom], heads: frozenset[Atom]) -> bool:
    """Whether ``s_i`` is an acceptable belief set of ``ctx`` under bridge input ``heads``."""
    if not s_i <= ctx.atoms:
        return False
    x = s_i & ctx.original
    if not is_answer_set([*ctx.split_kb[0], *_facts(heads & ctx.original)], x):
        return False
    if not ctx.aux:
        return s_i == x
    ext, violated = _extend_aux(ctx, x, heads)
    return not violated and s_i == ext


def is_equilibrium(m: System, state: BeliefState) -> bool:
    """All components defined, each acceptable under the applicable bridge heads."""
    for c in m.contexts:
        s_i = state.get(c.id)
        if s_i is None:
            return False
    for c in m.contexts:
        if not _acceptable(c, state.get(c.id), applicable(c, state)):
            return False
    return True


def is_partial_equilibrium(m: System, state: BeliefState, k: int) -> bool:
    """Equilibrium condition on IC(k); eps everywhere else."""
    ic = import_closure(m, k)
    for c in m.contexts:
        s_i = state.get(c.id)
        if c.id in ic:
            if s_i is None:
                return False
        elif s_i is not None:
            return False
    for i in ic:
        c = m.context(i)
        if not _acceptable(c, state.get(i), applicable(c, state)):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration (reference oracle)


def _candidate_atoms(ctx: Context, bound: int) -> list[Atom]:
    """Atoms of ``ctx`` that any rule could make true: its occurring originals.

    Raises :class:`BoundExceeded` if there are more than ``bound``.
    """
    cand = sorted(ctx.occurring() & ctx.original)
    if len(cand) > bound:
        raise BoundExceeded(f"context {ctx.id} has {len(cand)} candidate atoms (bound {bound})")
    return cand


def _complete_aux(m: System, assignment: dict[int, frozenset[Atom]], ids: frozenset[int]) -> dict[int, frozenset[Atom]]:
    """Deterministically extend original-atom components by auxiliary atoms.

    Auxiliary rules are acyclic across the system, so iterating the per-context
    stratified completion converges; the round cap guards the invariant.
    """
    current = dict(assignment)
    total_aux = sum(len(m.context(i).aux) for i in ids)
    if total_aux == 0:
        return current
    for _ in range(total_aux + 2):
        changed = False
        state = BeliefState.make(current)
        for i in ids:
            ctx = m.context(i)
            if not ctx.aux:
                continue
            ext, _ = _extend_aux(ctx, current[i] & ctx.original, applicable(ctx, state))
            if ext != current[i]:
                current[i] = ext
                changed = True
        if not changed:
            return current
    raise InternalError("auxiliary completion did not converge")


def enumerate_partial_equilibria(
    m: System, k: int | None = None, bound: int = 20
) -> frozenset[BeliefState]:
    """All (partial) equilibria by exhaustive search.

    With ``k`` given: partial equilibria with respect to C_k (eps outside
    IC(k)).  With ``k=None``: equilibria of the whole system.  Candidates
    range over subsets of each context's occurring original atoms; auxiliary
    atoms are completed deterministically.
    """
    ids = sorted(import_closure(m, k)) if k is not None else list(m.ids)
    pools: list[list[frozenset[Atom]]] = []
    for i in ids:
        cand = _candidate_atoms(m.context(i), bound)
        pools.append([frozenset(sub) for r in range(len(cand) + 1) for sub in combinations(cand, r)])
    out = []
    eps_ids = [i for i in m.ids if i not in ids]
    for combo in product(*pools):
        assignment = dict(zip(ids, combo))
        completed = _complete_aux(m, assignment, frozenset(ids))
        full = {**completed, **{i: None for i in eps_ids}}
        state = BeliefState.make(full)
        ok = is_partial_equilibrium(m, state, k) if k is not None else is_equilibrium(m, state)
        if ok:
            out.append(state)
    return frozenset(out)


# ---------------------------------------------------------------------------
# distributed evaluation


def _sccs(m: System, ids: frozenset[int]) -> list[list[int]]:
    """Tarjan's algorithm on the import digraph restricted to ``ids``.

    Emits strongly connected components with dependencies first: every
    component appears before any component that imports from it.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = [0]

    def strong(v: int) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(m.context(v).imports & ids):
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            out.append(sorted(comp))

    for v in sorted(ids):
        if v not in index:
            strong(v)
    return out


def _local_candidates(ctx: Context, bound: int) -> list[frozenset[Atom]]:
    """Belief sets ``ctx`` could accept under *some* bridge input.

    Union of the answer sets of kb plus any subset of the bridge heads.
    Candidates cover original atoms only; auxiliary completion happens later.
    """
    bottom, _ = ctx.split_kb
    heads = sorted({b.head for b in ctx.br} & ctx.original)
    _candidate_atoms(ctx, bound)  # raises past the bound
    pool: set[frozenset[Atom]] = set()
    for r in range(len(heads) + 1):
        for hs in combinations(heads, r):
            pool |= asp.answer_sets([*bottom, *_facts(hs)], bound=bound)
    return sorted(pool, key=lambda s: tuple(sorted(a.name for a in s)))


def evaluate_distributed(m: System, k: int, bound: int = 20) -> frozenset[BeliefState]:
    """Partial equilibria w.r.t. C_k, computed bottom-up over import SCCs.

    Equivalent to :func:`enumerate_partial_equilibria` but structured the way
    a distributed evaluation would run: each strongly connected component of
    the import digraph is solved jointly once its dependencies are solved,
    and component results are merged on agreement.
    """
    ic = import_closure(m, k)
    sccs = _sccs(m, ic)
    scc_of: dict[int, int] = {}
    for idx, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = idx
    results: list[list[dict[int, frozenset[Atom]]]] = []
    has_aux = any(m.context(i).aux for i in ic)

    for idx, comp in enumerate(sccs):
        children = sorted(
            {scc_of[w] for v in comp for w in m.context(v).imports & ic if scc_of[w] != idx}
        )
        merged: list[dict[int, frozenset[Atom]]] = [{}]
        for ch in children:
            nxt = []
            for base in merged:
                for part in results[ch]:
                    shared = base.keys() & part.keys()
                    if all(base[i] == part[i] for i in shared):
                        nxt.append({**base, **part})
            merged = nxt
            if not merged:
                break
        pools = {i: _local_candidates(m.context(i), bound) for i in comp}
        own: list[dict[int, frozenset[Atom]]] = []
        for base in merged:
            own.extend(_scc_assignments(m, comp, pools, base, has_aux))
        results.append(own)

    final = results[scc_of[k]]
    eps_ids = [i for i in m.ids if i not in ic]
    out = []
    for assignment in final:
        state = BeliefState.make({**assignment, **{i: None for i in eps_ids}})
        out.append(state)
    return frozenset(out)


def _scc_assignments(
    m: System,
    comp: list[int],
    pools: dict[int, list[frozenset[Atom]]],
    base: dict[int, frozenset[Atom]],
    has_aux: bool,
) -> list[dict[int, frozenset[Atom]]]:
    """Extend ``base`` by consistent belief sets for one SCC's members."""
    out: list[dict[int, frozenset[Atom]]] = []
    comp_pos = {i: idx for idx, i in enumerate(comp)}
    # a member can be validated once itself and all its in-component imports
    # are assigned; record at which search depth that happens
    checks_at: dict[int, list[int]] = {}
    for j in comp:
        deps = [comp_pos[w] for w in m.context(j).imports if w in comp_pos]
        checks_at.setdefault(max([comp_pos[j], *deps]), []).append(j)

    def check_member(i: int, assignment: dict[int, frozenset[Atom]]) -> bool:
        ctx = m.context(i)
        state = BeliefState.make(assignment)
        return _acceptable(ctx, assignment[i], applicable(ctx, state))

    def dfs(pos: int, assignment: dict[int, frozenset[Atom]]) -> None:
        if pos == len(comp):
            if has_aux:
                completed = _complete_aux(m, assignment, frozenset(assignment))
                if all(check_member(i, completed) for i in comp):
                    out.append(completed)
            else:
                out.append(assignment)
            return
        i = comp[pos]
        for cand in pools[i]:
            nxt = {**assignment, i: cand}
            # prune as soon as a member's imports are complete (without aux,
            # where candidate sets are already final)
            if not has_aux and not all(check_member(j, nxt) for j in checks_at.get(pos, ())):
                continue
            dfs(pos + 1, nxt)

    dfs(0, dict(base))
    return out


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

    An optional ``aux`` line after ``atoms`` declares auxiliary atoms.
    ``%`` starts a comment.
    """
    lines = text.splitlines()
    pos = 0

    def peek() -> tuple[str, int] | None:
        nonlocal pos
        while pos < len(lines):
            stripped = lines[pos].split("%", 1)[0].strip()
            if stripped:
                return stripped, pos + 1
            pos += 1
        return None

    def take() -> tuple[str, int]:
        nonlocal pos
        item = peek()
        if item is None:
            raise ParseError("unexpected end of input")
        pos += 1
        return item

    header, lineno = take()
    mhead = re.match(r"mcs\s+(\d+)$", header)
    if not mhead:
        raise ParseError("expected 'mcs <n>' header", line=lineno)
    n = int(mhead.group(1))

    contexts: list[Context] = []
    declared: dict[int, tuple[tuple[Atom, ...], tuple[Atom, ...]]] = {}
    raw_sections: list[tuple[int, tuple[Atom, ...], tuple[Atom, ...], list[tuple[str, int]], list[tuple[str, int]]]] = []

    while peek() is not None:
        line, lineno = take()
        mctx = re.match(r"context\s+(\d+)$", line)
        if not mctx:
            raise ParseError(f"expected 'context <id>', got {line!r}", line=lineno)
        cid = int(mctx.group(1))
        line, lineno = take()
        if not line.startswith("atoms"):
            raise ParseError("expected 'atoms ...' after context header", line=lineno)
        names = line[len("atoms"):].split()
        alphabet = tuple(Atom(cid, nm) for nm in names)
        aux: tuple[Atom, ...] = ()
        item = peek()
        if item and item[0].startswith("aux"):
            line, lineno = take()
            aux = tuple(Atom(cid, nm) for nm in line[len("aux"):].split())
        item = peek()
        if item is None or item[0] != "kb":
            raise ParseError("expected 'kb' section", line=item[1] if item else lineno)
        take()
        kb_lines: list[tuple[str, int]] = []
        while (item := peek()) is not None and item[0] != "br":
            if item[0].startswith("context"):
                raise ParseError("expected 'br' section", line=item[1])
            kb_lines.append(take())
        if peek() is None:
            raise ParseError("expected 'br' section")
        take()  # 'br'
        br_lines: list[tuple[str, int]] = []
        while (item := peek()) is not None and not item[0].startswith("context"):
            br_lines.append(take())
        declared[cid] = (alphabet, aux)
        raw_sections.append((cid, alphabet, aux, kb_lines, br_lines))

    if len(raw_sections) != n:
        raise ParseError(f"header declares {n} contexts, found {len(raw_sections)}")

    for cid, alphabet, aux, kb_lines, br_lines in raw_sections:
        local_names = {a.name: a for a in alphabet + aux}
        kb_text = "\n".join(t for t, _ in kb_lines)
        try:
            kb = asp.parse_program(kb_text, local_names)
        except ParseError as e:
            raise ParseError(f"context {cid} kb: {e}") from None
        br = tuple(_parse_bridge_rules(br_lines, cid, local_names, declared))
        contexts.append(Context(cid, alphabet, kb, br, aux))
    return System(tuple(contexts))


def _parse_bridge_rules(
    br_lines: list[tuple[str, int]],
    cid: int,
    local_names: dict[str, Atom],
    declared: dict[int, tuple[tuple[Atom, ...], tuple[Atom, ...]]],
) -> list[BridgeRule]:
    out: list[BridgeRule] = []
    text = "\n".join(t for t, _ in br_lines)
    base_line = br_lines[0][1] if br_lines else 0
    for stmt, rel in asp._split_statements(text):
        lineno = base_line + rel - 1
        if ":-" not in stmt:
            raise ParseError("bridge rule needs a body", line=lineno)
        head_txt, body_txt = stmt.split(":-", 1)
        head_txt = head_txt.strip()
        if head_txt not in local_names:
            raise ParseError(f"bridge head {head_txt!r} not in the alphabet", line=lineno)
        head = local_names[head_txt]
        pos_atoms: set[Atom] = set()
        neg_atoms: set[Atom] = set()
        for part in body_txt.split(","):
            part = part.strip()
            if not part:
                continue
            neg = part.startswith("not ")
            if neg:
                part = part[4:].strip()
            mref = _BRIDGE_REF_RE.fullmatch(part)
            if not mref:
                raise ParseError(f"bridge body literal must be (<context>:<atom>), got {part!r}", line=lineno)
            rid, rname = int(mref.group(1)), mref.group(2)
            if rid not in declared:
                raise ParseError(f"bridge literal references unknown context {rid}", line=lineno)
            ralpha, raux = declared[rid]
            lookup = {a.name: a for a in ralpha + raux}
            if rname not in lookup:
                raise ParseError(f"({rid}:{rname}) does not name a declared atom", line=lineno)
            (neg_atoms if neg else pos_atoms).add(lookup[rname])
        out.append(BridgeRule(head, frozenset(pos_atoms), frozenset(neg_atoms)))
    return out


def emit_bridge_rule(b: BridgeRule) -> str:
    body = [f"({a.context_id}:{a.name})" for a in sorted(b.body_pos)] + [
        f"not ({a.context_id}:{a.name})" for a in sorted(b.body_neg)
    ]
    return f"{b.head.name} :- " + ", ".join(body) + "."


def emit_system(m: System) -> str:
    out = [f"mcs {len(m.contexts)}"]
    for c in m.contexts:
        out.append(f"context {c.id}")
        out.append("  atoms " + " ".join(a.name for a in c.alphabet))
        if c.aux:
            out.append("  aux " + " ".join(a.name for a in c.aux))
        out.append("  kb")
        for r in c.kb:
            out.append("    " + asp.emit_rule(r))
        out.append("  br")
        for b in c.br:
            out.append("    " + emit_bridge_rule(b))
    return "\n".join(out) + "\n"


def load_system(path) -> System:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())
