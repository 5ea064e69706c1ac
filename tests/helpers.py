"""Shared test helpers: cycle views, atom lookup, seeded random systems, relabelling, reference refinement, completion and member order."""

from __future__ import annotations

import random
import string
from typing import Mapping, Sequence

from mcsym import Atom, BridgeRule, Context, InternalError, Rule, System, emit_cycles, parse_system
from mcsym.asp import evaluate_stratified


def cyc(perms) -> set[str]:
    """Canonical cycle-string view of a permutation collection; identity is "()"."""
    return {emit_cycles(p) or "()" for p in perms}


def signature_refinement(g, colours=None) -> tuple[int, ...]:
    """Reference colour refinement: recompute every vertex's signature per round.

    A signature is a vertex's colour and the sorted colours of its out- and
    in-neighbours; new colours rank the distinct signatures, until no class
    splits.  The result is the coarsest equitable partition refining
    ``colours``.
    """
    cur = list(g.colours if colours is None else colours)
    out: list[list[int]] = [[] for _ in range(g.n)]
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        out[u].append(v)
        inc[v].append(u)
    while True:
        sigs = [
            (cur[v], tuple(sorted(cur[w] for w in out[v])), tuple(sorted(cur[w] for w in inc[v])))
            for v in range(g.n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        nxt = [order[s] for s in sigs]
        if nxt == cur:
            return tuple(nxt)
        cur = nxt


def _extend_aux(
    ctx: Context, x: frozenset[Atom], heads: frozenset[Atom]
) -> tuple[frozenset[Atom], tuple[Rule, ...]]:
    """Complete the original belief set ``x`` by the context's auxiliary part.

    Returns the extended set and the violated auxiliary constraints.  Bridge
    heads are local atoms, so those outside the original alphabet are aux,
    and they hold before any auxiliary rule is evaluated.
    """
    return evaluate_stratified(x | (heads - ctx.original), ctx.aux_strata)


def round_based_completion(
    m: System, assignment: dict[int, frozenset[Atom]]
) -> tuple[dict[int, frozenset[Atom]], bool]:
    """Reference auxiliary completion: per-context completions iterated in rounds.

    Deterministically extend original-atom components by auxiliary atoms.
    Returns the completed components, and whether the final extension of
    some member violates one of its auxiliary constraints.  Auxiliary rules
    are acyclic across the system, so iterating the per-context stratified
    completion converges; the round cap guards the invariant.
    """
    current = dict(assignment)
    total_aux = sum(len(m.context(i).aux) for i in current)
    inputs: dict[int, frozenset[Atom]] = {}
    violated: dict[int, bool] = {}
    for _ in range(total_aux + 2):
        changed = False
        state = dict(current)  # each round reads the previous round's sets
        for i in state:
            ctx = m.context(i)
            if not ctx.aux:
                continue
            heads = _fired(ctx.br, state)
            if inputs.get(i) == heads:
                continue  # the same bridge input completes to the same set
            inputs[i] = heads
            ext, bad = _extend_aux(ctx, current[i] & ctx.original, heads)
            violated[i] = bool(bad)
            if ext != current[i]:
                current[i] = ext
                changed = True
        if not changed:
            return current, any(violated.values())
    raise InternalError("auxiliary completion did not converge")


def _fired(rules: Sequence[BridgeRule], assignment: Mapping[int, frozenset[Atom]]) -> frozenset[Atom]:
    """Heads of the ``rules`` applicable under ``assignment``, which defines every body context."""
    return frozenset(
        b.head
        for b in rules
        if all(a in assignment[a.context_id] for a in b.body_pos)
        and not any(a in assignment[a.context_id] for a in b.body_neg)
    )


def post_order(m: System, k: int | None) -> list[int]:
    """Reference member order of the solver: depth-first post-order over import edges.

    Imports are taken in ascending id order.  The walk starts at ``k``, or,
    with ``k=None``, at every context in id order that an earlier start has
    not reached: a virtual context that imports the starts is left last and
    dropped.
    """
    order: list = []
    seen: set[int] = set()
    path = [(None, iter(m.ids if k is None else (k,)))]
    while path:
        i, todo = path[-1]
        j = next((j for j in todo if j not in seen), None)
        if j is None:
            path.pop()
            order.append(i)
        else:
            seen.add(j)
            path.append((j, iter(sorted(m.context(j).imports))))
    order.pop()  # the virtual context
    return order


def chain_system(n: int) -> System:
    """``n`` contexts in an import chain, each importing the next.

    Context i has ``b :- a.`` and reads its ``a`` from context i + 1; the
    last context chooses one of ``a`` and ``b``.  So the chain has two
    equilibria, and C_1's import closure is the whole chain.
    """
    lines = [f"mcs {n}"]
    for i in range(1, n):
        lines += [f"context {i}", "atoms a b", "kb", "b :- a.", "br", f"a :- ({i + 1}:a)."]
    lines += [f"context {n}", "atoms a b", "kb", "a :- not b.", "b :- not a.", "br"]
    return parse_system("\n".join(lines) + "\n")


def atoms_of(m: System, *names: str) -> tuple[Atom, ...]:
    """Resolve globally unique atom names of a system (originals and aux)."""
    by_name: dict[str, Atom] = {}
    for c in m.contexts:
        for a in c.alphabet + c.aux:
            if a.name in by_name:
                raise ValueError(f"ambiguous atom name {a.name!r}")
            by_name[a.name] = a
    return tuple(by_name[n] for n in names)


def state_of(m: System, mapping: dict[int, set | None]):
    """BeliefState from {context id: set of atom names | None}; missing ids are eps."""
    from mcsym import BeliefState

    comps: dict[int, frozenset | None] = {i: None for i in m.ids}
    for i, names in mapping.items():
        if names is None:
            comps[i] = None
        else:
            comps[i] = frozenset(atoms_of(m, *names))
    return BeliefState.make(comps)


def random_system(
    rng: random.Random,
    max_contexts: int = 4,
    max_atoms: int = 4,
    *,
    min_contexts: int = 1,
    twin_bias: float = 0.6,
    allow_cycles: bool = True,
    edge_probability: float = 0.5,
    self_reads: bool = False,
    repeat_rules: bool = False,
) -> System:
    """A random well-formed system, biased toward symmetric structure.

    Contexts with at least two atoms may receive a "twin pair": their last two
    atoms get the mirrored rules ``x :- not y.`` / ``y :- not x.`` and are kept
    out of other local rules, and importers may reference both twins with the
    same head and sign.  This makes nontrivial symmetry groups common while
    everything else stays arbitrary.  With ``self_reads``, a context may also
    import itself: its bridge rules then read its own atoms.  With
    ``repeat_rules``, each context's kb and bridge rules are, each with
    probability 1/2, followed by a copy of one of them.
    """
    n = rng.randint(min_contexts, max_contexts)
    alphabets = {
        i: tuple(Atom(i, f"a{i}_{j}") for j in range(1, rng.randint(1, max_atoms) + 1))
        for i in range(1, n + 1)
    }
    twins: dict[int, tuple[Atom, Atom]] = {}
    for i in range(1, n + 1):
        if len(alphabets[i]) >= 2 and rng.random() < twin_bias:
            twins[i] = (alphabets[i][-2], alphabets[i][-1])

    edges: set[tuple[int, int]] = set()  # (importer, exporter)
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            if j == k and not self_reads:
                continue
            if not allow_cycles and j > k:
                continue
            if rng.random() < edge_probability:
                edges.add((k, j))

    contexts = []
    for i in range(1, n + 1):
        atoms = alphabets[i]
        plain = [a for a in atoms if i not in twins or a not in twins[i]]
        kb: list[Rule] = []
        for _ in range(rng.randint(0, 2)):
            if not plain:
                break
            head = frozenset(rng.sample(plain, rng.randint(1, min(2, len(plain)))))
            rest = [a for a in plain if a not in head]
            pos = frozenset(rng.sample(rest, min(len(rest), rng.randint(0, 1))))
            neg_pool = [a for a in plain if a not in pos]
            neg = frozenset(rng.sample(neg_pool, min(len(neg_pool), rng.randint(0, 1))))
            kb.append(Rule(head, pos, neg))
        if i in twins:
            x, y = twins[i]
            kb.append(Rule(frozenset({x}), frozenset(), frozenset({y})))
            kb.append(Rule(frozenset({y}), frozenset(), frozenset({x})))

        br: list[BridgeRule] = []
        for k_imp, j_exp in sorted(edges):
            if k_imp != i:
                continue
            foreign = alphabets[j_exp]
            for _ in range(rng.randint(1, 2)):
                head = rng.choice(atoms)
                body = rng.sample(foreign, rng.randint(1, min(2, len(foreign))))
                pos = frozenset(a for a in body if rng.random() < 0.5)
                neg = frozenset(a for a in body if a not in pos)
                br.append(BridgeRule(head, pos, neg))
            if j_exp in twins and rng.random() < 0.5:
                x, y = twins[j_exp]
                head = rng.choice(plain or list(atoms))
                if rng.random() < 0.5:
                    br.append(BridgeRule(head, frozenset({x}), frozenset()))
                    br.append(BridgeRule(head, frozenset({y}), frozenset()))
                else:
                    br.append(BridgeRule(head, frozenset(), frozenset({x})))
                    br.append(BridgeRule(head, frozenset(), frozenset({y})))
        br = list(dict.fromkeys(br))
        if repeat_rules:
            for rules in (kb, br):
                if rules and rng.random() < 0.5:
                    rules.append(rng.choice(rules))
        contexts.append(Context(i, atoms, tuple(kb), tuple(br)))
    return System(tuple(contexts))


def with_random_aux_layer(rng: random.Random, m: System) -> System:
    """``m`` plus a random auxiliary layer that is acyclic across the system.

    Each context gets 0-2 aux atoms.  An aux atom is defined by kb rules over
    the context's originals and its earlier aux atoms, and may also be the
    head of a bridge rule over other contexts' originals and earlier aux
    atoms.  Aux constraints mix positive and negative literals, at least one
    of them on an aux atom.  Bridge rules with original heads stay as they are.
    """
    earlier: list[Atom] = []  # aux atoms of the contexts already extended

    def split(body: list[Atom]) -> tuple[frozenset[Atom], frozenset[Atom]]:
        pos = frozenset(a for a in body if rng.random() < 0.5)
        return pos, frozenset(body) - pos

    contexts = []
    for c in m.contexts:
        aux: list[Atom] = []
        kb, br = list(c.kb), list(c.br)
        foreign = [a for d in m.contexts if d.id != c.id for a in d.alphabet]
        for j in range(rng.randint(0, 2)):
            x = Atom(c.id, f"x{c.id}_{j}")
            own = list(c.alphabet) + aux
            for _ in range(rng.randint(1, 2)):
                kb.append(Rule(frozenset({x}), *split(rng.sample(own, rng.randint(0, min(2, len(own)))))))
            readable = earlier + foreign
            if readable and rng.random() < 0.6:
                br.append(BridgeRule(x, *split(rng.sample(readable, rng.randint(1, min(2, len(readable)))))))
            aux.append(x)
        for _ in range(rng.randint(0, 2) if aux else 0):
            x = rng.choice(aux)
            other = rng.choice([a for a in list(c.alphabet) + aux if a != x])
            pos, neg = ({x}, set()) if rng.random() < 0.5 else (set(), {x})
            (pos if rng.random() < 0.5 else neg).add(other)
            kb.append(Rule(frozenset(), frozenset(pos), frozenset(neg)))
        earlier += aux
        contexts.append(Context(c.id, c.alphabet, tuple(dict.fromkeys(kb)), tuple(dict.fromkeys(br)), tuple(aux)))
    return System(tuple(contexts))


def relabel(m: System, rng: random.Random) -> tuple[System, dict[Atom, Atom]]:
    """``m`` under new names, and the map from each declared atom to its new one.

    Context ids are drawn from 1 to 999 and atom names are an ASCII letter
    and a number, distinct within a context; each alphabet, kb and bridge
    list is shuffled as well.  Nothing else changes, so every result on the
    copy is the image of the same result on ``m``.
    """
    ids = dict(zip(m.ids, rng.sample(range(1, 1000), len(m.ids))))
    amap: dict[Atom, Atom] = {}
    for c in m.contexts:
        declared = c.alphabet + c.aux
        names: set[str] = set()
        while len(names) < len(declared):
            names.add(f"{rng.choice(string.ascii_letters)}{rng.randrange(100)}")
        amap.update(zip(declared, (Atom(ids[c.id], name) for name in rng.sample(sorted(names), len(names)))))

    def atoms(xs) -> frozenset[Atom]:
        return frozenset(amap[a] for a in xs)

    def shuffled(xs) -> tuple:
        xs = list(xs)
        rng.shuffle(xs)
        return tuple(xs)

    contexts = [
        Context(
            ids[c.id],
            shuffled(amap[a] for a in c.alphabet),
            shuffled(Rule(atoms(r.head), atoms(r.body_pos), atoms(r.body_neg)) for r in c.kb),
            shuffled(BridgeRule(amap[b.head], atoms(b.body_pos), atoms(b.body_neg)) for b in c.br),
            tuple(amap[a] for a in c.aux),
        )
        for c in m.contexts
    ]
    return System(tuple(shuffled(contexts))), amap
