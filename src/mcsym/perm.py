"""Finite permutations over context-qualified atoms.

Atoms are qualified by the integer id of the context whose alphabet declares
them, so alphabets of different contexts are disjoint by construction.  An
atom is a ``(context_id, name)`` named tuple: it hashes, compares and sorts
as that tuple, and compares equal to a plain tuple with the same fields.  A
:class:`Permutation` carries an explicit finite domain; atoms outside the
domain are treated as untouched by :func:`apply`, but two permutations with
different domains are *different values* even if they move the same atoms.
That distinction matters for the join: ``join(pi, sigma)`` is a partial
operation and its definedness depends on the domains, not just the supports.

The join of two permutations is defined iff they agree on the intersection of
their domains; the united mapping is then automatically a bijection of the
united domain (every element keeps a preimage, and a surjective self-map of a
finite set is injective).  Undefinedness is an ordinary return value
(``None``), not an exception: callers routinely probe many joins and keep the
defined ones.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from .errors import BoundExceeded, InternalError, ParseError


class Atom(NamedTuple):
    """An atom qualified by the id of the declaring context."""

    context_id: int
    name: str

    def __str__(self) -> str:
        return self.name

    def qualified(self) -> str:
        return f"{self.context_id}.{self.name}"


class Permutation:
    """An immutable bijection of a finite set of atoms onto itself."""

    # _key, the sort key, is set by perm_sort_key when first asked for
    __slots__ = ("_domain", "_map", "_support", "_hash", "_key")

    def __init__(self, mapping: Mapping[Atom, Atom], domain: Iterable[Atom] | None = None):
        dom = frozenset(mapping) if domain is None else frozenset(domain)
        if not dom.issuperset(mapping):
            raise InternalError("permutation maps atoms outside its domain")
        m = {a: b for a, b in mapping.items() if a != b}  # the rest of the domain is fixed
        images = set(m.values())
        if not dom.issuperset(images):
            raise InternalError("permutation image leaves its domain")
        if m.keys() != images:  # else a moved atom's image is fixed or hit twice
            raise InternalError("permutation mapping is not injective")
        self._set(dom, m)

    @classmethod
    def _trusted(cls, moved: dict[Atom, Atom], domain: frozenset[Atom]) -> "Permutation":
        """The permutation of ``domain`` moving as ``moved``, a known bijection; nothing is checked."""
        pi = object.__new__(cls)
        pi._set(domain, moved)
        return pi

    def _set(self, dom: frozenset[Atom], m: dict[Atom, Atom]) -> None:
        object.__setattr__(self, "_domain", dom)
        object.__setattr__(self, "_map", m)
        object.__setattr__(self, "_support", frozenset(m))
        object.__setattr__(self, "_hash", hash((dom, frozenset(m.items()))))

    @classmethod
    def identity(cls, domain: Iterable[Atom]) -> "Permutation":
        return cls({}, domain=domain)

    @property
    def domain(self) -> frozenset[Atom]:
        return self._domain

    @property
    def support(self) -> frozenset[Atom]:
        return self._support

    def is_identity(self) -> bool:
        return not self._map

    def __call__(self, atom: Atom) -> Atom:
        return self._map.get(atom, atom)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permutation is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._domain == other._domain and self._map == other._map

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = emit_cycles(self) or "()"
        return f"Permutation({body} on {len(self._domain)} atoms)"

    def inverse(self) -> "Permutation":
        return Permutation({b: a for a, b in self._map.items()}, domain=self._domain)

    def extend(self, domain: Iterable[Atom]) -> "Permutation":
        """The same mapping viewed on a larger domain (new atoms are fixed)."""
        dom = self._domain | frozenset(domain)
        return Permutation(self._map, domain=dom)

    def cycles(self) -> list[tuple[Atom, ...]]:
        """Nontrivial cycles in canonical form.

        Each cycle starts at its least atom; cycles are sorted by that atom.
        """
        seen: set[Atom] = set()
        out: list[tuple[Atom, ...]] = []
        for start in sorted(self._support):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self._map[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self._map[nxt]
            out.append(tuple(cyc))
        return out


def apply(pi: Permutation, obj):
    """Apply ``pi`` to an atom or, structurally, to a compound value.

    Sets and tuples map elementwise (preserving their type); an atom is a
    tuple too, so it is matched first.  Other objects may opt in by providing
    ``_apply_perm``.  Atoms outside the domain are fixed.
    """
    if isinstance(obj, Atom):
        return pi(obj)
    if isinstance(obj, (frozenset, set)):
        return type(obj)(apply(pi, x) for x in obj)
    if isinstance(obj, tuple):
        return tuple(apply(pi, x) for x in obj)
    if hasattr(obj, "_apply_perm"):
        return obj._apply_perm(pi)
    raise InternalError(f"cannot apply a permutation to {type(obj).__name__}")


def compose(pi: Permutation, sigma: Permutation) -> Permutation:
    """The permutation acting as ``pi`` first, then ``sigma``.

    Domains are united; each factor fixes atoms outside its own domain.
    """
    moved = pi.support | sigma.support
    return Permutation({a: sigma(pi(a)) for a in moved}, domain=pi.domain | sigma.domain)


def join(pi: Permutation, sigma: Permutation) -> Permutation | None:
    """Unite two permutations, or ``None`` where the join is undefined.

    Defined iff ``pi`` and ``sigma`` agree on the intersection of their
    domains; the result acts like both factors, on the united domain.
    """
    for a in pi.domain & sigma.domain:
        if pi(a) != sigma(a):
            return None
    return Permutation({**pi._map, **sigma._map}, domain=pi.domain | sigma.domain)


# Permutations one join may yield; past it the join raises BoundExceeded.
JOIN_CAP = 2**16


def join_sets(pis: Iterable[Permutation], sigmas: Iterable[Permutation]) -> frozenset[Permutation]:
    """All defined pairwise joins between two sets of permutations.

    A hash join: for each pair of domains, the members of ``sigmas`` on the
    one are indexed by their images of the atoms it shares with the other,
    and each member of ``pis`` on the other looks up its partners once.  A
    matched pair's join is a permutation by construction, so it is not checked.
    Raises :class:`BoundExceeded` as soon as the result passes :data:`JOIN_CAP`.
    """
    out: set[Permutation] = set()
    by_domain = _by_domain(sigmas)
    for pdom, ps in _by_domain(pis).items():
        for sdom, ss in by_domain.items():
            shared, dom = tuple(pdom & sdom), pdom | sdom
            index: dict[tuple[Atom, ...], list[Permutation]] = {}
            for s in ss:
                index.setdefault(tuple(map(s._map.get, shared, shared)), []).append(s)
            for p in ps:
                for s in index.get(tuple(map(p._map.get, shared, shared)), ()):
                    out.add(Permutation._trusted({**p._map, **s._map}, dom))
                    if len(out) > JOIN_CAP:
                        raise BoundExceeded(f"join exceeds cap of {JOIN_CAP} permutations")
    return frozenset(out)


def _by_domain(perms: Iterable[Permutation]) -> dict[frozenset[Atom], list[Permutation]]:
    groups: dict[frozenset[Atom], list[Permutation]] = {}
    for p in perms:
        groups.setdefault(p.domain, []).append(p)
    return groups


def orbit(perms: Iterable[Permutation] | Permutation, atom: Atom) -> frozenset[Atom]:
    """The orbit of ``atom`` under a permutation or a set of permutations."""
    gens = [perms] if isinstance(perms, Permutation) else list(perms)
    if gens and not any(atom in g.domain for g in gens):
        raise InternalError(f"{atom.qualified()} is outside the permutation domain")
    return orbit_of_states(gens, atom)


def orbit_of_states(perms: Iterable[Permutation] | Permutation, state) -> frozenset:
    """The orbit of an atom or a hashable compound value (e.g. a belief state)."""
    gens = [perms] if isinstance(perms, Permutation) else list(perms)
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for g in gens:
            t = apply(g, s)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return frozenset(seen)


# Elements one group closure may hold; past it the closure raises BoundExceeded.
CLOSURE_CAP = 10**6


def group_closure(gens: Iterable[Permutation]) -> frozenset[Permutation]:
    """Close a generator set under composition (domains united first).

    Dimino's method: a generator new to the group built so far extends it
    by whole cosets of that group, one per new representative, so each
    element is composed once rather than once per generator.  Raises
    :class:`BoundExceeded` when the closure would exceed :data:`CLOSURE_CAP` elements.
    """
    gens = list(gens)
    dom = frozenset().union(*(g.domain for g in gens))
    ident = Permutation.identity(dom)
    group = {ident}
    used: list[Permutation] = []
    for g in (g.extend(dom) for g in gens):
        if g in group:
            continue
        sub = list(group)
        used.append(g)
        reps = [ident]
        for r in reps:
            for s in used:
                x = compose(r, s)
                if x not in group:
                    if len(group) + len(sub) > CLOSURE_CAP:
                        raise BoundExceeded(f"group closure exceeds cap of {CLOSURE_CAP}")
                    group.update(compose(h, x) for h in sub)
                    reps.append(x)
    return frozenset(group)


def perm_sort_key(p: Permutation) -> tuple[int, str]:
    """The canonical order of permutations: support size, then cycle notation.

    Rendered once per permutation and kept on it, for the sorts it meets later.
    """
    try:
        return p._key
    except AttributeError:
        key = (len(p.support), emit_cycles(p))
        object.__setattr__(p, "_key", key)
        return key


def reduce_irredundant(gens: Iterable[Permutation]) -> list[Permutation]:
    """A subset of ``gens`` generating the same group, from which no single
    generator can be dropped.

    One pass, largest support first, drops a generator when the others left
    cover its domain and generate it; one that cannot be dropped stays so
    after later drops.  Membership is tested within the generator's support
    block (the pool members whose supports chain to its own): other blocks
    move disjoint atoms.  :data:`CLOSURE_CAP` bounds the group of one block.
    The result is sorted by ascending support size (ties by cycle notation).
    """
    order = sorted((g for g in dict.fromkeys(gens) if not g.is_identity()), key=perm_sort_key, reverse=True)
    cover = Counter(a for g in order for a in g.domain)
    # per generator: its block's kept members, itself restricted to the
    # block's atoms, and a generating subset (at most log2 |G| members) of
    # the block's later members with their group
    state = {}
    rest = order
    while rest:
        block = _chained(rest[0], rest)
        atoms = frozenset().union(*(g.support for g in block))
        rest = [g for g in rest if g.support.isdisjoint(atoms)]
        kept, later, group = [], [], frozenset()
        for g in reversed(block):
            narrow = Permutation({a: g(a) for a in g.support}, domain=atoms)
            state[g] = (kept, narrow, later, group)
            if narrow not in group:
                later = later + [narrow]
                group = group_closure(later)
    out = []
    for g in order:
        kept, narrow, later, group = state[g]
        if all(cover[a] > 1 for a in g.domain) and (
            narrow in group or narrow in group_closure(_chained(narrow, kept + later))
        ):
            cover.subtract(g.domain)
        else:
            kept.append(narrow)
            out.append(g)
    return sorted(out, key=perm_sort_key)


def _chained(g: Permutation, perms: list[Permutation]) -> list[Permutation]:
    """The members of ``perms`` whose supports chain to that of ``g``, in order."""
    reach, left = g.support, perms
    while hit := [h for h in left if not h.support.isdisjoint(reach)]:
        left = [h for h in left if h.support.isdisjoint(reach)]
        reach = reach.union(*(h.support for h in hit))
    return [h for h in perms if not h.support.isdisjoint(reach)]


def emit_cycles(pi: Permutation) -> str:
    """Canonical cycle notation; the identity emits as the empty string.

    Atom names are qualified with their context id whenever the domain spans
    more than one context.
    """
    ids = {a.context_id for a in pi.domain}
    qualify = len(ids) > 1
    parts = []
    for cyc in pi.cycles():
        names = [a.qualified() if qualify else a.name for a in cyc]
        parts.append("(" + " ".join(names) + ")")
    return "".join(parts)


def parse_cycles(text: str, domain: Iterable[Atom]) -> Permutation:
    """Parse cycle notation like ``(a b)(d e)`` over the given domain.

    Atom tokens are either bare names (which must be unique in the domain) or
    qualified ``<context>.<name>`` forms.  The empty string (or ``()``) is the
    identity.
    """
    dom = frozenset(domain)
    by_name: dict[str, list[Atom]] = {}
    by_qual: dict[str, Atom] = {}
    for a in dom:
        by_name.setdefault(a.name, []).append(a)
        by_qual[a.qualified()] = a

    def resolve(tok: str) -> Atom:
        if tok in by_qual:
            return by_qual[tok]
        hits = by_name.get(tok, [])
        if not hits:
            raise ParseError(f"unknown atom {tok!r} in cycle notation")
        if len(hits) > 1:
            raise ParseError(f"ambiguous atom {tok!r}; qualify it as <context>.<name>")
        return hits[0]

    mapping: dict[Atom, Atom] = {}
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise ParseError(f"unexpected {ch!r} in cycle notation")
        end = text.find(")", i)
        if end < 0:
            raise ParseError("unterminated cycle")
        toks = text[i + 1 : end].replace(",", " ").split()
        i = end + 1
        if not toks:
            continue
        atoms = [resolve(t) for t in toks]
        if len(set(atoms)) != len(atoms):
            raise ParseError("repeated atom within a cycle")
        for a in atoms:
            if a in mapping:
                raise ParseError(f"atom {a.name!r} occurs in two cycles")
        for a, b in zip(atoms, atoms[1:] + atoms[:1]):
            mapping[a] = b
    return Permutation(mapping, domain=dom)
