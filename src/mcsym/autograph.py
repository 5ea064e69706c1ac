"""Automorphisms of vertex-coloured directed graphs.

Small, dependency-free search tuned for the graphs this package builds: a few
hundred vertices with many colour classes.  Colour refinement propagates
(in, out)-degree information per colour until stable.  As in nauty/Traces,
one individualization-refinement procedure finds both the stabilizer chain
and one coset representative per candidate image, which together generate
the full automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Sequence

from .errors import BoundExceeded, ParseError

VertexPerm = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    colours: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        n = len(self.colours)
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range for {n} vertices")

    @property
    def n(self) -> int:
        return len(self.colours)


def refine_colouring(g: Graph, colours: Sequence[int] | None = None) -> tuple[int, ...]:
    """Stable colour refinement by per-colour in/out degree signatures.

    Deterministic and independent of vertex numbering: new colour ids are
    assigned by sorting signatures, so isomorphic coloured graphs refine to
    corresponding colourings.
    """
    cur = list(g.colours if colours is None else colours)
    out: list[list[int]] = [[] for _ in range(g.n)]
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        out[u].append(v)
        inc[v].append(u)
    while True:
        sigs = []
        for v in range(g.n):
            sigs.append(
                (
                    cur[v],
                    tuple(sorted(cur[w] for w in out[v])),
                    tuple(sorted(cur[w] for w in inc[v])),
                )
            )
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        nxt = [order[s] for s in sigs]
        if nxt == cur:
            return tuple(nxt)
        cur = nxt


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    if sorted(perm) != list(range(g.n)):
        return False
    if any(g.colours[perm[v]] != g.colours[v] for v in range(g.n)):
        return False
    return frozenset((perm[u], perm[v]) for u, v in g.edges) == g.edges


def _cells(colours: Sequence[int]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        cells.setdefault(c, []).append(v)
    return cells


def _individualize(colours: Sequence[int], v: int) -> list[int]:
    out = list(colours)
    out[v] = max(colours) + 1
    return out


def _target_cell(cells: dict[int, list[int]]) -> list[int] | None:
    """The smallest non-singleton class, ties broken by least vertex."""
    big = (vs for vs in cells.values() if len(vs) > 1)
    return min(big, key=lambda vs: (len(vs), vs[0]), default=None)


def _search_mapped(g: Graph, c1: Sequence[int], c2: Sequence[int]) -> VertexPerm | None:
    """One automorphism sending each colour class of stable c1 onto c2's.

    Tries the in-order pairing of each class first; recursion depth is the
    number of individualized vertices, not g.n.
    """
    if sorted(c1) != sorted(c2):
        return None
    images = {c: iter(vs) for c, vs in _cells(c2).items()}
    perm = [next(images[c]) for c in c1]
    if is_automorphism(g, perm):
        return tuple(perm)
    cell = _target_cell(_cells(c1))
    if cell is None:
        return None
    c_fixed = refine_colouring(g, _individualize(c1, cell[0]))
    for w in _cells(c2)[c1[cell[0]]]:
        a = _search_mapped(g, c_fixed, refine_colouring(g, _individualize(c2, w)))
        if a is not None:
            return a
    return None


def automorphism_generators(g: Graph) -> list[VertexPerm]:
    """Generators of the automorphism group of a coloured digraph.

    Orbit-stabilizer scheme: pick the smallest non-singleton colour class
    after refinement, individualize its least vertex (recursing gives the
    stabilizer's generators), and add one automorphism mapping the least
    vertex to each other class member that admits one.
    """
    if g.n > 10**4:
        raise BoundExceeded(f"graph has {g.n} vertices (bound {10**4})")
    return _generators(g, refine_colouring(g))


def _generators(g: Graph, colours: tuple[int, ...]) -> list[VertexPerm]:
    cell = _target_cell(_cells(colours))
    if cell is None:
        return []
    c_fixed = refine_colouring(g, _individualize(colours, cell[0]))
    gens = _generators(g, c_fixed)
    for vj in cell[1:]:
        a = _search_mapped(g, c_fixed, refine_colouring(g, _individualize(colours, vj)))
        if a is not None:
            gens.append(a)
    return gens


def automorphisms_brute(g: Graph, class_bound: int = 8) -> frozenset[VertexPerm]:
    """All automorphisms by blockwise exhaustive search (testing oracle)."""
    cells = _cells(g.colours)
    for c, vs in cells.items():
        if len(vs) > class_bound:
            raise BoundExceeded(f"{len(vs)} vertices of colour {c} (bound {class_bound})")
    blocks = [sorted(vs) for _, vs in sorted(cells.items())]
    out = []
    for images in product(*(permutations(b) for b in blocks)):
        perm = [0] * g.n
        for block, img in zip(blocks, images):
            for v, w in zip(block, img):
                perm[v] = w
        p = tuple(perm)
        if is_automorphism(g, p):
            out.append(p)
    return frozenset(out)


# ---------------------------------------------------------------------------
# dump format


def emit_graph(g: Graph) -> str:
    lines = [f"graph {g.n} {len(g.edges)} {len(set(g.colours))}"]
    for v, c in enumerate(g.colours):
        lines.append(f"c {v} {c}")
    for u, v in sorted(g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("graph "):
        raise ParseError("expected 'graph <V> <E> <C>' header")
    try:
        _, v_s, e_s, c_s = lines[0].split()
        n, e_count, c_count = int(v_s), int(e_s), int(c_s)
    except ValueError:
        raise ParseError("malformed graph header") from None
    colours: list[int | None] = [None] * n
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in ("c", "e"):
            raise ParseError(f"unrecognized line {ln!r}")
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer field in {ln!r}") from None
        if parts[0] == "e":
            edges.add((a, b))
        elif not 0 <= a < n:
            raise ParseError(f"vertex {a} out of range for {n} vertices")
        elif colours[a] is not None:
            raise ParseError(f"vertex {a} coloured twice")
        else:
            colours[a] = b
    if None in colours:
        raise ParseError(f"vertex {colours.index(None)} has no colour")
    if len(edges) != e_count:
        raise ParseError(f"header declares {e_count} edges, found {len(edges)}")
    g = Graph(tuple(colours), frozenset(edges))
    if len(set(g.colours)) != c_count:
        raise ParseError(f"header declares {c_count} colours, found {len(set(g.colours))}")
    return g
