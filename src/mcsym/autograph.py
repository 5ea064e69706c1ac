"""Automorphisms of vertex-coloured directed graphs.

Small, dependency-free search tuned for the graphs this package builds: a few
hundred vertices with many colour classes.  Colour refinement is partition
refinement driven by a queue of splitter cells (Paige & Tarjan 1987, as in
nauty): only the vertices next to a splitter are counted, and only the cells
they touch split.  The graph's adjacency is built once per search, a vertex
is individualized by splitting it off its cell and refining from that
singleton alone, and a cell's colour is its start position in the ordered
partition, so isomorphic graphs refine to corresponding colourings.  As in
nauty/Traces, one individualization-refinement procedure finds both the
stabilizer chain and one coset representative per candidate image, which
together generate the full automorphism group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import permutations, product
from typing import NamedTuple, Sequence

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


class Partition(NamedTuple):
    """An ordered partition of the vertices; a cell's colour is its start position."""

    colour: list[int]  # per vertex
    cells: dict[int, list[int]]  # colour -> the cell's vertices, ascending


Adjacency = tuple[list[list[int]], list[list[int]]]  # out- and in-neighbours


def _adjacency(g: Graph) -> Adjacency:
    out: list[list[int]] = [[] for _ in range(g.n)]
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        out[u].append(v)
        inc[v].append(u)
    return out, inc


def _refine(adj: Adjacency, colour: list[int], cells: dict[int, list[int]], queue: list[int]) -> None:
    """Split cells in place until the partition is equitable.

    Splitters are taken from ``queue`` smallest colour first.  Only the
    vertices next to a splitter get a count of their out-edges into it and
    in-edges from it; each cell they touch splits by that count, its parts
    ordered by count.  A split cell that was queued queues all its parts;
    any other cell queues all but its first largest part.
    """
    out, inc = adj
    step = len(colour) + 1  # one in-edge outweighs every out-edge
    queued = set(queue)
    heapify(queue)
    while queue:
        s = heappop(queue)
        queued.discard(s)
        count: dict[int, int] = {}
        get = count.get
        for v in cells[s]:
            for u in inc[v]:
                count[u] = get(u, 0) + 1
            for w in out[v]:
                count[w] = get(w, 0) + step
        touched: dict[int, list[int]] = {}  # non-singleton cells only
        for u in count:
            c = colour[u]
            if c in touched:
                touched[c].append(u)
            elif len(cells[c]) > 1:
                touched[c] = [u]
        for c, us in touched.items():
            vs = cells[c]
            if len(us) == len(vs) and all(count[u] == count[us[0]] for u in us):
                continue
            parts: dict[int, list[int]] = {}
            for v in vs:
                parts.setdefault(get(v, 0), []).append(v)
            ordered = [parts[k] for k in sorted(parts)]
            skip = 0 if c in queued else ordered.index(max(ordered, key=len))
            start = c
            for i, part in enumerate(ordered):
                if i:
                    for v in part:
                        colour[v] = start
                cells[start] = part
                if i != skip:
                    queued.add(start)
                    heappush(queue, start)
                start += len(part)


def _partition(adj: Adjacency, colours: Sequence[int]) -> Partition:
    """The coarsest equitable partition refining ``colours``.

    Its cells start in the order of the colour values they refine.
    """
    colour = [0] * len(colours)
    cells: dict[int, list[int]] = {}
    start = 0
    for _, vs in sorted(_cells(colours).items()):
        cells[start] = vs
        for v in vs:
            colour[v] = start
        start += len(vs)
    _refine(adj, colour, cells, list(cells))
    return Partition(colour, cells)


def _individualized(adj: Adjacency, part: Partition, v: int) -> Partition:
    """``part`` with ``v`` split off behind the rest of its cell, refined from ``{v}``."""
    colour, cells = part.colour.copy(), part.cells.copy()
    c = colour[v]
    rest = [w for w in cells[c] if w != v]
    cells[c] = rest
    colour[v] = c + len(rest)
    cells[colour[v]] = [v]
    _refine(adj, colour, cells, [colour[v]])
    return Partition(colour, cells)


def refine_colouring(g: Graph, colours: Sequence[int] | None = None) -> tuple[int, ...]:
    """The coarsest equitable refinement of ``colours`` (default ``g.colours``).

    Every vertex of a cell has as many out- and in-neighbours in each cell
    as any other.  A colour is the start of its cell in an order derived
    from the colour values and edge counts only, so relabelling the vertices
    relabels the refined colouring correspondingly.
    """
    return tuple(_partition(_adjacency(g), g.colours if colours is None else colours).colour)


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


def _target_cell(cells: dict[int, list[int]]) -> list[int] | None:
    """The smallest non-singleton cell, ties broken by least vertex."""
    big = (vs for vs in cells.values() if len(vs) > 1)
    return min(big, key=lambda vs: (len(vs), vs[0]), default=None)


def _search_mapped(g: Graph, adj: Adjacency, p1: Partition, p2: Partition) -> VertexPerm | None:
    """One automorphism sending each cell of equitable p1 onto p2's of its colour.

    Tries the in-order pairing of each cell first; recursion depth is the
    number of individualized vertices, not g.n.
    """
    cells1, cells2 = p1.cells, p2.cells
    perm = [0] * g.n
    for c, vs in cells1.items():
        ws = cells2.get(c, ())
        if len(ws) != len(vs):  # the colourings differ
            return None
        for v, w in zip(vs, ws):
            perm[v] = w
    # cells refine g's colours alike, so the pairing keeps them
    if all((perm[u], perm[v]) in g.edges for u, v in g.edges):
        return tuple(perm)
    cell = _target_cell(cells1)
    if cell is None:
        return None
    fixed = _individualized(adj, p1, cell[0])
    for w in cells2[p1.colour[cell[0]]]:
        a = _search_mapped(g, adj, fixed, _individualized(adj, p2, w))
        if a is not None:
            return a
    return None


def automorphism_generators(g: Graph) -> list[VertexPerm]:
    """Generators of the automorphism group of a coloured digraph.

    Orbit-stabilizer scheme: pick the smallest non-singleton cell after
    refinement, individualize its least vertex (the next level gives the
    stabilizer's generators), and add one automorphism mapping the least
    vertex to each other cell member that admits one.
    """
    if g.n > 10**4:
        raise BoundExceeded(f"graph has {g.n} vertices (bound {10**4})")
    adj = _adjacency(g)
    return _generators(g, adj, _partition(adj, g.colours))


def _generators(g: Graph, adj: Adjacency, part: Partition) -> list[VertexPerm]:
    levels: list[list[VertexPerm]] = []  # top level first
    while (cell := _target_cell(part.cells)) is not None:
        fixed = _individualized(adj, part, cell[0])
        found = (_search_mapped(g, adj, fixed, _individualized(adj, part, vj)) for vj in cell[1:])
        levels.append([a for a in found if a is not None])
        part = fixed
    # the deepest stabilizer's generators come first
    return [a for level in reversed(levels) for a in level]


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


# a number field of the dump; ``int`` alone also reads ``+1``, ``1_0`` and ``١``
_INT_RE = re.compile(r"-?[0-9]+")


def parse_graph(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("graph "):
        raise ParseError("expected 'graph <V> <E> <C>' header")
    head = lines[0].split()
    if len(head) != 4 or not all(map(_INT_RE.fullmatch, head[1:])):
        raise ParseError("malformed graph header")
    n, e_count, c_count = map(int, head[1:])
    if n < 0:
        raise ParseError(f"negative vertex count {n}")
    colours: list[int | None] = [None] * n
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in ("c", "e"):
            raise ParseError(f"unrecognized line {ln!r}")
        if not all(map(_INT_RE.fullmatch, parts[1:])):
            raise ParseError(f"non-integer field in {ln!r}")
        a, b = int(parts[1]), int(parts[2])
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
