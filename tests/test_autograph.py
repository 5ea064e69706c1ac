"""Coloured-digraph automorphisms: solver vs. brute-force oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsym import (
    BoundExceeded,
    Graph,
    ParseError,
    automorphism_generators,
    is_automorphism,
    refine_colouring,
)
from mcsym.autograph import automorphisms_brute, emit_graph, parse_graph

from helpers import signature_refinement


def vclose(gens, n):
    """Group closure of vertex permutations (tuples)."""
    ident = tuple(range(n))
    group = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[p[i]] for i in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


class TestIsAutomorphism:
    def test_identity(self):
        g = Graph((0, 0, 1), frozenset({(0, 1), (1, 2)}))
        assert is_automorphism(g, (0, 1, 2))

    def test_swap_of_isolated_same_coloured(self):
        g = Graph((0, 0), frozenset())
        assert is_automorphism(g, (1, 0))

    def test_swap_across_colours_rejected(self):
        g = Graph((0, 1), frozenset())
        assert not is_automorphism(g, (1, 0))

    def test_orientation_matters(self):
        g = Graph((0, 0), frozenset({(0, 1)}))
        assert not is_automorphism(g, (1, 0))


_C6_2C3 = {(i, (i + 1) % 6) for i in range(6)} | {(6, 7), (7, 8), (8, 6), (9, 10), (10, 11), (11, 9)}


class TestGenerators:
    def test_two_isolated_vertices(self):
        g = Graph((0, 0), frozenset())
        gens = automorphism_generators(g)
        assert gens == [(1, 0)]

    def test_directed_three_cycle(self):
        g = Graph((0, 0, 0), frozenset({(0, 1), (1, 2), (2, 0)}))
        gens = automorphism_generators(g)
        assert len(vclose(gens, 3)) == 3

    @pytest.mark.parametrize(
        "n,edges,order",
        [
            (6, {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)}, 18),
            # every vertex refines to one colour, yet no automorphism maps a
            # hexagon vertex onto a triangle vertex
            (12, _C6_2C3 | {(v, u) for u, v in _C6_2C3}, 864),
        ],
        ids=["two-directed-3-cycles", "undirected-C6-and-two-C3"],
    )
    def test_group_order_of_disjoint_cycles(self, n, edges, order):
        g = Graph((0,) * n, frozenset(edges))
        assert len(vclose(automorphism_generators(g), n)) == order

    def test_long_graph_with_one_swap(self):
        # a search that recursed once per vertex exceeded Python's stack here
        n = 1100
        colours = tuple(range(n - 2)) + (n - 2, n - 2)
        g = Graph(colours, frozenset((v, v + 1) for v in range(n - 3)))
        swap = tuple(range(n - 2)) + (n - 1, n - 2)
        assert automorphism_generators(g) == [swap]

    def test_many_twin_pairs(self):
        # one stabilizer level per pair: 1,000 levels must not take 1,000
        # stack frames
        for k in (150, 1000):
            g = Graph(tuple(v // 2 for v in range(2 * k)), frozenset())
            swaps = []
            for i in range(k):
                p = list(range(2 * k))
                p[2 * i], p[2 * i + 1] = 2 * i + 1, 2 * i
                swaps.append(tuple(p))
            assert sorted(automorphism_generators(g)) == sorted(swaps)

    def test_empty_graph(self):
        g = Graph((), frozenset())
        assert automorphism_generators(g) == []

    def test_every_generator_is_an_automorphism(self):
        g = Graph((0, 0, 0, 1, 1), frozenset({(0, 3), (1, 3), (2, 4)}))
        for p in automorphism_generators(g):
            assert is_automorphism(g, p)

    def test_determinism(self):
        g = Graph((0, 0, 0, 0), frozenset({(0, 1), (1, 0)}))
        assert automorphism_generators(g) == automorphism_generators(g)

    def test_vertex_bound(self):
        g = Graph((0,) * 10_001, frozenset())
        with pytest.raises(BoundExceeded):
            automorphism_generators(g)


class TestRefine:
    def test_discrete_colouring_unchanged(self):
        g = Graph((0, 1, 2), frozenset({(0, 1)}))
        refined = refine_colouring(g)
        assert len(set(refined)) == 3

    def test_path_splits_uniform_colouring(self):
        g = Graph((0, 0, 0), frozenset({(0, 1), (1, 2)}))
        refined = refine_colouring(g)
        assert len(set(refined)) == 3

    def test_refinement_is_idempotent(self):
        g = Graph((0, 0, 0, 0), frozenset({(0, 1), (2, 3), (3, 2)}))
        once = refine_colouring(g)
        again = refine_colouring(Graph(once, g.edges))
        cells_once = sorted(sorted(i for i, c in enumerate(once) if c == x) for x in set(once))
        cells_again = sorted(sorted(i for i, c in enumerate(again) if c == x) for x in set(again))
        assert cells_once == cells_again

    def test_refinement_preserves_automorphisms(self):
        g = Graph((0, 0, 0, 0), frozenset({(0, 1), (1, 0), (2, 3)}))
        refined = refine_colouring(g)
        for p in automorphisms_brute(g):
            assert is_automorphism(Graph(refined, g.edges), p)


class TestFormat:
    def test_round_trip(self):
        g = Graph((0, 1, 1), frozenset({(0, 1), (2, 0)}))
        assert parse_graph(emit_graph(g)) == g

    def test_header(self):
        g = Graph((0, 1, 1), frozenset({(0, 1), (2, 0)}))
        assert emit_graph(g).splitlines()[0] == "graph 3 2 2"

    @pytest.mark.parametrize(
        "text",
        [
            "graph 2 0 1\nc 0 0\n",  # vertex 1 has no colour
            "graph 2 0 1\nc 0 0\nc -1 0\n",
            "graph 2 0 1\nc 0 0\nc 5 0\n",
            "graph 2 0 1\nc 0 0\nc x 0\n",
            "graph 2 0 2\nc 0 0\nc 0 1\nc 1 0\n",
            "graph 2 1 1\nc 0 0\nc 1 0\ne 0 y\n",
            "graph -1 0 0\n",
            "graph 2 0 1\nc 0 0\nc \u0661 0\n",
            "graph \u0662 0 1\nc 0 0\nc 1 0\n",
            "graph 2 0 1\nc 0 0\nc 1 0_0\n",
            "graph 2 0 1\nc 0 0\nc +1 0\n",
        ],
        ids=[
            "uncoloured", "negative", "out-of-range", "non-integer", "coloured-twice",
            "edge-non-integer", "negative-vertex-count", "arabic-indic-vertex",
            "arabic-indic-header", "underscore-in-a-colour", "plus-signed-vertex",
        ],
    )
    def test_rejects_bad_vertex_lines(self, text):
        with pytest.raises(ParseError):
            parse_graph(text)


# ---------------------------------------------------------------------------
# oracle equivalence on random graphs


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 7))
    colours = tuple(draw(st.integers(0, 2)) for _ in range(n))
    edges = set()
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                edges.add((u, v))
    return Graph(colours, frozenset(edges))


@settings(max_examples=40)
@given(graphs())
def test_generators_match_brute_force(g):
    gens = automorphism_generators(g)
    for p in gens:
        assert is_automorphism(g, p)
    assert vclose(gens, g.n) == set(automorphisms_brute(g))


def _relabelled(g, rng):
    """``g`` with vertex ``v`` renamed ``relabel[v]`` for a random ``relabel``."""
    relabel = list(range(g.n))
    rng.shuffle(relabel)
    colours = [0] * g.n
    for v in range(g.n):
        colours[relabel[v]] = g.colours[v]
    edges = frozenset((relabel[u], relabel[v]) for u, v in g.edges)
    return Graph(tuple(colours), edges), relabel


@settings(max_examples=20)
@given(graphs(), st.randoms(use_true_random=False))
def test_group_size_is_relabeling_invariant(g, rng):
    h, _ = _relabelled(g, rng)
    assert len(vclose(automorphism_generators(g), g.n)) == len(
        vclose(automorphism_generators(h), h.n)
    )


def _cells_of(colours):
    return sorted(sorted(v for v, c in enumerate(colours) if c == x) for x in set(colours))


@settings(max_examples=60)
@given(graphs(), st.randoms(use_true_random=False))
def test_refinement_is_equivariant_and_matches_the_signature_rounds(g, rng):
    h, relabel = _relabelled(g, rng)
    refined, moved = refine_colouring(g), refine_colouring(h)
    assert all(moved[relabel[v]] == refined[v] for v in range(g.n))
    assert _cells_of(refined) == _cells_of(signature_refinement(g))
