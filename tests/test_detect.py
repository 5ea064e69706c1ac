"""Detection graphs, local/distributed detection, the node service."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from mcsym import (
    Atom,
    BoundExceeded,
    Context,
    Permutation,
    System,
    TopologySpec,
    brute_force_partial_symmetries,
    build_gap,
    dsd,
    generate,
    graph_perm_to_partial_symmetry,
    group_closure,
    import_closure,
    is_symmetry,
    join_sets,
    lsd,
    parse_system,
    reduce_irredundant,
    rule,
)
from mcsym.autograph import automorphism_generators
from mcsym import detect, perm
from mcsym.detect import DetectionService, PermSet, exported_atoms

from helpers import atoms_of, chain_system, cyc, random_system

FOUR = {"()", "(1.a 1.b)(2.d 2.e)", "(1.a 1.b)(2.d 2.e)(2.f 2.g)", "(2.f 2.g)"}


class TestGapGraph:
    def test_example_context_2_shape(self, example1):
        ctx = example1.context(2)
        gap = build_gap(ctx, 3, "shared", exported_atoms(example1, 2))
        assert gap.graph.n == 16
        assert len(gap.graph.edges) == 18

    def test_example_context_2_colours(self, example1):
        gap = build_gap(example1.context(2), 3, "shared", exported_atoms(example1, 2))
        # top = 3, then: negated = 4, kb bodies = 5, bridge bodies = 6
        counts = Counter(gap.graph.colours)
        assert counts == {1: 2, 2: 4, 4: 6, 5: 2, 6: 2}

    def test_empty_context_gives_empty_graph(self):
        p = Atom(1, "p")
        gap = build_gap(Context(1, (p,), (), ()), 1)
        assert gap.graph.n == 0 and not gap.graph.edges

    def test_single_rule_shape(self):
        p, q = Atom(1, "p"), Atom(1, "q")
        ctx = Context(1, (p, q), (rule(head=[p], pos=[q]),), ())
        gap = build_gap(ctx, 1)
        assert gap.graph.n == 5
        assert len(gap.graph.edges) == 4
        assert Counter(gap.graph.colours) == {1: 2, 2: 2, 3: 1}

    def test_every_occurring_atom_has_a_literal_pair(self, example1):
        gap = build_gap(example1.context(2), 3, "shared", exported_atoms(example1, 2))
        assert set(gap.pos) == set(gap.atoms) == set(gap.neg)
        for a in gap.atoms:
            assert (gap.pos[a], gap.neg[a]) in gap.graph.edges

    def test_local_mode_pins_foreign_and_exported(self, example1):
        ctx = example1.context(2)
        gap = build_gap(ctx, 3, "local", exported_atoms(example1, 2))
        a, b, d, e, f, g = atoms_of(example1, "a", "b", "d", "e", "f", "g")
        pinned = [gap.graph.colours[gap.pos[x]] for x in (a, b, d, e)]
        assert len(set(pinned)) == 4  # fresh singleton colours
        assert gap.graph.colours[gap.pos[f]] == gap.graph.colours[gap.pos[g]] == 2

    def test_translation_reads_atom_permutation(self, example1):
        ctx = example1.context(2)
        gap = build_gap(ctx, 3, "shared", exported_atoms(example1, 2))
        dom = example1.universe(within=[2])
        translated = [
            graph_perm_to_partial_symmetry(gap, vp, dom)
            for vp in automorphism_generators(gap.graph)
        ]
        assert cyc(group_closure(translated)) == FOUR


class TestLsd:
    def test_context_1(self, example1):
        assert cyc(lsd(example1, 1)) == {"()", "(1.a 1.b)(2.d 2.e)"}

    def test_context_2_equals_brute_force(self, example1):
        got = lsd(example1, 2)
        assert cyc(got) == FOUR
        assert got == brute_force_partial_symmetries(example1, [2])

    def test_context_3_trivial(self, example1):
        assert cyc(lsd(example1, 3)) == {"()"}

    def test_domain_is_the_context_universe(self, example1):
        for k in (1, 2, 3):
            dom = example1.universe(within=[k])
            assert all(p.domain == dom for p in lsd(example1, k))

    def test_a_repeated_rule_counts_once(self):
        # context 8 lists the bridge rule a8_1 :- (9:a9_1), not (9:a9_2). twice
        m = generate(TopologySpec("ring", 10, 9, pair_probability=1.0))
        assert len(set(m.context(8).br)) < len(m.context(8).br)
        assert lsd(m, 8) == brute_force_partial_symmetries(m, [8])

    def test_local_mode_yields_whole_system_symmetries(self, example1):
        got = lsd(example1, 2, mode="local")
        assert cyc(got) == {"()", "(2.f 2.g)"}
        for p in got:
            assert is_symmetry(example1, p.extend(example1.universe()))
        assert cyc(lsd(example1, 1, mode="local")) == {"()"}


class TestDsd:
    def test_root_1_equals_closure_oracle(self, example1):
        got = dsd(example1, 1)
        assert cyc(got) == FOUR
        assert cyc(got) == cyc(brute_force_partial_symmetries(example1, [1, 2]))

    def test_root_3(self, example1):
        assert cyc(dsd(example1, 3)) == {"()", "(2.f 2.g)"}

    def test_visited_neighbourhood_collapses_to_local(self, example1):
        for k in (1, 2, 3):
            visited = example1.context(k).imports
            assert dsd(example1, k, visited) == lsd(example1, k)

    def test_all_neighbours_visited_collapses_to_local(self, example1):
        assert dsd(example1, 1, frozenset({2})) == lsd(example1, 1)

    def test_neighbour_order_independence(self):
        # the path-recursive join, with neighbours taken in shuffled order
        rng = random.Random(99)
        for max_contexts, mode in [(4, "shared")] * 10 + [(5, "local")] * 10:
            m = random_system(rng, max_contexts=max_contexts, max_atoms=3)
            root = rng.choice(m.ids)
            expected = dsd(m, root, mode=mode)

            def ref(k, h, order):
                acc = lsd(m, k, mode=mode)
                h2 = h | {k}
                kids = list(m.context(k).imports - h2)
                order.shuffle(kids)
                for i in kids:
                    acc = join_sets(acc, ref(i, h2, order))
                return acc

            for s in (0, 1, 2):
                assert ref(root, frozenset(), random.Random(s)) == expected

    def test_visited_root_is_still_joined(self):
        # the root's local set is joined even when ``visited`` names the root
        rng = random.Random(4242)

        def ref(k, h):
            acc = lsd(m, k)
            for i in sorted(m.context(k).imports - h - {k}):
                acc = join_sets(acc, ref(i, h | {k}))
            return acc

        for _ in range(30):
            m = random_system(rng, max_contexts=4, max_atoms=3, self_reads=True)
            for k in m.ids:
                visited = frozenset(i for i in m.ids if rng.random() < 0.4) | {k}
                assert dsd(m, k, visited) == ref(k, visited)

    def test_oversize_groups_raise_bound_exceeded(self, monkeypatch):
        # every context of the ring carries a swap: the group doubles per context
        m = generate(TopologySpec("ring", 8, 0, pair_probability=1))
        assert len(dsd(m, 1)) == 256
        monkeypatch.setattr(perm, "JOIN_CAP", 100)
        with pytest.raises(BoundExceeded, match="cap of 100"):
            dsd(m, 1)
        with pytest.raises(BoundExceeded, match="cap of 100"):
            DetectionService(m).request(1)

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(41)
        for _ in range(15):
            m = random_system(rng, max_contexts=3, max_atoms=3)
            for k in m.ids:
                want = brute_force_partial_symmetries(m, sorted(import_closure(m, k)))
                assert dsd(m, k) == want

    def test_matches_brute_force_when_rules_repeat(self):
        # rules are compared as sets, so a repeated rule must not split a symmetry
        rng = random.Random(7)
        for _ in range(300):
            m = random_system(rng, max_contexts=3, max_atoms=3, repeat_rules=True)
            for k in m.ids:
                assert dsd(m, k) == brute_force_partial_symmetries(m, sorted(import_closure(m, k)))


class TestExports:
    def test_export_map_matches_a_scan_of_the_bridges(self):
        rng = random.Random(17)
        for _ in range(40):
            m = random_system(rng, max_contexts=4, max_atoms=3, self_reads=True)
            for k in m.ids:
                want = {
                    a
                    for c in m.contexts
                    if c.id != k
                    for b in c.br
                    for a in b.body_pos | b.body_neg
                    if a.context_id == k
                }
                assert exported_atoms(m, k) == want
            assert m.exports is m.exports  # built once per system


class TestService:
    def test_single_request_matches_dsd(self, example1):
        svc = DetectionService(example1)
        got = svc.request(1)
        assert got.complete
        assert got.perms == dsd(example1, 1)

    def test_second_request_is_served_from_cache(self, example1):
        svc = DetectionService(example1)
        first = svc.request(1)
        hits_before = dict(svc.cache_hits)
        second = svc.request(1)
        assert second.perms == first.perms
        assert all(hits_before[k] <= svc.cache_hits[k] for k in svc.cache_hits)
        touched = [k for k, n in svc.requests.items() if n]
        assert touched and all(svc.cache_hits[k] >= 1 for k in touched)

    def test_requests_stay_inside_import_closure(self, example1):
        svc = DetectionService(example1)
        svc.request(1)
        assert svc.requests[3] == 0

    def test_long_import_chain_needs_no_recursion(self):
        # open requests are kept on the service's own stack
        m = chain_system(1100)
        svc = DetectionService(m)
        assert svc.request(1).perms == dsd(m, 1)
        assert len(svc.log) == 3301 and set(svc.requests.values()) == {1}

    def test_log_carries_wire_format(self, example1):
        svc = DetectionService(example1)
        svc.request(3)
        assert any(line.startswith("DSD 3 H=-") for line in svc.log)
        assert any(line.startswith("PERMSET ") for line in svc.log)
        assert "(2.f 2.g)" in svc.log

    def test_log_keeps_the_newest_lines(self, example1, monkeypatch):
        full = DetectionService(example1)
        full.request(1)
        assert len(full.log) > 3
        monkeypatch.setattr(detect, "LOG_LINES", 3)
        svc = DetectionService(example1)
        svc.request(1)
        assert list(svc.log) == list(full.log)[-3:]

    def test_log_keeps_the_newest_lines_at_every_limit(self, monkeypatch):
        # replies are cut by the limit mid-reply and across several requests
        m = generate(TopologySpec("diamond", 4, 0))

        def exchange() -> DetectionService:
            svc = DetectionService(m, message_cap=2)
            for k in (1, 2, 1):
                svc.request(k)
            return svc

        full = list(exchange().log)
        assert len(full) > 10
        for limit in range(len(full) + 2):
            monkeypatch.setattr(detect, "LOG_LINES", limit)
            svc = exchange()
            assert len(svc.log) == min(limit, len(full))
            assert list(svc.log) == full[len(full) - len(svc.log):]

    def test_degrades_to_generators_over_message_cap(self, example1):
        svc = DetectionService(example1, message_cap=1)
        got = svc.request(1)
        assert not got.complete
        assert len(got.perms) <= 2
        assert cyc(group_closure(got.perms)) == FOUR

    def test_degraded_replies_generate_the_dsd_group(self):
        # one outside request asks each context it reaches exactly once, and
        # every reply, not only the root's, generates the uncapped reply
        def replies(svc: DetectionService) -> list[PermSet]:
            return [entry for entry in svc.log._entries if isinstance(entry, PermSet)]

        rng = random.Random(2024)
        cases = []
        for _ in range(40):
            m = random_system(rng, max_contexts=4, max_atoms=3)
            cases.extend((m, k) for k in m.ids)
        cases.append((generate(TopologySpec("diamond", 10, 0)), 1))
        for m, k in cases:
            uncapped = DetectionService(m, message_cap=10**9)
            assert uncapped.request(k).perms == dsd(m, k)
            want = [reply.perms for reply in replies(uncapped)]
            assert len(want) == len(import_closure(m, k))
            for message_cap in (0, 1, 2, 4):
                svc = DetectionService(m, message_cap=message_cap)
                svc.request(k)
                got = [r.perms if r.complete else group_closure(r.perms) for r in replies(svc)]
                assert got == want, (k, message_cap)
                assert sum(svc.requests.values()) == len(import_closure(m, k)), (k, message_cap)

    def test_a_join_past_the_cap_raises_before_the_set_is_reduced(self, monkeypatch):
        # the node asking joins a child's set before the child's reply is built
        m = generate(TopologySpec("ring", 8, 0, pair_probability=1))
        monkeypatch.setattr(perm, "JOIN_CAP", 100)
        sizes = []

        def spy(perms):
            sizes.append(len(perms))
            return reduce_irredundant(perms)

        monkeypatch.setattr(detect, "reduce_irredundant", spy)
        with pytest.raises(BoundExceeded, match="exceeds cap of 100"):
            DetectionService(m, message_cap=4).request(1)
        assert sizes == [8, 16, 32]

    def test_visited_root_is_still_asked(self, example1):
        # the root is asked even when ``visited`` names it, and H says so
        four = sorted(FOUR)
        cases = {
            (1, (1,)): ["DSD 1 H=1", "DSD 2 H=1", "PERMSET 4", *four, "PERMSET 4", *four],
            (2, (1, 2)): ["DSD 2 H=1,2", "PERMSET 4", *four],
            (3, (2, 3)): ["DSD 3 H=2,3", "DSD 1 H=2,3", "PERMSET 2", "()", "(1.a 1.b)(2.d 2.e)",
                          "PERMSET 1", "()"],
            (3, (3,)): ["DSD 3 H=3", "DSD 1 H=3", "DSD 2 H=1,3", "PERMSET 4", *four,
                        "PERMSET 4", *four, "PERMSET 2", "()", "(2.f 2.g)"],
        }
        for (k, visited), log in cases.items():
            svc = DetectionService(example1)
            got = svc.request(k, frozenset(visited))
            assert got.complete and list(svc.log) == log
            assert got.perms == dsd(example1, k, frozenset(visited))
            assert svc.requests[k] == 1

    def test_uncapped_reply_is_dsd_from_any_visited_set(self):
        rng = random.Random(2026)
        for _ in range(40):
            m = random_system(rng, max_contexts=5, max_atoms=3, self_reads=True)
            svc = DetectionService(m, message_cap=10**9)
            for k in m.ids:
                visited = frozenset(i for i in m.ids if rng.random() < 0.3)
                got = svc.request(k, visited)
                assert got.complete and got.perms == dsd(m, k, visited), (k, visited)

    def test_concurrent_roots_agree_with_dsd(self, example1):
        svc = DetectionService(example1)
        for k in (1, 2, 3):
            assert svc.request(k).perms == dsd(example1, k)


UNUSED_PAIR = """\
mcs 2
context 1
  atoms p q r s
  kb
    p :- s.
  br
context 2
  atoms t
  kb
    t.
  br
    t :- (1:q), (1:r).
    t :- (1:s).
"""


@pytest.fixture(scope="module")
def unused_pair():
    return parse_system(UNUSED_PAIR)


class TestUnconstrainedAtoms:
    """Atoms no rule of their own context touches still permute freely."""

    def test_local_detection_includes_free_swap(self, unused_pair):
        assert cyc(lsd(unused_pair, 1)) == {"()", "(q r)"}

    def test_local_detection_matches_brute_force(self, unused_pair):
        assert lsd(unused_pair, 1) == brute_force_partial_symmetries(unused_pair, [1])

    def test_join_preserves_the_free_swap(self, unused_pair):
        got = dsd(unused_pair, 2)
        assert got == brute_force_partial_symmetries(unused_pair, [1, 2])
        assert cyc(got) == {"()", "(1.q 1.r)"}

    def test_exported_free_atoms_stay_pinned_in_local_mode(self, unused_pair):
        assert cyc(lsd(unused_pair, 1, mode="local")) == {"()"}
