"""Topology generators, reproducibility, the detect/break/solve pipeline, reports."""

from __future__ import annotations

import csv
import io
import json

import pytest

from mcsym import (
    ParseError,
    RunReport,
    TopologySpec,
    emit_system,
    evaluate_distributed,
    generate,
    parse_system,
    report_table,
    run_pipeline,
    topology_edges,
)


class TestTopologies:
    def test_house_of_five(self):
        edges = topology_edges(TopologySpec("house", 5, seed=0))
        assert edges == {(1, 2), (1, 3), (2, 4), (4, 3), (3, 5), (5, 2)}
        assert len(edges) == 6

    def test_house_walls_form_a_four_edge_cycle(self):
        edges = topology_edges(TopologySpec("house", 5, seed=0))
        cycle = {(2, 4), (4, 3), (3, 5), (5, 2)}
        assert cycle <= edges
        assert edges - cycle == {(1, 2), (1, 3)}

    def test_stacked_houses_reuse_basements_as_ridges(self):
        edges = topology_edges(TopologySpec("house", 13, seed=0))
        assert len(edges) == 18
        ridges = {u for u, _ in edges if len([e for e in edges if e[0] == u]) >= 2}
        assert {1, 4, 5} <= ridges

    def test_diamond_middles_unconnected(self):
        edges = topology_edges(TopologySpec("diamond", 4, seed=0))
        assert edges == {(1, 2), (1, 3), (2, 4), (3, 4)}
        assert (2, 3) not in edges and (3, 2) not in edges

    def test_zigzag_adds_the_middle_tie(self):
        d = topology_edges(TopologySpec("diamond", 4, seed=0))
        z = topology_edges(TopologySpec("zigzag", 4, seed=0))
        assert z == d | {(2, 3)}

    def test_stacked_diamonds_share_contexts(self):
        edges = topology_edges(TopologySpec("diamond", 7, seed=0))
        assert edges == {
            (1, 2), (1, 3), (2, 4), (3, 4),
            (4, 5), (4, 6), (5, 7), (6, 7),
        }

    def test_two_ring(self):
        assert topology_edges(TopologySpec("ring", 2, seed=0)) == {(1, 2), (2, 1)}

    def test_five_ring(self):
        assert topology_edges(TopologySpec("ring", 5, seed=0)) == {
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        }

    @pytest.mark.parametrize(
        "topology,n",
        [
            ("diamond", 3),
            ("diamond", 5),
            ("zigzag", 6),
            ("house", 4),
            ("house", 6),
            ("ring", 1),
        ],
    )
    def test_bad_sizes_rejected(self, topology, n):
        with pytest.raises(ParseError):
            TopologySpec(topology, n, seed=0)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ParseError):
            TopologySpec("torus", 4, seed=0)

    def test_tiny_alphabets_rejected(self):
        with pytest.raises(ParseError):
            TopologySpec("ring", 2, seed=0, atoms_per_context=2)


class TestGenerate:
    @pytest.mark.parametrize(
        "topology,n",
        [("diamond", 4), ("zigzag", 4), ("house", 5), ("ring", 3)],
    )
    def test_instances_are_well_formed(self, topology, n):
        for seed in (0, 1):
            m = generate(TopologySpec(topology, n, seed=seed))
            assert len(m.contexts) == n
            assert parse_system(emit_system(m)) == m

    def test_bridges_follow_the_topology(self):
        spec = TopologySpec("diamond", 4, seed=3)
        m = generate(spec)
        edges = topology_edges(spec)
        for c in m.contexts:
            referenced = {
                a.context_id for b in c.br for a in b.body_pos | b.body_neg
            }
            assert referenced <= {v for u, v in edges if u == c.id}
        for u in {u for u, _ in edges}:
            assert m.context(u).br

    def test_regeneration_is_byte_identical(self):
        spec = TopologySpec("house", 5, seed=11)
        assert emit_system(generate(spec)) == emit_system(generate(spec))

    def test_seed_changes_the_instance(self):
        a = emit_system(generate(TopologySpec("diamond", 4, seed=0)))
        b = emit_system(generate(TopologySpec("diamond", 4, seed=1)))
        assert a != b


class TestPipeline:
    def test_baseline_mode_only_solves(self):
        m = generate(TopologySpec("ring", 2, seed=5))
        r = run_pipeline(m, 1, mode="none", topology="ring", n=2, seed=5)
        assert r.mode == "none"
        assert r.after == r.before == len(evaluate_distributed(m, 1))
        assert r.compression == 0.0
        assert r.generator_count == 0
        assert r.instance == "ring-n2-s5"

    @pytest.mark.parametrize("mode", ["full", "generators"])
    def test_breaking_never_adds_states(self, mode):
        for seed in (0, 1, 2):
            m = generate(TopologySpec("ring", 2, seed=seed))
            r = run_pipeline(m, 1, mode=mode)
            assert r.after <= r.before
            assert 0.0 <= r.compression <= 1.0
            assert r.compression == pytest.approx(1.0 - r.after / r.before)

    def test_full_mode_reports_the_group(self):
        m = generate(TopologySpec("diamond", 4, seed=2))
        r = run_pipeline(m, 1, mode="full")
        assert r.group_size >= 1
        assert r.generator_count == r.group_size - 1  # whole set minus identity

    def test_unknown_mode_rejected(self):
        m = generate(TopologySpec("ring", 2, seed=0))
        with pytest.raises(ParseError):
            run_pipeline(m, 1, mode="everything")

    def test_negative_bound_rejected(self):
        m = generate(TopologySpec("ring", 2, seed=0))
        with pytest.raises(ParseError, match="bound"):
            run_pipeline(m, 1, mode="none", bound=-1)


def fake_report(**overrides) -> RunReport:
    base = dict(
        instance="ring-n2-s0",
        topology="ring",
        n=2,
        seed=0,
        root=1,
        mode="full",
        before=8,
        after=4,
        compression=0.5,
        group_size=4,
        generator_count=2,
        t_detect=0.01,
        t_break=0.002,
        t_solve_before=0.03,
        t_solve_after=0.02,
    )
    base.update(overrides)
    return RunReport(**base)


class TestReports:
    def test_empty_report_is_header_only(self):
        text = report_table([])
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].split()[:2] == ["instance", "mode"]

    def test_aggregates_average_per_cell(self):
        reports = [
            fake_report(seed=0, before=8, after=4, compression=0.5),
            fake_report(seed=1, before=6, after=3, compression=0.5),
            fake_report(seed=0, mode="none", after=8, compression=0.0),
        ]
        data = json.loads(report_table(reports, format="json"))
        assert len(data["instances"]) == 3
        cells = {(a["topology"], a["n"], a["mode"]): a for a in data["aggregates"]}
        assert set(cells) == {("ring", 2, "full"), ("ring", 2, "none")}
        full = cells[("ring", 2, "full")]
        assert full["count"] == 2
        assert full["before"] == 7.0 and full["after"] == 3.5
        assert full["compression"] == 0.5

    def test_csv_and_json_carry_the_same_values(self):
        reports = [fake_report(), fake_report(seed=1, before=6, after=3)]
        data = json.loads(report_table(reports, format="json"))
        rows = list(csv.DictReader(io.StringIO(report_table(reports, format="csv"))))
        inst = [r for r in rows if r["kind"] == "instance"]
        assert len(inst) == len(data["instances"]) == 2
        for got, want in zip(inst, data["instances"]):
            for key in ("instance", "mode"):
                assert got[key] == want[key]
            for key in ("before", "after", "group_size"):
                assert int(got[key]) == want[key]
            assert float(got["compression"]) == want["compression"]
        agg = [r for r in rows if r["kind"] == "aggregate"]
        assert len(agg) == len(data["aggregates"]) == 1
        assert int(agg[0]["count"]) == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ParseError):
            report_table([fake_report()], format="xml")

    def test_text_table_lists_instances_and_aggregates(self):
        text = report_table([fake_report()])
        assert "ring-n2-s0" in text
        assert "aggregate" not in text.splitlines()[0]
        assert any(line.startswith("topology") for line in text.splitlines())
