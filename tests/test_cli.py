"""Command-line interface: subcommands, output shapes, exit codes."""

from __future__ import annotations

import csv
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mcsym import (
    TopologySpec,
    dsd,
    emit_system,
    enumerate_partial_equilibria,
    evaluate_distributed,
    extend_mcs,
    generate,
    load_system,
    parse_system,
)
from mcsym import perm
from mcsym.cli import main

ROOT = Path(__file__).parent.parent

DETECT_ROOT1 = """\
PERMSET 4 complete
()
(2.f 2.g)
(1.a 1.b)(2.d 2.e)
(1.a 1.b)(2.d 2.e)(2.f 2.g)
"""

# the whole --verbose trace of a service request from root 1, with the
# default message cap and with --message-cap 1
SERVICE_VERBOSE_ROOT1 = """\
# DSD 1 H=-
# DSD 2 H=1
# PERMSET 4
# ()
# (1.a 1.b)(2.d 2.e)
# (1.a 1.b)(2.d 2.e)(2.f 2.g)
# (2.f 2.g)
# PERMSET 4
# ()
# (1.a 1.b)(2.d 2.e)
# (1.a 1.b)(2.d 2.e)(2.f 2.g)
# (2.f 2.g)
# node 1: 1 requests, 0 cache hits
# node 2: 1 requests, 0 cache hits
# node 3: 0 requests, 0 cache hits
"""

SERVICE_VERBOSE_ROOT1_CAP1 = """\
# DSD 1 H=-
# DSD 2 H=1
# PERMSET 2 generators
# (1.a 1.b)(2.d 2.e)
# (2.f 2.g)
# PERMSET 2 generators
# (1.a 1.b)(2.d 2.e)
# (2.f 2.g)
# node 1: 1 requests, 0 cache hits
# node 2: 1 requests, 0 cache hits
# node 3: 0 requests, 0 cache hits
"""


class TestGen:
    def test_writes_a_parseable_instance(self, tmp_path):
        out = tmp_path / "inst.mcs"
        rc = main(["gen", "--topology", "ring", "--n", "2", "--seed", "0", "-o", str(out)])
        assert rc == 0
        m = load_system(str(out))
        assert len(m.contexts) == 2
        assert emit_system(m) == emit_system(generate(TopologySpec("ring", 2, seed=0)))

    def test_stdout_default(self, capsys):
        rc = main(["gen", "--topology", "ring", "--n", "2", "--seed", "0"])
        assert rc == 0
        text = capsys.readouterr().out
        assert parse_system(text) == generate(TopologySpec("ring", 2, seed=0))

    def test_spec_violations_exit_2(self, capsys):
        assert main(["gen", "--topology", "house", "--n", "6", "--seed", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seed", "-1"],
            ["--exports", "0"],
            ["--kb-rules", "0"],
            ["--body", "0"],
            ["--body", "-1"],
            ["--pair-probability", "3"],
            ["--pair-probability", "-0.5"],
        ],
    )
    def test_bad_generator_parameters_exit_2(self, extra, capsys):
        argv = ["gen", "--topology", "ring", "--n", "3", "--seed", "0"]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bridge_rules_may_be_0_but_not_negative(self, capsys):
        argv = ["gen", "--topology", "house", "--n", "9", "--seed", "2", "--bridge-rules"]
        assert main(argv + ["-4"]) == 2
        assert capsys.readouterr().err == "error: max_bridge_rules must be at least 0, got -4\n"
        assert main(argv + ["0"]) == 0

    def test_negative_bench_seed_exits_2(self, capsys):
        assert main(["bench", "--topology", "ring", "--n", "3", "--seeds", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDetect:
    def test_whole_set_with_cycles(self, example1_path, capsys):
        rc = main(["detect", str(example1_path), "--root", "1"])
        assert rc == 0
        assert capsys.readouterr().out == DETECT_ROOT1

    def test_service_prints_the_same_set(self, example1_path, capsys):
        rc = main(["detect", str(example1_path), "--root", "1", "--service"])
        assert rc == 0
        assert capsys.readouterr().out == DETECT_ROOT1

    def test_service_verbose_logs_the_exchange(self, example1_path, capsys):
        rc = main(
            ["detect", str(example1_path), "--root", "1", "--service", "--verbose"]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "# DSD 1 H=-" in err
        assert "# DSD 2 H=1" in err
        assert "# node 1:" in err

    @pytest.mark.parametrize(
        "extra,want",
        [([], SERVICE_VERBOSE_ROOT1), (["--message-cap", "1"], SERVICE_VERBOSE_ROOT1_CAP1)],
        ids=["default-cap", "cap-1"],
    )
    def test_service_verbose_trace_is_exact(self, example1_path, capsys, extra, want):
        argv = ["detect", str(example1_path), "--root", "1", "--service", "--verbose"]
        assert main([*argv, *extra]) == 0
        assert capsys.readouterr().err == want

    def test_service_degrades_under_a_tiny_message_cap(self, example1_path, capsys):
        rc = main(
            [
                "detect",
                str(example1_path),
                "--root",
                "1",
                "--service",
                "--message-cap",
                "1",
            ]
        )
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("PERMSET") and first.endswith("generators")

    def test_negative_message_cap_exits_2(self, example1_path, capsys):
        argv = ["detect", str(example1_path), "--root", "1", "--service"]
        assert main([*argv, "--message-cap", "-3"]) == 2
        captured = capsys.readouterr()
        assert "message cap" in captured.err
        assert captured.out == ""

    def test_local_mode(self, example1_path, capsys):
        rc = main(["detect", str(example1_path), "--root", "2", "--mode", "local"])
        assert rc == 0
        assert capsys.readouterr().out == "PERMSET 2 complete\n()\n(2.f 2.g)\n"

    def test_dump_gap(self, example1_path, capsys):
        rc = main(["detect", str(example1_path), "--root", "2", "--dump-gap"])
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("graph 16 18")

    @pytest.mark.parametrize("extra", [[], ["--service"]], ids=["dsd", "service"])
    def test_oversize_group_exits_3(self, tmp_path, capsys, monkeypatch, extra):
        path = tmp_path / "ring.mcs"
        path.write_text(emit_system(generate(TopologySpec("ring", 8, 0, pair_probability=1))))
        monkeypatch.setattr(perm, "JOIN_CAP", 100)
        assert main(["detect", str(path), "--root", "1", *extra]) == 3
        captured = capsys.readouterr()
        assert "exceeds cap of 100" in captured.err and captured.out == ""

    @pytest.mark.parametrize("extra", [[], ["--service"]], ids=["dsd", "service"])
    def test_unknown_root_exits_4(self, example1_path, capsys, extra):
        assert main(["detect", str(example1_path), "--root", "9", *extra]) == 4
        assert "internal error" in capsys.readouterr().err


class TestBreak:
    def test_full_rewrite_round_trips(self, example1_path, example1, capsys):
        rc = main(["break", str(example1_path), "--root", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        breakers = sorted(
            (p for p in dsd(example1, 1) if p.support),
            key=lambda p: (len(p.support), str(p)),
        )
        assert parse_system(text) == extend_mcs(example1, breakers)

    def test_emit_sbc_prints_only_additions(self, example1_path, capsys):
        rc = main(["break", str(example1_path), "--root", "1", "--emit-sbc"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("context 1\n")
        assert "context 2" in out
        assert "context 3" not in out
        for tag in ("sbc_p0_", "sbc_p1_", "sbc_p2_"):
            assert tag in out
        # original knowledge stays out of the delta
        assert "a :- not b" not in out

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    @pytest.mark.parametrize("case", ["budget-0", "no-symmetry"])
    def test_emit_sbc_with_nothing_added_writes_nothing(self, example1_path, tmp_path, capsys, case, to_file):
        if case == "budget-0":
            argv = ["break", str(example1_path), "--root", "1", "--mode", "generators", "--budget", "0"]
        else:
            path = tmp_path / "asym.mcs"
            path.write_text("mcs 1\ncontext 1\n  atoms a b\n  kb\n    a :- not b.\n  br\n")
            argv = ["break", str(path), "--root", "1"]
        out = tmp_path / "delta.txt"
        assert main([*argv, "--emit-sbc", *(["-o", str(out)] if to_file else [])]) == 0
        assert capsys.readouterr().out == ""
        assert not to_file or out.read_text() == ""

    def test_generator_mode_budget(self, example1_path, example1, capsys):
        rc = main(
            [
                "break",
                str(example1_path),
                "--root",
                "1",
                "--mode",
                "generators",
                "--budget",
                "1",
            ]
        )
        assert rc == 0
        m2 = parse_system(capsys.readouterr().out)
        added = [a.name for c in m2.contexts for a in c.aux]
        assert added == ["sbc_p0_c2"]  # one local generator, one chain atom

    def test_negative_budget_exits_2(self, example1_path, capsys):
        argv = ["break", str(example1_path), "--root", "1", "--mode", "generators"]
        assert main([*argv, "--budget", "-1", "--emit-sbc"]) == 2
        assert "budget" in capsys.readouterr().err
        bench = ["bench", "--topology", "diamond", "--n", "4", "--seeds", "0", "--mode", "generators"]
        assert main([*bench, "--budget", "-1"]) == 2
        assert "budget" in capsys.readouterr().err


class TestSolve:
    def test_equilibria_sorted(self, example1_path, example1, capsys):
        rc = main(["solve", str(example1_path)])
        assert rc == 0
        out = capsys.readouterr().out
        want = sorted(enumerate_partial_equilibria(example1), key=lambda s: s.sort_key())
        assert out == "".join(str(s) + "\n" for s in want)
        assert "1={b} 2={d} 3={}" in out.splitlines()

    def test_rooted_solve_matches_library(self, example1_path, example1, capsys):
        rc = main(["solve", str(example1_path), "--root", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        want = {str(s) for s in evaluate_distributed(example1, 1)}
        assert set(lines) == want and len(lines) == 4

    def test_naive_agrees(self, example1_path, capsys):
        main(["solve", str(example1_path), "--root", "2"])
        fast = capsys.readouterr().out
        main(["solve", str(example1_path), "--root", "2", "--naive"])
        assert capsys.readouterr().out == fast

    def test_without_root_uses_the_search(self, example1_path, example1, capsys, monkeypatch):
        # only --naive reaches the exhaustive reference
        def oracle(*args, **kwargs):
            raise AssertionError("the reference search was called")

        monkeypatch.setattr("mcsym.cli.enumerate_partial_equilibria", oracle)
        assert main(["solve", str(example1_path)]) == 0
        want = sorted(evaluate_distributed(example1, None), key=lambda s: s.sort_key())
        assert capsys.readouterr().out == "".join(str(s) + "\n" for s in want)

    @pytest.mark.parametrize("extra", [[], ["--naive"]])
    def test_empty_system_has_one_empty_equilibrium(self, extra, tmp_path, capsys):
        empty = tmp_path / "empty.mcs"
        empty.write_text("mcs 0\n")
        assert main(["solve", str(empty), *extra]) == 0
        assert capsys.readouterr().out == "\n"

    @pytest.mark.parametrize("extra", [[], ["--root", "1"], ["--naive"]])
    def test_cross_context_aux_cycle_exits_4(self, extra, tmp_path, capsys):
        # x and y are aux atoms that derive each other through br rules
        cyclic = tmp_path / "cyclic.mcs"
        cyclic.write_text(
            "mcs 2\n"
            "context 1\n  atoms a\n  aux x\n  kb\n    a.\n  br\n    x :- (2:y).\n"
            "context 2\n  atoms b\n  aux y\n  kb\n    b.\n  br\n    y :- (1:x).\n"
        )
        assert main(["solve", str(cyclic), *extra]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "auxiliary rules are cyclic at x" in err

    def test_tight_bound_exits_3(self, example1_path, capsys):
        assert main(["solve", str(example1_path), "--bound", "0"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--root", "1"], ["--root", "1", "--naive"]])
    def test_negative_bound_exits_2(self, extra, example1_path, capsys):
        assert main(["solve", str(example1_path), *extra, "--bound", "-1"]) == 2
        assert "bound must be at least 0" in capsys.readouterr().err


class TestBench:
    def test_csv_grid(self, capsys):
        rc = main(
            [
                "bench",
                "--topology",
                "ring",
                "--n",
                "2",
                "--seeds",
                "0,1",
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        kinds = [r["kind"] for r in rows]
        assert kinds.count("instance") == 2
        assert kinds.count("aggregate") == 1
        assert all(int(r["after"]) <= int(r["before"]) for r in rows if r["kind"] == "instance")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seeds", ""],
            ["--seeds", ","],
            ["--seeds", "0", "--n", ""],
            ["--seeds", "0", "--topology", ""],
            ["--seeds", "0", "--mode", ""],
            ["--seeds", "0", "--mode", " , "],
        ],
    )
    def test_empty_list_exits_2(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--topology", "ring", "--n", "2", *extra])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "expected comma-separated" in err

    def test_text_grid(self, capsys):
        rc = main(["bench", "--topology", "ring", "--n", "2", "--seeds", "0", "--mode", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("instance")
        assert "ring-n2-s0" in out


class TestExitCodes:
    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "/nonexistent/path.mcs"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mcs"
        bad.write_text("mcs garbage\n")
        assert main(["solve", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self, example1_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mcsym.cli", "detect", str(example1_path), "--root", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "PERMSET 2 complete"

    def test_package_entry_point(self, example1_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mcsym", "detect", str(example1_path), "--root", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == DETECT_ROOT1


def _readme_transcripts():
    """Each ``$ mcsym ...`` transcript of README.md with its printed output.

    Fenced blocks that elide output with ``...`` are left out.
    """
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"^```\n(\$ mcsym .*?)^```", readme, re.M | re.S):
        if "..." in block:
            continue
        for transcript in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, stdout = transcript.partition("\n")
            out.append(pytest.param(command, stdout, id=command))
    return out


class TestReadme:
    @pytest.mark.parametrize("command, stdout", _readme_transcripts())
    def test_transcript_prints_what_the_readme_shows(self, command, stdout, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == stdout
