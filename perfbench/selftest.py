#!/usr/bin/env python3
"""Self-test of the benchmark on tiny instances.

    python3 perfbench/selftest.py

Checks that every workload prints every metric of ``BENCHMARK.json`` by name
and unit, traced and untraced, and that the reference checks catch planted
wrong answers: a dropped equilibrium, an invented one, a wrong count in the
report, a service reply that generates a smaller group, and a stalled solver.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mcsym import reduce_irredundant  # noqa: E402
from mcsym.detect import PermSet  # noqa: E402

SPEC = json.loads(run.SPEC_FILE.read_text())
TINY = {
    "detect": "detect:diamond:4:1,detect:ring:3:1,generators:diamond:4:1,generators:house:5:1",
    "solve": "full:ring:3:2,full:diamond:4:1,none:ring:3:2,none:zigzag:4:1",
}


def tiny(cells: str, seed: int = 0):
    """Instances of tiny cells, ``call:topology:n:count,...``."""
    return workloads.build(run.resolve("solve", cells), seed)


def case(call: str, topology: str, n: int, seed: int = 0):
    return tiny(f"{call}:{topology}:{n}:1", seed).instances[0]


class MetricsPrint(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        for name in (w["name"] for w in SPEC["workloads"]):
            for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    proc = subprocess.run(
                        run._self_args("--workload", name, "--seed", "0", "--seconds", "0.2",
                                       "--trace", str(trace), "--cells", TINY[name]),
                        capture_output=True, text=True, timeout=170, cwd=run.CHECKOUT,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
                    for m in wanted:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"])
                        self.assertIsInstance(got["value"], (int, float))
                        self.assertTrue(
                            any(line.startswith(f"# {name} {m['name']} = ")
                                and line.endswith(f" {m['unit']}") for line in lines),
                            m["name"],
                        )

    def test_end_to_end_metrics_are_never_zero(self):
        proc = subprocess.run(
            run._self_args("--workload", "solve", "--seconds", "0.2", "--trace", "0",
                           "--cells", TINY["solve"]),
            capture_output=True, text=True, timeout=170, cwd=run.CHECKOUT,
        )
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        for name, got in metrics.items():
            self.assertGreater(got["value"], 0, name)


class PlantedWrongAnswers(unittest.TestCase):
    """A wrong answer from the program must show up as a mismatch."""

    def check_with(self, cells: str, wrap_solve) -> dict:
        failures: dict[str, str] = {}
        with spans.patched({"mcsym.mcs.evaluate_distributed": wrap_solve}):
            run.check_pass(tiny(cells), failures, math.inf)
        return failures

    def test_clean_program_passes(self):
        for name, cells in TINY.items():
            failures: dict[str, str] = {}
            run.check_pass(tiny(cells), failures, math.inf)
            self.assertEqual(failures, {}, name)

    def test_dropped_equilibrium_is_caught(self):
        def drop_one(fn):
            def wrapper(m, *args, **kwargs):
                states = fn(m, *args, **kwargs)
                return frozenset(sorted(states, key=lambda s: s.sort_key())[1:])
            return wrapper

        for cells in ("full:ring:3:2", "none:zigzag:4:1", "generators:house:5:1"):
            failures = self.check_with(cells, drop_one)
            self.assertTrue(failures, cells)
            self.assertTrue(all(r.startswith("mismatch") for r in failures.values()), failures)

    def test_dropped_after_state_is_caught(self):
        def drop_after(fn):
            def wrapper(m, *args, **kwargs):
                states = fn(m, *args, **kwargs)
                if any(c.aux for c in m.contexts):
                    return frozenset(sorted(states, key=lambda s: s.sort_key())[1:])
                return states
            return wrapper

        failures = self.check_with("full:ring:3:2,full:diamond:4:1", drop_after)
        self.assertTrue(failures)
        self.assertTrue(any("lex-leaders were broken away" in r for r in failures.values()))

    def test_invented_after_state_is_caught(self):
        inst = case("full", "ring", 3)
        cap = refcheck.Capture()
        with spans.patched(cap.targets()):
            report = workloads.run_case(inst)
        before = cap.solved[0][1]
        m, after = cap.solved[1]
        extra = next(iter(before - {refcheck.project_original(m, s) for s in after}))
        cap.solved[1] = (m, after | {extra})
        problems = refcheck.check_pipeline("full", inst.system, report, cap)
        self.assertTrue(any("not lex-leaders" in p for p in problems), problems)
        self.assertTrue(any("report says" in p for p in problems), problems)

    def test_small_instances_meet_the_oracle(self):
        self.assertTrue(
            any(refcheck.oracle_states(i.system) <= refcheck.ORACLE_STATES
                for i in tiny(TINY["solve"]).instances)
        )

    def test_oracle_catches_a_wrong_solver_on_small_instances(self):
        small = [i for i in tiny("none:ring:3:2").instances
                 if refcheck.oracle_states(i.system) <= refcheck.ORACLE_STATES]
        self.assertTrue(small)
        for inst in small:
            cap = refcheck.Capture()
            with spans.patched(cap.targets()):
                report = workloads.run_case(inst)
            m, states = cap.solved[0]
            wrong = frozenset(sorted(states, key=lambda s: s.sort_key())[1:])
            cap.solved[0] = (m, wrong)
            report = type(report)(**{**report.__dict__, "before": len(wrong), "after": len(wrong)})
            problems = refcheck.check_pipeline("none", inst.system, report, cap)
            self.assertIn(
                "evaluate_distributed differs from enumerate_partial_equilibria (before)", problems
            )

    def test_smaller_service_group_is_caught(self):
        perms, reply = workloads.run_case(case("detect", "diamond", 4))
        self.assertEqual(refcheck.check_detection(perms, reply), [])
        gens = reduce_irredundant(perms)
        self.assertEqual(refcheck.check_detection(perms, PermSet(frozenset(gens), False)), [])
        self.assertTrue(refcheck.check_detection(perms, PermSet(frozenset(gens[1:]), False)))

    def test_timeouts_are_recorded_not_hung(self):
        setup = tiny("none:ring:3:2")

        def stall(fn):
            def wrapper(*args, **kwargs):
                while True:
                    pass
            return wrapper

        failures: dict[str, str] = {}
        old = run.CASE_CAP_S
        run.CASE_CAP_S = 0.2
        try:
            with spans.patched({"mcsym.mcs.evaluate_distributed": stall}):
                run.check_pass(setup, failures, math.inf)
        finally:
            run.CASE_CAP_S = old
        self.assertEqual(len(failures), len(setup.instances))
        self.assertTrue(all(r.startswith("timeout") for r in failures.values()))

    def test_cases_past_the_deadline_are_timeouts(self):
        setup = tiny("none:ring:3:2")
        failures: dict[str, str] = {}
        run.check_pass(setup, failures, time.perf_counter() - 1)
        self.assertEqual(set(failures), {i.name for i in setup.instances})
        self.assertTrue(all(r.startswith("timeout") for r in failures.values()))

    def test_failed_cases_count_at_the_cap(self):
        times = {"a": [0.3, 0.1], "b": [0.2]}
        self.assertEqual(run.best_times(["a", "b"], times, {}), [0.1, 0.2])
        self.assertEqual(
            run.best_times(["a", "b"], times, {"b": "timeout"}), [0.1, run.CASE_CAP_S]
        )


class HostSpeed(unittest.TestCase):
    def test_repetitions_are_scaled_by_the_kernel_beside_them(self):
        ref = run.KERNEL_REF_S
        # Full speed around t=0, half speed around t=10.
        kernel = [(0.0, ref), (0.2, 1.1 * ref), (10.0, 2 * ref), (10.2, 2.2 * ref)]
        times = {"a": [(0.1, 1.0), (10.1, 2.0)]}
        scaled = run.scale_to_reference(times, kernel)["a"]
        self.assertAlmostEqual(scaled[0], 1.0)
        self.assertAlmostEqual(scaled[1], 1.0)

    def test_kernel_leaves_the_collector_as_it_was(self):
        import gc

        self.assertTrue(gc.isenabled())
        self.assertGreater(run.kernel_s(), 0)
        self.assertTrue(gc.isenabled())


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = spans.Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                sum(range(200_000))
        outer, inner = tr.layers["outer"], tr.layers["inner"]
        self.assertAlmostEqual(outer.self_s + inner.total_s, outer.total_s, places=6)
        self.assertEqual(len(tr.spans), 2)

    def test_overlapping_threads_count_their_own_time(self):
        # Two threads that compute side by side share one interpreter lock:
        # each one's wall-clock span covers the other's work too, so their
        # self times may add up to no more than the time both took together.
        tr = spans.Tracer()
        stop = time.perf_counter() + 0.4

        def work():
            with tr.span("worker"):
                while time.perf_counter() < stop:
                    sum(range(1000))

        threads = [threading.Thread(target=work) for _ in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        elapsed = time.perf_counter() - t0
        self.assertFalse(any(t.is_alive() for t in threads))
        worker = tr.layers["worker"]
        self.assertEqual(worker.calls, 2)
        self.assertLess(worker.self_s, 1.2 * elapsed)

    def test_patching_is_undone(self):
        import mcsym.detect
        import mcsym.perm

        original = mcsym.perm.join_sets
        tr = spans.Tracer()
        with spans.patched(workloads.trace_targets(tr)):
            self.assertIsNot(mcsym.detect.join_sets, original)
            self.assertIs(mcsym.detect.join_sets, mcsym.perm.join_sets)
        self.assertIs(mcsym.detect.join_sets, original)
        self.assertIs(mcsym.perm.join_sets, original)


if __name__ == "__main__":
    unittest.main()
