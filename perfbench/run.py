#!/usr/bin/env python3
"""Benchmark of the mcsym detect/break/solve pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One run

1. times the set-up (import ``mcsym``, generate and parse the instances) in
   fresh interpreters, several times: half of them here, half after step 3;
2. runs every case once with capturing wrappers and checks the outputs
   against the reference definitions (``refcheck.py``), untimed;
3. starts one measuring interpreter that takes the instance list through the
   entry points again and again for ``--seconds`` seconds, tracing off, and
   counts each case at its fastest repetition, scaled to a reference host
   speed (``KERNEL_REF_S`` below).  With ``--trace 1`` untraced
   and traced passes (``spans.py``) alternate, the spans go to
   ``.perfbench-out/``, and the run reports per-layer numbers instead of
   end-to-end ones.

The set-up metrics are medians over all the set-ups.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and every failed case with its reason.
Metric names and units are read from ``BENCHMARK.json``.

``--workload all`` runs every workload in turn and ends with one JSON object
keyed by workload.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT_DIR = CHECKOUT / ".perfbench-out"
SPEC_FILE = CHECKOUT / "BENCHMARK.json"

CASE_CAP_S = 20.0  # one case (and its reference check) may take this long
RUN_LIMIT_S = 180.0  # one run, set-up to result, must end within this
# Kept free at the end of a run for the measuring interpreter's start-up, the
# traced pass that is open when --seconds run out, the set-ups timed after
# it, and printing the result.
RUN_MARGIN_S = 25.0
# Set-ups timed per run, half before the check pass and half after the
# measuring pass, so that they see different spells of a noisy host.
SETUP_REPS = 10
# On a shared virtual machine the CPU runs up to 1.7x slower for minutes at a
# time as other tenants come and go, longer than a run.  So the measuring
# interpreter and every set-up also time a fixed kernel that calls no mcsym
# code, and the end-to-end times are scaled by KERNEL_REF_S over the kernel's
# fastest time beside them: seconds at the speed where the kernel takes
# KERNEL_REF_S, its fastest time on the host the baseline was measured on.
KERNEL_REF_S = 0.004
KERNEL_EVERY_S = 0.25  # the measuring interpreter times the kernel this often
KERNEL_WINDOW_S = 1.0  # a repetition is scaled by the kernel timed this near it
KERNEL_REPS = 5  # kernel timings after each set-up


class CaseTimeout(BaseException):
    """Raised in the main thread when a case exceeds ``CASE_CAP_S``."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


@contextlib.contextmanager
def case_cap(seconds: float):
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def kernel_s() -> float:
    """Seconds one run of a fixed pure-Python kernel takes at the host's current speed.

    The cyclic garbage collector is off while it runs: a collection started
    by the kernel's allocations would cost in proportion to the program's
    heap, and a program change must not move the kernel.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict[frozenset, int] = {}
        for i in range(6000):
            key = frozenset((i % 97, i % 89, i % 83))
            acc[key] = acc.get(key, 0) + len(sorted(key))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def import_package() -> float:
    """Import ``mcsym`` from this checkout's ``src/``; return the seconds taken."""
    if not (SRC / "mcsym" / "__init__.py").is_file():
        raise SystemExit(f"error: no mcsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mcsym

    elapsed = time.perf_counter() - t0
    if Path(mcsym.__file__).resolve().parent != (SRC / "mcsym").resolve():
        raise SystemExit(f"error: imported mcsym from {mcsym.__file__}, not from {SRC}")
    return elapsed


def _self_args(*extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *extra]


# ---------------------------------------------------------------------------
# child modes


def resolve(workload_name: str, cells: str):
    """The named workload, its cells replaced by ``call:topology:n:count,...``."""
    import dataclasses

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    if not cells:
        return workload
    parsed = tuple(
        (call, topology, int(n), int(count))
        for call, topology, n, count in (c.split(":") for c in cells.split(","))
    )
    return dataclasses.replace(workload, cells=parsed)


def probe_setup(workload_name: str, cells: str, seed: int) -> dict:
    """One set-up in this fresh interpreter: import, generate, parse."""
    t0 = time.perf_counter()
    import_s = import_package()
    import workloads

    setup = workloads.build(resolve(workload_name, cells), seed)
    setup_s = time.perf_counter() - t0
    return {
        "setup_s": setup_s,
        "import_s": import_s,
        "generate_s": setup.generate_s,
        "parse_s": setup.parse_s,
        "kernel_s": min(kernel_s() for _ in range(KERNEL_REPS)),
    }


def timed_passes(cases, budget: float, failures: dict, tracer=None) -> dict:
    """Take the cases through their entry points, over and over, for ``budget`` seconds.

    Returns each case's timings as ``(start, seconds)``, the kernel's timings
    taken between cases every ``KERNEL_EVERY_S``, also as ``(start,
    seconds)``, and, when traced, the per-layer values of each complete
    pass.  Untraced, the loop stops between two cases once the budget is
    spent and every case has run at least once; traced, it stops at the end
    of a pass, so that per-pass counts cover every case.  A case that times
    out or raises is recorded in ``failures`` and not run again.
    """
    import workloads

    times: dict[str, list[tuple[float, float]]] = {c.name: [] for c in cases}
    kernel: list[tuple[float, float]] = []
    layers: list[dict] = []
    start = last_kernel = time.perf_counter()
    passes = 0
    while True:
        if tracer is not None:
            tracer.reset()
        for inst in cases:
            if inst.name in failures:
                continue
            if tracer is None and passes and time.perf_counter() - start >= budget:
                break
            if not kernel or time.perf_counter() - last_kernel >= KERNEL_EVERY_S:
                kernel.append((time.perf_counter(), kernel_s()))
                last_kernel = time.perf_counter()
            try:
                with case_cap(CASE_CAP_S):
                    t0 = time.perf_counter()
                    if tracer is None:
                        workloads.run_case(inst)
                    else:
                        tracer.trace_id = inst.name
                        with tracer.span("bench.case"):
                            workloads.run_case(inst)
                    times[inst.name].append((t0, time.perf_counter() - t0))
            except CaseTimeout:
                failures[inst.name] = f"timeout: over {CASE_CAP_S:g} s in a timed pass"
            except Exception as exc:  # recorded per case; the run goes on
                failures[inst.name] = f"error: {type(exc).__name__}: {exc}"
        passes += 1
        if tracer is not None:
            layers.append(workloads.layer_metrics(tracer))
        if time.perf_counter() - start >= budget or all(c.name in failures for c in cases):
            break
    return {
        "times": {k: v for k, v in times.items() if v},
        "kernel": kernel,
        "layers": layers,
        "passes": passes,
    }


def scale_to_reference(
    times: dict[str, list[tuple[float, float]]], kernel: list[tuple[float, float]]
) -> dict[str, list[float]]:
    """Each repetition's seconds at the reference host speed.

    A repetition that started at ``t`` is scaled by ``KERNEL_REF_S`` over the
    kernel's fastest time within ``KERNEL_WINDOW_S`` of ``t``.  ``kernel`` is
    in time order, and ``timed_passes`` times the kernel at most
    ``KERNEL_EVERY_S`` before each case, so the window is never empty.
    """
    stamps = [t for t, _ in kernel]
    out = {}
    for name, reps in times.items():
        out[name] = []
        for t, seconds in reps:
            lo = bisect.bisect_left(stamps, t - KERNEL_WINDOW_S)
            hi = bisect.bisect_right(stamps, t + KERNEL_WINDOW_S)
            out[name].append(seconds * KERNEL_REF_S / min(k for _, k in kernel[lo:hi]))
    return out


def measure(
    workload_name: str, cells: str, seed: int, seconds: float, trace: bool, skip: set[str]
) -> dict:
    """The measuring interpreter: timed passes only, no reference checks."""
    import_package()
    import spans
    import workloads

    workload = resolve(workload_name, cells)
    cases = [i for i in workloads.build(workload, seed).instances if i.name not in skip]
    failures: dict[str, str] = {}
    if not trace:
        plain = timed_passes(cases, seconds, failures)
        out = {
            "times": plain["times"], "kernel": plain["kernel"], "passes": plain["passes"],
            "failures": failures,
        }
    else:
        # Untraced and traced passes alternate, so that both see the same
        # spells of a noisy host and their difference is the tracing cost.
        tracer = spans.Tracer()
        targets = workloads.trace_targets(tracer)
        out = {
            "times": {}, "traced_times": {}, "kernel": [], "layers": [], "passes": 0,
            "failures": failures,
        }
        start = time.perf_counter()
        while time.perf_counter() - start < seconds and len(failures) < len(cases):
            plain = timed_passes(cases, 0, failures)
            with spans.patched(targets):
                traced = timed_passes(cases, 0, failures, tracer)
            for key, got in (("times", plain), ("traced_times", traced)):
                for name, ts in got["times"].items():
                    out[key].setdefault(name, []).extend(ts)
            out["kernel"] += plain["kernel"] + traced["kernel"]
            out["layers"] += traced["layers"]
            out["passes"] += 1
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload_name}-s{seed}.jsonl"
        tracer.write(path)
        out["spans_file"] = str(path.relative_to(CHECKOUT))
    for key in ("times", "traced_times") if trace else ("times",):
        out["scaled_" + key] = scale_to_reference(out[key], out["kernel"])
        out[key] = {name: [s for _, s in reps] for name, reps in out[key].items()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


# ---------------------------------------------------------------------------
# the run


def check_pass(setup, failures: dict, deadline: float) -> list:
    """Run every case once, capturing, and compare with the references.

    Cases not started by ``deadline`` (a ``time.perf_counter`` reading) are
    recorded as timeouts.  Returns the ``RunReport`` of every pipeline case
    that ran.
    """
    import refcheck
    import spans
    import workloads

    reports = []
    for inst, generated in zip(setup.instances, setup.generated):
        if time.perf_counter() > deadline:
            failures[inst.name] = "timeout: not checked before the run's check deadline"
            continue
        cap = refcheck.Capture()
        try:
            with case_cap(CASE_CAP_S):
                with spans.patched(cap.targets()):
                    result = workloads.run_case(inst)
                problems = refcheck.check_roundtrip(generated, inst.system)
                if inst.call == "detect":
                    problems += refcheck.check_detection(*result)
                else:
                    problems += refcheck.check_pipeline(inst.call, inst.system, result, cap)
                    reports.append(result)
        except CaseTimeout:
            failures[inst.name] = f"timeout: over {CASE_CAP_S:g} s"
            continue
        except Exception as exc:  # recorded per case; the run goes on
            failures[inst.name] = f"error: {type(exc).__name__}: {exc}"
            continue
        if problems:
            failures[inst.name] = "mismatch: " + "; ".join(problems)
    return reports


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def best_times(names: list[str], times: dict[str, list[float]], failures: dict) -> list[float]:
    """Each case's fastest timing in the run; a failed case counts as ``CASE_CAP_S``.

    On a shared virtual machine the CPU's speed swings by up to 1.7x over
    tens of seconds as other tenants come and go; a case's fastest
    repetition is the one least slowed by them.  Every case is counted, so a
    program that gets slow enough to time out reads slower, not faster.
    """
    return [CASE_CAP_S if n in failures else min(times[n]) for n in names]


def probe_setups(count: int, common: tuple[str, ...]) -> list[dict]:
    """Time ``count`` set-ups, each in a fresh interpreter."""
    probes = []
    for _ in range(count):
        proc = subprocess.run(
            _self_args("--probe-setup", *common),
            capture_output=True, text=True, timeout=20, cwd=CHECKOUT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


def run_workload(
    workload_name: str, seed: int, seconds: float, trace: bool, cells: str = ""
) -> dict:
    started = time.perf_counter()
    spec = json.loads(SPEC_FILE.read_text())
    common = ("--workload", workload_name, "--seed", str(seed), "--cells", cells)
    probes = probe_setups(SETUP_REPS // 2, common)

    import_package()
    import workloads

    setup = workloads.build(resolve(workload_name, cells), seed)
    failures: dict[str, str] = {}
    check_start = time.perf_counter()
    deadline = started + RUN_LIMIT_S - RUN_MARGIN_S - seconds - CASE_CAP_S
    reports = check_pass(setup, failures, deadline)
    check_s = time.perf_counter() - check_start

    proc = subprocess.run(
        _self_args(
            "--measure", *common, "--seconds", repr(seconds), "--trace", str(int(trace)),
            "--skip", ",".join(sorted(failures)),
        ),
        capture_output=True, text=True, cwd=CHECKOUT,
        timeout=max(1.0, started + RUN_LIMIT_S - RUN_MARGIN_S / 2 - time.perf_counter()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: measuring interpreter exited with {proc.returncode}")
    got = json.loads(proc.stdout.splitlines()[-1])
    failures.update(got["failures"])
    probes += probe_setups(SETUP_REPS - SETUP_REPS // 2, common)

    attempted = len(setup.instances)
    names = [inst.name for inst in setup.instances]
    best = best_times(names, got["scaled_times"], failures)
    raw = best_times(names, got["times"], failures)
    slowdown = sum(raw) / sum(best)
    values: dict[str, float] = {
        "wall_s": sum(best),
        "bench.inst_s.p50": _median(best),
        "setup_s": _median(p["setup_s"] * KERNEL_REF_S / p["kernel_s"] for p in probes),
        "peak_rss_mb": got["peak_rss_mb"],
        "bench.raw_wall_s": sum(raw),
        "bench.raw_setup_s": _median(p["setup_s"] for p in probes),
        "bench.host_slowdown": slowdown,
    }
    if trace:
        for key in got["layers"][0] if got["layers"] else ():
            values[key] = _median(layer[key] for layer in got["layers"])
        traced = sum(best_times(names, got["scaled_traced_times"], failures))
        ratios = [1.0 - r.after / r.before for r in reports if r.before and r.mode != "none"]
        values.update({
            "bench.generate_s": _median(p["generate_s"] for p in probes),
            "bench.import_s": _median(p["import_s"] for p in probes),
            "mcs.parse_s": _median(p["parse_s"] for p in probes),
            "bench.traced_wall_s": traced,
            "bench.trace_overhead_s": traced - values["wall_s"],
            "bench.failed_frac": len(failures) / attempted,
            "bench.compression": statistics.fmean(ratios) if ratios else 0.0,
        })
        print(f"# spans written to {got['spans_file']}")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"error: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {workload_name} {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"# {workload_name}: {attempted} instances, {got['passes']} untraced passes, "
          f"{len(failures)} failed; check pass {check_s:.1f} s of {deadline - check_start:.0f} s; "
          f"host slowdown {slowdown:.3f}")
    for name, reason in sorted(failures.items()):
        print(f"# failed {name}: {reason}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--skip", default="", help=argparse.SUPPRESS)
    ap.add_argument(
        "--cells", default="",
        help="replace the workload's instances by call:topology:n:count,... (for smoke tests)",
    )
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    names = [w["name"] for w in json.loads(SPEC_FILE.read_text())["workloads"]]
    if args.workload not in names + ["all"]:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")

    if args.probe_setup:
        print(json.dumps(probe_setup(args.workload, args.cells, args.seed)))
        return 0
    if args.measure:
        skip = set(filter(None, args.skip.split(",")))
        print(json.dumps(
            measure(args.workload, args.cells, args.seed, args.seconds, bool(args.trace), skip)
        ))
        return 0
    if args.workload == "all":
        results = {
            w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.cells) for w in names
        }
        print(json.dumps(results))
        return 0
    print(json.dumps(
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.cells)
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
