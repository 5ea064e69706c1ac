"""The benchmark's workloads: their instances, the call each case makes, and
the layers a traced pass records.

Every instance is generated by ``mcsym.bench.generate``, written out with
``emit_system`` and read back with ``parse_system``, so the program sees the
same text a user would hand to ``mcsym solve``.  Instance seeds come from the
run's ``--seed``: the ``k``-th cell ``(call, topology, n, count)`` of a run
with seed ``s`` holds the instances with seeds ``(s * 100 + k) * 1000 + j``
for ``j < count``.  Runs with different seeds therefore share no instance,
and no two cells of a run share a seed: the generator draws alike for one
seed whatever the topology, so cells with common seeds would be heavy or
light together, and their costs would not average out over a run.

Every context of every instance carries the generator's interchangeable
atom pair (``pair_probability=1``), so an instance of ``n`` contexts plants
the same ``2^n`` swaps whatever its seed.  The seed still draws the
knowledge bases, bridges and exports, and with them any further symmetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import mcsym
import mcsym.bench
import mcsym.detect
from mcsym import System, TopologySpec, emit_system, generate, parse_system

ROOT = 1
BOUND = 20
PAIR_PROBABILITY = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[tuple[str, str, int, int], ...]  # (call, topology, n, instances per run)


# A call is "detect" (dsd plus one service request) or a run_pipeline mode.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "detect",
            (
                ("detect", "diamond", 7, 6), ("detect", "zigzag", 7, 4), ("detect", "house", 5, 6),
                ("generators", "diamond", 7, 3), ("generators", "zigzag", 7, 3),
                ("generators", "house", 5, 3),
            ),
        ),
        Workload(
            "solve",
            (
                ("full", "diamond", 4, 20), ("full", "zigzag", 4, 20), ("full", "ring", 4, 10),
                ("full", "house", 5, 4),
                ("none", "diamond", 7, 60), ("none", "zigzag", 7, 60), ("none", "house", 5, 60),
                ("none", "ring", 6, 60),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    name: str
    call: str
    spec: TopologySpec
    system: System


@dataclass(frozen=True)
class Setup:
    instances: tuple[Instance, ...]
    generated: tuple[System, ...]  # as generated, before the text round trip
    generate_s: float  # generate + emit_system
    parse_s: float  # parse_system


def build(workload: Workload, seed: int) -> Setup:
    """Generate the run's instances and read them back from their text."""
    instances, generated = [], []
    generate_s = parse_s = 0.0
    for k, (call, topology, n, count) in enumerate(workload.cells):
        for j in range(count):
            spec = TopologySpec(
                topology, n, (seed * 100 + k) * 1000 + j, pair_probability=PAIR_PROBABILITY
            )
            t0 = time.perf_counter()
            m0 = generate(spec)
            text = emit_system(m0)
            t1 = time.perf_counter()
            m = parse_system(text)
            t2 = time.perf_counter()
            generate_s += t1 - t0
            parse_s += t2 - t1
            generated.append(m0)
            instances.append(Instance(f"{call}:{topology}-n{n}-s{spec.seed}", call, spec, m))
    return Setup(tuple(instances), tuple(generated), generate_s, parse_s)


def run_case(inst: Instance):
    """The case's calls into mcsym's public entry points.

    Functions are looked up on their modules at call time, so a traced pass
    reaches them through the tracer's wrappers.
    """
    m = inst.system
    if inst.call == "detect":
        perms = mcsym.detect.dsd(m, ROOT)
        reply = mcsym.detect.DetectionService(m).request(ROOT)
        return perms, reply
    return mcsym.bench.run_pipeline(
        m, ROOT, mode=inst.call, bound=BOUND, instance=inst.name,
        topology=inst.spec.topology, n=inst.spec.n, seed=inst.spec.seed,
    )


# ---------------------------------------------------------------------------
# traced layers


def _has_aux(m: System) -> bool:
    return any(c.aux for c in m.contexts)


def _solve_layer(m, *args, **kwargs) -> str:
    return "mcs.solve_after" if _has_aux(m) else "mcs.solve_before"


def _count_service(tr, args, kwargs, reply) -> None:
    svc = args[0]
    tr.counters["detect.service_requests"] += sum(svc.requests.values())
    tr.counters["detect.service_cache_hits"] += sum(svc.cache_hits.values())
    tr.counters["detect.service_log_lines"] += len(svc.log)


def _count_graph(tr, args, kwargs, gens) -> None:
    g = args[0]
    tr.counters["autograph.vertices"] += g.n
    tr.counters["autograph.edges"] += len(g.edges)
    tr.counters["autograph.generators"] += len(gens)


def _count_join(tr, args, kwargs, joined) -> None:
    # Members of one operand share a domain, so distinct defined pairs give
    # distinct joins: the result's size is the number of defined pairs.
    tr.counters["perm.join_pairs"] += len(args[0]) * len(args[1])
    tr.counters["perm.join_defined"] += len(joined)


def _count_closure(tr, args, kwargs, group) -> None:
    tr.counters["perm.closure_size"] += len(group)


def _count_extend(tr, args, kwargs, ext) -> None:
    m, perms = args[0], args[1]
    tr.counters["sbc.breakers"] += len({p for p in perms if not p.is_identity()})
    for key, field in (("sbc.rules_added", "kb"), ("sbc.aux_atoms_added", "aux"),
                       ("sbc.bridges_added", "br")):
        tr.counters[key] += sum(len(getattr(c, field)) for c in ext.contexts) - sum(
            len(getattr(c, field)) for c in m.contexts
        )


def _count_solve(tr, args, kwargs, states) -> None:
    layer = _solve_layer(*args)
    tr.counters[layer.replace("solve_", "states_")] += len(states)
    if layer == "mcs.solve_before" and not states:
        tr.counters["mcs.unsat_instances"] += 1


def trace_targets(tr) -> dict:
    """Defining path of each traced function -> the tracer's wrapper factory."""
    return {
        "mcsym.bench.run_pipeline": tr.wrap("bench.pipeline"),
        "mcsym.detect.dsd": tr.wrap("detect.dsd"),
        "mcsym.detect.lsd": tr.wrap("detect.lsd"),
        "mcsym.detect.DetectionService.request": tr.wrap(
            "detect.service", _count_service, ambient=True
        ),
        "mcsym.autograph.automorphism_generators": tr.wrap("autograph.search", _count_graph),
        "mcsym.perm.join_sets": tr.wrap("perm.join", _count_join),
        "mcsym.perm.group_closure": tr.wrap("perm.closure", _count_closure),
        "mcsym.sbc.select_breaking_set": tr.wrap("sbc.select"),
        "mcsym.sbc.extend_mcs": tr.wrap("sbc.extend", _count_extend),
        "mcsym.mcs.evaluate_distributed": tr.wrap(_solve_layer, _count_solve),
        "mcsym.asp.answer_sets": tr.wrap("asp.answer_sets", keep=False),
        "mcsym.asp.is_answer_set": tr.wrap("asp.is_answer_set", keep=False),
    }


def layer_metrics(tr) -> dict[str, float]:
    """Per-layer values of one traced pass (self times in seconds, counts)."""
    lay, cnt = tr.layers, tr.counters
    out: dict[str, float] = {
        "detect.dsd_s": lay["detect.dsd"].self_s,
        "detect.dsd_calls": lay["detect.dsd"].calls,
        "detect.lsd_s": lay["detect.lsd"].self_s,
        "detect.service_s": lay["detect.service"].self_s,
        "autograph.search_s": lay["autograph.search"].self_s,
        "perm.join_s": lay["perm.join"].self_s,
        "perm.closure_s": lay["perm.closure"].self_s,
        "sbc.select_s": lay["sbc.select"].self_s,
        "sbc.extend_s": lay["sbc.extend"].self_s,
        "mcs.solve_before_s": lay["mcs.solve_before"].self_s,
        "mcs.solve_after_s": lay["mcs.solve_after"].self_s,
        "asp.answer_sets_calls": lay["asp.answer_sets"].calls,
        "asp.answer_sets_s": lay["asp.answer_sets"].self_s,
        "asp.is_answer_set_calls": lay["asp.is_answer_set"].calls,
        "asp.is_answer_set_s": lay["asp.is_answer_set"].self_s,
        "bench.pipeline_s": lay["bench.pipeline"].self_s,
    }
    for key in (
        "detect.service_requests", "detect.service_cache_hits", "detect.service_log_lines",
        "autograph.vertices", "autograph.edges", "autograph.generators",
        "perm.join_pairs", "perm.join_defined", "perm.closure_size",
        "sbc.breakers", "sbc.rules_added", "sbc.aux_atoms_added", "sbc.bridges_added",
        "mcs.states_before", "mcs.states_after", "mcs.unsat_instances",
    ):
        out[key] = cnt[key]
    pairs = cnt["perm.join_pairs"]
    out["perm.join_yield"] = cnt["perm.join_defined"] / pairs if pairs else 0.0
    return out
