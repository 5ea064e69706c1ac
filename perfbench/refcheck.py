"""Reference checks, run once per instance outside the timed passes.

The check pass runs each case with capturing wrappers that keep what
``run_pipeline`` computes but does not return (the solved states, the
rewrite, the breakers), then compares it with the package's reference
definitions:

* the text round trip ``parse_system(emit_system(m)) == m`` holds for the
  generated instance and for the rewrite;
* projecting the after-states onto the original atoms merges none of them,
  and lands inside the before-states;
* ``lex_leader_filter(before, generators)`` is contained in the projected
  after-states, and equals them in ``full`` mode.  The generators are the
  breakers in ``full`` mode (every member of the detected group) and the
  untruncated irredundant generators in ``generators`` mode;
* the before-states are closed under the swaps of two contexts' planted
  interchangeable pairs (checked to be symmetries with ``is_symmetry``), so
  a dropped equilibrium shows even where the brute-force oracle is too slow;
  and the first few are partial equilibria by ``is_partial_equilibrium``;
* the detection service's reply generates the same group as ``dsd``;
* on instances whose candidate space is small enough, ``evaluate_distributed``
  equals the brute-force ``enumerate_partial_equilibria``.

Each check returns a list of mismatch descriptions; an empty list passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mcsym import (
    Permutation,
    Rule,
    apply,
    emit_cycles,
    emit_system,
    enumerate_partial_equilibria,
    group_closure,
    import_closure,
    is_partial_equilibrium,
    is_symmetry,
    lex_leader_filter,
    parse_system,
    project_original,
)
from mcsym.sbc import default_order

from workloads import BOUND, ROOT

# Largest number of candidate belief states the brute-force oracle may scan.
ORACLE_STATES = 1 << 12
# How many before-states per instance are checked to be partial equilibria.
SOUNDNESS_SAMPLE = 4


@dataclass
class Capture:
    """What one pipeline run computed, kept by the capturing wrappers."""

    solved: list = field(default_factory=list)  # (system, states), in call order
    breakers: list | None = None
    extended: object = None
    generators: list | None = None  # the untruncated irredundant generators

    def targets(self) -> dict:
        def solve(fn):
            def wrapper(m, *args, **kwargs):
                states = fn(m, *args, **kwargs)
                self.solved.append((m, states))
                return states
            return wrapper

        def extend(fn):
            def wrapper(m, perms, *args, **kwargs):
                perms = list(perms)
                self.breakers = perms
                self.extended = fn(m, perms, *args, **kwargs)
                return self.extended
            return wrapper

        def reduce(fn):
            def wrapper(*args, **kwargs):
                self.generators = fn(*args, **kwargs)
                return self.generators
            return wrapper

        return {
            "mcsym.mcs.evaluate_distributed": solve,
            "mcsym.sbc.extend_mcs": extend,
            "mcsym.perm.reduce_irredundant": reduce,
        }


def oracle_states(m) -> int:
    """How many candidate belief states the brute-force oracle would scan."""
    total = 1
    for i in import_closure(m, ROOT):
        c = m.context(i)
        total <<= len(c.occurring() & frozenset(c.alphabet))
    return total


def planted_swaps(m) -> list:
    """The swaps of ``p :- not q.  q :- not p.`` pairs that are symmetries of ``m``."""
    swaps = []
    for c in m.contexts:
        for r in c.kb:
            if len(r.head) == 1 and not r.body_pos and len(r.body_neg) == 1:
                (p,), (q,) = r.head, r.body_neg
                mirror = Rule(frozenset({q}), frozenset(), frozenset({p}))
                if p < q and mirror in c.kb:
                    swap = Permutation({p: q, q: p})
                    if is_symmetry(m, swap):
                        swaps.append(swap)
    return swaps


def check_states(m, states) -> list[str]:
    """Closure of the solved states under the planted swaps, and a soundness sample."""
    out = []
    swaps = planted_swaps(m)
    # One swap already catches any single dropped state: its image stays.
    for swap in {swaps[0], swaps[-1]} if swaps else ():
        if {apply(swap, s) for s in states} != states:
            out.append(f"solved states are not closed under the symmetry {emit_cycles(swap)}")
    for s in sorted(states, key=lambda s: s.sort_key())[:SOUNDNESS_SAMPLE]:
        if not is_partial_equilibrium(m, s, ROOT):
            out.append(f"solved state {s} is not a partial equilibrium")
            break
    return out


def check_roundtrip(generated, m) -> list[str]:
    out = []
    if m != generated:
        out.append("parse_system(emit_system(generated)) differs from the generated system")
    if parse_system(emit_system(m)) != m:
        out.append("parse_system(emit_system(m)) != m")
    return out


def check_pipeline(mode: str, m, report, cap: Capture) -> list[str]:
    """Compare one run_pipeline result with the reference definitions."""
    out = []
    if not cap.solved or cap.solved[0][0] is not m:
        return ["the pipeline did not solve the input system first"]
    before = cap.solved[0][1]
    ext = cap.extended if cap.extended is not None else m
    if len(cap.solved) > 1:
        if cap.solved[1][0] is not ext:
            out.append("the pipeline solved a system other than its rewrite")
        after = cap.solved[1][1]
    else:
        after = before
    out += check_states(m, before)
    if (report.before, report.after) != (len(before), len(after)):
        out.append(
            f"report says before={report.before} after={report.after}, "
            f"solver gave {len(before)} and {len(after)}"
        )
    projected = {project_original(ext, s) for s in after}
    if len(projected) != len(after):
        out.append(f"projection merges {len(after) - len(projected)} after-states")
    if not projected <= before:
        out.append(f"{len(projected - before)} projected after-states are not before-states")
    if mode != "none":
        gens = cap.breakers if mode == "full" else cap.generators
        leaders = lex_leader_filter(before, gens or [], default_order(m))
        if not leaders <= projected:
            out.append(f"{len(leaders - projected)} lex-leaders were broken away")
        if mode == "full" and leaders != projected:
            out.append(f"{len(projected - leaders)} after-states are not lex-leaders")
    if ext is not m and parse_system(emit_system(ext)) != ext:
        out.append("the rewrite does not survive its text round trip")
    if oracle_states(m) <= ORACLE_STATES:
        if enumerate_partial_equilibria(m, ROOT, bound=BOUND) != before:
            out.append("evaluate_distributed differs from enumerate_partial_equilibria (before)")
        if ext is not m and enumerate_partial_equilibria(ext, ROOT, bound=BOUND) != after:
            out.append("evaluate_distributed differs from enumerate_partial_equilibria (after)")
    return out


def check_detection(perms, reply) -> list[str]:
    """The service's reply must generate the group ``dsd`` enumerates."""
    got = reply.perms if reply.complete else group_closure(reply.perms)
    if got == perms:
        return []
    return [
        f"service reply generates {len(got)} permutations ({'complete' if reply.complete else 'generators'}), "
        f"dsd gives {len(perms)}"
    ]
