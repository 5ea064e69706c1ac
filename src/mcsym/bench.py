"""Benchmark instance generation and the detect/break/solve pipeline.

Topologies (an edge ``u -> v`` means context ``u`` imports from context ``v``):

* ``diamond``: stacked diamonds; diamond ``d`` has top ``3d-2``, middles
  ``3d-1`` and ``3d``, bottom ``3d+1`` (the next diamond's top), so ``n`` must
  be ``1 mod 3``.  The two middles are unconnected.
* ``zigzag``: diamonds plus the tie-breaking edge middle1 -> middle2.
* ``house``: a ridge imports both middles, and the four cycle edges
  m1 -> b1 -> m2 -> b2 -> m1 close the walls; basements become the ridges of
  later houses (FIFO), so ``n`` must be ``1 mod 4``.
* ``ring``: ``i -> i+1`` and ``n -> 1``; ``n >= 2``.

Knowledge bases are drawn per context from a counter-based generator (Philox)
seeded by spawning one child sequence per context off the instance seed, so
instances are reproducible byte for byte.  The draws are numpy's, made by
:mod:`mcsym._rng`, an exact pure-Python port of its ``SeedSequence.spawn``,
its Philox 4x64-10 bit generator, and ``Generator.random``,
``Generator.integers`` (Lemire's bounded method on buffered 32-bit draws)
and ``Generator.choice`` without replacement (Floyd's algorithm, then a
Fisher-Yates shuffle of the picks).  Most contexts carry an interchangeable
atom pair (an even/odd choice gadget kept away from the export interface),
which is what gives the symmetry-breaking rewrite something to compress.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from typing import Sequence

from . import _rng
from .asp import EMPTY, Rule, Singletons
from .errors import ParseError
from .detect import dsd, lsd
from .mcs import (
    BridgeRule,
    Context,
    System,
    _check_bound,
    evaluate_distributed,
    import_closure,
)
from .perm import Atom, Permutation, perm_sort_key
from .sbc import extend_mcs, select_breaking_set

TOPOLOGIES = ("diamond", "zigzag", "house", "ring")
MODES = ("none", "full", "generators")
# the sizes ``mcsym bench`` runs when no ``--n`` is given
DEFAULT_SIZES = {"diamond": [4, 7], "zigzag": [4, 7], "house": [5, 9], "ring": [3, 6]}


@dataclass(frozen=True)
class TopologySpec:
    topology: str
    n: int
    seed: int
    atoms_per_context: int = 4
    max_exports: int = 3
    max_kb_rules: int = 2
    max_bridge_rules: int = 3
    max_body: int = 2
    pair_probability: float = 0.8

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ParseError(f"unknown topology {self.topology!r}")
        if self.topology in ("diamond", "zigzag") and (self.n < 4 or self.n % 3 != 1):
            raise ParseError(f"{self.topology} needs n = 1 mod 3, n >= 4; got {self.n}")
        if self.topology == "house" and (self.n < 5 or self.n % 4 != 1):
            raise ParseError(f"house needs n = 1 mod 4, n >= 5; got {self.n}")
        if self.topology == "ring" and self.n < 2:
            raise ParseError(f"ring needs n >= 2; got {self.n}")
        if self.atoms_per_context < 3:
            raise ParseError("need at least 3 atoms per context")
        if self.seed < 0:
            raise ParseError(f"seed must be at least 0, got {self.seed}")
        for name, least in zip(("max_exports", "max_kb_rules", "max_bridge_rules", "max_body"), (1, 1, 0, 1)):
            if getattr(self, name) < least:
                raise ParseError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0 <= self.pair_probability <= 1:
            raise ParseError(f"pair_probability must be in [0, 1], got {self.pair_probability}")


def topology_edges(spec: TopologySpec) -> frozenset[tuple[int, int]]:
    """Import edges ``(u, v)``: context u's bridges reference context v."""
    edges: set[tuple[int, int]] = set()
    n = spec.n
    if spec.topology in ("diamond", "zigzag"):
        for d in range(1, (n - 1) // 3 + 1):
            t, m1, m2, b = 3 * d - 2, 3 * d - 1, 3 * d, 3 * d + 1
            edges |= {(t, m1), (t, m2), (m1, b), (m2, b)}
            if spec.topology == "zigzag":
                edges.add((m1, m2))
    elif spec.topology == "house":
        queue = [1]
        nxt = 2
        while nxt + 3 <= n:
            r = queue.pop(0)
            m1, m2, b1, b2 = nxt, nxt + 1, nxt + 2, nxt + 3
            nxt += 4
            edges |= {(r, m1), (r, m2), (m1, b1), (b1, m2), (m2, b2), (b2, m1)}
            queue += [b1, b2]
    else:  # ring
        edges = {(i, i + 1) for i in range(1, n)}
        edges.add((n, 1))
    return frozenset(edges)


def generate(spec: TopologySpec) -> System:
    """A reproducible random system on the requested topology."""
    ids = range(1, spec.n + 1)
    rngs = dict(zip(ids, _rng.spawn(spec.seed, spec.n)))
    out_edges: dict[int, list[int]] = {i: [] for i in ids}
    for u, v in sorted(topology_edges(spec)):
        out_edges[u].append(v)

    alphabet = {i: tuple(Atom(i, f"a{i}_{j}") for j in range(1, spec.atoms_per_context + 1)) for i in ids}
    plain: dict[int, list[Atom]] = {}
    exports: dict[int, list[Atom]] = {}
    kbs: dict[int, list[Rule]] = {}
    # one-atom rule fields, shared across the system
    sets = Singletons().fill([a for atoms in alphabet.values() for a in atoms])
    for i in ids:
        rng = rngs[i]
        atoms = alphabet[i]
        if rng.random() < spec.pair_probability:
            p, q = atoms[-2:]
            plain[i] = own = list(atoms[:-2])
            kbs[i] = kb = [Rule(sets[p], EMPTY, sets[q]), Rule(sets[q], EMPTY, sets[p])]
        else:
            plain[i] = own = list(atoms)
            kbs[i] = kb = []
        exports[i] = own[:rng.integers(1, min(spec.max_exports, len(own)) + 1)]
        for _ in range(rng.integers(1, spec.max_kb_rules + 1)):
            heads = {own[rng.integers(0, len(own))]}
            if len(own) >= 2 and rng.random() < 0.2:
                heads.add(own[rng.integers(0, len(own))])
            body_pool = [a for a in own if a not in heads]
            size = rng.integers(0, min(spec.max_body, len(body_pool)) + 1)
            head = sets[heads.pop()] if len(heads) == 1 else frozenset(heads)
            kb.append(Rule(head, *_random_body(rng, body_pool, size, sets)))

    contexts = []
    for i in ids:
        rng, own, outs = rngs[i], plain[i], out_edges[i]
        brs = [_random_bridge(rng, spec, own, exports[v], sets) for v in outs]
        if outs:
            extra = rng.integers(0, max(0, spec.max_bridge_rules - len(outs)) + 1)
            for _ in range(extra):
                v = outs[rng.integers(0, len(outs))]
                brs.append(_random_bridge(rng, spec, own, exports[v], sets))
        contexts.append(Context(i, alphabet[i], tuple(kbs[i]), tuple(brs)))
    return System(tuple(contexts))


def _random_bridge(
    rng: _rng.Philox,
    spec: TopologySpec,
    own_plain: Sequence[Atom],
    neighbour_exports: Sequence[Atom],
    sets: Singletons,
) -> BridgeRule:
    head = own_plain[rng.integers(0, len(own_plain))]
    size = rng.integers(1, min(spec.max_body, len(neighbour_exports)) + 1)
    return BridgeRule(head, *_random_body(rng, neighbour_exports, size, sets))


def _random_body(
    rng: _rng.Philox, pool: Sequence[Atom], size: int, sets: Singletons
) -> tuple[frozenset[Atom], frozenset[Atom]]:
    """``size`` distinct atoms of ``pool``, each negated with probability 0.4, as body fields."""
    pos: set[Atom] = set()
    neg: set[Atom] = set()
    for idx in sorted(rng.choice(len(pool), size)):
        (neg if rng.random() < 0.4 else pos).add(pool[idx])
    return (
        EMPTY if not pos else sets[pos.pop()] if len(pos) == 1 else frozenset(pos),
        EMPTY if not neg else sets[neg.pop()] if len(neg) == 1 else frozenset(neg),
    )


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class RunReport:
    instance: str
    topology: str
    n: int
    seed: int
    root: int
    mode: str
    before: int
    after: int
    compression: float
    group_size: int
    generator_count: int
    t_detect: float
    t_break: float
    t_solve_before: float
    t_solve_after: float

    def row(self) -> dict:
        row = {"kind": "instance"} | asdict(self)
        return {k: round(v, 6) if isinstance(v, float) else v for k, v in row.items()}


def select_breakers(
    m: System, root: int, mode: str, budget: int | None = 8
) -> tuple[list[Permutation], int]:
    """The permutations to break from ``root``, and the detected group's order.

    ``mode="none"`` breaks nothing; ``mode="full"`` breaks the entire set
    ``dsd`` detects; ``mode="generators"`` detects per-context local
    symmetries (pinning the export interface) and keeps an irredundant
    generating subset truncated to ``budget``.  Local-mode sets move only
    their own context's unexported atoms, so their supports are disjoint and
    the group they generate is the direct product of the sets.
    """
    if budget is not None and budget < 0:
        raise ParseError(f"budget must be at least 0, got {budget}")
    if mode == "none":
        return [], 0
    if mode == "full":
        detected = dsd(m, root)
        breakers = sorted((p for p in detected if not p.is_identity()), key=perm_sort_key)
        return breakers, len(detected)
    if mode == "generators":
        pool: set[Permutation] = set()
        group_size = 1
        for i in sorted(import_closure(m, root)):
            local = lsd(m, i, mode="local")
            group_size *= len(local)
            pool |= {p for p in local if not p.is_identity()}
        return select_breaking_set(pool, budget=budget), group_size
    raise ParseError(f"unknown pipeline mode {mode!r}")


def run_pipeline(
    m: System,
    root: int,
    mode: str = "full",
    budget: int = 8,
    *,
    instance: str = "",
    topology: str = "",
    n: int = 0,
    seed: int = 0,
    bound: int = 20,
) -> RunReport:
    """Detect symmetries from ``root``, rewrite, and solve before/after.

    ``mode`` chooses the breakers as :func:`select_breakers` does;
    ``mode="none"`` is a baseline run that skips the rewrite.  A negative
    ``bound`` is a :class:`ParseError`, raised before any work.
    """
    _check_bound(bound)
    t0 = time.perf_counter()
    breakers, group_size = select_breakers(m, root, mode, budget)
    t_detect = time.perf_counter() - t0

    t0 = time.perf_counter()
    extended = extend_mcs(m, breakers) if breakers else m
    t_break = time.perf_counter() - t0

    t0 = time.perf_counter()
    before = evaluate_distributed(m, root, bound=bound)
    t_solve_before = time.perf_counter() - t0

    t0 = time.perf_counter()
    after = evaluate_distributed(extended, root, bound=bound) if breakers else before
    t_solve_after = time.perf_counter() - t0

    nb, na = len(before), len(after)
    compression = 1.0 - (na / nb) if nb else 0.0
    return RunReport(
        instance=instance or (f"{topology}-n{n}-s{seed}" if topology else "instance"),
        topology=topology,
        n=n,
        seed=seed,
        root=root,
        mode=mode,
        before=nb,
        after=na,
        compression=compression,
        group_size=group_size,
        generator_count=len(breakers),
        t_detect=t_detect,
        t_break=t_break,
        t_solve_before=t_solve_before,
        t_solve_after=t_solve_after,
    )


# ---------------------------------------------------------------------------
# reporting


_COLUMNS = ["kind", *(f.name for f in fields(RunReport)), "count"]


def _aggregate(reports: Sequence[RunReport]) -> list[dict]:
    cells: dict[tuple[str, int, str], list[RunReport]] = {}
    for r in reports:
        cells.setdefault((r.topology, r.n, r.mode), []).append(r)
    out = []
    for (topology, n, mode), rs in sorted(cells.items()):
        out.append(
            {
                "kind": "aggregate",
                "topology": topology,
                "n": n,
                "mode": mode,
                "count": len(rs),
                "before": round(sum(r.before for r in rs) / len(rs), 6),
                "after": round(sum(r.after for r in rs) / len(rs), 6),
                "compression": round(sum(r.compression for r in rs) / len(rs), 6),
            }
        )
    return out


def report_table(reports: Sequence[RunReport], format: str = "text") -> str:
    """Render per-instance rows plus per-(topology, n, mode) averages."""
    rows = [r.row() for r in reports]
    aggregates = _aggregate(reports)
    if format == "json":
        import json

        return json.dumps({"instances": rows, "aggregates": aggregates}, indent=2)
    if format == "csv":
        import csv
        import io

        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=_COLUMNS)
        w.writeheader()
        for row in rows + aggregates:
            w.writerow({c: row.get(c, "") for c in _COLUMNS})
        return buf.getvalue()
    if format != "text":
        raise ParseError(f"unknown report format {format!r}")
    lines = _aligned(["instance", "mode", "before", "after", "compression", "group_size",
                      "generator_count", "t_detect", "t_solve_before", "t_solve_after"], rows)
    if aggregates:
        lines.append("")
        lines += _aligned(["topology", "n", "mode", "count", "before", "after", "compression"], aggregates)
    return "\n".join(lines) + "\n"


def _aligned(cols: list[str], rows: list[dict]) -> list[str]:
    """A header line and one line per row, each column left-aligned to its widest cell."""
    cells = [cols] + [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(line[j]) for line in cells) for j in range(len(cols))]
    return ["  ".join(x.ljust(w) for x, w in zip(line, widths)) for line in cells]
