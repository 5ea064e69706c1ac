"""Command-line interface.

Subcommands: ``gen`` (benchmark instances), ``detect`` (symmetry detection),
``break`` (symmetry-breaking rewrite), ``solve`` (equilibria), ``bench``
(the full pipeline with a report table).

Exit codes: 0 success, 2 malformed input, 3 a size bound was exceeded,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import bench as bench_mod
from .detect import DetectionService, build_gap, dsd, exported_atoms
from .errors import BoundExceeded, McsymError, ParseError
from .mcs import (_emit_sections, component_parts, emit_system, enumerate_partial_equilibria,
                  evaluate_distributed, load_system)
from .perm import Permutation, emit_cycles, perm_sort_key
from .sbc import extend_mcs
from .autograph import emit_graph


def _write_out(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cycles_line(p: Permutation) -> str:
    return emit_cycles(p) or "()"


def cmd_gen(args: argparse.Namespace) -> int:
    spec = bench_mod.TopologySpec(
        topology=args.topology,
        n=args.n,
        seed=args.seed,
        atoms_per_context=args.atoms,
        max_exports=args.exports,
        max_kb_rules=args.kb_rules,
        max_bridge_rules=args.bridge_rules,
        max_body=args.body,
        pair_probability=args.pair_probability,
    )
    _write_out(emit_system(bench_mod.generate(spec)), args.output)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    m = load_system(args.file)
    if args.dump_gap:
        ctx = m.context(args.root)
        gap = build_gap(ctx, len(m.contexts), args.mode, exported_atoms(m, args.root))
        sys.stdout.write(emit_graph(gap.graph))
        return 0
    if args.service:
        service = DetectionService(m, mode=args.mode, message_cap=args.message_cap)
        result = service.request(args.root)
        perms = result.perms
        kind = "complete" if result.complete else "generators"
        if args.verbose:
            for line in service.log:
                print(f"# {line}", file=sys.stderr)
            requests, hits = service.requests, service.cache_hits
            for k in sorted(requests):
                print(
                    f"# node {k}: {requests[k]} requests, {hits[k]} cache hits",
                    file=sys.stderr,
                )
    else:
        perms = dsd(m, args.root, mode=args.mode)
        kind = "complete"
    print(f"PERMSET {len(perms)} {kind}")
    for p in sorted(perms, key=perm_sort_key):
        print(_cycles_line(p))
    return 0


def cmd_break(args: argparse.Namespace) -> int:
    m = load_system(args.file)
    breakers, _ = bench_mod.select_breakers(m, args.root, args.mode, args.budget)
    extended = extend_mcs(m, breakers)
    if args.emit_sbc:
        lines: list[str] = []
        for c_old, c_new in zip(m.contexts, extended.contexts):
            added = (c_new.aux[len(c_old.aux):], c_new.kb[len(c_old.kb):], c_new.br[len(c_old.br):])
            if any(added):
                lines.append(f"context {c_old.id}")
                _emit_sections(lines, *added)
        _write_out("".join(line + "\n" for line in lines), args.output)
    else:
        _write_out(emit_system(extended), args.output)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    m = load_system(args.file)
    if args.naive:
        states = enumerate_partial_equilibria(m, args.root, bound=args.bound)
    else:
        states = evaluate_distributed(m, args.root, bound=args.bound)
    # states share components: key and render each distinct one once
    parts: dict[tuple, tuple[tuple, str]] = {}
    rows = []
    for s in states:
        comps = [parts.get(c) or parts.setdefault(c, component_parts(*c)) for c in s.components]
        rows.append((tuple([key for key, _ in comps]), " ".join([text for _, text in comps])))
    rows.sort()  # no two states share a key
    sys.stdout.writelines(text + "\n" for _, text in rows)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    reports = []
    for topology in args.topology:
        for n in args.n or bench_mod.DEFAULT_SIZES[topology]:
            for seed in args.seeds:
                m = bench_mod.generate(bench_mod.TopologySpec(topology=topology, n=n, seed=seed))
                for mode in args.mode:
                    reports.append(
                        bench_mod.run_pipeline(
                            m, root=1, mode=mode, budget=args.budget,
                            topology=topology, n=n, seed=seed,
                        )
                    )
    sys.stdout.write(bench_mod.report_table(reports, format=args.format))
    return 0


def _int_list(text: str) -> list[int]:
    try:
        items = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        items = []
    if not items:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return items


def _choice_list(choices: tuple[str, ...]):
    def parse(text: str) -> list[str]:
        items = [x.strip() for x in text.split(",") if x.strip()]
        if not items or any(x not in choices for x in items):
            raise argparse.ArgumentTypeError(
                f"expected comma-separated values from {', '.join(choices)}, got {text!r}"
            )
        return items

    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mcsym", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark instance")
    g.add_argument("--topology", required=True, choices=bench_mod.TOPOLOGIES)
    g.add_argument("--n", type=int, required=True, help="number of contexts")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--atoms", type=int, default=4)
    g.add_argument("--exports", type=int, default=3)
    g.add_argument("--kb-rules", type=int, default=2)
    g.add_argument("--bridge-rules", type=int, default=3)
    g.add_argument("--body", type=int, default=2)
    g.add_argument("--pair-probability", type=float, default=0.8)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_gen)

    d = sub.add_parser("detect", help="detect symmetries from a root context")
    d.add_argument("file")
    d.add_argument("--root", type=int, required=True)
    d.add_argument("--mode", choices=("shared", "local"), default="shared")
    d.add_argument("--service", action="store_true", help="run the per-context node service")
    d.add_argument("--message-cap", type=int, default=4096)
    d.add_argument("--verbose", action="store_true")
    d.add_argument("--dump-gap", action="store_true", help="print the root's detection graph")
    d.set_defaults(func=cmd_detect)

    b = sub.add_parser("break", help="rewrite with symmetry-breaking constraints")
    b.add_argument("file")
    b.add_argument("--root", type=int, required=True)
    b.add_argument("--mode", choices=("full", "generators"), default="full")
    b.add_argument("--budget", type=int, default=8)
    b.add_argument("--emit-sbc", action="store_true", help="print only the added sections")
    b.add_argument("-o", "--output")
    b.set_defaults(func=cmd_break)

    s = sub.add_parser("solve", help="enumerate (partial) equilibria")
    s.add_argument("file")
    s.add_argument("--root", type=int, default=None)
    s.add_argument("--naive", action="store_true", help="use the exhaustive reference search")
    s.add_argument("--bound", type=int, default=20)
    s.set_defaults(func=cmd_solve)

    be = sub.add_parser("bench", help="generate, break, and solve a grid of instances")
    be.add_argument("--topology", type=_choice_list(bench_mod.TOPOLOGIES), required=True,
                    help="comma-separated topologies")
    be.add_argument("--n", type=_int_list, help="comma-separated sizes "
                    "(default: a grid of valid sizes per topology)")
    be.add_argument("--seeds", type=_int_list, required=True, help="comma-separated seeds")
    be.add_argument("--mode", type=_choice_list(bench_mod.MODES), default=["full"],
                    help="comma-separated modes; each instance runs every one")
    be.add_argument("--budget", type=int, default=8)
    be.add_argument("--format", choices=("text", "csv", "json"), default="text")
    be.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BoundExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except McsymError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
