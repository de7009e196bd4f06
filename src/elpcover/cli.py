"""Command line front end: vc solve|exact|compare|gen|hunt.

Instances are DIMACS or whitespace edge-list files (format sniffed, or forced
with --format), or inline generator specs prefixed with "gen:", e.g.
"gen:cycle(5)". Exit codes: 0 success, 2 parse error (unreadable or malformed
instance, bad generator spec, bad arguments), 3 hypothesis failure (base
mode), 4 size cap exceeded, 5 internal error (a solver safety cap was
reached or a cover broke its proven bound: a bug, reported in one line).
Set VC_LOG=debug|info|warning for logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .elp import CapExceededError
from .graph import GraphFormatError, detect_format, generate, parse_graph, to_dimacs
from .oracles import exact_vc
from .runner import (
    ORACLE_CAP,
    SCHEMA_VERSION,
    check_hunt_args,
    compare_instance,
    dump_json,
    format_comparison,
    hunt,
    hunt_instance,
    hunt_rows_csv,
    solve_instance,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

# Raised only when the program itself is at fault: every safety cap that a
# correct solver never reaches is a RuntimeError, and every broken invariant
# or proven bound an AssertionError.
INTERNAL_ERRORS = (AssertionError, RuntimeError)

log = logging.getLogger("elpcover.cli")


def _setup_logging() -> None:
    level = os.environ.get("VC_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _generate(spec: str):
    """generate(spec), with a malformed or out-of-range spec as an input error."""
    try:
        return generate(spec)
    except ValueError as exc:
        raise GraphFormatError(f"generator spec {spec!r}: {exc}") from exc


def _load_instance(spec: str, fmt: str | None):
    """Returns (graph, name, source). spec is a path or "gen:<generator>"."""
    if spec.startswith("gen:"):
        g, name = _generate(spec[4:])
        return g, name, spec
    path = Path(spec)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {spec}: {exc}") from exc
    g = parse_graph(text, fmt or detect_format(text))
    return g, path.name, str(path)


def _emit(payload: dict, json_target: str | None, summary: str | None) -> None:
    if summary:
        print(summary)
    if json_target == "-":
        sys.stdout.write(dump_json(payload))
    elif json_target:
        Path(json_target).write_text(dump_json(payload))


def _cmd_solve(args) -> int:
    g, name, source = _load_instance(args.instance, args.format)
    report = solve_instance(
        g,
        name=name,
        source=source,
        mode=args.mode,
        seed=args.seed,
        edge_rule=args.edge_rule,
        oracle_cap=args.oracle_cap,
        timings=args.timings,
    )
    if report["hypothesisFailed"]:
        _emit(report, args.json, f"{name}: active edge hypothesis failed (L={report['trace'][-1]['k']}); re-run with --mode enhanced")
        return EXIT_HYPOTHESIS
    cert = report["certificate"]
    summary = (
        f"{name}: cover size {report['coverSize']}  f1={report['f1']}  "
        f"xi={cert['xi']}  lambda={cert['lambda']}  "
        f"cover={' '.join(str(v) for v in report['cover'])}"
    )
    if report["oracle"]:
        summary += f"\n  optimum {report['oracle']['optSize']} (ratio {report['oracle']['ratio']})"
    _emit(report, args.json, summary)
    return EXIT_OK


def _cmd_exact(args) -> int:
    g, name, source = _load_instance(args.instance, args.format)
    result = exact_vc(g, enumerate_all=args.all, cap=args.cap)
    payload = {
        "schema": SCHEMA_VERSION,
        "instance": {"name": name, "n": g.n, "m": g.m, "source": source},
        "optSize": result.opt_size,
        "cover": sorted(result.cover),
        "allOptimalCovers": (
            [sorted(c) for c in result.all_covers] if result.all_covers else None
        ),
    }
    summary = f"{name}: optimum {result.opt_size}  cover={' '.join(str(v) for v in sorted(result.cover))}"
    if result.all_covers is not None:
        summary += f"\n  optimal covers: {len(result.all_covers)}"
    _emit(payload, args.json, summary)
    return EXIT_OK


def _cmd_compare(args) -> int:
    g, name, source = _load_instance(args.instance, args.format)
    comparison = compare_instance(g, name=name, source=source)
    _emit(comparison, args.json, format_comparison(comparison))
    return EXIT_OK


def _cmd_gen(args) -> int:
    g, name = _generate(args.spec)
    text = to_dimacs(g, comments=[f"generated: {name}"])
    if args.out:
        Path(args.out).write_text(text)
        print(f"{name}: n={g.n} m={g.m} -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_hunt(args) -> int:
    summary, rows = hunt(
        gen=args.gen,
        n_range=args.n_range,
        trials=args.trials,
        seed=args.seed,
        edge_rule=args.edge_rule,
        jobs=args.jobs,
        oracle_cap=args.oracle_cap,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "hunt.json").write_text(dump_json(summary))
    (outdir / "hunt.csv").write_text(hunt_rows_csv(rows))
    # Nonzero-xi instances are findings; archive them for reproduction.
    for item in summary["nonzeroXiInstances"]:
        g, _ = hunt_instance(args.gen, item["index"], args.seed, args.n_range)
        path = outdir / f"nonzero_xi_{item['index']:05d}.col"
        path.write_text(to_dimacs(g, comments=[item["name"], f"xi={item['xi']}"]))
    print(
        f"hunt: {args.trials} instances, xi=0 on {summary['xiZeroCount']} "
        f"({summary['xiZeroRate']}); oracle-checked {summary['oracleChecked']}; "
        f"archived {len(summary['nonzeroXiInstances'])} nonzero-xi instance(s) under {outdir}"
    )
    if summary["guaranteeViolations"]:
        print(f"GUARANTEE VIOLATIONS (findings): {summary['guaranteeViolations']}")
    return EXIT_OK


def count(text: str) -> int:
    """argparse type of a count flag; a negative count is a usage error."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"needs a count >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vc",
        description="Vertex cover via the odd-cycle-strengthened LP relaxation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument("instance", help="instance path or gen:<spec>, e.g. gen:cycle(5)")
        p.add_argument("--format", choices=["dimacs", "edgelist"], default=None)
        p.add_argument("--json", metavar="PATH", default=None, help="write JSON report (- for stdout)")

    solve = sub.add_parser("solve", help="run the reduction algorithm")
    add_instance(solve)
    solve.add_argument("--mode", choices=["base", "enhanced"], default="enhanced")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--edge-rule", choices=["maxsum", "random"], default="maxsum")
    oracle = solve.add_mutually_exclusive_group()
    oracle.add_argument("--oracle-cap", type=count, default=ORACLE_CAP, help="largest n the exact oracle checks")
    oracle.add_argument("--no-oracle", dest="oracle_cap", action="store_const", const=None, help="skip the exact optimum check")
    solve.add_argument("--timings", action="store_true", help="include wall-clock (breaks byte-determinism)")
    solve.set_defaults(func=_cmd_solve)

    exact = sub.add_parser("exact", help="exact optimum by branch and bound")
    add_instance(exact)
    exact.add_argument("--all", action="store_true", help="enumerate all optimal covers")
    exact.add_argument("--cap", type=count, default=None, help="vertex-count cap override")
    exact.set_defaults(func=_cmd_exact)

    compare = sub.add_parser("compare", help="algorithm vs 2-approximation baselines")
    add_instance(compare)
    compare.set_defaults(func=_cmd_compare)

    gen = sub.add_parser("gen", help="write a generated instance as DIMACS")
    gen.add_argument("spec", help="e.g. cycle(5), torus_grid(5,5), petersen, random_triangle_free(20,0.3,42)")
    gen.add_argument("-o", "--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    hunt_p = sub.add_parser("hunt", help="batch sweep hunting for nonzero error bounds")
    hunt_p.add_argument("--gen", choices=["gnp-trianglefree", "torus", "mixed"], default="gnp-trianglefree")
    hunt_p.add_argument("--n-range", type=int, nargs=2, default=(6, 20), metavar=("LO", "HI"))
    hunt_p.add_argument("--trials", type=count, default=100)
    hunt_p.add_argument("--seed", type=int, default=0)
    hunt_p.add_argument("--edge-rule", choices=["maxsum", "random"], default="maxsum")
    hunt_p.add_argument("--jobs", type=int, default=1)
    hunt_p.add_argument("--oracle-cap", type=count, default=ORACLE_CAP)
    hunt_p.add_argument("--out", default="hunt-out")
    hunt_p.set_defaults(func=_cmd_hunt, parser=hunt_p)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "hunt":
        error = args.parser.error  # prints the `vc hunt` usage line
        try:
            check_hunt_args(args.gen, args.n_range, args.trials, args.jobs, "--n-range")
        except ValueError as exc:
            error(str(exc))
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except INTERNAL_ERRORS as exc:
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
