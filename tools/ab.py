"""Alternating A/B runs of the benchmark between two revisions.

    python3 tools/ab.py --parent REV --change REV --pairs 10 --seconds 30 --out BENCH_N.json
    python3 tools/ab.py --parent REV --change REV --pairs 10 --first-seed 11 \\
        --workload sweep-small --key sweep_small_repeat --out BENCH_N.json
    python3 tools/ab.py --parent REV --change REV --pairs 1 --trace 1 --key trace --out BENCH_N.json
    python3 tools/ab.py --parent REV --change REV --pairs 20 --in-process --key in_process --out BENCH_N.json

Each revision is checked out with ``git worktree`` under a temporary
directory, which is removed at the end. Pair i runs ``bench/run.py`` of both
checkouts one after the other with seed ``first_seed + i - 1``, the parent
first in odd pairs, and reads each run's detail and result lines. Per
workload the record holds every run and, for an untraced set, ``ab_pairs``:
each end-to-end metric's medians, both sides' quartiles
(``statistics.quantiles(n=4)``), the parent's IQR (q3 - q1), the pairs
the change won, by the metric's direction in ``BENCHMARK.json``, and the
median of the per-pair change/parent ratios, which a slow phase of the
host that spans several pairs moves less than it moves the two medians.

``--in-process`` imports both checkouts' ``elpcover`` into this one
interpreter and alternates them instance by instance over ``--pairs``
passes (the parent first in odd passes; ``--seconds`` is not used). One
operation is ``bench/run.py``'s ``solve_one``: parse, solve, write the
report. The record holds per-instance median ratios, medians and sums of
the per-instance median and minimum times, and whether the first pass's
reports were equal byte for byte. It is evidence beside the pairs, not a
claim set.

The record goes to ``--out``: at the top level, or under ``--key``, keeping
whatever else the file holds. Runs get ``PYTHONDONTWRITEBYTECODE=1``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


@contextlib.contextmanager
def checkouts(revs: dict):
    """A worktree per side at its revision, as {side: path}."""
    with tempfile.TemporaryDirectory(prefix="ab-") as root:
        trees = {}
        try:
            for side, rev in revs.items():
                trees[side] = Path(root) / side
                git("worktree", "add", "--detach", "--quiet", str(trees[side]), rev)
            yield trees
        finally:
            for path in trees.values():
                with contextlib.suppress(subprocess.CalledProcessError):
                    git("worktree", "remove", "--force", str(path))
            git("worktree", "prune")


def side_order(number: int) -> tuple[str, ...]:
    return SIDES if number % 2 else SIDES[::-1]


def quartiles(xs: list) -> list:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return [q[0], q[2]]


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run: its metric values, failures, passes and digest."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"ab: {' '.join(cmd)} in {tree.name} failed: {proc.stderr.strip()[-500:]}")
    *_, detail_line, result_line = proc.stdout.splitlines()
    detail, result = json.loads(detail_line)["detail"], json.loads(result_line)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "failed": result["failed"], "passes": detail["passes"],
            "reports_sha256": detail["reports_sha256"], **values}


def ab_pairs(runs: dict, end_to_end: list) -> dict:
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {
            "pairs": len(parent),
            "parent_median": statistics.median(parent),
            "parent_quartiles": pq,
            "parent_iqr": pq[1] - pq[0],
            "change_median": statistics.median(change),
            "change_quartiles": cq,
            "change_wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
            "median_pair_ratio": statistics.median(c / p for p, c in zip(parent, change)),
        }
    return out


def process_pairs(trees: dict, workloads, args, end_to_end) -> dict:
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for workload in workloads:
        for pair in range(1, args.pairs + 1):
            seed = args.first_seed + pair - 1
            for side in side_order(pair):
                run = bench_run(trees[side], workload, seed, args.seconds, args.trace)
                runs[workload][side].append({"pair": pair, **run})
                print(f"{workload} pair {pair} {side}: {run.get('solve_ms_p50', '')}", file=sys.stderr)
    block = {"runs": runs}
    if not args.trace:
        block["ab_pairs"] = {w: ab_pairs(runs[w], end_to_end) for w in workloads}
    return block


def load_tree(tree: Path):
    """bench/run.py and the program of tree, imported under private names
    so that a second tree's elpcover can be imported beside them."""
    paths = [str(tree / "bench")]
    sys.path[:0] = paths
    try:
        spec = importlib.util.spec_from_file_location(f"ab_run_{tree.name}", tree / "bench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        program = run.load_program()
    finally:
        sys.path[:] = [p for p in sys.path if p not in (*paths, str(run.SRC))]
        for name in [m for m in sys.modules if m.split(".")[0] in ("elpcover", "corpus")]:
            del sys.modules[name]  # each tree's modules keep their own references
    return run, program


def in_process(trees: dict, workloads, passes: int) -> dict:
    sys.dont_write_bytecode = True
    loaded = {side: load_tree(trees[side]) for side in SIDES}
    out = {}
    for workload in workloads:
        inputs = loaded["parent"][0].corpus.build(workload)
        times = {side: [[] for _ in inputs] for side in SIDES}
        dumps = {side: {} for side in SIDES}
        failed = dict.fromkeys(SIDES, 0)
        for side in SIDES:
            run, program = loaded[side]
            run.solve_one(program, *run.WARM_UP[0])
        for number in range(1, passes + 1):
            for idx in loaded["parent"][0].corpus.submission_order(len(inputs), number):
                for side in side_order(number):
                    run, program = loaded[side]
                    started = time.perf_counter()
                    g, report, dumped = run.solve_one(program, *inputs[idx])
                    times[side][idx].append(time.perf_counter() - started)
                    if number == 1:
                        dumps[side][idx] = (report, dumped)
                        failed[side] += run.check(program.validate_cover, g, report) is not None
        med = {side: [statistics.median(t) * 1e3 for t in times[side]] for side in SIDES}
        low = {side: [min(t) * 1e3 for t in times[side]] for side in SIDES}
        ratios = [c / p for p, c in zip(med["parent"], med["change"])]
        run = loaded["parent"][0]
        block = {
            "passes": passes,
            "instances": len(inputs),
            "median_instance_ratio": round(statistics.median(ratios), 3),
            "failed": failed,
            "reports_identical": [d for _, d in dumps["parent"].values()] == [d for _, d in dumps["change"].values()],
            "reports_sha256": {side: run.reports_sha256(dumps[side]) for side in SIDES},
        }
        for name, per in (("median", med), ("min", low)):
            block[f"solve_ms_p50_{name}"] = {s: round(statistics.median(per[s]), 4) for s in SIDES}
            block[f"solve_ms_tail_{name}"] = {s: round(run.tail(per[s])[0], 4) for s in SIDES}
            block[f"pass_ms_{name}"] = {s: round(sum(per[s]), 2) for s in SIDES}
        if len(inputs) <= 10:
            block["by_instance"] = {
                name: {"parent_ms": round(p, 3), "change_ms": round(c, 3), "ratio": round(c / p, 3)}
                for (name, _), p, c in zip(inputs, med["parent"], med["change"])
            }
        out[workload] = block
        print(f"{workload}: {json.dumps(block)}", file=sys.stderr)
    return {"runs": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the changed side")
    parser.add_argument("--pairs", type=int, required=True, help="pairs of runs, or passes with --in-process")
    parser.add_argument("--seconds", type=float, default=30.0, help="--seconds of each bench/run.py run")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write the record into")
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of pair 1 (default 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="--trace of each run")
    parser.add_argument("--in-process", action="store_true", help="alternate both trees in this interpreter")
    parser.add_argument("--key", help="store the record under this key of --out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs needs at least 1")

    revs = {"parent": args.parent, "change": args.change}
    with checkouts(revs) as trees:
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        if args.in_process:
            block = in_process(trees, workloads, args.pairs)
        else:
            block = process_pairs(trees, workloads, args, spec["end_to_end"])
    seeds = f"{args.first_seed}-{args.first_seed + args.pairs - 1}"
    command = "in-process" if args.in_process else (
        f"python3 bench/run.py --workload <workload> --seed <{seeds}> "
        f"--seconds {args.seconds:g} --trace {args.trace}"
    )
    record = {
        "parent_commit": git("rev-parse", "--short", args.parent),
        "change_commit": git("rev-parse", "--short", args.change),
        "command": command,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        **block,
    }
    existing = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.key:
        existing[args.key] = record
    else:
        existing.update(record)
    args.out.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
