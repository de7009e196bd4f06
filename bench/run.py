"""Benchmark of ``vc solve``: throughput, latency and set-up time per workload,
plus a traced mode that splits the time across the program's layers.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload lp-large --seed 1 --seconds 30 --trace 1

One process, one client, closed loop. Each operation is what ``vc solve``
does in process: ``graph.parse_graph`` on the DIMACS text, then
``runner.solve_instance`` (enhanced mode, seed 0, maxsum edge rule, exact
oracle up to n = 26), then ``runner.dump_json``. Every report goes through a
correctness gate; a failing instance is counted and the run goes on.

``--trace 0`` makes whole passes over the corpus until the next pass would
end after ``--seconds`` and reports the end-to-end metrics from each
instance's median time over the passes. ``--trace 1`` alternates untraced
and traced passes the same way and reports the per-layer metrics; its
counters repeat exactly for a corpus. The last line of standard output is
one JSON object; the lines before it print every metric with its unit and a
JSON detail record (environment, input and report digests, tail
percentile, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import corpus

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"  # span files of traced runs

ORACLE_CAP = 26  # runner.solve_instance's default exact-oracle cap
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
SETUP_PROBES = 7  # at least: one after each pass, topped up to this
# Measuring stops mid-pass past this, so that a run ends well within 180 s.
HARD_LIMIT_S = 140.0
# K4 goes through cut rounds, the pin sweep and a 3-cycle reduction. It is
# solved untimed before measuring, and traced at the start of every traced
# pass, so that each layer records spans on every workload.
WARM_UP = [("warm-up K4", "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")]


class BenchError(Exception):
    """The benchmark cannot run here (no program sources, a failed probe)."""


def load_program() -> SimpleNamespace:
    """Import elpcover from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "elpcover" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from elpcover import _rat, cover, graph, runner

    if Path(graph.__file__).resolve().parent != SRC / "elpcover":
        raise BenchError(f"imported elpcover from {graph.__file__}, not {SRC}")
    # The gate keeps its own reference, so traced runs do not count it as a layer.
    return SimpleNamespace(
        graph=graph, runner=runner, validate_cover=cover.validate_cover,
        rat=f"{_rat.Rat.__module__}.{_rat.Rat.__qualname__}",
    )


def set_up(workload: str, seed: int):
    program = load_program()
    inputs = corpus.build(workload)
    order = corpus.submission_order(len(inputs), seed)
    program.graph.parse_graph(inputs[order[0]][1])
    return program, inputs, order


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from interpreter start to the first instance ready, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(probes):
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]) - started)
    return samples


def solve_one(program, name: str, text: str):
    g = program.graph.parse_graph(text)
    report = program.runner.solve_instance(
        g, name, "bench", mode="enhanced", seed=0, edge_rule="maxsum"
    )
    return g, report, program.runner.dump_json(report)


def check(validate_cover, g, report: dict):
    """None when the report keeps every guarantee, else what it breaks."""
    cover = report.get("cover")
    if report.get("hypothesisFailed") or cover is None:
        return "no cover"
    ok, uncovered = validate_cover(g, cover)
    if not ok:
        return f"invalid cover, uncovered {uncovered[:3]}"
    size = len(set(cover))
    if size != len(cover) or size != report["coverSize"]:
        return "cover size mismatch"
    if g.n > ORACLE_CAP:
        return None
    oracle = report.get("oracle")
    if oracle is None:
        return "exact oracle missing"
    opt = oracle["optSize"]
    cert = report["certificate"]
    if size < opt:
        return f"cover of {size} below the optimum {opt}"
    if size > Fraction(3, 2) * opt + Fraction(cert["xi"]):
        return f"|S1|={size} > 3/2 |S*| + xi = 3/2*{opt} + {cert['xi']}"
    if size > opt + Fraction(cert["lambda"]):
        return f"|S1|={size} > |S*| + lambda = {opt} + {cert['lambda']}"
    return None


class Loop:
    """Closed loop over one corpus; keeps per-instance times and failures."""

    def __init__(self, program, inputs, order, deadline: float):
        self.program, self.inputs, self.order = program, inputs, order
        self.deadline = deadline
        self.times: list[list[float]] = [[] for _ in inputs]
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0

    def run_pass(self, reports: dict | None = None, tracer=None) -> bool:
        """One pass in submission order; False if the hard limit cut it short."""
        for idx in self.order:
            if time.perf_counter() > self.deadline:
                return False
            self.run_one(idx, reports, tracer)
        return True

    def run_one(self, idx: int, reports: dict | None = None, tracer=None) -> None:
        name, text = self.inputs[idx]
        if tracer is not None:
            tracer.instance = name
        self.attempted += 1
        started = time.perf_counter()
        try:
            g, report, dumped = solve_one(self.program, name, text)
            elapsed = time.perf_counter() - started
            problem = check(self.program.validate_cover, g, report)
        except Exception as exc:  # a failing instance is counted, not fatal
            elapsed = time.perf_counter() - started
            problem, report, dumped = f"{type(exc).__name__}: {exc}", None, None
        self.times[idx].append(elapsed)
        if problem is not None:
            self.failures.append((name, problem))
        if reports is not None and report is not None:
            reports[idx] = (report, dumped)


def reports_sha256(reports: dict) -> str:
    digest = hashlib.sha256()
    for idx in sorted(reports):
        digest.update(reports[idx][1].encode())
    return digest.hexdigest()


def repeat(seconds: float, step) -> bool:
    """Call ``step`` until the next call would end after ``seconds``, at least
    once. False when a call was cut short by the hard limit."""
    started = time.perf_counter()
    while True:
        step_started = time.perf_counter()
        if not step():
            return False
        now = time.perf_counter()
        if (now - started) + (now - step_started) > seconds:
            return True


def per_instance(loop: Loop) -> list[float]:
    """Each instance's time in seconds: the median of its passes. Other
    tenants of the machine slow it down in bursts of seconds."""
    return [statistics.median(t) for t in loop.times if t]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that keeps
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs), TAIL_BEYOND


def untraced(program, inputs, order, seconds: float, workload: str, seed: int):
    """Passes with one set-up probe after each, so that the probes spread over
    the run rather than share one burst of contention."""
    loop = Loop(program, inputs, order, time.perf_counter() + HARD_LIMIT_S)
    reports: dict = {}  # from the first pass
    setup: list[float] = []

    def step() -> bool:
        complete = loop.run_pass(None if loop.attempted else reports)
        setup.extend(measure_setup(workload, seed, 1))
        return complete

    complete = repeat(seconds, step)
    setup.extend(measure_setup(workload, seed, SETUP_PROBES - len(setup)))
    times = per_instance(loop)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "solve_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "solve_ms_tail": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "complete": complete,
        "passes": min(len(t) for t in loop.times),
        "solve_wall_s": sum(sum(t) for t in loop.times),
        "tail": {"percentile": tail_pct, "samples": len(times), "beyond": beyond},
        "reports_sha256": reports_sha256(reports),
        "setup_samples_s": setup,
    }
    return [loop], metrics, detail


def layer_metrics(tracer, reports: list[dict]) -> dict:
    """Per-layer numbers of one traced pass: self seconds and counters."""
    self_s = tracer.self_seconds()
    calls = tracer.calls()
    counts = tracer.counts
    diags = [rep["diagnostics"] for rep in reports]
    pivots = counts["simplex.pivots"]
    separations = calls["elp.separate"]
    sweeps = calls["elp.alternate"]
    return {
        "simplex.optimize_self_s": (self_s["simplex.optimize"], "s"),
        "simplex.pivots": (pivots, "count"),
        "simplex.us_per_pivot": (self_s["simplex.optimize"] * 1e6 / pivots if pivots else 0.0, "us"),
        "simplex.add_row_self_s": (self_s["simplex.add_row"], "s"),
        "simplex.add_row_calls": (calls["simplex.add_row"], "count"),
        "elp.separate_self_s": (self_s["elp.separate"], "s"),
        "elp.separate_calls": (separations, "count"),
        "elp.separate_hit_frac": (counts["elp.separate_hits"] / separations if separations else 0.0, "ratio"),
        "elp.solve_elp_self_s": (self_s["elp.solve_elp"], "s"),
        "elp.cut_rounds": (sum(d["cutRounds"] for d in diags), "count"),
        "elp.alternate_self_s": (self_s["elp.alternate"], "s"),
        "elp.pin_solves": (sum(d["pinSolves"] for d in diags), "count"),
        "elp.alternate_hit_frac": (sum(d["alternateHits"] for d in diags) / sweeps if sweeps else 0.0, "ratio"),
        "reductions.pipeline_self_s": (self_s["reductions.pipeline"], "s"),
        "reductions.iterations": (sum(rep["trace"][-1]["k"] for rep in reports), "count"),
        "cover.self_s": (self_s["cover.backtrack"] + self_s["cover.certify"] + self_s["cover.validate"], "s"),
        "oracles.exact_vc_self_s": (self_s["oracles.exact_vc"], "s"),
        "runner.solve_instance_self_s": (self_s["runner.solve_instance"], "s"),
        "graph.parse_self_s": (self_s["graph.parse"], "s"),
    }


def traced(program, inputs, order, seconds: float, workload: str, seed: int):
    """Passes in which each instance runs untraced, then traced, so that the
    two times of an instance are taken moments apart. Times are medians over
    the passes; counters come from the first pass and must repeat."""
    from tracing import Tracer

    deadline = time.perf_counter() + HARD_LIMIT_S
    plain = Loop(program, inputs, order, deadline)
    with_spans = Loop(program, inputs, order, deadline)
    warm_up = Loop(program, WARM_UP, [0], float("inf"))
    per_pass: list[dict] = []
    first: dict = {}  # tracer and corpus reports of the first traced pass

    def paired_pass() -> bool:
        tracer = Tracer()
        warm_reports: dict = {}
        reports: dict = {}
        with tracer.installed():
            warm_up.run_pass(warm_reports, tracer)
        for idx in order:
            if time.perf_counter() > deadline:
                return False
            plain.run_one(idx)
            with tracer.installed():
                with_spans.run_one(idx, reports, tracer)
        every = [rep for rep, _ in [*warm_reports.values(), *reports.values()]]
        per_pass.append(layer_metrics(tracer, every))
        first.setdefault("tracer", tracer)
        first.setdefault("reports", reports)
        return True

    complete = repeat(seconds, paired_pass)
    if not per_pass:
        raise BenchError(f"no complete traced pass within {HARD_LIMIT_S:.0f} s")
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit in ("s", "us"):
            value = statistics.median(p[name][0] for p in per_pass)
        metrics[name] = (value, unit)
    both = [i for i, t in enumerate(with_spans.times) if t and plain.times[i]]
    untraced_s = sum(statistics.median(plain.times[i]) for i in both)
    traced_s = sum(statistics.median(with_spans.times[i]) for i in both)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    first["tracer"].write(spans_path)
    counters = [k for k, (_, unit) in per_pass[0].items() if unit == "count"]
    detail = {
        "complete": complete,
        "passes": len(per_pass),
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "counters_repeat": all(p[k] == per_pass[0][k] for p in per_pass for k in counters),
        "spans": len(first["tracer"].spans),
        "spans_file": spans_path.name,
        "reports_sha256": reports_sha256(first["reports"]),
    }
    detail["layers_total_s"] = first["tracer"].total_seconds()
    return [plain, with_spans, warm_up], metrics, detail


def environment(program) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rat_backend": program.rat,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        program, inputs, order = set_up(args.workload, args.seed)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(time.monotonic())
        return 0

    warm = Loop(program, WARM_UP, [0], float("inf"))
    warm.run_pass()
    if warm.failures:
        print(f"bench: warm-up instance failed: {warm.failures}", file=sys.stderr)
        return 1

    try:
        if args.trace:
            loops, metrics, detail = traced(program, inputs, order, args.seconds, args.workload, args.seed)
        else:
            loops, metrics, detail = untraced(program, inputs, order, args.seconds, args.workload, args.seed)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    failures = [f for loop in loops for f in loop.failures]
    attempted = sum(loop.attempted for loop in loops)
    failed = len(failures)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        mode="traced" if args.trace else "untraced",
        environment=environment(program),
        corpus_seeds={"sweep": corpus.SWEEP_SEED, "triangle_free": corpus.TRIANGLE_FREE_SEED},
        instances=len(inputs),
        inputs_sha256=corpus.inputs_sha256(inputs),
        failed_frac=failed / attempted,
        failures=failures[:10],
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6f} {unit}")
    print(f"{'failed_frac':<30} {failed / attempted:>16.6f} ratio")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and detail.get("counters_repeat", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
