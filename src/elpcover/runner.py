"""Single-instance drivers and the batch experiment runner.

Builds the versioned JSON run report (schema 1) for the solve command, the
side-by-side comparison against the classical baselines, and the batch hunt
that sweeps generated instances looking for nonzero error bounds. All exact
quantities are serialized as "p/q" strings; reports contain no wall-clock
data unless explicitly requested, so equal seeds and flags give byte-equal
output.
"""

from __future__ import annotations

import json
import logging
import os
import random
import time
from collections import Counter
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import graph
from ._rat import Rat, rat_str
from .cover import backtrack, certify, validate_cover
from .graph import Graph, random_triangle_free_graph, torus_grid_graph
from .oracles import exact_vc, matching_2approx, nt_half_integral_round
from .reductions import KIND_ACTIVE, KIND_TERMINAL, run_pipeline

log = logging.getLogger("elpcover.runner")

SCHEMA_VERSION = 1

# Largest instance the exact oracle checks by default, for solve and hunt.
ORACLE_CAP = 26


def _trace_summary(trace) -> list[dict]:
    return [
        {
            "k": rec.index,
            "kind": rec.kind,
            "f": rat_str(rec.f),
            "dk": None if rec.kind == KIND_TERMINAL else rat_str(rec.d_k),
            "i0Size": len(rec.i0),
            "i1Size": len(rec.i1),
            "zeroOneApplied": rec.zero_one_applied,
            "alternateUsed": rec.alternate_used,
            "detail": _record_detail(rec),
        }
        for rec in trace.records
    ]


def _record_detail(rec) -> Optional[dict]:
    if rec.triangle is not None:
        return {"triangle": sorted(rec.triangle.vertex_set)}
    if rec.pair is None:
        return None
    detail = {rec.kind: list(rec.pair)}  # the KIND_* strings are the report keys
    if rec.kind == KIND_ACTIVE:
        detail["dI"] = sorted(rec.d_i)
    return detail


def _diagnostics_payload(trace) -> dict:
    records = trace.records
    return {
        "cutRounds": sum(rec.cuts for rec in records),
        "pinSolves": sum(rec.pins for rec in records),
        "alternateHits": sum(rec.alternate_used for rec in records),
        "skippedZeroOne": [
            {"k": rec.index, "vertices": sorted(rec.i0)}
            for rec in records
            if not rec.zero_one_applied and rec.i0
        ],
        # Only a failed sweep that leaves no edge to remove ends a run
        # without its {0,1} step; every other end applies it.
        "isolatedTerminal": not records[-1].zero_one_applied,
    }


def solve_instance(
    g: Graph,
    name: str,
    source: str,
    mode: str = "enhanced",
    seed: int = 0,
    edge_rule: str = "maxsum",
    oracle_cap: Optional[int] = ORACLE_CAP,
    timings: bool = False,
) -> dict:
    """Run the full algorithm on one instance and build its report. The exact
    oracle, capped at oracle_cap, checks the cover if g.n <= oracle_cap."""
    started = time.perf_counter()
    trace = run_pipeline(g, mode=mode, edge_rule=edge_rule, seed=seed)
    report = {
        "schema": SCHEMA_VERSION,
        "instance": {"name": name, "n": g.n, "m": g.m, "source": source},
        "mode": mode,
        "seed": seed,
        "edgeRule": edge_rule,
        "hypothesisFailed": trace.hypothesis_failed,
        "f1": rat_str(trace.f1),
        "trace": _trace_summary(trace),
        "diagnostics": _diagnostics_payload(trace),
        "timings": None,
    }
    if trace.hypothesis_failed:
        report.update({"cover": None, "coverSize": None, "certificate": None, "oracle": None})
        log.warning(
            "%s: active edge hypothesis failed at iteration %d; re-run with "
            "--mode enhanced for a guaranteed cover", name, trace.L,
        )
        return report
    cover = backtrack(trace)
    valid, uncovered = validate_cover(g, cover)
    if not valid:
        raise AssertionError(f"invalid cover on {name}: uncovered {uncovered[:5]}")
    certificate = certify(trace, cover)
    report["cover"] = sorted(cover)
    report["coverSize"] = len(cover)
    report["certificate"] = certificate.as_dict()
    report["oracle"] = None
    if oracle_cap is not None and g.n <= oracle_cap:
        report["oracle"] = _oracle_block(len(cover), exact_vc(g, cap=oracle_cap).opt_size, certificate)
        if not report["oracle"]["threeHalvesHolds"] or not report["oracle"]["additiveHolds"]:
            # Experimentally refuting a stated bound is a finding, not a crash.
            log.critical("GUARANTEE VIOLATED on %s: %s", name, report["oracle"])
    if timings:
        report["timings"] = {"totalSeconds": round(time.perf_counter() - started, 6)}
    return report


def _oracle_block(size: int, opt: int, certificate) -> dict:
    """A report's oracle block for a cover of size vertices against the
    optimum opt. Both bounds are checked exactly, in ints:
    |S1| <= (3/2)|S*| + xi and |S1| <= |S*| + lambda."""
    xi, lam = certificate.xi, certificate.lam
    return {
        "optSize": opt,
        "ratio": rat_str(Rat(size, opt)) if opt else "1",
        "xiObserved": rat_str(Rat(max(0, 2 * size - 3 * opt), 2)),
        "threeHalvesHolds": 2 * size * xi.denominator <= 3 * opt * xi.denominator + 2 * xi.numerator,
        "additiveHolds": size * lam.denominator <= opt * lam.denominator + lam.numerator,
    }


def compare_instance(g: Graph, name: str, source: str) -> dict:
    """Algorithm vs. maximal matching vs. LP rounding vs. exact (when small)."""
    report = solve_instance(g, name, source, mode="enhanced")
    matching = matching_2approx(g)
    rounded = nt_half_integral_round(g)
    for label, cover in (("matching2approx", matching), ("ntRounding", rounded)):
        ok, uncovered = validate_cover(g, cover)
        if not ok:
            raise AssertionError(f"{label} produced an invalid cover: {uncovered[:5]}")
    comparison = {
        "schema": SCHEMA_VERSION,
        "instance": report["instance"],
        "elp": {"size": report["coverSize"], "xi": report["certificate"]["xi"]},
        "matching2approx": {"size": len(matching), "cover": sorted(matching)},
        "ntRounding": {"size": len(rounded), "cover": sorted(rounded)},
        "oracle": report["oracle"],
        "f1": report["f1"],
    }
    return comparison


def format_comparison(comparison: dict) -> str:
    inst = comparison["instance"]
    lines = [
        f"instance {inst['name']}  n={inst['n']} m={inst['m']}",
        f"  relaxation value f1 = {comparison['f1']}",
        f"  elp cover          = {comparison['elp']['size']}  (xi = {comparison['elp']['xi']})",
        f"  matching 2-approx  = {comparison['matching2approx']['size']}",
        f"  nt lp rounding     = {comparison['ntRounding']['size']}",
    ]
    if comparison["oracle"]:
        lines.append(
            f"  exact optimum      = {comparison['oracle']['optSize']}"
            f"  (ratio {comparison['oracle']['ratio']})"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------- hunt

_TORUS_SHAPES = [
    (3, 3), (3, 4), (3, 5), (4, 4), (3, 6), (4, 5), (3, 7), (4, 6), (5, 5),
    (3, 8), (4, 7), (5, 6), (6, 6), (5, 7),
]


def torus_shapes(n_range: tuple[int, int]) -> list[tuple[int, int]]:
    """The torus_grid shapes a hunt draws from: those with n in n_range."""
    return [s for s in _TORUS_SHAPES if n_range[0] <= s[0] * s[1] <= n_range[1]]


def check_hunt_range(gen: str, n_range: tuple[int, int], name: str = "n_range") -> None:
    """Raise ValueError unless a gen hunt can draw every instance inside
    n_range: 1 <= LO <= HI, at most graph.MAX_GRAPH_SIZE vertex pairs at HI
    (the bound generate() puts on random_triangle_free(HI, p, seed)), and
    a torus_grid shape inside the range. The messages call the range name."""
    lo, hi = n_range
    if not 1 <= lo <= hi:
        raise ValueError(f"{name} needs 1 <= LO <= HI, got {lo} {hi}")
    pairs = hi * (hi - 1) // 2
    if gen != "torus" and pairs > graph.MAX_GRAPH_SIZE:
        raise ValueError(f"{name} HI={hi} allows {pairs} edges, over the size limit {graph.MAX_GRAPH_SIZE}")
    if gen != "gnp-trianglefree" and not torus_shapes(n_range):
        raise ValueError(f"{name} {lo} {hi} fits no torus_grid shape")


def check_hunt_args(gen: str, n_range: tuple[int, int], trials: int, jobs: int, name: str = "n_range") -> None:
    """Raise ValueError unless hunt can run: a range check_hunt_range
    takes (its messages call it name), trials >= 0 and jobs >= 1."""
    check_hunt_range(gen, n_range, name)
    if trials < 0:
        raise ValueError(f"trials needs a count >= 0, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs needs at least 1, got {jobs}")


def hunt_instance(gen: str, index: int, seed: int, n_range: tuple[int, int]) -> tuple[Graph, str]:
    """The graph and name of hunt instance index; a summary's index rebuilds it.
    Raises ValueError for a range check_hunt_range refuses."""
    check_hunt_range(gen, n_range)
    n_lo, n_hi = n_range
    rng = random.Random(seed * 1_000_003 + index)
    kind = gen
    if gen == "mixed":
        kind = "gnp-trianglefree" if index % 2 == 0 else "torus"
    if kind == "gnp-trianglefree":
        n = rng.randint(n_lo, n_hi)
        p = round(rng.uniform(0.15, 0.5), 4)
        g_seed = seed * 7919 + index
        g = random_triangle_free_graph(n, p, g_seed)
        return g, f"gnp-trianglefree(n={n},p={p},seed={g_seed})"
    if kind == "torus":
        shapes = torus_shapes(n_range)
        a, b = shapes[index % len(shapes)]
        return torus_grid_graph(a, b), f"torus_grid({a},{b})"
    raise ValueError(f"unknown hunt generator {gen!r}")


def _hunt_report(gen, seed, n_range, edge_rule, oracle_cap, index) -> dict:
    g, name = hunt_instance(gen, index, seed, n_range)
    return solve_instance(
        g,
        name=name,
        source="hunt",
        mode="enhanced",
        seed=seed,
        edge_rule=edge_rule,
        oracle_cap=oracle_cap,
    )


HUNT_CSV_COLUMNS = [
    "index", "name", "n", "m", "f1", "coverSize", "optSize", "ratio",
    "eta", "gamma", "delta", "sigma", "alpha", "lambda", "xi",
]


def hunt(
    gen: str = "gnp-trianglefree",
    n_range: tuple[int, int] = (6, 20),
    trials: int = 100,
    seed: int = 0,
    edge_rule: str = "maxsum",
    jobs: int = 1,
    oracle_cap: Optional[int] = ORACLE_CAP,
) -> tuple[dict, list[dict]]:
    """Run the batch sweep; returns (summary, per-instance rows).

    Rows carry no graph: the summary lists the nonzero-xi instances by
    index, and hunt_instance rebuilds each one. jobs is clamped to
    min(jobs, trials, os.cpu_count()); one job runs in process. Raises
    ValueError for arguments check_hunt_args refuses, before any solve.
    """
    check_hunt_args(gen, n_range, trials, jobs)
    report_of = partial(_hunt_report, gen, seed, n_range, edge_rule, oracle_cap)
    jobs = min(jobs, trials, os.cpu_count() or 1)
    if jobs > 1:
        # Imported here, so that a solve never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(report_of, range(trials)))
    else:
        reports = [report_of(i) for i in range(trials)]

    rows = []
    for index, rep in enumerate(reports):
        oracle = rep["oracle"] or {"optSize": "", "ratio": ""}
        fields = {"index": index, **rep["instance"], **rep["certificate"], **oracle}
        rows.append({c: fields[c] for c in HUNT_CSV_COLUMNS})
    xi_zero = sum(r["xi"] == "0" for r in rows)
    ratios = [r["ratio"] for r in rows if r["ratio"] != ""]
    summary = {
        "schema": SCHEMA_VERSION,
        "generator": gen,
        "nRange": list(n_range),
        "trials": trials,
        "seed": seed,
        "xiZeroCount": xi_zero,
        "xiZeroRate": rat_str(Rat(xi_zero, trials)) if trials else "0",
        "nonzeroXiInstances": [
            {"index": r["index"], "name": r["name"], "xi": r["xi"]} for r in rows if r["xi"] != "0"
        ],
        "oracleChecked": len(ratios),
        "ratioHistogram": dict(Counter(ratios)),
        "guaranteeViolations": [
            r["instance"]["name"]
            for r in reports
            if r["oracle"] and not (r["oracle"]["threeHalvesHolds"] and r["oracle"]["additiveHolds"])
        ],
    }
    return summary, rows


def hunt_rows_csv(rows: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=HUNT_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def dump_json(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte.
    json's indented encoder is its pure-Python one; this writes the report
    in one pass, and hands json.dumps only what it does not write itself."""
    return _json(payload, "\n") + "\n"


def _json(value, pad: str) -> str:
    """value as json.dumps(indent=2, sort_keys=True) writes it on a line
    whose newline and indent are pad."""
    inner = pad + "  "
    try:
        if value.__class__ is dict and value:
            parts = []
            for key in sorted(value):  # keys of mixed types raise TypeError, as in json
                item = value[key]
                cls = item.__class__
                if cls is str:
                    text = encode_basestring_ascii(item)
                elif cls is int:
                    text = str(item)
                elif cls is bool:
                    text = "true" if item else "false"
                elif item is None:
                    text = "null"
                else:
                    text = _json(item, inner)
                parts.append(encode_basestring_ascii(key) + ": " + text)
            return "{" + inner + ("," + inner).join(parts) + pad + "}"
        if value.__class__ is list and value:
            if all(item.__class__ is int for item in value):
                parts = map(str, value)
            else:
                parts = [_json(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(parts) + pad + "]"
        if value.__class__ is str:
            return encode_basestring_ascii(value)
    except TypeError:  # a key that is not a str
        pass
    if not value and value.__class__ in (list, dict):
        return "[]" if value.__class__ is list else "{}"
    # Other scalars and containers: json's own text, indented to pad.
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)
