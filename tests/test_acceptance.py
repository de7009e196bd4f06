"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The main corpus is 5000 sampled connected graphs with n <= 10 (the sampled
option of criterion 1) plus 500 random triangle-free graphs with n <= 25;
both are seeded and shared session-wide. Counterexample instances, if any
ever appear, are archived as DIMACS under artifacts/.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from elpcover._rat import Rat
from elpcover.cli import main as cli_main
from elpcover.cover import backtrack, certify, validate_cover
from elpcover.elp import DoubleCover, relaxation_engine, separate_odd_cycle, solve_elp
from elpcover.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_triangle_free_graph,
    to_dimacs,
)
from elpcover.oracles import exact_vc, matching_2approx, nt_half_integral_round
from elpcover.reductions import KIND_ACTIVE, KIND_RANDOM
from exact_oracles import (
    backtrack_sizes,
    growth_cap,
    hypothesis_verdict,
    independent_odd_cycle_rank,
    nx_min_odd_cycle_weight,
    nx_odd_cycles,
    point_values,
    random_connected_gnp,
    run_pipeline_iterates,
    scale_point,
    small_edge_conjecture_probe,
)

SWEEP_SEED = 20260810
SWEEP_SIZE = 5000
TRIANGLE_FREE_SIZE = 500
ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"

THREE_HALVES = Rat(3, 2)


@dataclass
class Run:
    graph: Graph
    trace: object
    graphs: list
    xs: list
    cover: frozenset
    certificate: object
    opt: int


def _run_instance(g: Graph) -> Run:
    trace, graphs, xs = run_pipeline_iterates(g)
    cover = backtrack(trace)
    ok, uncovered = validate_cover(g, cover)
    assert ok, f"invalid cover, uncovered: {uncovered[:5]}"
    cert = certify(trace, cover)
    opt = exact_vc(g).opt_size
    return Run(g, trace, graphs, xs, cover, cert, opt)


@pytest.fixture(scope="session")
def sweep():
    rng = random.Random(SWEEP_SEED)
    runs = []
    for _ in range(SWEEP_SIZE):
        n = rng.randint(4, 10)
        p = rng.uniform(0.25, 0.7)
        runs.append(_run_instance(random_connected_gnp(n, p, rng)))
    return runs


@pytest.fixture(scope="session")
def triangle_free_batch():
    rng = random.Random(SWEEP_SEED + 1)
    runs = []
    for i in range(TRIANGLE_FREE_SIZE):
        n = rng.randint(8, 25)
        p = round(rng.uniform(0.15, 0.45), 4)
        g = random_triangle_free_graph(n, p, seed=SWEEP_SEED + 10 * i)
        runs.append(_run_instance(g))
    return runs


def _archive(tag: str, index: int, g: Graph, note: str) -> None:
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / f"{tag}_{index:05d}.col"
    path.write_text(to_dimacs(g, comments=[note]))


def test_criterion_1_correctness_sweep(sweep):
    for idx, run in enumerate(sweep):
        size = Rat(len(run.cover))
        assert size <= THREE_HALVES * run.opt + run.certificate.xi, idx
        assert size <= run.opt + run.certificate.lam, idx
    print(
        f"\n[PASS] criterion 1: {len(sweep)} sampled connected graphs (n<=10), "
        f"valid covers, |S1| <= (3/2)|S*| + xi and |S1| <= |S*| + lambda exactly"
    )


def test_criterion_2_xi_replication(sweep, triangle_free_batch):
    archived = 0
    zero = 0
    total = 0
    for idx, run in enumerate(sweep + triangle_free_batch):
        total += 1
        size = Rat(len(run.cover))
        assert size <= THREE_HALVES * run.opt + run.certificate.xi, idx
        if run.certificate.xi == 0:
            zero += 1
        else:
            _archive("nonzero_xi", idx, run.graph, f"xi={run.certificate.xi}")
            archived += 1
    rate = Rat(zero, total)
    print(
        f"\n[PASS] criterion 2: xi = 0 on {zero}/{total} runs (rate {rate}); "
        f"{archived} nonzero-xi instance(s) archived"
    )


def test_criterion_3_ledger_fidelity(sweep, triangle_free_batch):
    steps = 0
    for run in sweep + triangle_free_batch:
        trace = run.trace
        values = [rec.f for rec in trace.records]
        for rec, (before, after) in zip(trace.records[:-1], zip(values, values[1:])):
            if rec.kind == KIND_RANDOM:
                assert after < before - rec.d_k, rec
            else:
                assert after <= before - rec.d_k, rec
            steps += 1
        sizes = backtrack_sizes(trace)
        for rec, before, after in zip(trace.records, sizes[1:], sizes):
            assert after - before <= growth_cap(rec), rec
    print(
        f"\n[PASS] criterion 3: value ledger f(k+1) <= f(k) - d_k and backtrack "
        f"growth bounds hold exactly over {steps} reduction steps"
    )


def _lp_value(engine):
    engine.optimize()
    return sum(point_values(engine.certified_values()))


def test_criterion_4_elp_values():
    for s in range(1, 7):
        assert solve_elp(cycle_graph(2 * s + 1)).objective == s + 1
    # Petersen: cutting-plane value equals the one-shot LP over the full
    # enumerated odd-cycle family (independent of the separation loop).
    pet = petersen_graph()
    cutting = solve_elp(pet).objective
    full_family = relaxation_engine(pet)
    index = {v: j for j, v in enumerate(pet.vertices)}
    for cycle in nx_odd_cycles(pet):
        full_family.add_ge_row(dict.fromkeys((index[v] for v in cycle.vertices), 1), cycle.rhs)
    direct = _lp_value(full_family)
    assert cutting == direct == 6 == exact_vc(pet).opt_size
    # Sandwich on oracle-checked instances.
    rng = random.Random(404)
    for _ in range(150):
        g = random_connected_gnp(rng.randint(3, 9), rng.uniform(0.25, 0.8), rng)
        lp = _lp_value(relaxation_engine(g))
        elp = solve_elp(g).objective
        opt = exact_vc(g).opt_size
        assert lp <= elp <= opt
    print(
        "\n[PASS] criterion 4: f(C_2s+1) = s+1 for s=1..6, Petersen value 6 "
        "matches the full-family oracle, and f(LP) <= f(ELP) <= |S*| on 150 instances"
    )


def test_criterion_5_separation_equivalence():
    rng = random.Random(505)
    values = [Rat(1, 2), Rat(1, 2), Rat(1, 2), Rat(3, 5), Rat(2, 3), Rat(7, 10), Rat(1)]
    checked = 0
    for _ in range(200):
        g = random_connected_gnp(rng.randint(3, 10), rng.uniform(0.25, 0.7), rng)
        x = {v: values[rng.randrange(len(values))] for v in g.vertices}
        found = separate_odd_cycle(DoubleCover(g, scale_point(g, x)))
        brute = nx_min_odd_cycle_weight(g, x)
        if found is None:
            assert brute is None or brute >= 1
        else:
            cycle, violation = found
            weight = sum(Rat(x[u]) + Rat(x[v]) - 1 for u, v in cycle.cycle_edges())
            assert str(weight) == str(Rat(brute.numerator, brute.denominator))
            assert violation == (1 - weight) / 2 > 0
        checked += 1
    print(
        f"\n[PASS] criterion 5: separation verdict and most-violated weight match "
        f"brute-force enumeration on {checked} random instances, zero tolerance"
    )


def test_criterion_6_half_integrality():
    rng = random.Random(606)
    allowed = {Rat(0), Rat(1, 2), Rat(1)}
    for _ in range(200):
        g = random_connected_gnp(rng.randint(2, 10), rng.uniform(0.2, 0.85), rng)
        engine = relaxation_engine(g)
        engine.optimize()
        assert all(v in allowed for v in point_values(engine.certified_values()))
    print(
        "\n[PASS] criterion 6: all plain-relaxation basic solutions half-integral "
        "on 200 random graphs"
    )


def test_criterion_7_projection_feasibility(sweep, triangle_free_batch):
    checked = 0
    for run in sweep + triangle_free_batch:
        for idx, rec in enumerate(run.trace.records):
            if rec.kind != KIND_ACTIVE:
                continue
            reduced = run.graphs[idx + 1]
            if reduced.n > 12:
                continue
            xhat = {v: run.xs[idx][v] for v in reduced.vertices}
            for u, v in reduced.edges():
                assert xhat[u] + xhat[v] >= 1, rec
            for cycle in nx_odd_cycles(reduced):
                assert sum(xhat[v] for v in cycle.vertices) >= cycle.rhs, rec
            checked += 1
    assert checked > 0, "sweep produced no active-edge reductions to audit"
    print(
        f"\n[PASS] criterion 7: projected values feasible (edges + all odd cycles) "
        f"after every audited active-edge reduction ({checked} reductions)"
    )


def test_criterion_8_baselines(sweep):
    better_or_equal = 0
    for run in sweep:
        match_cover = matching_2approx(run.graph)
        nt_cover = nt_half_integral_round(run.graph)
        for cover in (match_cover, nt_cover):
            ok, _ = validate_cover(run.graph, cover)
            assert ok
            assert len(cover) <= 2 * run.opt
        if len(run.cover) <= min(len(match_cover), len(nt_cover)):
            better_or_equal += 1
    rate = Rat(better_or_equal, len(sweep))
    print(
        f"\n[PASS] criterion 8: baselines valid and within 2|S*| everywhere; "
        f"algorithm <= both baselines on {better_or_equal}/{len(sweep)} "
        f"({float(rate):.3f}, report-only threshold 0.90)"
    )


def test_criterion_9_diagnostics(sweep):
    assert independent_odd_cycle_rank(cycle_graph(5)) == 1
    probed = 0
    holds = 0
    counterexamples = 0
    for idx, run in enumerate(sweep):
        g = run.graph
        if g.find_triangle() is not None:
            assert hypothesis_verdict(g)["guaranteed"] is True
        if g.n <= 8:
            probed += 1
            if any(small_edge_conjecture_probe(g).values()):
                holds += 1
            else:
                counterexamples += 1
                _archive("small_edge_counterexample", idx, g, "all small edges need both endpoints")
    rate = Rat(holds, probed)
    assert rate >= Rat(9, 10), f"single-endpoint rate {rate} below 0.90"
    print(
        f"\n[PASS] criterion 9: rank(C5)=1; triangle implies guaranteed verdict; "
        f"small-edge probe holds on {holds}/{probed} graphs "
        f"({counterexamples} counterexample(s) archived)"
    )


def test_criterion_10_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "solve", "gen:random_triangle_free(18,0.3,7)",
        "--mode", "enhanced", "--seed", "11", "--edge-rule", "maxsum",
    ]
    assert cli_main(args + ["--json", str(a)]) == 0
    assert cli_main(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["schema"] == 1
    print(
        "\n[PASS] criterion 10: solve reports byte-identical across repeated runs "
        "with fixed seed and flags"
    )
