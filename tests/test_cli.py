import csv
import json
import random

import pytest

from elpcover import cli, graph, runner
from elpcover.cli import main
from elpcover.cover import GuaranteeViolation
from elpcover.elp import CutLoopLimitError
from elpcover.graph import cycle_graph, parse_graph, to_dimacs
from elpcover.reductions import PipelineError
from elpcover.runner import (
    HUNT_CSV_COLUMNS,
    SCHEMA_VERSION,
    compare_instance,
    hunt,
    hunt_instance,
    hunt_rows_csv,
    solve_instance,
)
from elpcover.simplex import CoveringSimplex, PivotLimitError
from exact_oracles import circulant, random_bipartite


def run_cli(args):
    return main(args)


def test_solve_k3(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli(["solve", "gen:complete(3)", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["cover"] == [1, 2]
    assert report["f1"] == "2"
    assert report["certificate"]["xi"] == "0"
    assert report["oracle"]["ratio"] == "1"


def test_solve_c5(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["solve", "gen:cycle(5)", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["coverSize"] == 3 and report["certificate"]["xi"] == "0"


def test_solve_torus_via_gen(tmp_path):
    dimacs = tmp_path / "t.col"
    assert run_cli(["gen", "torus_grid(5,5)", "-o", str(dimacs)]) == 0
    out = tmp_path / "r.json"
    assert run_cli(["solve", str(dimacs), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["coverSize"] == 15
    assert report["oracle"]["optSize"] == 15
    assert report["certificate"]["xi"] == "0"


def test_solve_reads_edgelist(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("1 2\n2 3\n3 4\n4 5\n5 1\n")
    assert run_cli(["solve", str(path), "--no-oracle"]) == 0


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.col"
    for text in ("p edge 2 1\ne 1 9\n", "p edge -5 0\n", "p edge 5 -3\n"):
        bad.write_text(text)
        assert run_cli(["solve", str(bad)]) == 2, text
    assert run_cli(["solve", str(tmp_path / "missing.col")]) == 2


def test_exit_code_undecodable_instance(tmp_path, capsys):
    # A file that is not UTF-8 text is an unreadable instance, reported in
    # one line like a missing file.
    bad = tmp_path / "bad.col"
    bad.write_bytes(b"\xff\xfe\x00p edge 2 1\n")
    assert run_cli(["solve", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read")


def test_exit_code_bad_generator_spec(capsys):
    assert run_cli(["solve", "gen:cycle(2)"]) == 2
    assert run_cli(["solve", "gen:no_such(3)"]) == 2
    assert run_cli(["gen", "cycle("]) == 2
    capsys.readouterr()
    for flags in (["--n-range", "10", "5"], ["--trials", "-2"], ["--jobs", "0"], ["--jobs", "-4"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["hunt", *flags])
        assert exc.value.code == 2, flags
        assert capsys.readouterr().err.startswith("usage: vc hunt"), flags


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exact", "gen:cycle(5)", "--cap", "-3"], "needs a count >= 0, got -3"),
        (["solve", "gen:cycle(5)", "--oracle-cap", "-1"], "needs a count >= 0, got -1"),
        (["hunt", "--trials", "1", "--oracle-cap", "-1"], "needs a count >= 0, got -1"),
        (["solve", "gen:petersen", "--no-oracle", "--oracle-cap", "5"], "not allowed with argument --no-oracle"),
    ],
    ids=["exact-cap", "solve-oracle-cap", "hunt-oracle-cap", "solve-no-oracle-with-cap"],
)
def test_negative_cap_is_a_usage_error(argv, message, capsys):
    # So is a cap given together with --no-oracle, the other oracle setting.
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: vc {argv[0]}")
    assert message in err


def test_oracle_cap_is_also_the_oracles_own_cap(tmp_path):
    # exact_vc's default cap is 30; a larger --oracle-cap must reach it.
    report = solve_instance(cycle_graph(35), "c35", "test", oracle_cap=40)
    assert report["oracle"]["optSize"] == 18
    assert solve_instance(cycle_graph(35), "c35", "test", oracle_cap=34)["oracle"] is None
    assert solve_instance(cycle_graph(35), "c35", "test", oracle_cap=None)["oracle"] is None
    out = tmp_path / "r.json"
    assert run_cli(["solve", "gen:cycle(35)", "--oracle-cap", "40", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["oracle"]["optSize"] == 18


def test_exit_code_oversized_instance(tmp_path):
    # Rejected before allocation, from the spec or the header alone.
    assert run_cli(["solve", "gen:cycle(99999999999)"]) == 2
    assert run_cli(["gen", "complete(99999999)"]) == 2
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 99999999999 1\ne 1 2\n")
    assert run_cli(["solve", str(huge)]) == 2


def test_internal_value_error_is_not_a_parse_error(monkeypatch):
    from elpcover import elp

    def broken(*args):
        raise ValueError("edge inequality violated")

    monkeypatch.setattr(elp, "separate_odd_cycle", broken)
    with pytest.raises(ValueError, match="edge inequality violated"):
        run_cli(["solve", "gen:cycle(5)"])


@pytest.mark.parametrize(
    "error",
    [PipelineError, CutLoopLimitError, PivotLimitError, GuaranteeViolation, AssertionError],
    ids=lambda e: e.__name__,
)
def test_exit_code_internal_error(error, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise error("cap reached")

    monkeypatch.setattr(cli, "solve_instance", broken)
    assert run_cli(["solve", "gen:cycle(5)"]) == cli.EXIT_INTERNAL == 5
    assert capsys.readouterr().err == f"error: internal {error.__name__}: cap reached\n"


def test_failed_optimality_check_exits_as_internal_error(monkeypatch, capsys):
    def broken(self):
        raise AssertionError("duality gap")

    monkeypatch.setattr(CoveringSimplex, "certified_values", broken)
    assert run_cli(["solve", "gen:cycle(5)"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "error: internal AssertionError: duality gap\n"


def test_cut_round_cap_exits_as_internal_error(monkeypatch, capsys):
    from elpcover import elp

    monkeypatch.setattr(elp, "CUTS_PER_VERTEX", 0)  # C5 needs one cut
    assert run_cli(["solve", "gen:cycle(5)"]) == cli.EXIT_INTERNAL
    assert "CutLoopLimitError" in capsys.readouterr().err


def test_exit_code_hypothesis_failure(tmp_path):
    g = circulant(11, (1, 3))
    path = tmp_path / "hard.col"
    path.write_text(to_dimacs(g))
    assert run_cli(["solve", str(path), "--mode", "base"]) == 3
    assert run_cli(["solve", str(path), "--mode", "enhanced"]) == 0


def test_exit_code_cap_exceeded():
    assert run_cli(["exact", "gen:torus_grid(5,5)", "--cap", "10"]) == 4


def test_lp_size_cap_exits_before_the_engine_allocates(monkeypatch, capsys):
    from elpcover import elp
    from elpcover.graph import petersen_graph

    monkeypatch.setattr(elp, "MAX_ENGINE_CELLS", 150)  # Petersen: 10 * 15 cells
    assert elp.relaxation_engine(petersen_graph()).num_vars == 10
    monkeypatch.setattr(elp, "MAX_ENGINE_CELLS", 149)
    monkeypatch.setattr(elp, "CoveringSimplex", None)  # building an engine would fail
    for command in ("solve", "compare"):
        assert run_cli([command, "gen:petersen"]) == cli.EXIT_CAP == 4
        assert capsys.readouterr().err == "error: n*m = 10*15 exceeds the LP size cap 149\n"


def test_exact_command(tmp_path):
    out = tmp_path / "e.json"
    assert run_cli(["exact", "gen:petersen", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["optSize"] == 6 and payload["schema"] == SCHEMA_VERSION
    assert run_cli(["exact", "gen:cycle(7)", "--all", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["optSize"] == 4 and len(payload["allOptimalCovers"]) == 7
    assert run_cli(["exact", "gen:complete(3)", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["optSize"] == 2


def test_compare_command(tmp_path, capsys):
    from elpcover.graph import complete_graph, cycle_graph

    comparison = compare_instance(cycle_graph(5), "C5", "test")
    assert comparison["elp"]["size"] == 3
    assert comparison["matching2approx"]["size"] == 4
    # C5's unique LP optimum is all-1/2, so the rounding keeps all 5 vertices;
    # this meets its documented bound 2*f(LP) = 5 (and 2*opt = 6).
    assert comparison["ntRounding"]["size"] == 5
    assert comparison["oracle"]["optSize"] == 3

    comparison = compare_instance(complete_graph(2), "K2", "test")
    assert comparison["elp"]["size"] == 1
    assert comparison["matching2approx"]["size"] == 2
    assert comparison["ntRounding"]["size"] == 1
    assert comparison["oracle"]["optSize"] == 1

    comparison = compare_instance(complete_graph(3), "K3", "test")
    assert (
        comparison["elp"]["size"],
        comparison["matching2approx"]["size"],
        comparison["ntRounding"]["size"],
        comparison["oracle"]["optSize"],
    ) == (2, 2, 3, 2)

    out = tmp_path / "c.json"
    assert run_cli(["compare", "gen:cycle(5)", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["elp"]["size"] == 3


def test_gen_command_stdout(capsys):
    assert run_cli(["gen", "cycle(5)"]) == 0
    out = capsys.readouterr().out
    assert "p edge 5 5" in out


def test_report_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["solve", "gen:random_triangle_free(14,0.3,5)", "--seed", "9"]
    assert run_cli(args + ["--json", str(a)]) == 0
    assert run_cli(args + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_round_trips_dumped_instance(tmp_path):
    # Every emitted cover re-validates when the dumped instance is re-parsed.
    from elpcover.cover import validate_cover
    from elpcover.graph import parse_graph, random_triangle_free_graph

    g = random_triangle_free_graph(12, 0.3, 3)
    dumped = to_dimacs(g)
    reparsed = parse_graph(dumped)
    report = solve_instance(reparsed, "case", "roundtrip")
    ok, _ = validate_cover(reparsed, frozenset(report["cover"]))
    assert ok


def test_hunt_small_batch(tmp_path):
    assert (
        run_cli(
            [
                "hunt", "--gen", "mixed", "--n-range", "6", "12",
                "--trials", "8", "--seed", "3", "--out", str(tmp_path / "h"),
            ]
        )
        == 0
    )
    summary = json.loads((tmp_path / "h" / "hunt.json").read_text())
    assert summary["trials"] == 8
    assert summary["xiZeroCount"] + len(summary["nonzeroXiInstances"]) == 8
    assert not summary["guaranteeViolations"]
    csv_text = (tmp_path / "h" / "hunt.csv").read_text()
    assert csv_text.count("\n") == 9  # header + 8 rows
    assert csv_text.splitlines()[0] == ",".join(HUNT_CSV_COLUMNS)


def _hunt_usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        run_cli(["hunt", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: vc hunt")
    return err


def test_hunt_refuses_graphs_over_the_size_limit(tmp_path, monkeypatch, capsys):
    # Checked from HI alone, before any instance is built: C(HI, 2) vertex
    # pairs, the bound generate() puts on random_triangle_free(HI, p, seed).
    monkeypatch.setattr(graph, "MAX_GRAPH_SIZE", 20)
    with monkeypatch.context() as m:
        m.setattr(cli, "hunt", lambda **kwargs: pytest.fail("hunt ran"))
        for gen in ("gnp-trianglefree", "mixed"):
            err = _hunt_usage_error(["--gen", gen, "--n-range", "6", "8", "--trials", "1"], capsys)
            assert "HI=8 allows 28 edges, over the size limit 20" in err
    argv = ["hunt", "--n-range", "6", "6", "--trials", "2", "--out", str(tmp_path / "h")]
    assert run_cli(argv) == 0


@pytest.mark.parametrize("gen", ["torus", "mixed"])
def test_hunt_refuses_a_range_that_fits_no_torus(gen, tmp_path, monkeypatch, capsys):
    # Every instance a hunt draws lies inside --n-range; 6..8 holds no torus.
    with monkeypatch.context() as m:
        m.setattr(cli, "hunt", lambda **kwargs: pytest.fail("hunt ran"))
        err = _hunt_usage_error(["--gen", gen, "--n-range", "6", "8", "--trials", "2"], capsys)
        assert "--n-range 6 8 fits no torus_grid shape" in err
    out = tmp_path / "h"
    assert run_cli(["hunt", "--gen", gen, "--n-range", "9", "12", "--trials", "6", "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "hunt.csv").read_text().splitlines()))
    assert len(rows) == 6 and all(9 <= int(row["n"]) <= 12 for row in rows)


def test_hunt_checks_its_own_range(monkeypatch):
    # Called from Python, hunt and hunt_instance refuse the ranges vc hunt
    # refuses, with ValueError and before any solve: no torus shape inside
    # 6..8 (this used to be a ZeroDivisionError), and C(HI, 2) pairs over
    # the size limit.
    monkeypatch.setattr(graph, "MAX_GRAPH_SIZE", 20)
    monkeypatch.setattr(runner, "solve_instance", lambda *a, **k: pytest.fail("solved"))
    refused = [("torus", "^n_range 6 8 fits no torus_grid shape")] + [
        (gen, "^n_range HI=8 allows 28 edges, over the size limit 20") for gen in ("gnp-trianglefree", "mixed")
    ]
    for gen, message in refused:
        with pytest.raises(ValueError, match=message):
            runner.hunt(gen=gen, n_range=(6, 8), trials=1)
        with pytest.raises(ValueError, match=message):
            runner.hunt_instance(gen, 0, 1, (6, 8))
    with pytest.raises(ValueError, match="^n_range needs 1 <= LO <= HI, got 10 5"):
        runner.hunt(n_range=(10, 5), trials=1)
    assert runner.hunt_instance("torus", 0, 1, (9, 12))[1] == "torus_grid(3,3)"


def test_hunt_checks_its_own_trials_and_jobs(monkeypatch, capsys):
    # A negative trials count used to come back as "trials": -1 in the
    # summary; runner refuses it and a jobs count below 1 before any solve,
    # and vc hunt turns the same rule into its usage error.
    monkeypatch.setattr(runner, "solve_instance", lambda *a, **k: pytest.fail("solved"))
    with pytest.raises(ValueError, match="^trials needs a count >= 0, got -1"):
        runner.hunt(n_range=(6, 8), trials=-1)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match=f"^jobs needs at least 1, got {jobs}"):
            runner.hunt(n_range=(6, 8), trials=2, jobs=jobs)
    monkeypatch.setattr(cli, "hunt", lambda **kwargs: pytest.fail("hunt ran"))
    assert "jobs needs at least 1, got 0" in _hunt_usage_error(["--jobs", "0", "--trials", "2"], capsys)


def test_hunt_archives_nonzero_xi_instances(tmp_path, monkeypatch, capsys):
    # No instance has given xi != 0 yet, so one hunt index is made to.
    gen, seed, n_range, target = "gnp-trianglefree", 5, (6, 12), 2
    target_graph, target_name = hunt_instance(gen, target, seed, n_range)
    solve = runner.solve_instance

    def solve_with_one_finding(g, name, *args, **kwargs):
        report = solve(g, name, *args, **kwargs)
        if name == target_name:
            report["certificate"]["xi"] = "1/2"
        return report

    monkeypatch.setattr(runner, "solve_instance", solve_with_one_finding)
    out = tmp_path / "h"
    argv = ["hunt", "--gen", gen, "--n-range", "6", "12", "--trials", "4", "--seed", "5", "--out", str(out)]
    assert run_cli(argv) == 0
    summary = json.loads((out / "hunt.json").read_text())
    assert summary["nonzeroXiInstances"] == [{"index": target, "name": target_name, "xi": "1/2"}]
    assert summary["xiZeroCount"] == 3
    assert sorted(p.name for p in out.iterdir()) == ["hunt.csv", "hunt.json", "nonzero_xi_00002.col"]
    archived = (out / "nonzero_xi_00002.col").read_text()
    assert parse_graph(archived) == target_graph
    assert "archived 1 nonzero-xi instance(s)" in capsys.readouterr().out


def test_hunt_deterministic_and_parallel_equivalent():
    s1, rows1 = hunt(gen="gnp-trianglefree", n_range=(6, 10), trials=6, seed=4)
    s2, rows2 = hunt(gen="gnp-trianglefree", n_range=(6, 10), trials=6, seed=4)
    assert s1 == s2 and hunt_rows_csv(rows1) == hunt_rows_csv(rows2)
    s3, rows3 = hunt(gen="gnp-trianglefree", n_range=(6, 10), trials=6, seed=4, jobs=2)
    assert s3 == s1 and hunt_rows_csv(rows3) == hunt_rows_csv(rows1)


@pytest.mark.parametrize(
    "jobs, trials, cpus, workers",
    [(64, 3, 8, 3), (64, 10, 4, 4), (2, 10, 4, 2), (64, 10, None, None), (1, 10, 8, None)],
)
def test_hunt_clamps_jobs(monkeypatch, jobs, trials, cpus, workers):
    # A stand-in executor records max_workers and maps in process. hunt
    # imports ProcessPoolExecutor from concurrent.futures when it runs.
    import concurrent.futures

    from elpcover import runner

    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
    summary, rows = hunt(gen="gnp-trianglefree", n_range=(4, 5), trials=trials, seed=1, jobs=jobs)
    assert len(rows) == trials
    assert started == ([] if workers is None else [workers])


def test_hunt_empty():
    summary, rows = hunt(trials=0)
    assert summary["trials"] == 0 and rows == []
    assert summary["xiZeroRate"] == "0"


def test_bipartite_runs_have_gamma_zero():
    # Bipartite graphs have integral relaxation optima, so no random-edge
    # reductions and xi = 0 throughout.
    rng = random.Random(5)
    for _ in range(15):
        g = random_bipartite(rng.randint(2, 5), rng.randint(2, 5), 0.5, rng)
        report = solve_instance(g, "bip", "test")
        assert report["certificate"]["gamma"] == 0
        assert report["certificate"]["xi"] == "0"
        if report["oracle"]:
            assert report["oracle"]["ratio"] is not None
