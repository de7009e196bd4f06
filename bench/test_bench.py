"""Smoke test of the benchmark on tiny corpora.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# sha256 of each full corpus; a change here changes what the benchmark measures.
INPUT_DIGESTS = {
    "sweep-small": "a1fac66a223fa064aeef15edbfc1d436caf5834f2238b7aa23bd1879affdc14f",
    "trianglefree-mid": "6f331b9e929a07af694cf88d85eef921679bada5eee932b3bee976dfc9a912fc",
    "lp-large": "76061a3a77f5a82ebc47a0211fa34409899cba55efd137549b50b5e8cd1ad1bd",
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every corpus to a few instances and keep span files in tmp_path."""
    for workload, (maker, _) in list(corpus.CORPUS.items()):
        monkeypatch.setitem(corpus.CORPUS, workload, (maker, 3 if workload == "lp-large" else 6))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)


def bench(capsys, *args) -> dict:
    code = run.main(["--seconds", "0", *args])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    for name, m in result["metrics"].items():
        assert printed[name] == m["unit"]
    assert printed["failed_frac"] == "ratio"
    return result


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_inputs_are_pinned(workload):
    digest = corpus.inputs_sha256(corpus.build(workload))
    assert digest == INPUT_DIGESTS[workload]


def test_untraced_run_emits_every_end_to_end_metric(tiny, capsys):
    result = bench(capsys, "--workload", "sweep-small", "--seed", "3", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 6
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_and_repeats_counters(tiny, capsys):
    args = ("--workload", "trianglefree-mid", "--seed", "5", "--trace", "1")
    first = bench(capsys, *args)
    second = bench(capsys, *args)
    assert first["correct"] is True
    assert_metrics(first, SPEC["per_layer"])
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            assert second["metrics"][name]["value"] == m["value"], name
    assert first["metrics"]["simplex.pivots"]["value"] > 0
    assert first["metrics"]["elp.cut_rounds"]["value"] > 0


def test_gate_counts_a_corrupted_cover_and_keeps_going(tiny, capsys, monkeypatch):
    solve = run.solve_one

    def corrupt(program, name, text):
        g, report, dumped = solve(program, name, text)
        if name.startswith("warm-up"):
            return g, report, dumped
        u, v = next(g.edges())
        report["cover"] = [w for w in report["cover"] if w not in (u, v)]
        return g, report, dumped

    monkeypatch.setattr(run, "solve_one", corrupt)
    result = bench(capsys, "--workload", "sweep-small", "--seed", "3", "--trace", "0")
    assert result["correct"] is False
    assert result["attempted"] == 6
    assert result["failed"] == 6


def test_gate_counts_an_exception_and_keeps_going(tiny, capsys, monkeypatch):
    solve = run.solve_one
    calls = []

    def flaky(program, name, text):
        calls.append(name)
        if len(calls) == 3:  # the second instance after the warm-up
            raise RuntimeError("injected")
        return solve(program, name, text)

    monkeypatch.setattr(run, "solve_one", flaky)
    result = bench(capsys, "--workload", "sweep-small", "--seed", "3", "--trace", "0")
    assert (result["attempted"], result["failed"], result["correct"]) == (6, 1, False)


def test_gate_checks_both_guarantees_exactly():
    program = run.load_program()
    g = program.graph.parse_graph(corpus.dimacs(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]))
    report = program.runner.solve_instance(g, "c5", "test")
    assert run.check(program.validate_cover, g, report) is None
    assert report["oracle"]["optSize"] == 3

    def with_bounds(xi, lam):
        certificate = dict(report["certificate"], xi=xi, **{"lambda": lam})
        return dict(report, cover=list(g.vertices), coverSize=5, certificate=certificate)

    # |S1| = 5 against |S*| = 3: 5 > 3/2 * 3 + 0, and 5 > 3 + 1.
    assert "3/2" in run.check(program.validate_cover, g, with_bounds("0", "2"))
    assert "lambda" in run.check(program.validate_cover, g, with_bounds("1/2", "1"))
    assert run.check(program.validate_cover, g, with_bounds("1/2", "2")) is None


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
