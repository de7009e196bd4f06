"""Smoke test of tools/ab.py: HEAD against HEAD, one pair of sweep-small,
in both modes. Both arms must report the same reports_sha256."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(REPO), *args], capture_output=True, text=True)


@pytest.mark.skipif(
    git("cat-file", "-e", "HEAD:bench/run.py").returncode != 0,
    reason="needs a git checkout whose HEAD has bench/run.py",
)
def test_ab_head_against_head_reports_equal_digests_in_both_modes(tmp_path):
    out = tmp_path / "ab.json"
    worktrees = git("worktree", "list").stdout
    base = [
        sys.executable, str(REPO / "tools" / "ab.py"), "--parent", "HEAD", "--change", "HEAD",
        "--pairs", "1", "--seconds", "0", "--workload", "sweep-small", "--out", str(out),
    ]
    for extra in ([], ["--in-process", "--key", "in_process"]):
        proc = subprocess.run([*base, *extra], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert git("worktree", "list").stdout == worktrees

    record = json.loads(out.read_text())
    runs = record["runs"]["sweep-small"]
    assert [len(runs["parent"]), len(runs["change"])] == [1, 1]
    digest = runs["parent"][0]["reports_sha256"]
    assert runs["change"][0]["reports_sha256"] == digest
    assert runs["parent"][0]["failed"] == runs["change"][0]["failed"] == 0
    pairs = record["ab_pairs"]["sweep-small"]
    assert set(pairs) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(p["pairs"] == 1 and p["change_wins"] in (0, 1) for p in pairs.values())
    assert all(p["median_pair_ratio"] > 0 for p in pairs.values())

    in_process = record["in_process"]["runs"]["sweep-small"]
    assert in_process["passes"] == 1 and in_process["reports_identical"] is True
    assert in_process["reports_sha256"] == {"parent": digest, "change": digest}
    assert in_process["failed"] == {"parent": 0, "change": 0}
