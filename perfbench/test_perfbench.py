"""Short runs of every workload: metrics, units, counts and correctness checks.

Each workload runs for one second untraced, and sweep-grid once traced, all
at once.  A run in a directory without the program must fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _start(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.Popen:
    command = [sys.executable, *BENCH["command"][1:]]
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.Popen(command + args, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def results():
    running = [(job, _start(*job)) for job in [(w, 0) for w in WORKLOADS] + [("sweep-grid", 1)]]
    out = {}
    for job, proc in running:
        stdout, stderr = proc.communicate(timeout=600)
        out[job] = (proc.returncode, stdout, stderr)
    return out


def _result(results, workload, trace):
    code, stdout, stderr = results[(workload, trace)]
    assert code == 0, stderr[-3000:]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], stderr[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def _assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(results, workload):
    result = _result(results, workload, 0)
    _assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "cli-session":
        # three malformed documents per round of nine commands exit 1, not 2
        assert result["failed"] * 3 == result["attempted"]
    else:
        assert result["failed"] == 0


def test_per_layer_metrics(results):
    result = _result(results, "sweep-grid", 1)
    _assert_metrics(result, BENCH["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["share.series"] == 0.0
    assert metrics["share.verify"] > 0.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _start("angle-scan", 0, cwd=tmp_path)
    stdout, _ = proc.communicate(timeout=180)
    assert proc.returncode != 0
    assert not stdout.strip()
