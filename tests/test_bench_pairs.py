"""tools/bench_pairs.py on two stub checkouts whose bench/run.py prints a
canned result line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
DECLARED = {"end_to_end": [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def checkout(root: Path, name: str, job_s: float, correct: bool) -> Path:
    """A checkout whose bench/run.py prints one table line and a result line
    with the given job_s and correct, whatever its arguments."""
    path = root / name
    (path / "bench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    result = {"correct": correct, "attempted": 4, "failed": 0,
              "metrics": {"job_s": {"value": job_s, "unit": "s"}}}
    (path / "bench" / "run.py").write_text(
        f"print('job_s  {job_s}')\nprint({json.dumps(json.dumps(result))})\n")
    return path


def bench_pairs(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "w",
         "--pairs", "3", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)


def test_a_gain_of_correct_runs_holds(tmp_path):
    proc = bench_pairs(checkout(tmp_path, "parent", 0.2, True),
                       checkout(tmp_path, "change", 0.1, True))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("correct True -> True") == 3
    assert "gain rule holds" in proc.stdout


@pytest.mark.parametrize("incorrect", ["parent", "change"])
def test_an_incorrect_run_fails_the_comparison(tmp_path, incorrect):
    """A side whose runs print correct: false fails the comparison, and no
    gain is claimed, even where its metrics win every pair."""
    proc = bench_pairs(checkout(tmp_path, "parent", 0.2, incorrect != "parent"),
                       checkout(tmp_path, "change", 0.1, incorrect != "change"))
    assert proc.returncode == 1
    flags = "False -> True" if incorrect == "parent" else "True -> False"
    assert proc.stdout.count(f"correct {flags}") == 3
    assert "gain rule does not hold" in proc.stdout
    assert "not correct" in proc.stderr
