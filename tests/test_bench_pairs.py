"""tools/bench_pairs.py on two stub checkouts whose bench/run.py prints a
canned result line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
DECLARED = {"end_to_end": [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def checkout(root: Path, name: str, job_s, correct) -> Path:
    """A checkout whose bench/run.py prints one table line and a result line
    with the given job_s and correct, whatever its arguments.  Given dicts
    keyed by workload, it prints the values of the workload it is asked for
    and appends its name and that workload to root/runs.log."""
    if not isinstance(job_s, dict):
        job_s, correct = {"w": job_s}, {"w": correct}
    path = root / name
    (path / "bench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    results = {w: {"correct": correct[w], "attempted": 4, "failed": 0,
                   "metrics": {"job_s": {"value": job_s[w], "unit": "s"}}}
               for w in job_s}
    (path / "bench" / "run.py").write_text(
        "import json, sys\n"
        "workload = sys.argv[sys.argv.index('--workload') + 1]\n"
        f"with open({str(root / 'runs.log')!r}, 'a') as log:\n"
        f"    log.write({name!r} + ' ' + workload + '\\n')\n"
        f"result = {results!r}[workload]\n"
        "print('job_s ', result['metrics']['job_s']['value'])\n"
        "print(json.dumps(result))\n")
    return path


def bench_pairs(parent: Path, change: Path, workload: str = "w") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", workload,
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


def test_two_workloads_share_one_alternating_schedule(tmp_path):
    """Each pair runs both workloads, the parent first in even pairs; each
    workload gets its own block, and its own gain rule."""
    parent = checkout(tmp_path, "parent", {"fast": 0.2, "flat": 0.1},
                      {"fast": True, "flat": True})
    change = checkout(tmp_path, "change", {"fast": 0.1, "flat": 0.1},
                      {"fast": True, "flat": True})
    proc = bench_pairs(parent, change, "fast,flat")
    assert proc.returncode == 0, proc.stderr
    pair = ["parent fast", "change fast", "parent flat", "change flat"]
    swapped = ["change fast", "parent fast", "change flat", "parent flat"]
    assert (tmp_path / "runs.log").read_text().splitlines() == pair + swapped + pair
    for workload in ("fast", "flat"):
        assert proc.stdout.count(f" {workload} (seed ") == 3
        assert f"\n{workload}: 3 pairs" in proc.stdout
    fast, flat = proc.stdout.split("\nfast: 3 pairs")[1].split("\nflat: 3 pairs")
    assert "gain rule holds" in fast
    assert "gain rule does not hold" in flat


def test_an_incorrect_run_of_one_workload_fails_the_comparison(tmp_path):
    parent = checkout(tmp_path, "parent", {"a": 0.2, "b": 0.2}, {"a": True, "b": True})
    change = checkout(tmp_path, "change", {"a": 0.1, "b": 0.1}, {"a": True, "b": False})
    proc = bench_pairs(parent, change, "a,b")
    assert proc.returncode == 1
    a, b = proc.stdout.split("\na: 3 pairs")[1].split("\nb: 3 pairs")
    assert "gain rule holds" in a
    assert "gain rule does not hold" in b
    assert "not correct" in proc.stderr
