"""The benchmark's four workloads.

Each workload turns a seed into package inputs (``build``), runs one job on
them (``Inputs.job``), and reduces the job's result to plain JSON-style data
(``Inputs.reduce``) that is compared with the golden record or with another
job's output.  The package only ever sees the generated configs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from holderpo import cli, sim, verify
from holderpo.schedule import ScheduleSpec

# Golden inputs use the package's default seed; every other seed is held out.
GOLDEN_SEED = 0
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# Golden floats must agree to this share of the largest magnitude in their
# column (one position-wise logits column, UpdateMetrics field or CSV column).
GOLDEN_RTOL = 1e-12

WORKLOADS = {
    "train-default-sparse": "shipped default train run (sparse L=8 V=16, sequence clip, "
    "240 updates): time spread over per-rollout overhead; the 10x target",
    "train-long-tokenclip": "sparse L=32 V=32, token clip at lr 5: the estimator and "
    "O(T^2 V) score gradients dominate and token clipping fires",
    "sweep-sample-heavy": "in-process CLI sweep, 512 rollouts/round, 1 update/round: "
    "sampling dominates; the only workload that parses configs and writes run files",
    "verify-100": "check_all over 100 instances: scalar core/objectives API and finite "
    "differences with no training loop; must stay flat under a batched refactor",
}

SWEEP_P_LIST = "-2,0,2"
SWEEP_SEEDS = 2
SWEEP_ROUNDS = 15
# Each static exponent plus the config's schedule, once per seed.
SWEEP_LABELS = len(SWEEP_P_LIST.split(",")) + 1
SWEEP_RUNS = SWEEP_LABELS * SWEEP_SEEDS
VERIFY_INSTANCES = 100


@dataclass
class Inputs:
    """One workload instance: a job to time and how to read its result."""

    workload: str
    seed: int
    job: Callable[[], Any]
    reduce: Callable[[Any], dict]
    updates: int  # optimizer updates per job (0 for verify)
    rollouts: int  # rollouts sampled per job (0 for verify)


def _descending_schedule(total_updates: int) -> ScheduleSpec:
    return ScheduleSpec(2.0, -2.0, total_updates - 1)


def _train_inputs(workload: str, seed: int, config: sim.TrainConfig,
                  task: sim.TaskSpec) -> Inputs:
    def job():
        # Looked up at call time so a traced run sees its wrapper.
        return sim.train(config, task)

    def reduce(log) -> dict:
        return {
            "final_logits": log.final_policy.logits.tolist(),
            "final_success": log.final_success,
            "metrics": [m.to_dict() for m in log.metrics],
        }

    return Inputs(workload, seed, job, reduce, config.total_updates,
                  config.rollouts_per_round * config.total_rounds)


def _train_default_sparse(seed: int, workdir: Path) -> Inputs:
    config = sim.TrainConfig(schedule=_descending_schedule(240), seed=seed)
    return _train_inputs("train-default-sparse", seed, config,
                         sim.default_sparse_task())


def _train_long_tokenclip(seed: int, workdir: Path) -> Inputs:
    # At the shipped lr and 4 updates/round no token is ever clipped; lr 5 and
    # 16 updates/round on one round's rollouts make the clip branch fire.
    config = sim.TrainConfig(
        rollouts_per_round=64,
        minibatch_size=8,
        updates_per_round=16,
        total_rounds=20,
        learning_rate=5.0,
        clipping_regime="token",
        schedule=_descending_schedule(320),
        seed=seed,
    )
    task = sim.TaskSpec(kind="sparse", length=32, vocab=32, key_position=3,
                        key_token=5)
    return _train_inputs("train-long-tokenclip", seed, config, task)


def _read_csv(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _sweep_sample_heavy(seed: int, workdir: Path) -> Inputs:
    # `sweep` runs seeds 0..k-1 whatever the config says, so the seed moves the
    # pivotal (position, token) of the sparse task instead.
    if seed == GOLDEN_SEED:
        key_position, key_token = 3, 5
    else:
        rng = np.random.default_rng(seed)
        key_position, key_token = int(rng.integers(8)), int(rng.integers(16))
    rounds = SWEEP_ROUNDS
    config = {
        "schema_version": 1,
        "task": {"kind": "sparse", "length": 8, "vocab": 16,
                 "key_position": key_position, "key_token": key_token},
        "train": {
            "rollouts_per_round": 512, "group_size": 8, "minibatch_size": 4,
            "updates_per_round": 1, "total_rounds": rounds, "learning_rate": 1.0,
            "seed": 0, "clipping_regime": "sequence",
            "schedule": {"p_high": 2.0, "p_low": -2.0, "total_steps": rounds - 1,
                         "shape": "linear", "direction": "descending"},
        },
    }
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / f"sweep-config-{seed}.json"
    config_path.write_text(json.dumps(config))
    cli.load_config(str(config_path))
    out_dir = workdir / f"sweep-out-{seed}"
    argv = ["sweep", "--config", str(config_path), "--out-dir", str(out_dir),
            f"--p-list={SWEEP_P_LIST}", "--seeds", str(SWEEP_SEEDS),
            "--include-schedule"]

    def job():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"holderpo sweep exited {code}")
        return out_dir

    def reduce(path: Path) -> dict:
        try:
            comparison = [[label, int(s), float(v)]
                          for label, s, v in _read_csv(path / "comparison.csv")]
            medians = [[label, float(v)]
                       for label, v in _read_csv(path / "medians.csv")]
        finally:
            shutil.rmtree(path, ignore_errors=True)
        return {"comparison": comparison, "medians": medians}

    return Inputs("sweep-sample-heavy", seed, job, reduce, SWEEP_RUNS * rounds,
                  SWEEP_RUNS * rounds * 512)


def _verify_100(seed: int, workdir: Path) -> Inputs:
    def job():
        return verify.check_all(seed=seed, instance_count=VERIFY_INSTANCES)

    def reduce(report) -> dict:
        return json.loads(report.to_json())

    return Inputs("verify-100", seed, job, reduce, 0, 0)


BUILDERS = {
    "train-default-sparse": _train_default_sparse,
    "train-long-tokenclip": _train_long_tokenclip,
    "sweep-sample-heavy": _sweep_sample_heavy,
    "verify-100": _verify_100,
}


def held_out_seed(bench_seed: int) -> int:
    """The package seed for the held-out jobs of a non-negative benchmark
    seed; never the golden seed."""
    return GOLDEN_SEED + 1 + bench_seed


def build(workload: str, bench_seed: int, workdir: Path) -> tuple[Inputs, Inputs]:
    """(golden inputs, held-out inputs) for one run of the workload."""
    builder = BUILDERS[workload]
    return builder(GOLDEN_SEED, workdir), builder(held_out_seed(bench_seed), workdir)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def golden_view(workload: str, output: dict) -> dict:
    """The part of a job's output that the golden record pins down.

    Finite-difference error magnitudes of verify shift with reduction order,
    so only each check's status and the instance count are pinned there.
    """
    if workload != "verify-100":
        return output
    return {
        "instance_count": output["instance_count"],
        "all_passed": output["all_passed"],
        "checks": [[c["name"], c["status"]] for c in output["checks"]],
    }


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    return json.loads(golden_path(workload).read_text())


def _fields(value) -> dict[str, list]:
    """A golden value as named columns: a table (rows of dicts or of lists)
    by column, anything else as one column."""
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return {str(f): [row[f] for row in value] for f in value[0]}
    if isinstance(value, list) and value and isinstance(value[0], list):
        return {str(i): [row[i] for row in value] for i in range(len(value[0]))}
    return {"": value if isinstance(value, list) else [value]}


def _compare_column(where: str, expected: list, actual: list, out: list[str]) -> None:
    if len(expected) != len(actual):
        out.append(f"{where}: length {len(actual)} != {len(expected)}")
        return
    scale = max((abs(e) for e in expected if isinstance(e, (int, float))),
                default=0.0)
    for i, (e, a) in enumerate(zip(expected, actual)):
        if isinstance(e, (int, float)) and isinstance(a, (int, float)):
            same = abs(a - e) <= GOLDEN_RTOL * scale
        else:
            same = e == a
        if not same:
            out.append(f"{where}[{i}]: {a!r} != {e!r}")
            return


def compare_golden(workload: str, expected: dict, actual: dict) -> list[str]:
    """Mismatches between a job's golden view and the golden record."""
    actual = golden_view(workload, actual)
    if set(expected) != set(actual):
        return [f"keys {sorted(actual)} != {sorted(expected)}"]
    out: list[str] = []
    for key in expected:
        exp, act = _fields(expected[key]), _fields(actual[key])
        if set(exp) != set(act):
            out.append(f"{key}: columns {sorted(act)} != {sorted(exp)}")
            continue
        for name, column in exp.items():
            _compare_column(f"{key}.{name}" if name else key, column, act[name], out)
    return out


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def sanity_problems(inputs: Inputs, output: dict) -> list[str]:
    """Checks for held-out outputs, which have no golden record."""
    problems = []
    if not _all_finite(output):
        problems.append("non-finite value in output")
    if inputs.workload == "verify-100":
        if not output["all_passed"]:
            failed = [c["name"] for c in output["checks"] if c["status"] == "fail"]
            problems.append(f"verify checks failed: {failed}")
        if len(output["checks"]) != len(verify.CHECKS):
            problems.append("verify report is missing checks")
    elif inputs.workload == "sweep-sample-heavy":
        if (len(output["comparison"]) != SWEEP_RUNS
                or len(output["medians"]) != SWEEP_LABELS):
            problems.append("sweep tables have the wrong number of rows")
    elif len(output["metrics"]) != inputs.updates:
        problems.append("train log has the wrong number of updates")
    return problems
