"""Golden training trajectories: sparse and dense tasks under each clipping
regime, a linear 2 -> -2 schedule and a few rounds, pinned to the final
logits, every UpdateMetrics field and final_success a trusted commit
recorded.  Each value must agree to 1e-12 of its field's largest magnitude,
whether the case runs alone or stacked with other seeds and schedules.

Re-record (only at a commit whose trajectories are trusted):

    PYTHONPATH=src python tests/test_trajectories.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from holderpo.analysis import UpdateMetrics
from holderpo.objectives import CLIPPING_REGIMES
from holderpo.schedule import ScheduleSpec
from holderpo.sim import (
    TrainConfig,
    default_dense_task,
    default_sparse_task,
    train,
    train_many,
)

from conftest import assert_same_run

FIXTURE = Path(__file__).parent / "data" / "train_trajectories.json"
RTOL = 1e-12
TASKS = {"sparse": default_sparse_task, "dense": default_dense_task}
CASES = [f"{kind}-{regime}" for kind in TASKS for regime in CLIPPING_REGIMES]


def case_config(case: str) -> TrainConfig:
    """One short run off-policy enough that token and sequence clipping fire."""
    return TrainConfig(
        group_size=4, rollouts_per_round=16, minibatch_size=2,
        updates_per_round=4, total_rounds=3, learning_rate=5.0,
        clip_epsilon=0.05, clipping_regime=case.split("-")[1],
        schedule=ScheduleSpec(2.0, -2.0, 11), seed=0,
    )


def run_case(case: str) -> dict:
    return record(train(case_config(case), TASKS[case.split("-")[0]]()))


def record(log) -> dict:
    return {
        "final_logits": log.final_policy.logits.ravel().tolist(),
        "final_success": [log.final_success],
        **{
            f.name: [float(getattr(m, f.name)) for m in log.metrics]
            for f in dataclasses.fields(UpdateMetrics)
        },
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def assert_matches(want: dict, got: dict, case: str) -> None:
    assert sorted(got) == sorted(want)
    for name, expected in want.items():
        expected, actual = np.asarray(expected), np.asarray(got[name])
        assert actual.shape == expected.shape, name
        scale = np.abs(expected).max()
        worst = np.abs(actual - expected).max()
        assert worst <= RTOL * scale, f"{case} {name}: off by {worst:.3e}"


@pytest.mark.parametrize("case", CASES)
def test_trajectory_unchanged(case, recorded):
    assert_matches(recorded[case], run_case(case), case)


@pytest.mark.parametrize("case", CASES)
def test_trajectory_unchanged_in_a_stack(case, recorded):
    """The case stacked between runs with other seeds and exponents (one
    at p = 0, on the series path) still matches, and every other member of the
    stack equals its solo run."""
    config, task = case_config(case), TASKS[case.split("-")[0]]()
    configs = [
        dataclasses.replace(config, seed=1, schedule=ScheduleSpec.constant(0.0, 11)),
        config,
        dataclasses.replace(config, seed=2, schedule=ScheduleSpec.constant(-1.0, 11)),
        dataclasses.replace(config, seed=0, schedule=ScheduleSpec(3.0, -1.0, 5)),
    ]
    logs = train_many(configs, task)
    assert_matches(recorded[case], record(logs[1]), case)
    for other in (0, 2, 3):
        assert_same_run(logs[other], train(configs[other], task))


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({case: run_case(case) for case in CASES}, indent=1) + "\n"
    )
