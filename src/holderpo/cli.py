"""Command-line entry point: `mean`, `train`, `sweep`, and `verify`.

Exit codes: 0 success, 1 usage/config error, 2 verification failure,
3 divergence abort.  Run configs are JSON with a versioned schema and
unknown keys rejected; every emitted file embeds the resolved config
digest and code version so runs are self-describing.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import holderpo
from holderpo.analysis import table_to_csv
from holderpo.core import DomainError, HolderOrder, RatioSequence, gradient_weights, hhi, holder_mean, shannon_entropy
from holderpo.schedule import DIRECTIONS, SHAPES, ScheduleSpec
from holderpo.sim import (
    CLIPPING_REGIMES,
    DivergenceError,
    TaskSpec,
    TrainConfig,
    train,
)
from holderpo.verify import CHECKS, check_all, check_run_arguments

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_DIVERGED = 3

SCHEMA_VERSION = 1

SCHEDULE_CONVENTION = (
    "p(t) = start + (end - start) * phi(t / T); phi: linear=u, square=u^2, "
    "cube=u^3, sin=sin(pi u / 2); descending start=p_high end=p_low, "
    "ascending swapped; steps are optimizer updates"
)


class ConfigError(Exception):
    pass


def _require_keys(obj: dict, allowed: set, context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _parse_task(obj: dict) -> TaskSpec:
    _require_keys(
        obj,
        {"kind", "length", "vocab", "key_position", "key_token",
         "target_sequence", "dense_threshold"},
        "task",
    )
    try:
        return TaskSpec(
            kind=obj.get("kind", "sparse"),
            length=int(obj.get("length", 8)),
            vocab=int(obj.get("vocab", 16)),
            key_position=int(obj.get("key_position", 0)),
            key_token=int(obj.get("key_token", 0)),
            target_sequence=tuple(obj.get("target_sequence", ())),
            dense_threshold=int(obj.get("dense_threshold", 0)),
        )
    except DomainError as exc:
        raise ConfigError(f"task: {exc}") from exc


def _parse_schedule(obj: dict, total_updates: int) -> ScheduleSpec:
    _require_keys(
        obj,
        {"p_high", "p_low", "total_steps", "shape", "direction"},
        "schedule",
    )
    try:
        return ScheduleSpec(
            p_high=float(obj["p_high"]),
            p_low=float(obj.get("p_low", obj["p_high"])),
            total_steps=int(obj.get("total_steps", max(1, total_updates - 1))),
            shape=obj.get("shape", "linear"),
            direction=obj.get("direction", "descending"),
        )
    except KeyError as exc:
        raise ConfigError(f"schedule: missing {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _parse_train(obj: dict) -> TrainConfig:
    _require_keys(
        obj,
        {"group_size", "rollouts_per_round", "minibatch_size",
         "updates_per_round", "learning_rate", "clip_epsilon", "schedule",
         "clipping_regime", "seed", "total_rounds"},
        "train",
    )
    total_rounds = int(obj.get("total_rounds", 60))
    updates_per_round = int(obj.get("updates_per_round", 4))
    schedule = _parse_schedule(
        obj.get("schedule", {"p_high": 1.0, "shape": "constant"}),
        total_rounds * updates_per_round,
    )
    try:
        return TrainConfig(
            group_size=int(obj.get("group_size", 8)),
            rollouts_per_round=int(obj.get("rollouts_per_round", 256)),
            minibatch_size=int(obj.get("minibatch_size", 8)),
            updates_per_round=updates_per_round,
            learning_rate=float(obj.get("learning_rate", 0.05)),
            clip_epsilon=float(obj.get("clip_epsilon", 0.2)),
            schedule=schedule,
            clipping_regime=obj.get("clipping_regime", "sequence"),
            seed=int(obj.get("seed", 0)),
            total_rounds=total_rounds,
        )
    except DomainError as exc:
        raise ConfigError(f"train: {exc}") from exc


def load_config(path: str) -> tuple[TaskSpec, TrainConfig, dict]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, {"schema_version", "task", "train"}, "config")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    task = _parse_task(raw.get("task", {}))
    config = _parse_train(raw.get("train", {}))
    return task, config, raw


def resolved_config_dict(task: TaskSpec, config: TrainConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "code_version": holderpo.__version__,
        "schedule_convention": SCHEDULE_CONVENTION,
        "task": {
            "kind": task.kind,
            "length": task.length,
            "vocab": task.vocab,
            "key_position": task.key_position,
            "key_token": task.key_token,
            "target_sequence": list(task.target_sequence),
            "dense_threshold": task.dense_threshold,
        },
        "train": {
            "group_size": config.group_size,
            "rollouts_per_round": config.rollouts_per_round,
            "minibatch_size": config.minibatch_size,
            "updates_per_round": config.updates_per_round,
            "learning_rate": config.learning_rate,
            "clip_epsilon": config.clip_epsilon,
            "clipping_regime": config.clipping_regime,
            "seed": config.seed,
            "total_rounds": config.total_rounds,
            "schedule": {
                "p_high": config.schedule.p_high,
                "p_low": config.schedule.p_low,
                "total_steps": config.schedule.total_steps,
                "shape": config.schedule.shape,
                "direction": config.schedule.direction,
            },
        },
    }


def _digest(resolved: dict) -> str:
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()
    ).hexdigest()[:16]


def _stamp(resolved: dict) -> str:
    return f"# holderpo {holderpo.__version__} config_sha256={_digest(resolved)}\n"


METRIC_COLUMNS = (
    "step", "p_value", "objective", "grad_norm", "policy_entropy",
    "log_ratio_max", "log_ratio_min", "clip_fraction", "mean_reward",
    "v_of_p",
)


def write_run(out_dir: Path, task: TaskSpec, config: TrainConfig, log) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = resolved_config_dict(task, config)
    (out_dir / "config.json").write_text(json.dumps(resolved, indent=2) + "\n")

    with (out_dir / "metrics.ndjson").open("w") as fh:
        header = {"record": "header", **resolved}
        fh.write(json.dumps(header) + "\n")
        for m in log.metrics:
            fh.write(json.dumps({"record": "update", **m.to_dict()}) + "\n")

    rows = [[getattr(m, c) for c in METRIC_COLUMNS] for m in log.metrics]
    (out_dir / "metrics.csv").write_text(
        _stamp(resolved) + table_to_csv(METRIC_COLUMNS, rows)
    )

    summary = {
        "code_version": holderpo.__version__,
        "config_sha256": _digest(resolved),
        "final_success": log.final_success,
        "final_p": log.metrics[-1].p_value if log.metrics else None,
        "updates": len(log.metrics),
        "wall_time_s": log.wall_time,
        "config": resolved,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    np.save(out_dir / "final_policy.npy", log.final_policy.logits)
    return summary


def cmd_mean(args) -> int:
    try:
        if args.ratios_file:
            text = Path(args.ratios_file).read_text()
        else:
            text = args.ratios
        if text is None:
            raise ConfigError("provide --ratios or --ratios-file")
        values = [float(tok) for tok in text.replace(",", " ").split()]
        ratios = RatioSequence(np.array(values))
        orders = [HolderOrder(float(tok)) for tok in args.p.replace(",", " ").split()]
    except (ValueError, DomainError, OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = []
    for order in orders:
        w = gradient_weights(ratios, order)
        out.append(
            {
                "p": order.p,
                "rho": holder_mean(ratios, order),
                "weights": [float(x) for x in w.weights],
                "entropy": shannon_entropy(w),
                "hhi": hhi(w),
            }
        )
    print(json.dumps(out[0] if len(out) == 1 else out, indent=2))
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        task, config, _ = load_config(args.config)
        if args.seed is not None:
            config = TrainConfig(**{**_train_kwargs(config), "seed": args.seed})
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out_dir)
    try:
        log = train(config, task)
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    summary = write_run(out_dir, task, config, log)
    print(json.dumps({k: summary[k] for k in
                      ("final_success", "final_p", "updates", "wall_time_s")}))
    return EXIT_OK


def _train_kwargs(config: TrainConfig) -> dict:
    return {
        "group_size": config.group_size,
        "rollouts_per_round": config.rollouts_per_round,
        "minibatch_size": config.minibatch_size,
        "updates_per_round": config.updates_per_round,
        "learning_rate": config.learning_rate,
        "clip_epsilon": config.clip_epsilon,
        "schedule": config.schedule,
        "clipping_regime": config.clipping_regime,
        "seed": config.seed,
        "total_rounds": config.total_rounds,
    }


def _sweep_run(job):
    """One (label, schedule, seed) run; module-level so worker pools can
    pickle it."""
    label, schedule, seed, task, config = job
    run_config = TrainConfig(
        **{**_train_kwargs(config), "schedule": schedule, "seed": seed}
    )
    log = train(run_config, task)
    return label, seed, run_config, log


def _sweep_workers() -> int:
    """Worker processes for `sweep`: HOLDERPO_THREADS, an integer >= 1
    (default 1)."""
    raw = os.environ.get("HOLDERPO_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"HOLDERPO_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def cmd_sweep(args) -> int:
    try:
        workers = _sweep_workers()
        task, config, _ = load_config(args.config)
        p_list = [float(tok) for tok in args.p_list.replace(",", " ").split()]
        if not p_list:
            raise ConfigError("--p-list must name at least one exponent")
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    horizon = max(1, config.total_updates - 1)
    jobs = []
    for p in p_list:
        spec = ScheduleSpec.constant(p, horizon)
        for seed in range(args.seeds):
            jobs.append((spec.label(), spec, seed, task, config))
    if args.include_schedule:
        spec = config.schedule
        for seed in range(args.seeds):
            jobs.append((spec.label(), spec, seed, task, config))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(workers) as pool:
                results = list(pool.map(_sweep_run, jobs))
        else:
            results = [_sweep_run(job) for job in jobs]
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    rows = []
    by_label: dict[str, list[float]] = {}
    for label, seed, run_config, log in results:
        write_run(out_dir / label / f"seed{seed}", task, run_config, log)
        rows.append([label, seed, log.final_success])
        by_label.setdefault(label, []).append(log.final_success)
    resolved = resolved_config_dict(task, config)
    (out_dir / "comparison.csv").write_text(
        _stamp(resolved)
        + table_to_csv(("label", "seed", "final_success"), rows)
    )
    median_rows = [
        [label, statistics.median(vals)] for label, vals in by_label.items()
    ]
    (out_dir / "medians.csv").write_text(
        _stamp(resolved)
        + table_to_csv(("label", "median_final_success"), median_rows)
    )
    print(table_to_csv(("label", "median_final_success"), median_rows), end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None
    if args.only:
        only = [tok for chunk in args.only for tok in chunk.split(",") if tok]
        unknown = set(only) - set(CHECKS)
        if unknown:
            print(f"error: unknown check(s) {sorted(unknown)}", file=sys.stderr)
            return EXIT_USAGE
    try:
        check_run_arguments(seed=args.seed, instance_count=args.instances)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = check_all(seed=args.seed, instance_count=args.instances, only=only)
    print(report.to_text())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holderpo",
        description="Power-mean importance-ratio aggregation: compute means, "
        "train the toy policy, sweep exponents, verify the theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="aggregate a ratio vector")
    p_mean.add_argument("--ratios", help="comma-separated positive ratios")
    p_mean.add_argument("--ratios-file", help="file with ratios")
    p_mean.add_argument("--p", default="1", help="comma-separated exponents")
    p_mean.set_defaults(func=cmd_mean)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run static-p sweeps over seeds")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--p-list", required=True,
                         help="comma-separated static exponents")
    p_sweep.add_argument("--seeds", type=int, default=5)
    p_sweep.add_argument("--include-schedule", action="store_true",
                         help="also run the config's schedule")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the theorem-check suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--instances", type=int, default=100)
    p_verify.add_argument("--only", action="append", default=[],
                          help="run only the named check(s)")
    p_verify.add_argument("--json-out", help="also write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
