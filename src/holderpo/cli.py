"""Command-line entry point: `mean`, `train`, `sweep`, and `verify`.

Exit codes: 0 success, 1 usage/config error (an empty `verify --only`, or a
path that cannot be read or written, included), 2 verification failure,
3 divergence abort.

A run config is a JSON object with a `task` and a `train` section.  The
dataclasses are its schema: the section keys are the fields of `TaskSpec`
and `TrainConfig`, and `train.schedule` holds the fields of `ScheduleSpec`.
Every key is optional and takes the dataclass default, except a few that
depend on the rest of the config (see `_train_config`).  An unknown key, or
a value of the wrong JSON type, is a usage error naming `section.field`.
Every emitted file embeds the resolved config digest and code version, so
runs are self-describing, and a run's `config.json` is itself a valid
config.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

import holderpo
from holderpo.analysis import UpdateMetrics, table_to_csv
from holderpo.core import (
    DomainError,
    HolderOrder,
    RatioSequence,
    concentration_rows,
    holder_grid,
)
from holderpo.schedule import ScheduleSpec
from holderpo.sim import DivergenceError, TaskSpec, TrainConfig, train, train_many
from holderpo.verify import check_all

# argparse, hashlib and statistics are imported where they are used, so that
# neither `import holderpo.cli` nor `train` loads them.  hashlib maps OpenSSL's
# libcrypto into the process; it loads once a run is written.
if typing.TYPE_CHECKING:
    import argparse

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

# Written into every resolved config; informational when a config is read.
STAMPS = {
    "code_version": holderpo.__version__,
    "schedule_convention": SCHEDULE_CONVENTION,
}

# The JSON values a field of each annotated type accepts; bool is never a
# number, and an int field takes no float.
_JSON_TYPES = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
}


class ConfigError(Exception):
    pass


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a JSON object, got {json.dumps(value)}")
    return value


def _typed(hint, value, where: str):
    """`value` as the field type `hint`, or a ConfigError naming `where`."""
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            item = typing.get_args(hint)[0]
            return tuple(_typed(item, v, f"{where}[{i}]") for i, v in enumerate(value))
        expected = "a list"
    else:
        expected, json_types = _JSON_TYPES[hint]
        if isinstance(value, json_types) and not isinstance(value, bool):
            try:
                return hint(value)
            except OverflowError:  # a JSON integer past the float range
                raise ConfigError(f"{where} is out of range for a float") from None
    raise ConfigError(f"{where} must be {expected}, got {json.dumps(value)}")


def _from_dict(cls, obj, context: str, defaults=lambda **given: {}):
    """An instance of the dataclass `cls` from the JSON object `obj`.

    Each key names a field, and its value must have the field's annotated
    type.  A missing key takes its value from `defaults(**given)`, the
    defaults that depend on the keys given, or else the dataclass default.
    """
    hints = typing.get_type_hints(cls)
    unknown = set(_object(obj, context)) - set(hints)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")
    given = {
        name: _typed(hints[name], value, f"{context}.{name}")
        for name, value in obj.items()
    }
    values = {**defaults(**given), **given}
    missing = [
        f.name for f in fields(cls)
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {context}")
    try:
        return cls(**values)
    except DomainError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _train_config(schedule=MISSING, **given) -> TrainConfig:
    """The `train` section, passed as keyword arguments.  The defaults that
    depend on the rest of the config: with no schedule p is constant at 1.0,
    a schedule's p_low holds its p_high, and its horizon spans the run's
    updates."""
    config = _from_dict(TrainConfig, given, "train")
    horizon = max(1, config.total_updates - 1)
    if schedule is MISSING:
        return replace(config, schedule=ScheduleSpec.constant(1.0, horizon))
    return replace(config, schedule=_from_dict(
        ScheduleSpec, schedule, "train.schedule",
        lambda p_high=None, **_: dict(p_low=p_high, total_steps=horizon),
    ))


def load_config(path: str) -> tuple[TaskSpec, TrainConfig]:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    unknown = set(_object(raw, "config")) - {"schema_version", "task", "train", *STAMPS}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in config")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if _typed(int, version, "schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    task = _from_dict(TaskSpec, raw.get("task", {}), "task")
    config = _train_config(**_object(raw.get("train", {}), "train"))
    return task, config


def resolved_config_dict(task: TaskSpec, config: TrainConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        **STAMPS,
        "task": asdict(task),
        "train": asdict(config),
    }


def _digest(resolved: dict) -> str:
    import hashlib

    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()
    ).hexdigest()[:16]


def _stamp(digest: str) -> str:
    return f"# holderpo {holderpo.__version__} config_sha256={digest}\n"


METRIC_COLUMNS = tuple(f.name for f in fields(UpdateMetrics))


def write_run(out_dir: Path, task: TaskSpec, config: TrainConfig, log) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = resolved_config_dict(task, config)
    digest = _digest(resolved)
    (out_dir / "config.json").write_text(json.dumps(resolved, indent=2) + "\n")

    with (out_dir / "metrics.ndjson").open("w") as fh:
        header = {"record": "header", **resolved}
        fh.write(json.dumps(header) + "\n")
        for m in log.metrics:
            fh.write(json.dumps({"record": "update", **m.to_dict()}) + "\n")

    rows = [[getattr(m, c) for c in METRIC_COLUMNS] for m in log.metrics]
    (out_dir / "metrics.csv").write_text(
        _stamp(digest) + table_to_csv(METRIC_COLUMNS, rows)
    )

    summary = {
        "code_version": holderpo.__version__,
        "config_sha256": digest,
        "final_success": log.final_success,
        "final_p": log.metrics[-1].p_value if log.metrics else None,
        "updates": len(log.metrics),
        "wall_time_s": log.wall_time,
        "config": resolved,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    np.save(out_dir / "final_policy.npy", log.final_policy.logits)
    return summary


def _numbers(text: str) -> list[float]:
    """The numbers of a comma- or space-separated list (ValueError on a bad one)."""
    return [float(tok) for tok in text.replace(",", " ").split()]


def cmd_mean(args) -> int:
    try:
        text = Path(args.ratios_file).read_text() if args.ratios_file else args.ratios
        if text is None:
            raise ConfigError("provide --ratios or --ratios-file")
        ratios = RatioSequence(np.array(_numbers(text)))
        exponents = _numbers(args.p)
        if not exponents:
            raise ConfigError("--p must name at least one exponent")
        # an overflowing p * log r is reported as the kernel's DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            rho, weights = holder_grid(ratios.log_ratios, HolderOrder(np.array(exponents)))
    except (ValueError, DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    entropy, concentration = concentration_rows(weights)
    out = [
        {"p": p, "rho": row_rho, "weights": w, "entropy": h, "hhi": c}
        for p, row_rho, w, h, c in zip(exponents, rho.tolist(), weights.tolist(),
                                       entropy.tolist(), concentration.tolist())
    ]
    print(json.dumps(out[0] if len(out) == 1 else out, indent=2))
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        task, config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        log = train(config, task)
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    summary = write_run(Path(args.out_dir), task, config, log)
    print(json.dumps({k: summary[k] for k in
                      ("final_success", "final_p", "updates", "wall_time_s")}))
    return EXIT_OK


def cmd_sweep(args) -> int:
    import statistics

    try:
        task, config = load_config(args.config)
        p_list = _numbers(args.p_list)
        if not p_list:
            raise ConfigError("--p-list must name at least one exponent")
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
        horizon = max(1, config.total_updates - 1)
        specs = [ScheduleSpec.constant(p, horizon) for p in p_list]
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.include_schedule:
        specs.append(config.schedule)
    runs = [
        replace(config, schedule=spec, seed=seed)
        for spec in specs
        for seed in range(args.seeds)
    ]

    # write_run makes the directory, so a diverged sweep leaves none behind
    out_dir = Path(args.out_dir)
    try:
        logs = train_many(runs, task)
    except DivergenceError as exc:
        print(f"divergence abort: {exc}", file=sys.stderr)
        return EXIT_DIVERGED

    rows = []
    by_label: dict[str, list[float]] = {}
    for run_config, log in zip(runs, logs):
        label, seed = run_config.schedule.label(), run_config.seed
        write_run(out_dir / label / f"seed{seed}", task, run_config, log)
        rows.append([label, seed, log.final_success])
        by_label.setdefault(label, []).append(log.final_success)
    stamp = _stamp(_digest(resolved_config_dict(task, config)))
    (out_dir / "comparison.csv").write_text(
        stamp + table_to_csv(("label", "seed", "final_success"), rows)
    )
    median_rows = [
        [label, statistics.median(vals)] for label, vals in by_label.items()
    ]
    (out_dir / "medians.csv").write_text(
        stamp + table_to_csv(("label", "median_final_success"), median_rows)
    )
    print(table_to_csv(("label", "median_final_success"), median_rows), end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    only = [tok for chunk in args.only for tok in chunk.split(",") if tok] if args.only else None
    json_out = Path(args.json_out) if args.json_out else None
    if json_out is not None and not json_out.parent.is_dir():  # fail before any check runs
        print(f"error: cannot write {json_out}: no directory {json_out.parent}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        report = check_all(seed=args.seed, instance_count=args.instances, only=only)
    except (KeyError, ValueError) as exc:  # check_all's argument errors
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    print(report.to_text())
    if json_out is not None:
        json_out.write_text(report.to_json() + "\n")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    import argparse

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
    try:
        return args.func(args)
    except OSError as exc:  # a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
