#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of this repository.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W[,W2,...] \
        --pairs 10 --seconds S --seed0 N

Runs ``bench/run.py --workload W --seconds S --seed N + i`` once in each
checkout for pair i, in alternating order (the parent first in even pairs,
the change first in odd ones), so a drift in machine speed falls on both
sides alike.  Given a comma-separated list of workloads, pair i runs every
listed workload in turn before pair i + 1 starts, so all of them share one
alternating schedule.  Each pair's line shows both runs' ``correct`` (every
job ran and matched its reference) and their metrics.  Place the two
checkouts side by side, e.g. as two sibling directories made by ``git
archive REV | tar -x -C DIR``: peak_rss_mb and setup_s move with the
checkout's directory as well as with its code.

For each workload, and every end-to-end metric of ``BENCHMARK.json``, it
prints each side's median and quartiles, the pairs the change won, and
whether the change is worse than the parent by more than the metric's bound.
It then says whether a gain holds: the change better in at least nine tenths
of the pairs, its median better than the parent's by more than the parent's
interquartile range, no larger a share of its jobs failed, and every run of
that workload on both sides correct.  Exit code 1 if a run printed no result
or any run of any workload on either side was not correct: a gain of
incorrect code shows nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result line of one ``bench/run.py`` run in `checkout`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: {checkout} printed no result for {workload} "
                         f"seed {seed}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def gain_holds(parent: list[float], change: list[float], lower_is_better: bool) -> tuple[int, bool]:
    """(pairs won, whether the gain rule holds): the change better in at
    least 9 of 10 pairs, and its median better by more than the parent's IQR."""
    sign = 1.0 if lower_is_better else -1.0
    won = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = sign * (median - statistics.median(change))
    return won, won >= math.ceil(0.9 * len(parent)) and gap > q3 - q1


class Tally:
    """One workload's metric values, failed jobs and incorrect runs per side."""

    def __init__(self, declared: list[dict]):
        self.values = {side: {m["name"]: [] for m in declared} for side in SIDES}
        self.failed = {side: [0, 0] for side in SIDES}  # failed, attempted
        self.incorrect = {side: 0 for side in SIDES}

    def add(self, side: str, result: dict) -> bool:
        """Record one run's result line; whether it was correct."""
        for name, values in self.values[side].items():
            values.append(result["metrics"][name]["value"])
        self.failed[side][0] += result["failed"]
        self.failed[side][1] += result["attempted"]
        correct = result["correct"] is True
        self.incorrect[side] += not correct
        return correct


def report(workload: str, tally: Tally, declared: list[dict], args) -> None:
    print(f"\n{workload}: {args.pairs} pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}, --seconds {args.seconds:g}")
    shares = {side: bad / total for side, (bad, total) in tally.failed.items()}
    for side in SIDES:
        print(f"  {side} failed jobs: {tally.failed[side][0]}/{tally.failed[side][1]}, "
              f"runs not correct: {tally.incorrect[side]}/{args.pairs}")
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        parent, change = tally.values["parent"][name], tally.values["change"][name]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        won, holds = gain_holds(parent, change, lower)
        holds = (holds and shares["change"] <= shares["parent"]
                 and not any(tally.incorrect.values()))
        worse = (cm - pm if lower else pm - cm) / pm
        print(f"  {name} ({m['unit']}, {m['better']} is better)\n"
              f"    parent median {pm:.6g}  quartiles {p1:.6g}..{p3:.6g}  IQR {p3 - p1:.4g}\n"
              f"    change median {cm:.6g}  quartiles {c1:.6g}..{c3:.6g}  "
              f"({(cm - pm) / pm:+.1%})\n"
              f"    change better in {won}/{args.pairs} pairs; gain rule "
              f"{'holds' if holds else 'does not hold'}; "
              f"{'within' if worse <= m['bound'] else 'OUTSIDE'} the {m['bound']:g} bound")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma-separated list of them")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = list(dict.fromkeys(w for w in args.workload.split(",") if w))
    if not workloads:
        parser.error("--workload must name at least one workload")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "bench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no bench/run.py")
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    tallies = {workload: Tally(declared) for workload in workloads}
    for i in range(args.pairs):
        seed = args.seed0 + i
        for workload, tally in tallies.items():
            correct = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run_bench(checkouts[side], workload, args.seconds, seed)
                correct[side] = tally.add(side, result)
            print(f"pair {i + 1}/{args.pairs} {workload} (seed {seed}): correct "
                  f"{correct['parent']} -> {correct['change']}, " + ", ".join(
                f"{m['name']} {tally.values['parent'][m['name']][-1]:.4g} -> "
                f"{tally.values['change'][m['name']][-1]:.4g}" for m in declared), flush=True)

    for workload, tally in tallies.items():
        report(workload, tally, declared, args)
    if any(any(tally.incorrect.values()) for tally in tallies.values()):
        print("bench_pairs: a run was not correct; its metrics do not count", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
