#!/usr/bin/env python3
"""Benchmark for holderpo.

Run one workload (the last line of stdout is the JSON result):

    python3 bench/run.py --workload train-default-sparse --seed 3 --seconds 30 --trace 0

or every workload, one after another, with a table of all metrics:

    python3 bench/run.py --workload all

The load is a closed loop: one process and one thread run one job after
another.  A run alternates a job on the golden inputs (package seed 0, checked
against ``bench/golden``) with a job on held-out inputs made from ``--seed``
(no golden; every held-out job must equal the first one bit for bit).  It
starts a job only while it is expected to end within ``--seconds``, and runs
at least two of each kind.  The process is pinned to one CPU, and times are
scaled to a fixed reference speed by a probe that samples the CPU's speed
while the jobs run (see ``speed.py``); the times as measured are printed too.
``--trace 1`` runs every job twice, untraced and then traced, and reports
per-layer metrics from the traced golden jobs (see ``spans.py``).

Exit codes: 0 correct, 1 some job failed or missed its reference, 2 the
package source is missing or the arguments are invalid.
"""

from __future__ import annotations

import os

# One thread per process for the closed loop; set before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
INHERITED_ENV = {var: os.environ.get(var) for var in (*BLAS_THREAD_VARS,
                                                      "HOLDERPO_THREADS")}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ["HOLDERPO_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Untraced and traced runs need this many jobs of each kind (golden and
# held-out): two held-out jobs to compare, or one untraced/traced pair.
MIN_RUNS = {False: 2, True: 1}
DEFAULT_SECONDS = 30


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "holderpo" / "__init__.py").is_file():
        _fail(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import holderpo

    if SRC not in Path(holderpo.__file__).resolve().parents:
        _fail(f"imported holderpo from {holderpo.__file__}, not from {SRC}")
    return holderpo


def environment(numpy_version: str, load_start: tuple) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_vars_inherited": INHERITED_ENV,
        "thread_vars_used": {var: os.environ[var]
                             for var in (*BLAS_THREAD_VARS, "HOLDERPO_THREADS")},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Start and end (``time.perf_counter``) of a fresh interpreter that
    imports holderpo and builds the workload's inputs."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            f"import pathlib, workloads; workloads.build({workload!r}, {seed}, "
            f"pathlib.Path({str(workdir)!r}))")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return t0, time.perf_counter()


class Run:
    """Jobs of one benchmark run and their checks."""

    def __init__(self, workloads, golden_inputs, held_inputs, recorder,
                 time_setup, probe):
        self.wl = workloads
        self.golden_inputs = golden_inputs
        self.held_inputs = held_inputs
        self.golden = workloads.load_golden(golden_inputs.workload)
        self.recorder = recorder
        self.reference = None  # first held-out output
        # One dict per job: id, kind, traced, wall, cpu (of which sys), minor
        # page faults, scale, ok; `scale` turns the job's times into times at
        # the probe's reference speed.
        self.jobs = []
        # Called after every job step, so set-up is sampled across the run.
        self.time_setup = time_setup
        self.setup_times: list[tuple[float, float]] = []  # (wall, scale)
        self.probe = probe

    def check(self, kind: str, inputs, output: dict) -> list[str]:
        if kind == "golden":
            return self.wl.compare_golden(inputs.workload, self.golden, output)
        if self.reference is None:
            self.reference = output
            return self.wl.sanity_problems(inputs, output)
        if output != self.reference:
            return ["held-out output differs from the first held-out job"]
        return []

    def run_job(self, kind: str, traced: bool) -> None:
        inputs = self.golden_inputs if kind == "golden" else self.held_inputs
        job_id = len(self.jobs)
        problems: list[str] = []
        tracing = self.recorder.job(job_id) if traced else contextlib.nullcontext()
        # The job's own thread: the speed probe's thread is not counted.
        r0 = resource.getrusage(resource.RUSAGE_THREAD)
        t0 = time.perf_counter()
        try:
            with tracing:
                result = inputs.job()
        except Exception as exc:  # a failed job is data: it counts in `failed`
            problems.append(f"raised {exc!r}")
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_THREAD)
        wall = t1 - t0
        sys_s = r1.ru_stime - r0.ru_stime
        cpu = r1.ru_utime - r0.ru_utime + sys_s
        scale = self.probe.scale(t0, t1) if self.probe is not None else 1.0
        if not problems:
            try:
                problems = self.check(kind, inputs, inputs.reduce(result))
            except Exception as exc:  # unreadable output also counts as failed
                problems.append(f"output unreadable: {exc!r}")
        for problem in problems:
            print(f"bench: job {job_id} ({kind}, traced={traced}): {problem}",
                  file=sys.stderr)
        self.jobs.append({"id": job_id, "kind": kind, "traced": traced,
                          "wall": wall, "cpu": cpu, "sys": sys_s,
                          "minflt": r1.ru_minflt - r0.ru_minflt, "scale": scale,
                          "ok": not problems})

    def loop(self, seconds: float, trace: bool) -> None:
        """Alternate golden and held-out jobs (each followed by its traced
        twin when tracing) while the next one is expected to end within
        `seconds`, and until each kind has run MIN_RUNS times."""
        start = time.perf_counter()
        for step in itertools.count():
            step_start = time.perf_counter()
            kind = ("golden", "held-out")[step % 2]
            for traced in (False, True) if trace else (False,):
                gc.collect()
                self.run_job(kind, traced)
            if self.time_setup is not None:
                t0, t1 = self.time_setup()
                self.setup_times.append((t1 - t0, self.probe.scale(t0, t1)))
            now = time.perf_counter()
            if (step + 1 >= 2 * MIN_RUNS[trace]
                    and now - start + (now - step_start) > seconds):
                break


def end_to_end(run: Run) -> tuple[dict, dict]:
    """End-to-end metrics with times at the reference speed, and the median
    times as measured."""
    untraced = [j for j in run.jobs if not j["traced"]]
    metrics = {
        "job_s": (statistics.median(j["wall"] * j["scale"] for j in untraced), "s"),
        "job_cpu_s": (statistics.median(j["cpu"] * j["scale"] for j in untraced),
                      "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(w * f for w, f in run.setup_times), "s"),
    }
    measured = {
        "job_s": (statistics.median(j["wall"] for j in untraced), "s"),
        "job_cpu_s": (statistics.median(j["cpu"] for j in untraced), "s"),
        "setup_s": (statistics.median(w for w, _ in run.setup_times), "s"),
        "probe_unit_us": (run.probe.unit_ns(0.0, time.perf_counter())[0] / 1e3,
                          "us"),
    }
    return metrics, measured


def per_layer(run: Run) -> dict:
    """Per-layer metrics from the traced golden jobs, whose exact counts must
    agree; a disagreement fails those jobs."""
    golden_traced = [j for j in run.jobs if j["traced"] and j["kind"] == "golden"]
    metrics, problems = run.recorder.per_layer([j["id"] for j in golden_traced])
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
        for j in golden_traced:
            j["ok"] = False
    # Each traced job directly follows its untraced twin on the same inputs;
    # comparing neighbours keeps machine-speed drift out of the ratio.
    ratios = [j["wall"] / run.jobs[j["id"] - 1]["wall"]
              for j in run.jobs if j["traced"]]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    return metrics


def write_trace(run: Run, workload: str, seed: int, metrics: dict,
                env: dict) -> Path:
    """Write the spans and the per-layer summary when the run ends."""
    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{workload}-seed{seed}"
    np.savez_compressed(stem.with_suffix(".npz"), span_names=np.array(
        run.recorder.names), **run.recorder.arrays())
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": workload, "seed": seed, "environment": env,
        "jobs": run.jobs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=1) + "\n")
    return stem


def print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load_start = os.getloadavg()
    cpu = speed.pin_to_one_cpu()
    holderpo = import_package()
    import numpy as np
    import workloads

    if workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{workload}-{os.getpid()}"
    try:
        golden_inputs, held_inputs = workloads.build(workload, seed, workdir)
        recorder = setup = probe = None
        if trace:
            import spans

            recorder = spans.SpanRecorder()
        else:
            setup = functools.partial(time_setup, workload, seed, workdir)
            probe = speed.SpeedProbe()
        run = Run(workloads, golden_inputs, held_inputs, recorder, setup, probe)
        with probe or contextlib.nullcontext():
            run.loop(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np.__version__, load_start)
    env["pinned_cpu"] = cpu
    print(json.dumps({"workload": workload, "why": workloads.WORKLOADS[workload],
                      "seed": seed, "held_out_package_seed": held_inputs.seed,
                      "holderpo": holderpo.__version__, "environment": env}))
    print(json.dumps({"jobs": run.jobs}))
    untraced = sum(not j["traced"] for j in run.jobs)
    if trace:
        metrics = per_layer(run)
        stem = write_trace(run, workload, seed, metrics, env)
        print(f"spans and per-layer summary written to {stem}.npz / .json")
    else:
        metrics, measured = end_to_end(run)
        print_table(f"as measured, before scaling to the probe's reference "
                    f"speed of {speed.REFERENCE_NS / 1e3:g} us per unit", measured)
        median_job = metrics["job_s"][0]
        if golden_inputs.updates:
            print_table(f"throughput at {golden_inputs.updates} updates and "
                        f"{golden_inputs.rollouts} rollouts per job, at the "
                        f"reference speed", {
                            "updates_per_s": (golden_inputs.updates / median_job,
                                              "1/s"),
                            "rollouts_per_s": (golden_inputs.rollouts / median_job,
                                               "1/s"),
                        })
    attempted = len(run.jobs)
    failed = sum(not j["ok"] for j in run.jobs)
    print_table(f"{workload}: {untraced} untraced jobs, "
                f"{attempted - untraced} traced, {failed} failed "
                f"(error_rate {failed / attempted:.3g})", metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    import workloads

    combined, attempted, failed, code = {}, 0, 0, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {workload} printed no result", file=sys.stderr)
            code = max(code, 1)
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            combined[f"{workload}.{name}"] = (m["value"], m["unit"])
        combined[f"{workload}.error_rate"] = (
            result["failed"] / result["attempted"], "ratio")
    print_table("all workloads", combined)
    print(json.dumps({
        "correct": failed == 0 and code == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in combined.items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.workload == "all":
        import_package()
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
