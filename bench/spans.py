"""In-memory span recorder for the traced benchmark run.

Spans are taken from outside the package: while a traced job runs, every
binding of a traced function in the ``holderpo`` modules (the defining module
and each module that imported it by name) is replaced by a wrapper that
records one span per call.  A span holds its name, start, end, parent span and
job id.  A layer's self time is its spans' duration minus the time covered by
their child spans.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from holderpo import analysis, cli, core, objectives, schedule, sim, verify

# Span name -> functions recorded under it (module, attribute).
FUNCTION_SPANS = {
    "sim.train": [(sim, "train")],
    "sim.sample_group": [(sim, "sample_group")],
    "sim.refresh_logprobs": [(sim, "refresh_logprobs")],
    "sim.success_probability": [(sim, "success_probability")],
    "objectives.estimator": [(objectives, "grad_estimator_unclipped"),
                             (objectives, "grad_estimator_seq_clip"),
                             (objectives, "grad_estimator_token_clip")],
    "objectives.surrogate": [(objectives, "surrogate_unclipped"),
                             (objectives, "surrogate_seq_clip"),
                             (objectives, "surrogate_token_clip")],
    "objectives.grad_rho": [(objectives, "grad_rho")],
    "objectives.variance_bound_term": [(objectives, "variance_bound_term")],
    "core.holder_mean": [(core, "holder_mean")],
    "core.holder_mean_masked": [(core, "holder_mean_masked")],
    "core.gradient_weights": [(core, "gradient_weights")],
    "analysis.ratio_envelopes": [(analysis, "ratio_envelopes")],
    "schedule.p_at": [(schedule, "p_at")],
    "cli.main": [(cli, "main")],
    "cli.load_config": [(cli, "load_config")],
    "cli.write_run": [(cli, "write_run")],
}
SCORE_GRADIENTS = "sim.PolicyParams.score_gradients"
# Layers called often enough per job to report call-duration percentiles.
PERCENTILE_SPANS = (
    "sim.sample_group", "sim.refresh_logprobs", SCORE_GRADIENTS,
    "objectives.estimator", "objectives.surrogate", "objectives.grad_rho",
    "objectives.variance_bound_term", "core.holder_mean",
    "core.holder_mean_masked", "core.gradient_weights",
    "analysis.ratio_envelopes", "schedule.p_at",
)
# A percentile is reported only with at least this many calls beyond it.
TAIL_SAMPLES = 10


def _estimator_before(counts, args):
    minibatch = args[0]
    counts["estimator_calls"] += 1
    counts["rollouts_estimated"] += sum(b.group_size for b in minibatch)
    counts["rollouts_useful"] += sum(int(np.count_nonzero(b.advantages))
                                     for b in minibatch)


def _estimator_after(counts, args, result):
    counts["clip_fraction_sum"] += result.clip_fraction


def _score_gradients_before(counts, args):
    policy = args[0]
    # Size of the dense (T, T*V) float64 matrix the call builds.
    counts["score_gradient_bytes"] += policy.length * policy.param_dim * 8


def _write_run_after(counts, args, result):
    counts["write_run_bytes"] += sum(
        f.stat().st_size for f in args[0].rglob("*") if f.is_file())


HOOKS = {
    "objectives.estimator": (_estimator_before, _estimator_after),
    SCORE_GRADIENTS: (_score_gradients_before, None),
    "cli.write_run": (None, _write_run_after),
}


class SpanRecorder:
    """Spans and counters of the traced jobs, kept in memory until the run
    ends."""

    def __init__(self):
        self.names = [*FUNCTION_SPANS, SCORE_GRADIENTS,
                      *(f"verify.{name}" for name in verify.CHECKS)]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.job_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack: list[int] = []
        self._job = -1
        self.counts: dict[int, dict] = {}
        self._counts: dict = {}

    def _wrap(self, name, fn, before=None, after=None):
        nid = self._ids[name]
        names, parents, jobs = self.name_col, self.parent_col, self.job_col
        starts, ends, stack = self.start_col, self.end_col, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self._counts, args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self._job)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            # Bookkeeping stays outside [t0, end] so the span times the call.
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(self._counts, args, result)
            return result

        return wrapper

    def _counting_post_init(self, fn):
        def wrapper(obj):
            self._counts["sequence_objects"] += 1
            fn(obj)

        return wrapper

    @contextmanager
    def job(self, job_id: int):
        """Trace every call made inside the block as part of `job_id`."""
        self._job = job_id
        self._counts = self.counts[job_id] = defaultdict(float)
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "holderpo"
                                         or name.startswith("holderpo."))]
        restore = []

        def patch(owner, attr, value):
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for name, targets in FUNCTION_SPANS.items():
            before, after = HOOKS.get(name, (None, None))
            for module, attr in targets:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, before, after)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, key, wrapper)
        before, after = HOOKS[SCORE_GRADIENTS]
        patch(sim.PolicyParams, "score_gradients",
              self._wrap(SCORE_GRADIENTS, sim.PolicyParams.score_gradients,
                         before, after))
        for cls in (core.RatioSequence, core.LogRatioSequence):
            patch(cls, "__post_init__", self._counting_post_init(cls.__post_init__))
        checks = dict(verify.CHECKS)
        verify.CHECKS.update({check: self._wrap(f"verify.{check}", fn)
                              for check, fn in checks.items()})
        try:
            yield
        finally:
            verify.CHECKS.update(checks)
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)
            self._job = -1
            self._counts = {}

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": np.frombuffer(self.parent_col, dtype=np.int64),
            "job": np.frombuffer(self.job_col, dtype=np.int32),
            "start_ns": np.frombuffer(self.start_col, dtype=np.int64),
            "end_ns": np.frombuffer(self.end_col, dtype=np.int64),
        }

    def per_layer(self, job_ids: list[int]) -> tuple[dict, list[str]]:
        """Per-layer metrics over the given jobs, which must share inputs, and
        the problems found (counts that differ between those jobs)."""
        cols = self.arrays()
        dur = cols["end_ns"] - cols["start_ns"]
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child
        in_jobs = np.isin(cols["job"], job_ids)
        problems: list[str] = []
        metrics: dict[str, tuple[float, str]] = {}

        def exact(label: str, per_job: list) -> float:
            if len(set(per_job)) > 1:
                problems.append(f"{label} differs between traced jobs: {per_job}")
            return per_job[0]

        for nid, name in enumerate(self.names):
            sel = in_jobs & (cols["name"] == nid)
            jobs = cols["job"][sel]
            calls = exact(f"{name}.calls",
                          [int(np.count_nonzero(jobs == j)) for j in job_ids])
            self_s = float(np.median(
                [self_ns[sel][jobs == j].sum() for j in job_ids])) / 1e9
            if name.startswith("verify."):
                metrics[f"{name}.self_s"] = (self_s, "s")
                continue
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
            if name in PERCENTILE_SPANS:
                us = dur[sel] / 1e3
                for q in (50, 99):
                    enough = us.size * (100 - q) / 100 >= TAIL_SAMPLES
                    value = float(np.percentile(us, q)) if enough else 0.0
                    metrics[f"{name}.p{q}_us"] = (value, "us")

        counts = {key: exact(key, [self.counts[j].get(key, 0.0) for j in job_ids])
                  for key in ("estimator_calls", "rollouts_estimated",
                              "rollouts_useful", "clip_fraction_sum",
                              "sequence_objects", "score_gradient_bytes")}
        estimated = counts["rollouts_estimated"]
        metrics["sim.score_gradients.bytes_computed"] = (
            counts["score_gradient_bytes"], "B")
        metrics["core.sequence_objects_per_rollout_update"] = (
            counts["sequence_objects"] / estimated if estimated else 0.0, "count")
        metrics["objectives.useful_rollout_share"] = (
            counts["rollouts_useful"] / estimated if estimated else 0.0, "ratio")
        metrics["objectives.gated_share"] = (
            counts["clip_fraction_sum"] / counts["estimator_calls"]
            if counts["estimator_calls"] else 0.0, "ratio")
        metrics["cli.write_run.bytes"] = (float(np.median(
            [self.counts[j].get("write_run_bytes", 0.0) for j in job_ids])), "B")
        return metrics, problems
