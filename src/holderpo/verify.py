"""Executable checks for every theorem, lemma, and identity the library
relies on.  Each check runs over randomized instances, reports its worst
observed error, and never raises on failure: the report carries the
verdicts.  Deterministic given (seed, instance_count)."""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from holderpo import core
from holderpo.core import (
    HolderOrder,
    RatioSequence,
    WeightDistribution,
    entropy_p_derivative,
    gradient_weights,
    hhi,
    holder_grid,
    holder_mean,
    holder_mean_masked,
    limit_weights,
    mu_p_derivative,
    shannon_entropy,
    weight_p_derivative,
)
from holderpo.objectives import (
    ClipConfig,
    GroupBatch,
    RolloutBatch,
    RolloutRecord,
    batch_terms,
    grad_estimator_seq_clip,
    grad_estimator_token_clip,
    grad_estimator_unclipped,
    grad_rho,
    second_moment_orthogonal,
    variance_bound_term,
)
from holderpo.sim import PolicyParams

P_GRID = (-5.0, -3.0, -2.0, -1.0, -0.5, -1e-7, 0.0, 1e-7, 0.5, 1.0, 2.0, 3.0, 5.0)
LIMIT_P = 40.0
STRICT_SLACK = 1e-12
FD_STEP = 1e-5
# The p-derivative checks use a five-point stencil: its O(h^4) truncation
# error allows a step large enough that rounding stays well below FD_RTOL.
P_FD_STEP = 3e-3
# Exponent offsets of that stencil, in the order _stencil reads them.
P_FD_STENCIL = np.array([P_FD_STEP, -P_FD_STEP, 2.0 * P_FD_STEP, -2.0 * P_FD_STEP])
FD_RTOL = 1e-6
POLICY_FD_RTOL = 1e-4
KINK_MARGIN = 1e-3


@dataclass
class CheckResult:
    name: str
    claim: str
    status: str = "pass"  # pass | fail | skip
    worst_error: float = 0.0
    detail: str = ""

    def observe(self, error: float, ok: bool, detail: str = "") -> None:
        if error > self.worst_error:
            self.worst_error = error
        if not ok and self.status != "fail":
            self.status = "fail"
            self.detail = detail

    def skip(self, reason: str) -> None:
        if self.status == "pass" and self.worst_error == 0.0:
            self.status = "skip"
            self.detail = reason

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Report:
    seed: int
    instance_count: int
    results: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "instance_count": self.instance_count,
                "all_passed": self.all_passed,
                "checks": [r.to_dict() for r in self.results],
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            line = f"[{r.status.upper():4s}] {r.name}  (worst error {r.worst_error:.3e})"
            if r.detail:
                line += f"  -- {r.detail}"
            lines.append(line)
        verdict = "ALL CHECKS PASSED" if self.all_passed else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines)


def _random_ratios(rng, n_min=2, n_max=64) -> RatioSequence:
    n = int(rng.integers(n_min, n_max + 1))
    return RatioSequence(np.exp(rng.uniform(-2.0, 2.0, n)))


def _stencil(values) -> float:
    """Five-point central difference from f at p + P_FD_STENCIL, with O(h^4)
    truncation error."""
    f_h, f_minus_h, f_2h, f_minus_2h = values
    return (8.0 * (f_h - f_minus_h) - (f_2h - f_minus_2h)) / (12.0 * P_FD_STEP)


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale


def _observe_rising(res: CheckResult, values, detail: str) -> None:
    """Observe that values strictly increase along their grid, within
    STRICT_SLACK; pass the negated values to observe a strict fall."""
    diffs = np.diff(values)
    res.observe(max(0.0, float(-diffs.min())), bool(np.all(diffs > -STRICT_SLACK)), detail)


# ----------------------------------------------------------------------
# holder_core checks
# ----------------------------------------------------------------------


def _grid_check(
    name: str,
    claim: str,
    grid,
    judge: Callable,
    usable: Callable[[RatioSequence], bool] | None = None,
    skip_reason: str = "",
) -> Callable[..., CheckResult]:
    """A check that draws one ratio sequence r per instance, passes over those
    ``usable`` rejects, and calls ``judge(res, r, grid, rho, weights)`` with rho
    and W of r at every exponent of ``grid``, one row each, from one
    holder_grid call."""
    order = HolderOrder(np.asarray(grid, dtype=np.float64))

    def check(rng, instances) -> CheckResult:
        res = CheckResult(name, claim)
        tested = 0
        for _ in range(instances):
            r = _random_ratios(rng)
            if usable is None or usable(r):
                tested += 1
                judge(res, r, grid, *holder_grid(r.log_ratios, order))
        if usable is not None and tested == 0:
            res.skip(skip_reason)
        return res

    return check


def _stencil_check(
    name: str, claim: str, derivative: Callable, nonnegative: bool = False
) -> Callable[..., CheckResult]:
    """A check that draws a ratio sequence r and an exponent p in [-5, 5] per
    instance.  ``derivative(rng, r, order)`` returns the analytic d/dp at p
    and the function of one weight row it differentiates; that function is
    differenced on the five-point stencil from one holder_grid call.
    ``nonnegative`` also requires the derivative >= 0."""

    def check(rng, instances) -> CheckResult:
        res = CheckResult(name, claim)
        for _ in range(instances):
            r = _random_ratios(rng)
            p = float(rng.uniform(-5.0, 5.0))
            analytic, of_weights = derivative(rng, r, HolderOrder(p))
            if nonnegative:
                res.observe(max(0.0, -analytic), analytic >= 0.0, "negative variance")
            _, weights = holder_grid(r.log_ratios, HolderOrder(p + P_FD_STENCIL))
            fd = _stencil([of_weights(w) for w in weights])
            err = _rel_err(analytic, fd)
            res.observe(err, err <= FD_RTOL, f"analytic {analytic}, fd {fd}")
        return res

    return check


def _non_uniform(gap: float) -> Callable[[RatioSequence], bool]:
    return lambda r: np.ptp(r.log_ratios) >= gap


def _judge_special_means(res, r, grid, rho, weights) -> None:
    x = r.ratios
    wants = (x.mean(), np.exp(np.log(x).mean()), 1.0 / (1.0 / x).mean())
    for got, want in zip(rho.tolist(), wants):
        err = _rel_err(got, want)
        res.observe(err, err <= 1e-12, f"got {got}, want {want}")


def _judge_geometric_limit(res, r, grid, rho, weights) -> None:
    geo = float(np.exp(np.log(r.ratios).mean()))
    for p, got in zip(grid, rho.tolist()):
        err = _rel_err(got, geo)
        res.observe(err, err <= 1e-5, f"gap {err:.2e} at p={p}")


def _judge_normalized(res, r, grid, rho, weights) -> None:
    for p, s in zip(grid, weights.sum(axis=1)):
        err = abs(s - 1.0)
        res.observe(err, err <= 1e-10, f"sum {s} at p={p}")


def _judge_derivative_sum(res, r, grid, rho, weights) -> None:
    logs = r.log_ratios
    for p, w in zip(grid, weights):
        # dW_t/dp = W_t (log r_t - mu), as weight_p_derivative gives it
        total = float((w * (logs - float(w @ logs))).sum())
        err = abs(total)
        res.observe(err, err <= 1e-10, f"sum {total} at p={p}")


def _judge_entropy_peak(res, r, grid, rho, weights) -> None:
    entropies = np.array(
        [shannon_entropy(WeightDistribution(w)) for w in weights]
    ).reshape(2, -1)
    err = abs(entropies[0, 0] - math.log(len(r)))
    res.observe(err, err <= 1e-12, "entropy at p=0 is not ln n")
    for sign, vals in zip((1.0, -1.0), entropies):
        _observe_rising(res, -vals, f"entropy not decreasing in |p| (sign {sign:+.0f})")


def _extremes_separated(r: RatioSequence) -> bool:
    logs = np.sort(r.log_ratios)
    return logs[-1] - logs[-2] >= 0.5 and logs[1] - logs[0] >= 0.5


def _judge_limit_concentration(res, r, grid, rho, weights) -> None:
    for p, w in zip(grid, weights):
        lim = limit_weights(r, 1 if p > 0.0 else -1).weights
        mass = float(w[lim > 0.0].sum())
        err = max(0.0, 0.999 - mass)
        res.observe(err, mass >= 0.999, f"mass {mass} at p={p}")


def _judge_hhi_profile(res, r, grid, rho, weights) -> None:
    h0, *grid_hhi = (hhi(WeightDistribution(w)) for w in weights)
    err = abs(h0 - 1.0 / len(r))
    res.observe(err, err <= 1e-12, "HHI at p=0 is not 1/n")
    for p, h in zip(grid[1:], grid_hhi):
        err = max(0.0, h0 - h - 1e-15)
        res.observe(err, h >= h0 - 1e-15, f"HHI below uniform at p={p}")


check_special_case_means = _grid_check(
    "special_case_means",
    "p = 1, 0, -1 recover the arithmetic, geometric, harmonic means",
    (1.0, 0.0, -1.0),
    _judge_special_means,
)
check_geometric_limit = _grid_check(
    "geometric_limit",
    "the mean at p = +-1e-7 is within rel. 1e-5 of the geometric mean",
    (1e-7, -1e-7),
    _judge_geometric_limit,
)
check_mean_monotone = _grid_check(
    "mean_monotone_in_p",
    "the power mean strictly increases in p for non-uniform ratios",
    P_GRID,
    lambda res, r, grid, rho, weights: _observe_rising(res, rho, "non-increasing step"),
    usable=_non_uniform(1e-9),
    skip_reason="all instances degenerate (uniform ratios)",
)
check_weights_normalized = _grid_check(
    "weights_normalized",
    "gradient weights sum to 1 within 1e-10",
    P_GRID + (LIMIT_P, -LIMIT_P),
    _judge_normalized,
)
check_weight_derivative_sum_zero = _grid_check(
    "weight_derivative_sum_zero",
    "per-token weight p-derivatives sum to zero (normalization preserved)",
    (-3.0, -1.0, 0.0, 1.0, 3.0),
    _judge_derivative_sum,
)
_ENTROPY_P = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
check_entropy_peak = _grid_check(
    "entropy_peak_at_zero",
    "weight entropy peaks at p = 0 with value ln n and strictly "
    "decreases in |p| for non-uniform ratios",
    np.concatenate([_ENTROPY_P, -_ENTROPY_P]),
    _judge_entropy_peak,
    usable=_non_uniform(1e-6),
    skip_reason="all instances degenerate (uniform ratios)",
)
check_limit_concentration = _grid_check(
    "limit_concentration",
    "at p = +-40 with a log-gap >= 0.5, mass >= 0.999 sits on the "
    "argmax/argmin set, whose limit is limit_weights",
    (LIMIT_P, -LIMIT_P),
    _judge_limit_concentration,
    usable=_extremes_separated,
    skip_reason="no instance with a 0.5 log-gap at both extremes",
)
check_hhi_profile = _grid_check(
    "hhi_profile",
    "HHI is minimized at p = 0 (value 1/n) and approaches 1 at p = +-40",
    (0.0,) + P_GRID,
    _judge_hhi_profile,
)


def check_weight_derivative_fd(
    rng,
    instances,
    derivative_fn: Callable[[RatioSequence, HolderOrder, int], float] = weight_p_derivative,
) -> CheckResult:
    """The derivative_fn hook lets the test suite verify this check rejects
    a corrupted formula."""

    def token_weight(rng, r, order):
        t = int(rng.integers(0, len(r)))
        return derivative_fn(r, order, t), lambda w: w[t]

    return _stencil_check(
        "weight_derivative_vs_fd",
        "dW/dp = W (log r - mu) matches central finite differences",
        token_weight,
    )(rng, instances)


check_mu_derivative = _stencil_check(
    "mu_derivative_vs_fd",
    "dmu/dp equals the weighted log-ratio variance, and is >= 0",
    lambda rng, r, order: (mu_p_derivative(r, order), lambda w: float(w @ r.log_ratios)),
    nonnegative=True,
)
check_entropy_derivative_fd = _stencil_check(
    "entropy_derivative_vs_fd",
    "dH/dp = -p Var_W(log r) matches central finite differences",
    lambda rng, r, order: (
        entropy_p_derivative(r, order),
        lambda w: shannon_entropy(WeightDistribution(w)),
    ),
)


def check_weight_rise_fall(rng, instances) -> CheckResult:
    res = CheckResult(
        "weight_rise_then_fall",
        "a non-maximal token's weight rises then strictly falls once the "
        "weighted log mean crosses its log-ratio; crossing bracketed by "
        "bisection",
    )
    drawn = []  # (ratios, interior token t, log r_t) per tested instance, in order
    for _ in range(instances):
        n = int(rng.integers(3, 16))
        logs = np.sort(rng.uniform(-2.0, 2.0, n))
        if logs[-1] - logs[-2] < 0.05 or logs[1] - logs[0] < 0.05:
            continue
        t = int(rng.integers(1, n - 1))  # strictly interior log-ratio
        if logs[t] - logs[0] < 0.05 or logs[-1] - logs[t] < 0.05:
            continue
        drawn.append((RatioSequence(np.exp(logs)), t, logs[t]))
    if not drawn:
        res.skip("no usable interior-token instance drawn")
        return res

    # Bisect every instance's crossing at once: one row and one p per instance.
    width = max(len(r) for r, _, _ in drawn)
    logs = np.zeros((len(drawn), width))
    mask = np.zeros(logs.shape, dtype=bool)
    for row, (r, _, _) in enumerate(drawn):
        logs[row, : len(r)] = r.log_ratios
        mask[row, : len(r)] = True
    crossing = np.array([log_t for _, _, log_t in drawn])

    def gap(p: np.ndarray) -> np.ndarray:
        _, weights = core.holder_rows(logs, mask, HolderOrder(p))
        return (weights * logs).sum(axis=1) - crossing

    lo = np.full(len(drawn), -60.0)
    hi = np.full(len(drawn), 60.0)
    bracketed = (gap(lo) < 0.0) & (gap(hi) > 0.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = gap(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    p_t = 0.5 * (lo + hi)
    before = np.linspace(-10.0, p_t - 0.2, 25, axis=1)
    after = np.linspace(p_t + 0.2, p_t + 12.0, 25, axis=1)

    for row, (r, t, _) in enumerate(drawn):
        if not bracketed[row]:
            res.observe(1.0, False, "crossing not bracketed on [-60, 60]")
            continue
        order = HolderOrder(np.concatenate([before[row], after[row]]))
        _, weights = holder_grid(r.log_ratios, order)
        _observe_rising(res, weights[:25, t], "weight not rising before the crossing")
        _observe_rising(res, -weights[25:, t],
                        "weight not strictly falling after the crossing")
    return res


# ----------------------------------------------------------------------
# objectives checks
# ----------------------------------------------------------------------


def _random_policy(rng, length=4, vocab=5) -> PolicyParams:
    return PolicyParams(rng.normal(scale=0.5, size=(length, vocab)))


def _random_batch(
    rng, policy_old: PolicyParams, policy_new: PolicyParams, group_size=4
) -> GroupBatch:
    """A group sampled from the old policy with logprobs under both."""
    probs = policy_old.probs()
    length, vocab = probs.shape
    rollouts = []
    for _ in range(group_size):
        tokens = np.array(
            [rng.choice(vocab, p=probs[pos]) for pos in range(length)]
        )
        rollouts.append(
            RolloutRecord(
                token_ids=tokens,
                old_logprobs=policy_old.token_logprobs(tokens),
                new_logprobs=policy_new.token_logprobs(tokens),
                reward=float(rng.integers(0, 2)),
                mask=np.ones(length, dtype=bool),
            )
        )
    return GroupBatch(rollouts)


def _perturbed_batch(rng, scale: float) -> tuple[PolicyParams, GroupBatch]:
    """A random old policy moved by N(0, scale^2) logit noise, and a group
    sampled from the old policy with logprobs under both."""
    policy_old = _random_policy(rng)
    policy = PolicyParams(
        policy_old.logits + rng.normal(scale=scale, size=policy_old.logits.shape)
    )
    return policy, _random_batch(rng, policy_old, policy)


def _informative(batch: GroupBatch) -> bool:
    """Some advantage is nonzero and some rollout's log-ratios are not all equal."""
    return bool(np.any(batch.advantages != 0.0)) and any(
        np.ptp(r.log_ratio_sequence().valid_logs()) >= 1e-9 for r in batch.rollouts
    )


def _away_from_kinks(batch: GroupBatch, order, clip: ClipConfig) -> bool:
    for rollout in batch.rollouts:
        rho = holder_mean_masked(rollout.log_ratio_sequence(), order)
        if min(abs(rho - clip.low), abs(rho - clip.high)) < KINK_MARGIN:
            return False
        ratios = np.exp(rollout.log_ratio_sequence().valid_logs())
        if np.min(np.abs(ratios - clip.low)) < KINK_MARGIN:
            return False
        if np.min(np.abs(ratios - clip.high)) < KINK_MARGIN:
            return False
    return True


def _bumped_policies(policy: PolicyParams, h=FD_STEP) -> list[PolicyParams]:
    """The policy with logit j moved by +h, then by -h, for every j in turn."""
    flat = policy.logits.ravel()
    bumped = []
    for j in range(flat.size):
        for step in (h, -h):
            logits = flat.copy()
            logits[j] = flat[j] + step
            bumped.append(PolicyParams(logits.reshape(policy.logits.shape)))
    return bumped


def _central_diffs(values, h=FD_STEP) -> np.ndarray:
    """Central differences from objective values in _bumped_policies order."""
    values = np.asarray(values)
    return (values[0::2] - values[1::2]) / (2.0 * h)


def _refreshed_copies(rollouts: RolloutBatch, policies) -> RolloutBatch:
    """One copy of a one-group batch per policy, each refreshed under its
    policy, stacked in policy order."""
    stack = rollouts.select_groups(np.zeros(len(policies), dtype=np.int64))
    return replace(stack, new_logprobs=np.concatenate(
        [c.token_logprobs(rollouts.token_ids) for c in policies]
    ))


def check_grad_rho_forms(rng, instances) -> CheckResult:
    res = CheckResult(
        "grad_rho_two_forms",
        "rho * sum W g equals rho^{1-p}/n sum r^p g to 1e-10 relative",
    )
    for _ in range(instances):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(2, 8))
        r = RatioSequence(np.exp(rng.uniform(-2.0, 2.0, n)))
        grads = rng.normal(size=(n, d))
        p = float(rng.uniform(-5.0, 5.0))
        order = HolderOrder(p)
        got = grad_rho(r, grads, order)
        rho = holder_mean(r, order)
        alt = rho ** (1.0 - p) / n * (r.ratios**p @ grads)
        scale = max(np.abs(got).max(), np.abs(alt).max(), 1e-12)
        err = float(np.abs(got - alt).max() / scale)
        res.observe(err, err <= 1e-10, f"forms differ by rel {err:.2e}")
    return res


def check_grad_rho_fd(rng, instances) -> CheckResult:
    res = CheckResult(
        "grad_rho_vs_fd",
        "grad of the aggregated ratio over policy logits matches central "
        "finite differences within rel. 1e-4",
    )
    for _ in range(max(1, instances // 4)):
        policy_old = _random_policy(rng)
        policy = PolicyParams(policy_old.logits + rng.normal(scale=0.1,
                                                             size=policy_old.logits.shape))
        probs = policy_old.probs()
        tokens = np.array(
            [rng.choice(policy_old.vocab, p=probs[pos])
             for pos in range(policy_old.length)]
        )
        p = float(rng.uniform(-4.0, 4.0))
        order = HolderOrder(p)
        old_logprobs = policy_old.token_logprobs(tokens)
        analytic = grad_rho(
            RatioSequence(np.exp(policy.token_logprobs(tokens) - old_logprobs)),
            policy.score_gradients(tokens),
            order,
        )
        # rho under every bumped policy from one kernel call; the log-ratios
        # go through exp and log, as a RatioSequence's do, so each rho is
        # what holder_mean gives for that policy
        bumped = np.array([np.log(np.exp(c.token_logprobs(tokens) - old_logprobs))
                           for c in _bumped_policies(policy)])
        rho, _ = core.holder_rows(bumped, np.ones(bumped.shape, dtype=bool), order)
        fd = _central_diffs(rho)
        scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
        err = float(np.abs(analytic - fd).max() / scale)
        res.observe(err, err <= POLICY_FD_RTOL, f"rel err {err:.2e} at p={p}")
    return res


def check_estimators_vs_fd(rng, instances) -> CheckResult:
    res = CheckResult(
        "estimators_vs_fd",
        "all three gradient estimators match central finite differences of "
        "their objectives away from clip kinks",
    )
    clip = ClipConfig(0.2)
    done = 0
    attempts = 0
    target = max(1, instances // 10)
    while done < target and attempts < target * 20:
        attempts += 1
        policy, batch = _perturbed_batch(rng, 0.15)
        p = float(rng.uniform(-3.0, 3.0))
        order = HolderOrder(p)
        if not _away_from_kinks(batch, order, clip):
            continue
        if np.all(batch.advantages == 0.0):
            continue
        done += 1

        rollouts = RolloutBatch.from_groups([batch])
        # every central difference of every regime from one refreshed stack:
        # group k of the stack is the batch under _bumped_policies(policy)[k]
        bumped = _refreshed_copies(rollouts, _bumped_policies(policy))
        cases = [
            (grad_estimator_unclipped([batch], policy, order).vector, "none"),
            (grad_estimator_seq_clip([batch], policy, order, clip).vector, "sequence"),
            (grad_estimator_token_clip([batch], policy, order, clip).vector, "token"),
        ]
        for analytic, regime in cases:
            # the surrogate as the batched kernel computes it for train
            fd = _central_diffs(batch_terms(bumped, order, regime, clip).group_objectives)
            scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-9)
            err = float(np.abs(analytic - fd).max() / scale)
            res.observe(err, err <= POLICY_FD_RTOL, f"rel err {err:.2e} at p={p}")
    if done == 0:
        res.skip("no kink-free instance drawn")
    return res


def check_reinforce_invariance(rng, instances) -> CheckResult:
    res = CheckResult(
        "reinforce_invariance_at_center",
        "with all ratios 1 the unclipped estimator is p-invariant and equals "
        "the advantage-weighted mean score gradient",
    )
    for _ in range(max(1, instances // 10)):
        policy = _random_policy(rng)
        batch = _random_batch(rng, policy, policy)
        reference = np.zeros(policy.param_dim)
        for rollout, adv in zip(batch.rollouts, batch.advantages):
            grads = policy.score_gradients(rollout.token_ids)
            reference += adv * grads.mean(axis=0)
        reference /= batch.group_size
        for p in (-5.0, -1.0, 0.0, 1.0, 5.0):
            got = grad_estimator_unclipped([batch], policy, HolderOrder(p)).vector
            err = float(np.abs(got - reference).max())
            res.observe(err, err <= 1e-10, f"p-dependence at center, p={p}")
    return res


def check_seq_clip_contraction(rng, instances) -> CheckResult:
    res = CheckResult(
        "seq_clip_norm_contraction",
        "per-sequence clipped gradient norm^2 never exceeds the unclipped one",
    )
    clip = ClipConfig(0.2)
    for _ in range(max(1, instances // 5)):
        policy, batch = _perturbed_batch(rng, 0.3)
        p = float(rng.uniform(-3.0, 3.0))
        order = HolderOrder(p)
        for rollout, adv in zip(batch.rollouts, batch.advantages):
            if adv == 0.0:
                continue
            ratios = rollout.ratio_sequence()
            g = adv * grad_rho(ratios, policy.score_gradients(rollout.token_ids), order)
            rho = holder_mean(ratios, order)
            indicator = 0.0 if (
                (adv > 0.0 and rho > clip.high) or (adv < 0.0 and rho < clip.low)
            ) else 1.0
            clipped_sq = indicator * float(g @ g)
            err = max(0.0, clipped_sq - float(g @ g))
            res.observe(err, clipped_sq <= float(g @ g) + 1e-15, "norm grew")
    return res


def check_variance_term_monotone(rng, instances) -> CheckResult:
    res = CheckResult(
        "variance_term_monotone",
        "V(p) = E[A^2 rho^2] strictly increases in p on non-degenerate samples",
    )
    tested = 0
    for _ in range(max(1, instances // 5)):
        _, batch = _perturbed_batch(rng, 0.2)
        if not _informative(batch):
            continue
        tested += 1
        grid = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
        vals = [variance_bound_term([batch], HolderOrder(p)) for p in grid]
        _observe_rising(res, vals, "V(p) not increasing")
    if tested == 0:
        res.skip("all sampled batches degenerate")
    return res


def check_second_moment_factorization(rng, instances) -> CheckResult:
    res = CheckResult(
        "second_moment_factorization",
        "with explicit orthonormal score vectors the exact gradient norm^2 "
        "equals A^2 M^2 rho^2 HHI to 1e-10",
    )
    for _ in range(instances):
        n = int(rng.integers(2, 10))
        r = RatioSequence(np.exp(rng.uniform(-1.5, 1.5, n)))
        p = float(rng.uniform(-4.0, 4.0))
        order = HolderOrder(p)
        adv = float(rng.uniform(-2.0, 2.0))
        m = float(rng.uniform(0.5, 3.0))
        grads = m * np.eye(n)  # orthogonal rows, norm M each
        g = adv * grad_rho(r, grads, order)
        exact = float(g @ g)
        formula = second_moment_orthogonal(adv, m, r, order)
        err = _rel_err(exact, formula)
        res.observe(err, err <= 1e-10, f"exact {exact}, formula {formula}")
    return res


def check_second_moment_pstar(rng, instances) -> CheckResult:
    res = CheckResult(
        "second_moment_pstar_nonpositive",
        "the grid minimizer of A^2 M^2 rho^2 HHI over [-10, 10] is <= 0, and "
        "the curve strictly increases on (0, 10]",
    )
    tested = 0
    grid = np.linspace(-10.0, 10.0, 201)
    orders = HolderOrder(grid)
    for _ in range(instances):
        r = _random_ratios(rng, n_max=32)
        if np.ptp(np.log(r.ratios)) < 1e-6:
            continue
        tested += 1
        vals = second_moment_orthogonal(1.0, 1.0, r, orders)
        p_star = grid[int(np.argmin(vals))]
        res.observe(max(0.0, p_star), p_star <= 0.0, f"p* = {p_star}")
        _observe_rising(res, vals[grid > 0.0], "not increasing on (0, 10]")
    if tested == 0:
        res.skip("all instances degenerate (uniform ratios)")
    return res


def check_schedule_amplification(rng, instances) -> CheckResult:
    res = CheckResult(
        "schedule_amplification_bound",
        "for n=101 with one ratio R=4 among ones, W(2)/W(0) >= C R^2 with "
        "C = S(0) / (R^2 + S(2))",
    )
    n, big = 101, 4.0
    ratios = RatioSequence(np.concatenate(([big], np.ones(n - 1))))
    w_high = gradient_weights(ratios, HolderOrder(2.0)).weights[0]
    w_stat = gradient_weights(ratios, HolderOrder(0.0)).weights[0]
    s = float(n - 1)  # sum of p-th powers of the unit background, any p
    c = s / (big**2.0 + s)
    lhs = w_high / w_stat
    rhs = c * big**2.0
    err = max(0.0, rhs - lhs)
    res.observe(err, lhs >= rhs, f"ratio {lhs:.4f} < bound {rhs:.4f}")
    res.detail = res.detail or f"ratio {lhs:.4f} >= bound {rhs:.4f}"
    return res


def check_schedule_contraction(rng, instances) -> CheckResult:
    res = CheckResult(
        "schedule_variance_contraction",
        "V(p_low) < V(p_stat) whenever p_low < p_stat on non-degenerate samples",
    )
    tested = 0
    for _ in range(max(1, instances // 5)):
        _, batch = _perturbed_batch(rng, 0.2)
        if not _informative(batch):
            continue
        tested += 1
        p_stat = float(rng.uniform(-1.0, 2.0))
        p_low = p_stat - float(rng.uniform(0.5, 3.0))
        v_low = variance_bound_term([batch], HolderOrder(p_low))
        v_stat = variance_bound_term([batch], HolderOrder(p_stat))
        err = max(0.0, v_low - v_stat)
        res.observe(err, v_low < v_stat, f"V({p_low:.2f}) >= V({p_stat:.2f})")
    if tested == 0:
        res.skip("all sampled batches degenerate")
    return res


CHECKS: dict[str, Callable] = {
    "special_case_means": check_special_case_means,
    "geometric_limit": check_geometric_limit,
    "mean_monotone_in_p": check_mean_monotone,
    "weights_normalized": check_weights_normalized,
    "weight_derivative_sum_zero": check_weight_derivative_sum_zero,
    "weight_derivative_vs_fd": check_weight_derivative_fd,
    "mu_derivative_vs_fd": check_mu_derivative,
    "entropy_derivative_vs_fd": check_entropy_derivative_fd,
    "entropy_peak_at_zero": check_entropy_peak,
    "limit_concentration": check_limit_concentration,
    "weight_rise_then_fall": check_weight_rise_fall,
    "hhi_profile": check_hhi_profile,
    "grad_rho_two_forms": check_grad_rho_forms,
    "grad_rho_vs_fd": check_grad_rho_fd,
    "estimators_vs_fd": check_estimators_vs_fd,
    "reinforce_invariance_at_center": check_reinforce_invariance,
    "seq_clip_norm_contraction": check_seq_clip_contraction,
    "variance_term_monotone": check_variance_term_monotone,
    "second_moment_factorization": check_second_moment_factorization,
    "second_moment_pstar_nonpositive": check_second_moment_pstar,
    "schedule_amplification_bound": check_schedule_amplification,
    "schedule_variance_contraction": check_schedule_contraction,
}


def check_run_arguments(seed: int, instance_count: int) -> None:
    """Reject a negative seed or an instance count below 1 (ValueError)."""
    if instance_count < 1:
        raise ValueError(f"instance_count must be >= 1, got {instance_count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_all(
    seed: int = 0,
    instance_count: int = 100,
    only: Sequence[str] | None = None,
) -> Report:
    """Run every registered check (or the named subset) over randomized
    instances; failures become report entries, never exceptions."""
    check_run_arguments(seed, instance_count)
    names = list(CHECKS) if only is None else list(only)
    report = Report(seed=seed, instance_count=instance_count)
    for name in names:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=seed, spawn_key=(zlib.crc32(name.encode()),)
            )
        )
        report.results.append(CHECKS[name](rng, instance_count))
    return report
