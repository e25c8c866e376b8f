"""Executable checks for every theorem, lemma, and identity the library
relies on.  Each check runs over randomized instances, reports its worst
observed error, and never raises on failure: the report carries the
verdicts.  Deterministic given (seed, instance_count).

Each check is one ``_Check`` that carries its name and claim: a
``_GridCheck``, a ``_StencilCheck`` or a function declared with ``@_check``.
``CHECKS`` maps each name to its check, in report order.  ``check_all`` alone
checks its arguments, all before any check runs: a bad seed or instance
count, or an empty selection, raises ValueError, an unknown name KeyError.
It runs a name given twice once, and records a check that raises as a
failure, then runs the rest.

A check draws all of its instances first, in the order a one-at-a-time loop
would draw them.  The functions a check is about (the analytic p-derivatives,
``grad_rho``, ``holder_mean``, ``second_moment_orthogonal``,
``variance_bound_term`` and the gradient estimators) are then called once per
instance, while the reference side is batched: exponent grids and
finite-difference stencils come from one ``core.holder_rows`` call per
``GRID_CHUNK`` instances, and a policy's bumped copies are one stack of
log-probability tables.  Rows of the wrong shape, and fewer row sets than
instances, fail their check.  Token ids are drawn by ``PolicyParams.sample``,
one uniform per token.  No check re-derives the sequence clip:
``seq_clip_norm_contraction`` judges ``batch_terms`` and the kink filter reads
rho from ``core.holder_rows``."""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from holderpo import core
from holderpo.core import (
    HolderOrder,
    RatioSequence,
    concentration_rows,
    entropy_p_derivative,
    gradient_weights,
    holder_mean,
    limit_weights,
    mu_p_derivative,
    weight_p_derivative,
)
from holderpo.objectives import (
    ClipConfig,
    RolloutBatch,
    advantage_estimates,
    batch_terms,
    grad_estimator_seq_clip,
    grad_estimator_token_clip,
    grad_estimator_unclipped,
    grad_rho,
    second_moment_orthogonal,
    variance_bound_term,
)
from holderpo.sim import PolicyParams, refresh_logprobs

P_GRID = (-5.0, -3.0, -2.0, -1.0, -0.5, -1e-7, 0.0, 1e-7, 0.5, 1.0, 2.0, 3.0, 5.0)
LIMIT_P = 40.0
STRICT_SLACK = 1e-12
FD_STEP = 1e-5
# The p-derivative checks take one Richardson step over five-point stencils
# at steps h/2 and h: the result's O(h^6) truncation error allows a step large
# enough that rounding stays well below FD_RTOL, even next to p = 0 where
# dH/dp is tiny but the higher derivatives of H are not.
P_FD_STEP = 3e-3
# Exponent offsets of those stencils, in the order _stencil reads them.
P_FD_STENCIL = P_FD_STEP * np.array([0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
FD_RTOL = 1e-6
POLICY_FD_RTOL = 1e-4
KINK_MARGIN = 1e-3
# Instances per core.holder_rows call in the grid and stencil checks: ten
# sequences of up to 64 tokens at up to 15 exponents make (150, 64) arrays
# of 77 KB.  That is as fast as larger chunks and adds about 0.5 MB of peak
# RSS to check_all(seed, 100); one call for all 100 instances added 4 MB.
GRID_CHUNK = 10


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


def _five_point(f_h, f_minus_h, f_2h, f_minus_2h, h: float) -> float:
    """Five-point central difference at step h, with O(h^4) truncation error."""
    return (8.0 * (f_h - f_minus_h) - (f_2h - f_minus_2h)) / (12.0 * h)


def _stencil(values) -> float:
    """d/dp from f at p + P_FD_STENCIL: (16 D(h/2) - D(h)) / 15 over the
    five-point differences D, which cancels their h^4 truncation term."""
    f_half, f_minus_half, f_h, f_minus_h, f_2h, f_minus_2h = values
    fine = _five_point(f_half, f_minus_half, f_h, f_minus_h, 0.5 * P_FD_STEP)
    coarse = _five_point(f_h, f_minus_h, f_2h, f_minus_2h, P_FD_STEP)
    return (16.0 * fine - coarse) / 15.0


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale


def _observe_rising(res: CheckResult, values, detail: str) -> None:
    """Observe that values strictly increase along their grid, within
    STRICT_SLACK; pass the negated values to observe a strict fall."""
    values = np.asarray(values)
    diffs = values[1:] - values[:-1]
    res.observe(max(0.0, float(-diffs.min())), bool((diffs > -STRICT_SLACK).all()), detail)


# ----------------------------------------------------------------------
# holder_core checks
# ----------------------------------------------------------------------


def _padded_rows(sequences) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D sequences as zero-padded rows of one array, and the mask of
    each row's own positions."""
    lengths = np.array([len(seq) for seq in sequences])
    logs = np.zeros((len(sequences), lengths.max()))
    for row, seq in zip(logs, sequences):
        row[: len(seq)] = seq
    return logs, np.arange(logs.shape[1]) < lengths[:, None]


def _holder_grids(log_ratios, exponents) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rho, W) of each sequence log_ratios[i] at every exponent of the 1-D
    array exponents[i], one row per exponent, as holder_grid gives them up to
    rounding.  GRID_CHUNK sequences at a time are padded into masked rows,
    one row per (sequence, exponent), for one core.holder_rows call; each W
    is trimmed back to its sequence's length.  A generator, so one chunk's
    arrays are alive at a time."""
    for start in range(0, len(log_ratios), GRID_CHUNK):
        sequences = log_ratios[start : start + GRID_CHUNK]
        chunk_ps = exponents[start : start + GRID_CHUNK]
        counts = [len(ps) for ps in chunk_ps]
        logs, mask = _padded_rows(sequences)
        rho, weights = core.holder_rows(
            logs.repeat(counts, axis=0), mask.repeat(counts, axis=0),
            HolderOrder(np.concatenate(chunk_ps)),
        )
        end = 0
        for seq, count in zip(sequences, counts):
            begin, end = end, end + count
            yield rho[begin:end], weights[begin:end, : len(seq)]


def _paired(res: CheckResult, instances: Sequence, grids) -> Iterator[tuple]:
    """Each instance with its (rho, W) from grids, in order; a failure in res
    if grids runs out first, so no instance goes unjudged."""
    judged = 0
    for judged, pair in enumerate(zip(instances, grids), 1):
        yield pair
    if judged < len(instances):
        res.observe(1.0, False, f"rows for {judged} of {len(instances)} instances")


def _rows_fit(res: CheckResult, rho, weights, exponents: int, n: int) -> bool:
    """Whether rho and W have a row per exponent, of n weights; else a failure in res."""
    fit = rho.shape == (exponents,) and weights.shape == (exponents, n)
    if not fit:
        res.observe(1.0, False, f"W of shape {weights.shape}, want {(exponents, n)}")
    return fit


@dataclass(frozen=True, eq=False)
class _Check:
    """A check of one claim, under one name: a call with (rng, instances)
    returns a fresh CheckResult res after ``observe(res, rng, instances)``."""

    name: str
    claim: str

    def __call__(self, rng, instances) -> CheckResult:
        res = CheckResult(self.name, self.claim)
        self.observe(res, rng, instances)
        return res


@dataclass(frozen=True, eq=False)
class _GridCheck(_Check):
    """A check that draws one ratio sequence per instance, turns it into the
    sequence r to judge by ``prepare`` (None passes over a degenerate one),
    and calls ``judge(res, r, grid, rho, weights)`` with rho and W of r at
    every exponent of ``grid``, one row each.  All instances are drawn first;
    their rows come from _holder_grids.  With none left to judge it skips."""

    grid: Sequence[float]
    judge: Callable
    prepare: Callable[[RatioSequence], RatioSequence | None] = lambda r: r

    def observe(self, res, rng, instances) -> None:
        drawn = [_random_ratios(rng) for _ in range(instances)]
        tested = [r for r in map(self.prepare, drawn) if r is not None]
        grid = np.asarray(self.grid, dtype=np.float64)
        grids = _holder_grids([r.log_ratios for r in tested], [grid] * len(tested))
        for r, (rho, weights) in _paired(res, tested, grids):
            if _rows_fit(res, rho, weights, len(self.grid), len(r)):
                self.judge(res, r, self.grid, rho, weights)
        if not tested:
            res.skip("all instances degenerate (uniform ratios)")


@dataclass(frozen=True, eq=False)
class _StencilCheck(_Check):
    """A check that draws a ratio sequence r and an exponent p in [-5, 5] per
    instance.  ``derivative(rng, r, order)``, called as each instance is
    drawn, returns the analytic d/dp at p and the row-wise function of
    weight rows that it differentiates.  Once every instance is drawn, that
    function of r's rows at p + P_FD_STENCIL, from _holder_grids, is
    differenced by _stencil.  ``nonnegative`` also requires the
    derivative >= 0."""

    derivative: Callable
    nonnegative: bool = False

    def observe(self, res, rng, instances) -> None:
        drawn = []  # (r, p, analytic, of_weights) per instance
        for _ in range(instances):
            r = _random_ratios(rng)
            p = float(rng.uniform(-5.0, 5.0))
            drawn.append((r, p, *self.derivative(rng, r, HolderOrder(p))))
        grids = _holder_grids([r.log_ratios for r, *_ in drawn],
                              [p + P_FD_STENCIL for _, p, *_ in drawn])
        for (r, p, analytic, of_weights), (rho, weights) in _paired(res, drawn, grids):
            if not _rows_fit(res, rho, weights, len(P_FD_STENCIL), len(r)):
                continue
            if self.nonnegative:
                res.observe(max(0.0, -analytic), analytic >= 0.0, "negative variance")
            fd = _stencil(of_weights(weights))
            err = _rel_err(analytic, fd)
            res.observe(err, err <= FD_RTOL, f"analytic {analytic}, fd {fd}")


@dataclass(frozen=True, eq=False)
class _FunctionCheck(_Check):
    """A check written as one function, declared with ``@_check``."""

    observe: Callable[[CheckResult, np.random.Generator, int], None]


def _check(name: str, claim: str) -> Callable[[Callable], _FunctionCheck]:
    """Declare the decorated ``observe(res, rng, instances)`` as a check."""
    return lambda observe: _FunctionCheck(name, claim, observe)


def _non_uniform(gap: float) -> Callable[[RatioSequence], RatioSequence | None]:
    return lambda r: r if np.ptp(r.log_ratios) >= gap else None


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
    entropies = concentration_rows(weights)[0].reshape(2, -1)
    err = abs(entropies[0, 0] - math.log(len(r)))
    res.observe(err, err <= 1e-12, "entropy at p=0 is not ln n")
    for sign, vals in zip((1.0, -1.0), entropies):
        _observe_rising(res, -vals, f"entropy not decreasing in |p| (sign {sign:+.0f})")


def _separate_extremes(r: RatioSequence) -> RatioSequence:
    """r with its largest log-ratio raised by 0.5 and its smallest lowered by 0.5."""
    logs = r.log_ratios
    logs[np.argmax(logs)] += 0.5
    logs[np.argmin(logs)] -= 0.5
    return RatioSequence(np.exp(logs))


def _judge_limit_concentration(res, r, grid, rho, weights) -> None:
    for p, w in zip(grid, weights):
        lim = limit_weights(r, 1 if p > 0.0 else -1).weights
        mass = float(w[lim > 0.0].sum())
        res.observe(1.0 - mass, mass >= 0.999, f"mass {mass} at p={p}")


def _judge_hhi_profile(res, r, grid, rho, weights) -> None:
    h0, *grid_hhi = concentration_rows(weights)[1].tolist()
    err = abs(h0 - 1.0 / len(r))
    res.observe(err, err <= 1e-12, "HHI at p=0 is not 1/n")
    for p, h in zip(grid[1:], grid_hhi):
        err = max(0.0, h0 - h - 1e-15)
        res.observe(err, h >= h0 - 1e-15, f"HHI below uniform at p={p}")


check_special_case_means = _GridCheck(
    "special_case_means",
    "p = 1, 0, -1 recover the arithmetic, geometric, harmonic means",
    (1.0, 0.0, -1.0),
    _judge_special_means,
)
check_geometric_limit = _GridCheck(
    "geometric_limit",
    "the mean at p = +-1e-7 is within rel. 1e-5 of the geometric mean",
    (1e-7, -1e-7),
    _judge_geometric_limit,
)
check_mean_monotone = _GridCheck(
    "mean_monotone_in_p",
    "the power mean strictly increases in p for non-uniform ratios",
    P_GRID,
    lambda res, r, grid, rho, weights: _observe_rising(res, rho, "non-increasing step"),
    prepare=_non_uniform(1e-9),
)
check_weights_normalized = _GridCheck(
    "weights_normalized",
    "gradient weights sum to 1 within 1e-10",
    P_GRID + (LIMIT_P, -LIMIT_P),
    _judge_normalized,
)
check_weight_derivative_sum_zero = _GridCheck(
    "weight_derivative_sum_zero",
    "per-token weight p-derivatives sum to zero (normalization preserved)",
    (-3.0, -1.0, 0.0, 1.0, 3.0),
    _judge_derivative_sum,
)
_ENTROPY_P = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
check_entropy_peak = _GridCheck(
    "entropy_peak_at_zero",
    "weight entropy peaks at p = 0 with value ln n and strictly "
    "decreases in |p| for non-uniform ratios",
    np.concatenate([_ENTROPY_P, -_ENTROPY_P]),
    _judge_entropy_peak,
    prepare=_non_uniform(1e-6),
)
check_limit_concentration = _GridCheck(
    "limit_concentration",
    "at p = +-40 with a log-gap >= 0.5, mass >= 0.999 sits on the "
    "argmax/argmin set, whose limit is limit_weights",
    (LIMIT_P, -LIMIT_P),
    _judge_limit_concentration,
    prepare=_separate_extremes,
)
check_hhi_profile = _GridCheck(
    "hhi_profile",
    "HHI is minimized at p = 0 (value 1/n) and approaches 1 at p = +-40",
    (0.0,) + P_GRID,
    _judge_hhi_profile,
)


def _token_weight_derivative(rng, r, order):
    t = int(rng.integers(0, len(r)))
    return weight_p_derivative(r, order, t), lambda weights: weights[:, t]


check_weight_derivative = _StencilCheck(
    "weight_derivative_vs_fd",
    "dW/dp = W (log r - mu) matches central finite differences",
    _token_weight_derivative,
)
check_mu_derivative = _StencilCheck(
    "mu_derivative_vs_fd",
    "dmu/dp equals the weighted log-ratio variance, and is >= 0",
    lambda rng, r, order: (mu_p_derivative(r, order), lambda weights: weights @ r.log_ratios),
    nonnegative=True,
)
check_entropy_derivative_fd = _StencilCheck(
    "entropy_derivative_vs_fd",
    "dH/dp = -p Var_W(log r) matches central finite differences",
    lambda rng, r, order: (
        entropy_p_derivative(r, order),
        lambda weights: concentration_rows(weights)[0],
    ),
)


@_check("weight_rise_then_fall",
        "a non-maximal token's weight rises then strictly falls once the "
        "weighted log mean crosses its log-ratio; crossing bracketed by "
        "bisection")
def check_weight_rise_fall(res: CheckResult, rng, instances) -> None:
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
        return

    # Bisect every instance's crossing at once: one row and one p per instance.
    logs, mask = _padded_rows([r.log_ratios for r, _, _ in drawn])
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
    if not bracketed.all():
        res.observe(1.0, False, "crossing not bracketed on [-60, 60]")
    rows = np.flatnonzero(bracketed)
    grids = _holder_grids([drawn[row][0].log_ratios for row in rows],
                          [np.concatenate([before[row], after[row]]) for row in rows])
    for (r, t, _), (rho, weights) in _paired(res, [drawn[row] for row in rows], grids):
        if _rows_fit(res, rho, weights, 50, len(r)):
            _observe_rising(res, weights[:25, t], "weight not rising before the crossing")
            _observe_rising(res, -weights[25:, t],
                            "weight not strictly falling after the crossing")


# ----------------------------------------------------------------------
# objectives checks
# ----------------------------------------------------------------------


def _random_policy(rng, length=4, vocab=5) -> PolicyParams:
    return PolicyParams(rng.normal(scale=0.5, size=(length, vocab)))


def _perturbed_policies(rng, scale: float) -> tuple[PolicyParams, PolicyParams]:
    """A random old policy and a copy moved by N(0, scale^2) logit noise."""
    old = _random_policy(rng)
    return old, PolicyParams(old.logits + rng.normal(scale=scale, size=old.logits.shape))


def _random_batch(
    rng, policy_old: PolicyParams, policy_new: PolicyParams, group_size=4
) -> RolloutBatch:
    """A group sampled from the old policy with logprobs under both; per
    rollout, the uniforms of its tokens are drawn, then its reward."""
    uniforms = np.zeros((group_size, policy_old.length))
    rewards = np.zeros(group_size)
    for i in range(group_size):
        uniforms[i] = rng.random(policy_old.length)
        rewards[i] = rng.integers(0, 2)
    tokens = policy_old.sample(uniforms)
    return RolloutBatch(
        token_ids=tokens,
        old_logprobs=policy_old.token_logprobs(tokens),
        new_logprobs=policy_new.token_logprobs(tokens),
        mask=np.ones(tokens.shape, dtype=bool),
        rewards=rewards,
        advantages=advantage_estimates(rewards),
        group_size=group_size,
    )


def _perturbed_batch(rng, scale: float) -> tuple[PolicyParams, RolloutBatch]:
    """A random old policy moved by N(0, scale^2) logit noise, and a group
    sampled from the old policy with logprobs under both."""
    policy_old, policy = _perturbed_policies(rng, scale)
    return policy, _random_batch(rng, policy_old, policy)


def _informative_batches(res: CheckResult, rng, instances) -> Iterator[RolloutBatch]:
    """Of instances // 5 perturbed batches, drawn as they are consumed, those
    with a nonzero advantage and a rollout whose log-ratios are not all
    equal; res is skipped if there is none."""
    tested = 0
    for _ in range(max(1, instances // 5)):
        _, batch = _perturbed_batch(rng, 0.2)
        if np.any(batch.advantages != 0.0) and any(
            np.ptp(logs[mask]) >= 1e-9 for logs, mask in zip(batch.log_ratios, batch.mask)
        ):
            tested += 1
            yield batch
    if tested == 0:
        res.skip("all sampled batches degenerate")


def _away_from_kinks(batch: RolloutBatch, order, clip: ClipConfig) -> bool:
    """No rollout's rho and no valid token ratio is within KINK_MARGIN of a clip edge."""
    rho, _ = core.holder_rows(batch.log_ratios, batch.mask, order)
    values = np.concatenate([rho, np.exp(batch.log_ratios[batch.mask])])
    return bool(np.abs(values[:, None] - [clip.low, clip.high]).min() >= KINK_MARGIN)


def _bumped_policies(policy: PolicyParams, h=FD_STEP) -> PolicyParams:
    """The policy with logit j moved by +h, then by -h, for every j in turn,
    as one stack of 2D policies; each of its tables is the bumped policy's
    own, bit for bit."""
    flat = policy.logits.ravel()
    j = np.arange(flat.size)
    logits = np.tile(flat, (2 * flat.size, 1))
    logits[2 * j, j] = flat + h
    logits[2 * j + 1, j] = flat - h
    return PolicyParams(logits.reshape(-1, *policy.logits.shape))


def _central_diffs(values, h=FD_STEP) -> np.ndarray:
    """Central differences from objective values in _bumped_policies order."""
    values = np.asarray(values)
    return (values[0::2] - values[1::2]) / (2.0 * h)


def _refreshed_copies(rollouts: RolloutBatch, policies: PolicyParams) -> RolloutBatch:
    """One copy of a one-group batch per policy of the stack, each refreshed
    under its policy, stacked in policy order."""
    copies = rollouts.select_groups(np.zeros(policies.runs, dtype=np.int64))
    return refresh_logprobs(copies, policies)


@_check("grad_rho_two_forms",
        "rho * sum W g equals rho^{1-p}/n sum r^p g to 1e-10 relative")
def check_grad_rho_forms(res: CheckResult, rng, instances) -> None:
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


@_check("grad_rho_vs_fd",
        "grad of the aggregated ratio over policy logits matches central "
        "finite differences within rel. 1e-4")
def check_grad_rho_fd(res: CheckResult, rng, instances) -> None:
    for _ in range(max(1, instances // 4)):
        policy_old, policy = _perturbed_policies(rng, 0.1)
        tokens = policy_old.sample(rng.random(policy_old.length))
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
        stack = _bumped_policies(policy)
        copies = np.tile(tokens, (stack.runs, 1))
        bumped = np.log(np.exp(stack.token_logprobs(copies) - old_logprobs))
        rho, _ = core.holder_rows(bumped, np.ones(bumped.shape, dtype=bool), order)
        fd = _central_diffs(rho)
        scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-12)
        err = float(np.abs(analytic - fd).max() / scale)
        res.observe(err, err <= POLICY_FD_RTOL, f"rel err {err:.2e} at p={p}")


@_check("estimators_vs_fd",
        "all three gradient estimators match central finite differences of "
        "their objectives away from clip kinks")
def check_estimators_vs_fd(res: CheckResult, rng, instances) -> None:
    clip = ClipConfig(0.2)
    done = 0
    attempts = 0
    target = max(1, instances // 10)
    while done < target and attempts < target * 20:
        attempts += 1
        policy, batch = _perturbed_batch(rng, 0.15)
        p = float(rng.uniform(-3.0, 3.0))
        order = HolderOrder(p)
        if np.all(batch.advantages == 0.0) or not _away_from_kinks(batch, order, clip):
            continue
        done += 1

        # every central difference of every regime from one refreshed stack:
        # group k of the stack is the batch under _bumped_policies(policy)[k]
        bumped = _refreshed_copies(batch, _bumped_policies(policy))
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


@_check("reinforce_invariance_at_center",
        "with all ratios 1 the unclipped estimator is p-invariant and equals "
        "the advantage-weighted mean score gradient")
def check_reinforce_invariance(res: CheckResult, rng, instances) -> None:
    for _ in range(max(1, instances // 10)):
        policy = _random_policy(rng)
        batch = _random_batch(rng, policy, policy)
        reference = np.zeros(policy.param_dim)
        for ids, adv in zip(batch.token_ids, batch.advantages):
            reference += adv * policy.score_gradients(ids).mean(axis=0)
        reference /= batch.group_size
        for p in (-5.0, -1.0, 0.0, 1.0, 5.0):
            got = grad_estimator_unclipped([batch], policy, HolderOrder(p)).vector
            err = float(np.abs(got - reference).max())
            res.observe(err, err <= 1e-10, f"p-dependence at center, p={p}")


@_check("seq_clip_norm_contraction",
        "the sequence clip zeroes A exactly where rho left the band on the "
        "side A favors and keeps rho and W, so no rollout's gradient grows")
def check_seq_clip_contraction(res: CheckResult, rng, instances) -> None:
    clip = ClipConfig(0.2)
    for _ in range(max(1, instances // 5)):
        _, batch = _perturbed_batch(rng, 0.3)
        order = HolderOrder(float(rng.uniform(-3.0, 3.0)))
        full = batch_terms(batch, order, "none")
        seq = batch_terms(batch, order, "sequence", clip)
        adv, rho = batch.advantages, full.row_scale
        # the gate closes where rho has left the band on the side A favors
        closed = np.where(adv > 0.0, rho > clip.high, rho < clip.low)
        err = float(np.abs(seq.row_coef - np.where(closed, 0.0, adv)).max())
        res.observe(err, err == 0.0, "row_coef is not A with the gate open, 0 closed")
        same = (np.array_equal(seq.row_scale, full.row_scale)
                and np.array_equal(seq.token_weights, full.token_weights))
        res.observe(0.0 if same else 1.0, same, "the sequence clip moved rho or W")


@_check("variance_term_monotone",
        "V(p) = E[A^2 rho^2] strictly increases in p on non-degenerate samples")
def check_variance_term_monotone(res: CheckResult, rng, instances) -> None:
    for batch in _informative_batches(res, rng, instances):
        grid = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
        vals = [variance_bound_term([batch], HolderOrder(p)) for p in grid]
        _observe_rising(res, vals, "V(p) not increasing")


@_check("second_moment_factorization",
        "with explicit orthonormal score vectors the exact gradient norm^2 "
        "equals A^2 M^2 rho^2 HHI to 1e-10")
def check_second_moment_factorization(res: CheckResult, rng, instances) -> None:
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


@_check("second_moment_pstar_nonpositive",
        "the grid minimizer of A^2 M^2 rho^2 HHI over [-10, 10] is <= 0, and "
        "the curve strictly increases on (0, 10]")
def check_second_moment_pstar(res: CheckResult, rng, instances) -> None:
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


@_check("schedule_amplification_bound",
        "for n=101 with one ratio R=4 among ones, W(2)/W(0) >= C R^2 with "
        "C = S(0) / (R^2 + S(2))")
def check_schedule_amplification(res: CheckResult, rng, instances) -> None:
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


@_check("schedule_variance_contraction",
        "V(p_low) < V(p_stat) whenever p_low < p_stat on non-degenerate samples")
def check_schedule_contraction(res: CheckResult, rng, instances) -> None:
    for batch in _informative_batches(res, rng, instances):
        p_stat = float(rng.uniform(-1.0, 2.0))
        p_low = p_stat - float(rng.uniform(0.5, 3.0))
        v_low = variance_bound_term([batch], HolderOrder(p_low))
        v_stat = variance_bound_term([batch], HolderOrder(p_stat))
        err = max(0.0, v_low - v_stat)
        res.observe(err, v_low < v_stat, f"V({p_low:.2f}) >= V({p_stat:.2f})")


# name -> check, in report order.  bench/spans.py swaps in timed wrappers, so
# check_all looks each check up here as it runs it.
CHECKS: dict[str, Callable[[np.random.Generator, int], CheckResult]] = {
    check.name: check for check in (
        check_special_case_means, check_geometric_limit, check_mean_monotone,
        check_weights_normalized, check_weight_derivative_sum_zero,
        check_weight_derivative, check_mu_derivative, check_entropy_derivative_fd,
        check_entropy_peak, check_limit_concentration, check_weight_rise_fall,
        check_hhi_profile, check_grad_rho_forms, check_grad_rho_fd,
        check_estimators_vs_fd, check_reinforce_invariance, check_seq_clip_contraction,
        check_variance_term_monotone, check_second_moment_factorization,
        check_second_moment_pstar, check_schedule_amplification,
        check_schedule_contraction,
    )
}


def check_rng(seed: int, name: str) -> np.random.Generator:
    """The generator check_all hands to the check called ``name``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(name.encode()),))
    )


def check_all(
    seed: int = 0,
    instance_count: int = 100,
    only: Sequence[str] | None = None,
) -> Report:
    """Run every registered check (or the named subset, each once, in the
    order first named) over randomized instances; failures become report
    entries, never exceptions.  A check that raises fails, with the
    exception's type and message as its detail, and the rest still run.
    The arguments are checked before any check runs: a negative seed, an
    instance count below 1 or an empty ``only`` raise ValueError, and a
    name that is not in CHECKS raises KeyError."""
    if instance_count < 1:
        raise ValueError(f"instance_count must be >= 1, got {instance_count}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    names = list(dict.fromkeys(CHECKS if only is None else only))
    if not names:
        raise ValueError("no check selected")
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check(s) {unknown}; known: {sorted(CHECKS)}")
    report = Report(seed=seed, instance_count=instance_count)
    for name in names:
        check = CHECKS[name]
        try:
            result = check(check_rng(seed, name), instance_count)
        except Exception as exc:  # a bug the check found, or its own: a failure
            # the timed wrappers bench/spans.py swaps in carry no claim
            result = CheckResult(name, getattr(check, "claim", ""), status="fail",
                                 detail=f"raised {type(exc).__name__}: {exc}")
        report.results.append(result)
    return report
