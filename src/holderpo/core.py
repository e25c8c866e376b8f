"""Power-mean aggregation of token importance ratios and its derivatives.

One kernel, :func:`holder_rows`, computes the power means rho and the
gradient weights W of a batch of masked rows.  The scalar functions
(``holder_mean``, ``holder_mean_masked``, ``gradient_weights`` and those built
on them) are one-row calls of it, so they run the code training runs.

All power computations run in log-space with a max shift, so exponents up
to |p| = 40 on ratios spanning [1e-4, 1e4] stay finite.  The p -> 0 limit
(the geometric mean) gets its own branch, decided in ``holder_rows`` alone:
below ``zero_threshold`` the weights are exactly uniform and the mean is
exp(mean log r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Input violates a documented precondition."""


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError(f"{name} must contain at least one entry")
    return arr


@dataclass(frozen=True)
class RatioSequence:
    """Strictly positive, finite token importance ratios for one rollout."""

    ratios: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.ratios, "ratios")
        if not np.all(np.isfinite(arr)):
            raise DomainError("ratios must be finite")
        if np.any(arr <= 0.0):
            raise DomainError("ratios must be strictly positive")
        object.__setattr__(self, "ratios", arr)

    def __len__(self) -> int:
        return self.ratios.size

    @property
    def log_ratios(self) -> np.ndarray:
        return np.log(self.ratios)


@dataclass(frozen=True)
class LogRatioSequence:
    """Per-token log-ratios with a validity mask; masked entries carry no weight."""

    log_ratios: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        logs = _as_vector(self.log_ratios, "log_ratios")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != logs.shape:
            raise DomainError("mask must match log_ratios in length")
        if not mask.any():
            raise DomainError("mask must have at least one valid entry")
        if not np.all(np.isfinite(logs[mask])):
            raise DomainError("valid log_ratios must be finite")
        object.__setattr__(self, "log_ratios", logs)
        object.__setattr__(self, "mask", mask)

    def valid_logs(self) -> np.ndarray:
        return self.log_ratios[self.mask]

    def to_ratio_sequence(self) -> RatioSequence:
        return RatioSequence(np.exp(self.valid_logs()))


@dataclass(frozen=True)
class HolderOrder:
    """The aggregation exponent; |p| below zero_threshold routes to the
    geometric branch.

    ``p`` is a float, or a one-dimensional float array holding one exponent
    per row for :func:`holder_rows` and :func:`holder_grid` (then ``is_zero``
    is per row too).
    """

    p: float | np.ndarray
    zero_threshold: float = 1e-6

    def __post_init__(self):
        if isinstance(self.p, np.ndarray):
            p = np.array(self.p, dtype=np.float64)
            if p.ndim > 1:
                raise DomainError(f"an array p must be one-dimensional, got shape {p.shape}")
            p.flags.writeable = False
            object.__setattr__(self, "p", p if p.ndim else float(p))
            finite = np.isfinite(p).all()
        else:
            finite = np.isfinite(self.p)
        if not finite:
            raise DomainError("p must be finite")
        if self.zero_threshold <= 0.0:
            raise DomainError("zero_threshold must be positive")

    @property
    def is_zero(self) -> bool | np.ndarray:
        return abs(self.p) < self.zero_threshold


@dataclass(frozen=True)
class WeightDistribution:
    """A probability vector of per-token gradient weights."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.weights, "weights")
        if np.any(arr < 0.0):
            raise DomainError("weights must be nonnegative")
        if abs(arr.sum() - 1.0) > 1e-10:
            raise DomainError("weights must sum to 1 within 1e-10")
        object.__setattr__(self, "weights", arr)

    def __len__(self) -> int:
        return self.weights.size


def holder_mean(ratios: RatioSequence, order: HolderOrder) -> float:
    """The power mean of order p, with the geometric mean as the p -> 0 branch."""
    return _one_row(ratios.log_ratios, order)[0]


def holder_mean_masked(logs: LogRatioSequence, order: HolderOrder) -> float:
    """Power mean over the valid positions only; masked tokens do not count."""
    return _one_row(logs.valid_logs(), order)[0]


def gradient_weights(ratios: RatioSequence, order: HolderOrder) -> WeightDistribution:
    """Softmax of p * log r over tokens; exactly uniform on the zero branch."""
    return WeightDistribution(_one_row(ratios.log_ratios, order)[1])


def _geometric_rows(logs, mask, n) -> tuple[np.ndarray, np.ndarray]:
    """The p -> 0 branch: geometric means, uniform weights on valid positions."""
    rho = np.exp(np.where(mask, logs, 0.0).sum(axis=1) / n)
    return rho, mask / n[:, None]


def holder_rows(
    log_ratios: np.ndarray, mask: np.ndarray, order: HolderOrder
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise power means and gradient weights of exp(log_ratios).

    Each row of the (N, T) arrays is one sequence; only its masked-in
    positions count, and masked-out positions get zero weight.  ``order.p``
    is one exponent for every row or an (N,) array of one exponent per row;
    each row takes the geometric branch on its own exponent, and the
    geometric rows are computed only when some row needs them.  Returns rho
    with shape (N,) and W with shape (N, T); W is checked to be finite,
    nonnegative and to sum to 1 within 1e-10 per row (DomainError).
    """
    logs = np.asarray(log_ratios, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logs.ndim != 2 or mask.shape != logs.shape:
        raise DomainError("log_ratios and mask must share one (N, T) shape")
    n = mask.sum(axis=1)
    if not n.all():
        raise DomainError("mask must have at least one valid entry per row")
    if not np.isfinite(logs[mask]).all():
        raise DomainError("valid log_ratios must be finite")
    p = order.p
    zero = None
    if isinstance(p, np.ndarray):
        if p.shape != n.shape:
            raise DomainError(f"an array p must have shape {n.shape}, got {p.shape}")
        zero = order.is_zero
        if zero.any():
            # zero rows run the power path at a stand-in p = 1, then are replaced
            p = np.where(zero, 1.0, p)
        else:
            zero = None
        scaled = np.where(mask, p[:, None] * logs, -np.inf)
    elif order.is_zero:
        return _geometric_rows(logs, mask, n)
    else:
        scaled = np.where(mask, p * logs, -np.inf)
    shift = scaled.max(axis=1)
    shifted = np.exp(scaled - shift[:, None])
    total = shifted.sum(axis=1)
    rho = np.exp((shift + np.log(total) - np.log(n)) / p)
    weights = shifted / total[:, None]
    if zero is not None:
        geo_rho, geo_weights = _geometric_rows(logs, mask, n)
        rho = np.where(zero, geo_rho, rho)
        weights = np.where(zero[:, None], geo_weights, weights)
    # written so that NaN weights, from p * log r overflowing, fail it too
    if not (weights.min() >= 0.0 and np.abs(weights.sum(axis=1) - 1.0).max() <= 1e-10):
        raise DomainError("weights must be finite, nonnegative and sum to 1 within 1e-10")
    return rho, weights


def holder_grid(
    log_ratios: np.ndarray, order: HolderOrder
) -> tuple[np.ndarray, np.ndarray]:
    """rho and W of one all-valid sequence of log-ratios at every exponent of
    ``order``, one row per exponent (one row for a scalar p), from one
    :func:`holder_rows` call."""
    rows = order.p.size if isinstance(order.p, np.ndarray) else 1
    logs = np.asarray(log_ratios, dtype=np.float64)[None].repeat(rows, axis=0)
    return holder_rows(logs, np.ones(logs.shape, dtype=bool), order)


def _one_row(logs: np.ndarray, order: HolderOrder) -> tuple[float, np.ndarray]:
    """rho and W of one sequence at one exponent: the single row of holder_grid."""
    (rho,), (weights,) = holder_grid(logs, order)
    return float(rho), weights


def weighted_log_mean(ratios: RatioSequence, order: HolderOrder) -> float:
    """Weight-averaged log-ratio, bounded by [min log r, max log r]."""
    w = gradient_weights(ratios, order).weights
    return float(w @ ratios.log_ratios)


def weight_p_derivative(
    ratios: RatioSequence, order: HolderOrder, token_index: int | np.ndarray
) -> float | np.ndarray:
    """d W_t / d p = W_t (log r_t - mu), for one token index or an integer
    array of them (then an array of the same shape)."""
    n = len(ratios)
    index = np.asarray(token_index)
    if index.dtype.kind not in "iu":
        raise DomainError(f"token_index must be an integer, got {index.dtype}")
    if not ((index >= 0) & (index < n)).all():
        raise DomainError(f"token_index {token_index} out of range for n={n}")
    w = gradient_weights(ratios, order).weights
    logs = ratios.log_ratios
    mu = float(w @ logs)
    derivative = w[index] * (logs[index] - mu)
    return float(derivative) if index.ndim == 0 else derivative


def mu_p_derivative(ratios: RatioSequence, order: HolderOrder) -> float:
    """d mu / d p: the weighted variance of the log-ratios, always >= 0."""
    w = gradient_weights(ratios, order).weights
    logs = ratios.log_ratios
    mu = float(w @ logs)
    return float(w @ (logs - mu) ** 2)


def shannon_entropy(weights: WeightDistribution) -> float:
    """-sum W ln W with the 0 ln 0 = 0 convention."""
    w = weights.weights
    nz = w[w > 0.0]
    # + 0.0 turns the -0.0 of a one-hot vector into 0.0
    return float(-(nz * np.log(nz)).sum()) + 0.0


def entropy_p_derivative(ratios: RatioSequence, order: HolderOrder) -> float:
    """d H / d p = -p * Var_W(log r); zero at p = 0, negative-signed with p."""
    return -order.p * mu_p_derivative(ratios, order)


def hhi(weights: WeightDistribution) -> float:
    """Herfindahl-Hirschman index sum W^2, in [1/n, 1]."""
    return float(np.sum(weights.weights**2))


def limit_weights(
    ratios: RatioSequence, direction: int, tie_rtol: float = 1e-12
) -> WeightDistribution:
    """The p -> +inf (direction > 0) or p -> -inf (direction < 0) weight limit:
    uniform over the argmax (resp. argmin) set, ties resolved at tie_rtol."""
    if direction == 0:
        raise DomainError("direction must be nonzero")
    r = ratios.ratios
    extremum = r.max() if direction > 0 else r.min()
    on_set = np.isclose(r, extremum, rtol=tie_rtol, atol=0.0)
    w = np.where(on_set, 1.0 / on_set.sum(), 0.0)
    return WeightDistribution(w)
