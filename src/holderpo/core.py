"""Power-mean aggregation of token importance ratios and its derivatives.

One kernel, :func:`holder_rows`, computes the power means rho and the
gradient weights W of a batch of masked rows.  The scalar functions
(``holder_mean``, ``holder_mean_masked``, ``gradient_weights`` and those built
on them) are one-row calls of it, so they run the code training runs.

All power computations run in log-space with a max shift, so exponents up
to |p| = 40 on ratios spanning [1e-4, 1e4] stay finite.  Every exponent,
p = 0 included, takes one formula: W is the softmax of p * log r, and rho is
exp(log-mean-exp(p log r) / p), or below ``SERIES_CUTOFF`` the same mean as a
series about the mean log-ratio, which is exact at p = 0 (the geometric mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this |p|, rho comes from the series about the mean log-ratio.
SERIES_CUTOFF = 1e-3


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
    """The aggregation exponent p, any finite value; p = 0 is the geometric
    mean.

    ``p`` is a float, or a one-dimensional float array holding one exponent
    per row for :func:`holder_rows` and :func:`holder_grid`.
    """

    p: float | np.ndarray

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
    """The power mean of order p; the geometric mean at p = 0."""
    return _one_row(ratios.log_ratios, order)[0]


def holder_mean_masked(logs: LogRatioSequence, order: HolderOrder) -> float:
    """Power mean over the valid positions only; masked tokens do not count."""
    return _one_row(logs.valid_logs(), order)[0]


def gradient_weights(ratios: RatioSequence, order: HolderOrder) -> WeightDistribution:
    """Softmax of p * log r over tokens; exactly uniform at p = 0."""
    return WeightDistribution(_one_row(ratios.log_ratios, order)[1])


def _centred_log_rho(logs, mask, n, p) -> np.ndarray:
    """log rho for small |p| as m + log1p(mean(expm1(p (log r - m)))) / p about
    the masked mean m of the log-ratios, whose masked-out entries are zero;
    no rounding is divided by p, and at p = 0 this is m."""
    centre = logs.sum(axis=1) / n
    terms = np.expm1(_column(p) * (logs - centre[:, None]))
    spread = np.where(mask, terms, 0.0).sum(axis=1) / n
    return centre + np.log1p(spread) / np.where(p == 0.0, 1.0, p)


def _column(value):
    """A per-row value, one scalar for every row or an (N,) array, shaped to
    broadcast over (N, T) arrays."""
    return value[:, None] if isinstance(value, np.ndarray) else value


def holder_rows(
    log_ratios: np.ndarray, mask: np.ndarray, order: HolderOrder
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise power means and gradient weights of exp(log_ratios).

    Each row of the (N, T) arrays is one sequence; only its masked-in
    positions count, and masked-out positions get zero weight whatever they
    hold.  ``order.p`` is one exponent for every row or an (N,) array of one
    exponent per row; each row picks log-sum-exp or series on its own
    exponent.  Returns rho with shape (N,) and W with shape (N, T); W is
    checked to be finite, nonnegative and to sum to 1 within 1e-10 per row
    (DomainError).
    """
    logs = np.asarray(log_ratios, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if logs.ndim != 2 or mask.shape != logs.shape:
        raise DomainError("log_ratios and mask must share one (N, T) shape")
    n = mask.sum(axis=1)
    if not n.all():
        raise DomainError("mask must have at least one valid entry per row")
    # zeroed once, so no masked-out inf or NaN reaches a product below
    logs = np.where(mask, logs, 0.0)
    if not np.isfinite(logs).all():
        raise DomainError("valid log_ratios must be finite")
    p = order.p
    if isinstance(p, np.ndarray) and p.shape != n.shape:
        raise DomainError(f"an array p must have shape {n.shape}, got {p.shape}")
    scaled = np.where(mask, _column(p) * logs, -np.inf)
    shift = scaled.max(axis=1)
    shifted = np.exp(scaled - shift[:, None])
    total = shifted.sum(axis=1)
    weights = shifted / total[:, None]
    log_mean = shift + np.log(total) - np.log(n)  # log of the mean of r^p
    if not isinstance(p, np.ndarray):
        series = abs(p) < SERIES_CUTOFF
        log_rho = _centred_log_rho(logs, mask, n, p) if series else log_mean / p
    else:
        series = np.abs(p) < SERIES_CUTOFF
        log_rho = np.divide(log_mean, p, out=np.empty(n.shape), where=~series)
        if series.any():
            log_rho[series] = _centred_log_rho(logs[series], mask[series], n[series], p[series])
    rho = np.exp(log_rho)
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
