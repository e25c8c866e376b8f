"""Diagnostics over batches and run logs: log-ratio envelopes, weight
entropy/concentration profiles, and the variance-bound curve."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from holderpo.core import (
    DomainError,
    HolderOrder,
    RatioSequence,
    concentration_rows,
    holder_grid,
)
from holderpo.objectives import RolloutBatch, variance_bound_term


@dataclass(frozen=True)
class UpdateMetrics:
    """Per-update telemetry emitted by the training loop."""

    step: int
    p_value: float
    objective: float
    grad_norm: float
    policy_entropy: float
    log_ratio_max: float
    log_ratio_min: float
    clip_fraction: float
    mean_reward: float
    v_of_p: float

    def __post_init__(self):
        if self.log_ratio_min > self.log_ratio_max:
            raise DomainError("log_ratio_min must not exceed log_ratio_max")

    def to_dict(self) -> dict:
        """``dataclasses.asdict`` without its deep copy of each scalar."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def ratio_envelopes(batch: RolloutBatch) -> tuple[float, float]:
    """(max, min) of log r over all valid tokens in the batch."""
    log_max, log_min = batch.ratio_envelope()
    return log_max.item(), log_min.item()


def weight_profile(
    ratios: RatioSequence, p_grid: Sequence[float]
) -> list[tuple[float, float, float]]:
    """Rows of (p, Shannon entropy, HHI) of the gradient weights, every
    exponent's weights from one kernel call."""
    if len(p_grid) == 0:
        raise DomainError("p_grid must be non-empty")
    exponents = np.array(p_grid, dtype=np.float64)
    _, weights = holder_grid(ratios.log_ratios, HolderOrder(exponents))
    entropy, concentration = concentration_rows(weights)
    return list(zip(exponents.tolist(), entropy.tolist(), concentration.tolist()))


def v_curve(
    samples: Sequence[RolloutBatch], p_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Rows of (p, V(p)) with V the empirical mean of A^2 rho^2."""
    if len(p_grid) == 0:
        raise DomainError("p_grid must be non-empty")
    return [
        (float(p), variance_bound_term(samples, HolderOrder(p))) for p in p_grid
    ]


def table_to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a table as CSV text with a fixed header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
