"""Diagnostics over batches and run logs: per-update telemetry, log-ratio
envelopes and CSV export."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from holderpo.core import DomainError
from holderpo.objectives import RolloutBatch


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


def table_to_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a table as CSV text with a fixed header row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
