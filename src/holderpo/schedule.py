"""Monotone annealing schedules for the aggregation exponent.

The shape names map to easing curves applied to the normalized step
u = t / T: linear u, square u^2, cube u^3, sin sin(pi u / 2).  Descending
runs from p_high down to p_low; ascending swaps the endpoints.  The exact
interpolation convention is recorded in emitted run metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from holderpo.core import DomainError

SHAPES = ("constant", "linear", "square", "cube", "sin")
DIRECTIONS = ("descending", "ascending")


def _ease(shape: str, u: float) -> float:
    if shape == "linear":
        return u
    if shape == "square":
        return u * u
    if shape == "cube":
        return u * u * u
    if shape == "sin":
        return math.sin(math.pi * u / 2.0)
    raise DomainError(f"unknown shape {shape!r}")


@dataclass(frozen=True)
class ScheduleSpec:
    """Endpoints, horizon, easing shape, and direction of the p schedule."""

    p_high: float
    p_low: float
    total_steps: int
    shape: str = "linear"
    direction: str = "descending"

    def __post_init__(self):
        if not (math.isfinite(self.p_high) and math.isfinite(self.p_low)):
            raise DomainError("p_high and p_low must be finite")
        if self.shape not in SHAPES:
            raise DomainError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.direction not in DIRECTIONS:
            raise DomainError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        if self.total_steps < 1:
            raise DomainError("total_steps must be a positive integer")
        if self.p_high < self.p_low:
            raise DomainError("p_high must be >= p_low")

    @staticmethod
    def constant(p: float, total_steps: int) -> "ScheduleSpec":
        return ScheduleSpec(p, p, total_steps, shape="constant")

    def label(self) -> str:
        if self.shape == "constant":
            return f"static_{self.p_high:g}"
        return f"{self.shape}_{self.start:g}_{self.end:g}"

    @property
    def start(self) -> float:
        return self.p_high if self.direction == "descending" else self.p_low

    @property
    def end(self) -> float:
        return self.p_low if self.direction == "descending" else self.p_high


def p_at(spec: ScheduleSpec, step: int) -> float:
    """Exponent at the given update step; endpoints are hit exactly."""
    if not 0 <= step <= spec.total_steps:
        raise DomainError(f"step {step} outside [0, {spec.total_steps}]")
    if spec.shape == "constant":
        return spec.p_high
    if step == 0:
        return spec.start
    if step == spec.total_steps:
        return spec.end
    u = step / spec.total_steps
    phi = _ease(spec.shape, u)
    return spec.start + (spec.end - spec.start) * phi
