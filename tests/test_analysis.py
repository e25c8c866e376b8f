"""Diagnostics: envelopes, weight profiles, the V(p) curve, CSV export.

A weight profile is ``concentration_rows`` of ``holder_grid`` over an order
of exponents, and the V(p) curve is ``variance_bound_term`` at each p."""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from holderpo import (
    DomainError,
    HolderOrder,
    RatioSequence,
    UpdateMetrics,
    WeightDistribution,
    hhi,
    shannon_entropy,
)
from holderpo.analysis import ratio_envelopes, table_to_csv
from holderpo.core import concentration_rows, holder_grid
from holderpo.objectives import variance_bound_term

from conftest import make_group


def metrics_kwargs(**overrides):
    base = dict(
        step=0, p_value=1.0, objective=0.0, grad_norm=0.0, policy_entropy=1.0,
        log_ratio_max=0.2, log_ratio_min=-0.1, clip_fraction=0.0,
        mean_reward=0.5, v_of_p=1.0,
    )
    base.update(overrides)
    return base


class TestUpdateMetrics:
    def test_round_trips_to_dict(self):
        m = UpdateMetrics(**metrics_kwargs())
        assert m.to_dict()["log_ratio_max"] == 0.2

    def test_to_dict_equals_asdict_in_field_order(self):
        """metrics.ndjson writes to_dict, so its keys, their order and the
        values are asdict's."""
        m = UpdateMetrics(**metrics_kwargs(step=3, p_value=-0.5, objective=1e-300))
        assert list(m.to_dict().items()) == list(asdict(m).items())

    def test_rejects_inverted_envelope(self):
        with pytest.raises(DomainError):
            UpdateMetrics(**metrics_kwargs(log_ratio_max=-1.0, log_ratio_min=0.0))


class TestRatioEnvelopes:
    def test_zero_at_trust_region_center(self):
        batch = make_group([[0.0, 0.0]] * 2, [1.0, 0.0])
        assert ratio_envelopes(batch) == (0.0, 0.0)

    def test_single_displaced_token(self):
        batch = make_group([[0.3, 0.0], [0.0, 0.0]], [1.0, 0.0])
        assert ratio_envelopes(batch) == pytest.approx((0.3, 0.0))

    def test_matches_brute_force_scan(self, rng):
        rows = rng.uniform(-0.7, 0.7, size=(3, 5))
        batch = make_group(rows, [1.0, 0.0, 1.0])
        assert ratio_envelopes(batch) == pytest.approx(
            (rows.max(), rows.min())
        )


def _concentration_at(r: RatioSequence, grid) -> tuple[np.ndarray, np.ndarray]:
    """(entropy, HHI) of the gradient weights at each exponent of `grid`."""
    _, weights = holder_grid(r.log_ratios, HolderOrder(np.array(grid, dtype=np.float64)))
    return concentration_rows(weights)


class TestWeightProfile:
    def test_zero_point(self):
        r = RatioSequence(np.array([2.0, 8.0]))
        (entropy,), (concentration,) = _concentration_at(r, [0.0])
        assert entropy == pytest.approx(math.log(2.0))
        assert concentration == pytest.approx(0.5)

    def test_entropy_unimodal_on_symmetric_grid(self):
        r = RatioSequence(np.exp(np.array([-1.0, 0.2, 0.9])))
        grid = np.linspace(-4, 4, 17)
        entropies, _ = _concentration_at(r, grid)
        peak = int(np.argmax(entropies))
        assert grid[peak] == pytest.approx(0.0)
        assert np.all(np.diff(entropies[: peak + 1]) >= -1e-12)
        assert np.all(np.diff(entropies[peak:]) <= 1e-12)

    def test_uniform_ratios_flat(self):
        r = RatioSequence(np.full(4, 2.0))
        entropy, concentration = _concentration_at(r, [-2.0, 0.0, 2.0])
        np.testing.assert_allclose(entropy, math.log(4.0))
        np.testing.assert_allclose(concentration, 0.25)

    def test_empty_grid_rejected(self):
        r = RatioSequence(np.array([2.0]))
        with pytest.raises(DomainError):
            holder_grid(r.log_ratios, HolderOrder(np.array([])))

    def test_rows_equal_the_one_row_calls_bit_for_bit(self, rng):
        for _ in range(200):
            r = RatioSequence(np.exp(rng.uniform(-3.0, 3.0, rng.integers(1, 30))))
            grid = rng.uniform(-20.0, 20.0, rng.integers(1, 12))
            _, weights = holder_grid(r.log_ratios, HolderOrder(grid))
            rows = list(map(WeightDistribution, weights))
            entropy, concentration = concentration_rows(weights)
            assert entropy.tolist() == [shannon_entropy(w) for w in rows]
            assert concentration.tolist() == [hhi(w) for w in rows]


class TestVCurve:
    def test_flat_at_unit_ratios(self):
        batch = make_group([[0.0, 0.0]] * 2, [1.0, 0.0])
        expect = float(np.mean(batch.advantages**2))
        for p in (-2.0, 0.0, 2.0):
            assert variance_bound_term([batch], HolderOrder(p)) == pytest.approx(expect)

    def test_strictly_increasing_on_nonuniform_sample(self):
        batch = make_group([[0.4, -0.3, 0.1], [0.0, 0.0, 0.0]], [1.0, 0.0])
        values = [variance_bound_term([batch], HolderOrder(p)) for p in np.linspace(-3, 3, 13)]
        assert np.all(np.diff(values) > 0.0)

    def test_single_rollout_hand_value(self):
        batch = replace(make_group([[math.log(5.0)] * 2, [0.0] * 2], [1.0, 0.0]),
                        advantages=np.array([1.0, 0.0]))
        assert variance_bound_term([batch], HolderOrder(1.0)) == pytest.approx(12.5)


class TestTableToCsv:
    def test_fixed_header_and_rows(self):
        text = table_to_csv(("a", "b"), [[1, 2.5], ["x", -1]])
        assert text == "a,b\n1,2.5\nx,-1\n"
