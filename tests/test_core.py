"""Power-mean substrate: special cases, weights, derivatives, limits."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holderpo import (
    DomainError,
    HolderOrder,
    LogRatioSequence,
    RatioSequence,
    WeightDistribution,
    entropy_p_derivative,
    grad_rho,
    gradient_weights,
    hhi,
    holder_mean,
    holder_mean_masked,
    limit_weights,
    mu_p_derivative,
    shannon_entropy,
    weight_p_derivative,
)
from holderpo import core
from holderpo.core import SERIES_CUTOFF, holder_grid, holder_rows
from holderpo.sim import RHO_DIVERGENCE_LIMIT

TWO_EIGHT = RatioSequence(np.array([2.0, 8.0]))


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


log_ratio_vectors = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=16
).map(lambda logs: RatioSequence(np.exp(np.array(logs))))

orders = st.floats(min_value=-5.0, max_value=5.0).map(HolderOrder)


class TestDomainTypes:
    def test_ratios_must_be_positive(self):
        with pytest.raises(DomainError):
            RatioSequence(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            RatioSequence(np.array([1.0, -2.0]))

    def test_ratios_must_be_finite_and_nonempty(self):
        with pytest.raises(DomainError):
            RatioSequence(np.array([1.0, np.inf]))
        with pytest.raises(DomainError):
            RatioSequence(np.array([]))

    def test_log_ratio_round_trip(self):
        logs = LogRatioSequence(np.array([0.3, -0.2, 5.0]), np.array([1, 1, 0]))
        np.testing.assert_allclose(np.exp(logs.valid_logs()), np.exp([0.3, -0.2]))

    def test_mask_needs_one_valid_entry(self):
        with pytest.raises(DomainError):
            LogRatioSequence(np.array([0.1, 0.2]), np.array([0, 0]))

    def test_order_rejects_nonfinite_p(self):
        with pytest.raises(DomainError):
            HolderOrder(float("nan"))

    @pytest.mark.parametrize("call", [
        lambda order: holder_mean(TWO_EIGHT, order),
        lambda order: holder_mean_masked(
            LogRatioSequence(TWO_EIGHT.log_ratios, np.ones(2, dtype=bool)), order),
        lambda order: gradient_weights(TWO_EIGHT, order),
        lambda order: weight_p_derivative(TWO_EIGHT, order, 0),
        lambda order: mu_p_derivative(TWO_EIGHT, order),
        lambda order: entropy_p_derivative(TWO_EIGHT, order),
        lambda order: grad_rho(TWO_EIGHT, np.eye(2), order),
    ])
    def test_scalar_calls_reject_an_array_p(self, call):
        """A one-sequence call given one exponent per row is a DomainError,
        not a failed unpacking; second_moment_orthogonal alone takes an array."""
        with pytest.raises(DomainError, match="needs a float p"):
            call(HolderOrder(np.array([1.0, 2.0])))

    def test_weights_must_normalize(self):
        with pytest.raises(DomainError):
            WeightDistribution(np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            WeightDistribution(np.array([-0.1, 1.1]))


class TestHolderMean:
    def test_identity_sequence(self):
        assert holder_mean(RatioSequence(np.ones(4)), HolderOrder(3.0)) == 1.0

    def test_arithmetic_geometric_harmonic(self):
        assert holder_mean(TWO_EIGHT, HolderOrder(1.0)) == pytest.approx(5.0, rel=1e-12)
        assert holder_mean(TWO_EIGHT, HolderOrder(0.0)) == pytest.approx(4.0, rel=1e-12)
        assert holder_mean(TWO_EIGHT, HolderOrder(-1.0)) == pytest.approx(3.2, rel=1e-12)

    def test_order_two(self):
        # ((4 + 64) / 2)^{1/2} = sqrt(34)
        assert holder_mean(TWO_EIGHT, HolderOrder(2.0)) == pytest.approx(
            math.sqrt(34.0), rel=1e-12
        )
        assert holder_mean(TWO_EIGHT, HolderOrder(2.0)) == pytest.approx(5.8309519)

    def test_extreme_exponents_stay_finite(self):
        r = RatioSequence(np.array([1e-4, 1.0, 1e4]))
        for p in (40.0, -40.0):
            value = holder_mean(r, HolderOrder(p))
            assert np.isfinite(value)
        # (1/n)^{1/p} shades the extreme entry slightly: (1/3)^{1/40} = 0.9729
        assert holder_mean(r, HolderOrder(40.0)) == pytest.approx(1e4, rel=0.03)
        assert holder_mean(r, HolderOrder(-40.0)) == pytest.approx(1e-4, rel=0.03)

    @given(log_ratio_vectors)
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_p(self, r):
        grid = [-5.0, -2.0, -1.0, 0.0, 1.0, 2.0, 5.0]
        vals = [holder_mean(r, HolderOrder(p)) for p in grid]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_geometric_limit(self):
        geo = float(np.exp(np.log(TWO_EIGHT.ratios).mean()))
        for p in (1e-7, -1e-7):
            assert holder_mean(TWO_EIGHT, HolderOrder(p)) == pytest.approx(geo, rel=1e-5)


class TestHolderMeanMasked:
    def test_masked_entry_ignored(self):
        logs = LogRatioSequence(
            np.array([math.log(2), math.log(8), 99.0]), np.array([1, 1, 0])
        )
        assert holder_mean_masked(logs, HolderOrder(1.0)) == pytest.approx(5.0)

    def test_identity(self):
        logs = LogRatioSequence(np.zeros(2), np.ones(2, dtype=bool))
        for p in (-3.0, 0.0, 2.0):
            assert holder_mean_masked(logs, HolderOrder(p)) == pytest.approx(1.0)

    def test_harmonic(self):
        logs = LogRatioSequence(
            np.array([math.log(2), math.log(8)]), np.ones(2, dtype=bool)
        )
        assert holder_mean_masked(logs, HolderOrder(-1.0)) == pytest.approx(3.2)


class TestGradientWeights:
    def test_uniform_at_zero(self):
        np.testing.assert_array_equal(
            gradient_weights(TWO_EIGHT, HolderOrder(0.0)).weights, [0.5, 0.5]
        )

    def test_proportional_at_one(self):
        np.testing.assert_allclose(
            gradient_weights(TWO_EIGHT, HolderOrder(1.0)).weights, [0.2, 0.8]
        )

    def test_inverted_at_minus_one(self):
        # (1/2) / (1/2 + 1/8) = 0.8
        np.testing.assert_allclose(
            gradient_weights(TWO_EIGHT, HolderOrder(-1.0)).weights, [0.8, 0.2]
        )

    @given(log_ratio_vectors, orders)
    @settings(max_examples=50, deadline=None)
    def test_normalized(self, r, order):
        w = gradient_weights(r, order).weights
        assert abs(w.sum() - 1.0) <= 1e-10
        assert np.all(w >= 0.0)


class TestWeightedLogMean:
    """mu(p) = W(p) . log r, the log-ratios averaged under the weights."""

    def test_uniform_weights_at_zero(self):
        mu = gradient_weights(TWO_EIGHT, HolderOrder(0.0)).weights @ TWO_EIGHT.log_ratios
        assert mu == pytest.approx(math.log(4.0))

    def test_degenerate_sequence(self):
        r = RatioSequence(np.full(5, 3.0))
        for p in (-2.0, 0.0, 2.0):
            mu = gradient_weights(r, HolderOrder(p)).weights @ r.log_ratios
            assert mu == pytest.approx(math.log(3.0))

    def test_order_one(self):
        want = 0.2 * math.log(2.0) + 0.8 * math.log(8.0)
        mu = gradient_weights(TWO_EIGHT, HolderOrder(1.0)).weights @ TWO_EIGHT.log_ratios
        assert mu == pytest.approx(want)

    @given(log_ratio_vectors, orders)
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_log_range(self, r, order):
        logs = np.log(r.ratios)
        mu = gradient_weights(r, order).weights @ r.log_ratios
        assert logs.min() - 1e-12 <= mu <= logs.max() + 1e-12


class TestLemmaWeightDerivative:
    """dW_t/dp = W_t (log r_t - mu(p))."""

    def test_uniform_ratios_give_zero(self):
        r = RatioSequence(np.full(3, 2.0))
        for p in (-1.0, 0.0, 2.0):
            assert weight_p_derivative(r, HolderOrder(p), 0) == 0.0

    def test_two_eight_at_zero(self):
        want = 0.5 * (math.log(2.0) - math.log(4.0))
        assert weight_p_derivative(TWO_EIGHT, HolderOrder(0.0), 0) == pytest.approx(want)
        assert weight_p_derivative(TWO_EIGHT, HolderOrder(0.0), 1) == pytest.approx(-want)

    def test_index_out_of_range(self):
        with pytest.raises(DomainError):
            weight_p_derivative(TWO_EIGHT, HolderOrder(0.0), 2)

    def test_index_array_matches_scalar_calls(self, rng):
        r = RatioSequence(np.exp(rng.uniform(-2, 2, 7)))
        for p in (-3.0, 0.0, 1.5):
            order = HolderOrder(p)
            index = np.array([[6, 0, 3], [3, 3, 1]])
            got = weight_p_derivative(r, order, index)
            assert got.shape == index.shape
            want = [[weight_p_derivative(r, order, int(t)) for t in row] for row in index]
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("index", [[0, 2], [-1, 1], [1, 0, 7], [0.0, 1.0]])
    def test_index_array_rejects_any_bad_entry(self, index):
        with pytest.raises(DomainError):
            weight_p_derivative(TWO_EIGHT, HolderOrder(1.0), np.array(index))

    def test_sums_to_zero(self, rng):
        for _ in range(20):
            r = RatioSequence(np.exp(rng.uniform(-2, 2, 6)))
            p = float(rng.uniform(-5, 5))
            total = sum(weight_p_derivative(r, HolderOrder(p), t) for t in range(6))
            assert abs(total) <= 1e-10

    def test_matches_finite_differences(self, rng):
        for _ in range(30):
            r = RatioSequence(np.exp(rng.uniform(-2, 2, 5)))
            p = float(rng.uniform(-5, 5))
            t = int(rng.integers(0, 5))
            analytic = weight_p_derivative(r, HolderOrder(p), t)
            fd = central_diff(lambda q: gradient_weights(r, HolderOrder(q)).weights[t], p)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestLemmaMuDerivative:
    """dmu/dp is the W-weighted variance of the log-ratios."""

    def test_zero_for_uniform(self):
        value = mu_p_derivative(RatioSequence(np.full(3, 7.0)), HolderOrder(1.0))
        assert value == pytest.approx(0.0, abs=1e-30)

    def test_two_eight_at_zero(self):
        # ((ln2 - ln4)^2 + (ln8 - ln4)^2) / 2 = (ln 2)^2
        assert mu_p_derivative(TWO_EIGHT, HolderOrder(0.0)) == pytest.approx(
            math.log(2.0) ** 2
        )

    def test_matches_finite_differences(self, rng):
        for _ in range(30):
            r = RatioSequence(np.exp(rng.uniform(-2, 2, 5)))
            p = float(rng.uniform(-5, 5))
            analytic = mu_p_derivative(r, HolderOrder(p))
            fd = central_diff(
                lambda q: gradient_weights(r, HolderOrder(q)).weights @ r.log_ratios, p)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @given(log_ratio_vectors, orders)
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, r, order):
        assert mu_p_derivative(r, order) >= 0.0


class TestShannonEntropy:
    def test_half_half(self):
        assert shannon_entropy(WeightDistribution(np.array([0.5, 0.5]))) == (
            pytest.approx(math.log(2.0))
        )

    def test_one_hot_is_zero(self):
        value = shannon_entropy(WeightDistribution(np.array([0.0, 1.0])))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_uniform_ten(self):
        assert shannon_entropy(WeightDistribution(np.full(10, 0.1))) == pytest.approx(
            math.log(10.0)
        )


class TestConcentrationRows:
    def test_rows_match_the_one_row_calls(self, rng):
        rows = rng.dirichlet(np.ones(9), size=12)
        rows[3, [0, 4]] = 0.0  # zero weights take 0 ln 0 = 0
        rows[3] /= rows[3].sum()
        entropy, concentration = core.concentration_rows(rows)
        assert entropy.shape == concentration.shape == (12,)
        for row, h, c in zip(rows, entropy, concentration):
            w = WeightDistribution(row)
            assert h == pytest.approx(shannon_entropy(w), rel=0.0, abs=1e-15)
            assert c == pytest.approx(hhi(w), rel=0.0, abs=1e-15)
            assert h == pytest.approx(-(row[row > 0] * np.log(row[row > 0])).sum(),
                                      rel=0.0, abs=1e-15)
            assert c == pytest.approx((row**2).sum(), rel=0.0, abs=1e-15)

    def test_one_hot_rows_give_positive_zero_entropy(self):
        entropy, concentration = core.concentration_rows(np.eye(4))
        assert all(h == 0.0 and math.copysign(1.0, h) == 1.0 for h in entropy)
        np.testing.assert_array_equal(concentration, np.ones(4))


class TestTheoremEntropyDeformation:
    """Entropy of W(p) peaks at p=0 (value ln n) and falls in |p|."""

    def test_derivative_zero_at_zero(self):
        assert entropy_p_derivative(TWO_EIGHT, HolderOrder(0.0)) == 0.0

    def test_derivative_negative_at_positive_p(self):
        value = entropy_p_derivative(TWO_EIGHT, HolderOrder(1.0))
        assert value < 0.0
        assert value == pytest.approx(-mu_p_derivative(TWO_EIGHT, HolderOrder(1.0)))

    def test_derivative_matches_finite_differences(self, rng):
        for _ in range(30):
            r = RatioSequence(np.exp(rng.uniform(-2, 2, 5)))
            p = float(rng.uniform(-5, 5))
            analytic = entropy_p_derivative(r, HolderOrder(p))
            fd = central_diff(
                lambda q: shannon_entropy(gradient_weights(r, HolderOrder(q))), p
            )
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_peak_value_and_symmetric_decay(self, rng):
        for _ in range(10):
            r = RatioSequence(np.exp(rng.uniform(-2, 2, 8)))
            n = len(r)
            assert shannon_entropy(
                gradient_weights(r, HolderOrder(0.0))
            ) == pytest.approx(math.log(n))
            for sign in (1.0, -1.0):
                vals = [
                    shannon_entropy(gradient_weights(r, HolderOrder(sign * p)))
                    for p in (0.0, 0.5, 1.0, 2.0, 4.0)
                ]
                assert np.all(np.diff(vals) < 1e-12)


class TestTheoremWeightAllocation:
    """A non-maximal token's weight rises, peaks where mu(p) crosses its
    log-ratio, then strictly falls."""

    def test_rise_then_fall_with_bracketed_crossing(self):
        logs = np.array([-1.0, 0.4, 1.5])
        r = RatioSequence(np.exp(logs))
        t = 1

        def gap(p):
            return gradient_weights(r, HolderOrder(p)).weights @ r.log_ratios - logs[t]

        lo, hi = -60.0, 60.0
        assert gap(lo) < 0.0 < gap(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
        p_peak = 0.5 * (lo + hi)

        before = [
            gradient_weights(r, HolderOrder(p)).weights[t]
            for p in np.linspace(-10.0, p_peak - 0.2, 20)
        ]
        after = [
            gradient_weights(r, HolderOrder(p)).weights[t]
            for p in np.linspace(p_peak + 0.2, p_peak + 12.0, 20)
        ]
        assert np.all(np.diff(before) > -1e-12)
        assert np.all(np.diff(after) < 1e-12)


class TestHHI:
    def test_uniform_minimum(self):
        assert hhi(WeightDistribution(np.full(8, 0.125))) == pytest.approx(0.125)

    def test_one_hot_maximum(self):
        assert hhi(WeightDistribution(np.array([1.0, 0.0, 0.0]))) == 1.0

    def test_point_two_point_eight(self):
        assert hhi(WeightDistribution(np.array([0.2, 0.8]))) == pytest.approx(0.68)

    @given(log_ratio_vectors, orders)
    @settings(max_examples=50, deadline=None)
    def test_never_below_uniform(self, r, order):
        h = hhi(gradient_weights(r, order))
        assert 1.0 / len(r) - 1e-12 <= h <= 1.0 + 1e-12


class TestLimitWeights:
    def test_unique_argmax(self):
        np.testing.assert_array_equal(limit_weights(TWO_EIGHT, +1).weights, [0.0, 1.0])

    def test_tied_argmax(self):
        r = RatioSequence(np.array([3.0, 3.0, 1.0]))
        np.testing.assert_array_equal(limit_weights(r, +1).weights, [0.5, 0.5, 0.0])

    def test_argmin_direction(self):
        np.testing.assert_array_equal(limit_weights(TWO_EIGHT, -1).weights, [1.0, 0.0])

    def test_zero_direction_rejected(self):
        with pytest.raises(DomainError):
            limit_weights(TWO_EIGHT, 0)

    def test_large_p_concentrates_on_limit_set(self):
        r = RatioSequence(np.exp(np.array([-1.2, 0.1, 1.4])))
        for p, direction in ((40.0, +1), (-40.0, -1)):
            w = gradient_weights(r, HolderOrder(p)).weights
            lim = limit_weights(r, direction).weights
            assert w[lim > 0].sum() >= 0.999


# Log-ratios over the documented domain r in [1e-4, 1e4], with masks that keep
# at least one valid position per row.
LOG_R_MAX = math.log(1e4)


@st.composite
def masked_log_ratio_rows(draw, bound=LOG_R_MAX):
    """(N, T) log-ratios in [-bound, bound] and a mask with a valid position
    in every row."""
    rows = draw(st.integers(1, 6))
    length = draw(st.integers(1, 12))
    logs = draw(
        hnp.arrays(np.float64, (rows, length),
                   elements=st.floats(-bound, bound))
    )
    mask = draw(hnp.arrays(np.bool_, (rows, length)))
    mask[np.arange(rows), draw(hnp.arrays(np.int64, rows,
                                          elements=st.integers(0, length - 1)))] = True
    # masked-out entries hold junk that must not leak into any row
    return np.where(mask, logs, 1e3), mask


# |p| <= 40, log-uniform small exponents of both signs, and exponents
# straddling the series cut-off and 1e-6, where a snap to the geometric mean
# would show.
SEAM_EXPONENTS = [sign * cut * (1.0 + step) for sign in (1.0, -1.0)
                  for cut in (1e-6, SERIES_CUTOFF) for step in (-1e-9, 1e-9)]
small_exponents = st.builds(lambda exponent, sign: sign * 10.0**exponent,
                            st.floats(-12.0, -2.0), st.sampled_from([1.0, -1.0]))
row_exponents = st.one_of(st.floats(-40.0, 40.0),
                          st.sampled_from(SEAM_EXPONENTS + [0.0]), small_exponents)


def mpmath_row(valid_logs: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """rho and W of one row from their definitions, (mean r^p)^{1/p} and
    r^p / sum r^p, to 60 digits.  rho is taken about the mean log-ratio m,
    as exp(m + log1p(mean(expm1(p (log r - m)))) / p), which stays accurate
    for the tiniest |p| and is exp(m) at p = 0."""
    with mpmath.workdps(60):
        logs = [mpmath.mpf(float(x)) for x in valid_logs]
        n = len(logs)
        centre = mpmath.fsum(logs) / n
        log_rho = centre
        if p != 0.0:
            spread = mpmath.fsum(mpmath.expm1(p * (x - centre)) for x in logs) / n
            log_rho += mpmath.log1p(spread) / p
        powers = [mpmath.exp(p * (x - centre)) for x in logs]
        total = mpmath.fsum(powers)
        return float(mpmath.exp(log_rho)), np.array([float(w / total) for w in powers])


@st.composite
def rows_and_orders(draw, bound=LOG_R_MAX):
    """Masked rows with either one shared order or one exponent per row."""
    logs, mask = draw(masked_log_ratio_rows(bound))
    exponents = draw(st.lists(row_exponents, min_size=logs.shape[0],
                              max_size=logs.shape[0]))
    if draw(st.booleans()):
        return logs, mask, HolderOrder(exponents[0]), [exponents[0]] * len(exponents)
    return logs, mask, HolderOrder(np.array(exponents)), exponents


class TestHolderRows:
    @given(rows_and_orders())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_mpmath_oracle(self, case):
        logs, mask, order, exponents = case
        rho, weights = holder_rows(logs, mask, order)
        assert rho.shape == (logs.shape[0],) and weights.shape == logs.shape
        eps = np.finfo(np.float64).eps
        for i, p in enumerate(exponents):
            row_order = HolderOrder(p)
            expect_rho, expect_w = mpmath_row(logs[i][mask[i]], p)
            if abs(p) < SERIES_CUTOFF:
                # the centred series sums T terms of size |p (log r - mean)|
                # and divides by p: about T ulps of rho whatever p is
                rho_tol = 8 * logs.shape[1] * eps
            else:
                # rho = exp(log-mean-exp / p): rounding in the log-sum-exp,
                # about T ulps, is divided by p
                rho_tol = 1e-12 + 4 * logs.shape[1] * eps / abs(p)
            assert rho[i] == pytest.approx(expect_rho, rel=rho_tol)
            np.testing.assert_allclose(weights[i][mask[i]], expect_w, rtol=0, atol=1e-14)
            assert np.all(weights[i][~mask[i]] == 0.0)
            # one exponent per row gives each row exactly its one-row result
            one_rho, one_w = holder_rows(logs[i : i + 1], mask[i : i + 1], row_order)
            assert rho[i] == one_rho[0]
            np.testing.assert_array_equal(weights[i], one_w[0])

    @given(rows_and_orders(math.log(RHO_DIVERGENCE_LIMIT)))
    @settings(max_examples=300, deadline=None)
    def test_rho_lies_between_the_extreme_ratios(self, case):
        """min r <= rho(p) <= max r over a row's valid tokens, within 1e-12,
        for |p| <= 40 on the divergence band: train_many's divergence check
        rests on it to read token ratios only."""
        logs, mask, order, _ = case
        rho, _ = holder_rows(logs, mask, order)
        ratios = np.exp(np.where(mask, logs, 0.0))
        assert (rho >= np.where(mask, ratios, np.inf).min(axis=1) * (1.0 - 1e-12)).all()
        assert (rho <= np.where(mask, ratios, 0.0).max(axis=1) * (1.0 + 1e-12)).all()

    @pytest.mark.parametrize("length", [1, 7, 32, 40])
    def test_each_row_is_computed_on_its_own(self, rng, length):
        """rho and W of a row do not depend on the rows stacked with it: one
        call over ragged rows gives each row the bits of a call on that row
        alone and of a call on the rows in reversed order.  Token clipping
        stacks its clipped rows under the batch's and rests on this."""
        exponents = np.concatenate([
            [0.0, SERIES_CUTOFF / 2, -SERIES_CUTOFF / 3, 1e-7, 40.0, -40.0, 1.0],
            rng.uniform(-40.0, 40.0, size=9),
        ])
        rows = exponents.size
        logs = rng.uniform(math.log(1e-4), math.log(1e4), size=(rows, length))
        mask = rng.random((rows, length)) < 0.7
        mask[np.arange(rows), rng.integers(0, length, size=rows)] = True
        logs[~mask] = rng.choice([np.inf, np.nan, 1e300], size=(~mask).sum())
        rho, weights = holder_rows(logs, mask, HolderOrder(exponents))
        back_rho, back_weights = holder_rows(logs[::-1], mask[::-1],
                                             HolderOrder(exponents[::-1]))
        np.testing.assert_array_equal(back_rho[::-1], rho)
        np.testing.assert_array_equal(back_weights[::-1], weights)
        for i, p in enumerate(exponents):
            one_rho, one_weights = holder_rows(logs[i:i + 1], mask[i:i + 1], HolderOrder(p))
            np.testing.assert_array_equal(one_rho, rho[i:i + 1])
            np.testing.assert_array_equal(one_weights, weights[i:i + 1])

    def test_continuous_across_series_cutoff(self):
        ratios = np.array([0.5, 2.0, 4.0, 0.25])
        exponents = np.array(SEAM_EXPONENTS + [0.0, 40.0, -40.0])
        logs = np.tile(np.log(ratios), (exponents.size, 1))
        rho, weights = holder_rows(logs, np.ones(logs.shape, bool), HolderOrder(exponents))
        # consecutive pairs straddle one seam, 2e-9 relative apart in p
        jumps = np.abs(np.diff(rho[:8])[::2]) / rho[:8:2]
        assert jumps.reshape(2, 2)[:, 0].max() <= 1e-14  # at +-1e-6
        assert jumps.reshape(2, 2)[:, 1].max() <= 1e-11  # at +-SERIES_CUTOFF
        # p = 0 is the geometric mean, with exactly uniform weights
        assert rho[8] == math.exp(np.log(ratios).mean())
        np.testing.assert_array_equal(weights[8], 0.25)
        assert not (weights[np.arange(exponents.size) != 8] == 0.25).any()
        for p, row_rho in zip(exponents, rho):
            assert row_rho == holder_mean(RatioSequence(ratios), HolderOrder(float(p)))

    def test_series_rows_only_when_a_row_needs_them(self, monkeypatch):
        calls = []
        real = core._centred_log_rho
        monkeypatch.setattr(core, "_centred_log_rho",
                            lambda *args: calls.append(len(args[0])) or real(*args))
        logs, mask = np.log([[0.5, 2.0], [4.0, 0.25]]), np.ones((2, 2), bool)
        holder_rows(logs, mask, HolderOrder(np.array([1.0, -2.0])))
        holder_rows(logs, mask, HolderOrder(SERIES_CUTOFF))
        assert calls == []
        rho, _ = holder_rows(logs, mask, HolderOrder(np.array([0.0, -2.0])))
        assert calls == [1]
        assert rho[0] == 1.0
        holder_rows(logs, mask, HolderOrder(-1e-4))
        assert calls == [1, 2]

    @pytest.mark.parametrize("p", [0.0, 1e-7, 2.0, np.array([0.0, 2.0])])
    def test_masked_out_junk_stays_out(self, p):
        logs = np.log([[0.5, 2.0, 4.0, 0.25], [3.0, 0.1, 1.0, 1.0]])
        mask = np.array([[True, False, True, False], [False, True, True, False]])
        clean_rho, clean_w = holder_rows(np.where(mask, logs, 0.0), mask, HolderOrder(p))
        for junk in (np.inf, -np.inf, np.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rho, w = holder_rows(np.where(mask, logs, junk), mask, HolderOrder(p))
            np.testing.assert_array_equal(rho, clean_rho)
            np.testing.assert_array_equal(w, clean_w)

    @pytest.mark.parametrize("p", [np.ones(3), np.ones(1), np.ones((2, 1)), np.ones((2, 2))])
    def test_rejects_array_p_of_wrong_shape(self, p):
        with pytest.raises(DomainError):
            holder_rows(np.zeros((2, 3)), np.ones((2, 3), bool), HolderOrder(p))

    def test_zero_dimensional_array_p_is_one_exponent(self):
        order = HolderOrder(np.array(2.0))
        assert type(order.p) is float
        rho, _ = holder_rows(np.log([[2.0, 8.0]]), np.ones((1, 2), bool), order)
        assert rho[0] == holder_mean(TWO_EIGHT, HolderOrder(2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_array_p(self, bad):
        with pytest.raises(DomainError):
            holder_rows(np.zeros((2, 3)), np.ones((2, 3), bool),
                        HolderOrder(np.array([1.0, bad])))

    @pytest.mark.parametrize("p", [1e308, np.array([1.0, 1e308])])
    def test_overflowing_row_raises(self, p):
        # p * log r overflows and the weights come out NaN, which the
        # normalisation check must reject rather than pass through
        logs = np.log([[2.0, 8.0], [2.0, 8.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
            holder_rows(logs, np.ones(logs.shape, bool), HolderOrder(p))

    def test_row_of_minus_infinities_raises(self):
        # at p = -1e308 every valid p * log r is -inf, so the shift is -inf
        # and every weight NaN; the sum check rejects the row
        logs = np.log([[8.0, 64.0], [2.0, 8.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DomainError, match="weights must be finite, nonnegative and sum to 1"):
            holder_rows(logs, np.ones(logs.shape, bool), HolderOrder(np.array([-1e308, 1.0])))

    def test_geometric_branch_is_uniform_over_valid(self):
        logs = np.array([[math.log(2.0), math.log(8.0), 5.0]])
        mask = np.array([[True, True, False]])
        rho, weights = holder_rows(logs, mask, HolderOrder(0.0))
        assert rho[0] == pytest.approx(4.0)
        np.testing.assert_array_equal(weights, [[0.5, 0.5, 0.0]])

    @pytest.mark.parametrize("call", [
        lambda: holder_rows(np.zeros((0, 3)), np.ones((0, 3), bool), HolderOrder(1.0)),
        lambda: holder_rows(np.zeros((0, 0)), np.ones((0, 0), bool), HolderOrder(np.array([]))),
        lambda: holder_grid(np.log([2.0, 8.0]), HolderOrder(np.array([]))),
    ])
    def test_zero_rows_are_a_domain_error(self, call):
        """Not numpy's ValueError from reducing a zero-size array."""
        with pytest.raises(DomainError, match="at least one row"):
            call()

    def test_rejects_empty_row_and_nonfinite_valid_entry(self):
        with pytest.raises(DomainError):
            holder_rows(np.zeros((2, 2)), np.array([[True, False], [False, False]]),
                        HolderOrder(1.0))
        with pytest.raises(DomainError):
            holder_rows(np.array([[np.inf, 0.0]]), np.ones((1, 2), bool),
                        HolderOrder(1.0))
        with pytest.raises(DomainError):
            holder_rows(np.zeros(3), np.ones(3, bool), HolderOrder(1.0))
