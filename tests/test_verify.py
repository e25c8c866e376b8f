"""The theorem-check harness: full-suite pass, determinism, skip paths,
and sensitivity to a deliberately corrupted formula."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from holderpo import HolderOrder, RatioSequence, weight_p_derivative
from holderpo import core, verify
from holderpo.verify import CHECKS, check_all, check_weight_derivative_fd

# check_all(seed=0, instance_count=20) as the one-exponent-at-a-time checks
# reported it, before the p-grid checks ran on batched holder_rows calls; the
# three p-derivative finite-difference errors are the five-point stencil's,
# and geometric_limit's is the gap of the centred small-|p| series, whose rho
# at p = +-1e-7 is within 1.7e-16 of a 60-digit reference (the log-sum-exp
# form it replaced was off by up to 9.5e-9 there)
FIXTURE = Path(__file__).parent / "data" / "verify_seed0_n20.json"


@pytest.fixture(scope="module")
def acceptance_report():
    return check_all(seed=0, instance_count=100)


class TestFullSuite:
    def test_every_check_registered_once(self, acceptance_report):
        names = [r.name for r in acceptance_report.results]
        assert names == list(CHECKS)
        assert len(set(names)) == len(names)

    def test_all_pass_on_acceptance_run(self, acceptance_report):
        failing = [r.name for r in acceptance_report.results if r.status == "fail"]
        assert acceptance_report.all_passed, f"failing checks: {failing}"

    def test_deterministic_given_seed(self):
        a = check_all(seed=3, instance_count=10)
        b = check_all(seed=3, instance_count=10)
        assert a.to_json() == b.to_json()

    def test_seed_changes_observed_errors(self):
        a = check_all(seed=0, instance_count=10, only=["weight_derivative_vs_fd"])
        b = check_all(seed=1, instance_count=10, only=["weight_derivative_vs_fd"])
        assert a.results[0].worst_error != b.results[0].worst_error

    def test_json_report_shape(self, acceptance_report):
        doc = json.loads(acceptance_report.to_json())
        assert doc["all_passed"] is True
        assert doc["seed"] == 0
        assert {c["name"] for c in doc["checks"]} == set(CHECKS)
        for check in doc["checks"]:
            assert check["status"] in ("pass", "fail", "skip")

    def test_text_report_verdict_line(self, acceptance_report):
        text = acceptance_report.to_text()
        assert text.endswith("ALL CHECKS PASSED")
        assert text.count("[") == len(CHECKS)


class TestSubsetAndErrors:
    def test_only_subset(self):
        report = check_all(seed=0, instance_count=5, only=["hhi_profile"])
        assert [r.name for r in report.results] == ["hhi_profile"]

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            check_all(seed=0, instance_count=5, only=["nonsense"])

    def test_instance_count_positive(self):
        with pytest.raises(ValueError):
            check_all(seed=0, instance_count=0)

    def test_seed_nonnegative(self):
        with pytest.raises(ValueError, match="seed"):
            check_all(seed=-1, instance_count=5)

    def test_single_instance_never_errors(self):
        # tiny runs may skip hypothesis-gated checks but must not fail
        report = check_all(seed=5, instance_count=1)
        assert all(r.status in ("pass", "skip") for r in report.results)


class TestRecordedReport:
    def test_matches_recorded_statuses_and_worst_errors(self):
        recorded = json.loads(FIXTURE.read_text())
        report = check_all(seed=recorded["seed"],
                           instance_count=recorded["instance_count"])
        assert [r.name for r in report.results] == list(recorded["checks"])
        for result in report.results:
            want = recorded["checks"][result.name]
            assert result.status == want["status"], result.name
            assert result.worst_error == pytest.approx(
                want["worst_error"], rel=1e-9, abs=1e-13
            ), result.name


def _reversed_rows(log_ratios, mask, order, holder_rows=core.holder_rows):
    """holder_rows with each call's rows in reverse order."""
    rho, weights = holder_rows(log_ratios, mask, order)
    return rho[::-1], weights[::-1]


class TestHarnessSensitivity:
    """A corrupted formula or kernel call must be caught, not waved through."""

    # every check whose verdict depends on which exponent or policy a kernel
    # row belongs to; core.holder_rows is the one kernel they all reach
    @pytest.mark.parametrize(
        "name",
        ["special_case_means", "mean_monotone_in_p", "weight_derivative_vs_fd",
         "mu_derivative_vs_fd", "entropy_derivative_vs_fd", "entropy_peak_at_zero",
         "weight_rise_then_fall", "hhi_profile", "grad_rho_vs_fd",
         "second_moment_pstar_nonpositive"],
    )
    def test_grid_checks_catch_reversed_rows(self, name, monkeypatch):
        assert check_all(seed=0, instance_count=20, only=[name]).results[0].status == "pass"
        monkeypatch.setattr(core, "holder_rows", _reversed_rows)
        result = check_all(seed=0, instance_count=20, only=[name]).results[0]
        assert result.status == "fail"

    def test_estimators_check_catches_perturbed_plus_objectives(self, monkeypatch):
        def perturbed(batch, order, regime, clip=None, batch_terms=verify.batch_terms):
            terms = batch_terms(batch, order, regime, clip)
            plus = terms.group_objectives.copy()
            plus[0::2] += 1e-8  # the +h copies come first in each pair
            return dataclasses.replace(terms, group_objectives=plus)

        monkeypatch.setattr(verify, "batch_terms", perturbed)
        result = check_all(seed=0, instance_count=20, only=["estimators_vs_fd"])
        assert result.results[0].status == "fail"

    def test_corrupted_weight_derivative_fails_fd_check(self):
        def corrupted(ratios: RatioSequence, order: HolderOrder, t: int) -> float:
            return 1.1 * weight_p_derivative(ratios, order, t)

        rng = np.random.default_rng(0)
        result = check_weight_derivative_fd(rng, 50, derivative_fn=corrupted)
        assert result.status == "fail"
        assert result.worst_error > 1e-6

    def test_intact_formula_passes_same_instances(self):
        rng = np.random.default_rng(0)
        result = check_weight_derivative_fd(rng, 50)
        assert result.status == "pass"
