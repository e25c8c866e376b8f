"""The theorem-check harness: full-suite pass, determinism, skip paths,
and sensitivity to a deliberately corrupted formula."""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from holderpo import HolderOrder, PolicyParams, RatioSequence, weight_p_derivative
from holderpo import core, verify
from holderpo.core import holder_grid
from holderpo.verify import CHECKS, check_all, check_rng

# check_all(seed=0, instance_count=20) as the one-exponent-at-a-time checks
# reported it, before the p-grid checks ran on batched holder_rows calls; the
# three p-derivative finite-difference errors are those of the Richardson
# step over five-point stencils, and geometric_limit's is the gap of the
# centred small-|p| series, whose rho at p = +-1e-7 is within 1.7e-16 of a
# 60-digit reference (the log-sum-exp form it replaced was off by up to
# 9.5e-9 there).  Four worst errors moved at rounding level when the grid
# and stencil checks began padding instances into chunked holder_rows calls,
# which changes the blocking of the row sums: weights_normalized
# 4.440892098500626e-16 -> 3.3306690738754696e-16, weight_derivative_sum_zero
# 8.916478666520788e-16 -> 7.294512216482474e-16, mu_derivative_vs_fd
# 9.240153243315392e-12 -> 4.581771555238475e-12 and entropy_derivative_vs_fd
# 2.4180978579605147e-12 -> 1.52185923304949e-12; no status changed.
# limit_concentration's worst error became its margin, 1 - mass, where it
# was max(0, 0.999 - mass), 0 on every pass: 0.0 -> 3.054133834723416e-09,
# status unchanged.
FIXTURE = Path(__file__).parent / "data" / "verify_seed0_n20.json"


@pytest.fixture(scope="module")
def acceptance_report():
    return check_all(seed=0, instance_count=100)


class TestFullSuite:
    def test_every_check_registered_once(self, acceptance_report):
        names = [r.name for r in acceptance_report.results]
        assert names == list(CHECKS)
        assert len(set(names)) == len(names)

    def test_each_check_is_keyed_by_its_own_name(self):
        assert all(name == check.name for name, check in CHECKS.items())

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

    def test_unknown_check_rejected_before_any_check_runs(self, monkeypatch):
        runs = []
        monkeypatch.setitem(CHECKS, "hhi_profile", lambda rng, instances: runs.append(1))
        with pytest.raises(KeyError, match="bogus"):
            check_all(seed=0, instance_count=5, only=["hhi_profile", "bogus"])
        assert runs == []

    @pytest.mark.parametrize("declared", [True, False])
    def test_a_check_that_raises_fails_and_the_rest_run(self, monkeypatch, declared):
        """A declared check, or a bare wrapper like bench/spans.py's, that
        raises is one failed entry with the exception as its detail."""
        def observe(*args):
            raise core.DomainError("kernel bug")

        check = (verify._FunctionCheck("hhi_profile", "the claim", observe) if declared
                 else lambda rng, instances: observe())
        monkeypatch.setitem(CHECKS, "hhi_profile", check)
        report = check_all(seed=0, instance_count=5,
                           only=["hhi_profile", "special_case_means"])
        raised, after = report.results
        assert (raised.name, raised.status) == ("hhi_profile", "fail")
        assert raised.claim == ("the claim" if declared else "")
        assert raised.detail == "raised DomainError: kernel bug"
        assert after.name == "special_case_means" and after.status == "pass"
        assert not report.all_passed

        def reject(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        doc = json.loads(report.to_json(), parse_constant=reject)
        assert doc["checks"][0]["status"] == "fail"

    def test_a_name_given_twice_runs_once(self, monkeypatch):
        runs = []
        hhi = CHECKS["hhi_profile"]
        monkeypatch.setitem(CHECKS, "hhi_profile",
                            lambda rng, instances: runs.append(1) or hhi(rng, instances))
        report = check_all(seed=0, instance_count=5,
                           only=["hhi_profile", "special_case_means", "hhi_profile"])
        assert [r.name for r in report.results] == ["hhi_profile", "special_case_means"]
        assert runs == [1]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no check selected"):
            check_all(seed=0, instance_count=5, only=[])

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


def _skip_first_rows(log_ratios, exponents, holder_grids=verify._holder_grids):
    """_holder_grids without its first row set: each instance gets the next
    instance's rows, and the last gets none."""
    return itertools.islice(holder_grids(log_ratios, exponents), 1, None)


GRID_CHECKS = [name for name, check in CHECKS.items()
               if isinstance(check, verify._GridCheck)]
STENCIL_CHECKS = [name for name, check in CHECKS.items()
                  if isinstance(check, verify._StencilCheck)]


def _assert_rows_match(rho, weights, r: RatioSequence, exponents):
    """rho (unless None) and W equal r's own holder_grid rows at the
    exponents: rho to 1e-13 relative and W to 1e-15 absolute, the rounding
    that padding into a wider row can move."""
    want_rho, want_weights = holder_grid(r.log_ratios, HolderOrder(np.asarray(exponents)))
    assert weights.shape == want_weights.shape
    if rho is not None:
        np.testing.assert_allclose(rho, want_rho, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(weights, want_weights, rtol=0.0, atol=1e-15)


class TestBatchedReference:
    """The grid and stencil checks take every instance's rows from chunked
    holder_rows calls; each judge must see its own instance's rows."""

    def test_every_grid_and_stencil_check_is_covered(self):
        assert len(GRID_CHECKS) == 8 and len(STENCIL_CHECKS) == 3

    @pytest.mark.parametrize("name", GRID_CHECKS)
    def test_grid_judges_see_their_instances_rows(self, name):
        check = CHECKS[name]
        instances = 20
        seen = []

        def judge(res, r, grid, rho, weights):
            seen.append((r, rho, weights))
            check.judge(res, r, grid, rho, weights)

        result = dataclasses.replace(check, judge=judge)(check_rng(0, name), instances)
        assert result.to_dict() == check_all(0, instances, only=[name]).results[0].to_dict()
        rng = check_rng(0, name)
        drawn = [verify._random_ratios(rng) for _ in range(instances)]
        prepared = [r for r in map(check.prepare, drawn) if r is not None]
        assert prepared and len(seen) == len(prepared)
        for r, (judged, rho, weights) in zip(prepared, seen):
            np.testing.assert_array_equal(judged.ratios, r.ratios)
            _assert_rows_match(rho, weights, r, check.grid)

    def test_limit_concentration_judges_every_instance(self):
        """Its map moves each drawn sequence's largest log-ratio up by 0.5 and
        its smallest down by 0.5, drawing nothing more, so every instance is
        judged with both extremes 0.5 clear of the rest; its worst error is
        the smallest mass on the extremes' set short of 1, its margin."""
        name = "limit_concentration"
        check, seen = CHECKS[name], []

        def judge(res, r, grid, rho, weights):
            seen.append(r)
            check.judge(res, r, grid, rho, weights)

        result = dataclasses.replace(check, judge=judge)(check_rng(0, name), 100)
        assert result.status == "pass" and len(seen) == 100
        assert 0.0 < result.worst_error < 1e-3
        rng = check_rng(0, name)
        for r in seen:
            drawn = np.sort(verify._random_ratios(rng).log_ratios)
            logs = np.sort(r.log_ratios)
            np.testing.assert_allclose(logs, [drawn[0] - 0.5, *drawn[1:-1], drawn[-1] + 0.5],
                                       rtol=0.0, atol=1e-12)
            assert min(logs[-1] - logs[-2], logs[1] - logs[0]) >= 0.5 - 1e-12

    @pytest.mark.parametrize("name", STENCIL_CHECKS)
    def test_stencil_differences_see_their_instances_rows(self, name):
        check = CHECKS[name]
        drawn, seen = [], []

        def derivative(rng, r, order):
            analytic, of_weights = check.derivative(rng, r, order)
            drawn.append((r, order.p))

            def spy(weights):
                seen.append(weights)
                return of_weights(weights)

            return analytic, spy

        result = dataclasses.replace(check, derivative=derivative)(check_rng(0, name), 20)
        assert result.to_dict() == check_all(0, 20, only=[name]).results[0].to_dict()
        assert len(drawn) == len(seen) == 20
        for (r, p), weights in zip(drawn, seen):
            _assert_rows_match(None, weights, r, p + verify.P_FD_STENCIL)

    def test_holder_grids_match_per_sequence_grids_across_chunks(self, rng):
        count = 3 * verify.GRID_CHUNK + 4
        sequences = [RatioSequence(np.exp(rng.uniform(-2.0, 2.0, rng.integers(1, 40))))
                     for _ in range(count)]
        exponents = [rng.uniform(-8.0, 8.0, rng.integers(1, 30)) for _ in range(count)]
        grids = list(verify._holder_grids([r.log_ratios for r in sequences], exponents))
        assert len(grids) == count
        for r, ps, (rho, weights) in zip(sequences, exponents, grids):
            _assert_rows_match(rho, weights, r, ps)

    def test_bumped_stack_is_each_bumped_policys_table(self, rng):
        policy = verify._random_policy(rng)
        stack = verify._bumped_policies(policy)
        flat = policy.logits.ravel()
        tokens = rng.integers(0, policy.vocab, size=(3, policy.length))
        assert stack.log_probs.shape == (2 * flat.size, policy.length, policy.vocab)
        for k, table in enumerate(stack.log_probs):
            logits = flat.copy()
            logits[k // 2] = flat[k // 2] + (verify.FD_STEP if k % 2 == 0 else -verify.FD_STEP)
            bumped = PolicyParams(logits.reshape(policy.logits.shape))
            np.testing.assert_array_equal(table, bumped.log_probs)
            np.testing.assert_array_equal(
                table[np.arange(policy.length), tokens], bumped.token_logprobs(tokens)
            )


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

    def test_corrupted_weight_derivative_fails_fd_check(self, monkeypatch):
        def corrupted(ratios: RatioSequence, order: HolderOrder, t: int) -> float:
            return 1.1 * weight_p_derivative(ratios, order, t)

        monkeypatch.setattr(verify, "weight_p_derivative", corrupted)
        result = check_all(0, 50, only=["weight_derivative_vs_fd"]).results[0]
        assert result.status == "fail"
        assert result.worst_error > 1e-6

    def test_intact_formula_passes_same_instances(self):
        result = check_all(0, 50, only=["weight_derivative_vs_fd"]).results[0]
        assert result.status == "pass"

    def test_contraction_check_catches_flipped_gate(self, monkeypatch):
        def flipped(batch, order, regime, clip=None, batch_terms=verify.batch_terms):
            terms = batch_terms(batch, order, regime, clip)
            if regime != "sequence":
                return terms
            rho, adv = terms.row_scale, batch.advantages
            gated = ((adv < 0.0) & (rho > clip.high)) | ((adv > 0.0) & (rho < clip.low))
            return dataclasses.replace(terms, row_coef=np.where(gated, 0.0, adv))

        name = "seq_clip_norm_contraction"
        assert check_all(0, 100, only=[name]).results[0].status == "pass"
        monkeypatch.setattr(verify, "batch_terms", flipped)
        assert check_all(0, 100, only=[name]).results[0].status == "fail"

    @pytest.mark.parametrize("name", GRID_CHECKS + STENCIL_CHECKS)
    def test_misshapen_rows_fail_the_check_without_raising(self, name, monkeypatch):
        monkeypatch.setattr(verify, "_holder_grids", _skip_first_rows)
        result = check_all(0, 100, only=[name]).results[0]
        assert result.status == "fail"

    @pytest.mark.parametrize("name, detail", [
        # of one instance, that instance gets no rows at all
        ("limit_concentration", "rows for 0 of 1 instances"),
        # each of 100 instances gets the next one's rows, of another length
        ("weight_rise_then_fall", "W of shape"),
    ])
    def test_short_row_stream_fails_the_check(self, name, detail, monkeypatch):
        instances = 1 if name == "limit_concentration" else 100
        assert check_all(0, instances, only=[name]).results[0].status == "pass"
        monkeypatch.setattr(verify, "_holder_grids", _skip_first_rows)
        result = check_all(0, instances, only=[name]).results[0]
        assert result.status == "fail"
        assert result.detail.startswith(detail)
