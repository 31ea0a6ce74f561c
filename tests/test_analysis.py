"""Contraction verifiers, rate bounds, tail sandwich, rescue demo."""

import math

import numpy as np
import pytest

from ssem.analysis import (
    beta_theoretical,
    contraction_ratio,
    demonstrate_rescue,
    empirical_rate,
    gaussian_tail_sandwich,
    measurable_step_ratios,
    rate_bound_item1,
    rate_bound_item2,
    rate_bound_item3,
    unlabeled_pull_sym2,
    verify_theorem1,
    verify_theorem2,
)
from ssem.em import Trajectory
from ssem.errors import (
    DegenerateDenominator,
    DomainError,
    NotExpFam,
    ProbeOutsideRegime,
    ProbeTooCloseToFixedPoint,
    TrajectoryTooShort,
)
from ssem.model import (
    MixtureParams,
    ModelKind,
    exponential_spec,
    gaussian_spec,
    poisson_spec,
)
from ssem.population import PopulationModel, PopulationStep, run_population_em

GMM = ModelKind.gmm()
GMM2 = MixtureParams([0.5, 0.5], [-1.0, 1.0])
POISSON_STAR = MixtureParams([0.5, 0.5], [math.log(2.0), math.log(5.0)])


class TestBetaTheoretical:
    def test_no_labels_means_no_gain(self):
        assert beta_theoretical(0.37, 0.42, 0.0) == 1.0

    @pytest.mark.parametrize("gamma", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_symmetric_pair_closed_form(self, gamma):
        assert beta_theoretical(0.5, 0.5, gamma) == pytest.approx(
            1.0 - gamma, abs=1e-15)

    def test_direct_arithmetic(self):
        assert beta_theoretical(0.3, 0.25, 0.5) == pytest.approx(6.0 / 11.0,
                                                                 rel=1e-15)

    def test_rejects_gamma_one(self):
        with pytest.raises(DomainError):
            beta_theoretical(0.5, 0.5, 1.0)


class TestContractionRatio:
    def test_sym2_equals_one_minus_gamma(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            star = float(rng.uniform(0.3, 3.0))
            gamma = float(rng.uniform(0.05, 0.95))
            probe = MixtureParams.symmetric(star + float(rng.uniform(0.2, 3.0)))
            pm = PopulationModel.sym2(star, gamma)
            assert contraction_ratio(pm, probe, 1) == pytest.approx(
                1.0 - gamma, abs=1e-6)

    def test_gamma_zero_is_exactly_one(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        probe = MixtureParams.symmetric(2.4)
        assert contraction_ratio(pm, probe, 1) == 1.0

    def test_gmm_bounded_by_beta(self):
        from ssem.population import c_theta

        pm = PopulationModel(GMM, GMM2, 0.5)
        probe = MixtureParams([0.5, 0.5], [-1.0, 1.8])
        ratio = contraction_ratio(pm, probe, 1)
        beta = beta_theoretical(c_theta(pm, probe, 1), 0.5, 0.5)
        assert ratio <= beta + 1e-6

    def test_probe_at_fixed_point_rejected(self):
        pm = PopulationModel.sym2(1.5, 0.5)
        with pytest.raises(ProbeTooCloseToFixedPoint):
            contraction_ratio(pm, MixtureParams.symmetric(1.5), 1)


class TestVerifyTheorem1:
    def sym2_grid(self, star):
        return [MixtureParams.symmetric(star + off)
                for off in (0.2, 0.5, 0.8, 1.2, 1.7, 2.3, 3.0)]

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    def test_sym2_grid_passes(self, gamma):
        pm = PopulationModel.sym2(1.5, gamma)
        report = verify_theorem1(pm, self.sym2_grid(1.5))
        assert report.pass_all
        measured = [r for r in report.results if not r.skipped]
        assert len(measured) == 14
        for row in measured:
            assert row.ratio_empirical == pytest.approx(1.0 - gamma, abs=1e-6)

    def test_gamma_zero_degenerate(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        report = verify_theorem1(pm, self.sym2_grid(1.5))
        assert report.pass_all
        for row in report.results:
            if not row.skipped:
                assert row.ratio_empirical == 1.0
                assert row.beta_theory == 1.0

    def test_probe_at_truth_reported_skipped(self):
        pm = PopulationModel.sym2(1.5, 0.5)
        report = verify_theorem1(pm, [pm.theta_star])
        assert all(r.skipped for r in report.results)
        assert report.pass_all

    def test_decomposition_identity(self):
        pm = PopulationModel(GMM, GMM2, 0.25)
        probes = [MixtureParams([0.5, 0.5], [-1.0 + a, 1.0 + b])
                  for a, b in ((0.4, 0.6), (-0.3, 0.2), (0.8, -0.5))]
        report = verify_theorem1(pm, probes)
        assert report.pass_all
        for row in report.results:
            if not row.skipped and math.isfinite(row.kappa_empirical):
                assert row.r_empirical == pytest.approx(
                    row.ratio_empirical * row.kappa_empirical, abs=1e-12)

    def test_expfam_not_accepted(self):
        pm = PopulationModel(ModelKind.expfam(gaussian_spec()), GMM2, 0.5)
        with pytest.raises(DomainError):
            verify_theorem1(pm, [GMM2])


class TestVerifyTheorem2:
    def test_requires_expfam(self):
        with pytest.raises(NotExpFam):
            verify_theorem2(PopulationModel(GMM, GMM2, 0.5), [0.1])

    def test_gaussian_spec_matches_gmm_ratio(self):
        pm_exp = PopulationModel(ModelKind.expfam(gaussian_spec()), GMM2, 0.5)
        pm_gmm = PopulationModel(GMM, GMM2, 0.5)
        for eps in (0.2, 0.05):
            probe = MixtureParams(GMM2.pi, GMM2.theta + eps)
            for k in (0, 1):
                assert contraction_ratio(pm_exp, probe, k) == pytest.approx(
                    contraction_ratio(pm_gmm, probe, k), abs=1e-9)

    def test_gaussian_spec_taylor_exact(self):
        pm = PopulationModel(ModelKind.expfam(gaussian_spec()), GMM2, 0.5)
        report = verify_theorem2(pm, [0.2, 0.1, 0.05])
        assert report.pass_all
        assert all(s.taylor_exact for s in report.series)

    def test_poisson_limit_behavior(self):
        pm = PopulationModel(ModelKind.expfam(poisson_spec()), POISSON_STAR, 0.5)
        report = verify_theorem2(pm, [0.2, 0.1, 0.05, 0.025])
        assert report.pass_all
        for series in report.series:
            assert series.monotone
            assert not series.taylor_exact
            assert abs(series.taylor_slope - 2.0) <= 0.3
            assert series.gaps[-1] < series.gaps[0]

    def test_tiny_epsilons_skipped(self):
        pm = PopulationModel(ModelKind.expfam(poisson_spec()), POISSON_STAR, 0.5)
        report = verify_theorem2(pm, [1e-9])
        assert all(len(s.epsilons) == 0 for s in report.series)


class TestRateBoundItem1:
    def test_boundary_theta(self):
        report = rate_bound_item1(2.0 / math.e, 0.0)
        assert report.bound_value == pytest.approx(1.0, abs=1e-12)
        assert report.passed

    def test_theta_two(self):
        report = rate_bound_item1(2.0, 0.0)
        assert report.bound_value == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert report.applicable and report.passed

    def test_gamma_scaling_and_applicability(self):
        report = rate_bound_item1(1.0, 0.75)
        assert report.bound_value == pytest.approx(0.25 * 4.0 / math.e ** 2,
                                                   rel=1e-12)
        assert report.applicable  # 1 > (2/e) * 0.5
        assert report.passed

    def test_below_threshold_still_measures(self):
        report = rate_bound_item1(0.5, 0.0)
        assert not report.applicable
        assert report.measured_kappa <= 4.0 / (0.25 * math.e ** 2) + 1e-8


class TestRateBoundItem2:
    def test_arithmetic_against_independent_recomputation(self):
        from mpmath import mp, exp as mpexp, mpf

        mp.dps = 30
        t = mpf(2)
        oracle = 4 * ((1 / (t ** 2 * mpexp(2))) * mpexp(-9 * t ** 2 / 32)
                      + (t ** 2 / 16) * mpexp(-t ** 2 / 2))
        report = rate_bound_item2(2.0, 0.0)
        assert report.bound_value == pytest.approx(float(oracle), rel=1e-12)
        assert report.bound_value == pytest.approx(0.17927221686002011,
                                                   rel=1e-12)
        assert report.passed
        assert not report.applicable  # strict theta* > 2

    def test_vanishes_for_large_separation(self):
        assert rate_bound_item2(8.0, 0.0).bound_value < 1e-6

    def test_gamma_halves_bound(self):
        b0 = rate_bound_item2(3.0, 0.0)
        b5 = rate_bound_item2(3.0, 0.5)
        assert b5.bound_value == pytest.approx(0.5 * b0.bound_value, rel=1e-14)
        assert b5.passed and b5.applicable

    @pytest.mark.parametrize("star", [2.1, 2.5, 3.0, 4.0])
    def test_dominates_measured_derivative(self, star):
        report = rate_bound_item2(star, 0.0)
        assert report.applicable
        assert report.measured_kappa <= report.bound_value + 1e-8

    @pytest.mark.parametrize("star", [2.5, 3.0, 4.0])
    def test_tighter_than_supremum_bound_at_wide_separation(self, star):
        assert rate_bound_item2(star, 0.0).extras["tighter_than_item1"]

    def test_comparison_reported_near_threshold(self):
        # Just above the applicability edge the two-term bound is looser;
        # the report carries the comparison either way.
        extras = rate_bound_item2(2.1, 0.0).extras
        assert "tighter_than_item1" in extras
        assert not extras["tighter_than_item1"]


class TestRateBoundItem3:
    def test_constant_value(self):
        report = rate_bound_item3(1.0, 0.0, 2.5)
        assert report.extras["smoothness_const"] == pytest.approx(
            0.05377127211536519, rel=1e-12)

    def test_probe_regime_enforced(self):
        with pytest.raises(ProbeOutsideRegime):
            rate_bound_item3(1.0, 0.0, 1.9)

    def test_boundary_not_applicable(self):
        report = rate_bound_item3(0.5, 0.0, 2.0)
        assert not report.applicable
        assert report.passed  # vacuous

    def test_pull_fixed_point_identity(self):
        # -E[q(Y; theta*) Y] = theta*/2: the scalar update at the truth is
        # twice the pull and equals theta*.
        pm = PopulationModel.sym2(1.5, 0.0)
        assert unlabeled_pull_sym2(pm, 1.5) == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("star", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("offset", [1.01, 2.0, 4.0])
    def test_boundary_term_restores_the_bound(self, star, offset):
        # The stated constant is exceeded at moderate separations; adding
        # the dropped half-line boundary term makes the bound hold on the
        # whole grid.
        report = rate_bound_item3(star, 0.0, star + offset)
        assert report.extras["boundary_term_ok"]

    def test_known_violation_reported_honestly(self):
        report = rate_bound_item3(2.0, 0.0, 3.01)
        assert report.applicable
        assert not report.extras["smoothness_ok_scaled"]
        assert not report.passed


class TestTailSandwich:
    def test_values_against_mpmath(self):
        from mpmath import mp, erfc as mperfc, exp as mpexp, pi as mppi, sqrt as mpsqrt

        mp.dps = 40
        for t in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
            lower, upper, tail = gaussian_tail_sandwich(t)
            oracle_tail = float(mperfc(t / mpsqrt(2)) / 2)
            oracle_phi = float(mpexp(-mp.mpf(t) ** 2 / 2) / mpsqrt(2 * mppi))
            assert tail == pytest.approx(oracle_tail, abs=1e-12)
            assert upper == pytest.approx(oracle_phi / t, rel=1e-13)
            assert lower < tail < upper

    def test_t_one_lower_vacuous(self):
        lower, upper, tail = gaussian_tail_sandwich(1.0)
        assert lower == 0.0
        assert tail == pytest.approx(0.15865525393145707, abs=1e-12)
        assert upper == pytest.approx(0.24197072451914337, abs=1e-12)

    def test_t_two_frozen_values(self):
        lower, upper, tail = gaussian_tail_sandwich(2.0)
        assert lower == pytest.approx(0.375 * 0.05399096651318806, rel=1e-12)
        assert tail == pytest.approx(0.022750131948179195, abs=1e-12)

    def test_relative_width_tightens(self):
        lower, upper, tail = gaussian_tail_sandwich(5.0)
        assert (upper - lower) / tail < 0.05

    def test_requires_positive_t(self):
        with pytest.raises(DomainError):
            gaussian_tail_sandwich(0.0)


class TestEmpiricalRate:
    def test_population_rate_below_derivative_bound(self):
        pm = PopulationModel.sym2(2.0, 0.0)
        traj = run_population_em(pm, MixtureParams.symmetric(3.0), max_iters=30)
        rate = empirical_rate(traj, pm.theta_star)
        assert rate <= math.exp(-2.0) + 1e-6

    def test_gamma_scales_rate(self):
        pm = PopulationModel.sym2(2.0, 0.9)
        traj = run_population_em(pm, MixtureParams.symmetric(3.0), max_iters=30)
        rate = empirical_rate(traj, pm.theta_star)
        assert rate <= 0.1 * math.exp(-2.0) + 1e-6

    def test_constant_trajectory_rejected(self):
        star = MixtureParams.symmetric(1.0)
        traj = Trajectory(iterates=[star, star, star, star])
        with pytest.raises(TrajectoryTooShort):
            empirical_rate(traj, star)

    def test_measurable_ratios_fallback(self):
        pm = PopulationModel.sym2(5.0, 0.0)
        traj = run_population_em(pm, MixtureParams.symmetric(5.5), max_iters=10)
        with pytest.raises(TrajectoryTooShort):
            empirical_rate(traj, pm.theta_star)
        ratios = measurable_step_ratios(traj, pm.theta_star)
        assert ratios and max(ratios) <= 4.0 / (25.0 * math.e ** 2) + 1e-6


class TestDemonstrateRescue:
    def test_sym2_no_rescue_needed(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        report = demonstrate_rescue(pm)
        assert report.status == "no_rescue_needed"
        assert report.kappa_measured < 1.0
        assert report.gamma_min < 0.0
        assert report.pass_all

    def test_gamma_min_root_identity(self):
        pm = PopulationModel.sym2(0.8, 0.0)
        report = demonstrate_rescue(pm)
        kappa, c, g = report.kappa_measured, report.c_at_kappa, report.gamma_min
        pi_k = 0.5
        beta_at_gmin = c / (pi_k * g / (1.0 - g) + c)
        assert beta_at_gmin * kappa == pytest.approx(1.0, abs=1e-9)

    def test_step_ratios_below_beta_kappa(self):
        pm = PopulationModel.sym2(1.0, 0.0)
        report = demonstrate_rescue(pm)
        for key, ratios in report.step_ratios.items():
            assert all(r <= report.ratio_bounds[key] for r in ratios)

    def test_probes_outside_natural_domain_skipped(self):
        # Offsets >= 1 push the exponential component at -1 past the
        # natural-domain boundary 0; those probes are skipped.
        pm = PopulationModel(ModelKind.expfam(exponential_spec()),
                             MixtureParams([0.5, 0.5], [-1.0, -3.0]), 0.1)
        report = demonstrate_rescue(pm, probe_offsets=[0.2, 0.5, 1.2, 3.0])
        assert max(report.kappa_probe) < 0.0
        assert report.step_ratios

    def test_underflowing_component_skipped(self):
        # At offset 4 the Poisson component at log-mean 2 takes almost no
        # responsibility: its E[q_k] underflows the denominator guard.
        pm = PopulationModel(ModelKind.expfam(poisson_spec()),
                             MixtureParams([0.5, 0.5], [0.5, 2.0]), 0.1)
        far = PopulationStep.at(pm.with_gamma(0.0),
                                MixtureParams([0.5, 0.5], [4.5, 6.0]))
        with pytest.raises(DegenerateDenominator):
            far.m0(1)
        report = demonstrate_rescue(pm, probe_offsets=[0.5, 1.2, 4.0])
        assert math.isfinite(report.kappa_measured)
        assert report.step_ratios
