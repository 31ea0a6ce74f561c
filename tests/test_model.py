"""Density, responsibility, and mean-function inversion checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssem.errors import DomainError, MeanOutOfRange
from ssem.model import (
    LOG_SQRT_2PI,
    ExpFamilySpec,
    MixtureParams,
    ModelKind,
    Support,
    component_log_density,
    exponential_spec,
    gaussian_spec,
    invert_alpha_prime,
    log_responsibilities,
    marginal_log_density,
    poisson_spec,
    responsibilities,
    responsibility,
)

GMM = ModelKind.gmm()
SYM2 = ModelKind.sym2()


class TestComponentLogDensity:
    def test_standard_normal_at_mode(self):
        params = MixtureParams([1.0], [0.0])
        assert component_log_density(GMM, 0, params, 0.0) == pytest.approx(
            -LOG_SQRT_2PI, abs=1e-15)

    def test_translation_invariant_at_mode(self):
        params = MixtureParams([1.0], [1.0])
        assert component_log_density(GMM, 0, params, 1.0) == pytest.approx(
            -LOG_SQRT_2PI, abs=1e-15)

    def test_gaussian_spec_matches_gmm(self):
        kind = ModelKind.expfam(gaussian_spec())
        params = MixtureParams([1.0], [0.7])
        assert component_log_density(kind, 0, params, -0.3) == pytest.approx(
            component_log_density(GMM, 0, params, -0.3), abs=1e-13)

    def test_bad_component_index(self):
        params = MixtureParams([0.5, 0.5], [0.0, 1.0])
        with pytest.raises(DomainError):
            component_log_density(GMM, 2, params, 0.0)

    def test_natural_domain_violation_is_hard_error(self):
        kind = ModelKind.expfam(exponential_spec())
        with pytest.raises(DomainError):
            component_log_density(kind, 0, MixtureParams([1.0], [0.5]), 1.0)


class TestMarginalLogDensity:
    def test_sym2_collapsed(self):
        params = MixtureParams.symmetric(0.0)
        for y in (-2.0, 0.0, 3.5):
            assert marginal_log_density(SYM2, params, y) == pytest.approx(
                -0.5 * y * y - LOG_SQRT_2PI, abs=1e-14)

    def test_sym2_at_origin(self):
        params = MixtureParams.symmetric(1.0)
        assert marginal_log_density(SYM2, params, 0.0) == pytest.approx(
            -1.4189385332046727, abs=1e-14)

    def test_gmm_against_direct_summation(self):
        # Independent high-precision oracle: direct weighted sum of normal
        # densities at 40 decimal digits.
        from mpmath import mp, exp as mpexp, log as mplog, sqrt as mpsqrt, pi as mppi

        mp.dps = 40
        pi_w, theta, y = (0.3, 0.7), (-1.0, 2.0), 0.5
        oracle = mplog(sum(
            w * mpexp(-(mp.mpf(y) - t) ** 2 / 2) / mpsqrt(2 * mppi)
            for w, t in zip(pi_w, theta)))
        params = MixtureParams(pi_w, theta)
        assert marginal_log_density(GMM, params, y) == pytest.approx(
            float(oracle), abs=1e-14)

    @given(theta=st.floats(-50, 50), y=st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_no_overflow_for_large_arguments(self, theta, y):
        params = MixtureParams.symmetric(abs(theta))
        assert math.isfinite(marginal_log_density(SYM2, params, y))


class TestResponsibility:
    def test_sym2_at_origin_is_half(self):
        params = MixtureParams.symmetric(1.5)
        assert responsibility(SYM2, params, 0.0, 0) == pytest.approx(0.5, abs=0)

    def test_sym2_logistic_value(self):
        params = MixtureParams.symmetric(1.0)
        assert responsibility(SYM2, params, 1.0, 0) == pytest.approx(
            1.0 / (1.0 + math.e ** 2), rel=1e-14)

    def test_k3_dominant_component(self):
        params = MixtureParams([1 / 3, 1 / 3, 1 / 3], [-2.0, 0.0, 2.0])
        q = responsibilities(GMM, params, np.array([10.0]))[0]
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert q[2] > 0.999

    @pytest.mark.parametrize("kind", [GMM, ModelKind.expfam(gaussian_spec()), SYM2],
                             ids=["gmm", "expfam-gaussian", "sym2"])
    def test_far_tail_rows_stay_finite(self, kind):
        # |y| beyond 1e154 overflows y**2; the natural-form logits never
        # form it, so the near component takes the whole mass.
        params = MixtureParams.symmetric(1.0)
        y = np.array([1e154, 1e155, -1e200])
        q = responsibilities(kind, params, y)
        assert np.all(np.isfinite(q))
        np.testing.assert_array_equal(q.sum(axis=1), 1.0)
        np.testing.assert_array_equal(q[:, 1], [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(q[:, 0], [0.0, 0.0, 1.0])

    @given(st.floats(-20, 20), st.floats(-6, 6))
    @settings(max_examples=200, deadline=None)
    def test_sym2_complementarity(self, y, theta):
        params = MixtureParams.symmetric(theta)
        q_pos = responsibility(SYM2, params, y, 0)
        q_neg = responsibility(SYM2, params, -y, 0)
        assert q_pos + q_neg == pytest.approx(1.0, abs=1e-15)

    @given(st.integers(2, 4), st.floats(-8, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, K, y, seed):
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(K) * 2.0)
        pi = pi / pi.sum()
        params = MixtureParams(pi, rng.normal(scale=3.0, size=K))
        q = responsibilities(GMM, params, np.array([y]))[0]
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance_of_log_densities(self):
        # Adding the same constant to carrier and log-partition leaves the
        # component density (hence the posterior) untouched.
        base = gaussian_spec()
        shifted = ExpFamilySpec(
            name="gaussian-shifted",
            t=base.t,
            log_carrier=lambda y: base.log_carrier(y) + 5.0,
            alpha=lambda th: base.alpha(th) + 5.0,
            alpha_prime=base.alpha_prime,
            alpha_second=base.alpha_second,
            natural_domain=base.natural_domain,
            support=base.support,
        )
        params = MixtureParams([0.25, 0.75], [-1.0, 0.5])
        y = np.linspace(-3, 3, 13)
        q1 = responsibilities(ModelKind.expfam(base), params, y)
        q2 = responsibilities(ModelKind.expfam(shifted), params, y)
        np.testing.assert_allclose(q1, q2, atol=1e-14)

    def test_gaussian_spec_path_equals_gmm_path(self):
        kind = ModelKind.expfam(gaussian_spec())
        grid = np.arange(-3.0, 3.5, 1.0)
        for t1 in grid:
            for t2 in grid:
                if t1 == t2:
                    continue
                params = MixtureParams([0.4, 0.6], [t1, t2])
                for y in grid:
                    a = marginal_log_density(kind, params, y)
                    b = marginal_log_density(GMM, params, y)
                    assert a == pytest.approx(b, abs=1e-12)
                qa = responsibilities(kind, params, grid)
                qb = responsibilities(GMM, params, grid)
                np.testing.assert_allclose(qa, qb, atol=1e-12)


class TestMixtureParams:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            MixtureParams([0.5, 0.4], [0.0, 1.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            MixtureParams([1.0, 0.0][::-1], [0.0, 1.0])

    def test_immutable(self):
        params = MixtureParams([1.0], [0.0])
        with pytest.raises(AttributeError):
            params.theta = np.array([1.0])
        with pytest.raises(ValueError):
            params.theta[0] = 1.0

    def test_sym2_scalar_roundtrip(self):
        assert MixtureParams.symmetric(1.25).sym2_scalar() == 1.25
        with pytest.raises(DomainError):
            MixtureParams([0.5, 0.5], [-1.0, 1.5]).sym2_scalar()


class TestModelKindParams:
    def test_sym2_takes_one_scalar_and_no_weights(self):
        def no_weights(k):
            raise AssertionError("sym2 must not ask for weights")

        assert SYM2.params(1.25, no_weights) == MixtureParams.symmetric(1.25)

    def test_sym2_rejects_a_list(self):
        with pytest.raises((TypeError, ValueError)):
            SYM2.params([1.0, 2.0], lambda k: [0.5, 0.5])

    def test_vector_takes_one_entry_per_weight(self):
        asked = []

        def weights(k):
            asked.append(k)
            return [0.3, 0.7]

        params = GMM.params([-1, 2.5], weights)
        assert asked == [2]
        assert params == MixtureParams([0.3, 0.7], [-1.0, 2.5])

    def test_entry_count_must_match_weights(self):
        with pytest.raises(DomainError):
            GMM.params([0.0, 1.0, 2.0], lambda k: [0.5, 0.5])

    def test_out_of_domain_value_raises(self):
        kind = ModelKind.expfam(exponential_spec())
        with pytest.raises(DomainError):
            kind.params([-1.0, 0.5], lambda k: [0.5, 0.5])


class TestModelKindShift:
    def test_sym2_moves_along_the_tie(self):
        shifted = SYM2.shift(MixtureParams.symmetric(1.5), 0.5)
        assert shifted == MixtureParams.symmetric(2.0)

    def test_vector_moves_every_component(self):
        base = MixtureParams([0.2, 0.3, 0.5], [-3.0, 0.0, 3.0])
        shifted = GMM.shift(base, -0.25)
        np.testing.assert_array_equal(shifted.pi, base.pi)
        np.testing.assert_array_equal(shifted.theta, base.theta - 0.25)

    def test_out_of_domain_shift_raises(self):
        kind = ModelKind.expfam(exponential_spec())
        base = MixtureParams([0.5, 0.5], [-1.0, -3.0])
        assert kind.shift(base, 0.5) == MixtureParams([0.5, 0.5], [-0.5, -2.5])
        with pytest.raises(DomainError):
            kind.shift(base, 1.2)


class TestInvertAlphaPrime:
    def test_poisson(self):
        assert invert_alpha_prime(poisson_spec(), 3.0) == pytest.approx(
            math.log(3.0), abs=1e-12)

    def test_exponential(self):
        assert invert_alpha_prime(exponential_spec(), 2.0) == pytest.approx(
            -0.5, abs=1e-12)

    def test_gaussian_identity(self):
        assert invert_alpha_prime(gaussian_spec(), -1.7) == pytest.approx(
            -1.7, abs=1e-13)

    def test_out_of_range(self):
        # Exponential-distribution means are strictly positive.
        with pytest.raises(MeanOutOfRange):
            invert_alpha_prime(exponential_spec(), -2.0)

    @given(st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_poisson_roundtrip(self, theta):
        spec = poisson_spec()
        recovered = invert_alpha_prime(spec, float(np.exp(theta)))
        assert recovered == pytest.approx(theta, abs=1e-10)

    # Newton's absolute 1e-12 residual on alpha' says nothing about x when
    # alpha' is far below or far above 1; the built-ins invert exactly.
    def test_poisson_small_mean_exact(self):
        assert invert_alpha_prime(poisson_spec(), 1e-14, x0=0.0) == pytest.approx(
            math.log(1e-14), rel=1e-15)

    def test_poisson_zero_mean_out_of_range(self):
        with pytest.raises(MeanOutOfRange):
            invert_alpha_prime(poisson_spec(), 0.0)

    def test_exponential_small_mean_exact(self):
        assert invert_alpha_prime(exponential_spec(), 1e-9) == pytest.approx(
            -1e9, rel=1e-15)

    @pytest.mark.parametrize("target, expected", [(1e-300, -1e300),
                                                  (1e300, -1e-300)])
    def test_exponential_extreme_means_in_domain(self, target, expected):
        assert invert_alpha_prime(exponential_spec(), target) == pytest.approx(
            expected, rel=1e-15)

    @pytest.mark.parametrize("target", [0.0, 1e-320, -2.0])
    def test_exponential_closed_form_rejects_off_domain(self, target):
        # -1/mu is -inf, overflows, or lands at or above 0.
        with pytest.raises(MeanOutOfRange):
            invert_alpha_prime(exponential_spec(), target)

    def test_user_family_without_inverse_uses_newton(self):
        spec = dataclasses.replace(poisson_spec(), alpha_prime_inv=None)
        assert invert_alpha_prime(spec, 3.0) == pytest.approx(
            math.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("make", [gaussian_spec, poisson_spec,
                                      exponential_spec])
    def test_builtin_inverse_undoes_mean(self, make):
        spec = make()
        for theta in (-7.5, -1.0, -0.01):
            mean = float(spec.alpha_prime(np.float64(theta)))
            assert invert_alpha_prime(spec, mean) == pytest.approx(
                theta, rel=4e-16)


def test_support_validation():
    with pytest.raises(ValueError):
        Support("complex")


def test_log_responsibilities_match_exp():
    params = MixtureParams([0.2, 0.8], [-1.0, 2.0])
    y = np.linspace(-4, 4, 9)
    np.testing.assert_allclose(
        np.exp(log_responsibilities(GMM, params, y)),
        responsibilities(GMM, params, y), atol=1e-15)
