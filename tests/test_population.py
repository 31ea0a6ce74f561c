"""Population operator checks: fixed points, oracles, consistency."""

import math

import numpy as np
import pytest

import ssem.population as population
from ssem.errors import DegenerateDenominator, DomainError, QuadratureFailure
from ssem.model import (
    MixtureParams,
    ModelKind,
    gaussian_spec,
    poisson_spec,
    responsibilities,
)
from ssem.population import (
    PopulationModel,
    PopulationStep,
    QuadratureScheme,
    c_theta,
    dm0_dtheta_sym2,
    expect,
    pop_m0,
    pop_m_gamma,
    run_population_em,
    theta_star_from_labels,
)
from ssem.sampling import SampleConfig, sample_dataset

GMM = ModelKind.gmm()
SYM2 = ModelKind.sym2()

GMM2 = MixtureParams([0.5, 0.5], [-1.0, 1.0])
GMM3 = MixtureParams([0.2, 0.5, 0.3], [-2.0, 0.0, 2.0])


def mc_expectation(kind, star, f, n=10_000_000, seed=77):
    """Monte Carlo oracle for E[f(Y)] under the true marginal."""
    ds = sample_dataset(kind, star, SampleConfig(seed=seed, m=0, n=n))
    vals = f(ds.unlabeled_y)
    return vals.mean(), vals.std() / math.sqrt(n)


class TestExpect:
    def test_density_normalization(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        assert expect(pm, lambda y: np.ones_like(y)) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_first_moment(self):
        pm = PopulationModel.sym2(2.0, 0.0)
        assert expect(pm, lambda y: y) == pytest.approx(0.0, abs=1e-10)

    def test_second_moment(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        assert expect(pm, lambda y: y * y) == pytest.approx(3.25, abs=1e-10)

    def test_poisson_discrete_moments(self):
        star = MixtureParams([0.5, 0.5], [math.log(2.0), math.log(5.0)])
        pm = PopulationModel(ModelKind.expfam(poisson_spec()), star, 0.0)
        assert expect(pm, lambda y: np.ones_like(y)) == pytest.approx(1.0, abs=1e-12)
        assert expect(pm, lambda y: y) == pytest.approx(3.5, abs=1e-10)


class TestCTheta:
    def test_sym2_always_half(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pm = PopulationModel.sym2(float(rng.uniform(0.0, 4.0)),
                                      float(rng.uniform(0.0, 0.9)))
            probe = MixtureParams.symmetric(float(rng.uniform(-4.0, 4.0)))
            for k in (0, 1):
                assert c_theta(pm, probe, k) == pytest.approx(0.5, abs=1e-10)

    def test_expected_responsibility_is_weight_at_truth(self):
        pm = PopulationModel(GMM, GMM3, 0.0)
        for k in range(3):
            assert c_theta(pm, GMM3, k) == pytest.approx(GMM3.pi[k], abs=1e-10)

    def test_far_separated_saturates_to_weights(self):
        star = MixtureParams([0.5, 0.5], [-10.0, 10.0])
        pm = PopulationModel(GMM, star, 0.0)
        value = c_theta(pm, star, 0)
        assert value == pytest.approx(0.5, abs=1e-6)
        mc, se = mc_expectation(
            GMM, star, lambda y: responsibilities(GMM, star, y)[:, 0],
            n=1_000_000)
        assert abs(value - mc) < 4 * se

    def test_equal_weight_relabeling_symmetry(self):
        pm = PopulationModel(GMM, GMM2, 0.0)
        assert c_theta(pm, GMM2, 0) == pytest.approx(c_theta(pm, GMM2, 1),
                                                     abs=1e-10)


class TestPopM0:
    def test_zero_probe_maps_to_zero(self):
        # At probe 0 the responsibilities are identically 1/2, so the tied
        # update vanishes whatever the truth.
        for star in (0.0, 1.0, 2.5):
            pm = PopulationModel.sym2(star, 0.0)
            assert pop_m0(pm, MixtureParams.symmetric(0.0), 1) == pytest.approx(
                0.0, abs=1e-10)

    def test_degenerate_truth_decays_toward_zero(self):
        # With a point-mass truth the update strictly shrinks positive
        # probes (tanh(x) < x), approaching the origin only in the limit.
        pm = PopulationModel.sym2(0.0, 0.0)
        for theta in (0.5, 1.0, 3.0):
            value = pop_m0(pm, MixtureParams.symmetric(theta), 1)
            assert 0.0 < value < theta

    def test_between_truth_and_probe(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        value = pop_m0(pm, MixtureParams.symmetric(3.0), 1)
        assert 1.5 < value < 3.0
        mc, se = mc_expectation(
            SYM2, MixtureParams.symmetric(1.5),
            lambda y: -2.0 * responsibilities(
                SYM2, MixtureParams.symmetric(3.0), y)[:, 0] * y)
        assert abs(value - mc) < 4 * se

    def test_component_sign_convention(self):
        pm = PopulationModel.sym2(1.0, 0.0)
        probe = MixtureParams.symmetric(2.0)
        assert pop_m0(pm, probe, 0) == -pop_m0(pm, probe, 1)

    def test_degenerate_denominator(self):
        pm = PopulationModel(GMM, GMM2, 0.0)
        probe = MixtureParams([0.5, 0.5], [0.0, 40.0])
        with pytest.raises(DegenerateDenominator):
            pop_m0(pm, probe, 1)


class TestComponentIndex:
    @pytest.mark.parametrize("op", [pop_m0, pop_m_gamma, c_theta],
                             ids=["pop_m0", "pop_m_gamma", "c_theta"])
    @pytest.mark.parametrize("pm, probe", [
        (PopulationModel(GMM, GMM3, 0.3), GMM3.with_theta([-1.5, 0.5, 2.5])),
        (PopulationModel.sym2(1.5, 0.3), MixtureParams.symmetric(2.0)),
    ], ids=["gmm3", "sym2"])
    def test_out_of_range_is_domain_error(self, op, pm, probe):
        # -1 must not read component K-1, nor K raise a bare IndexError.
        for k in (-1, probe.K):
            with pytest.raises(DomainError, match="out of range"):
                op(pm, probe, k)


class TestPopMGamma:
    def test_gamma_zero_is_bitwise_m0(self):
        pm = PopulationModel(GMM, GMM3, 0.0)
        probe = MixtureParams(GMM3.pi, [-2.4, 0.3, 2.5])
        for k in range(3):
            assert pop_m_gamma(pm, probe, k) == pop_m0(pm, probe, k)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.9])
    def test_fixed_point_all_kinds(self, gamma):
        models = [
            PopulationModel.sym2(1.5, gamma),
            PopulationModel(GMM, GMM2, gamma),
            PopulationModel(GMM, GMM3, gamma),
            PopulationModel(ModelKind.expfam(gaussian_spec()), GMM2, gamma),
            PopulationModel(
                ModelKind.expfam(poisson_spec()),
                MixtureParams([0.5, 0.5], [math.log(2.0), math.log(5.0)]), gamma),
        ]
        for pm in models:
            for k in range(pm.theta_star.K):
                value = pop_m_gamma(pm, pm.theta_star, k)
                assert abs(value - pm.theta_star.theta[k]) <= 2e-10

    def test_sym2_two_code_paths_agree(self):
        # Both kinds run the one tie rule; only the tie differs.  At a
        # symmetric probe under a symmetric truth the untied gmm update is
        # itself symmetric (E[q_0] = E[q_1], E[q_0 Y] = -E[q_1 Y]), so the
        # tied value (n_1 - n_0) / (d_0 + d_1) equals the untied n_k / d_k.
        star_pair = MixtureParams.symmetric(1.0)
        probe = MixtureParams.symmetric(2.0)
        pm_sym = PopulationModel.sym2(1.0, 0.5)
        pm_gmm = PopulationModel(GMM, star_pair, 0.5)
        for k in (0, 1):
            assert pop_m_gamma(pm_sym, probe, k) == pytest.approx(
                pop_m_gamma(pm_gmm, probe, k), abs=1e-9)

    def test_sym2_convex_combination_identity(self):
        # The tied update mixes E[q_k t(Y)] and E[q_k] with the labeled
        # moments; for the pair E[q_0 + q_1] = 1, so it is the convex
        # combination (1 - gamma) M_0 + gamma theta* up to quadrature error.
        rng = np.random.default_rng(11)
        cases = [(1.0, 2.0, 0.5)] + [
            (float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.05, 4.0)),
             float(rng.uniform(0.0, 0.95))) for _ in range(6)]
        for star, probe_value, gamma in cases:
            pm = PopulationModel.sym2(star, gamma)
            pm0 = pm.with_gamma(0.0)
            probe = MixtureParams.symmetric(probe_value)
            for k, sign in ((0, -1.0), (1, 1.0)):
                lhs = pop_m_gamma(pm, probe, k)
                rhs = (1.0 - gamma) * pop_m0(pm0, probe, k) + gamma * sign * star
                assert lhs == pytest.approx(rhs, abs=1e-12), (star, probe, gamma)

    def test_gamma_one_rejected(self):
        with pytest.raises(DomainError):
            PopulationModel.sym2(1.0, 1.0)


class TestThetaStarFromLabels:
    def test_gaussian_exact(self):
        pm = PopulationModel(GMM, GMM3, 0.3)
        for k in range(3):
            assert theta_star_from_labels(pm, k) == GMM3.theta[k]

    def test_poisson_inversion(self):
        star = MixtureParams([0.5, 0.5], [math.log(3.0), math.log(7.0)])
        pm = PopulationModel(ModelKind.expfam(poisson_spec()), star, 0.3)
        assert theta_star_from_labels(pm, 0) == pytest.approx(math.log(3.0),
                                                              abs=1e-12)

    def test_sym2_pair(self):
        pm = PopulationModel.sym2(1.25, 0.0)
        assert theta_star_from_labels(pm, 0) == -1.25
        assert theta_star_from_labels(pm, 1) == 1.25


class TestDerivative:
    def test_at_zero_equals_second_moment(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        assert dm0_dtheta_sym2(pm, 0.0) == pytest.approx(1.0 + 1.5 ** 2,
                                                         abs=1e-9)

    def test_bounded_by_supremum_at_truth(self):
        pm = PopulationModel.sym2(2.0, 0.0)
        assert dm0_dtheta_sym2(pm, 2.0) <= math.exp(-2.0) + 1e-8

    def test_matches_central_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            star = float(rng.uniform(0.4, 3.0))
            theta = float(rng.uniform(0.2, 2.0 * star + 1.0))
            pm = PopulationModel.sym2(star, 0.0)
            analytic = dm0_dtheta_sym2(pm, theta)
            h = 1e-5
            fd = (pop_m0(pm, MixtureParams.symmetric(theta + h), 1)
                  - pop_m0(pm, MixtureParams.symmetric(theta - h), 1)) / (2 * h)
            assert analytic >= 0.0
            assert abs(analytic - fd) < 1e-6

    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.5, 3.0, 12.0])
    def test_is_the_closed_form_of_the_kernel_row(self, theta):
        # q_0 q_1 at (-theta, theta) is z / (1 + z)^2 with z = exp(-2|y|theta).
        pm = PopulationModel.sym2(1.5, 0.0)

        def closed_form(y):
            z = np.exp(-2.0 * np.abs(y) * theta)
            return 4.0 * y * y * z / (1.0 + z) ** 2

        assert dm0_dtheta_sym2(pm, theta) == pytest.approx(
            expect(pm, closed_form), abs=2e-10)

    def test_requires_sym2_and_nonnegative_probe(self):
        pm = PopulationModel(GMM, GMM2, 0.0)
        with pytest.raises(DomainError):
            dm0_dtheta_sym2(pm, 1.0)
        with pytest.raises(DomainError):
            dm0_dtheta_sym2(PopulationModel.sym2(1.0, 0.0), -0.5)


class TestShapeOnRay:
    def test_monotone_concave_above_truth(self):
        pm = PopulationModel.sym2(1.5, 0.0)
        grid = np.arange(1.5, 4.0 + 1e-9, 0.1)
        values = np.array([pop_m0(pm, MixtureParams.symmetric(t), 1)
                           for t in grid])
        diffs = np.diff(values)
        assert np.all(diffs >= -2e-10)
        assert np.all(np.diff(diffs) <= 2e-10)


class TestFiniteSampleConsistency:
    def test_sym2_m_step_matches_population(self):
        from ssem.em import m_step_sym2
        from ssem.sampling import SampleConfig

        star, gamma, probe = 1.2, 0.5, 2.1
        pm = PopulationModel.sym2(star, gamma)
        target = pop_m_gamma(pm, MixtureParams.symmetric(probe), 1)

        total = 1_000_000
        m = int(round(gamma * total))
        ds = sample_dataset(SYM2, MixtureParams.symmetric(star),
                            SampleConfig(seed=29, m=m, n=total - m))
        estimate = m_step_sym2(ds, probe)

        lab = (1.0 - 2.0 * (ds.labeled_x == 0)) * ds.labeled_y
        q = responsibilities(SYM2, MixtureParams.symmetric(probe),
                             ds.unlabeled_y)[:, 0]
        unl = (1.0 - 2.0 * q) * ds.unlabeled_y
        se = math.sqrt(ds.m * lab.var() + ds.n * unl.var()) / total
        assert abs(estimate - target) < 4 * se

    @pytest.mark.parametrize("probe", [(0.8, 1.7), (0.0, 2.5), (1.2, 3.0)])
    def test_grouped_sample_estep_is_population_moments(self, probe):
        # On an integer support the population moments are a sum over the
        # truth's support points: the grouped sample E-step with no labels,
        # the truth's mass in place of the counts.
        from ssem import em
        from ssem.population import _TruthGrid

        pm = PopulationModel(ModelKind.expfam(poisson_spec()),
                             MixtureParams([0.5, 0.5], [0.5, 2.0]), 0.1)
        theta = MixtureParams(pm.theta_star.pi, probe)
        grid = _TruthGrid.of(pm)
        S, N = em._sufficient_statistics(
            pm.kind, theta, (np.zeros(2), np.zeros(2)),
            (grid.nodes, grid.density))
        step = PopulationStep.at(pm, theta)
        q = responsibilities(pm.kind, theta, grid.nodes)
        for k in range(2):
            for got, want, terms in (
                    (S[k], step.e_qt[k], q[:, k] * grid.nodes * grid.density),
                    (N[k], step.e_q[k], q[:, k] * grid.density)):
                scale = math.fsum(np.abs(terms).tolist())
                assert abs(got - want) <= 16 * np.finfo(float).eps * scale


class TestPopulationEm:
    def test_failing_first_step_carries_iteration_0(self):
        # 8 subdivisions cannot reach 1e-18 on the first step's moments.
        pm = PopulationModel(GMM, MixtureParams([0.3, 0.4, 0.3], [-3, 0, 3]),
                             0.1, QuadratureScheme(abs_tol=1e-18,
                                                   max_subdivisions=8))
        with pytest.raises(QuadratureFailure) as err:
            run_population_em(pm, MixtureParams(pm.theta_star.pi, [-2, 0.5, 2]))
        assert err.value.iteration == 0

    def test_failing_step_carries_its_index(self, monkeypatch):
        calls = []
        original = population._steps_at

        def steps_at(pm, probes):
            calls.append(1)
            if len(calls) == 3:
                raise DegenerateDenominator("third step")
            return original(pm, probes)

        monkeypatch.setattr(population, "_steps_at", steps_at)
        pm = PopulationModel.sym2(1.5, 0.1)
        with pytest.raises(DegenerateDenominator) as err:
            run_population_em(pm, MixtureParams.symmetric(3.0))
        assert err.value.iteration == 2

    def test_starts_at_truth_stays(self):
        pm = PopulationModel.sym2(2.0, 0.0)
        traj = run_population_em(pm, pm.theta_star, max_iters=5, tol=1e-10)
        assert traj.n_steps <= 1
        assert traj.errors[-1] < 1e-10

    def test_labels_accelerate_convergence(self):
        theta0 = MixtureParams.symmetric(4.0)
        slow = run_population_em(PopulationModel.sym2(2.0, 0.0), theta0,
                                 max_iters=60, tol=1e-9)
        fast = run_population_em(PopulationModel.sym2(2.0, 0.9), theta0,
                                 max_iters=60, tol=1e-9)
        assert fast.n_steps < slow.n_steps


def test_scheme_validation():
    with pytest.raises(ValueError):
        QuadratureScheme(range_sigma=4.0)
    with pytest.raises(ValueError):
        QuadratureScheme(abs_tol=0.0)


@pytest.mark.parametrize("field", ["abs_tol", "range_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scheme_refuses_non_finite_values(field, value):
    with pytest.raises(ValueError):
        QuadratureScheme(**{field: value})


@pytest.mark.parametrize("pm", [
    PopulationModel.sym2(1e308, 0.0),
    PopulationModel(GMM, MixtureParams([0.5, 0.5], [-1e308, 1e308]), 0.0),
    PopulationModel.sym2(1.5, 0.0, QuadratureScheme(range_sigma=1e308)),
], ids=["sym2-truth", "gmm-truth", "range-sigma"])
def test_window_beyond_float_range_is_domain_error(pm):
    with pytest.raises(DomainError, match="window"):
        PopulationStep.at(pm, MixtureParams.symmetric(1.0) if pm.kind == SYM2
                          else GMM2)


class TestIntegerWindowCap:
    """An integer window is summed at every point at once, so one with more
    points than ``_MAX_SUPPORT_POINTS`` is refused before any array is
    built.  Large Poisson means are refused in ``test_cli.py``, in a child
    process under a memory limit."""

    POISSON = ModelKind.expfam(poisson_spec())

    def _window_points(self, pm):
        lo, hi = population._truncation(pm)
        return math.ceil(hi) - math.floor(lo) + 1

    def test_cap_counts_every_support_point(self, monkeypatch):
        pm = PopulationModel(self.POISSON, MixtureParams([0.5, 0.5], [0.5, 2.0]),
                             0.0)
        points = self._window_points(pm)
        monkeypatch.setattr(population, "_MAX_SUPPORT_POINTS", points)
        assert np.isclose(expect(pm, np.ones_like), 1.0, atol=1e-9)
        monkeypatch.setattr(population, "_MAX_SUPPORT_POINTS", points - 1)
        with pytest.raises(DomainError, match=f"{points} points"):
            expect(pm, np.ones_like)


class TestIntegralCount:
    """One vector integral per probe grid: every population update at a
    probe reads the same responsibility moments, and the probes of a grid
    are one batch."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import ssem.quadrature

        counter = []
        original = ssem.quadrature.integrate

        def counting(*args, **kwargs):
            counter.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ssem.quadrature, "integrate", counting)
        return counter

    def test_population_em_one_integral_per_iteration(self, calls):
        pm = PopulationModel(GMM, GMM3, 0.1)
        traj = run_population_em(pm, MixtureParams(GMM3.pi, [-2.5, 0.4, 2.6]))
        assert traj.n_steps > 1
        assert len(calls) == traj.n_steps

    def test_theorem1_one_integral_per_grid(self, calls):
        from ssem.analysis import verify_theorem1

        pm = PopulationModel(GMM, GMM3, 0.3)
        probes = [MixtureParams(GMM3.pi, GMM3.theta + off)
                  for off in (0.2, 0.5, 0.8, 1.2, 1.7, 2.3, 3.0, 4.0)]
        report = verify_theorem1(pm, probes)
        assert not any(r.skipped for r in report.results)
        assert len(calls) == 1

    def test_item3_one_integral(self, calls):
        from ssem.analysis import rate_bound_item3

        rate_bound_item3(1.0, 0.0, 3.0)
        assert len(calls) == 1


class TestTieRuleCount:
    """A step solves each tie group once per labeled fraction, whichever
    components ask and how often."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        import ssem.model

        counter = []
        original = ssem.model.invert_alpha_prime

        def counting(*args, **kwargs):
            counter.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ssem.model, "invert_alpha_prime", counting)
        return counter

    def test_sym2_one_inversion_per_gamma(self, inversions):
        step = PopulationStep.at(PopulationModel.sym2(1.5, 0.3),
                                 MixtureParams.symmetric(2.5))
        m0 = [step.m0(k) for k in (0, 1)]
        assert len(inversions) == 1
        mg = [step.m_gamma(k) for k in (1, 0)]
        assert len(inversions) == 2
        for _ in range(2):
            assert [step.m0(k) for k in (0, 1)] == m0
            assert [step.m_gamma(k) for k in (1, 0)] == mg
        assert len(inversions) == 2
        assert m0[0] == -m0[1] and mg[1] == -mg[0]
        assert np.signbit(m0[0]) and not np.signbit(m0[1])

    def test_gmm3_one_inversion_per_component(self, inversions):
        step = PopulationStep.at(PopulationModel(GMM, GMM3, 0.3),
                                 MixtureParams(GMM3.pi, [-2.4, 0.3, 2.5]))
        for _ in range(2):
            for k in range(3):
                step.m_gamma(k)
        assert len(inversions) == 3
        for k in range(3):
            step.m0(k)
        assert len(inversions) == 6

    def test_population_em_one_inversion_per_sym2_step(self, inversions):
        traj = run_population_em(PopulationModel.sym2(1.5, 0.3),
                                 MixtureParams.symmetric(3.0))
        assert traj.n_steps > 1
        assert len(inversions) == traj.n_steps

    def test_same_bits_as_one_rule_per_component(self):
        # The value a group member reads is the one the tie rule computes
        # for that component on its own.
        for pm, probe in [
                (PopulationModel.sym2(1.5, 0.3), MixtureParams.symmetric(2.5)),
                (PopulationModel(GMM, GMM3, 0.3),
                 MixtureParams(GMM3.pi, [-2.4, 0.3, 2.5]))]:
            step = PopulationStep.at(pm, probe)
            for gamma, read in ((0.0, step.m0), (pm.gamma, step.m_gamma)):
                labeled_t, labeled_q = pm._labeled_moments

                def moments(j):
                    return ((1.0 - gamma) * float(step.e_qt[j]) + gamma * labeled_t[j],
                            (1.0 - gamma) * float(step.e_q[j]) + gamma * labeled_q[j])

                for k in range(probe.K):
                    alone = dict(pm.kind.tied_update(
                        k, moments, float(probe.theta[k]), 1e-12,
                        DegenerateDenominator))[k]
                    assert read(k) == alone


class TestSym2CriticalFraction:
    """Started at ``-(theta* + 1)``, sym2 population EM stops at a negative
    fixed point below a critical labeled fraction gamma_c and reaches
    theta* above it.

    By symmetry ``M_0(-u) = -M_0(u)``, so from a negative start the
    iterate ``-u`` moves to ``-((1 - gamma) M_0(u) - gamma theta*)``, and a
    negative fixed point exists while the gap ``g(gamma) = max_{u>0}
    [(1 - gamma) M_0(u) - u] - gamma theta*`` is >= 0.  gamma_c is its
    root.  At the maximizer u* the map has slope 1, ``(1 - gamma) M_0'(u*)
    = 1``, so (u*, gamma_c) solve ``M_0(u) - u M_0'(u) - (M_0'(u) - 1)
    theta* = 0`` and ``gamma_c = 1 - 1/M_0'(u*)``: one root in u, with
    ``M_0`` from one probe batch (:meth:`PopulationStep.at`) and ``M_0'``
    from :func:`dm0_dtheta_sym2`.

    **delta.**  ``g'(gamma_c) = -s`` with ``s = M_0(u*) + theta*``, and
    ``g''(gamma_c) = 1 / ((1 - gamma_c)^3 |M_0''(u*)|)``.  The runs are
    only on the predicted side when the gap ``s delta`` beats the error
    of each operator value, ``eps = 2 (1 + M_0(u*)) abs_tol`` (each of
    the four moments of the tied update within ``abs_tol``, their
    denominator 1): ``delta >> eps / s``.  And the first-order gap must
    beat the second-order term, which grows with the curvature ``M_0''``:
    ``delta << 2 s / g''``.  delta is the geometric mean of the two
    limits, ``sqrt(2 eps (1 - gamma_c)^3 |M_0''(u*)|)``, five orders from
    each (3.3e-5 at theta* = 1, 4.3e-5 at 2).  ``M_0''`` is a central
    difference of ``M_0'``.

    **max_iters.**  Near u* the map is ``x -> x + g - c x^2`` in ``x = u -
    u*``, with ``c = (1 - gamma) |M_0''(u*)| / 2`` and ``|g| = s delta``.
    Above gamma_c the run passes the slope-1 bottleneck in ``pi /
    sqrt(|g| c)`` steps; below it settles on the fixed point ``x =
    sqrt(g / c)``, where the slope is ``1 - 2 sqrt(g c)``, so its steps
    fall from at most 1 to ``tol`` in ``ln(1 / tol) / (2 sqrt(g c))``.
    Away from u* the map contracts faster, so the approach and the exit
    take at most as many steps again: ``max_iters = 2 (pi + ln(1 / tol) /
    2) / sqrt(g c)``.
    """

    TOL = 1e-13  # run_population_em's default

    @staticmethod
    def critical(theta_star, scheme):
        from scipy.optimize import brentq

        pm = PopulationModel.sym2(theta_star, 0.0, scheme)

        def m0(u):
            return PopulationStep.at(pm, MixtureParams.symmetric(u)).m0(1)

        def tangency(u):
            slope = dm0_dtheta_sym2(pm, u)
            return m0(u) - u * slope - (slope - 1.0) * theta_star

        # At u -> 0 the residual is -theta*^3 (M_0(0) = 0, M_0'(0) = 1 +
        # theta*^2); at theta* it is 2 theta* (1 - M_0'(theta*)) > 0.
        u_star = brentq(tangency, 1e-3, theta_star, xtol=1e-13)
        gamma_c = 1.0 - 1.0 / dm0_dtheta_sym2(pm, u_star)
        h = 1e-3
        curvature = (dm0_dtheta_sym2(pm, u_star + h)
                     - dm0_dtheta_sym2(pm, u_star - h)) / (2.0 * h)
        return pm, u_star, gamma_c, m0(u_star), curvature

    @pytest.mark.parametrize("theta_star, roadmap", [(1.0, 0.1531),
                                                    (2.0, 0.3077)])
    def test_labels_remove_the_negative_fixed_point(self, theta_star,
                                                    roadmap):
        scheme = QuadratureScheme()
        pm, u_star, gamma_c, m0_star, m0_second = self.critical(
            theta_star, scheme)
        assert gamma_c == pytest.approx(roadmap, abs=5e-5)
        assert m0_second < 0.0
        eps = 2.0 * (1.0 + m0_star) * scheme.abs_tol
        delta = math.sqrt(2.0 * eps * (1.0 - gamma_c) ** 3 * -m0_second)
        gap = (m0_star + theta_star) * delta
        c = (1.0 - gamma_c) * -m0_second / 2.0
        max_iters = math.ceil(2.0 * (math.pi + math.log(1.0 / self.TOL) / 2.0)
                              / math.sqrt(gap * c))
        start = MixtureParams.symmetric(-(theta_star + 1.0))

        below = run_population_em(pm.with_gamma(gamma_c - delta), start,
                                  max_iters=max_iters, tol=self.TOL)
        assert below.converged
        # The stable one of the two negative fixed points, beyond -u*.
        assert below.final.theta[1] < -u_star

        above = run_population_em(pm.with_gamma(gamma_c + delta), start,
                                  max_iters=max_iters, tol=self.TOL)
        assert above.converged
        assert abs(above.final.theta[1] - theta_star) <= 1e-9
