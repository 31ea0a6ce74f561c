"""Contraction coefficients, rate bounds, and inequality verifiers.

The one-step distance to the truth decomposes multiplicatively: the
unlabeled-only update contracts by a factor kappa, and mixing in a labeled
fraction gamma shrinks the step further by

    beta_k = c_k / (pi_k * gamma / (1 - gamma) + c_k),

where ``c_k`` is the expected responsibility of component k at the probe.
``verify_theorem1`` checks the resulting inequality

    |M_gamma(theta)_k - theta*_k| <= beta_k * |M_0(theta)_k - theta*_k|

on a probe grid; ``verify_theorem2`` checks that the same ratio converges to
beta_k for exponential families as probes shrink toward the truth, along
with the second-order Taylor scaling that justifies it.  The rate-bound
calculators cover the symmetric pair: a derivative bound 4/(theta*^2 e^2),
a sharper two-term tail-split bound for theta* > 2, and a gradient-
smoothness bound for probes beyond theta* + 1.

All inequality checks are one-sided with a small additive slack, 1e-6
(contraction) and 1e-8 (rate bound), against quadrature at 1e-10 absolute
tolerance.  That margin is not always ample: shifting each population
integral by +-1e-10 (in two of four sign patterns) flips both sym2 checks
``rescue/step_ratio_le_beta_kappa`` at theta* = 1.5 from pass to fail, as
the rescue counts steps whose error is only a few times ``RATE_FLOOR``.

Each rule of the verifiers is written once here:

* what a Theorem-1 row reads at a probe (``M_0``, ``M_gamma``, their ratio
  behind the fixed-point guard, ``theta*_k`` and ``beta_k``):
  ``_theorem1_reading``, for ``contraction_ratio``, thm1 and thm2;
* the pass rule: :func:`all_pass`, which is every report's ``pass_all``
  and the CLI's exit code;
* the sym2 derivative bound of thm3-1 and thm3-2: ``_derivative_bound``;
* the verify-grid preconditions: a probe ``kind.shift(theta*, offset)``
  in the natural domain (``_in_domain``), a Theorem-2 radius beyond the
  guard with both probes in the domain (``_usable_radius``), and an item-3
  probe beyond ``theta* + 1`` in floats (``_item3_regime``).  The
  verifiers apply them when called from the library; :mod:`ssem.config`
  applies the same predicates to the config's grids before any integral.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDenominator,
    DomainError,
    NotExpFam,
    ProbeOutsideRegime,
    ProbeTooCloseToFixedPoint,
    TrajectoryTooShort,
)
from .em import Trajectory
from .model import MixtureParams
from .population import (
    PopulationModel,
    PopulationStep,
    QuadratureScheme,
    _run_lockstep,
    _steps_at,
    dm0_dtheta_sym2,
)

THEOREM_SLACK = 1e-6
RATE_SLACK = 1e-8
RATE_FLOOR = 1e-8  # 100x the default quadrature tolerance
# How far from 2 the log-log slope of a Taylor residual may lie (thm2).
SLOPE_WINDOW = 0.3
# Population-EM iterations of each trajectory of the rescue demonstration.
RESCUE_MAX_ITERS = 24
# The probe offsets theta* + offset of the rescue demonstration and of the
# config's Theorem-1 grid, when none are given.
PROBE_OFFSETS = (0.2, 0.5, 0.8, 1.2, 1.7, 2.3, 3.0, 4.0)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def beta_theoretical(c: float, pi_k: float, gamma: float) -> float:
    """Labeled-fraction contraction coefficient
    ``c / (pi_k * gamma / (1 - gamma) + c)``; equals 1 at gamma = 0."""
    if not 0.0 <= gamma < 1.0:
        raise DomainError(f"gamma must be in [0, 1), got {gamma} "
                          "(the gamma -> 1 limit is beta -> 0)")
    if c <= 0.0 or pi_k <= 0.0:
        raise DomainError("c and pi_k must be positive")
    return c / (pi_k * gamma / (1.0 - gamma) + c)


def _check(name: str, probe, lhs, rhs, passed, applicable=None) -> dict:
    """One check entry ``{name, probe, lhs, rhs, pass}``: the relation that
    ``name`` states between ``lhs`` and ``rhs`` at ``probe``.
    ``applicable`` is added only when given; an entry without it counts."""
    entry = {"name": name, "probe": probe, "lhs": lhs, "rhs": rhs,
             "pass": bool(passed)}
    if applicable is not None:
        entry["applicable"] = bool(applicable)
    return entry


def all_pass(checks: list[dict]) -> bool:
    """The pass rule of every verifier: each applicable check passes.
    Entries marked not applicable are reported but never fail."""
    return all(c["pass"] for c in checks if c.get("applicable", True))


def fixed_point_guard(scheme: QuadratureScheme) -> float:
    """The distance from the truth within which an update under ``scheme``
    is quadrature noise: a Theorem-1 ratio there is ill-defined."""
    return 100.0 * scheme.abs_tol


def _in_domain(pm: PopulationModel, offset: float) -> bool:
    """Whether the probe ``kind.shift(theta*, offset)`` lies in the natural
    domain (``shift`` raises :class:`DomainError` when it does not): the
    one rule for every probe grid built along the tie."""
    with suppress(DomainError):
        return pm.kind.shift(pm.theta_star, offset) is not None
    return False


def _usable_radius(pm: PopulationModel, eps: float) -> bool:
    """Whether Theorem 2 measures at radius ``eps``: beyond the fixed-point
    guard, with both probes ``theta* +- eps`` in the natural domain."""
    return (eps > fixed_point_guard(pm.scheme)
            and _in_domain(pm, eps) and _in_domain(pm, -eps))


def _item3_regime(theta_star: float, theta_probe: float) -> bool:
    """Whether :func:`rate_bound_item3` covers ``theta_probe``: beyond
    ``theta* + 1`` in floats, where an offset just above 1 can round onto
    it."""
    return theta_probe > theta_star + 1.0


# What a Theorem-1 row reads for one component at one probe; ``ratio`` is
# |M_gamma - theta*_k| / |M_0 - theta*_k|.
_Reading = namedtuple("_Reading", "m0 mg ratio star_k beta")


def _theorem1_reading(step: PopulationStep, k: int) -> _Reading:
    """``M_0``, ``M_gamma``, their guarded ratio, ``theta*_k`` and
    ``beta_k`` (from ``E[q_k]`` at the probe) for component k at the
    step's probe.

    Raises :class:`ProbeTooCloseToFixedPoint` when the unlabeled update is
    within quadrature noise of the truth and the ratio is ill-defined.
    """
    m0 = step.m0(k)
    star_k = float(step.pm.theta_star.theta[k])
    denom = abs(m0 - star_k)
    if denom <= fixed_point_guard(step.pm.scheme):
        raise ProbeTooCloseToFixedPoint(
            f"|M0 - theta*| = {denom:.3e} within the quadrature floor")
    mg = step.m_gamma(k)
    return _Reading(m0, mg, abs(mg - star_k) / denom, star_k, beta_theoretical(
        step.c(k), float(step.pm.theta_star.pi[k]), step.pm.gamma))


def contraction_ratio(pm: PopulationModel, theta_probe: MixtureParams,
                      k: int) -> float:
    """|M_gamma - theta*_k| / |M_0 - theta*_k| at the probe.

    Raises :class:`ProbeTooCloseToFixedPoint` when the unlabeled update is
    within quadrature noise of the truth and the ratio is ill-defined.
    """
    return _theorem1_reading(PopulationStep.at(pm, theta_probe), k).ratio


class _Checked:
    """A report whose ``pass_all`` is the one pass rule, :func:`all_pass`,
    over its ``checks()``."""

    @property
    def pass_all(self) -> bool:
        return all_pass(self.checks())


@dataclass
class ProbeResult:
    """One (probe, component) row of a contraction report."""

    probe_index: int
    component: int
    probe_theta: list[float]
    skipped: bool = False
    beta_theory: float = math.nan
    ratio_empirical: float = math.nan
    kappa_empirical: float = math.nan
    r_empirical: float = math.nan
    eta: float = math.nan
    bound_satisfied: bool = True


@dataclass
class ContractionReport(_Checked):
    """Per-probe contraction measurements against the beta_k bound."""

    gamma: float
    theta_star: list[float]
    pi: list[float]
    probes: list[list[float]]
    results: list[ProbeResult] = field(default_factory=list)

    def checks(self) -> list[dict]:
        out = []
        for r in self.results:
            name = f"thm1/ratio_le_beta[k={r.component}]"
            if r.skipped:
                out.append(_check(name + " (skipped: probe at fixed point)",
                                  r.probe_theta, None, None, True))
            else:
                out.append(_check(name, r.probe_theta, r.ratio_empirical,
                                  r.beta_theory, r.bound_satisfied))
        return out


def verify_theorem1(pm: PopulationModel,
                    probe_grid: list[MixtureParams]) -> ContractionReport:
    """Check ``ratio <= beta_k + 1e-6`` for every probe and component.

    The grid's moments are one batch: one vector integral.  Probes whose
    unlabeled update sits on the fixed point are reported as skipped rather
    than failed.  ``eta`` (the moment ratio ``M_0 / theta*_k``) is reported
    for diagnostics only and may be below 1; the bound is symmetric in that
    case, so no role swap is needed.
    """
    if pm.kind.tag == "expfam":
        raise DomainError("verify_theorem1 covers the Gaussian kinds; "
                          "use verify_theorem2 for exponential families")
    report = ContractionReport(
        gamma=pm.gamma,
        theta_star=pm.theta_star.theta.tolist(),
        pi=pm.theta_star.pi.tolist(),
        probes=[p.theta.tolist() for p in probe_grid])
    for i, step in enumerate(_steps_at(pm, probe_grid)):
        probe = step.theta
        for k in range(pm.theta_star.K):
            row = ProbeResult(i, k, probe.theta.tolist())
            report.results.append(row)
            try:
                r = _theorem1_reading(step, k)
            except ProbeTooCloseToFixedPoint:
                row.skipped = True
                continue
            row.ratio_empirical, row.beta_theory = r.ratio, r.beta
            probe_dist = abs(float(probe.theta[k]) - r.star_k)
            row.kappa_empirical = (abs(r.m0 - r.star_k) / probe_dist
                                   if probe_dist > 0.0 else math.nan)
            row.r_empirical = r.ratio * row.kappa_empirical
            row.eta = r.m0 / r.star_k if abs(r.star_k) > 0.0 else math.nan
            row.bound_satisfied = r.ratio <= r.beta + THEOREM_SLACK
    return report


@dataclass
class Theorem2Series:
    """Ratio-vs-beta convergence along shrinking probes, one (side, k)."""

    component: int
    side: int  # +1 probes above the truth, -1 below
    epsilons: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    taylor_residuals: list[float] = field(default_factory=list)
    monotone: bool = True
    taylor_exact: bool = False
    taylor_slope: float = math.nan
    slope_ok: bool = True


@dataclass
class Theorem2Report(_Checked):
    gamma: float
    theta_star: list[float]
    series: list[Theorem2Series] = field(default_factory=list)

    def checks(self) -> list[dict]:
        out = []
        for s in self.series:
            tag = f"[k={s.component},side={'+' if s.side > 0 else '-'}]"
            worst = max((s.gaps[i + 1] - s.gaps[i] for i in range(len(s.gaps) - 1)),
                        default=0.0)
            out.append(_check(f"thm2/gap_monotone{tag}", s.epsilons, worst,
                              0.0, s.monotone))
            if s.taylor_exact:
                out.append(_check(f"thm2/taylor_exact{tag}", s.epsilons,
                                  max(s.taylor_residuals, default=0.0), 0.0,
                                  True))
            else:
                out.append(_check(f"thm2/taylor_slope{tag}", s.epsilons,
                                  s.taylor_slope, 2.0, s.slope_ok))
        return out


def verify_theorem2(pm: PopulationModel,
                    epsilons: list[float]) -> Theorem2Report:
    """Check the local contraction-ratio limit for an exponential family.

    For probes ``theta* +- eps`` over shrinking ``eps``, |ratio - beta_k|
    must be nonincreasing, and the first-order Taylor residual of the mean
    function at the updated point must scale as eps^2 (log-log slope within
    ``SLOPE_WINDOW`` of 2).  Only the radii of :func:`_usable_radius` are
    measured: one inside the fixed-point guard, or whose probe leaves the
    natural domain on either side, is dropped.  When every residual sits at
    quadrature noise (all below ``RATE_FLOOR``) the expansion is exact
    (linear mean function) and the slope fit is skipped.
    """
    if pm.kind.tag != "expfam":
        raise NotExpFam(f"verify_theorem2 requires an expfam kind, got {pm.kind.tag}")
    spec = pm.kind.spec
    radii = [eps for eps in sorted((float(e) for e in epsilons), reverse=True)
             if _usable_radius(pm, eps)]
    report = Theorem2Report(gamma=pm.gamma,
                            theta_star=pm.theta_star.theta.tolist())
    for side in (+1, -1):
        # Every component's series shares the probes theta* + side * eps,
        # one batch per side.
        steps = list(zip(radii, _steps_at(
            pm, [pm.kind.shift(pm.theta_star, side * eps) for eps in radii])))
        for k in range(pm.theta_star.K):
            series = Theorem2Series(component=k, side=side)
            for eps, step in steps:
                try:
                    r = _theorem1_reading(step, k)
                except ProbeTooCloseToFixedPoint:
                    continue
                resid = abs(float(spec.alpha_prime(r.mg))
                            - float(spec.alpha_prime(r.star_k))
                            - (r.mg - r.star_k) * float(spec.alpha_second(r.star_k)))
                series.epsilons.append(eps)
                series.ratios.append(r.ratio)
                series.betas.append(r.beta)
                series.gaps.append(abs(r.ratio - r.beta))
                series.taylor_residuals.append(resid)
            series.monotone = all(
                series.gaps[i + 1] <= series.gaps[i] + 1e-12
                for i in range(len(series.gaps) - 1))
            resids = np.asarray(series.taylor_residuals)
            if resids.size < 2 or np.max(resids) < RATE_FLOOR:
                series.taylor_exact = True
            else:
                slope = float(np.polyfit(np.log(series.epsilons),
                                         np.log(resids), 1)[0])
                series.taylor_slope = slope
                series.slope_ok = abs(slope - 2.0) <= SLOPE_WINDOW
            report.series.append(series)
    return report


@dataclass
class RateBoundReport:
    """One rate-bound evaluation for the symmetric pair."""

    item: int
    theta_star: float
    gamma: float
    bound_value: float
    applicable: bool
    measured_kappa: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def checks(self) -> list[dict]:
        suffix = "" if self.applicable else " (not applicable)"
        return [_check(f"thm3-{self.item}/theta_star={self.theta_star:g}{suffix}",
                       self.extras.get("theta_probe"), self.measured_kappa,
                       self.bound_value / max(1.0 - self.gamma, 1e-300),
                       self.passed, applicable=self.applicable)]


def _derivative_bound(item: int, theta_star: float, gamma: float,
                      scheme: QuadratureScheme, kappa_bound: float,
                      applicable: bool, contract: bool, **extras
                      ) -> RateBoundReport:
    """The report of a sym2 bound on the unlabeled update's derivative:
    ``dM_0/dtheta`` at theta* (:func:`dm0_dtheta_sym2`) must respect
    ``kappa_bound`` and, when ``contract``, make ``(1 - gamma) dM_0/dtheta``
    an actual contraction.  The bound value is ``(1 - gamma) *
    kappa_bound``; ``extras`` follow ``kappa_bound`` in the report."""
    pm = PopulationModel.sym2(float(theta_star), float(gamma), scheme)
    measured = dm0_dtheta_sym2(pm, float(theta_star))
    passed = measured <= kappa_bound + RATE_SLACK and (
        not contract or (1.0 - gamma) * measured < 1.0)
    return RateBoundReport(
        item=item, theta_star=float(theta_star), gamma=float(gamma),
        bound_value=(1.0 - gamma) * kappa_bound, applicable=applicable,
        measured_kappa=measured, passed=passed,
        extras={"kappa_bound": kappa_bound, **extras})


def rate_bound_item1(theta_star: float, gamma: float,
                     scheme: QuadratureScheme = QuadratureScheme()
                     ) -> RateBoundReport:
    """Derivative bound ``(1 - gamma) * 4 / (theta*^2 e^2)``.

    Applicable when ``theta* > (2/e) sqrt(1 - gamma)`` (the unscaled
    threshold ``theta* >= 2/e`` is also reported).  Passes when the measured
    derivative respects ``4 / (theta*^2 e^2)`` and, if applicable, the
    gamma-scaled rate is an actual contraction.
    """
    applicable = theta_star > (2.0 / math.e) * math.sqrt(1.0 - gamma)
    return _derivative_bound(
        1, theta_star, gamma, scheme, 4.0 / (theta_star ** 2 * math.e ** 2),
        applicable, contract=applicable,
        applicable_unscaled_threshold=theta_star >= 2.0 / math.e)


def rate_bound_item2(theta_star: float, gamma: float,
                     scheme: QuadratureScheme = QuadratureScheme()
                     ) -> RateBoundReport:
    """Tail-split derivative bound for ``theta* > 2``:
    ``(1-gamma) * 4 [ (1/(theta*^2 e^2)) e^{-9 theta*^2/32}
                      + (theta*^2/16) e^{-theta*^2/2} ]``."""
    kappa_bound = 4.0 * (
        math.exp(-9.0 * theta_star ** 2 / 32.0) / (theta_star ** 2 * math.e ** 2)
        + theta_star ** 2 / 16.0 * math.exp(-theta_star ** 2 / 2.0))
    supremum_bound = 4.0 / (theta_star ** 2 * math.e ** 2)
    return _derivative_bound(
        2, theta_star, gamma, scheme, kappa_bound, theta_star > 2.0,
        contract=False, item1_kappa_bound=supremum_bound,
        tighter_than_item1=kappa_bound <= supremum_bound)


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / _SQRT_2PI


def _upper_tail(t: float) -> float:
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def rate_bound_item3(theta_star: float, gamma: float, theta_probe: float,
                     scheme: QuadratureScheme = QuadratureScheme()
                     ) -> RateBoundReport:
    """Gradient-smoothness bound for probes beyond ``theta* + 1``.

    Checks, by quadrature, that ``2 |f(theta) - f(theta*)|`` (with
    ``f(theta) = -E[q(Y; theta) Y]``) stays below the constant
    ``(2 / (9 theta*^2 sqrt(2 pi))) e^{-theta*^2 / 2}`` and below that
    constant times ``|theta - theta*|``, and that the unlabeled update
    contracts accordingly.  ``M_0 = 2 f`` fixes the truth, so ``f(theta*)
    = theta*/2`` is taken from the fixed point, not integrated.

    The constant omits the boundary term ``2 (phi(theta*) - theta*
    (1 - Phi(theta*)))`` that a full accounting of the half-line integrals
    produces; measurements exceed the stated constant at moderate
    separations, and the version with the boundary term restored is
    evaluated alongside it in ``extras`` for comparison.

    The probe is integrated alone; ``verify thm3-3`` integrates the probes
    of each theta* as one batch (``_rate_bound_item3_each``).
    """
    return _rate_bound_item3_each(theta_star, gamma, [theta_probe], scheme)[0]


def _rate_bound_item3_each(theta_star: float, gamma: float,
                           theta_probes: list[float],
                           scheme: QuadratureScheme) -> list[RateBoundReport]:
    """:func:`rate_bound_item3` at each of ``theta_probes``, whose moments
    are one batch: one vector integral."""
    for theta_probe in theta_probes:
        if not _item3_regime(theta_star, theta_probe):
            raise ProbeOutsideRegime(
                f"probe {theta_probe} must exceed theta* + 1 = {theta_star + 1.0}")
    pm = PopulationModel.sym2(float(theta_star), float(gamma), scheme)
    const = (2.0 / (9.0 * theta_star ** 2 * _SQRT_2PI)
             * math.exp(-theta_star ** 2 / 2.0))
    applicable = theta_star > 0.5
    boundary_term = 2.0 * (_phi(theta_star) - theta_star * _upper_tail(theta_star))
    const_with_boundary = const + boundary_term

    # f(theta_probe) and M_0(theta_probe) = 2 f(theta_probe) share one step.
    steps = _steps_at(pm, [MixtureParams.symmetric(float(theta_probe))
                           for theta_probe in theta_probes])
    reports = []
    for theta_probe, step in zip(theta_probes, steps):
        gap = theta_probe - theta_star
        f_probe = -float(step.e_qt[0])
        smooth_lhs = 2.0 * abs(f_probe - 0.5 * theta_star)
        contraction_lhs = abs(step.m0(1) - theta_star)
        ok_const = smooth_lhs <= const + RATE_SLACK
        ok_scaled = smooth_lhs <= const * gap + RATE_SLACK
        ok_contraction = contraction_lhs <= const * gap + RATE_SLACK
        passed = (ok_const and ok_scaled and ok_contraction) or not applicable
        reports.append(RateBoundReport(
            item=3, theta_star=float(theta_star), gamma=float(gamma),
            bound_value=(1.0 - gamma) * const, applicable=applicable,
            measured_kappa=contraction_lhs / gap, passed=passed,
            extras={
                "theta_probe": float(theta_probe),
                "smoothness_lhs": smooth_lhs,
                "smoothness_const": const,
                "smoothness_ok_const": ok_const,
                "smoothness_ok_scaled": ok_scaled,
                "contraction_lhs": contraction_lhs,
                "contraction_ok": ok_contraction,
                "const_with_boundary_term": const_with_boundary,
                "boundary_term_ok": smooth_lhs <= (const_with_boundary
                                                   * max(1.0, gap) + RATE_SLACK),
            }))
    return reports


def tail_sandwich_defined(t: float) -> bool:
    """Whether :func:`gaussian_tail_sandwich` accepts ``t``: t**3 and
    phi(t) normal floats (about 2.82e-103 <= t <= 37.6).  Beyond 37.6,
    phi(t) is subnormal or 0 and the bounds compare rounded-off values;
    below 2.82e-103, ``1 / t**3`` divides by zero or leaves a lower bound
    of -inf.  phi is checked first: it is 0 for huge |t|, where t**3
    would raise OverflowError."""
    return _phi(t) >= sys.float_info.min and t ** 3 >= sys.float_info.min


def gaussian_tail_sandwich(t: float) -> tuple[float, float, float]:
    """Two-sided bounds on the standard normal upper tail probability:

        (1/t - 1/t^3) phi(t) <= P(Y > t) <= (1/t) phi(t),  t > 0,

    with the tail computed through the complementary error function.
    Returns ``(lower, upper, phi_tail)``.  The lower bound is vacuous
    (negative) for t < 1.  Raises :class:`DomainError` unless
    :func:`tail_sandwich_defined` accepts ``t``.
    """
    if not tail_sandwich_defined(t):
        raise DomainError(f"tail sandwich needs t**3, phi(t) normal: t={t}")
    density = _phi(t)
    return (1.0 / t - 1.0 / t ** 3) * density, density / t, _upper_tail(t)


def lemma3_checks(tail_grid: list[float]) -> list[dict]:
    """Both strict bounds of :func:`gaussian_tail_sandwich` at each ``t``."""
    out = []
    for t in tail_grid:
        lower, upper, tail = gaussian_tail_sandwich(t)
        out += [_check(f"lemma3/lower_lt_tail[t={t:g}]", t, lower, tail,
                       lower < tail),
                _check(f"lemma3/tail_lt_upper[t={t:g}]", t, tail, upper,
                       tail < upper)]
    return out


def _step_ratios(traj: Trajectory,
                 theta_star: MixtureParams) -> tuple[int, list[float]]:
    """How many iterates have a max-norm error above ``RATE_FLOOR``, and
    the ratio ``err_{t+1} / err_t`` of every step that starts from one.

    The errors are ``traj.errors``; they are computed against
    ``theta_star`` only when the run recorded none."""
    errs = np.array(traj.errors or traj.errors_to(theta_star))
    ratios = [float(errs[t + 1] / errs[t])
              for t in range(len(errs) - 1) if errs[t] > RATE_FLOOR]
    return int(np.count_nonzero(errs > RATE_FLOOR)), ratios


def empirical_rate(traj: Trajectory, theta_star: MixtureParams) -> float:
    """Worst per-step error contraction ``err_{t+1} / err_t`` along a
    trajectory, ignoring steps whose starting error sits at or below
    ``RATE_FLOOR`` (noise / quadrature level).

    The errors are the ones the run recorded in ``traj.errors``, which take
    precedence; ``theta_star`` is used only when the trajectory recorded
    none.  Requires at least three iterates above the floor, otherwise
    raises :class:`TrajectoryTooShort`.
    """
    above, ratios = _step_ratios(traj, theta_star)
    if above < 3:
        raise TrajectoryTooShort(
            f"only {above} iterates above the floor {RATE_FLOOR:g}")
    return max(ratios)


def measurable_step_ratios(traj: Trajectory,
                           theta_star: MixtureParams) -> list[float]:
    """Per-step error ratios for steps starting above ``RATE_FLOOR`` (may be
    fewer than the strict three-iterate requirement of
    :func:`empirical_rate`).  As there, recorded ``traj.errors`` take
    precedence over errors against ``theta_star``."""
    return _step_ratios(traj, theta_star)[1]


@dataclass
class RescueReport(_Checked):
    """Multiplicative-rescue demonstration: measured kappa, the labeled
    fraction that would neutralize it, and trajectories around it.
    ``trajectory_errors`` holds each run's errors up to the round at which
    the lockstep stopped: once every run still going is at or below
    ``RATE_FLOOR``, later steps are no longer run."""

    kind: str
    theta_star: list[float]
    kappa_measured: float
    kappa_component: int
    kappa_probe: list[float]
    c_at_kappa: float
    gamma_min: float
    rescue_needed: bool
    status: str
    gammas: list[float] = field(default_factory=list)
    trajectory_errors: dict = field(default_factory=dict)
    step_ratios: dict = field(default_factory=dict)
    ratio_bounds: dict = field(default_factory=dict)
    ratio_ok: dict = field(default_factory=dict)

    def checks(self) -> list[dict]:
        out = [_check(f"rescue/status={self.status}", self.kappa_probe,
                      self.kappa_measured, 1.0, True)]
        for key, ok in self.ratio_ok.items():
            ratios = self.step_ratios[key]
            out.append(_check(f"rescue/step_ratio_le_beta_kappa[gamma={key}]",
                              None, max(ratios) if ratios else None,
                              self.ratio_bounds[key], ok))
        return out


def demonstrate_rescue(pm: PopulationModel,
                       probe_offsets=None) -> RescueReport:
    """Measure kappa for the unlabeled-only operator, solve for the labeled
    fraction ``gamma_min`` at which ``beta(gamma) * kappa = 1``, and emit
    population-EM trajectories bracketing it.

    The probes are ``kind.shift(theta*, offset)`` for each of
    ``probe_offsets`` (default ``PROBE_OFFSETS``), and their moments one
    batch (one vector integral); a probe outside the natural domain
    (:func:`_in_domain`) is skipped, as is a component inside the
    fixed-point guard or whose ``E[q_k]`` underflows the denominator guard.
    Raises :class:`DomainError` naming the offsets when no probe lies in
    the domain, and :class:`ProbeTooCloseToFixedPoint` when every probe
    that does is skipped.  The two population-EM runs start at the probe
    that gave kappa and go in lockstep for at most ``RESCUE_MAX_ITERS``
    iterations, their iterates' moments one batch per round; the first
    round reads the probe grid's step.  A step that starts at or below
    ``RATE_FLOOR`` counts toward no verdict, so once every run still going
    is at or below the floor, later steps are no longer run: the lockstep
    stops after that round, both runs at once, so no batch before it
    changes and the verdicts are those of a lockstep run to the end.

    When kappa < 1 the operator already contracts; the report carries the
    ``no_rescue_needed`` status (this is the observed situation for the
    symmetric pair at every separation) and the trajectories demonstrate the
    labeled speedup instead.
    """
    offsets = np.asarray(PROBE_OFFSETS if probe_offsets is None
                         else probe_offsets, dtype=float)
    probes = [pm.kind.shift(pm.theta_star, off) for off in offsets
              if _in_domain(pm, off)]
    if not probes:
        raise DomainError(f"no probe theta* + offset lies in the natural "
                          f"domain, for offsets {offsets.tolist()}")
    kappa, k_best, step_best = -math.inf, 0, None
    for step in _steps_at(pm, probes):
        for k in range(pm.theta_star.K):
            star_k = float(pm.theta_star.theta[k])
            probe_dist = abs(float(step.theta.theta[k]) - star_k)
            if probe_dist <= fixed_point_guard(pm.scheme):
                continue
            try:
                secant = abs(step.m0(k) - star_k) / probe_dist
            except DegenerateDenominator:  # E[q_k] underflows at the probe
                continue
            if secant > kappa:
                kappa, k_best, step_best = secant, k, step
    if step_best is None:
        raise ProbeTooCloseToFixedPoint("no usable probe in the grid")
    if pm.kind.tag == "sym2":
        # Concave increasing update: the secants grow toward the derivative
        # at the fixed point, which is the actual supremum.
        kappa = max(kappa, dm0_dtheta_sym2(pm, pm.theta_star.sym2_scalar()))

    probe_best = step_best.theta
    c_best = step_best.c(k_best)
    pi_k = float(pm.theta_star.pi[k_best])
    x = c_best * (kappa - 1.0) / pi_k
    gamma_min = x / (1.0 + x)
    rescue_needed = kappa >= 1.0
    status = "rescued" if rescue_needed else "no_rescue_needed"

    gamma_hi = min(0.99, max(gamma_min, 0.0) + 0.1)
    gamma_lo = max(0.0, gamma_min - 0.1) if rescue_needed else 0.0
    report = RescueReport(
        kind=pm.kind.tag, theta_star=pm.theta_star.theta.tolist(),
        kappa_measured=kappa, kappa_component=k_best,
        kappa_probe=probe_best.theta.tolist(), c_at_kappa=c_best,
        gamma_min=gamma_min, rescue_needed=rescue_needed, status=status,
        gammas=[gamma_lo, gamma_hi])
    trajs = _run_lockstep([pm.with_gamma(gamma) for gamma in report.gammas],
                          probe_best, RESCUE_MAX_ITERS, first=step_best,
                          floor=RATE_FLOOR)
    for gamma, traj in zip(report.gammas, trajs):
        key = f"{gamma:.6g}"
        ratios = measurable_step_ratios(traj, pm.theta_star)
        bound = (beta_theoretical(c_best, pi_k, gamma) * kappa
                 + THEOREM_SLACK)
        report.trajectory_errors[key] = traj.errors
        report.step_ratios[key] = ratios
        report.ratio_bounds[key] = bound
        report.ratio_ok[key] = all(r <= bound for r in ratios)
    return report
