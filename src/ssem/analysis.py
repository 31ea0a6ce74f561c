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

All inequality checks are one-sided with a small additive slack: quadrature
runs at 1e-10 absolute tolerance, leaving ample margin under the 1e-6
(contraction) and 1e-8 (rate bound) slacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .errors import (
    DegenerateDenominator,
    DomainError,
    NotExpFam,
    ProbeOutsideRegime,
    ProbeTooCloseToFixedPoint,
    SsemError,
    TrajectoryTooShort,
)
from .em import Trajectory
from .model import MixtureParams
from .population import (
    PopulationModel,
    PopulationStep,
    dm0_dtheta_sym2,
    run_population_em,
)

THEOREM_SLACK = 1e-6
RATE_SLACK = 1e-8
RATE_FLOOR = 1e-8  # 100x the default quadrature tolerance

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


def _fixed_point_guard(pm: PopulationModel) -> float:
    return 100.0 * pm.scheme.abs_tol


def contraction_ratio(pm: PopulationModel, theta_probe: MixtureParams,
                      k: int) -> float:
    """|M_gamma - theta*_k| / |M_0 - theta*_k| at the probe.

    Raises :class:`ProbeTooCloseToFixedPoint` when the unlabeled update is
    within quadrature noise of the truth and the ratio is ill-defined.
    """
    star_k = float(pm.theta_star.theta[k])
    step = PopulationStep.at(pm, theta_probe)
    denom = abs(step.m0(k) - star_k)
    if denom <= _fixed_point_guard(pm):
        raise ProbeTooCloseToFixedPoint(
            f"|M0 - theta*| = {denom:.3e} within the quadrature floor")
    return abs(step.m_gamma(k) - star_k) / denom


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
class ContractionReport:
    """Per-probe contraction measurements against the beta_k bound."""

    gamma: float
    theta_star: list[float]
    pi: list[float]
    probes: list[list[float]]
    results: list[ProbeResult] = field(default_factory=list)

    @property
    def pass_all(self) -> bool:
        return all(r.bound_satisfied for r in self.results if not r.skipped)

    def checks(self) -> list[dict]:
        out = []
        for r in self.results:
            name = f"thm1/ratio_le_beta[k={r.component}]"
            if r.skipped:
                out.append({"name": name + " (skipped: probe at fixed point)",
                            "probe": r.probe_theta, "lhs": None, "rhs": None,
                            "pass": True})
            else:
                out.append({"name": name, "probe": r.probe_theta,
                            "lhs": r.ratio_empirical, "rhs": r.beta_theory,
                            "pass": bool(r.bound_satisfied)})
        return out

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma, "theta_star": self.theta_star, "pi": self.pi,
            "probes": self.probes, "pass_all": self.pass_all,
            "results": [vars(r) for r in self.results],
        }


def verify_theorem1(pm: PopulationModel,
                    probe_grid: list[MixtureParams]) -> ContractionReport:
    """Check ``ratio <= beta_k + 1e-6`` for every probe and component.

    Probes whose unlabeled update sits on the fixed point are reported as
    skipped rather than failed.  ``eta`` (the moment ratio ``M_0 /
    theta*_k``) is reported for diagnostics only and may be below 1; the
    bound is symmetric in that case, so no role swap is needed.
    """
    if pm.kind.tag == "expfam":
        raise DomainError("verify_theorem1 covers the Gaussian kinds; "
                          "use verify_theorem2 for exponential families")
    guard = _fixed_point_guard(pm)
    report = ContractionReport(
        gamma=pm.gamma,
        theta_star=pm.theta_star.theta.tolist(),
        pi=pm.theta_star.pi.tolist(),
        probes=[p.theta.tolist() for p in probe_grid])
    for i, probe in enumerate(probe_grid):
        step = PopulationStep.at(pm, probe)
        for k in range(pm.theta_star.K):
            row = ProbeResult(i, k, probe.theta.tolist())
            star_k = float(pm.theta_star.theta[k])
            m0 = step.m0(k)
            dist0 = abs(m0 - star_k)
            if dist0 <= guard:
                row.skipped = True
                report.results.append(row)
                continue
            mg = step.m_gamma(k)
            c = float(step.e_q[k])
            row.ratio_empirical = abs(mg - star_k) / dist0
            row.beta_theory = beta_theoretical(c, float(pm.theta_star.pi[k]),
                                               pm.gamma)
            probe_dist = abs(float(probe.theta[k]) - star_k)
            row.kappa_empirical = (dist0 / probe_dist if probe_dist > 0.0
                                   else math.nan)
            row.r_empirical = row.ratio_empirical * row.kappa_empirical
            row.eta = m0 / star_k if abs(star_k) > 0.0 else math.nan
            row.bound_satisfied = (row.ratio_empirical
                                   <= row.beta_theory + THEOREM_SLACK)
            report.results.append(row)
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

    @property
    def passed(self) -> bool:
        return self.monotone and (self.taylor_exact or self.slope_ok)


@dataclass
class Theorem2Report:
    gamma: float
    theta_star: list[float]
    series: list[Theorem2Series] = field(default_factory=list)

    @property
    def pass_all(self) -> bool:
        return all(s.passed for s in self.series)

    def checks(self) -> list[dict]:
        out = []
        for s in self.series:
            tag = f"[k={s.component},side={'+' if s.side > 0 else '-'}]"
            worst = max((s.gaps[i + 1] - s.gaps[i] for i in range(len(s.gaps) - 1)),
                        default=0.0)
            out.append({"name": f"thm2/gap_monotone{tag}", "probe": s.epsilons,
                        "lhs": worst, "rhs": 0.0, "pass": bool(s.monotone)})
            if s.taylor_exact:
                out.append({"name": f"thm2/taylor_exact{tag}", "probe": s.epsilons,
                            "lhs": max(s.taylor_residuals, default=0.0),
                            "rhs": 0.0, "pass": True})
            else:
                out.append({"name": f"thm2/taylor_slope{tag}", "probe": s.epsilons,
                            "lhs": s.taylor_slope, "rhs": 2.0,
                            "pass": bool(s.slope_ok)})
        return out

    def to_dict(self) -> dict:
        return {"gamma": self.gamma, "theta_star": self.theta_star,
                "pass_all": self.pass_all, "series": [vars(s) for s in self.series]}


def verify_theorem2(pm: PopulationModel, epsilons: list[float],
                    slope_window: float = 0.3) -> Theorem2Report:
    """Check the local contraction-ratio limit for an exponential family.

    For probes ``theta* +- eps`` over shrinking ``eps``, |ratio - beta_k|
    must be nonincreasing, and the first-order Taylor residual of the mean
    function at the updated point must scale as eps^2 (log-log slope within
    ``slope_window`` of 2).  Probes inside the fixed-point guard are
    dropped; when every residual sits at quadrature noise the expansion is
    exact (linear mean function) and the slope fit is skipped.
    """
    if pm.kind.tag != "expfam":
        raise NotExpFam(f"verify_theorem2 requires an expfam kind, got {pm.kind.tag}")
    spec = pm.kind.spec
    guard = _fixed_point_guard(pm)
    eps_sorted = sorted((float(e) for e in epsilons), reverse=True)
    report = Theorem2Report(gamma=pm.gamma,
                            theta_star=pm.theta_star.theta.tolist())
    for side in (+1, -1):
        # Every component's series shares the probes theta* + side * eps.
        steps = [(eps, PopulationStep.at(
                      pm, pm.kind.shift(pm.theta_star, side * eps)))
                 for eps in eps_sorted if eps > guard]
        for k in range(pm.theta_star.K):
            series = Theorem2Series(component=k, side=side)
            star_k = float(pm.theta_star.theta[k])
            ap_star = float(spec.alpha_prime(star_k))
            fisher_star = float(spec.alpha_second(star_k))
            for eps, step in steps:
                m0 = step.m0(k)
                if abs(m0 - star_k) <= guard:
                    continue
                mg = step.m_gamma(k)
                ratio = abs(mg - star_k) / abs(m0 - star_k)
                beta = beta_theoretical(float(step.e_q[k]),
                                        float(pm.theta_star.pi[k]), pm.gamma)
                resid = abs(float(spec.alpha_prime(mg)) - ap_star
                            - (mg - star_k) * fisher_star)
                series.epsilons.append(eps)
                series.ratios.append(ratio)
                series.betas.append(beta)
                series.gaps.append(abs(ratio - beta))
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
                series.slope_ok = abs(slope - 2.0) <= slope_window
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
        return [{"name": f"thm3-{self.item}/theta_star={self.theta_star:g}{suffix}",
                 "probe": self.extras.get("theta_probe"),
                 "lhs": self.measured_kappa,
                 "rhs": self.bound_value / max(1.0 - self.gamma, 1e-300),
                 "pass": bool(self.passed),
                 "applicable": bool(self.applicable)}]

    def to_dict(self) -> dict:
        return vars(self)


def _sym2_model(theta_star, gamma, scheme):
    kwargs = {} if scheme is None else {"scheme": scheme}
    return PopulationModel.sym2(float(theta_star), float(gamma), **kwargs)


def rate_bound_item1(theta_star: float, gamma: float,
                     scheme=None) -> RateBoundReport:
    """Derivative bound ``(1 - gamma) * 4 / (theta*^2 e^2)``.

    Applicable when ``theta* > (2/e) sqrt(1 - gamma)`` (the unscaled
    threshold ``theta* >= 2/e`` is also reported).  Passes when the measured
    derivative respects ``4 / (theta*^2 e^2)`` and, if applicable, the
    gamma-scaled rate is an actual contraction.
    """
    pm = _sym2_model(theta_star, gamma, scheme)
    measured = dm0_dtheta_sym2(pm, float(theta_star))
    kappa_bound = 4.0 / (theta_star ** 2 * math.e ** 2)
    applicable = theta_star > (2.0 / math.e) * math.sqrt(1.0 - gamma)
    passed = measured <= kappa_bound + RATE_SLACK
    if applicable:
        passed = passed and (1.0 - gamma) * measured < 1.0
    return RateBoundReport(
        item=1, theta_star=float(theta_star), gamma=float(gamma),
        bound_value=(1.0 - gamma) * kappa_bound, applicable=applicable,
        measured_kappa=measured, passed=passed,
        extras={"kappa_bound": kappa_bound,
                "applicable_unscaled_threshold": theta_star >= 2.0 / math.e})


def rate_bound_item2(theta_star: float, gamma: float,
                     scheme=None) -> RateBoundReport:
    """Tail-split derivative bound for ``theta* > 2``:
    ``(1-gamma) * 4 [ (1/(theta*^2 e^2)) e^{-9 theta*^2/32}
                      + (theta*^2/16) e^{-theta*^2/2} ]``."""
    pm = _sym2_model(theta_star, gamma, scheme)
    measured = dm0_dtheta_sym2(pm, float(theta_star))
    kappa_bound = 4.0 * (
        math.exp(-9.0 * theta_star ** 2 / 32.0) / (theta_star ** 2 * math.e ** 2)
        + theta_star ** 2 / 16.0 * math.exp(-theta_star ** 2 / 2.0))
    applicable = theta_star > 2.0
    supremum_bound = 4.0 / (theta_star ** 2 * math.e ** 2)
    return RateBoundReport(
        item=2, theta_star=float(theta_star), gamma=float(gamma),
        bound_value=(1.0 - gamma) * kappa_bound, applicable=applicable,
        measured_kappa=measured,
        passed=measured <= kappa_bound + RATE_SLACK,
        extras={"kappa_bound": kappa_bound,
                "item1_kappa_bound": supremum_bound,
                "tighter_than_item1": kappa_bound <= supremum_bound})


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / _SQRT_2PI


def _upper_tail(t: float) -> float:
    return 0.5 * erfc(t / math.sqrt(2.0))


def unlabeled_pull_sym2(pm: PopulationModel, theta: float) -> float:
    """``-E[q(Y; theta) Y]``: the unlabeled gradient term whose Lipschitz
    constant drives the smoothness rate bound.  Equals half the scalar
    unlabeled-only update."""
    if pm.kind.tag != "sym2":
        raise DomainError("unlabeled_pull_sym2 requires the sym2 kind")
    step = PopulationStep.at(pm, MixtureParams.symmetric(float(theta)))
    return -float(step.e_qt[0])


def rate_bound_item3(theta_star: float, gamma: float, theta_probe: float,
                     scheme=None) -> RateBoundReport:
    """Gradient-smoothness bound for probes beyond ``theta* + 1``.

    Checks, by quadrature, that ``2 |f(theta) - f(theta*)|`` (with
    ``f(theta) = -E[q(Y; theta) Y]``) stays below the constant
    ``(2 / (9 theta*^2 sqrt(2 pi))) e^{-theta*^2 / 2}`` and below that
    constant times ``|theta - theta*|``, and that the unlabeled update
    contracts accordingly.

    The constant omits the boundary term ``2 (phi(theta*) - theta*
    (1 - Phi(theta*)))`` that a full accounting of the half-line integrals
    produces; measurements exceed the stated constant at moderate
    separations, and the version with the boundary term restored is
    evaluated alongside it in ``extras`` for comparison.
    """
    if theta_probe <= theta_star + 1.0:
        raise ProbeOutsideRegime(
            f"probe {theta_probe} must exceed theta* + 1 = {theta_star + 1.0}")
    pm = _sym2_model(theta_star, gamma, scheme)
    const = (2.0 / (9.0 * theta_star ** 2 * _SQRT_2PI)
             * math.exp(-theta_star ** 2 / 2.0))
    applicable = theta_star > 0.5
    gap = theta_probe - theta_star

    # f(theta_probe) and M_0(theta_probe) = 2 f(theta_probe) share one step.
    step = PopulationStep.at(pm, MixtureParams.symmetric(float(theta_probe)))
    f_probe = -float(step.e_qt[0])
    f_star = unlabeled_pull_sym2(pm, float(theta_star))
    smooth_lhs = 2.0 * abs(f_probe - f_star)
    m0 = step.m0(1)
    contraction_lhs = abs(m0 - theta_star)

    boundary_term = 2.0 * (_phi(theta_star) - theta_star * _upper_tail(theta_star))
    const_with_boundary = const + boundary_term

    ok_const = smooth_lhs <= const + RATE_SLACK
    ok_scaled = smooth_lhs <= const * gap + RATE_SLACK
    ok_contraction = contraction_lhs <= const * gap + RATE_SLACK
    passed = (ok_const and ok_scaled and ok_contraction) or not applicable
    return RateBoundReport(
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
            "boundary_term_ok":
                smooth_lhs <= const_with_boundary * max(1.0, gap) + RATE_SLACK,
        })


def gaussian_tail_sandwich(t: float) -> tuple[float, float, float]:
    """Two-sided bounds on the standard normal upper tail probability:

        (1/t - 1/t^3) phi(t) <= P(Y > t) <= (1/t) phi(t),  t > 0,

    with the tail computed through the complementary error function.
    Returns ``(lower, upper, phi_tail)``.  The lower bound is vacuous
    (negative) for t < 1.
    """
    if not t > 0.0:
        raise DomainError("tail sandwich requires t > 0")
    density = _phi(t)
    lower = (1.0 / t - 1.0 / t ** 3) * density
    upper = density / t
    tail = _upper_tail(t)
    if t >= 1.0 and not lower <= tail <= upper:
        raise SsemError(f"tail sandwich violated at t={t}: "
                        f"{lower} <= {tail} <= {upper}")
    return lower, upper, tail


def _step_ratios(traj: Trajectory, theta_star: MixtureParams,
                 floor: float) -> tuple[int, list[float]]:
    """How many iterates have a max-norm error above ``floor``, and the
    ratio ``err_{t+1} / err_t`` of every step that starts from one."""
    errs = np.array([float(np.max(np.abs(p.theta - theta_star.theta)))
                     for p in traj.iterates])
    ratios = [float(errs[t + 1] / errs[t])
              for t in range(len(errs) - 1) if errs[t] > floor]
    return int(np.count_nonzero(errs > floor)), ratios


def empirical_rate(traj: Trajectory, theta_star: MixtureParams,
                   floor: float = RATE_FLOOR) -> float:
    """Worst per-step error contraction ``err_{t+1} / err_t`` along a
    trajectory, ignoring steps whose starting error sits below ``floor``
    (noise / quadrature level).

    Requires at least three iterates above the floor, otherwise raises
    :class:`TrajectoryTooShort`.
    """
    above, ratios = _step_ratios(traj, theta_star, floor)
    if above < 3:
        raise TrajectoryTooShort(
            f"only {above} iterates above the floor {floor:g}")
    return max(ratios)


def measurable_step_ratios(traj: Trajectory, theta_star: MixtureParams,
                           floor: float = RATE_FLOOR) -> list[float]:
    """Per-step error ratios for steps starting above the floor (may be
    fewer than the strict three-iterate requirement of
    :func:`empirical_rate`)."""
    return _step_ratios(traj, theta_star, floor)[1]


@dataclass
class RescueReport:
    """Multiplicative-rescue demonstration: measured kappa, the labeled
    fraction that would neutralize it, and trajectories around it."""

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

    @property
    def pass_all(self) -> bool:
        return all(self.ratio_ok.values())

    def checks(self) -> list[dict]:
        out = [{"name": f"rescue/status={self.status}", "probe": self.kappa_probe,
                "lhs": self.kappa_measured, "rhs": 1.0, "pass": True}]
        for key, ok in self.ratio_ok.items():
            ratios = self.step_ratios[key]
            out.append({"name": f"rescue/step_ratio_le_beta_kappa[gamma={key}]",
                        "probe": None,
                        "lhs": max(ratios) if ratios else None,
                        "rhs": self.ratio_bounds[key], "pass": bool(ok)})
        return out

    def to_dict(self) -> dict:
        return vars(self)


def demonstrate_rescue(pm: PopulationModel,
                       probe_offsets=None,
                       max_iters: int = 24) -> RescueReport:
    """Measure kappa for the unlabeled-only operator, solve for the labeled
    fraction ``gamma_min`` at which ``beta(gamma) * kappa = 1``, and emit
    population-EM trajectories bracketing it.

    The probes are ``kind.shift(theta*, offset)``; one outside the natural
    domain is skipped, as is a component inside the fixed-point guard or
    whose ``E[q_k]`` underflows the denominator guard.

    When kappa < 1 the operator already contracts; the report carries the
    ``no_rescue_needed`` status (this is the observed situation for the
    symmetric pair at every separation) and the trajectories demonstrate the
    labeled speedup instead.
    """
    offsets = (np.linspace(0.25, 3.0, 8) if probe_offsets is None
               else np.asarray(probe_offsets, dtype=float))
    pm0 = pm.with_gamma(0.0)
    guard = _fixed_point_guard(pm)

    kappa, k_best, step_best = -math.inf, 0, None
    for off in offsets:
        try:
            probe = pm.kind.shift(pm.theta_star, off)
        except DomainError:  # the probe leaves the natural domain
            continue
        step = PopulationStep.at(pm0, probe)
        for k in range(pm.theta_star.K):
            star_k = float(pm.theta_star.theta[k])
            probe_dist = abs(float(step.theta.theta[k]) - star_k)
            if probe_dist <= guard:
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
        kappa = max(kappa, dm0_dtheta_sym2(pm0, pm.sym2_star()))

    probe_best = step_best.theta
    c_best = float(step_best.e_q[k_best])
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
    theta0 = probe_best
    for gamma in (gamma_lo, gamma_hi):
        traj = run_population_em(pm.with_gamma(gamma), theta0,
                                 max_iters=max_iters)
        key = f"{gamma:.6g}"
        ratios = measurable_step_ratios(traj, pm.theta_star)
        bound = (beta_theoretical(c_best, pi_k, gamma) * kappa
                 + THEOREM_SLACK)
        report.trajectory_errors[key] = traj.errors
        report.step_ratios[key] = ratios
        report.ratio_bounds[key] = bound
        report.ratio_ok[key] = all(r <= bound for r in ratios)
    return report
