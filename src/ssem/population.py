"""Population (infinite-data) EM operators evaluated by deterministic
numerical integration.

All expectations are taken under the true marginal mixture with parameters
``theta_star``.  Labeled-sample moments never go through quadrature: they
are available in closed form (`E[1{X=k}] = pi_k`, `E[1{X=k} t(Y)] =
pi_k * alpha_prime(theta*_k)`, which is `pi_k * theta*_k` for Gaussians).

Continuous supports are integrated with the adaptive Gauss-Kronrod rule on
a truncated interval (``range_sigma`` standard deviations beyond the
outermost component means; the tails beyond 8 sigma carry less than 1e-15
mass).  Integer supports are summed over the same truncated range.

The labeled fraction gamma must be < 1 here: the gamma = 1 limit is exact
labeled conditioning and is answered by :func:`theta_star_from_labels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import quadrature
from .em import Trajectory
from .errors import DegenerateDenominator, DomainError
from .model import (
    MixtureParams,
    ModelKind,
    marginal_log_density,
    responsibilities,
)

_DEGENERATE_DENOMINATOR = 1e-12


@dataclass(frozen=True)
class QuadratureScheme:
    """Truncation and tolerance settings for population expectations."""

    abs_tol: float = 1e-10
    range_sigma: float = 12.0
    max_subdivisions: int = 1 << 16

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be positive")
        if self.range_sigma < 8.0:
            raise ValueError("range_sigma below 8 truncates non-negligible mass")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class PopulationModel:
    """Ground truth, labeled fraction, and integration settings."""

    kind: ModelKind
    theta_star: MixtureParams
    gamma: float
    scheme: QuadratureScheme = QuadratureScheme()

    def __post_init__(self):
        self.kind.check_params(self.theta_star)
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError(
                f"gamma must be in [0, 1): gamma=1 is handled analytically "
                f"by theta_star_from_labels (got {self.gamma})")

    @classmethod
    def sym2(cls, theta_star: float, gamma: float,
             scheme: QuadratureScheme = QuadratureScheme()) -> "PopulationModel":
        if theta_star < 0.0:
            raise DomainError("symmetric-pair ground truth must have theta >= 0")
        return cls(ModelKind.sym2(), MixtureParams.symmetric(theta_star),
                   gamma, scheme)

    def with_gamma(self, gamma: float) -> "PopulationModel":
        return replace(self, gamma=gamma)

    def sym2_star(self) -> float:
        return self.theta_star.sym2_scalar()


def _component_scales(pm: PopulationModel) -> tuple[np.ndarray, np.ndarray]:
    """Component means and standard deviations under the truth."""
    spec, theta = pm.kind.family, pm.theta_star.theta
    means = np.asarray(spec.alpha_prime(theta), dtype=float)
    sds = np.sqrt(np.asarray(spec.alpha_second(theta), dtype=float))
    return means, sds


def _truncation(pm: PopulationModel) -> tuple[float, float]:
    means, sds = _component_scales(pm)
    rs = pm.scheme.range_sigma
    support = pm.kind.family.support
    lo = max(float(np.min(means - rs * sds)), support.lo)
    hi = min(float(np.max(means + rs * sds)), support.hi)
    return lo, hi


def expect(pm: PopulationModel, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """E[f(Y)] under the true marginal, to ``scheme.abs_tol`` absolute error."""
    lo, hi = _truncation(pm)
    if pm.kind.family.support.kind == "integer":
        ys = np.arange(math.floor(lo), math.ceil(hi) + 1, dtype=float)
        weights = np.exp(marginal_log_density(pm.kind, pm.theta_star, ys))
        return float(np.sum(np.asarray(f(ys), dtype=float) * weights))

    def integrand(y):
        density = np.exp(marginal_log_density(pm.kind, pm.theta_star, y))
        return np.asarray(f(y), dtype=float) * density

    # Unit-width starting panels so sub-sigma features (e.g. the sech^2
    # factor at large probe theta) land on nodes before refinement begins.
    panels = int(min(256, max(8, math.ceil(hi - lo))))
    value, _ = quadrature.integrate(
        integrand, lo, hi,
        abs_tol=pm.scheme.abs_tol,
        max_subdivisions=pm.scheme.max_subdivisions,
        initial_panels=panels)
    return value


def c_theta(pm: PopulationModel, theta: MixtureParams, k: int) -> float:
    """Expected responsibility E[q(Y; theta_k)] under the truth."""
    pm.kind.check_params(theta)
    return expect(pm, lambda y: responsibilities(pm.kind, theta, y)[:, k])


def _statistic(pm: PopulationModel, y: np.ndarray) -> np.ndarray:
    return np.asarray(pm.kind.family.t(y), dtype=float)


def responsibility_moments(pm: PopulationModel, theta: MixtureParams,
                           k: int) -> tuple[float, float]:
    """(E[q_k], E[q_k * t(Y)]) under the truth, for probe parameters."""
    pm.kind.check_params(theta)
    e_q = expect(pm, lambda y: responsibilities(pm.kind, theta, y)[:, k])
    e_qt = expect(
        pm, lambda y: responsibilities(pm.kind, theta, y)[:, k] * _statistic(pm, y))
    return e_q, e_qt


def _labeled_moment(pm: PopulationModel, k: int) -> float:
    """E[1{X=k} t(Y)] in closed form."""
    mean_k = float(pm.kind.family.alpha_prime(pm.theta_star.theta[k]))
    return float(pm.theta_star.pi[k]) * mean_k


def _sym2_m0_scalar(pm: PopulationModel, theta_scalar: float) -> float:
    # Scalar unlabeled-only update: E[(1 - 2q)Y] with E[Y] = 0 analytically,
    # i.e. -2 E[q(Y; theta) Y].
    params = MixtureParams.symmetric(theta_scalar)
    return -2.0 * expect(
        pm, lambda y: responsibilities(ModelKind.sym2(), params, y)[:, 0] * y)


def pop_m0(pm: PopulationModel, theta: MixtureParams, k: int) -> float:
    """Unlabeled-only population update of component k at probe ``theta``."""
    if pm.kind.tag == "sym2":
        m = _sym2_m0_scalar(pm, theta.sym2_scalar())
        return -m if k == 0 else m
    e_q, e_qt = responsibility_moments(pm, theta, k)
    if abs(e_q) < _DEGENERATE_DENOMINATOR:
        raise DegenerateDenominator(f"E[q_{k}] = {e_q:.3e}")
    return pm.kind.theta_from_mean(e_qt / e_q, x0=float(theta.theta[k]))


def pop_m_gamma(pm: PopulationModel, theta: MixtureParams, k: int) -> float:
    """Semi-supervised population update of component k at probe ``theta``.

    For the symmetric pair this is the convex combination
    ``(1 - gamma) * M0(theta) + gamma * theta_star``; otherwise the labeled
    moments enter the numerator and denominator of the responsibility ratio
    with weight gamma.
    """
    gamma = pm.gamma
    if pm.kind.tag == "sym2":
        star = pm.sym2_star()
        m = (1.0 - gamma) * _sym2_m0_scalar(pm, theta.sym2_scalar()) + gamma * star
        return -m if k == 0 else m
    e_q, e_qt = responsibility_moments(pm, theta, k)
    pi_k = float(pm.theta_star.pi[k])
    num = (1.0 - gamma) * e_qt + gamma * _labeled_moment(pm, k)
    den = (1.0 - gamma) * e_q + gamma * pi_k
    if abs(den) < _DEGENERATE_DENOMINATOR:
        raise DegenerateDenominator(f"denominator {den:.3e} for component {k}")
    return pm.kind.theta_from_mean(num / den, x0=float(theta.theta[k]))


def theta_star_from_labels(pm: PopulationModel, k: int) -> float:
    """Fully labeled limit: the conditional-mean identity, no quadrature.

    Gaussian kinds return theta*_k directly; exponential families invert the
    mean function at the conditional mean of the sufficient statistic.
    """
    if not 0 <= k < pm.theta_star.K:
        raise DomainError(f"component index {k} out of range")
    star_k = float(pm.theta_star.theta[k])
    return pm.kind.theta_from_mean(pm.kind.family.alpha_prime(star_k), x0=star_k)


def dm0_dtheta_sym2(pm: PopulationModel, theta: float) -> float:
    """Derivative of the scalar unlabeled-only update for the symmetric pair:
    ``4 E[Y^2 exp(-2|Y| theta) / (1 + exp(-2|Y| theta))^2]``."""
    if pm.kind.tag != "sym2":
        raise DomainError("dm0_dtheta_sym2 requires the sym2 kind")
    if theta < 0.0:
        raise DomainError("derivative probe must satisfy theta >= 0")

    def integrand(y):
        z = np.exp(-2.0 * np.abs(y) * theta)
        return 4.0 * y * y * z / (1.0 + z) ** 2

    return expect(pm, integrand)


def run_population_em(pm: PopulationModel, theta0: MixtureParams,
                      max_iters: int = 200, tol: float = 1e-13) -> Trajectory:
    """Iterate ``theta <- M_gamma(theta)`` from ``theta0``.

    Errors against ``theta_star`` are recorded exactly per iterate; the
    surrogate column stays empty.
    """
    pm.kind.check_params(theta0)
    traj = Trajectory(iterates=[theta0])
    traj.errors.append(float(np.max(np.abs(theta0.theta - pm.theta_star.theta))))
    current = theta0
    for _ in range(max_iters):
        if pm.kind.tag == "sym2":
            star = pm.sym2_star()
            scalar = ((1.0 - pm.gamma)
                      * _sym2_m0_scalar(pm, current.sym2_scalar())
                      + pm.gamma * star)
            nxt = MixtureParams.symmetric(scalar)
        else:
            nxt = MixtureParams(
                current.pi,
                [pop_m_gamma(pm, current, k) for k in range(current.K)])
        traj.iterates.append(nxt)
        traj.errors.append(float(np.max(np.abs(nxt.theta - pm.theta_star.theta))))
        delta = float(np.max(np.abs(nxt.theta - current.theta)))
        current = nxt
        if delta < tol:
            break
    return traj
