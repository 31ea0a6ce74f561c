"""Mixture model families: densities, responsibilities, parameter containers.

Every kind is K components of a one-parameter exponential family
``p(y | k) = exp(theta_k * t(y) + h(y) - alpha(theta_k))`` with known
weights pi_k:

* ``gmm``    -- the unit-variance Gaussian member, N(theta_k, 1);
* ``expfam`` -- a user-supplied family;
* ``sym2``   -- the Gaussian member's tied two-component case: equally
  weighted components at -theta and +theta.

Responsibilities are the posterior component probabilities under the current
parameters (mixture weights included) and are always computed in log space
with a max shift; a positive logit difference is never exponentiated.

Everything here is a pure function of immutable values and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MeanOutOfRange, NoConvergence

LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class Support:
    """Observation support: ``kind`` is ``"real"`` or ``"integer"``."""

    kind: str
    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if self.kind not in ("real", "integer"):
            raise ValueError(f"unknown support kind {self.kind!r}")


@dataclass(frozen=True)
class ExpFamilySpec:
    """A one-parameter exponential family in natural form.

    ``p(y; theta) = exp(theta * t(y) + log_carrier(y) - alpha(theta))`` on
    ``support``.  ``alpha_prime`` is the mean function (strictly increasing
    on ``natural_domain``) and ``alpha_second`` its derivative, the Fisher
    information, both supplied analytically.  All callables must accept and
    return ndarrays.

    ``quantile(theta, u)``, when given, maps uniforms in (0, 1) to component
    draws by inverse CDF; it is required only for sampling datasets.

    ``alpha_prime_inv(mu)``, when given, is the closed-form inverse of the
    mean function; :func:`invert_alpha_prime` then uses it in place of
    Newton.  The built-in families supply one.
    """

    name: str
    t: Callable
    log_carrier: Callable
    alpha: Callable
    alpha_prime: Callable
    alpha_second: Callable
    natural_domain: tuple[float, float] = (-np.inf, np.inf)
    support: Support = Support("real")
    quantile: Callable | None = None
    alpha_prime_inv: Callable | None = None

    def check_theta(self, theta: np.ndarray) -> None:
        lo, hi = self.natural_domain
        theta = np.asarray(theta)
        if np.any(theta <= lo) or np.any(theta >= hi):
            raise DomainError(
                f"theta {theta} outside open natural domain ({lo}, {hi}) "
                f"of family {self.name!r}")


def gaussian_spec() -> ExpFamilySpec:
    """Unit-variance Gaussian: t(y)=y, alpha(theta)=theta^2/2."""

    # scipy.special is imported where it is used, not with the package: it
    # is most of the import time of ``ssem.cli``.
    def _quantile(th, u):
        from scipy.special import ndtri

        return th + ndtri(u)

    return ExpFamilySpec(
        name="gaussian",
        t=lambda y: y,
        log_carrier=lambda y: -0.5 * y * y - LOG_SQRT_2PI,
        alpha=lambda th: 0.5 * th * th,
        alpha_prime=lambda th: th,
        alpha_second=lambda th: np.ones_like(np.asarray(th, dtype=float)),
        natural_domain=(-np.inf, np.inf),
        support=Support("real"),
        quantile=_quantile,
        alpha_prime_inv=lambda mu: mu,
    )


# Relative half-width of the band around each step of the Poisson CDF in
# which ``_poisson_quantile`` defers to scipy's rule.  A table search and
# the rule can disagree only where ``pdtrik`` and ``pdtr`` disagree on where
# a step is.  For every mean on a grid of step 0.05 in log(mu) up to
# ``_POISSON_TABLE_MAX_MU``, ``pdtrik(pdtr(k, mu), mu)`` lands back on k to
# within 2.3e-12 of u (the steps k within 13 sd of mu), 400 times inside
# the band.  Above that mean the gap grows: at mu = e^16, ``pdtr`` jumps by
# 1e-7 of u where scipy switches method, 4.5 sd above the mean.
_POISSON_STEP_BAND = 1e-9
_POISSON_TABLE_MAX_MU = 1e4


def _poisson_rule(u, mu):
    """scipy's Poisson inverse CDF, the body of ``scipy.stats.poisson._ppf``
    (scipy 1.17.1): ``k = ceil(pdtrik(u, mu))``, then ``k - 1`` where
    ``pdtr(k - 1, mu) >= u``."""
    from scipy.special import pdtr, pdtrik

    k = np.ceil(pdtrik(u, mu))
    below = np.maximum(k - 1.0, 0.0)
    return np.where(pdtr(below, mu) >= u, below, k)


def _poisson_quantile(th, u):
    """Poisson(exp(th)) draws for uniforms ``u`` in (0, 1): the smallest k
    with ``pdtr(k, mu) >= u``, as the same floats that
    ``scipy.stats.poisson.ppf(u, exp(th))`` returns.

    The rule of :func:`_poisson_rule` at ``min(u)`` and ``max(u)`` brackets
    the draws; one ``searchsorted`` on the CDF tabulated one step beyond
    that bracket maps them (inversion by table search, Devroye 1986,
    III.2).  A draw within ``_POISSON_STEP_BAND`` of a step takes the rule's
    own answer.  So does every draw when mu is above
    ``_POISSON_TABLE_MAX_MU``.  Below it, with u in [2^-54, 1 - 2^-53], the
    table holds at most about 1,750 entries.
    """
    from scipy.special import pdtr

    mu = np.exp(th)
    u = np.asarray(u, dtype=float)
    if u.size == 0 or mu > _POISSON_TABLE_MAX_MU:
        return _poisson_rule(u, mu)
    lo, hi = _poisson_rule(np.array([u.min(), u.max()]), mu)
    if not np.isfinite(hi - lo):  # u of 0 or 1, or NaN
        return _poisson_rule(u, mu)
    start = max(lo - 1.0, 0.0)
    cdf = pdtr(np.arange(start, hi + 2.0), mu)
    idx = np.searchsorted(cdf, u, side="left")
    # cdf[idx - 1] < u <= cdf[idx].  The sentinels make a draw outside the
    # table's interior count as near a step: above the last entry, or at or
    # below the first one when that is not pdtr(0).
    steps = np.concatenate(([np.inf if start else -np.inf], cdf, [-np.inf]))
    near = (np.minimum(steps[idx + 1] - u, u - steps[idx])
            <= _POISSON_STEP_BAND * u)
    k = idx + start
    k[near] = _poisson_rule(u[near], mu)
    return k


def poisson_spec() -> ExpFamilySpec:
    """Poisson with natural parameter log-mean: alpha(theta)=exp(theta)."""

    def _log_carrier(y):
        from scipy.special import gammaln

        return -gammaln(np.asarray(y, dtype=float) + 1.0)

    return ExpFamilySpec(
        name="poisson",
        t=lambda y: y,
        log_carrier=_log_carrier,
        alpha=np.exp,
        alpha_prime=np.exp,
        alpha_second=np.exp,
        natural_domain=(-np.inf, np.inf),
        support=Support("integer", 0, np.inf),
        quantile=_poisson_quantile,
        alpha_prime_inv=np.log,
    )


def exponential_spec() -> ExpFamilySpec:
    """Exponential distribution with rate -theta, theta < 0."""
    return ExpFamilySpec(
        name="exponential",
        t=lambda y: y,
        log_carrier=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        alpha=lambda th: -np.log(-th),
        alpha_prime=lambda th: -1.0 / th,
        alpha_second=lambda th: 1.0 / (th * th),
        natural_domain=(-np.inf, 0.0),
        support=Support("real", 0.0, np.inf),
        quantile=lambda th, u: np.log1p(-u) / th,
        alpha_prime_inv=lambda mu: -1.0 / mu,
    )


_GAUSSIAN = gaussian_spec()

BUILTIN_FAMILIES = {
    "gaussian": gaussian_spec,
    "poisson": poisson_spec,
    "exponential": exponential_spec,
}


class MixtureParams:
    """Weights ``pi`` and component parameters ``theta`` of a K-mixture.

    Immutable; ``pi`` must be strictly positive and sum to 1 within 1e-12.
    """

    __slots__ = ("pi", "theta")

    def __init__(self, pi, theta):
        pi = np.asarray(pi, dtype=float).copy()
        theta = np.asarray(theta, dtype=float).copy()
        if pi.ndim != 1 or theta.ndim != 1 or pi.shape != theta.shape:
            raise DomainError("pi and theta must be 1-d vectors of equal length")
        if pi.size < 1:
            raise DomainError("mixture needs at least one component")
        if np.any(pi <= 0.0):
            raise DomainError(f"all mixture weights must be positive, got {pi}")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise DomainError(f"mixture weights must sum to 1, got sum={pi.sum()!r}")
        if not np.all(np.isfinite(theta)):
            raise DomainError(f"component parameters must be finite, got {theta}")
        pi.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)

    def __setattr__(self, name, value):
        raise AttributeError("MixtureParams is immutable")

    @property
    def K(self) -> int:
        return self.theta.size

    @classmethod
    def symmetric(cls, theta: float) -> "MixtureParams":
        """Tied two-component parameters (-theta, +theta) with equal weights."""
        theta = float(theta)
        return cls([0.5, 0.5], [-theta, theta])

    def sym2_scalar(self) -> float:
        """Scalar behind a symmetric pair; raises if the tie does not hold."""
        if self.K != 2 or self.theta[0] != -self.theta[1] or self.pi[0] != 0.5:
            raise DomainError(f"not a tied symmetric pair: {self}")
        return float(self.theta[1])

    def __eq__(self, other):
        return (isinstance(other, MixtureParams)
                and np.array_equal(self.pi, other.pi)
                and np.array_equal(self.theta, other.theta))

    def __repr__(self):
        return f"MixtureParams(pi={self.pi.tolist()}, theta={self.theta.tolist()})"


@dataclass(frozen=True)
class ModelKind:
    """Which of the three model kinds; :attr:`family` names the exponential
    family its components come from."""

    tag: str
    spec: ExpFamilySpec | None = None

    def __post_init__(self):
        if self.tag not in ("gmm", "sym2", "expfam"):
            raise DomainError(f"unknown model kind {self.tag!r}")
        if self.tag == "expfam" and self.spec is None:
            raise DomainError("expfam kind requires an ExpFamilySpec")
        if self.tag != "expfam" and self.spec is not None:
            raise DomainError(f"{self.tag} kind takes no family spec")

    @property
    def family(self) -> ExpFamilySpec:
        """The exponential family behind this kind: the supplied spec for
        ``expfam``, the unit-variance Gaussian for ``gmm`` and ``sym2``."""
        return _GAUSSIAN if self.spec is None else self.spec

    @classmethod
    def gmm(cls) -> "ModelKind":
        return cls("gmm")

    @classmethod
    def sym2(cls) -> "ModelKind":
        return cls("sym2")

    @classmethod
    def expfam(cls, spec: ExpFamilySpec) -> "ModelKind":
        return cls("expfam", spec)

    def theta_from_mean(self, mean: float, x0: float) -> float:
        """Component parameter whose mean statistic is ``mean``:
        :func:`invert_alpha_prime` of :attr:`family`, started at ``x0``
        when the family has no closed-form inverse."""
        return invert_alpha_prime(self.family, float(mean), x0=x0)

    def check_params(self, params: MixtureParams) -> None:
        if self.tag == "sym2":
            params.sym2_scalar()
        if self.tag == "expfam":
            self.spec.check_theta(params.theta)

    def params(self, value, weights: Callable) -> MixtureParams:
        """Checked parameters from a config value: one scalar for ``sym2``
        (the tied pair ``(-value, value)``; ``weights`` is not called),
        otherwise one entry per component, weighted by ``weights(K)``."""
        if self.tag == "sym2":
            params = MixtureParams.symmetric(value)
        else:
            theta = np.atleast_1d(np.asarray(value, dtype=float))
            params = MixtureParams(weights(theta.size), theta)
        self.check_params(params)
        return params

    def shift(self, params: MixtureParams, offset: float) -> MixtureParams:
        """Checked parameters moved by ``offset``: along the tie for
        ``sym2``, every component for the other kinds."""
        value = params.sym2_scalar() if self.tag == "sym2" else params.theta
        return self.params(value + offset, lambda k: params.pi)


def _natural_logits(family: ExpFamilySpec, theta: np.ndarray, log_pi,
                    y: np.ndarray) -> np.ndarray:
    """(K, N) array ``log_pi_k + theta_k t(y_i) - alpha(theta_k)``: the
    component log densities without the carrier ``h(y)``, which every
    component shares.  ``y`` must already be 1-d float."""
    logits = np.multiply.outer(theta, np.asarray(family.t(y), dtype=float))
    logits += (log_pi - np.asarray(family.alpha(theta), dtype=float))[:, None]
    return logits


def component_log_density(kind: ModelKind, k: int, params: MixtureParams, y):
    """log p(y | component k; theta).  Vectorized over ``y``."""
    kind.check_params(params)
    if not 0 <= k < params.K:
        raise DomainError(f"component index {k} out of range for K={params.K}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    family = kind.family
    out = (_natural_logits(family, params.theta, 0.0, y_arr)[k]
           + np.asarray(family.log_carrier(y_arr), dtype=float))
    return float(out[0]) if np.isscalar(y) or np.ndim(y) == 0 else out


def _shifted_exp(logits: np.ndarray) -> np.ndarray:
    """In place on a (K, N) array: subtract each column's max and
    exponentiate, so every exponent is <= 0.  Returns the column maxima."""
    top = logits.max(axis=0)
    logits -= top
    np.exp(logits, out=logits)
    return top


def marginal_log_density(kind: ModelKind, params: MixtureParams, y):
    """log of the pi-weighted component density sum: the carrier ``h(y)``
    plus the log-sum-exp of the natural-form logits, taken as the column
    max plus the log of the max-shifted exponentials' sum, so nothing
    overflows for |theta|, |y| up to 50."""
    kind.check_params(params)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    family = kind.family
    logits = _natural_logits(family, params.theta, np.log(params.pi), y_arr)
    top = _shifted_exp(logits)
    out = (np.asarray(family.log_carrier(y_arr), dtype=float)
           + (np.log(logits.sum(axis=0)) + top))
    return float(out[0]) if np.isscalar(y) or np.ndim(y) == 0 else out


def log_responsibilities(kind: ModelKind, params: MixtureParams,
                         y: np.ndarray) -> np.ndarray:
    """(N, K) matrix of log posterior component probabilities."""
    kind.check_params(params)
    logits = _natural_logits(kind.family, params.theta, np.log(params.pi),
                             np.asarray(y, dtype=float))
    logits -= logits.max(axis=0)
    return (logits - np.log(np.exp(logits).sum(axis=0))).T


def responsibilities(kind: ModelKind, params: MixtureParams,
                     y: np.ndarray) -> np.ndarray:
    """(N, K) posterior probabilities; rows sum to 1.

    The result is the transposed view of a C-contiguous (K, N) array, so
    ``responsibilities(...).T`` holds one contiguous row per component.
    The logits are linear in ``t(y)`` (``h(y)`` cancels), so no ``y**2``
    is ever formed; one max shift keeps every exponent <= 0.
    """
    kind.check_params(params)
    q = _natural_logits(kind.family, params.theta, np.log(params.pi),
                        np.asarray(y, dtype=float))
    _shifted_exp(q)
    q /= q.sum(axis=0)
    return q.T


def responsibility(kind: ModelKind, params: MixtureParams, y, k: int):
    """Posterior probability of component ``k`` given ``y``.

    For ``sym2``, ``k=0`` is the component at ``-theta``; the value equals
    the logistic ``1 / (1 + exp(2*y*theta))``.
    """
    kind.check_params(params)
    if not 0 <= k < params.K:
        raise DomainError(f"component index {k} out of range for K={params.K}")
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    out = responsibilities(kind, params, y_arr)[:, k]
    return float(out[0]) if np.isscalar(y) or np.ndim(y) == 0 else out


def invert_alpha_prime(spec: ExpFamilySpec, target: float,
                       x0: float | None = None,
                       tol: float = 1e-12, max_iter: int = 200) -> float:
    """Solve ``alpha_prime(x) = target`` for x in the natural domain.

    A family with ``alpha_prime_inv`` is inverted in closed form; ``x0``,
    ``tol`` and ``max_iter`` are then unused.  Raises
    :class:`MeanOutOfRange` when the result is not finite or not inside
    the open natural domain.

    Otherwise safeguarded Newton: a bracket is grown geometrically from
    ``x0`` using the monotonicity of ``alpha_prime``; Newton steps that
    leave the bracket fall back to bisection.  It stops at an *absolute*
    residual ``|alpha_prime(x) - target| < tol``, so x is accurate only to
    about ``tol / alpha_second(x)``: loose where ``alpha_prime`` is flat
    (a Poisson mean of 1e-14 would come back as log-mean -28 rather than
    -32), and a target inside ``tol`` of the range's end is not rejected.
    Raises :class:`MeanOutOfRange` when no bracket exists inside the domain
    and :class:`NoConvergence` after ``max_iter`` iterations.
    """
    lo_dom, hi_dom = spec.natural_domain
    if not np.isfinite(target):
        raise MeanOutOfRange(f"target statistic {target} is not finite")
    if spec.alpha_prime_inv is not None:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = float(spec.alpha_prime_inv(np.float64(target)))
        if not (np.isfinite(x) and lo_dom < x < hi_dom):
            raise MeanOutOfRange(
                f"statistic {target} outside the range of alpha_prime for "
                f"{spec.name!r}")
        return x

    def residual(x):
        return float(spec.alpha_prime(x)) - target

    if x0 is None or not (lo_dom < x0 < hi_dom) or not np.isfinite(x0):
        if np.isfinite(lo_dom) and np.isfinite(hi_dom):
            x0 = 0.5 * (lo_dom + hi_dom)
        elif np.isfinite(lo_dom):
            x0 = lo_dom + 1.0
        elif np.isfinite(hi_dom):
            x0 = hi_dom - 1.0
        else:
            x0 = 0.0

    # Grow a bracket [lo, hi] with residual(lo) <= 0 <= residual(hi).
    lo = hi = float(x0)
    r0 = residual(x0)
    step = max(1.0, abs(x0))
    for _ in range(200):
        if residual(lo) <= 0.0:
            break
        lo = 0.5 * (lo + lo_dom) if np.isfinite(lo_dom) else lo - step
        step *= 2.0
    else:
        raise MeanOutOfRange(
            f"statistic {target} below the range of alpha_prime for {spec.name!r}")
    step = max(1.0, abs(x0))
    for _ in range(200):
        if residual(hi) >= 0.0:
            break
        hi = 0.5 * (hi + hi_dom) if np.isfinite(hi_dom) else hi + step
        step *= 2.0
    else:
        raise MeanOutOfRange(
            f"statistic {target} above the range of alpha_prime for {spec.name!r}")

    x = float(np.clip(x0, lo, hi))
    r = r0 if x == x0 else residual(x)
    for _ in range(max_iter):
        if abs(r) < tol:
            return x
        if r > 0.0:
            hi = x
        else:
            lo = x
        deriv = float(spec.alpha_second(x))
        x_new = x - r / deriv if deriv > 0.0 else np.nan
        if not np.isfinite(x_new) or not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        x = x_new
        r = residual(x)
    raise NoConvergence(
        f"alpha_prime inversion did not reach |residual| < {tol} "
        f"in {max_iter} iterations (last residual {r:.3e})")
