"""Mixture model families: densities, responsibilities, parameter containers.

Every kind is K components of a one-parameter exponential family
``p(y | k) = exp(theta_k * t(y) + h(y) - alpha(theta_k))`` with known
weights pi_k:

* ``gmm``    -- the unit-variance Gaussian member, N(theta_k, 1);
* ``expfam`` -- a user-supplied family;
* ``sym2``   -- the Gaussian member's tied two-component case: equally
  weighted components at -theta and +theta.

Responsibilities are the posterior component probabilities under the current
parameters (mixture weights included).  They are computed from the logits
relative to component 0: ``q_0 = 1 / (1 + sum_k e_k)`` and ``q_k = e_k q_0``
with ``e_k`` the exponential of component k's logit minus component 0's.
Where some ``e_k`` overflows (a logit more than about 709 above component
0's), that call takes a per-point max shift instead, under which no
positive logit difference is exponentiated.
:func:`_relative_weights` is the one place they start: it maps a
:class:`LogitTerms`, built once per parameter vector (one per E-step pass
or population step), and 1-d points to the weights ``[1; e]``, their sum
and ``t(y)``, or to the max-shifted responsibilities.  It has two
consumers.  :func:`posterior` normalizes the weights into the (K, n)
responsibilities, for the population step and the public per-point reads
(:func:`responsibilities`, :func:`responsibility`), which are shaped like
``y`` as :func:`component_log_density` and :func:`marginal_log_density`
are.  The sample E-step contracts the weights themselves.

Everything here is a pure function of immutable values and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, MeanOutOfRange, NoConvergence

LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# numpy's floating-point state where an overflow is expected and what it
# leaves is handled: the kernel's reference shift falls back to the max
# shift, and the E-step, the population integrals and the truth's means
# refuse non-finite values (NumericOverflow, QuadratureFailure,
# DomainError, MeanOutOfRange) rather than warn.  Use it as a decorator
# only: each call then sets its own state, so calls nest and run in any
# thread, and no context manager is built per call.
_QUIET = np.errstate(over="ignore", invalid="ignore")


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
# Draws that ``_poisson_quantile`` maps at a time.  Only the result (8
# bytes a draw) and the near-a-step flags (1) span every draw; the index,
# gathers and differences of the step test (up to 32 bytes a draw) live
# for one block, so a one-component sample keeps to the sampler's
# ``_sample_bytes_per_row``.
_POISSON_BLOCK = 1 << 14


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
    the draws; ``searchsorted`` on the CDF tabulated one step beyond that
    bracket maps them, ``_POISSON_BLOCK`` at a time (inversion by table
    search, Devroye 1986, III.2).  A draw within ``_POISSON_STEP_BAND`` of
    a step takes the rule's own answer.  So does every draw when mu is above
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
    # The sentinels make a draw outside the table's interior count as near
    # a step: above the last entry, or at or below the first one when that
    # is not pdtr(0).
    steps = np.concatenate(([np.inf if start else -np.inf], cdf, [-np.inf]))
    k = np.empty_like(u)
    near = np.empty(u.shape, dtype=bool)
    for at in range(0, u.size, _POISSON_BLOCK):
        block = slice(at, at + _POISSON_BLOCK)
        v = u[block]
        # cdf[idx - 1] < v <= cdf[idx]
        idx = np.searchsorted(cdf, v, side="left")
        near[block] = (np.minimum(steps[idx + 1] - v, v - steps[idx])
                       <= _POISSON_STEP_BAND * v)
        np.add(idx, start, out=k[block])
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

# The sym2 pair as multiples of one free parameter: theta = (-phi, +phi).
_SYM2_TIE = ((0, -1.0), (1, 1.0))

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
        pi = np.array(pi, dtype=float)
        theta = np.array(theta, dtype=float)
        if pi.ndim != 1 or theta.shape != pi.shape:
            raise DomainError("pi and theta must be 1-d vectors of equal length")
        if pi.size < 1:
            raise DomainError("mixture needs at least one component")
        # ndarray methods rather than np.any/np.all, whose Python wrappers
        # cost about 1 us a call; population EM builds thousands of these.
        # Both tests are written so that a NaN weight fails them.
        if not (pi > 0.0).all():
            raise DomainError(f"all mixture weights must be positive, got {pi}")
        if not abs(pi.sum() - 1.0) <= 1e-12:
            raise DomainError(f"mixture weights must sum to 1, got sum={pi.sum()!r}")
        pi.setflags(write=False)
        self._set(pi, theta)

    def _set(self, pi: np.ndarray, theta: np.ndarray) -> None:
        """Store the checked, read-only ``pi`` and a new ``theta`` array of
        its shape, after checking that ``theta`` is finite."""
        if not np.isfinite(theta).all():
            raise DomainError(f"component parameters must be finite, got {theta}")
        theta.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta", theta)

    def with_theta(self, theta) -> "MixtureParams":
        """These weights with component parameters ``theta``.  Only
        ``theta`` is checked: the weights were when ``self`` was built, and
        the new parameters share them."""
        theta = np.array(theta, dtype=float)
        if theta.shape != self.pi.shape:
            raise DomainError("pi and theta must be 1-d vectors of equal length")
        new = object.__new__(MixtureParams)
        new._set(self.pi, theta)
        return new

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
    family its components come from and :meth:`tie` how the components
    share parameters.  The sample and population M-steps of every kind
    run one rule, :meth:`tied_update`; in them ``sym2`` differs from
    ``gmm`` only by its tie."""

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

    def tie(self, k: int) -> tuple[tuple[int, float], ...]:
        """The components that share component k's free parameter phi, as
        pairs ``(j, a_j)`` with ``theta_j = a_j * phi``: ``((k, 1.0),)``
        when untied, ``((0, -1.0), (1, 1.0))`` for ``sym2``."""
        return _SYM2_TIE if self.tag == "sym2" else ((k, 1.0),)

    def tied_update(self, k: int, moments: Callable, x0: float,
                    floor: float, error: type) -> tuple[tuple[int, float], ...]:
        """The parameters of component k and of every component tied to it,
        as pairs ``(j, theta_j)`` in :meth:`tie` order, from per-component
        moments: with ``moments(j) = (num_j, den_j)``, the mass-weighted sum
        of t(y) and the mass, ``n = sum a_j num_j`` and ``d = sum a_j^2
        den_j`` over the tie, the free parameter ``phi =
        theta_from_mean(n / d)``, from ``a_k * x0`` (``x0`` is the previous
        ``theta_k``), and ``theta_j = a_j * phi``.  So the tie group is
        solved once, whichever of its components asks.

        This maximizes ``sum_j theta_j num_j - alpha(theta_j) den_j`` under
        the tie (McLachlan & Krishnan, *The EM Algorithm and Extensions*,
        2008, on linearly constrained M-steps): exactly for an untied
        component of any family, and for a tie of the Gaussian member,
        whose ``alpha'`` is linear.  Raises ``error`` when ``|d| < floor``.
        """
        n = d = 0.0
        for j, a in self.tie(k):
            num, den = moments(j)
            n += a * num
            d += a * a * den
            if j == k:
                a_k = a
        if abs(d) < floor:
            raise error(f"component {k}: denominator {d:.3e} below {floor:g}")
        phi = self.theta_from_mean(n / d, x0=a_k * x0)
        return tuple((j, a * phi) for j, a in self.tie(k))

    def check_params(self, params: MixtureParams) -> None:
        if self.tag == "sym2":
            params.sym2_scalar()
        if self.tag == "expfam":
            self.spec.check_theta(params.theta)

    @_QUIET
    def check_truth(self, params: MixtureParams) -> None:
        """:meth:`check_params` for a ground truth.  A ``sym2`` truth must
        also have ``theta >= 0``: its components are told apart by sign,
        component 1 being the one at ``+theta``.  Every component mean
        ``alpha'(theta_k)`` must be finite (a Poisson log-mean of 1e308 is
        not), since the population operators integrate around it."""
        self.check_params(params)
        if self.tag == "sym2" and params.sym2_scalar() < 0.0:
            raise DomainError("symmetric-pair ground truth must have theta >= 0")
        means = np.asarray(self.family.alpha_prime(params.theta), dtype=float)
        if not np.isfinite(means).all():
            raise DomainError(f"component means {means} of the truth are not finite")

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
        """Checked parameters moved by ``offset`` along the tie: component
        k by ``offset * a_k``, so every component for the untied kinds and
        ``(-theta, theta)`` to ``(-theta - offset, theta + offset)`` for
        ``sym2``."""
        shifted = params.with_theta([
            th + offset * dict(self.tie(k))[k]
            for k, th in enumerate(params.theta.tolist())])
        self.check_params(shifted)
        return shifted


class LogitTerms(NamedTuple):
    """The parts of the natural-form logits that do not depend on y, for
    one checked parameter vector: the family, ``theta`` and the offsets
    ``log_pi_k - alpha(theta_k)``, and both relative to component 0,
    ``d_theta = theta[1:] - theta[0]`` and ``d_offsets = offsets[1:] -
    offsets[0]``.  Build them with :meth:`of` once per parameter vector
    and pass them to :func:`_relative_weights` (the E-step) or
    :func:`posterior` for every point set: one E-step pass or one
    population step builds one."""

    family: ExpFamilySpec
    theta: np.ndarray
    offsets: np.ndarray
    d_theta: np.ndarray
    d_offsets: np.ndarray

    @classmethod
    def of(cls, kind: ModelKind, params: MixtureParams,
           log_pi=None) -> "LogitTerms":
        """The terms of ``params``, after checking them.  ``log_pi``
        replaces ``log(pi)`` (0 gives the component log densities)."""
        kind.check_params(params)
        family = kind.family
        if log_pi is None:
            log_pi = np.log(params.pi)
        theta = params.theta
        offsets = log_pi - np.asarray(family.alpha(theta), dtype=float)
        return cls(family, theta, offsets,
                   theta[1:] - theta[0], offsets[1:] - offsets[0])

    def logits(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (K, n) array ``log_pi_k + theta_k t(y_i) - alpha(theta_k)``
        and the ``t(y)`` it is built from.  The logits are the component
        log densities without the carrier ``h(y)``, which every component
        shares.  ``y`` must already be 1-d float."""
        ty = np.asarray(self.family.t(y), dtype=float)
        logits = np.multiply.outer(self.theta, ty)
        logits += self.offsets[:, None]
        return logits, ty


def _shifted_exp(logits: np.ndarray) -> np.ndarray:
    """In place on a (K, N) array: subtract each column's max and
    exponentiate, so every exponent is <= 0.  Returns the column maxima."""
    top = logits.max(axis=0)
    logits -= top
    np.exp(logits, out=logits)
    return top


def _max_shifted_posterior(terms: LogitTerms,
                           y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`posterior` with each point's logits shifted by their max, so
    no exponent is positive: the path for points where some logit exceeds
    component 0's by more than about 709."""
    logits, ty = terms.logits(y)
    _shifted_exp(logits)
    logits /= logits.sum(axis=0)
    return logits, ty


def _relative_weights(terms: LogitTerms, y: np.ndarray, a: np.ndarray,
                      s: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """The step every responsibility starts from, at the 1-d float points
    ``y`` under ``terms``: the weights of the components relative to
    component 0, ``a = [1; e_1 .. e_{K-1}]`` with ``e_k = exp(d_theta_k
    t(y) + d_offsets_k)``, and their sum ``s = 1 + sum_k e_k``, so that
    ``q = a / s``.  Returns ``(a, s, t(y))``.

    It writes in place: ``e`` into rows 1.. of the (K, n) buffer ``a`` and
    ``s``, added in component order, into the n-vector ``s``.  Row 0 of
    ``a`` is the caller's to hold the 1s; :func:`posterior` passes it as
    ``s`` and the E-step keeps it at 1 for a whole pass.  Where ``s`` is
    not finite for some point (a logit more than about 709 above component
    0's, or a NaN), it returns instead the max-shifted ``q`` of
    :func:`_max_shifted_posterior`, a new array, with ``None`` for ``s``:
    unit weights.  The first path can overflow, so callers run it with
    numpy's overflow and invalid warnings off."""
    ty = np.asarray(terms.family.t(y), dtype=float)
    e = a[1:]
    np.multiply.outer(terms.d_theta, ty, out=e)
    e += terms.d_offsets[:, None]
    np.exp(e, out=e)
    if len(e):
        np.add(e[0], 1.0, out=s)
    else:
        s.fill(1.0)
    for row in e[1:]:  # the order of np.sum(e, axis=0, initial=1.0), faster
        s += row
    if not s.max(initial=1.0) < np.inf:  # an inf or a NaN
        q, ty = _max_shifted_posterior(terms, y)
        return q, None, ty
    return a, s, ty


def posterior(terms: LogitTerms,
              y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The responsibility kernel: the C-contiguous (K, n) posterior
    probabilities ``q`` at the 1-d float points ``y`` under ``terms``, and
    ``t(y)``.  Each column of ``q`` sums to 1 (to rounding).

    Every responsibility in ssem starts from :func:`_relative_weights`.
    This function normalizes its weights: the population step integrates
    the rows ``[q, q t(y)]``, and :func:`responsibilities` and
    :func:`responsibility` read ``q``.  The sample E-step contracts the
    relative weights themselves, with no ``q``.  The logits are linear in
    ``t(y)`` (``h(y)`` cancels), so no ``y**2`` is ever formed.

    They are taken relative to component 0: ``q_0 = 1 / (1 + sum_k e_k)``
    and ``q_k = e_k q_0``, with no per-point max.  An ``e_k`` that
    underflows loses only what lies below 2^-1022 in ``q_k``, as a max
    shift would.  Where ``1 + sum_k e_k`` is not finite for some point,
    the whole call takes the per-point max shift instead, which never
    exponentiates a positive number.
    """
    q = np.empty((terms.theta.size, y.size))
    q, s, ty = _relative_weights(terms, y, q, q[0])
    if s is not None:  # row 0 holds s
        np.reciprocal(s, out=s)
        q[1:] *= s
    return q, ty


def _at_points(read: Callable, y):
    """``read`` at ``y``: it gets the points flattened to 1-d float and
    returns one entry per point along its last axis, which is reshaped to
    ``y``'s shape.  A scalar ``y`` with one value per point gives a float."""
    y = np.asarray(y, dtype=float)
    out = read(y.reshape(-1))
    out = out.reshape(out.shape[:-1] + y.shape)
    return float(out) if out.ndim == 0 else out


def _component_index(k: int, K: int) -> int:
    """``k``, if it indexes one of ``K`` components; else
    :class:`DomainError` (a negative index would silently read from the
    end).  The one index check of the per-component reads here and in
    :mod:`ssem.population`."""
    if not 0 <= k < K:
        raise DomainError(f"component index {k} out of range for K={K}")
    return k


def component_log_density(kind: ModelKind, k: int, params: MixtureParams, y):
    """log p(y | component k; theta), shaped like ``y``."""
    terms = LogitTerms.of(kind, params, log_pi=0.0)
    _component_index(k, params.K)
    return _at_points(
        lambda pts: (terms.logits(pts)[0][k]
                     + np.asarray(terms.family.log_carrier(pts), dtype=float)),
        y)


def _mixture_log_density(terms: LogitTerms, y: np.ndarray) -> np.ndarray:
    """:func:`marginal_log_density` at the 1-d float points ``y``, under
    the terms of the mixture (built with its ``log pi``).  The population
    operators build the truth's terms once and call this at every node."""
    logits = terms.logits(y)[0]
    top = _shifted_exp(logits)
    return (np.asarray(terms.family.log_carrier(y), dtype=float)
            + (np.log(logits.sum(axis=0)) + top))


def marginal_log_density(kind: ModelKind, params: MixtureParams, y):
    """log of the pi-weighted component density sum, shaped like ``y``:
    the carrier ``h(y)`` plus the log-sum-exp of the natural-form logits,
    taken as the column max plus the log of the max-shifted exponentials'
    sum, so nothing overflows for |theta|, |y| up to 50."""
    terms = LogitTerms.of(kind, params)
    return _at_points(lambda pts: _mixture_log_density(terms, pts), y)


@_QUIET
def responsibilities(kind: ModelKind, params: MixtureParams,
                     y: np.ndarray) -> np.ndarray:
    """Posterior probabilities of shape ``y.shape + (K,)``; each point's
    K values sum to 1.

    For a 1-d ``y`` the (N, K) result is the transposed view of the
    C-contiguous (K, N) :func:`posterior`, so ``responsibilities(...).T``
    holds one contiguous row per component.
    """
    terms = LogitTerms.of(kind, params)
    return np.moveaxis(_at_points(lambda pts: posterior(terms, pts)[0], y),
                       0, -1)


@_QUIET
def responsibility(kind: ModelKind, params: MixtureParams, y, k: int):
    """Posterior probability of component ``k`` given ``y``, shaped like
    ``y``.

    For the ``sym2`` pair ``(-phi, +phi)``, ``k=0`` is the component at
    ``-phi`` and the value is the logistic ``1 / (1 + exp(2*y*phi))``; the
    tied M-step weighs an unlabeled ``y`` by ``q_1 - q_0 = tanh(y*phi)``.
    """
    terms = LogitTerms.of(kind, params)
    _component_index(k, params.K)
    return _at_points(lambda pts: posterior(terms, pts)[0][k], y)


# np.errstate as a decorator builds no context manager per call: 0.7 rather
# than 1.1 us a call, and the population updates make thousands of calls.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _closed_form_inverse(spec: ExpFamilySpec, target: float) -> float:
    """``alpha_prime_inv(target)`` with numpy's floating-point warnings off:
    a target outside the range of ``alpha_prime`` comes back as inf or NaN
    for :func:`invert_alpha_prime` to reject."""
    return float(spec.alpha_prime_inv(np.float64(target)))


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
    if not math.isfinite(target):
        raise MeanOutOfRange(f"target statistic {target} is not finite")
    if spec.alpha_prime_inv is not None:
        x = _closed_form_inverse(spec, target)
        if not (math.isfinite(x) and lo_dom < x < hi_dom):
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
