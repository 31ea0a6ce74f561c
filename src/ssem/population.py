"""Population (infinite-data) EM operators evaluated by deterministic
numerical integration.

All expectations are taken under the true marginal mixture with parameters
``theta_star``.  Labeled-sample moments never go through quadrature: they
are available in closed form (`E[1{X=k}] = pi_k`, `E[1{X=k} t(Y)] =
pi_k * alpha_prime(theta*_k)`, which is `pi_k * theta*_k` for Gaussians).

Every integral taken here under the truth is a moment of the
responsibility kernel :func:`ssem.model.posterior` at a probe, and goes
through one helper, ``_kernel_integral``, which takes a batch of probes
and integrates their stacked rows in one vector integral.  The batch's
logit terms are one :meth:`ssem.model.LogitTerms.batch`, so each
integrand call is one kernel pass over all of its probes, each probe's
rows the bits it would get alone.  An operator
evaluation needs the 2K moments ``E[q_k]`` and ``E[q_k t(Y)]``.  They do
not depend on gamma, and :meth:`PopulationStep.at` computes all of them
with one vector integral of the rows ``[q, q t(y)]``, whose every output
meets ``scheme.abs_tol`` on its own; ``M_0``, ``M_gamma`` and ``c_k`` at
that probe are then read from the step.  ``_steps_at`` does the same for a
probe grid, and ``_run_lockstep`` runs population EM at several labeled
fractions, one batch per round, stopping all runs at once when a floor is
given and every run still going is within it.  These are the sample E-step's
statistics under the truth in place of the sample: on an integer support
the sum of :func:`expect` is the grouped E-step with the truth's mass as
the counts.  The sym2 derivative
:func:`dm0_dtheta_sym2` is the row ``4 q_0 q_1 t(y)^2`` at ``(-theta,
theta)``.

Inside ``with IntegralMemo():`` (the CLI opens one per command) each
distinct integral is computed once: each batch's kernel moments, and the
truth's quadrature grid, are remembered until the block exits.  Outside
one, every call integrates afresh.  A value depends only on the truth and
its batch, so the memo never moves one.

Continuous supports are integrated with the adaptive Gauss-Kronrod rule on
a truncated interval (``range_sigma`` standard deviations beyond the
outermost component means).  Integer supports are summed over the same
truncated range.  For the Gaussian kinds the tails beyond 8 sigma carry
less than 1e-15 mass.  The skewed tails of other families carry more: at
the default 12 sigma the fixed point ``M_0(theta*) - theta*`` is off by
-1.6e-4 for Poisson at theta* = (-5, -4), whose window covers only
y in {0, 1}, and by -2.9e-5 for the exponential family at (-1, -3).

The labeled fraction gamma must be < 1 here: the gamma = 1 limit is exact
labeled conditioning and is answered by :func:`theta_star_from_labels`.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import quadrature
from .em import Trajectory
from .errors import DegenerateDenominator, DomainError
from .model import (
    LogitTerms,
    MixtureParams,
    ModelKind,
    _QUIET,
    _component_index,
    _mixture_log_density,
    posterior,
)

_DEGENERATE_DENOMINATOR = 1e-12


@dataclass(frozen=True)
class QuadratureScheme:
    """Truncation and tolerance settings for population expectations."""

    abs_tol: float = 1e-10
    range_sigma: float = 12.0
    max_subdivisions: int = 1 << 16

    def __post_init__(self):
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not 8.0 <= self.range_sigma < math.inf:
            raise ValueError("range_sigma must be finite and >= 8")
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
        self.kind.check_truth(self.theta_star)
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError(
                f"gamma must be in [0, 1): gamma=1 is handled analytically "
                f"by theta_star_from_labels (got {self.gamma})")

    @classmethod
    def sym2(cls, theta_star: float, gamma: float,
             scheme: QuadratureScheme = QuadratureScheme()) -> "PopulationModel":
        return cls(ModelKind.sym2(), MixtureParams.symmetric(theta_star),
                   gamma, scheme)

    def with_gamma(self, gamma: float) -> "PopulationModel":
        return replace(self, gamma=gamma)

    @cached_property
    def _labeled_moments(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per component, ``E[1{X=k} t(Y)] = pi_k alpha'(theta*_k)`` and
        ``E[1{X=k}] = pi_k``, in closed form, as floats."""
        star, family = self.theta_star, self.kind.family
        return (tuple(float(star.pi[k]) * float(family.alpha_prime(star.theta[k]))
                      for k in range(star.K)),
                tuple(star.pi.tolist()))

    @cached_property
    def _truth_key(self) -> tuple:
        """Everything of this model that an integral under its truth
        depends on: the first part of every :class:`IntegralMemo` key."""
        return (self.kind, self.theta_star.theta.tobytes(),
                self.theta_star.pi.tobytes(), self.scheme)


def _truncation(pm: PopulationModel) -> tuple[float, float]:
    """The range ``range_sigma`` standard deviations beyond the outermost
    component means of the truth, cut to the family's support.  Raises
    :class:`DomainError` when its width is not a finite float."""
    spec, theta = pm.kind.family, pm.theta_star.theta
    means = np.asarray(spec.alpha_prime(theta), dtype=float)
    half = pm.scheme.range_sigma * np.sqrt(
        np.asarray(spec.alpha_second(theta), dtype=float))
    lo = max(float(np.min(means - half)), spec.support.lo)
    hi = min(float(np.max(means + half)), spec.support.hi)
    if not math.isfinite(hi - lo):
        raise DomainError(f"truncation window [{lo}, {hi}] is not finite")
    return lo, hi


# The values of the IntegralMemo open in this context, by key; None outside
# one.  A context variable, so a thread never sees another thread's memo.
_memo: ContextVar[dict | None] = ContextVar("ssem_integral_memo", default=None)


class IntegralMemo:
    """Compute each distinct population integral once inside the block.

    Within ``with IntegralMemo():`` the truth's grid in :func:`expect` and
    every kernel moment (those of :meth:`PopulationStep.at`, of the probe
    grids and of :func:`dm0_dtheta_sym2`) are remembered.  The grid's key
    is the kind (its family included), the truth's ``theta`` and ``pi``
    and the :class:`QuadratureScheme`.  A batch's moments are one entry,
    keyed on its row map's tag, the same truth key and each probe's
    ``theta`` and ``pi`` in turn.  The labeled fraction is in no key, since
    none of these depends on it, so a remembered value is the one a fresh
    evaluation of its batch returns, bit for bit.  A nested block shares
    the outer memo; the outermost one drops it on exit.
    """

    def __enter__(self) -> "IntegralMemo":
        outer = _memo.get()
        self._token = _memo.set({} if outer is None else outer)
        return self

    def __exit__(self, *exc) -> bool:
        _memo.reset(self._token)
        return False


def _remembered(key: tuple, compute: Callable[[], object]):
    """``compute()``, once per ``key`` inside an :class:`IntegralMemo`."""
    memo = _memo.get()
    if memo is None:
        return compute()
    value = memo.get(key)  # no computed value is None
    if value is None:
        value = memo[key] = compute()
    return value


# The most support points an integer window may have.  The sum is taken at
# every point at once: the grid keeps 16 bytes a point (node and density),
# and each array of a kernel integral 8 bytes a point per row, which is
# 128 bytes a point for the 16 rows of a Theorem-2 side on K = 2 (four
# radii).  2**20 points hold that array to 128 MiB.
_MAX_SUPPORT_POINTS = 1 << 20


class _TruthGrid(NamedTuple):
    """The starting quadrature panels over the truncated range of the
    truth (None on an integer support), the truth's :class:`LogitTerms`,
    built once for every density the integrals read, and the truth's
    density at ``nodes``: the panels' Kronrod nodes, or every support point
    of the integer window.  ``nodes`` and ``density`` are read-only.  An
    integer window of more than ``_MAX_SUPPORT_POINTS`` points raises
    :class:`DomainError` before any array is built."""

    panels: quadrature.Panels | None
    terms: LogitTerms
    nodes: np.ndarray
    density: np.ndarray

    @classmethod
    @_QUIET
    def of(cls, pm: PopulationModel) -> "_TruthGrid":
        lo, hi = _truncation(pm)
        if pm.kind.family.support.kind == "integer":
            first, last = math.floor(lo), math.ceil(hi)
            if last - first + 1 > _MAX_SUPPORT_POINTS:
                raise DomainError(
                    f"the integer window [{first}, {last}] has "
                    f"{last - first + 1} points, more than "
                    f"{_MAX_SUPPORT_POINTS} can be summed")
            panels = None
            nodes = np.arange(first, last + 1, dtype=float)
        else:
            # Unit-width starting panels so sub-sigma features (e.g. the
            # sech^2 factor at large probe theta) land on nodes before
            # refinement begins.
            count = int(min(256, max(8, math.ceil(hi - lo))))
            panels = quadrature.Panels.uniform(lo, hi, count)
            nodes = panels.nodes
        terms = LogitTerms.of(pm.kind, pm.theta_star)
        density = np.exp(_mixture_log_density(terms, nodes))
        nodes.setflags(write=False)
        density.setflags(write=False)
        return cls(panels, terms, nodes, density)


def expect(pm: PopulationModel,
           f: Callable[[np.ndarray], np.ndarray]) -> float | np.ndarray:
    """E[f(Y)] under the true marginal, to ``scheme.abs_tol`` absolute error.

    ``f`` maps the ``(n,)`` points to shape ``(n,)``, giving a float, or to
    ``(M, n)``, giving an ``(M,)`` array whose every entry meets the
    tolerance.  The points may be read-only.
    """
    grid = _remembered(("grid",) + pm._truth_key, lambda: _TruthGrid.of(pm))
    if grid.panels is None:
        value = np.sum(np.asarray(f(grid.nodes), dtype=float) * grid.density,
                       axis=-1)
        return float(value) if value.ndim == 0 else value

    def integrand(y):
        # The first call gets the starting nodes; refined panels get theirs.
        density = (grid.density if y is grid.nodes else
                   np.exp(_mixture_log_density(grid.terms, y)))
        return np.asarray(f(y), dtype=float) * density

    value, _ = quadrature.integrate(integrand, grid.panels, pm.scheme.abs_tol,
                                    pm.scheme.max_subdivisions)
    return value


@_QUIET
def _kernel_integral(pm: PopulationModel, tag: str, probes: list[MixtureParams],
                     rows: Callable) -> list[np.ndarray]:
    """``E[rows(q, t(Y))]`` under the truth of ``pm`` at each of ``probes``,
    where ``q, t(y)`` is :func:`posterior` at the probe: the one integral
    behind every population read.  ``rows`` maps the batch's (P, K, n)
    ``q`` and the (n,) ``t(y)`` to the (P, R, n) rows of its P probes, and
    each probe's value has shape ``(R,)``.

    The probes form one batch: their terms are one
    :meth:`LogitTerms.batch`, so each integrand call is one kernel pass
    over every probe, and their rows are integrated in one vector
    integral, whose every row meets ``scheme.abs_tol`` on its own.
    Refinement is shared, so a value depends on the truth and on its batch,
    and the same probe in another batch may differ in the last bits, within
    the tolerance.  The values are read-only and, inside an
    :class:`IntegralMemo`, remembered as one entry per batch, keyed on
    ``tag``, the truth and every probe's bytes, so the memo never moves a
    value."""
    if not probes:
        return []
    key = (tag,) + pm._truth_key + tuple(
        [b for p in probes for b in (p.theta.tobytes(), p.pi.tobytes())])

    def integrate():
        # The probes are checked and their logit offsets computed once,
        # not once per integrand call.
        terms = LogitTerms.batch(pm.kind, probes)
        stacked = expect(pm, lambda y: rows(*posterior(terms, y)).reshape(
            -1, y.size))
        stacked.setflags(write=False)
        return list(stacked.reshape(len(probes), -1))

    return _remembered(key, integrate)


@dataclass(frozen=True)
class PopulationStep:
    """The unlabeled responsibility moments at one probe: ``e_q[k] =
    E[q_k]`` and ``e_qt[k] = E[q_k t(Y)]`` under the truth of ``pm``.

    Build it with :meth:`at`; every population update at the probe reads
    from it, whatever the labeled fraction.  Inside an :class:`IntegralMemo`
    the moments of a batch of probes are integrated once for every ``pm``
    with the same truth and scheme.  Each tie group's update at a labeled
    fraction is solved once per step.  The accessors take a component index
    in ``range(K)`` and raise :class:`DomainError` for any other.
    """

    pm: PopulationModel
    theta: MixtureParams
    e_q: np.ndarray
    e_qt: np.ndarray
    _solved: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def at(cls, pm: PopulationModel, theta: MixtureParams) -> "PopulationStep":
        """All 2K moments at probe ``theta`` from one vector integral."""
        return _steps_at(pm, [theta])[0]

    def c(self, k: int) -> float:
        """``E[q_k]`` at the probe."""
        return float(self.e_q[_component_index(k, self.pm.theta_star.K)])

    def m0(self, k: int) -> float:
        """Component k of the unlabeled-only update ``M_0``."""
        return self._update(k, 0.0)

    def m_gamma(self, k: int) -> float:
        """Component k of the semi-supervised update at ``pm.gamma``."""
        return self._update(k, self.pm.gamma)

    def _update(self, k: int, gamma: float) -> float:
        """Component k of the update at labeled fraction ``gamma``:
        :meth:`ModelKind.tied_update` on the moments mixed with weight
        gamma, ``num_j = (1 - gamma) E[q_j t(Y)] + gamma pi_j
        alpha'(theta*_j)`` and ``den_j = (1 - gamma) E[q_j] + gamma pi_j``,
        once per tie group and gamma.  Raises
        :class:`DegenerateDenominator` for this component's tie group alone
        when ``|sum a_j^2 den_j| < 1e-12``."""
        key = (k, gamma)
        if key not in self._solved:  # every solved key has a valid k
            _component_index(k, self.pm.theta_star.K)
            labeled_t, labeled_q = self.pm._labeled_moments
            e_qt, e_q = self.e_qt, self.e_q

            def moments(j):
                return ((1.0 - gamma) * float(e_qt[j]) + gamma * labeled_t[j],
                        (1.0 - gamma) * float(e_q[j]) + gamma * labeled_q[j])

            for j, theta_j in self.pm.kind.tied_update(
                    k, moments, float(self.theta.theta[k]),
                    _DEGENERATE_DENOMINATOR, DegenerateDenominator):
                self._solved[(j, gamma)] = theta_j
        return self._solved[key]


def _steps_at(pm: PopulationModel,
              probes: list[MixtureParams]) -> list[PopulationStep]:
    """:meth:`PopulationStep.at` each of ``probes``, all from one vector
    integral: one batch of :func:`_kernel_integral`."""
    values = _kernel_integral(pm, "moments", probes,
                              lambda q, ty: np.concatenate([q, q * ty], -2))
    return [PopulationStep(pm, probe, value[:probe.K], value[probe.K:])
            for probe, value in zip(probes, values)]


def c_theta(pm: PopulationModel, theta: MixtureParams, k: int) -> float:
    """Expected responsibility E[q(Y; theta_k)] under the truth."""
    return PopulationStep.at(pm, theta).c(k)


def pop_m0(pm: PopulationModel, theta: MixtureParams, k: int) -> float:
    """Unlabeled-only population update of component k at probe ``theta``."""
    return PopulationStep.at(pm, theta).m0(k)


def pop_m_gamma(pm: PopulationModel, theta: MixtureParams, k: int) -> float:
    """Semi-supervised population update of component k at probe ``theta``.

    The labeled moments enter the numerator and denominator of the
    responsibility ratio with weight gamma, for every kind.  For the
    symmetric pair the denominator ``(1 - gamma) E[q_0 + q_1] + gamma`` is
    1 up to quadrature error, so the update is the convex combination
    ``(1 - gamma) * M0(theta) + gamma * theta_star`` to that error.
    """
    return PopulationStep.at(pm, theta).m_gamma(k)


def theta_star_from_labels(pm: PopulationModel, k: int) -> float:
    """Fully labeled limit: the conditional-mean identity, no quadrature.

    Gaussian kinds return theta*_k directly; exponential families invert the
    mean function at the conditional mean of the sufficient statistic.
    """
    star_k = float(pm.theta_star.theta[_component_index(k, pm.theta_star.K)])
    return pm.kind.theta_from_mean(pm.kind.family.alpha_prime(star_k), x0=star_k)


def dm0_dtheta_sym2(pm: PopulationModel, theta: float) -> float:
    """Derivative of the scalar unlabeled-only update for the symmetric pair:
    ``4 E[q_0 q_1 Y^2]`` with the responsibilities at ``(-theta, theta)``."""
    if pm.kind != ModelKind.sym2():
        raise DomainError("dm0_dtheta_sym2 requires the sym2 kind")
    if theta < 0.0:
        raise DomainError("derivative probe must satisfy theta >= 0")
    row = _kernel_integral(pm, "dm0", [MixtureParams.symmetric(theta)],
                           lambda q, ty: 4.0 * q[:, :1] * q[:, 1:] * ty * ty)
    return float(row[0][0])


def run_population_em(pm: PopulationModel, theta0: MixtureParams,
                      max_iters: int = 200, tol: float = 1e-13) -> Trajectory:
    """Iterate ``theta <- M_gamma(theta)`` from ``theta0``.

    Errors against ``theta_star`` are recorded exactly per iterate; the
    surrogate column stays empty.  A step that fails carries its index as
    ``iteration``.
    """
    return _run_lockstep([pm], theta0, max_iters, tol)[0]


def _run_lockstep(pms: list[PopulationModel], theta0: MixtureParams,
                  max_iters: int, tol: float = 1e-13,
                  first: PopulationStep | None = None,
                  floor: float | None = None) -> list[Trajectory]:
    """:func:`run_population_em` of each of ``pms``, which share a truth and
    a scheme, from ``theta0`` in lockstep: each round reads the moments at
    every running iterate from one batch of :func:`_steps_at`.  ``first``,
    the step at ``theta0`` when the caller has it, answers the first round
    without an integral.  Given a ``floor``, all runs stop after the first
    round that leaves every run still going within ``floor`` of the truth
    (:meth:`Trajectory._iterate_all`)."""
    pm = pms[0]
    pm.kind.check_params(theta0)

    def step(runs, thetas):
        if first is not None and thetas[0] is theta0:
            at = [first] * len(thetas)
        else:
            at = _steps_at(pm, thetas)
        return [(s.theta.with_theta([s._update(k, pms[i].gamma)
                                     for k in range(s.theta.K)]), None)
                for i, s in zip(runs, at)]

    return Trajectory._iterate_all(step, [theta0] * len(pms), max_iters, tol,
                                   pm.theta_star, floor)
