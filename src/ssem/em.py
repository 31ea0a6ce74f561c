"""Finite-sample semi-supervised EM: surrogate objective and M-step operators.

The surrogate is normalized by 1/(n+m).  Labeled samples enter as indicator
terms; unlabeled samples are weighted by responsibilities under the previous
iterate.  Only the component parameters are updated: the mixture weights are
treated as known and never re-estimated.

All kinds share one E-step that reduces the data to per-component
sufficient statistics; the M-step and the surrogate are O(K) in them.  The
labeled part of those statistics does not depend on the iterate and is
computed once per run.

The E-step builds one :class:`ssem.model.LogitTerms` per pass and walks the
unlabeled data in fixed-size blocks, in order, calling the responsibility
kernel :func:`ssem.model.posterior` once per block, so its working set
stays in cache and its memory is O(K * block).  Each block's
sums (NumPy pairwise sums and one BLAS dot product per component) are
accumulated in that fixed block order, so results are bitwise reproducible
run to run.

The E-step reads the unlabeled sample only through its empirical
distribution.  An integer-valued sample (every Poisson one) is therefore
reduced once to its distinct values and their counts
(:attr:`ssem.sampling.Dataset.unlabeled_table`), and the E-step and the
carrier sum weight each distinct value by its count: EM on grouped data.
A continuous sample is read row by row.

A sum that leaves the float64 range raises :class:`NumericOverflow`
instead of turning into inf or NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyComponent, NumericOverflow
from .model import (
    ExpFamilySpec,
    LogitTerms,
    MixtureParams,
    ModelKind,
    _QUIET,
    posterior,
)

_EMPTY_DENOMINATOR = 1e-300  # subnormal boundary: below this a component is empty

# Bytes of one E-step block's (K, rows) responsibility array: 16,384 rows
# at K = 3.  With the block's data and sums the working set is under
# 1 MiB, inside a 4 MiB L2.  Measured at n = 180,000 on a Xeon with 4 MiB
# of L2 per core, with the reference-shift kernel (medians of 10
# alternating rounds, each the best of 5): 192, 384 and 768 KiB blocks take
# 1.09, 1.04 and 1.11 ms a pass at K = 2 and 1.71, 1.72 and 1.86 ms at
# K = 3, and no size is fastest in every round.  (The max-shift kernel
# took 2.1-2.6 ms at K = 3, against 3.7 ms for one (K, n) array.)
_ESTEP_BLOCK_BYTES = 384 * 1024


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule: quit when max_k |theta_k' - theta_k| < tol.

    ``record_trajectory=False`` skips the per-step surrogate evaluation
    (iterates and errors are always kept).
    """

    max_iters: int = 100
    tol: float = 1e-10
    record_trajectory: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass
class Trajectory:
    """EM iterates plus per-step surrogate values and errors.

    ``iterates[0]`` is the supplied initialization.  ``q_values[t]`` is the
    surrogate at step t+1 evaluated against iterate t (empty when not
    recorded); ``errors[t]`` is max_k |theta_t,k - theta*_k| (empty when no
    ground truth was supplied).  ``converged`` is True when the run stopped
    because a step moved the parameters by less than the tolerance, False
    when it ran out of iterations.
    """

    iterates: list[MixtureParams] = field(default_factory=list)
    q_values: list[float] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def stop_reason(self) -> str:
        """Why the run stopped: ``"tol"`` or ``"max_iters"``."""
        return "tol" if self.converged else "max_iters"

    @property
    def n_steps(self) -> int:
        return len(self.iterates) - 1

    @property
    def final(self) -> MixtureParams:
        return self.iterates[-1]

    @classmethod
    def iterate(cls, step, theta0: MixtureParams, max_iters: int, tol: float,
                theta_star: MixtureParams | None = None) -> "Trajectory":
        """The one EM loop: ``theta <- step(theta)`` from ``theta0`` until a
        step moves every parameter by less than ``tol`` (``converged``) or
        ``max_iters`` steps have run.  ``step`` returns the next iterate and
        its surrogate value or None; an exception from step t (from 0)
        propagates with ``iteration = t``.  Errors against ``theta_star``
        are recorded when it is given."""
        return cls._iterate_all(lambda runs, thetas: [step(thetas[0])],
                                [theta0], max_iters, tol, theta_star)[0]

    @classmethod
    def _iterate_all(cls, step, starts: list[MixtureParams], max_iters: int,
                     tol: float, theta_star: MixtureParams | None = None
                     ) -> list["Trajectory"]:
        """:meth:`iterate` for several runs in lockstep, one trajectory per
        start.  Round t calls ``step(runs, thetas)`` once with the indices
        of the runs still going and their iterates, and ``step`` returns
        the ``(next, surrogate)`` pair of each; a run stops on its own
        tolerance, and all stop after ``max_iters`` rounds."""
        trajs = [cls(iterates=[theta0]) for theta0 in starts]
        runs = list(range(len(trajs)))
        for t in range(max_iters):
            if not runs:
                break
            try:
                steps = step(runs, [trajs[i].final for i in runs])
            except Exception as exc:
                exc.iteration = t
                raise
            going = []
            for i, (nxt, q) in zip(runs, steps):
                traj = trajs[i]
                delta = float(np.max(np.abs(nxt.theta - traj.final.theta)))
                traj.iterates.append(nxt)
                if q is not None:
                    traj.q_values.append(q)
                if delta < tol:
                    traj.converged = True
                else:
                    going.append(i)
            runs = going
        if theta_star is not None:
            for traj in trajs:
                traj.errors = traj.errors_to(theta_star)
        return trajs

    def errors_to(self, theta_star: MixtureParams) -> list[float]:
        """The max-norm distance ``max_k |theta_t,k - theta*_k|`` of every
        iterate to ``theta_star``."""
        return [float(np.max(np.abs(p.theta - theta_star.theta)))
                for p in self.iterates]

    def write_csv(self, path) -> None:
        """Rows ``iter,theta_1..theta_K,q_value,err``; q_value is empty on
        row 0 and whenever the surrogate was not recorded, err is empty when
        no ground truth was supplied.  17 significant digits, LF endings.
        ``path`` is what :func:`open` takes: a file name, or a descriptor,
        which is closed after."""
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            K = self.iterates[0].K
            header = (["iter"] + [f"theta_{k + 1}" for k in range(K)]
                      + ["q_value", "err"])
            fh.write(",".join(header) + "\n")
            for t, params in enumerate(self.iterates):
                row = [str(t)] + [f"{v:.17g}" for v in params.theta]
                row.append(f"{self.q_values[t - 1]:.17g}"
                           if t > 0 and t - 1 < len(self.q_values) else "")
                row.append(f"{self.errors[t]:.17g}" if t < len(self.errors) else "")
                fh.write(",".join(row) + "\n")


def _block_rows(K: int) -> int:
    """Unlabeled rows per E-step block: one ``(K, rows)`` float64 array of
    responsibilities fills :data:`_ESTEP_BLOCK_BYTES`."""
    return max(1, _ESTEP_BLOCK_BYTES // (8 * K))


def _labeled_statistics(kind: ModelKind, data,
                        K: int) -> tuple[np.ndarray, np.ndarray]:
    """The labeled part of ``(S, N)``: per component, the sum of t(y) over
    its labeled points and their count.  Independent of the iterate, so a
    run computes it once; raises :class:`DomainError` for a label >= K."""
    x, t = data.labeled_x, kind.family.t
    if np.any(x >= K):
        raise DomainError(f"label {int(x.max())} out of range for K={K}")
    S = np.bincount(x, weights=np.asarray(t(data.labeled_y), dtype=float),
                    minlength=K).astype(float)  # int zeros when m = 0
    N = np.bincount(x, minlength=K).astype(float)
    return S, N


def _unlabeled(data) -> tuple[np.ndarray, np.ndarray | None]:
    """The unlabeled sample as ``(values, counts)``: the distinct values of
    an integer-valued sample and how often each occurs
    (:attr:`Dataset.unlabeled_table`, built once per dataset), else every
    row and ``None``."""
    table = data.unlabeled_table
    if table is None:
        return data.unlabeled_y, None
    return table.values, table.counts


@_QUIET
def _sufficient_statistics(kind: ModelKind, theta_t: MixtureParams,
                           labeled: tuple[np.ndarray, np.ndarray],
                           unlabeled: tuple[np.ndarray, np.ndarray | None]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """E-step under ``theta_t``, the one O(N*K) pass of an EM step.

    Returns ``(S, N)``: the ``labeled`` statistics of
    :func:`_labeled_statistics` plus, per component, the
    responsibility-weighted sum of t(y) over the unlabeled points and the
    responsibility mass.  ``unlabeled`` is :func:`_unlabeled`; with counts
    ``c``, distinct value ``v`` adds ``q(v) c t(v)`` and ``q(v) c``.
    ``theta_t`` is checked and its :class:`LogitTerms` built once; the
    values are taken in blocks of :func:`_block_rows`, one
    :func:`posterior` call each, so the ``(K, rows)`` responsibilities
    stay in cache; each block's sums are added in order.
    Raises :class:`NumericOverflow` when a logit ``theta_k t(y)`` or a sum
    overflows.
    """
    S, N = labeled[0].copy(), labeled[1].copy()
    (y, counts), rows = unlabeled, _block_rows(theta_t.K)
    terms = LogitTerms.of(kind, theta_t)  # alpha(theta) may overflow too
    for lo in range(0, y.size, rows):
        q, ty = posterior(terms, y[lo:lo + rows])
        if counts is None:
            S += q @ ty
            N += q.sum(axis=1)
        else:
            c = counts[lo:lo + rows]
            S += q @ (c * ty)
            N += q @ c
    if not (np.all(np.isfinite(S)) and np.all(np.isfinite(N))):
        raise NumericOverflow(
            f"E-step statistics overflow float64 under theta {theta_t.theta}")
    return S, N


def _update(kind: ModelKind, S: np.ndarray, N: np.ndarray,
            theta_t: MixtureParams) -> MixtureParams:
    """Maximizer of the surrogate built from ``(S, N)``: the components of
    each tie group from one :meth:`ModelKind.tied_update` on ``(S_j,
    N_j)``.  Untied, that maps the mean ``S_k / N_k`` to its parameter; for
    ``sym2`` it is the tied value ``(S_1 - S_0) / (N_0 + N_1)``.  Raises
    :class:`EmptyComponent` when the mass ``sum a_j^2 N_j`` underflows: no
    labeled support and negligible responsibility mass."""
    S, N = S.tolist(), N.tolist()
    theta: dict[int, float] = {}
    for k, x0 in enumerate(theta_t.theta.tolist()):
        if k not in theta:
            theta.update(kind.tied_update(k, lambda j: (S[j], N[j]), x0,
                                          _EMPTY_DENOMINATOR, EmptyComponent))
    return theta_t.with_theta([theta[k] for k in range(theta_t.K)])


@_QUIET
def _carrier_sum(kind: ModelKind, data,
                 unlabeled: tuple[np.ndarray, np.ndarray | None]) -> float:
    """Sum of ``h(y)`` over every observation: the theta-free surrogate
    term.  ``unlabeled`` is :func:`_unlabeled`; a distinct value adds
    ``c h(v)``.  On integer-valued labeled data (its
    :attr:`Dataset.labeled_table`), ``h`` is taken once per distinct value
    and gathered back in row order, so the sum adds the same terms in the
    same order."""
    h = kind.family.log_carrier
    y, counts = unlabeled
    table = data.labeled_table
    acc = float(np.sum(h(data.labeled_y) if table is None
                       else np.asarray(h(table.values))[table.inverse]))
    hy = np.asarray(h(y), dtype=float)
    acc += float(np.sum(hy if counts is None else counts * hy))
    if not np.isfinite(acc):
        raise NumericOverflow("the carrier sum of h(y) overflows float64")
    return acc


@_QUIET
def _surrogate(kind: ModelKind, theta: MixtureParams, S: np.ndarray,
               N: np.ndarray, total: int, carrier_sum: float) -> float:
    th = theta.theta
    acc = float(np.sum(th * S - np.asarray(kind.family.alpha(th), dtype=float) * N))
    acc += carrier_sum
    acc += float(np.sum(N * np.log(theta.pi)))
    if not np.isfinite(acc):
        raise NumericOverflow(f"the surrogate at theta {th} overflows float64")
    return acc / total


def q_value(kind: ModelKind, data, theta: MixtureParams,
            theta_t: MixtureParams) -> float:
    """Semi-supervised surrogate Q(theta; theta_t), normalized by 1/(n+m).

    One formula for every kind: ``sum_k theta_k S_k - alpha(theta_k) N_k
    + N_k log pi_k`` plus the sum of ``h(y)`` over all points, with
    ``(S, N)`` the E-step statistics under ``theta_t``.  That is the
    expected complete-data log-likelihood, weight and carrier constants
    included; for a Gaussian kind ``h(y) = -y^2/2 - log sqrt(2 pi)``.
    """
    kind.check_params(theta)
    unlabeled = _unlabeled(data)
    S, N = _sufficient_statistics(kind, theta_t,
                                  _labeled_statistics(kind, data, theta_t.K),
                                  unlabeled)
    return _surrogate(kind, theta, S, N, data.m + data.n,
                      _carrier_sum(kind, data, unlabeled))


def m_step(kind: ModelKind, data, theta_t: MixtureParams) -> MixtureParams:
    """One EM update: the E-step statistics under ``theta_t`` mapped to the
    surrogate's maximizer.  Labels count as hard assignments; the weights
    are left unchanged."""
    S, N = _sufficient_statistics(kind, theta_t,
                                  _labeled_statistics(kind, data, theta_t.K),
                                  _unlabeled(data))
    return _update(kind, S, N, theta_t)


def m_step_gmm(data, theta_t: MixtureParams) -> MixtureParams:
    """Per-component weighted means (:func:`m_step` for ``gmm``)."""
    return m_step(ModelKind.gmm(), data, theta_t)


def m_step_expfam(spec: ExpFamilySpec, data, theta_t: MixtureParams) -> MixtureParams:
    """Weighted mean of sufficient statistics mapped back through the
    inverse mean function: closed form for the built-in families, else
    safeguarded Newton to |residual| < 1e-12 (:func:`m_step` for
    ``expfam``)."""
    return m_step(ModelKind.expfam(spec), data, theta_t)


def m_step_sym2(data, theta_t: float) -> float:
    """Tied update of the symmetric pair's scalar (:func:`m_step` for
    ``sym2``): ``(S_1 - S_0) / (N_0 + N_1)``, where ``N_0 + N_1`` is
    ``m + n`` up to rounding.  A label for the component at -theta flips
    the sign of its observation, and an unlabeled point adds
    ``(q_1 - q_0) y``."""
    return m_step(ModelKind.sym2(), data,
                  MixtureParams.symmetric(theta_t)).sym2_scalar()


def run_em(kind: ModelKind, data, theta0: MixtureParams, cfg: EmConfig,
           theta_star: MixtureParams | None = None) -> Trajectory:
    """Iterate the M-step from ``theta0`` until the parameter change drops
    below ``cfg.tol`` or ``cfg.max_iters`` steps have run.

    The labeled statistics, the unlabeled sample's distinct-value table
    and, when the surrogate is recorded, the carrier sum are computed once.
    M-step failures propagate with the iteration index attached as an
    ``iteration`` attribute on the exception; failures of the once-per-run
    work carry iteration 0.  A carrier sum with no float64 value (a
    Gaussian kind with |y| >= ~1.34e154) is one of them whatever n is, so
    only a run with ``record_trajectory=False`` goes on to the E-steps.
    """
    kind.check_params(theta0)
    total = data.m + data.n
    try:
        labeled = _labeled_statistics(kind, data, theta0.K)
        unlabeled = _unlabeled(data)
        carrier_sum = (_carrier_sum(kind, data, unlabeled)
                       if cfg.record_trajectory else 0.0)
    except (DomainError, NumericOverflow) as exc:
        exc.iteration = 0
        raise

    def step(theta_t):
        S, N = _sufficient_statistics(kind, theta_t, labeled, unlabeled)
        nxt = _update(kind, S, N, theta_t)
        return nxt, (_surrogate(kind, nxt, S, N, total, carrier_sum)
                     if cfg.record_trajectory else None)

    return Trajectory.iterate(step, theta0, cfg.max_iters, cfg.tol,
                              theta_star)
