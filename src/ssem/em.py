"""Finite-sample semi-supervised EM: surrogate objective and M-step operators.

The surrogate is normalized by 1/(n+m).  Labeled samples enter as indicator
terms; unlabeled samples are weighted by responsibilities under the previous
iterate.  Only the component parameters are updated: the mixture weights are
treated as known and never re-estimated.

All kinds share one E-step that reduces the data to per-component
sufficient statistics; the M-step and the surrogate are O(K) in them.  The
labeled part of those statistics does not depend on the iterate and is
computed once per run.

The E-step walks the unlabeled data in fixed-size blocks, in order, so its
working set stays in cache and its memory is O(K * block).  Each block's
sums (NumPy pairwise sums and one BLAS dot product per component) are
accumulated in that fixed block order, so results are bitwise reproducible
run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyComponent
from .model import (
    ExpFamilySpec,
    MixtureParams,
    ModelKind,
    responsibilities,
)

_EMPTY_DENOMINATOR = 1e-300  # subnormal boundary: below this a component is empty

# Bytes of one E-step block's (K, rows) responsibility array: 16,384 rows
# at K = 3.  With the block's data, maxima and sums the working set is
# under 1 MiB, inside a 4 MiB L2.  Measured at K = 3, n = 180,000 on a
# Xeon with 4 MiB of L2 per core: 2.1-2.5 ms per E-step against 3.7 ms
# for one (K, n) array; 192 KiB and 768 KiB blocks were no faster.
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

    def write_csv(self, path) -> None:
        """Rows ``iter,theta_1..theta_K,q_value,err``; q_value is empty on
        row 0 and whenever the surrogate was not recorded, err is empty when
        no ground truth was supplied.  17 significant digits, LF endings."""
        K = self.iterates[0].K
        header = ["iter"] + [f"theta_{k + 1}" for k in range(K)] + ["q_value", "err"]
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for t, params in enumerate(self.iterates):
                row = [str(t)] + [f"{v:.17g}" for v in params.theta]
                row.append(f"{self.q_values[t - 1]:.17g}"
                           if t > 0 and t - 1 < len(self.q_values) else "")
                row.append(f"{self.errors[t]:.17g}" if t < len(self.errors) else "")
                fh.write(",".join(row) + "\n")


def _max_error(params: MixtureParams, theta_star: MixtureParams) -> float:
    return float(np.max(np.abs(params.theta - theta_star.theta)))


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


def _sufficient_statistics(kind: ModelKind, data, theta_t: MixtureParams,
                           labeled: tuple[np.ndarray, np.ndarray]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """E-step under ``theta_t``, the one O(N*K) pass of an EM step.

    Returns ``(S, N)``: the ``labeled`` statistics of
    :func:`_labeled_statistics` plus, per component, the
    responsibility-weighted sum of t(y) over the unlabeled points and the
    responsibility mass.  The unlabeled points are taken in blocks of
    :func:`_block_rows` rows, so the ``(K, rows)`` responsibilities stay in
    cache; each block's sums are added in order.
    """
    kind.check_params(theta_t)
    S, N = labeled[0].copy(), labeled[1].copy()
    y, t, rows = data.unlabeled_y, kind.family.t, _block_rows(theta_t.K)
    for lo in range(0, data.n, rows):
        block = y[lo:lo + rows]
        q = responsibilities(kind, theta_t, block).T
        S += q @ np.asarray(t(block), dtype=float)
        N += q.sum(axis=1)
    return S, N


def _update(kind: ModelKind, S: np.ndarray, N: np.ndarray, total: int,
            theta_t: MixtureParams) -> MixtureParams:
    """Maximizer of the surrogate built from ``(S, N)``: the tied value
    ``(S_1 - S_0) / (m+n)`` for ``sym2``, else each mean ``S_k / N_k``
    mapped to its component parameter."""
    if kind.tag == "sym2":
        return MixtureParams.symmetric((S[1] - S[0]) / total)
    if np.any(N < _EMPTY_DENOMINATOR):
        k = int(np.argmin(N))
        raise EmptyComponent(
            f"component {k} has no labeled support and responsibility mass "
            f"{N[k]:.3e}")
    return MixtureParams(theta_t.pi, [
        kind.theta_from_mean(S[k] / N[k], x0=float(theta_t.theta[k]))
        for k in range(theta_t.K)])


def _carrier_sum(kind: ModelKind, data) -> float:
    """Sum of ``h(y)`` over every observation: the theta-free surrogate term."""
    h = kind.family.log_carrier
    return float(np.sum(h(data.labeled_y))) + float(np.sum(h(data.unlabeled_y)))


def _surrogate(kind: ModelKind, theta: MixtureParams, S: np.ndarray,
               N: np.ndarray, total: int, carrier_sum: float) -> float:
    th = theta.theta
    acc = float(np.sum(th * S - np.asarray(kind.family.alpha(th), dtype=float) * N))
    acc += carrier_sum
    if kind.tag != "expfam":
        acc += float(np.sum(N * np.log(theta.pi)))
    return acc / total


def q_value(kind: ModelKind, data, theta: MixtureParams,
            theta_t: MixtureParams) -> float:
    """Semi-supervised surrogate Q(theta; theta_t), normalized by 1/(n+m).

    In natural form it is ``sum_k theta_k S_k - alpha(theta_k) N_k`` plus
    the sum of ``h(y)`` over all points, with ``(S, N)`` the E-step
    statistics under ``theta_t``.  Gaussian kinds also add
    ``sum_k N_k log pi_k``, giving the complete-data form with its
    log(sqrt(2*pi)/pi_k) constants; exponential-family kinds carry no
    weight constants.  The two therefore differ by a theta-independent
    offset.
    """
    kind.check_params(theta)
    S, N = _sufficient_statistics(kind, data, theta_t,
                                  _labeled_statistics(kind, data, theta_t.K))
    return _surrogate(kind, theta, S, N, data.m + data.n, _carrier_sum(kind, data))


def m_step(kind: ModelKind, data, theta_t: MixtureParams) -> MixtureParams:
    """One EM update: the E-step statistics under ``theta_t`` mapped to the
    surrogate's maximizer.  Labels count as hard assignments; the weights
    are left unchanged."""
    S, N = _sufficient_statistics(kind, data, theta_t,
                                  _labeled_statistics(kind, data, theta_t.K))
    return _update(kind, S, N, data.m + data.n, theta_t)


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
    """Tied-mean update of the symmetric pair's scalar (:func:`m_step` for
    ``sym2``): labels for the component at -theta flip the sign of their
    observation."""
    return m_step(ModelKind.sym2(), data,
                  MixtureParams.symmetric(theta_t)).sym2_scalar()


def run_em(kind: ModelKind, data, theta0: MixtureParams, cfg: EmConfig,
           theta_star: MixtureParams | None = None) -> Trajectory:
    """Iterate the M-step from ``theta0`` until the parameter change drops
    below ``cfg.tol`` or ``cfg.max_iters`` steps have run.

    M-step failures propagate with the iteration index attached as an
    ``iteration`` attribute on the exception.
    """
    kind.check_params(theta0)
    traj = Trajectory(iterates=[theta0])
    if theta_star is not None:
        traj.errors.append(_max_error(theta0, theta_star))
    total = data.m + data.n
    carrier_sum = _carrier_sum(kind, data)
    try:
        labeled = _labeled_statistics(kind, data, theta0.K)
    except DomainError as exc:
        exc.iteration = 0
        raise
    current = theta0
    for t in range(cfg.max_iters):
        try:
            S, N = _sufficient_statistics(kind, data, current, labeled)
            nxt = _update(kind, S, N, total, current)
        except Exception as exc:
            exc.iteration = t
            raise
        if cfg.record_trajectory:
            traj.q_values.append(_surrogate(kind, nxt, S, N, total, carrier_sum))
        traj.iterates.append(nxt)
        if theta_star is not None:
            traj.errors.append(_max_error(nxt, theta_star))
        delta = float(np.max(np.abs(nxt.theta - current.theta)))
        current = nxt
        if delta < cfg.tol:
            traj.converged = True
            break
    return traj
