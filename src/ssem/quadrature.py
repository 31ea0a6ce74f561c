"""Adaptive Gauss-Kronrod quadrature on a finite interval.

A 15-point Kronrod rule (embedding the 7-point Gauss rule) is applied on a
list of panels; panels whose local error estimate exceeds their fair share
of the budget are bisected until the summed estimate drops below the
requested absolute tolerance.  The integrand is evaluated on all pending
panels in one vectorized call, so ``f`` must accept and return ndarrays.

``f`` maps the ``(n,)`` node vector to shape ``(n,)`` (one integral) or
``(M, n)`` (M integrals over one shared panel list, in the manner of
``scipy.integrate.quad_vec``).  In the vector case each output keeps its
own error estimate and must meet ``abs_tol`` on its own: a panel is
bisected when any output's panel error exceeds its share of the budget, and
refinement stops only when every output's summed estimate is within
``abs_tol``.

The starting split is given as :class:`Panels`, made in advance, so a
caller integrating many functions against one weight can compute the weight
at the starting nodes once: ``integrate`` hands ``f`` that very node array
first.

The final value is accumulated in ascending panel order, so results are
bit-reproducible for identical inputs regardless of the split history's
internal ordering.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureFailure

# 15-point Kronrod nodes on [-1, 1] (ascending) and their weights.  Nodes at
# odd indices form the embedded 7-point Gauss rule.
_NODES_POS = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WEIGHTS_POS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_GAUSS_WEIGHTS_POS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XK = np.concatenate([-_NODES_POS[:7], [0.0], _NODES_POS[6::-1]])
_WK = np.concatenate([_WEIGHTS_POS[:7], [_WEIGHTS_POS[7]], _WEIGHTS_POS[6::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.concatenate([_GAUSS_WEIGHTS_POS[:3], [_GAUSS_WEIGHTS_POS[3]], _GAUSS_WEIGHTS_POS[2::-1]])

_TINY = np.finfo(float).tiny


def _kronrod_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each panel ``[lo_i, hi_i]``, panel after
    panel: shape ``(15 P,)``."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (center[:, None] + np.outer(half, _XK)).reshape(-1)


class Panels(NamedTuple):
    """A split of ``[a, b]`` into panels ``[lo_i, hi_i]``, in ascending
    order, and their Kronrod nodes: the starting split of ``integrate``."""

    lo: np.ndarray
    hi: np.ndarray
    nodes: np.ndarray

    @classmethod
    def uniform(cls, a: float, b: float, count: int) -> "Panels":
        """``count`` equal panels over ``[a, b]``.  Raises ``ValueError``
        unless ``a < b``, both finite."""
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"invalid integration interval [{a}, {b}]")
        edges = np.linspace(a, b, count + 1)
        lo, hi = edges[:-1], edges[1:]
        return cls(lo, hi, _kronrod_nodes(lo, hi))


def _panel_estimates(f: Callable[[np.ndarray], np.ndarray],
                     lo: np.ndarray, hi: np.ndarray, nodes: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimate and QUADPACK-style error estimate per panel, each of
    shape ``(P,)`` for a scalar integrand or ``(M, P)`` for a vector one.
    ``nodes`` are the panels' Kronrod nodes."""
    half = 0.5 * (hi - lo)
    fx = np.asarray(f(nodes), dtype=float)
    fx = fx.reshape(fx.shape[:-1] + (lo.size, _XK.size))
    if not np.isfinite(fx).all():
        raise QuadratureFailure("integrand returned a non-finite value")
    resk = fx @ _WK
    raw = resk - fx[..., _GAUSS_IDX] @ _WG
    np.abs(raw, out=raw)
    raw *= half
    # Scale of |f - mean| over the panel; damps the raw Gauss/Kronrod gap the
    # same way QUADPACK does so smooth panels are not over-reported.
    # ``fx`` may be the integrand's own array, so it is not written to.
    dev = fx - 0.5 * resk[..., None]
    np.abs(dev, out=dev)
    resasc = dev @ _WK
    resasc *= half
    resk *= half  # the Kronrod estimate of each panel's integral
    ratio = np.maximum(resasc, _TINY)
    np.divide(200.0 * raw, ratio, out=ratio)
    ratio **= 1.5
    np.minimum(ratio, 1.0, out=ratio)
    ratio *= resasc
    errors = np.where(resasc > 0.0, ratio, raw)
    return resk, errors


def integrate(f: Callable[[np.ndarray], np.ndarray], panels: Panels,
              abs_tol: float, max_subdivisions: int
              ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Integrate ``f`` over the span of ``panels`` to absolute tolerance
    ``abs_tol``, starting from that split: the ``nodes`` array of
    ``panels`` is the argument of the first call to ``f``.

    Returns ``(value, error_estimate)``: two floats for a scalar integrand,
    two ``(M,)`` arrays for one returning shape ``(M, n)``, where every
    output's error estimate is within ``abs_tol``.  Raises
    :class:`QuadratureFailure` if an estimate still exceeds ``abs_tol`` once
    ``max_subdivisions`` panels are in play (or the integrand goes
    non-finite).
    """
    if abs_tol <= 0.0:
        raise ValueError("abs_tol must be positive")

    lo, hi = panels.lo, panels.hi
    values, errors = _panel_estimates(f, lo, hi, panels.nodes)
    min_width = (hi[-1] - lo[0]) * 1e-15

    while True:
        total_error = float(errors.sum(axis=-1).max())
        if total_error <= abs_tol:
            break
        if lo.size >= max_subdivisions:
            raise QuadratureFailure(
                f"error estimate {total_error:.3e} > abs_tol {abs_tol:.3e} "
                f"at {lo.size} subdivisions")
        over = errors.reshape(-1, lo.size) > abs_tol / (2.0 * lo.size)
        split = over.any(axis=0) & (hi - lo > min_width)
        if not split.any():
            raise QuadratureFailure(
                f"panels too narrow to refine further (error {total_error:.3e})")
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_values, new_errors = _panel_estimates(
            f, new_lo, new_hi, _kronrod_nodes(new_lo, new_hi))
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        values = np.concatenate([values[..., ~split], new_values], axis=-1)
        errors = np.concatenate([errors[..., ~split], new_errors], axis=-1)

    if lo.size == panels.lo.size:
        # No panel was split, so the panels are already in ascending order.
        # Summing the F-ordered copy adds each output's panels one after the
        # other, as the sum over the reordered (F-ordered) copy below does:
        # the same bits.
        value = np.asfortranarray(values).sum(axis=-1)
        error = np.asfortranarray(errors).sum(axis=-1)
    else:
        order = np.argsort(lo, kind="stable")
        value = values[..., order].sum(axis=-1)
        error = errors[..., order].sum(axis=-1)
    if value.ndim == 0:
        return float(value), float(error)
    return value, error
