"""The responsibility kernel against an exact posterior.

``model.posterior`` is checked against the posterior computed in 30-digit
``mpmath`` from the same float parameters and points, for every built-in
family, K from 1 to 4 and hypothesis-drawn weights, parameters and points.
Both of its paths are reached: the shift to component 0, and the per-point
max shift it takes when ``1 + sum_k exp(x_k)`` is not finite.

Tolerance.  Write u = eps / 2 for the unit roundoff and, at a point y, let
``x_k = (theta_k - theta_0) t(y) + (o_k - o_0)`` with ``o_k = log pi_k -
alpha(theta_k)`` be the exact logit of component k relative to component 0,
so ``q_k = exp(x_k) / sum_j exp(x_j)``.  Let ``M = max_j (|theta_j t(y)| +
|log pi_j| + |alpha(theta_j)|)`` bound the size of every exponent argument:
``|Δθ_k t| <= 2M``, ``|Δo_k| <= 2M`` and ``|x_k| <= 4M``.

* Reference shift.  ``log pi_k`` and ``alpha(theta_k)`` are each within
  1 ulp (2u relative: numpy's ``log`` and ``exp``, or the two products of
  ``theta^2 / 2``), and their difference adds u, so ``o_k`` is within 3uM.
  ``Δθ_k`` and its product with t add 2u |Δθ_k t| <= 4uM, ``Δo_k`` adds
  2 x 3uM + u |Δo_k| <= 8uM, and the sum ``x_k`` adds u |x_k| <= 4uM: the
  computed exponent is within E = 16uM = 8 eps M of ``x_k``.
* Max shift.  ``theta_k t + o_k`` is within 2u|θt| + u(|θt| + |o|) + 3uM
  <= 6uM, and subtracting the column max adds two such errors and u |l_k -
  l_max| <= 2uM: 14uM < E again.

A logit error of at most E moves ``log q_k = x_k - log sum_j exp(x_j)`` by
at most 2E.  The rest is rounding on values that are not cancelled: ``exp``
(2u), the K - 1 additions of positive terms ((K - 1)u), the reciprocal or
division (u) and the product ``e_k q_0`` (u), plus 2u more for the
reciprocal's own rounding into the sum's error: (K + 5)u.  Where ``q_0`` is
subnormal (``1 + sum e > 2^1022``) it keeps at least 50 of 53 bits, and
``q_k = e_k q_0`` with ``e_k < 2^1024`` inherits an absolute error of
``e_k 2^-1075``, a relative 2^-51 = 4u of ``q_k``: (K + 9)u in all.  So

    |q~_k - q_k| <= expm1(2E + (K + 9)u) q_k + 4 x 2^-1074,

where the absolute term covers a ``q_k`` that lands on or under the
subnormal grid (an ``exp`` that underflows to 0 leaves ``q_k`` below
2^-1074).  The reference is exact to 30 digits, far below these bounds.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssem import model
from ssem.model import (
    MixtureParams,
    ModelKind,
    exponential_spec,
    gaussian_spec,
    poisson_spec,
    responsibilities,
)

U = np.finfo(float).eps / 2
TINY = 2.0 ** -1074


def _gaussian_alpha(th):
    return th * th / 2


# name: (kind, theta range, point strategy, exact alpha).  The ranges keep
# every exact logit gap x_k below 709 (gaussian: 16 x 40 + log 20 + 32;
# Poisson: 6 x 100 + log 20 + e^3; exponential: 5 x 120 + log 20 + log
# 100), so ``1 + sum e_k`` is finite and the reference shift must serve
# every point.
FAMILIES = {
    "gmm": (ModelKind.gmm(), (-8.0, 8.0), st.floats(-40.0, 40.0),
            _gaussian_alpha),
    "sym2": (ModelKind.sym2(), (-8.0, 8.0), st.floats(-40.0, 40.0),
             _gaussian_alpha),
    "gaussian": (ModelKind.expfam(gaussian_spec()), (-8.0, 8.0),
                 st.floats(-40.0, 40.0), _gaussian_alpha),
    "poisson": (ModelKind.expfam(poisson_spec()), (-3.0, 3.0),
                st.integers(0, 100).map(float), mpmath.exp),
    "exponential": (ModelKind.expfam(exponential_spec()), (-5.0, -0.05),
                    st.floats(0.0, 120.0), lambda th: -mpmath.log(-th)),
}


def draw_params(draw, name, K):
    """Weights and parameters of a ``name`` mixture with K components (2
    for sym2)."""
    lo, hi = FAMILIES[name][1]
    if name == "sym2":
        return MixtureParams.symmetric(draw(st.floats(lo, hi)))
    theta = draw(st.lists(st.floats(lo, hi), min_size=K, max_size=K))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=K,
                                     max_size=K)))
    return MixtureParams(weights / weights.sum(), theta)


def exact_posterior(name, params, y):
    """The posterior at each point of ``y`` and the bound M of the module
    docstring, from the float inputs in 30-digit arithmetic."""
    alpha = FAMILIES[name][3]
    rows, bounds = [], []
    with mpmath.workdps(30):
        thetas = [mpmath.mpf(th) for th in params.theta.tolist()]
        log_pi = [mpmath.log(mpmath.mpf(p)) for p in params.pi.tolist()]
        alphas = [alpha(th) for th in thetas]
        for point in y.tolist():
            t = mpmath.mpf(point)
            logits = [lp + th * t - a
                      for lp, th, a in zip(log_pi, thetas, alphas)]
            top = max(logits)
            w = [mpmath.exp(x - top) for x in logits]
            total = mpmath.fsum(w)
            rows.append([wk / total for wk in w])
            bounds.append(max(abs(th * t) + abs(lp) + abs(a)
                              for lp, th, a in zip(log_pi, thetas, alphas)))
    return rows, bounds


def assert_exact(name, params, y, q):
    """``q`` (n, K) within the bound of the module docstring of the exact
    posterior at ``y``."""
    K = params.K
    rows, bounds = exact_posterior(name, params, y)
    for i, (exact, M) in enumerate(zip(rows, bounds)):
        E = 16 * U * float(M)
        rel = math.expm1(2 * E + (K + 9) * U)
        for k in range(K):
            err = abs(mpmath.mpf(float(q[i, k])) - exact[k])
            assert err <= rel * exact[k] + 4 * TINY, (i, k, float(q[i, k]),
                                                      exact[k], rel)


def spy_max_shift():
    """Patch the max-shift path with a wrapper that counts its calls."""
    return mock.patch.object(model, "_max_shifted_posterior",
                             wraps=model._max_shifted_posterior)


@pytest.mark.parametrize("name", FAMILIES)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_reference_shift_matches_exact_posterior(name, data):
    K = data.draw(st.integers(1, 4))
    params = draw_params(data.draw, name, K)
    y = np.array(data.draw(st.lists(FAMILIES[name][2], min_size=1,
                                    max_size=8)))
    with spy_max_shift() as max_shift:
        q = responsibilities(FAMILIES[name][0], params, y)
    assert max_shift.call_count == 0
    assert q.shape == (y.size, params.K)
    assert_exact(name, params, y, q)


@pytest.mark.parametrize("name", FAMILIES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_max_shift_matches_exact_posterior(name, data):
    # Components ordered by theta, so a point far enough on the side of
    # the last one (on every support: t(y) = y >= 0 there) puts a logit
    # gap x_{K-1} >= 720 to component 0, and exp(x_{K-1}) overflows.
    K = data.draw(st.integers(2, 4))
    params = draw_params(data.draw, name, K)
    if name == "sym2":
        params = MixtureParams.symmetric(abs(params.theta[1]))
    else:
        order = np.argsort(params.theta, kind="stable")
        params = MixtureParams(params.pi[order], params.theta[order])
    kind = FAMILIES[name][0]
    d_theta = params.theta[-1] - params.theta[0]
    assume(d_theta > 0.25)
    offsets = np.log(params.pi) - kind.family.alpha(params.theta)
    far = (720.0 + abs(offsets[-1] - offsets[0])) / d_theta
    points = data.draw(st.lists(FAMILIES[name][2], min_size=0, max_size=7))
    at = data.draw(st.integers(0, len(points)))
    y = np.array(points[:at] + [float(math.ceil(far))] + points[at:])
    with spy_max_shift() as max_shift:
        q = responsibilities(kind, params, y)
    assert max_shift.call_count == 1
    assert_exact(name, params, y, q)


@pytest.mark.parametrize("name, theta, y, calls", [
    # sym2 at phi = 0.5: the gap x_1 = 2 phi y is y.  exp(709) is finite
    # and leaves q_0 subnormal; exp(709.8) overflows (log of the largest
    # float: 709.78).
    ("sym2", (-0.5, 0.5), 709.0, 0),
    ("sym2", (-0.5, 0.5), 709.8, 1),
    # Equal weights at (0, 1, 1): x_1 = x_2 = y - 1/2.  At y = 710 each
    # exp(709.5) = 1.35e308 is finite, but their sum is not.
    ("gmm", (0.0, 1.0, 1.0), 709.0, 0),
    ("gmm", (0.0, 1.0, 1.0), 710.0, 1),
], ids=["sym2-finite", "sym2-overflow", "gmm3-finite", "gmm3-sum-overflows"])
def test_max_shift_only_where_the_sum_overflows(name, theta, y, calls):
    params = MixtureParams(np.full(len(theta), 1.0 / len(theta)), theta)
    y = np.array([y])
    with spy_max_shift() as max_shift:
        q = responsibilities(FAMILIES[name][0], params, y)
    assert max_shift.call_count == calls
    assert_exact(name, params, y, q)


def single_probe_posterior(terms, y):
    """The kernel's arithmetic for one parameter vector, written out: the
    relative weights ``e_k``, their sum from 1 in component order, ``q_0 =
    1 / s`` and ``q_k = e_k q_0``; or, where the sum is not finite, each
    point's logits shifted by their max, exponentiated and divided by
    their sum."""
    ty = np.asarray(terms.family.t(y), dtype=float)
    e = np.exp(np.multiply.outer(terms.d_theta, ty) + terms.d_offsets[:, None])
    s = np.ones_like(ty)
    for row in e:
        s = s + row
    if not np.isfinite(s).all():
        logits = np.multiply.outer(terms.theta, ty) + terms.offsets[:, None]
        w = np.exp(logits - logits.max(axis=0))
        return w / w.sum(axis=0)
    r = 1.0 / s
    return np.concatenate([r[None], e * r])


def overflowing(name, K, draw):
    """A ``name`` mixture whose relative weights overflow: for sym2 at
    ``|y| >= 18`` (the gap 2 phi y at phi = 20), for the other kinds at
    every point (equal parameters and a weight ratio of 1e-310 to
    component 0, a gap above 712)."""
    if name == "sym2":
        return MixtureParams.symmetric(20.0)
    lo, hi = FAMILIES[name][1]
    rest = (1.0 - 1e-310) / (K - 1)
    return MixtureParams([1e-310] + [rest] * (K - 1),
                         [draw(st.floats(lo, hi))] * K)


@pytest.mark.parametrize("name", ["gmm", "sym2", "poisson", "exponential"])
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_batched_kernel_matches_each_member_alone(name, data):
    # Every member of a batch is the kernel of its parameters alone, bit
    # for bit.  For K >= 2 one member's weights overflow: it alone takes
    # the max shift.  K = 1 has no relative weights.
    kind = FAMILIES[name][0]
    K = 2 if name == "sym2" else data.draw(st.integers(1, 4))
    size = data.draw(st.integers(1, 8))
    members = [draw_params(data.draw, name, K) for _ in range(size)]
    points = data.draw(st.lists(FAMILIES[name][2], min_size=1, max_size=8))
    if K > 1:
        members[data.draw(st.integers(0, size - 1))] = overflowing(
            name, K, data.draw)
        if name == "sym2":
            points.append(40.0)
    y = np.array(points)
    y.setflags(write=False)
    terms = [model.LogitTerms.of(kind, p) for p in members]
    batch = model.LogitTerms.batch(kind, members)
    for part, alone in zip(batch[1:], list(zip(*terms))[1:]):
        assert part.tobytes() == np.array(alone).tobytes()
    # The kernel's callers run it with overflow warnings off.
    with np.errstate(over="ignore", invalid="ignore"):
        with spy_max_shift() as max_shift:
            q, ty = model.posterior(batch, y)
        assert max_shift.call_count == (K > 1)
        if K > 1:
            assert max_shift.call_args.args[0].theta.shape == (1, K)
        assert q.shape == (size, K, y.size) and q.flags.c_contiguous
        for member, alone in zip(q, terms):
            q_alone, ty_alone = model.posterior(alone, y)
            assert member.tobytes() == q_alone.tobytes()
            assert member.tobytes() == single_probe_posterior(
                alone, y).tobytes()
            assert ty.tobytes() == ty_alone.tobytes()
