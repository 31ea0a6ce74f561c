"""Integrator checks against closed forms and an independent library rule."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ssem.errors import QuadratureFailure
from ssem.quadrature import Panels, integrate


def gaussian_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# The most panels the tests let ``integrate`` split into.
MAX_SUBDIVISIONS = 1 << 16


def integrate_from(f, a, b, abs_tol, max_subdivisions=MAX_SUBDIVISIONS):
    """``integrate`` started from eight equal panels over ``[a, b]``."""
    return integrate(f, Panels.uniform(a, b, 8), abs_tol, max_subdivisions)


class TestExactness:
    def test_polynomial(self):
        value, err = integrate_from(lambda x: x ** 5 - 3 * x ** 2 + 1,
                                    0.0, 2.0, 1e-12)
        expected = 2.0 ** 6 / 6 - 2.0 ** 3 + 2.0
        assert abs(value - expected) < 1e-13
        assert err <= 1e-12

    def test_gaussian_mass_and_moments(self):
        value, _ = integrate_from(gaussian_pdf, -15, 15, 1e-12)
        assert abs(value - 1.0) < 1e-13
        value, _ = integrate_from(lambda x: x ** 6 * gaussian_pdf(x), -20, 20,
                                  1e-12)
        assert abs(value - 15.0) < 1e-12

    def test_oscillatory_vs_quadpack(self):
        f = lambda x: np.cos(11.0 * x) * np.exp(-0.3 * x)
        mine, _ = integrate_from(f, 0.0, 5.0, 1e-12)
        ref, _ = quad(lambda x: math.cos(11.0 * x) * math.exp(-0.3 * x),
                      0.0, 5.0, epsabs=1e-13, limit=200)
        assert abs(mine - ref) < 1e-12

    def test_narrow_peak_needs_adaptivity(self):
        # Peak two decades below the initial panel width: refinement must
        # engage (a single 15-point pass misestimates this by ~1e-3).
        s = 5e-3
        f = lambda x: np.exp(-0.5 * ((x - 0.3) / s) ** 2) / (s * math.sqrt(2 * math.pi))
        value, _ = integrate_from(f, -1.0, 1.0, 1e-11)
        assert abs(value - 1.0) < 1e-10


class TestVectorIntegrand:
    TOL = 1e-12

    @staticmethod
    def stacked(x):
        return np.stack([x ** j * gaussian_pdf(x) for j in range(4)])

    def test_each_output_meets_tolerance(self):
        values, errors = integrate_from(self.stacked, -15.0, 15.0, self.TOL)
        assert values.shape == errors.shape == (4,)
        np.testing.assert_allclose(values, [1.0, 0.0, 1.0, 0.0],
                                   rtol=0.0, atol=self.TOL)
        assert np.all(errors <= self.TOL)

    def test_rows_match_scalar_integrals(self):
        values, _ = integrate_from(self.stacked, -15.0, 15.0, self.TOL)
        for j in range(4):
            scalar, _ = integrate_from(lambda x: self.stacked(x)[j],
                                       -15.0, 15.0, self.TOL)
            assert abs(values[j] - scalar) <= 2.0 * self.TOL

    def test_scalar_integrand_returns_floats(self):
        value, err = integrate_from(gaussian_pdf, -15.0, 15.0, self.TOL)
        assert type(value) is float and type(err) is float

    def test_nonfinite_in_one_output(self):
        f = lambda x: np.stack([gaussian_pdf(x), 1.0 / x])
        with pytest.raises(QuadratureFailure):
            integrate_from(f, -1.0, 1.0, 1e-10)


class TestFailureModes:
    def test_subdivision_budget(self):
        f = lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300)
        with pytest.raises(QuadratureFailure):
            integrate_from(f, -1.0, 1.0, 1e-14, max_subdivisions=16)

    def test_nonfinite_integrand(self):
        with pytest.raises(QuadratureFailure):
            integrate_from(lambda x: 1.0 / x, -1.0, 1.0, 1e-10)

    @pytest.mark.parametrize("a, b", [(1.0, -1.0), (1.0, 1.0),
                                      (-math.inf, 1.0), (0.0, math.nan)])
    def test_bad_interval(self, a, b):
        with pytest.raises(ValueError, match="invalid integration interval"):
            Panels.uniform(a, b, 8)


class TestPrebuiltPanels:
    def test_first_call_gets_the_panel_nodes(self):
        panels = Panels.uniform(-12.0, 13.0, 25)
        seen = []

        def f(x):
            seen.append(x)
            return np.tanh(x) * gaussian_pdf(x - 0.7)

        integrate(f, panels, 1e-13, MAX_SUBDIVISIONS)
        assert seen[0] is panels.nodes and len(seen) > 1


def test_deterministic_bits():
    f = lambda x: np.tanh(x) * gaussian_pdf(x - 0.7)
    a = integrate_from(f, -12, 13, 1e-11)
    b = integrate_from(f, -12, 13, 1e-11)
    assert a == b


def _reference_estimates(f, lo, hi, nodes):
    """The per-panel estimates as computed before the in-place rewrite."""
    from ssem.quadrature import _GAUSS_IDX, _TINY, _WG, _WK, _XK

    half = 0.5 * (hi - lo)
    fx = np.asarray(f(nodes), dtype=float)
    fx = fx.reshape(fx.shape[:-1] + (lo.size, _XK.size))
    resk = fx @ _WK
    resg = fx[..., _GAUSS_IDX] @ _WG
    values = resk * half
    raw = np.abs(resk - resg) * half
    resasc = (np.abs(fx - 0.5 * resk[..., None]) @ _WK) * half
    scaled = resasc * np.minimum(1.0, (200.0 * raw / np.maximum(resasc, _TINY)) ** 1.5)
    return values, np.where(resasc > 0.0, scaled, raw)


def reference_integrate(f, initial_panels, abs_tol):
    """``integrate`` as it was before the no-split fast path: every result
    is summed over the panels reordered by ``argsort``."""
    from ssem.quadrature import _kronrod_nodes

    lo, hi = initial_panels.lo, initial_panels.hi
    values, errors = _reference_estimates(f, lo, hi, initial_panels.nodes)
    while float(np.max(errors.sum(axis=-1))) > abs_tol:
        split = (errors.reshape(-1, lo.size) > abs_tol / (2.0 * lo.size)).any(axis=0)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_values, new_errors = _reference_estimates(
            f, new_lo, new_hi, _kronrod_nodes(new_lo, new_hi))
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        values = np.concatenate([values[..., ~split], new_values], axis=-1)
        errors = np.concatenate([errors[..., ~split], new_errors], axis=-1)
    order = np.argsort(lo, kind="stable")
    value = values[..., order].sum(axis=-1)
    error = errors[..., order].sum(axis=-1)
    if value.ndim == 0:
        return float(value), float(error)
    return value, error


class TestReferenceBits:
    """``integrate`` returns the bits of the reference algorithm above, both
    when the starting panels already meet the tolerance (the fast path: no
    reordering) and when panels are split."""

    @staticmethod
    def vector(x):
        # Posterior-moment-like rows of very different scales, so the order
        # of the panel sums shows in the last bit.
        q = 1.0 / (1.0 + np.exp(-2.0 * x))
        w = gaussian_pdf(x - 0.4)
        return np.stack([q * w, (1.0 - q) * w, q * x * w, 1e-9 * x ** 3 * w,
                         1e6 * gaussian_pdf(x + 1.0) * w])

    @staticmethod
    def scalar(x):
        return np.tanh(x) * gaussian_pdf(x - 0.7) + 1e-7 * x ** 2

    @pytest.mark.parametrize("which", ["scalar", "vector"])
    @pytest.mark.parametrize("counts, abs_tol, refined", [
        ((60, 200), 1e-12, False),
        ((8, 25), 1e-13, True),
    ], ids=["starting-panels", "refined"])
    def test_same_value_and_error_bits(self, which, counts, abs_tol, refined):
        f = getattr(self, which)
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        for count in counts:
            panels = Panels.uniform(-12.0, 13.0, count)
            calls.clear()
            got = integrate(counted, panels, abs_tol, MAX_SUBDIVISIONS)
            assert (len(calls) > 1) == refined
            want = reference_integrate(f, panels, abs_tol)
            for g, w in zip(got, want):
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
            assert type(got[0]) is type(want[0])

    def test_data_tells_the_sum_orders_apart(self):
        # The reason the fast path sums an F-ordered copy: a plain pairwise
        # row sum of the same panel values differs in the last bit.
        panels = Panels.uniform(-12.0, 13.0, 200)
        values, _ = integrate(self.vector, panels, 1e-3, MAX_SUBDIVISIONS)
        panel_values, _ = _reference_estimates(self.vector, panels.lo,
                                               panels.hi, panels.nodes)
        reordered = panel_values[..., np.arange(200)]
        assert np.array_equal(values, reordered.sum(axis=-1))
        assert not np.array_equal(values, panel_values.sum(axis=-1))
