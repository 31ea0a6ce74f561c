"""Surrogate objective and M-step checks, including maximizer oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from ssem import em
from ssem.em import (
    EmConfig,
    Trajectory,
    m_step,
    m_step_expfam,
    m_step_gmm,
    m_step_sym2,
    q_value,
    run_em,
)
from ssem.errors import DomainError, EmptyComponent, NumericOverflow
from ssem.model import (
    LogitTerms,
    MixtureParams,
    ModelKind,
    exponential_spec,
    gaussian_spec,
    poisson_spec,
    responsibilities,
)
from ssem.sampling import Dataset, SampleConfig, sample_dataset

GMM = ModelKind.gmm()
SYM2 = ModelKind.sym2()


def random_gmm_dataset(rng, K=2, m=40, n=120):
    pi = rng.dirichlet(np.ones(K) * 3.0)
    pi = pi / pi.sum()
    star = MixtureParams(pi, np.sort(rng.normal(scale=2.0, size=K)))
    seed = int(rng.integers(0, 2 ** 32))
    return star, sample_dataset(GMM, star, SampleConfig(seed=seed, m=m, n=n))


def numerical_gradient(f, theta, h=1e-5):
    grad = np.empty_like(theta)
    for k in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (f(up) - f(down)) / (2 * h)
    return grad


class TestQValue:
    def test_labeled_only_is_complete_data_loglik(self):
        # With n = 0 the surrogate is the labeled complete-data
        # log-likelihood over (n + m); verified against a direct loop.
        star = MixtureParams([0.3, 0.7], [-1.0, 2.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=2, m=25, n=0))
        theta = MixtureParams([0.3, 0.7], [-0.5, 1.5])
        direct = math.fsum(
            -0.5 * (y - theta.theta[x]) ** 2
            - math.log(math.sqrt(2 * math.pi) / theta.pi[x])
            for x, y in zip(ds.labeled_x, ds.labeled_y)) / ds.m
        assert q_value(GMM, ds, theta, theta) == pytest.approx(direct, abs=1e-12)

    def test_single_unlabeled_point_maximized_at_zero(self):
        ds = Dataset([], [], [0.0])
        theta_t = MixtureParams.symmetric(1.0)
        q0 = q_value(SYM2, ds, MixtureParams.symmetric(0.0), theta_t)
        for theta in np.linspace(-2, 2, 41):
            assert q0 >= q_value(SYM2, ds, MixtureParams.symmetric(theta),
                                 theta_t) - 1e-15

    def test_truth_maximizes_surrogate_at_large_n(self):
        # Grid-search oracle around theta*: no grid point beats it.
        star = MixtureParams([0.5, 0.5], [-1.0, 1.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=6, m=0, n=200_000))
        q_star = q_value(GMM, ds, star, star)
        for d0 in np.linspace(-0.25, 0.25, 5):
            for d1 in np.linspace(-0.25, 0.25, 5):
                if d0 == 0.0 and d1 == 0.0:
                    continue
                probe = MixtureParams(star.pi, star.theta + [d0, d1])
                assert q_value(GMM, ds, probe, star) <= q_star + 1e-3

    def test_expfam_gaussian_differs_only_by_constant(self):
        spec = ModelKind.expfam(gaussian_spec())
        star = MixtureParams([0.4, 0.6], [-1.0, 1.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=8, m=30, n=90))
        thetas = [MixtureParams(star.pi, star.theta + d) for d in (0.0, 0.3, -0.7)]
        offsets = [q_value(spec, ds, th, star) - q_value(GMM, ds, th, star)
                   for th in thetas]
        # One surrogate formula for every kind: the constant is 0.
        np.testing.assert_allclose(offsets, 0.0, atol=1e-12)

    def test_poisson_labeled_only_is_complete_data_loglik(self):
        # The weight constants log pi_k enter for an expfam kind as well.
        kind = ModelKind.expfam(poisson_spec())
        star = MixtureParams([0.3, 0.7], [0.2, 1.5])
        ds = sample_dataset(kind, star, SampleConfig(seed=4, m=25, n=0))
        theta = MixtureParams([0.3, 0.7], [0.5, 1.2])
        direct = math.fsum(
            math.log(theta.pi[x]) + theta.theta[x] * y
            - math.exp(theta.theta[x]) - math.lgamma(y + 1.0)
            for x, y in zip(ds.labeled_x, ds.labeled_y)) / ds.m
        assert q_value(kind, ds, theta, theta) == pytest.approx(direct, abs=1e-12)


class TestMStepGmm:
    def test_single_labeled_point(self):
        ds = Dataset([0], [5.0], [])
        out = m_step_gmm(ds, MixtureParams([1.0], [0.0]))
        assert out.theta[0] == 5.0

    def test_empty_component_raises(self):
        ds = Dataset([0], [5.0], [])
        with pytest.raises(EmptyComponent):
            m_step_gmm(ds, MixtureParams([0.5, 0.5], [0.0, 1.0]))

    def test_label_out_of_range_raises(self):
        ds = Dataset([2], [1.0], [0.5])
        with pytest.raises(DomainError, match="label 2"):
            m_step_gmm(ds, MixtureParams([0.5, 0.5], [0.0, 1.0]))

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        star, ds = random_gmm_dataset(rng, K=3, m=60, n=140)
        theta_t = MixtureParams(star.pi, star.theta + rng.normal(scale=0.3, size=3))
        out = m_step_gmm(ds, theta_t)
        q = responsibilities(GMM, theta_t, ds.unlabeled_y)
        for k in range(3):
            num = math.fsum(y for x, y in zip(ds.labeled_x, ds.labeled_y) if x == k)
            num += math.fsum(q[i, k] * ds.unlabeled_y[i] for i in range(ds.n))
            den = sum(1 for x in ds.labeled_x if x == k)
            den += math.fsum(q[i, k] for i in range(ds.n))
            assert out.theta[k] == pytest.approx(num / den, abs=1e-12)

    def test_fixed_point_within_sampling_noise(self):
        star = MixtureParams([0.5, 0.5], [-1.0, 1.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=12, m=0, n=1_000_000))
        out = m_step_gmm(ds, star)
        q = responsibilities(GMM, star, ds.unlabeled_y)
        for k in (0, 1):
            u = q[:, k] * ds.unlabeled_y - out.theta[k] * q[:, k]
            se = math.sqrt(ds.n * u.var()) / q[:, k].sum()
            assert abs(out.theta[k] - star.theta[k]) < 4 * se


class TestMStepExpfam:
    def test_gaussian_spec_equals_gmm_on_random_data(self):
        rng = np.random.default_rng(42)
        spec = gaussian_spec()
        for _ in range(100):
            star, ds = random_gmm_dataset(rng, K=2, m=20, n=60)
            theta_t = MixtureParams(star.pi,
                                    star.theta + rng.normal(scale=0.4, size=2))
            a = m_step_gmm(ds, theta_t)
            b = m_step_expfam(spec, ds, theta_t)
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-10)

    def test_exponential_single_point(self):
        ds = Dataset([0], [2.0], [])
        out = m_step_expfam(exponential_spec(), ds, MixtureParams([1.0], [-1.0]))
        assert out.theta[0] == pytest.approx(-0.5, abs=1e-12)

    def test_poisson_weighted_mean(self):
        ds = Dataset([0, 0, 0], [2.0, 3.0, 4.0], [])
        out = m_step_expfam(poisson_spec(), ds, MixtureParams([1.0], [0.0]))
        assert out.theta[0] == pytest.approx(math.log(3.0), abs=1e-12)


class TestMStepSym2:
    def test_label_for_positive_component(self):
        ds = Dataset([1], [3.0], [])
        assert m_step_sym2(ds, 0.7) == 3.0

    def test_label_for_negative_component_flips_sign(self):
        ds = Dataset([0], [3.0], [])
        assert m_step_sym2(ds, 0.7) == -3.0

    def test_single_unlabeled_origin(self):
        ds = Dataset([], [], [0.0])
        assert m_step_sym2(ds, 2.0) == 0.0

    def test_direct_summation_oracle(self):
        # The tied value summed directly: (S_1 - S_0) / (m + n), with a
        # label for the component at -theta flipping the sign of its y.
        rng = np.random.default_rng(3)
        for _ in range(10):
            star = MixtureParams.symmetric(float(rng.uniform(0.2, 3.0)))
            m, n = int(rng.integers(0, 60)), int(rng.integers(1, 200))
            ds = sample_dataset(SYM2, star, SampleConfig(
                seed=int(rng.integers(0, 2 ** 32)), m=m, n=n))
            theta_t = float(rng.uniform(-3.0, 3.0))
            q = responsibilities(SYM2, MixtureParams.symmetric(theta_t),
                                 ds.unlabeled_y)
            direct = math.fsum(
                [y if x == 1 else -y for x, y in zip(ds.labeled_x, ds.labeled_y)]
                + [(q[i, 1] - q[i, 0]) * ds.unlabeled_y[i] for i in range(n)]
            ) / (m + n)
            assert m_step_sym2(ds, theta_t) == pytest.approx(direct, abs=1e-12)

    def test_sign_symmetry_exact(self):
        # Negating observations and swapping labels produces a dataset the
        # tied model cannot distinguish from the original, so the update is
        # unchanged; negating the observations together with the previous
        # iterate (labels kept) negates it exactly.
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n = rng.integers(1, 30), rng.integers(1, 60)
            x = rng.integers(0, 2, size=m)
            ly = rng.normal(scale=2.0, size=m)
            uy = rng.normal(scale=2.0, size=n)
            theta_t = float(rng.uniform(0.1, 3.0))
            forward = m_step_sym2(Dataset(x, ly, uy), theta_t)
            # Relabeling equality holds up to logistic complement rounding.
            relabeled = m_step_sym2(Dataset(1 - x, -ly, -uy), theta_t)
            assert relabeled == pytest.approx(forward, abs=1e-13)
            negated = m_step_sym2(Dataset(x, -ly, -uy), -theta_t)
            assert negated == -forward


class TestRunEm:
    def test_labeled_only_converges_in_one_step(self):
        star = MixtureParams([0.5, 0.5], [-1.0, 1.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=3, m=200, n=0))
        traj = run_em(GMM, ds, MixtureParams(star.pi, [5.0, -5.0]),
                      EmConfig(max_iters=10, tol=1e-12))
        # The update drops its theta_t dependence with no unlabeled data.
        assert traj.n_steps <= 2
        np.testing.assert_array_equal(traj.iterates[1].theta,
                                      traj.final.theta)

    def test_sym2_recovers_truth(self):
        star = MixtureParams.symmetric(1.5)
        ds = sample_dataset(SYM2, star, SampleConfig(seed=1, m=0, n=100_000))
        traj = run_em(SYM2, ds, MixtureParams.symmetric(3.0),
                      EmConfig(max_iters=100, tol=1e-10), theta_star=star)
        assert abs(traj.final.sym2_scalar() - 1.5) < 0.05
        assert traj.errors[-1] < traj.errors[0]

    def test_initialized_at_truth_barely_moves(self):
        star = MixtureParams.symmetric(1.5)
        ds = sample_dataset(SYM2, star, SampleConfig(seed=13, m=0, n=1_000_000))
        traj = run_em(SYM2, ds, star, EmConfig(max_iters=3, tol=1e-14))
        q = responsibilities(SYM2, star, ds.unlabeled_y)[:, 0]
        terms = (1.0 - 2.0 * q) * ds.unlabeled_y
        se = math.sqrt(terms.var() / ds.n)
        assert abs(traj.iterates[1].sym2_scalar() - 1.5) < 4 * se

    def test_ascent_and_argmax_on_random_scenarios(self):
        rng = np.random.default_rng(100)
        kinds = [GMM, ModelKind.expfam(gaussian_spec()),
                 ModelKind.expfam(poisson_spec())]
        for trial in range(30):
            kind = kinds[trial % len(kinds)]
            if kind.tag == "expfam" and kind.spec.name == "poisson":
                star = MixtureParams([0.5, 0.5],
                                     np.log(np.sort(rng.uniform(1.0, 6.0, 2))))
            else:
                star = MixtureParams([0.4, 0.6],
                                     np.sort(rng.normal(scale=1.5, size=2)))
            ds = sample_dataset(kind, star, SampleConfig(
                seed=int(rng.integers(0, 2 ** 32)), m=25, n=75))
            theta0 = MixtureParams(star.pi,
                                   star.theta + rng.normal(scale=0.3, size=2))
            traj = run_em(kind, ds, theta0, EmConfig(max_iters=5, tol=1e-12))
            for t in range(1, len(traj.iterates)):
                held = q_value(kind, ds, traj.iterates[t - 1], traj.iterates[t - 1])
                assert traj.q_values[t - 1] >= held - 1e-10
            out = m_step(kind, ds, theta0)
            grad = numerical_gradient(
                lambda th: q_value(kind, ds, MixtureParams(star.pi, th), theta0),
                out.theta)
            assert np.max(np.abs(grad)) < 1e-6

    def test_sym2_ascent(self):
        star = MixtureParams.symmetric(1.2)
        ds = sample_dataset(SYM2, star, SampleConfig(seed=23, m=40, n=160))
        traj = run_em(SYM2, ds, MixtureParams.symmetric(3.5),
                      EmConfig(max_iters=8, tol=1e-13))
        for t in range(1, len(traj.iterates)):
            held = q_value(SYM2, ds, traj.iterates[t - 1], traj.iterates[t - 1])
            assert traj.q_values[t - 1] >= held - 1e-10

    def test_mstep_error_carries_iteration(self):
        ds = Dataset([0], [5.0], [])
        with pytest.raises(EmptyComponent) as err:
            run_em(GMM, ds, MixtureParams([0.5, 0.5], [0.0, 1.0]),
                   EmConfig(max_iters=5, tol=1e-10))
        assert err.value.iteration == 0


# One kind per statistic and family shape: K=3 Gaussian, the tied pair, and
# an integer-support family.
BLOCK_KINDS = {
    "gmm": (GMM, MixtureParams([0.3, 0.4, 0.3], [-2.0, 0.5, 2.0])),
    "sym2": (SYM2, MixtureParams.symmetric(1.3)),
    "poisson": (ModelKind.expfam(poisson_spec()),
                MixtureParams([0.5, 0.5], np.log([2.0, 6.0]))),
}
# Every E-step block boundary case, as (multiple of B, offset).
BLOCK_SIZES = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)]


def block_dataset(name, n, seed=0):
    """Seven labeled points and ``n`` unlabeled ones for ``BLOCK_KINDS[name]``."""
    kind, theta = BLOCK_KINDS[name]
    rng = np.random.default_rng(seed)
    if name == "poisson":
        uy = rng.poisson(4.0, size=n).astype(float)
        ly = rng.poisson(4.0, size=7).astype(float)
    else:
        uy = rng.normal(scale=2.5, size=n)
        ly = rng.normal(scale=2.5, size=7)
    return Dataset(rng.integers(0, theta.K, size=7), ly, uy)


def estep(kind, ds, theta):
    return em._sufficient_statistics(
        kind, theta, em._labeled_statistics(kind, ds, theta.K), em._unlabeled(ds))


def assert_matches_exact_sums(S, N, kind, theta, ds):
    """``(S, N)`` against the responsibility-weighted sums over every row,
    each a rounded product summed exactly.  The E-step's own sums (BLAS
    products over blocks) may lose a few units of the absolute sum's last
    place, and its terms ``e_k (r t)`` round differently from ``q_k t``."""
    uy = ds.unlabeled_y
    q = responsibilities(kind, theta, uy)
    for k in range(theta.K):
        labeled = ds.labeled_y[ds.labeled_x == k].tolist()
        for got, terms in ((S[k], labeled + (q[:, k] * uy).tolist()),
                           (N[k], [1.0] * len(labeled) + q[:, k].tolist())):
            scale = math.fsum(abs(v) for v in terms)
            assert abs(got - math.fsum(terms)) <= 16 * np.finfo(float).eps * scale


# For each kind, a parameter vector and a value y at which a logit exceeds
# component 0's by at least 720, so that 1 + sum_k e_k overflows there while
# t(y) stays moderate.  The Gaussian kinds put component 0 last in the
# grouped order: an integer table lists negative values, by magnitude,
# before the others, so the far value -y sits between them and later blocks
# follow it; Poisson values are non-negative, so the far one comes last.
FALLBACK_CASES = {
    "gmm": (GMM, MixtureParams([0.3, 0.4, 0.3], [2.0, 0.5, -2.0]), -200.0),
    "sym2": (SYM2, MixtureParams.symmetric(-1.3), -300.0),
    "poisson": (ModelKind.expfam(poisson_spec()),
                MixtureParams([0.5, 0.5], np.log([2.0, 6.0])), 700.0),
    "K=1": (GMM, MixtureParams([1.0], [0.5]), -200.0),
}


def fallback_dataset(name, grouped, rng):
    """Seven labeled points and the unlabeled ones for
    ``FALLBACK_CASES[name]``, the far value once among them: in block 1 of
    four for a continuous sample; a grouped one draws 400 integers (the
    caller shrinks its blocks)."""
    kind, theta, far = FALLBACK_CASES[name]
    if not grouped:
        ly = rng.normal(scale=2.5, size=7)
        uy = rng.normal(scale=2.5, size=3 * em._block_rows(theta.K) + 11)
    elif name == "poisson":
        ly, uy = (rng.poisson(4.0, size).astype(float) for size in (7, 400))
    else:
        ly, uy = (rng.integers(-6, 7, size).astype(float) for size in (7, 400))
    uy[em._block_rows(theta.K) + 5 if not grouped else 0] = far
    return Dataset(rng.integers(0, theta.K, size=7), ly, uy)


class TestBlockedEStep:
    @pytest.mark.parametrize("name", sorted(BLOCK_KINDS))
    @pytest.mark.parametrize("blocks, offset", BLOCK_SIZES)
    def test_statistics_match_exact_sums(self, name, blocks, offset):
        kind, theta = BLOCK_KINDS[name]
        n = blocks * em._block_rows(theta.K) + offset
        ds = block_dataset(name, n, seed=n)
        S, N = estep(kind, ds, theta)
        assert_matches_exact_sums(S, N, kind, theta, ds)

    @pytest.mark.parametrize("name", sorted(BLOCK_KINDS))
    @pytest.mark.parametrize("blocks, offset", BLOCK_SIZES[:4])
    def test_one_block_bit_identical_to_single_array(self, name, blocks, offset):
        kind, theta = BLOCK_KINDS[name]
        n = blocks * em._block_rows(theta.K) + offset
        ds = block_dataset(name, n, seed=n)
        S, N = estep(kind, ds, theta)
        # The contraction on one unblocked array; t(y) = y for every kind
        # here.  With e_k the relative weights, r = 1 / (1 + sum_k e_k) and
        # counts c (1 for a row; the integer-valued Poisson sample is
        # grouped), the moments are [1; e] @ [r c v, r c].T.
        S_ref = np.bincount(ds.labeled_x, weights=ds.labeled_y,
                            minlength=theta.K).astype(float)
        N_ref = np.bincount(ds.labeled_x, minlength=theta.K).astype(float)
        if n:
            v, c = ((np.unique(ds.unlabeled_y, return_counts=True))
                    if name == "poisson" else (ds.unlabeled_y, 1.0))
            terms = LogitTerms.of(kind, theta)
            e = np.exp(np.multiply.outer(terms.d_theta, v)
                       + terms.d_offsets[:, None])
            rc = 1.0 / np.sum(e, axis=0, initial=1.0) * c
            moments = np.vstack([np.ones(v.size), e]) @ np.stack([rc * v, rc]).T
            S_ref += moments[:, 0]
            N_ref += moments[:, 1]
        np.testing.assert_array_equal(S, S_ref)
        np.testing.assert_array_equal(N, N_ref)

    @pytest.mark.parametrize("name", sorted(BLOCK_KINDS))
    def test_far_tail_row_in_later_block_stays_finite(self, name):
        kind, theta = BLOCK_KINDS[name]
        rows = em._block_rows(theta.K)
        ds = block_dataset(name, 2 * rows + 3)
        uy = ds.unlabeled_y.copy()
        uy[rows + 5] = 1e154  # y**2 would overflow
        ds = Dataset(ds.labeled_x, ds.labeled_y, uy)
        S, N = estep(kind, ds, theta)
        assert np.all(np.isfinite(S)) and np.all(np.isfinite(N))
        assert np.max(S) >= 1e154 * (1.0 - 1e-12)
        assert np.all(np.isfinite(m_step(kind, ds, theta).theta))

    @pytest.mark.parametrize("name, grouped", [
        ("gmm", False), ("gmm", True), ("sym2", False), ("sym2", True),
        ("poisson", True), ("K=1", False), ("K=1", True)])
    def test_overflowing_block_matches_exact_sums(self, name, grouped,
                                                  monkeypatch):
        # One block takes the max-shifted responsibilities, and the blocks
        # after it take the relative weights again from the same buffers.
        kind, theta, far = FALLBACK_CASES[name]
        terms = LogitTerms.of(kind, theta)
        assert theta.K == 1 or max(terms.d_theta * far + terms.d_offsets) >= 720
        ds = fallback_dataset(name, grouped, np.random.default_rng(7))
        if grouped:
            monkeypatch.setattr(em, "_ESTEP_BLOCK_BYTES", 4 * 8 * theta.K)
            values = em._unlabeled(ds)[0]
            at = int(np.flatnonzero(values == far)[0])
            assert 4 <= at < values.size - 4 or name == "poisson"
        else:
            assert em._unlabeled(ds)[1] is None
        S, N = estep(kind, ds, theta)
        assert_matches_exact_sums(S, N, kind, theta, ds)

    def test_label_out_of_range_raises_from_m_step_and_run_em(self):
        theta = BLOCK_KINDS["gmm"][1]
        rows = em._block_rows(theta.K)
        ds = Dataset([0, 3], [1.0, 2.0], np.linspace(-3, 3, rows + 1))
        with pytest.raises(DomainError, match="label 3"):
            m_step(GMM, ds, theta)
        with pytest.raises(DomainError, match="label 3") as err:
            run_em(GMM, ds, theta, EmConfig(max_iters=5, tol=1e-10))
        assert err.value.iteration == 0

    def test_work_counts_per_iteration(self, monkeypatch):
        # One E-step pass per iteration, in ceil(n / B) kernel calls; the
        # labeled statistics once per run.
        calls, rows, labeled_calls = [], [], []

        def counting_weights(terms, y, *buffers):
            calls.append(1)
            rows.append(np.size(y))
            return relative_weights(terms, y, *buffers)

        def counting_labeled(*args):
            labeled_calls.append(1)
            return labeled_statistics(*args)

        relative_weights = em._relative_weights
        labeled_statistics = em._labeled_statistics
        monkeypatch.setattr(em, "_relative_weights", counting_weights)
        monkeypatch.setattr(em, "_labeled_statistics", counting_labeled)
        kind, theta = BLOCK_KINDS["gmm"]
        B = em._block_rows(theta.K)
        ds = block_dataset("gmm", 2 * B + 3)
        traj = run_em(kind, ds, MixtureParams(theta.pi, theta.theta + 0.4),
                      EmConfig(max_iters=4, tol=1e-300))
        assert traj.n_steps == 4
        assert sum(rows) == ds.n * traj.n_steps
        assert len(calls) == math.ceil(ds.n / B) * traj.n_steps
        assert len(labeled_calls) == 1

    def test_logit_terms_built_once_per_pass(self, monkeypatch):
        # The parameters are checked and their logit offsets computed once
        # per E-step pass, not once per block.
        built = []
        of = LogitTerms.of.__func__

        def counting_of(cls, *args, **kwargs):
            built.append(1)
            return of(cls, *args, **kwargs)

        monkeypatch.setattr(LogitTerms, "of", classmethod(counting_of))
        kind, theta = BLOCK_KINDS["gmm"]
        ds = block_dataset("gmm", 2 * em._block_rows(theta.K) + 3)
        traj = run_em(kind, ds, MixtureParams(theta.pi, theta.theta + 0.4),
                      EmConfig(max_iters=4, tol=1e-300))
        assert traj.n_steps == 4
        assert len(built) == traj.n_steps


def far_tail_case(name, far, n=51):
    """``n - 1`` moderate unlabeled points and one at ``far``, for the
    Gaussian kinds, with a start near the labels."""
    uy = np.r_[np.linspace(-4, 4, n - 1), far]
    if name == "gmm":
        return (GMM, Dataset([0, 1, 2], [-3.0, 0.0, 3.0], uy),
                MixtureParams([0.3, 0.4, 0.3], [-2.0, 0.5, 2.0]))
    return SYM2, Dataset([0, 1], [-3.0, 3.0], uy), MixtureParams.symmetric(1.0)


class TestFarTail:
    # Tier-1 turns warnings into errors, so these also check that nothing
    # overflows silently along the way.
    @pytest.mark.parametrize("name", ["gmm", "sym2"])
    def test_representable_tail_runs_finite(self, name):
        # y**2 = 1e308 is still a float: the carrier, the logits and the
        # surrogate all stay finite.
        kind, ds, theta0 = far_tail_case(name, 1e154)
        traj = run_em(kind, ds, theta0, EmConfig(max_iters=100))
        assert traj.converged
        assert np.all(np.isfinite(traj.final.theta))
        assert np.all(np.isfinite(traj.q_values))

    @pytest.mark.parametrize("name", ["gmm", "sym2"])
    def test_overflowing_tail_is_typed_error(self, name):
        # y**2 overflows, so the surrogate's carrier sum has no float value.
        kind, ds, theta0 = far_tail_case(name, 1e155)
        with pytest.raises(NumericOverflow) as err:
            run_em(kind, ds, theta0, EmConfig(max_iters=100))
        assert err.value.iteration == 0

    @pytest.mark.parametrize("name", ["gmm", "sym2"])
    def test_overflowing_tail_is_rejected_at_any_n(self, name):
        # The carrier sum has no float64 value whatever n is, so a run that
        # records the surrogate stops before its first step, even where the
        # iterates alone would stay finite (sym2 below).
        kind, ds, theta0 = far_tail_case(name, 1e155, n=100_000)
        with pytest.raises(NumericOverflow) as err:
            run_em(kind, ds, theta0, EmConfig(max_iters=100))
        assert err.value.iteration == 0

    def test_overflowing_tail_runs_without_the_surrogate(self):
        # At n = 1e5 the far point moves the tied sym2 mean only to ~1e150,
        # so theta * y stays finite and the unrecorded run converges.
        kind, ds, theta0 = far_tail_case("sym2", 1e155, n=100_000)
        traj = run_em(kind, ds, theta0,
                      EmConfig(max_iters=100, record_trajectory=False))
        assert traj.converged
        assert np.all(np.isfinite(traj.final.theta))

    @pytest.mark.parametrize("name", ["gmm", "sym2"])
    def test_overflowing_logits_are_typed_error(self, name):
        # Without the surrogate the first step succeeds and moves a
        # component to ~1e153; theta * y then overflows in the next E-step.
        kind, ds, theta0 = far_tail_case(name, 1e155)
        with pytest.raises(NumericOverflow) as err:
            run_em(kind, ds, theta0,
                   EmConfig(max_iters=100, record_trajectory=False))
        assert err.value.iteration == 1

    def test_cli_exit_3(self, tmp_path, capsys):
        from ssem.cli import main

        cfg = tmp_path / "far.cfg"
        cfg.write_text("model.kind = gmm\nmodel.pi = 0.5, 0.5\n"
                       "model.theta_star = 0, 1e155\ndata.total_samples = 60\n"
                       "em.theta0 = -1, 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert err["type"] == "NumericOverflow"
        assert err["iteration"] == 0


class TestGroupedEStep:
    def test_integer_sample_passes_distinct_values_per_iteration(self, monkeypatch):
        rows = []
        relative_weights = em._relative_weights

        def counting_weights(terms, y, *buffers):
            rows.append(np.size(y))
            return relative_weights(terms, y, *buffers)

        monkeypatch.setattr(em, "_relative_weights", counting_weights)
        kind, theta = BLOCK_KINDS["poisson"]
        ds = block_dataset("poisson", 3 * em._block_rows(theta.K))
        distinct = np.unique(ds.unlabeled_y).size
        traj = run_em(kind, ds, MixtureParams(theta.pi, theta.theta + 0.3),
                      EmConfig(max_iters=6, tol=1e-300))
        assert traj.n_steps == 6
        assert sum(rows) == distinct * traj.n_steps
        assert distinct < 30

    @pytest.mark.parametrize("name", ["gmm", "sym2"])
    def test_integer_valued_gaussian_data_matches_row_sums(self, name):
        # The grouping is chosen from the data, not the kind: integer-valued
        # data under a Gaussian kind is grouped too, signed zeros apart.
        kind, theta = BLOCK_KINDS[name]
        rng = np.random.default_rng(5)
        uy = rng.integers(-6, 7, 3000).astype(float)
        uy[::50] = -0.0
        ds = Dataset([0, 1], [-1.0, 2.0], uy)
        S, N = estep(kind, ds, theta)
        assert_matches_exact_sums(S, N, kind, theta, ds)
        row_by_row = em._carrier_sum(kind, ds, (uy, None))
        assert em._carrier_sum(kind, ds, em._unlabeled(ds)) == pytest.approx(
            row_by_row, rel=1e-14)


    @pytest.mark.parametrize("m", [0, 1, 20_000])
    def test_labeled_carrier_taken_once_per_distinct_row(self, m):
        # On integer labeled data h is taken at each distinct value and
        # gathered back in row order, so the sum adds the same terms in the
        # same order as h over every row.
        seen = []
        spec = poisson_spec()

        def counting(y):
            seen.append(np.size(y))
            return spec.log_carrier(y)

        kind = ModelKind.expfam(replace(spec, log_carrier=counting))
        ds = sample_dataset(kind, MixtureParams([0.5, 0.5], [0.5, 2.0]),
                            SampleConfig(seed=3, m=m, n=2_000))
        values, counts = em._unlabeled(ds)
        want = float(np.sum(spec.log_carrier(ds.labeled_y)))
        want += float(np.sum(counts * spec.log_carrier(values)))
        assert em._carrier_sum(kind, ds, (values, counts)) == want
        distinct = 0 if m == 0 else ds.labeled_table.values.size
        assert seen == [distinct, values.size] and distinct < 100


class TestIterate:
    """The one EM loop that sample and population EM both run."""

    STAR = MixtureParams([0.5, 0.5], [-1.0, 1.0])

    def halve(self, theta):
        # Halves the distance to STAR; records no surrogate.
        return theta.with_theta((theta.theta + self.STAR.theta) / 2.0), None

    def test_stops_on_tol_with_errors(self):
        traj = Trajectory.iterate(self.halve, MixtureParams([0.5, 0.5], [-5.0, 3.0]),
                                  max_iters=50, tol=1e-3, theta_star=self.STAR)
        # Step t moves by 4 / 2^(t+1); the first below 1e-3 is t = 12.
        assert traj.converged and traj.n_steps == 12
        assert traj.errors == [4.0 / 2.0 ** t for t in range(13)]
        assert traj.errors == traj.errors_to(self.STAR)
        assert traj.q_values == []


class TestTrajectoryCsv:
    def test_roundtrip_17_digits(self, tmp_path):
        star = MixtureParams.symmetric(1.0)
        ds = sample_dataset(SYM2, star, SampleConfig(seed=5, m=10, n=40))
        traj = run_em(SYM2, ds, MixtureParams.symmetric(2.0),
                      EmConfig(max_iters=6, tol=1e-14), theta_star=star)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,theta_1,theta_2,q_value,err"
        for t, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == t
            assert float(cells[1]) == traj.iterates[t].theta[0]
            assert float(cells[2]) == traj.iterates[t].theta[1]
            if t == 0:
                assert cells[3] == ""
            else:
                assert float(cells[3]) == traj.q_values[t - 1]
            assert float(cells[4]) == traj.errors[t]
