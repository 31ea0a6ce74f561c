"""Surrogate objective and M-step checks, including maximizer oracles."""

import math

import numpy as np
import pytest

from ssem import em
from ssem.em import (
    EmConfig,
    m_step,
    m_step_expfam,
    m_step_gmm,
    m_step_sym2,
    q_value,
    run_em,
)
from ssem.errors import DomainError, EmptyComponent
from ssem.model import (
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
        np.testing.assert_allclose(offsets, offsets[0], atol=1e-12)


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
        kind, ds, theta, em._labeled_statistics(kind, ds, theta.K))


class TestBlockedEStep:
    @pytest.mark.parametrize("name", sorted(BLOCK_KINDS))
    @pytest.mark.parametrize("blocks, offset", BLOCK_SIZES)
    def test_statistics_match_exact_sums(self, name, blocks, offset):
        kind, theta = BLOCK_KINDS[name]
        n = blocks * em._block_rows(theta.K) + offset
        ds = block_dataset(name, n, seed=n)
        S, N = estep(kind, ds, theta)
        q = responsibilities(kind, theta, ds.unlabeled_y)
        for k in range(theta.K):
            labeled = ds.labeled_y[ds.labeled_x == k].tolist()
            for got, terms in (
                    (S[k], labeled + (q[:, k] * ds.unlabeled_y).tolist()),
                    (N[k], [1.0] * len(labeled) + q[:, k].tolist())):
                # Rounded products summed exactly; the E-step's own sums
                # (BLAS dot, pairwise) may lose a few units of the
                # absolute sum's last place.
                scale = math.fsum(abs(v) for v in terms)
                assert abs(got - math.fsum(terms)) <= 16 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("name", sorted(BLOCK_KINDS))
    @pytest.mark.parametrize("blocks, offset", BLOCK_SIZES[:4])
    def test_one_block_bit_identical_to_single_array(self, name, blocks, offset):
        kind, theta = BLOCK_KINDS[name]
        n = blocks * em._block_rows(theta.K) + offset
        ds = block_dataset(name, n, seed=n)
        S, N = estep(kind, ds, theta)
        # The formula before blocking; t(y) = y for every kind here.
        S_ref = np.bincount(ds.labeled_x, weights=ds.labeled_y,
                            minlength=theta.K).astype(float)
        N_ref = np.bincount(ds.labeled_x, minlength=theta.K).astype(float)
        if n:
            q = responsibilities(kind, theta, ds.unlabeled_y).T
            S_ref += q @ ds.unlabeled_y
            N_ref += q.sum(axis=1)
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
        # One E-step pass per iteration, in ceil(n / B) calls; the labeled
        # statistics once per run.
        calls, rows, labeled_calls = [], [], []

        def counting_responsibilities(kind, params, y):
            calls.append(1)
            rows.append(np.size(y))
            return responsibilities(kind, params, y)

        def counting_labeled(*args):
            labeled_calls.append(1)
            return labeled_statistics(*args)

        labeled_statistics = em._labeled_statistics
        monkeypatch.setattr(em, "responsibilities", counting_responsibilities)
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
