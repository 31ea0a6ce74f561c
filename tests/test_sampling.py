"""Sampling determinism, allocation rules, and moment consistency."""

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ssem.model
import ssem.sampling
from ssem.cli import main
from ssem.errors import ConfigError, DomainError
from ssem.model import MixtureParams, ModelKind, exponential_spec, poisson_spec
from ssem.sampling import (
    Dataset,
    SampleConfig,
    formatted_rows,
    integer_table,
    load_dataset_csv,
    sample_dataset,
    save_dataset_csv,
)

GMM = ModelKind.gmm()
SYM2 = ModelKind.sym2()
MAX = sys.float_info.max
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reference_save_dataset_csv(dataset, path):
    """The ``csv.writer`` implementation ``save_dataset_csv`` replaced; its
    bytes define the ``dataset.csv`` format."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "x", "y"])
        for x, y in zip(dataset.labeled_x, dataset.labeled_y):
            writer.writerow(["L", int(x), f"{y:.17g}"])
        for y in dataset.unlabeled_y:
            writer.writerow(["U", "", f"{y:.17g}"])


PINNED = json.loads((PERFBENCH / "digests.json").read_text())["sha256"]


def assert_simulate_writes_pinned_dataset(config, tmp_path, seed=0):
    """``ssem simulate --seed <seed>`` on a benchmark config writes the
    ``dataset.csv`` whose digest the benchmark pins."""
    cfg = str(PERFBENCH / "configs" / config)
    assert main(["simulate", "--config", cfg, "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "dataset.csv").read_bytes())
    assert digest.hexdigest() == PINNED[f"{config}:{seed}"]


def assert_bit_identical(a, b):
    for attr in ("labeled_x", "labeled_y", "unlabeled_y"):
        x, y = getattr(a, attr), getattr(b, attr)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr


# Finite floats (subnormals, +-0 and +-max included) and integer-valued
# floats, as the Poisson sampler draws them.
OBSERVATIONS = (st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-2 ** 53, 2 ** 53).map(float))
# Integer-valued floats only, signed zeros and exponent-form ones included:
# samples drawn from these take the writer's distinct-value path.
INTEGER_VALUES = (st.integers(-2 ** 53, 2 ** 53).map(float)
                  | st.sampled_from([-0.0, 0.0, 1e22, -2.0 ** 70, MAX, -MAX]))
CHUNK = ssem.sampling._CHUNK_ROWS


class TestDeterminism:
    def test_bit_identical_repeats(self):
        star = MixtureParams([0.3, 0.7], [-1.0, 2.0])
        cfg = SampleConfig(seed=123, m=400, n=600)
        a = sample_dataset(GMM, star, cfg)
        b = sample_dataset(GMM, star, cfg)
        assert a == b

    def test_seed_changes_stream(self):
        star = MixtureParams.symmetric(1.0)
        a = sample_dataset(SYM2, star, SampleConfig(seed=1, m=0, n=50))
        b = sample_dataset(SYM2, star, SampleConfig(seed=2, m=0, n=50))
        assert not np.array_equal(a.unlabeled_y, b.unlabeled_y)

    def test_csv_bytes_identical(self, tmp_path):
        star = MixtureParams.symmetric(1.5)
        cfg = SampleConfig(seed=9, m=30, n=70)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(sample_dataset(SYM2, star, cfg), p1)
        save_dataset_csv(sample_dataset(SYM2, star, cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestAllocation:
    def test_proportional_exact_split(self):
        star = MixtureParams([0.5, 0.5], [-1.0, 1.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=4, m=100, n=0))
        counts = np.bincount(ds.labeled_x, minlength=2)
        assert counts.tolist() == [50, 50]

    def test_proportional_residual_goes_to_largest(self):
        star = MixtureParams([0.2, 0.5, 0.3], [-2.0, 0.0, 2.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=4, m=10, n=0))
        counts = np.bincount(ds.labeled_x, minlength=3)
        assert counts.sum() == 10
        assert counts.tolist() == [2, 5, 3]

    def test_multinomial_is_valid_and_deterministic(self):
        star = MixtureParams([0.2, 0.8], [0.0, 3.0])
        cfg = SampleConfig(seed=11, m=1000, n=0, label_allocation="multinomial")
        a = sample_dataset(GMM, star, cfg)
        b = sample_dataset(GMM, star, cfg)
        assert a == b
        assert set(np.unique(a.labeled_x)) <= {0, 1}
        # Frequencies land within 5 sigma of the weights.
        frac = (a.labeled_x == 1).mean()
        assert abs(frac - 0.8) < 5 * math.sqrt(0.8 * 0.2 / 1000)


class TestMoments:
    def test_sym2_mean_near_zero(self):
        star = MixtureParams.symmetric(1.0)
        ds = sample_dataset(SYM2, star, SampleConfig(seed=1, m=0, n=100_000))
        se = math.sqrt((1.0 + 1.0) / ds.n)  # Var Y = 1 + theta*^2
        assert abs(ds.unlabeled_y.mean()) < 3 * se

    def test_gmm_mixture_mean(self):
        star = MixtureParams([0.2, 0.8], [0.0, 3.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=3, m=0, n=1_000_000))
        mean = 0.2 * 0.0 + 0.8 * 3.0
        var = 0.2 * (1 + 0.0) + 0.8 * (1 + 9.0) - mean ** 2
        se = math.sqrt(var / ds.n)
        assert abs(ds.unlabeled_y.mean() - mean) < 3 * se

    def test_labeled_conditional_means(self):
        # Per-cluster labeled means converge to the component parameters.
        star = MixtureParams([0.3, 0.7], [-1.0, 2.0])
        ds = sample_dataset(GMM, star, SampleConfig(seed=17, m=1_000_000, n=0))
        for k in (0, 1):
            ys = ds.labeled_y[ds.labeled_x == k]
            se = 1.0 / math.sqrt(ys.size)
            assert abs(ys.mean() - star.theta[k]) < 4 * se

    def test_poisson_sampling(self):
        kind = ModelKind.expfam(poisson_spec())
        star = MixtureParams([0.5, 0.5], [math.log(2.0), math.log(5.0)])
        ds = sample_dataset(kind, star, SampleConfig(seed=5, m=20_000, n=20_000))
        assert np.all(ds.unlabeled_y >= 0)
        assert np.all(ds.unlabeled_y == np.round(ds.unlabeled_y))
        mean2 = ds.labeled_y[ds.labeled_x == 0].mean()
        assert abs(mean2 - 2.0) < 4 * math.sqrt(2.0 / 10_000)


def poisson_reference(theta, u):
    """The draws ``scipy.stats.poisson.ppf`` gives; the Poisson sampler must
    return the same floats."""
    from scipy.stats import poisson

    return poisson.ppf(u, np.exp(theta)).astype(float)


def cdf_steps(theta):
    """Every step ``pdtr(k, mu)`` of the Poisson CDF in (0, 1), ascending."""
    from scipy.special import pdtr

    mu = math.exp(theta)
    steps = pdtr(np.arange(mu + 40.0 * math.sqrt(mu) + 50.0), mu)
    return steps[(steps > 0.0) & (steps < 1.0)]


def inside(probes):
    return probes[(probes > 0.0) & (probes < 1.0)]


def cdf_step_probes(theta):
    """Every step of the Poisson CDF in (0, 1), its 1-ULP neighbours and
    its 1e-14 relative offsets, inside (0, 1)."""
    steps = cdf_steps(theta)
    return inside(np.concatenate([
        steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0),
        steps * (1.0 - 1e-14), steps * (1.0 + 1e-14)]))


def step_band_probes(steps):
    """``steps`` times (1 +- 1e-9), (1 +- 1.1e-9) and (1 +- 1e-8): on the
    edge of the band in which the quantile defers to scipy's rule, just
    outside it, and at the relative distance within which a step flags a
    bucket."""
    rel = np.array([1e-9, 1.1e-9, 1e-8])
    return inside(np.outer(steps, np.concatenate([1.0 - rel, 1.0 + rel])).ravel())


def bucket_edge_probes(steps):
    """The edges ``b / 2^j`` (j = 12 ... 16) of the buckets that hold each
    of ``steps`` and of the next bucket up, and their 1-ULP neighbours."""
    edges = []
    for j in range(12, 17):
        b = np.floor(np.ldexp(steps, j))
        edges += [np.ldexp(b, -j), np.ldexp(b + 1.0, -j)]
    edges = np.concatenate(edges)
    return inside(np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)]))


EXTREME_UNIFORMS = np.array([2.0 ** -54, 1.0 - 2.0 ** -53])
# 9.2 sits just below the table's mean cap (log 1e4 ~ 9.21), where pdtr
# and pdtrik agree least.
POISSON_THETAS = [-5.0, -4.0, 0.5, 2.0, math.log(50.0), 8.0, 9.2]


class TestPoissonQuantile:
    quantile = staticmethod(poisson_spec().quantile)

    def assert_matches_scipy(self, theta, u):
        got = self.quantile(theta, u)
        want = poisson_reference(theta, u)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.fixture
    def deferred(self, monkeypatch):
        """The sizes of the inputs the quantile hands to scipy's rule."""
        sizes = []
        rule = ssem.model._poisson_rule

        def spy(v, mu):
            sizes.append(np.size(v))
            return rule(v, mu)

        monkeypatch.setattr(ssem.model, "_poisson_rule", spy)
        return sizes

    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_seeded_uniforms(self, theta, deferred):
        u = np.maximum(np.random.default_rng(7).random(300_000), 2.0 ** -54)
        self.assert_matches_scipy(theta, u)
        # The table maps the draws: the rule sees the two bracket ends and
        # the few draws near a step.
        assert deferred[0] == 2 and sum(deferred[1:]) < 100

    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_cdf_steps(self, theta):
        # For theta = 8 the probes include subnormal steps.
        self.assert_matches_scipy(theta, cdf_step_probes(theta))

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.4, 0.6)])
    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_bucket_index(self, theta, low, high, monkeypatch):
        # Every bucket that is not flagged has one search result over its
        # whole width, no step within a relative 1e-8 of it, and lies
        # inside the table's ends.  Draws from the middle of (0, 1) give a
        # table whose ends leave buckets below and above it.
        built = []
        index = ssem.model._poisson_buckets

        def spy(cdf, start):
            built.append((cdf, start) + index(cdf, start))
            return built[-1][2:]

        monkeypatch.setattr(ssem.model, "_poisson_buckets", spy)
        u = np.random.default_rng(7).uniform(low, high, 300_000)
        self.quantile(theta, np.maximum(u, 2.0 ** -54))
        [(cdf, start, G, table, flagged)] = built
        assert G & (G - 1) == 0 and 1 << 12 <= G <= 1 << 16
        assert G >= 64 * cdf.size or G == 1 << 16
        assert G < 128 * cdf.size or G == 1 << 12
        lo, hi = np.arange(G) / G, np.arange(1, G + 1) / G
        clean = ~flagged
        assert np.array_equal(table, np.searchsorted(cdf, lo) + start)
        assert np.array_equal(np.searchsorted(cdf, lo)[clean],
                              np.searchsorted(cdf, np.nextafter(hi, 0.0))[clean])
        steps_near = (np.searchsorted(cdf, lo * (1.0 - 1e-8))
                      != np.searchsorted(cdf, hi * (1.0 + 1e-8), side="right"))
        assert not np.any(steps_near & clean)
        assert np.all(hi[clean] <= cdf[-1])
        assert not start or np.all(lo[clean] > cdf[0])

    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_step_band_probes(self, theta):
        self.assert_matches_scipy(theta, step_band_probes(cdf_steps(theta)))

    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_bucket_edge_probes(self, theta):
        self.assert_matches_scipy(theta, bucket_edge_probes(cdf_steps(theta)))

    @given(theta=st.floats(-6.0, 9.2), p=st.floats(0.0, 1.0),
           wide=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_any_mean(self, theta, p, wide):
        # The band and bucket-edge probes of the five steps around p; with
        # ``wide`` the extreme uniforms too, so the table spans the whole
        # CDF and has the most buckets.
        steps = cdf_steps(theta)
        at = int(np.searchsorted(steps, p))
        steps = steps[max(at - 2, 0):at + 3]
        u = np.concatenate([step_band_probes(steps),
                            bucket_edge_probes(steps),
                            EXTREME_UNIFORMS if wide else [], [p]])
        self.assert_matches_scipy(theta, inside(u))

    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_extreme_uniforms(self, theta):
        self.assert_matches_scipy(theta, EXTREME_UNIFORMS)
        u = np.random.default_rng(3).random(1000)
        self.assert_matches_scipy(theta, np.concatenate([EXTREME_UNIFORMS, u]))

    @pytest.mark.parametrize("theta", [8.0, 9.2])
    def test_uniforms_where_pdtr_flushes_to_zero(self, theta):
        # pdtr is 0 at the steps pdtrik places for these uniforms: for the
        # first, at every step the table would hold.
        self.assert_matches_scipy(theta, np.array([5e-324]))
        self.assert_matches_scipy(theta, np.array([5e-324, 1e-315, 0.5]))

    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_empty(self, theta):
        self.assert_matches_scipy(theta, np.empty(0))

    @pytest.mark.parametrize("theta", POISSON_THETAS)
    def test_uniforms_keep_their_shape(self, theta):
        # As the Gaussian and exponential quantiles and scipy do, a scalar
        # uniform gives a 0-d result and a 2-d array a 2-d one.
        self.assert_matches_scipy(theta, 0.3)
        self.assert_matches_scipy(theta, np.float64(0.3))
        u = np.random.default_rng(5).random(600).reshape(20, 30)
        self.assert_matches_scipy(theta, u)

    def test_huge_mean(self):
        # At mu = e^16 scipy's pdtr jumps by 1.2e-7 between k = 8899533 and
        # 8899534, 4.5 sd above the mean, where pdtrik has no jump: a table
        # search would disagree with the rule between steps there.
        self.assert_matches_scipy(16.0, np.linspace(0.9999964, 0.99999675, 400))

    def test_bracket_wider_than_draws(self, deferred):
        # mu = e^8 ~ 2981: the table spans hundreds of values of k for
        # three draws, none near a step, and still maps them.
        self.assert_matches_scipy(8.0, np.array([1e-6, 0.5, 1.0 - 1e-6]))
        assert deferred[0] == 2 and sum(deferred[1:]) == 0

    def test_simulate_writes_pinned_dataset(self, tmp_path):
        assert_simulate_writes_pinned_dataset("poisson2.cfg", tmp_path)

    @pytest.mark.parametrize("seed", sorted(
        int(key.split(":")[1]) for key in PINNED
        if key.startswith("poisson2.cfg:") and key != "poisson2.cfg:0"))
    def test_simulate_writes_pinned_dataset_other_seeds(self, seed, tmp_path):
        assert_simulate_writes_pinned_dataset("poisson2.cfg", tmp_path, seed)


class TestIntegerTable:
    def test_table_rebuilds_the_sample_bit_for_bit(self):
        y = np.array([3.0, -0.0, 0.0, 3.0, -7.0, 1e22, 0.0, 2.0 ** 53 + 2])
        table = integer_table(y)
        assert table.values[table.inverse].tobytes() == y.tobytes()
        assert not any(arr.flags.writeable for arr in table)
        # -0.0 and 0.0 are separate entries, keyed by bit pattern.
        assert table.values.size == 6
        assert table.counts.tolist() == [
            int(np.sum(y.view(np.int64) == b))
            for b in table.values.view(np.int64)]
        np.testing.assert_array_equal(np.diff(table.values.view(np.int64)) > 0, True)

    def test_simulate_builds_the_table_once(self, tmp_path, monkeypatch):
        # The writer and every E-step of the run read the table the
        # Dataset built on first use: one full integrality pass in all.
        sizes = []
        integral = ssem.sampling._integral

        def counting(y):
            sizes.append(y.size)
            return integral(y)

        monkeypatch.setattr(ssem.sampling, "_integral", counting)
        cfg = str(PERFBENCH / "configs" / "poisson2.cfg")
        assert main(["simulate", "--config", cfg, "--seed", "0",
                     "--set", "data.total_samples=2000",
                     "--out", str(tmp_path)]) == 0
        n = (tmp_path / "dataset.csv").read_text().count("\nU,")
        assert n > 1000
        assert sizes.count(n) == 1

    def test_non_integer_samples_have_no_table(self):
        assert integer_table(np.empty(0)) is None
        y = np.arange(1000.0)
        y[700] = 0.5  # past the leading probe
        assert integer_table(y) is None

    def test_continuous_sample_checks_only_a_leading_slice(self, monkeypatch):
        sizes = []
        integral = ssem.sampling._integral

        def counting(y):
            sizes.append(y.size)
            return integral(y)

        monkeypatch.setattr(ssem.sampling, "_integral", counting)
        ds = sample_dataset(GMM, MixtureParams([0.5, 0.5], [-1.0, 1.0]),
                            SampleConfig(seed=2, m=0, n=100_000))
        assert integer_table(ds.unlabeled_y) is None
        assert sizes == [ssem.sampling._PROBE_ROWS]


def reference_sample_dataset(kind, theta_star, cfg):
    """The per-mask sampler ``sample_dataset`` replaced: the component pick
    is ``searchsorted`` on the cumulative weights, and each component's
    draws are its quantile of ``u[labels == k]``, scattered back through
    the same mask.  Its bytes define the sampler's output."""
    spec, K = kind.family, theta_star.K
    cum_pi = np.cumsum(theta_star.pi)

    def uniforms(index, shape):
        key = np.array([cfg.seed, index], dtype=np.uint64)
        u = np.random.Generator(np.random.Philox(key=key)).random(shape)
        return np.maximum(u, 2.0 ** -54)

    def pick(u):
        return np.minimum(np.searchsorted(cum_pi, u, side="right"), K - 1)

    def draws(labels, u):
        y = np.empty_like(u)
        for k in range(K):
            mask = labels == k
            if mask.any():
                y[mask] = spec.quantile(float(theta_star.theta[k]), u[mask])
        return y

    if cfg.label_allocation == "proportional":
        counts = np.rint(theta_star.pi * cfg.m).astype(np.int64)
        counts[np.argmax(theta_star.pi)] += cfg.m - counts.sum()
        labels = np.repeat(np.arange(K, dtype=np.int64), counts)
    else:
        labels = pick(uniforms(0, cfg.m))
    labeled_y = draws(labels, uniforms(1, cfg.m))
    u = uniforms(2, (cfg.n, 2))
    return Dataset(labels, labeled_y, draws(pick(u[:, 0]), u[:, 1]))


POISSON = ModelKind.expfam(poisson_spec())
EXPONENTIAL = ModelKind.expfam(exponential_spec())
# Per family: the model kind and a range of component parameters.
FAMILIES = {"gmm": (GMM, (-4.0, 4.0)), "poisson": (POISSON, (-3.0, 4.0)),
            "exponential": (EXPONENTIAL, (-4.0, -0.1))}


@st.composite
def sampler_cases(draw):
    """A truth of any family and K, both allocations, m and n from 0, and a
    64-bit seed."""
    family = draw(st.sampled_from(["gmm", "sym2", "poisson", "exponential"]))
    if family == "sym2":
        kind = SYM2
        star = MixtureParams.symmetric(draw(st.floats(0.0, 4.0)))
    else:
        kind, (lo, hi) = FAMILIES[family]
        K = draw(st.integers(1, 4))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=K, max_size=K))
        pi = np.array(raw) / sum(raw)
        pi[-1] = 1.0 - pi[:-1].sum()
        theta = draw(st.lists(st.floats(lo, hi), min_size=K, max_size=K))
        star = MixtureParams(pi, theta)
    m, n = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    assume(m + n >= 1)
    cfg = SampleConfig(seed=draw(st.integers(0, 2 ** 64 - 1)), m=m, n=n,
                       label_allocation=draw(st.sampled_from(
                           ssem.sampling.ALLOCATIONS)))
    return kind, star, cfg


class TestComponentSlices:
    """Drawing each component from one slice gives the per-mask sampler's
    bytes."""

    @given(case=sampler_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_mask_sampler(self, case):
        kind, star, cfg = case
        assert_bit_identical(sample_dataset(kind, star, cfg),
                             reference_sample_dataset(kind, star, cfg))

    @pytest.mark.parametrize("allocation", ssem.sampling.ALLOCATIONS)
    @pytest.mark.parametrize("kind, star, m, n", [
        (GMM, MixtureParams([1.0], [0.5]), 40, 60),             # K = 1
        (POISSON, MixtureParams([1.0], [1.0]), 0, 500),          # K = 1
        # A weight of 1e-6 leaves its component empty at these sizes.
        (GMM, MixtureParams([0.5, 1e-6, 0.5 - 1e-6], [-2.0, 0.0, 2.0]),
         50, 400),
        (EXPONENTIAL, MixtureParams([1e-6, 1.0 - 1e-6], [-1.0, -2.0]),
         30, 200),
        (SYM2, MixtureParams.symmetric(1.5), 0, 300),           # m = 0
        (POISSON, MixtureParams([0.5, 0.5], [0.5, 2.0]), 300, 0),  # n = 0
        (GMM, MixtureParams([0.3, 0.4, 0.3], [-3.0, 0.0, 3.0]), 2000, 18000),
    ])
    def test_edge_cases_match_per_mask_sampler(self, kind, star, m, n,
                                               allocation):
        cfg = SampleConfig(seed=7, m=m, n=n, label_allocation=allocation)
        got = sample_dataset(kind, star, cfg)
        assert_bit_identical(got, reference_sample_dataset(kind, star, cfg))
        assert not any(arr.flags.writeable for arr in (
            got.labeled_x, got.labeled_y, got.unlabeled_y))

    @pytest.mark.parametrize("K", [1, 2, 3, 5, 256, 257])
    def test_pick_counts_edges_below(self, K):
        rng = np.random.default_rng(K)
        pi = rng.dirichlet(np.ones(K))
        pi[-1] = 1.0 - pi[:-1].sum()
        cum_pi = np.cumsum(pi)
        # Every edge, its neighbours, both ends of the uniforms' range.
        u = np.concatenate([rng.random(5000), cum_pi,
                            np.nextafter(cum_pi, 0), np.nextafter(cum_pi, 1),
                            [2.0 ** -54, 1 - 2.0 ** -53]])
        u = u[(u > 0) & (u < 1)]
        got = ssem.sampling._pick_components(cum_pi, u)
        assert got.dtype == np.min_scalar_type(K - 1)
        np.testing.assert_array_equal(
            got, np.minimum(np.searchsorted(cum_pi, u, side="right"), K - 1))


def reference_group(keys):
    """``np.unique`` of the keys, floats by bit pattern."""
    if keys.dtype.kind == "f":
        distinct, inverse, counts = np.unique(
            keys.view(np.int64), return_inverse=True, return_counts=True)
        return distinct.view(float), inverse, counts
    return np.unique(keys, return_inverse=True, return_counts=True)


class TestGrouping:
    """``_group`` gives ``np.unique``'s arrays on both of its paths."""

    @staticmethod
    def assert_groups_like_unique(keys, counted, monkeypatch):
        sorted_calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            sorted_calls.append(1)
            return unique(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", spy)
            got = ssem.sampling._group(keys)
        assert (not sorted_calls) == counted
        for a, b in zip(got, reference_group(keys)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("keys, counted", [
        ([0.0, 3.0, 1.0, 3.0, 0.0], True),
        ([-0.0, 0.0, 1.0, 1.0], False),              # -0.0 apart from 0.0
        ([2.0, -3.0, 1.0, 2.0], False),              # a negative integer
        ([0.0, 1.0, 5.0], False),                    # max + 1 > size
        ([0.0, 1.0, 2.0], True),                     # max + 1 == size
        ([7.0] * 10, True),                          # one distinct value
        ([7.0] * 7, False),                          # one, at size
        ([-0.0] * 4, False),
        ([1e22, 1e22, 0.0], False),
        ([2.0 ** 53] * 3, False),
    ])
    def test_float_keys(self, keys, counted, monkeypatch):
        self.assert_groups_like_unique(np.array(keys), counted, monkeypatch)

    @pytest.mark.parametrize("keys, counted", [
        ([3, 0, 3, 1], True),
        ([4, 0, 3, 1], False),
        ([-1, 0, 0, 2], False),
        ([2 ** 63 - 1, 0, 1], False),
        ([5] * 6, True),
    ])
    def test_integer_keys(self, keys, counted, monkeypatch):
        self.assert_groups_like_unique(np.array(keys, dtype=np.int64),
                                       counted, monkeypatch)

    @given(values=st.lists(INTEGER_VALUES | st.integers(0, 40).map(float),
                           min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_integer_table_matches_unique(self, values):
        y = np.array(values)
        table = integer_table(y)
        want = reference_group(y)
        assert table.values.tobytes() == want[0].tobytes()
        assert table.inverse.tobytes() == want[1].tobytes()
        assert table.counts.tolist() == want[2].tolist()


class TestSampleMemory:
    """The sampler and the row tables hold the arrays of their design, and
    no more: a bound in bytes a row from those arrays."""

    # Fixed-size allocations beside the per-row arrays (small numpy
    # arrays, Python objects, a Poisson CDF table of at most ~1,750
    # entries).
    SLACK = 64 * 1024

    @pytest.mark.parametrize("config, overrides, buckets", [
        ("gmm3.cfg", {}, None),
        ("poisson2.cfg", {}, 1 << 12),
        # One component: the Poisson quantile maps every row in one call,
        # so its temporaries must fit the design too.
        ("poisson2.cfg", {"model.theta_star": 2.0, "model.pi": 1.0,
                          "em.theta0": 2.0}, 1 << 12),
        # One component with a CDF table of several hundred entries, and
        # one of about a thousand, whose bucket index is the largest.
        ("poisson2.cfg", {"model.theta_star": 8.0, "model.pi": 1.0,
                          "em.theta0": 8.0}, 1 << 15),
        ("poisson2.cfg", {"model.theta_star": 9.2, "model.pi": 1.0,
                          "em.theta0": 9.2}, 1 << 16),
    ], ids=["gmm3.cfg", "poisson2.cfg", "poisson1", "poisson1-theta8",
            "poisson1-theta9.2"])
    def test_tracemalloc_peak_within_design(self, config, overrides, buckets,
                                            monkeypatch):
        import tracemalloc

        from ssem.config import build_run_config, load_config_file

        raw = load_config_file(PERFBENCH / "configs" / config)
        cfg = build_run_config({**raw, **overrides})
        m, n = cfg.m, cfg.n
        assert cfg.theta_star.K <= 256 and m + n == 200_000
        # Drawing the unlabeled part holds the (n, 2) uniforms (16 bytes a
        # row), the uint8 components (1), their stable order (8) and the
        # uniforms gathered in that order (8), beside the finished labeled
        # labels and values (8 + 8 a labeled row).
        sampling = (16 + 1 + 8 + 8) * n + (8 + 8) * m
        # The Poisson quantile, on one component's rows, holds beside the
        # gathered uniforms and their order (8 + 8) its draws and near-step
        # flags (8 + 1), one block's products u * G, bucket numbers and
        # flags (8 + 8 + 1 a draw) and the bucket index (8 + 1 a bucket, at
        # most 2^16 buckets).  At this size that stays below the uniforms'
        # peak, so the bound is the same.
        block = ssem.model._POISSON_BLOCK
        quantile = ((8 + 8 + 8 + 1) * n + (8 + 8) * m + (8 + 8 + 1) * block
                    + (8 + 1) * (1 << 16))
        assert quantile <= sampling
        # The row tables hold the dataset (8 a row, 16 a labeled row) and,
        # while grouping, an index and an inverse per row of each part
        # (8 + 8).
        grouping = 8 * n + 16 * m + (8 + 8) * (n + m)
        built = []
        index = ssem.model._poisson_buckets

        def spy(cdf, start):
            out = index(cdf, start)
            built.append(out[0])
            return out

        monkeypatch.setattr(ssem.model, "_poisson_buckets", spy)
        sample_dataset(cfg.kind, cfg.theta_star, cfg.sample_config())  # warm
        assert max(built, default=None) == buckets
        tracemalloc.start()
        try:
            ds = sample_dataset(cfg.kind, cfg.theta_star, cfg.sample_config())
            sample_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            formatted_rows(ds)
            rows_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample_peak <= sampling + self.SLACK
        assert rows_peak <= grouping + self.SLACK

    def test_writer_peak_does_not_grow_with_n(self, tmp_path):
        """The writer holds one chunk's arrays whatever the sample size:
        its tracemalloc peak on gmm3 at N = 2e5 and at N = 1e6 stays under
        the kernel's bytes a row times ``_CHUNK_ROWS``.  ``sample`` writes
        in process once the sampler's arrays are freed, so the dataset and
        the writer's peak stay under the sampler's own."""
        import tracemalloc

        from ssem.config import build_run_config, load_config_file

        # A record of the widest kind, an L row with a 19-digit label: its
        # "L,<x>," prefix, the value's byte matrix row and the newline
        # (22 + 39 + 1 = 62).  The chunk's records, their bytes copy and
        # the text left once the NULs are deleted (3 x 62); the keep-table
        # rows gathered for its y (39); at most 16 vectors of 8 bytes alive
        # at once (the values, their exact products and halves, digits,
        # exponents, keep rows and indices).  A value outside [1e-4, 1e17)
        # also holds its own '%.17g' bytes, about four Gaussian rows in
        # 100,000.  The chunk's label ranks and gathered prefixes (8 + 22)
        # are made once the kernel's vectors are freed.
        width = len(b"L,%d," % (2 ** 63 - 1)) + ssem.sampling._Y_WIDTH + 1
        assert width == 62
        per_row = 3 * width + ssem.sampling._Y_WIDTH + 16 * 8
        bound = per_row * ssem.sampling._CHUNK_ROWS + self.SLACK
        raw = load_config_file(PERFBENCH / "configs" / "gmm3.cfg")
        peaks = []
        for total in (200_000, 1_000_000):
            cfg = build_run_config({**raw, "data.total_samples": total})
            tracemalloc.start()
            try:
                ds = sample_dataset(cfg.kind, cfg.theta_star,
                                    cfg.sample_config())
                sample_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                save_dataset_csv(ds, tmp_path / "ds.csv")
                writer_peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
            dataset = 16 * ds.m + 8 * ds.n
            assert writer_peak <= bound
            assert dataset + writer_peak <= sample_peak
            peaks.append(writer_peak)
        assert peaks[1] <= peaks[0] + self.SLACK


class TestSampleCap:
    def test_bytes_per_row(self):
        per_row = ssem.sampling._sample_bytes_per_row
        assert [per_row(K) for K in (1, 2, 256, 257)] == [33, 33, 33, 34]
        cap = ssem.sampling._MAX_SAMPLE_BYTES // per_row(3)
        assert cap == 130_150_524

    @pytest.mark.parametrize("allocation", ssem.sampling.ALLOCATIONS)
    def test_sample_beyond_cap_is_config_error(self, monkeypatch, allocation):
        star = MixtureParams([0.3, 0.7], [-1.0, 1.0])
        monkeypatch.setattr(ssem.sampling, "_MAX_SAMPLE_BYTES", 33 * 100)
        for m, n in ((0, 100), (40, 60), (100, 0)):
            ds = sample_dataset(GMM, star, SampleConfig(
                0, m, n, label_allocation=allocation))
            assert (ds.m, ds.n) == (m, n)
        for m, n in ((0, 101), (41, 60), (101, 0)):
            with pytest.raises(ConfigError) as err:
                sample_dataset(GMM, star, SampleConfig(
                    0, m, n, label_allocation=allocation))
            assert err.value.field == "data.total_samples"

    def test_huge_sample_refused_before_any_array(self):
        # 2^40 rows would need 36 TB; the refusal builds nothing.
        with pytest.raises(ConfigError) as err:
            sample_dataset(GMM, MixtureParams([1.0], [0.0]),
                           SampleConfig(0, 2 ** 39, 2 ** 39))
        assert err.value.field == "data.total_samples"


class TestDatasetAndCsv:
    def test_gamma_is_labeled_fraction(self):
        ds = Dataset([0, 1], [0.5, -0.5], [1.0, 2.0, 3.0])
        assert ds.gamma == pytest.approx(2 / 5, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            Dataset([], [], [])
        with pytest.raises(ConfigError):
            SampleConfig(seed=0, m=0, n=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations_rejected(self, bad, tmp_path):
        with pytest.raises(DomainError):
            Dataset([0], [bad], [0.5])
        with pytest.raises(DomainError):
            Dataset([0], [0.5], [bad])
        path = tmp_path / "bad.csv"
        path.write_text(f"kind,x,y\nL,0,0.5\nU,,{bad}\n")
        with pytest.raises(DomainError):
            load_dataset_csv(path)

    @pytest.mark.parametrize("labels, bad", [
        ([-0.5, 2.9], "-0.5"),
        ([1, 2.9], "2.9"),
        ([0.0, np.nan], "nan"),
        ([np.inf], "inf"),
        ([2.0 ** 63], "9.223372036854776e+18"),
        ([2 ** 63], "9223372036854775808"),
        ([-2 ** 63 - 1], "-9223372036854775809"),
        ([0, 2 ** 64], "18446744073709551616"),
        (np.array([1, 2 ** 63], dtype=np.uint64), "9223372036854775808"),
    ], ids=["negative-fraction", "fraction", "nan", "inf", "float-2^63",
            "2^63", "below-int64", "2^64", "uint64-2^63"])
    def test_label_not_an_int64_is_domain_error(self, labels, bad):
        # A label must be an exact integer in the int64 range; none is
        # truncated or wrapped on the way in.
        with pytest.raises(DomainError) as err:
            Dataset(labels, np.ones(len(labels)), [3.0])
        assert bad in str(err.value)

    @pytest.mark.parametrize("labels", [
        [1.0, 0.0, -0.0], np.array([3, 0], dtype=np.uint8),
        np.array([2, 1], dtype=np.int32), [2 ** 63 - 1, 0],
        np.array([2 ** 63 - 1], dtype=np.uint64), [2.0 ** 62],
    ], ids=["integral-floats", "uint8", "int32", "int64-max", "uint64",
            "float-2^62"])
    def test_integer_labels_are_int64(self, labels):
        ds = Dataset(labels, np.ones(len(labels)), [3.0])
        assert ds.labeled_x.dtype == np.int64
        assert ds.labeled_x.tolist() == [int(v) for v in labels]

    def test_roundtrip_exact(self, tmp_path):
        star = MixtureParams([0.4, 0.6], [-0.5, 1.5])
        ds = sample_dataset(GMM, star, SampleConfig(seed=21, m=50, n=150))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert back == ds

    def test_simulate_writes_pinned_gmm3_dataset(self, tmp_path):
        # A continuous sample: the writer's row-by-row path.
        assert_simulate_writes_pinned_dataset("gmm3.cfg", tmp_path)

    def test_csv_layout(self, tmp_path):
        ds = Dataset([1], [0.125], [2.5])
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,x,y"
        assert lines[1] == "L,1,0.125"
        assert lines[2] == "U,,2.5"
        assert path.read_bytes().count(b"\r") == 0

    @pytest.mark.parametrize("m, n", [
        (0, 1), (1, 0), (1, 1), (65535, 65537), (65536, 65536),
        (65537, 65535), (0, 65536), (65537, 0),
    ])
    def test_bytes_match_reference_writer(self, m, n, tmp_path):
        # Row counts at and around 65,536, a multiple of the writer's chunk
        # length, and empty halves.
        rng = np.random.default_rng(m + 7 * n)
        labels = rng.integers(0, 4, m)
        labels[::97] = rng.integers(0, 2 ** 63 - 1, labels[::97].size)
        ys = np.ldexp(rng.standard_normal(m + n), rng.integers(-1074, 1021, m + n))
        ys[:4] = [-0.0, 5e-324, MAX, -MAX][:ys[:4].size]
        ds = Dataset(labels, ys[:m], ys[m:])
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_dataset_csv(ds, got)
        reference_save_dataset_csv(ds, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("m, n", [
        (0, 1), (3, CHUNK - 1), (0, CHUNK), (1, CHUNK + 1), (5, 2 * CHUNK + 3),
    ])
    def test_integer_sample_bytes_match_reference_writer(self, m, n, tmp_path):
        # Integer-valued unlabeled rows, so the writer joins formatted
        # distinct rows: signed zeros, negative integers, integers above
        # 2^53 and ones printed in exponent form.
        rng = np.random.default_rng(m + 7 * n)
        uy = rng.integers(-40, 40, n).astype(float)
        special = [-0.0, 0.0, 2.0 ** 53 + 2, -(2.0 ** 60), 1e22, -1e22, MAX]
        k = min(n, len(special))
        uy[rng.choice(n, k, replace=False)] = special[:k]
        ds = Dataset(rng.integers(0, 3, m), rng.standard_normal(m), uy)
        assert ds.unlabeled_table is not None
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_dataset_csv(ds, got)
        reference_save_dataset_csv(ds, want)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("fractional", [False, True],
                             ids=["integer", "fractional"])
    @pytest.mark.parametrize("m", [1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3])
    def test_labeled_pairs_bytes_match_reference_writer(self, m, fractional,
                                                        tmp_path):
        # Integer-valued labeled rows, so the writer gathers the texts of
        # the distinct values: repeated pairs, the same value under
        # several labels, signed zeros, large labels and exponent-form
        # values.  One fractional value sends all labeled rows back to the
        # kernel, row by row.
        rng = np.random.default_rng(m)
        x = rng.integers(0, 3, m)
        y = rng.integers(-5, 5, m).astype(float)
        special = [(0, -0.0), (0, 0.0), (2 ** 63 - 1, 3.0), (1, 1e22),
                   (2, -(2.0 ** 60)), (1, MAX)]
        k = min(m, len(special))
        at = rng.choice(m, k, replace=False)
        x[at] = [p[0] for p in special[:k]]
        y[at] = [p[1] for p in special[:k]]
        if fractional:
            y[rng.integers(m)] = 0.5
        ds = Dataset(x, y, rng.standard_normal(7))
        values = {b.tobytes() for b in y}
        assert formatted_rows(ds) == (m if fractional else len(values)) + 7
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_dataset_csv(ds, got)
        reference_save_dataset_csv(ds, want)
        assert got.read_bytes() == want.read_bytes()

    def test_poisson_formatted_rows_are_distinct_rows(self):
        kind = ModelKind.expfam(poisson_spec())
        ds = sample_dataset(kind, MixtureParams([0.5, 0.5], [0.5, 2.0]),
                            SampleConfig(seed=0, m=20_000, n=180_000))
        # The distinct labeled values and the distinct unlabeled values:
        # 20 + 23 at this seed, far below the fork threshold.
        labeled = np.unique(ds.labeled_y)
        values = np.unique(ds.unlabeled_y)
        assert formatted_rows(ds) == labeled.size + values.size == 43

    @given(labeled=st.lists(st.tuples(st.integers(0, 2 ** 63 - 1),
                                      INTEGER_VALUES)),
           unlabeled=st.lists(OBSERVATIONS))
    @example(labeled=[(0, -0.0), (0, 0.0), (1, 0.0), (0, -0.0)],
             unlabeled=[0.5])
    @settings(max_examples=200, deadline=None)
    def test_integer_labeled_roundtrip_bit_identical(self, labeled, unlabeled,
                                                     tmp_path_factory):
        # All-integer labeled rows: the writer's distinct-pair path.
        assume(labeled)
        ds = Dataset([x for x, _ in labeled], [y for _, y in labeled], unlabeled)
        path = tmp_path_factory.mktemp("roundtrip") / "ds.csv"
        save_dataset_csv(ds, path)
        assert_bit_identical(load_dataset_csv(path), ds)

    @given(labeled=st.lists(st.tuples(st.integers(0, 2 ** 63 - 1), OBSERVATIONS)),
           unlabeled=st.lists(OBSERVATIONS))
    @example(labeled=[(0, 5e-324), (1, -0.0), (2 ** 63 - 1, MAX)],
             unlabeled=[0.0, -0.0, -5e-324, -MAX, 2.2250738585072014e-308, 7.0])
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_bit_identical(self, labeled, unlabeled, tmp_path_factory):
        assume(labeled or unlabeled)
        ds = Dataset([x for x, _ in labeled], [y for _, y in labeled], unlabeled)
        path = tmp_path_factory.mktemp("roundtrip") / "ds.csv"
        save_dataset_csv(ds, path)
        assert_bit_identical(load_dataset_csv(path), ds)

    @given(labeled=st.lists(st.tuples(st.integers(0, 2 ** 63 - 1), OBSERVATIONS)),
           unlabeled=st.lists(INTEGER_VALUES, min_size=1))
    @example(labeled=[(1, 2.0)], unlabeled=[0.0, -0.0, 1e22, -3.0, 0.0, -0.0])
    @settings(max_examples=200, deadline=None)
    def test_integer_sample_roundtrip_bit_identical(self, labeled, unlabeled,
                                                    tmp_path_factory):
        # All-integer unlabeled rows: the writer's distinct-value path.
        ds = Dataset([x for x, _ in labeled], [y for _, y in labeled], unlabeled)
        assert ds.unlabeled_table is not None
        path = tmp_path_factory.mktemp("roundtrip") / "ds.csv"
        save_dataset_csv(ds, path)
        assert_bit_identical(load_dataset_csv(path), ds)

    @pytest.mark.parametrize("text, line", [
        ("kind,x,y\nL,0,0.5\nU\nU,,1\n", 3),
        ("kind,x,y\nL,0,0.5\n\nU,,1\n", 3),
        ("kind,x,y\nL,0,0.5\nU,,1\n\n", 4),
        ("kind,x,y\n\n", 2),
        ("kind,x,y\nL,0,0.5\nU,,abc\n", 3),
        ("kind,x,y\nL,,0.5\n", 2),
        ("kind,x,y\nL,0,0.5\nL,1.0,0.5\n", 3),
        ("kind,x,y\nL,99999999999999999999,0.5\n", 2),
        ("kind,x,y\nL,0000000000000000000000001,0.5\n", 2),
        ("kind,x,y\nU,,1\nU,,1,9\n", 3),
        ("kind,x,y\nU,,1\nU,3,1\n", 3),
        ("kind,x,y\nU,,1\nX,,1\n", 3),
        ("kind,x,y\nL,0\x00,1\n", 2),
        ("kind,x,y\nU,,1\nU,,\t2\n", 3),
        ("kind,x,y\nL,0, 1.5\n", 2),
        ("kind,x,y\nU,,1 \n", 2),
        ("kind,x,y\nU,,0.5\nU,,1\u2028\n", 3),
        ("kind,x,y\nU,,0.5\r\nU,,1\n", 2),
        ("kind,x,y\nL\x00,0,1\n", 2),
        ("kind,x,y\nL,1.0,0.5\nU,,abc\n", 2),
        ("kind,x,y\nX,,0.5\nU,,1\n\n", 2),
        ("kind,x,y\nU,3,0.5\nU,,1,2\n", 2),
    ], ids=["short-row", "blank-line", "trailing-blank-line", "only-blank-line",
            "bad-float", "empty-label", "float-label", "label-overflow",
            "long-label", "extra-column", "label-on-U-row", "unknown-kind",
            "nul-after-label", "tab-before-y", "space-before-y",
            "space-after-y", "line-separator-after-y", "carriage-return",
            "nul-after-kind", "float-label-before-bad-float",
            "unknown-kind-before-blank-line",
            "label-on-U-row-before-extra-column"])
    def test_malformed_row_is_config_error(self, text, line, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_dataset_csv(path)
        assert err.value.field == "dataset"
        assert f"line {line}:" in str(err.value)

    @pytest.mark.parametrize("text", ["", "kind,x\nU,,1\n", "kind;x;y\nU,,1\n"])
    def test_bad_header_is_config_error(self, text, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_dataset_csv(path)
        assert err.value.field == "dataset"

    def test_negative_label_is_domain_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("kind,x,y\nL,-1,0.5\n")
        with pytest.raises(DomainError):
            load_dataset_csv(path)


def power_of_ten_probes() -> np.ndarray:
    """Every power of ten 10^j that is a finite nonzero double, j from -323
    to 308, with its neighbours 1 and 2 ulps away on either side: where an
    estimate of the decimal exponent from ``log10`` can be off by one."""
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    near = [tens]
    for toward in (0.0, np.inf):
        step = tens
        for _ in range(2):
            step = np.nextafter(step, toward)
            near.append(step)
    probes = np.concatenate(near)
    return probes[np.isfinite(probes) & (probes != 0.0)]


def seventeenth_digit_ties() -> np.ndarray:
    """Doubles whose decimal expansion has exactly 18 significant digits,
    the last a 5: each lies halfway between two 17-digit decimals.

    An odd m over 2^j is m 5^j over 10^j, whose digits are those of
    m 5^j; that has 18 digits when 10^17 <= m 5^j < 10^18, and m/2^j is a
    double when m < 2^53, which leaves j from 1 to 25.  For each j the
    odd m at both ends of its range and a few between them.
    """
    rng = np.random.default_rng(17)
    ties = []
    for j in range(1, 26):
        lo = -(-10 ** 17 // 5 ** j) | 1
        hi = min(10 ** 18 // 5 ** j, 2 ** 53) - 1
        if lo > hi:
            continue
        ms = [lo, lo + 2, hi if hi % 2 else hi - 1]
        ms += [int(m) | 1 for m in rng.integers(lo, hi, 8)]
        ties += [m / 2 ** j for m in ms if m <= hi]
    ties += [2251799813685247.75, 2251799813685246.25,
             562949953421311.125, 562949953421310.875]
    return np.array(ties)


def every_digit_count_labels() -> list[int]:
    """0, and 10^j - 1, 10^j and a value between for every j up to 18,
    then 2^63 - 1: labels of every length from 1 to 19 digits."""
    labels = [0, 2 ** 63 - 1, 2 ** 63 - 2]
    for j in range(1, 19):
        labels += [10 ** j - 1, 10 ** j, 10 ** j + 7 * 10 ** (j - 1) // 3]
    return labels


class TestWriterOracle:
    """``save_dataset_csv`` writes the bytes of ``f"{y:.17g}"``
    (``reference_save_dataset_csv``) across the whole double range."""

    def assert_matches_reference(self, ds, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_dataset_csv(ds, got)
        reference_save_dataset_csv(ds, want)
        assert got.read_bytes() == want.read_bytes()

    @staticmethod
    def edge_values() -> np.ndarray:
        """Powers of ten and their neighbours, the ends of the range where
        17 digits come from one exact product (1e-6 and 1e17), ties at the
        17th digit, subnormals, +-0 and +-MAX, each with both signs."""
        ends = np.array([1e-6, 1e17, 1e16, 1e-5, 1e-4, 1e-3, 0.1, 1.0])
        ends = np.concatenate([ends, np.nextafter(ends, 0.0),
                               np.nextafter(ends, np.inf)])
        tiny = np.array([5e-324, 1e-323, 2.2250738585072009e-308,
                         2.2250738585072014e-308, 4.9406564584124654e-322,
                         MAX, np.nextafter(MAX, 0.0)])
        values = np.concatenate([power_of_ten_probes(), ends,
                                 seventeenth_digit_ties(), tiny])
        return np.concatenate([[0.0, -0.0], values, -values])

    def test_edge_values(self, tmp_path):
        values = self.edge_values()
        labels = every_digit_count_labels()
        x = np.resize(labels, values.size)
        self.assert_matches_reference(Dataset(x, values, values[::-1]),
                                      tmp_path)

    def test_integer_edge_values(self, tmp_path):
        # The integers among them, every row grouped: the writer formats
        # distinct rows, labels of every length included.
        values = self.edge_values()
        values = values[np.rint(values) == values]
        x = np.resize(every_digit_count_labels(), values.size)
        ds = Dataset(x, values, values)
        assert ds.unlabeled_table is not None and ds.labeled_table is not None
        self.assert_matches_reference(ds, tmp_path)

    def test_random_bit_patterns(self, tmp_path):
        # 10^6 finite doubles with uniform random bits: every exponent, both
        # signs, subnormals; a few thousand labeled among them.
        rng = np.random.default_rng(20261020)
        bits = rng.integers(0, 2 ** 64, 10 ** 6 + 2_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)][:10 ** 6]
        assert values.size == 10 ** 6
        m = 4_000
        x = rng.integers(0, 2 ** 63 - 1, m) >> rng.integers(0, 63, m)
        self.assert_matches_reference(Dataset(x, values[:m], values[m:]),
                                      tmp_path)
