"""Sampling determinism, allocation rules, and moment consistency."""

import math

import numpy as np
import pytest

from ssem.errors import ConfigError, DomainError
from ssem.model import MixtureParams, ModelKind, poisson_spec
from ssem.sampling import (
    Dataset,
    SampleConfig,
    load_dataset_csv,
    sample_dataset,
    save_dataset_csv,
)

GMM = ModelKind.gmm()
SYM2 = ModelKind.sym2()


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

    def test_roundtrip_exact(self, tmp_path):
        star = MixtureParams([0.4, 0.6], [-0.5, 1.5])
        ds = sample_dataset(GMM, star, SampleConfig(seed=21, m=50, n=150))
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert back == ds

    def test_csv_layout(self, tmp_path):
        ds = Dataset([1], [0.125], [2.5])
        path = tmp_path / "ds.csv"
        save_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,x,y"
        assert lines[1] == "L,1,0.125"
        assert lines[2] == "U,,2.5"
        assert path.read_bytes().count(b"\r") == 0
