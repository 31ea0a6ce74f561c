"""Deterministic, seeded dataset generation from a ground-truth mixture.

Random stream contract (frozen; cross-language reimplementations must match):

* Generator: NumPy's Philox4x64-10 counter-based bit generator with explicit
  key ``(seed, stream)`` as two uint64 words.  Streams: 0 for label draws,
  1 for labeled observations, 2 for unlabeled observations.
* Uniforms are 53-bit doubles in [0, 1) drawn in sample order (one per
  labeled sample; two per unlabeled sample: component then value).  An exact
  0.0 draw is replaced by 2^-54 so inverse CDFs stay finite.
* Gaussian variates come from the inverse normal CDF applied to a single
  uniform, never from Box-Muller, to keep stream positions aligned.
* Under ``proportional`` allocation, component k receives round(pi_k * m)
  labels (residual adjusted on the largest-weight component) in ascending
  component order; no label randomness is consumed, but stream 0 is still
  reserved.  Under ``multinomial``, labels are inverse-CDF draws from pi.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .model import MixtureParams, ModelKind

ALLOCATIONS = ("proportional", "multinomial")
_MIN_UNIFORM = 2.0 ** -54


@dataclass(frozen=True)
class SampleConfig:
    """Seeded sampling request: ``m`` labeled plus ``n`` unlabeled points."""

    seed: int
    m: int
    n: int
    label_allocation: str = "proportional"

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError("seed must fit in 64 unsigned bits", field="data.seed")
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ConfigError("need m + n >= 1 samples", field="data.total_samples")
        if self.label_allocation not in ALLOCATIONS:
            raise ConfigError(
                f"label_allocation must be one of {ALLOCATIONS}",
                field="data.allocation")


class Dataset:
    """m labeled pairs (x, y) and n unlabeled values, with gamma = m/(m+n)."""

    __slots__ = ("labeled_x", "labeled_y", "unlabeled_y", "gamma")

    def __init__(self, labeled_x, labeled_y, unlabeled_y):
        labeled_x = np.asarray(labeled_x, dtype=np.int64).copy()
        labeled_y = np.asarray(labeled_y, dtype=float).copy()
        unlabeled_y = np.asarray(unlabeled_y, dtype=float).copy()
        if labeled_x.shape != labeled_y.shape or labeled_x.ndim != 1:
            raise DomainError("labeled_x and labeled_y must be equal-length vectors")
        if unlabeled_y.ndim != 1:
            raise DomainError("unlabeled_y must be a vector")
        if labeled_x.size + unlabeled_y.size < 1:
            raise DomainError("dataset cannot be empty")
        if labeled_x.size and labeled_x.min() < 0:
            raise DomainError("labels must be component indices >= 0")
        if not (np.all(np.isfinite(labeled_y)) and np.all(np.isfinite(unlabeled_y))):
            raise DomainError("observations must be finite")
        for arr in (labeled_x, labeled_y, unlabeled_y):
            arr.setflags(write=False)
        object.__setattr__(self, "labeled_x", labeled_x)
        object.__setattr__(self, "labeled_y", labeled_y)
        object.__setattr__(self, "unlabeled_y", unlabeled_y)
        object.__setattr__(self, "gamma",
                           labeled_x.size / (labeled_x.size + unlabeled_y.size))

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def m(self) -> int:
        return self.labeled_x.size

    @property
    def n(self) -> int:
        return self.unlabeled_y.size

    def __eq__(self, other):
        return (isinstance(other, Dataset)
                and np.array_equal(self.labeled_x, other.labeled_x)
                and np.array_equal(self.labeled_y, other.labeled_y)
                and np.array_equal(self.unlabeled_y, other.unlabeled_y))

    def __repr__(self):
        return f"Dataset(m={self.m}, n={self.n}, gamma={self.gamma:.6g})"


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    u = rng.random(shape)
    return np.maximum(u, _MIN_UNIFORM)


def _proportional_counts(pi: np.ndarray, m: int) -> np.ndarray:
    counts = np.rint(pi * m).astype(np.int64)
    counts[np.argmax(pi)] += m - counts.sum()
    if counts.min() < 0:
        raise DomainError(f"proportional allocation infeasible for m={m}, pi={pi}")
    return counts


def _component_draws(kind: ModelKind, theta_star: MixtureParams,
                     labels: np.ndarray, u: np.ndarray) -> np.ndarray:
    spec = kind.family
    if spec.quantile is None:
        raise DomainError(
            f"family {spec.name!r} has no quantile function; cannot sample")
    y = np.empty_like(u)
    for k in range(theta_star.K):
        mask = labels == k
        if mask.any():
            y[mask] = spec.quantile(float(theta_star.theta[k]), u[mask])
    return y


def sample_dataset(kind: ModelKind, theta_star: MixtureParams,
                   cfg: SampleConfig) -> Dataset:
    """Draw a dataset from the ground-truth mixture.

    Identical ``(kind, theta_star, cfg)`` produce bit-identical datasets.
    """
    kind.check_params(theta_star)
    K = theta_star.K
    cum_pi = np.cumsum(theta_star.pi)

    label_rng = _stream(cfg.seed, 0)
    if cfg.label_allocation == "proportional":
        counts = _proportional_counts(theta_star.pi, cfg.m)
        labels = np.repeat(np.arange(K, dtype=np.int64), counts)
    else:
        u = _uniforms(label_rng, cfg.m)
        labels = np.minimum(np.searchsorted(cum_pi, u, side="right"), K - 1)

    labeled_y = _component_draws(
        kind, theta_star, labels, _uniforms(_stream(cfg.seed, 1), cfg.m))

    u2 = _uniforms(_stream(cfg.seed, 2), (cfg.n, 2))
    components = np.minimum(np.searchsorted(cum_pi, u2[:, 0], side="right"), K - 1)
    unlabeled_y = _component_draws(kind, theta_star, components, u2[:, 1])

    return Dataset(labels, labeled_y, unlabeled_y)


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write ``kind,x,y`` rows: kind L/U, x empty on U rows, y at 17
    significant digits, LF line endings."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "x", "y"])
        for x, y in zip(dataset.labeled_x, dataset.labeled_y):
            writer.writerow(["L", int(x), f"{y:.17g}"])
        for y in dataset.unlabeled_y:
            writer.writerow(["U", "", f"{y:.17g}"])


def load_dataset_csv(path) -> Dataset:
    labeled_x, labeled_y, unlabeled_y = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["kind", "x", "y"]:
            raise ConfigError(f"unexpected dataset header {header}", field="dataset")
        for row in reader:
            if row[0] == "L":
                labeled_x.append(int(row[1]))
                labeled_y.append(float(row[2]))
            elif row[0] == "U":
                unlabeled_y.append(float(row[2]))
            else:
                raise ConfigError(f"unexpected row kind {row[0]!r}", field="dataset")
    return Dataset(labeled_x, labeled_y, unlabeled_y)
