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
* A Poisson variate with mean ``mu = exp(theta)`` is the smallest integer
  ``k >= 0`` with ``scipy.special.pdtr(k, mu) >= u``.  At a step of that
  CDF (within rounding) it is scipy's rule, ``k = ceil(pdtrik(u, mu))``,
  then ``k - 1`` if ``pdtr(k - 1, mu) >= u``: the draws are the floats
  ``scipy.stats.poisson.ppf(u, mu)`` returns.
* Under ``proportional`` allocation, component k receives round(pi_k * m)
  labels (residual adjusted on the largest-weight component) in ascending
  component order; no label randomness is consumed, but stream 0 is still
  reserved.  Under ``multinomial``, labels are inverse-CDF draws from pi.
* An inverse-CDF pick from pi (a multinomial label, or the component of an
  unlabeled sample) is the number of cumulative weights ``cum_pi[:-1]`` at
  or below u, which is ``min(searchsorted(cum_pi, u, "right"), K - 1)``.

Draws are made one component at a time.  The rows are put in component
order by a stable sort (proportional labels already are), so component
k's uniforms form one contiguous slice in sample order; the family's
quantile is called once on each non-empty slice, and the draws are
scattered back to sample order.  Component k's draws are therefore
``quantile(theta_k, u[labels == k])``, bit for bit.  The (n, 2) block of
unlabeled uniforms is freed once both its columns are read, and the
draws overwrite the uniforms they come from.  The sampler's arrays hold at
most ``_sample_bytes_per_row(K)`` bytes a row (33 up to K = 256), and a
sample that would need more than ``_MAX_SAMPLE_BYTES`` (2^32) is refused
before any array is built.

Integer samples are grouped into distinct values (:func:`integer_table`)
by one rule, :func:`_group`: counting when the keys are non-negative
integers below their number, else a sort.  The writer groups a chunk's
labels by the same rule.

Each ``dataset.csv`` row is a prefix, ``U,,`` or ``L,<x>,``, followed by
the bytes of ``"%.17g" % y``.  The value bytes come from one numpy kernel
(:func:`_fill_y`) for a chunk of rows.  For 10^-6 < |y| < 10^17 the 17
digits are the integer nearest the exact product of |y| and an exact
power of ten (Dekker's error-free product), rounded half to even; every
other nonzero value (about one Gaussian draw in a million) takes its
digits from ``'%.16e'``.  The bytes go in a fixed-column byte matrix, a
keep table marks those the value prints, and the rest are NULs, deleted
when a chunk's records are written.  The kernel is elementwise numpy
only, no BLAS and no threads, so it can run in a forked child.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError
from .model import MixtureParams, ModelKind

ALLOCATIONS = ("proportional", "multinomial")
_MIN_UNIFORM = 2.0 ** -54
# The most bytes the sampler's arrays may hold at once: 4 GiB, which is
# 130,150,524 samples at 33 bytes a row (``_sample_bytes_per_row``,
# K <= 256).
_MAX_SAMPLE_BYTES = 1 << 32


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


def _is_int64(value) -> bool:
    try:
        return int(value) == value and -2 ** 63 <= value < 2 ** 63
    except (OverflowError, TypeError, ValueError):  # inf, nan, not a number
        return False


def _int64_labels(labels) -> np.ndarray:
    """A copy of ``labels`` as int64.  A label that is not an exact integer
    in the int64 range (a fraction, a non-finite float, or an integer
    beyond int64) raises :class:`DomainError` naming it."""
    raw = np.asarray(labels)
    if raw.dtype.kind in "iub":
        bad = raw[raw > np.iinfo(np.int64).max].tolist()
    else:  # floats, or Python ints beyond both int64 and uint64
        bad = [v for v in raw.ravel().tolist() if not _is_int64(v)]
    if bad:
        raise DomainError(
            f"label {bad[0]!r} is not an integer in the int64 range")
    return raw.astype(np.int64)


class Dataset:
    """m labeled pairs (x, y) and n unlabeled values, with gamma = m/(m+n)."""

    __slots__ = ("labeled_x", "labeled_y", "unlabeled_y", "gamma",
                 "_unlabeled_table", "_labeled_table")

    def __init__(self, labeled_x, labeled_y, unlabeled_y):
        labeled_x = _int64_labels(labeled_x)
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

    def _memo(self, slot: str, build):
        """The value kept in ``slot``, made by ``build()`` on first use."""
        try:
            return getattr(self, slot)
        except AttributeError:
            value = build()
            object.__setattr__(self, slot, value)
            return value

    @property
    def unlabeled_table(self) -> ValueTable | None:
        """:func:`integer_table` of the unlabeled sample, built on first use
        and then shared by every reader (the E-step, the dataset writer)."""
        return self._memo("_unlabeled_table",
                          lambda: integer_table(self.unlabeled_y))

    @property
    def labeled_table(self) -> ValueTable | None:
        """:func:`integer_table` of the labeled values, built on first use
        and then shared by every reader (the carrier sum, the dataset
        writer)."""
        return self._memo("_labeled_table",
                          lambda: integer_table(self.labeled_y))

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
    return np.maximum(u, _MIN_UNIFORM, out=u)


def _proportional_counts(pi: np.ndarray, m: int) -> np.ndarray:
    counts = np.rint(pi * m).astype(np.int64)
    counts[np.argmax(pi)] += m - counts.sum()
    if counts.min() < 0:
        raise DomainError(f"proportional allocation infeasible for m={m}, pi={pi}")
    return counts


def _pick_components(cum_pi: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The component of each uniform in ``u``: how many of the K - 1
    cumulative weights ``cum_pi[:-1]`` are <= u, in the smallest unsigned
    dtype that holds K - 1.  As ``cum_pi`` is non-decreasing, that is
    ``min(searchsorted(cum_pi, u, "right"), K - 1)`` for every u."""
    labels = np.zeros(u.shape, np.min_scalar_type(cum_pi.size - 1))
    for edge in cum_pi[:-1].tolist():
        labels += u >= edge
    return labels


def _draw_slices(spec, theta: np.ndarray, counts: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """``u`` with, in place, each component's slice replaced by its draws:
    component k holds the ``counts[k]`` entries after those of the
    components before it, and ``spec.quantile`` is called once on each
    non-empty slice."""
    stop = 0
    for th, count in zip(theta.tolist(), counts.tolist()):
        start, stop = stop, stop + count
        if count:
            u[start:stop] = spec.quantile(th, u[start:stop])
    return u


def _unsort(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` put back in sample order: entry i goes to ``order[i]``."""
    out = np.empty_like(values)
    out[order] = values
    return out


def _labeled_draws(spec, theta_star: MixtureParams, cum_pi: np.ndarray,
                   cfg: SampleConfig) -> tuple[np.ndarray, np.ndarray]:
    """The labels (stream 0) and values (stream 1) of the labeled part."""
    K, theta = theta_star.K, theta_star.theta
    y = _uniforms(_stream(cfg.seed, 1), cfg.m)
    if cfg.label_allocation == "proportional":
        counts = _proportional_counts(theta_star.pi, cfg.m)
        return (np.repeat(np.arange(K, dtype=np.int64), counts),
                _draw_slices(spec, theta, counts, y))
    labels = _pick_components(cum_pi, _uniforms(_stream(cfg.seed, 0), cfg.m))
    order = np.argsort(labels, kind="stable")
    return labels, _unsort(order, _draw_slices(
        spec, theta, np.bincount(labels, minlength=K), y[order]))


def _unlabeled_draws(spec, theta: np.ndarray, cum_pi: np.ndarray,
                     cfg: SampleConfig) -> np.ndarray:
    """The values of the unlabeled part (stream 2)."""
    u = _uniforms(_stream(cfg.seed, 2), (cfg.n, 2))
    components = _pick_components(cum_pi, u[:, 0])
    order = np.argsort(components, kind="stable")
    counts = np.bincount(components, minlength=theta.size)
    values = u[order, 1]
    del u, components  # both columns are read: the (n, 2) block goes
    return _unsort(order, _draw_slices(spec, theta, counts, values))


def _sample_bytes_per_row(K: int) -> int:
    """The most bytes a row that :func:`sample_dataset` holds at once for
    a K-component mixture: 32, and the row's component in the smallest
    unsigned dtype that holds K - 1 (1 byte up to K = 256).  It is reached
    while the unlabeled part is drawn: the ``(n, 2)`` uniforms (16), the
    components (1), the stable order that groups them (8) and the uniforms
    gathered in that order (8).  A labeled row holds at most as much:
    under multinomial labels its uniform, label, order, gathered uniform
    and draw.  A family's quantile function runs on one component's rows
    at a time, after the uniforms and components are dropped, so it has 17
    bytes a row for its result and temporaries: each built-in one needs at
    most 16.  The Poisson one needs 9 (its draws and near-a-step flags),
    beside arrays of fixed size: one block's temporaries and its bucket
    index, at most 2^16 buckets of 9 bytes."""
    return 32 + np.min_scalar_type(K - 1).itemsize


def sample_dataset(kind: ModelKind, theta_star: MixtureParams,
                   cfg: SampleConfig) -> Dataset:
    """Draw a dataset from the ground-truth mixture.

    Identical ``(kind, theta_star, cfg)`` produce bit-identical datasets.
    Each component's draws come from one slice of its uniforms, in sample
    order (module docstring).  A sample that needs more than
    ``_MAX_SAMPLE_BYTES`` at :func:`_sample_bytes_per_row` raises
    :class:`ConfigError` (``field="data.total_samples"``) before any array
    is built.
    """
    kind.check_params(theta_star)
    spec, K = kind.family, theta_star.K
    if spec.quantile is None:
        raise DomainError(
            f"family {spec.name!r} has no quantile function; cannot sample")
    need = (cfg.m + cfg.n) * _sample_bytes_per_row(K)
    if need > _MAX_SAMPLE_BYTES:
        raise ConfigError(
            f"{cfg.m + cfg.n} samples of a {K}-component mixture need {need} "
            f"bytes of sampler arrays, more than the {_MAX_SAMPLE_BYTES} "
            f"allowed", field="data.total_samples")
    cum_pi = np.cumsum(theta_star.pi)
    labels, labeled_y = _labeled_draws(spec, theta_star, cum_pi, cfg)
    return Dataset(labels, labeled_y,
                   _unlabeled_draws(spec, theta_star.theta, cum_pi, cfg))


class ValueTable(NamedTuple):
    """The distinct values of a sample, from :func:`integer_table`."""

    values: np.ndarray   # float64, ascending by bit pattern
    counts: np.ndarray   # float64 rows holding each value (exact below 2^53)
    inverse: np.ndarray  # per row, the index of its value in ``values``


# Leading rows checked before the whole sample: a continuous sample shows a
# fractional value among them, so it pays no pass over all its rows.
_PROBE_ROWS = 64


def _integral(y: np.ndarray) -> bool:
    return bool(np.all(np.rint(y) == y))


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct entries of the non-empty, integer-valued 1-d ``keys``,
    ascending by bit pattern, with the inverse index and the counts, as
    ``np.unique(..., return_inverse=True, return_counts=True)`` gives them.

    One rule groups them.  When the keys are non-negative integers, no
    ``-0.0`` among them, and ``max + 1 <= size``, they are counted with
    ``np.bincount``: one pass, and a count array no longer than the keys.
    Otherwise ``np.unique`` sorts them, floats by bit pattern, so ``-0.0``
    and ``0.0`` stay apart.  Both give the same arrays.
    """
    if not np.signbit(keys).any() and keys.max() < keys.size:
        index = keys.astype(np.intp, copy=False)
        counts = np.bincount(index)
        present = np.flatnonzero(counts)
        rank = np.zeros(counts.size, np.intp)
        rank[present] = np.arange(present.size)
        return present.astype(keys.dtype), rank[index], counts[present]
    distinct, inverse, counts = np.unique(keys.view(np.int64),
                                          return_inverse=True,
                                          return_counts=True)
    return distinct.view(keys.dtype), inverse, counts


def integer_table(y) -> ValueTable | None:
    """The distinct-value table of the 1-d sample ``y`` when every value is
    an integer (as the Poisson sampler draws them), else None.

    Values are keyed by bit pattern, so ``-0.0`` and ``0.0``, which print as
    ``-0`` and ``0``, are separate entries; they are grouped by
    :func:`_group`.  ``values[inverse]`` is ``y``, bit for bit.  An empty
    sample has no table.  The arrays are read-only.
    """
    y = np.ascontiguousarray(y, dtype=float)
    if not (y.size and _integral(y[:_PROBE_ROWS]) and _integral(y)):
        return None
    values, inverse, counts = _group(y)
    table = ValueTable(values, counts.astype(float), inverse)
    for arr in table:
        arr.setflags(write=False)
    return table


# Rows per formatted chunk of ``save_dataset_csv``: bounds the kernel's
# arrays and text held at once (about 200 bytes a row on gmm3), whatever
# the dataset size.  On gmm3 at N = 2e5 (2-CPU Xeon) chunks of 4,096 to
# 32,768 rows write equally fast within the noise (medians 49-71 ms over
# two sweeps; 74 ms at 65,536), and a forked writer's peak resident set
# grows by 0.06 MiB more at 16,384 rows than at 8,192, 0.8 MiB at 32,768
# and 8.0 MiB at 65,536.
_CHUNK_ROWS = 1 << 13

# One structured record per data row of ``dataset.csv``.  The string fields
# are one byte wider than the longest valid value ("L"/"U", a 20-character
# int64 label), so a field that ``np.loadtxt`` truncated is always invalid.
_ROW = np.dtype([("k", "S2"), ("x", "S21"), ("y", "f8")])
_LABEL = re.compile(rb"-?[0-9]{1,19}")
# Every byte a data row may hold.  ``np.loadtxt`` would strip whitespace
# around a ``y`` and drop NULs that end a string field, so rows holding
# either are refused before the parse.
_ROW_BYTES = (string.ascii_letters + string.digits + ",.+-\n").encode()
_INT64 = range(-2 ** 63, 2 ** 63)


def formatted_rows(dataset: Dataset) -> int:
    """The values :func:`save_dataset_csv` formats: the distinct values of
    a grouped part of ``dataset``, every row of any other part.  Builds and
    keeps the tables the writer reads, so the writer does not build them
    again."""
    labeled, unlabeled = dataset.labeled_table, dataset.unlabeled_table
    return ((dataset.m if labeled is None else labeled.values.size)
            + (dataset.n if unlabeled is None else unlabeled.values.size))


# The bytes of one ``y`` in the writer's byte matrix before it is filled:
# its sign, the "0.000" that leads a fixed-notation value below 1, 17 digit
# slots with a "." after each of the first 16, then "e" and slots for the
# exponent's sign and three digits; and the columns where each part starts.
_Y_TEMPLATE = b"-0.000" + b"0." * 16 + b"0e" + bytes(4)
_SIGN, _LEAD, _DIGITS, _EXPONENT, _Y_WIDTH = 0, 1, 6, 39, 44
# Keep-table classes: a decimal exponent X in [-4, 16], printed in fixed
# notation, is class X + 4; then exponent notation with two and with three
# exponent digits, and zero.
_E2, _E3, _ZERO = 21, 22, 23
# For 10^-6 < |y| < 10^17 the 17 digits are those of |y| 10^k for one k in
# 0..22, where 10^k is an exact double.
_EXACT_RANGE = (1e-6, 1e17)
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split into 26-bit halves


@cache
def _layout() -> tuple[np.ndarray, np.ndarray]:
    """The writer's tables, built on first use, read-only: ``tens``, 10^k
    for k in 0..22, each an exact double, and ``keep``, the (24 * 17 * 2,
    _Y_WIDTH) 0/1 masks of a ``y``.  Row ``(cls * 17 + last) * 2 +
    negative`` of ``keep`` marks the bytes of a ``y`` of class ``cls``
    whose last nonzero digit is digit ``last`` (0-based):

    * the sign when negative;
    * fixed notation: digits 0 to ``max(X, last)``, then, for X >= 0, the
      "." after digit X when ``last > X``, and for X < 0 the leading "0."
      and -X - 1 zeros;
    * exponent notation: digits 0 to ``last``, the "." after digit 0 when
      ``last > 0``, "e", the exponent's sign and two or three digits;
    * zero: the "0" at ``_LEAD``.
    """
    keep = np.zeros((_ZERO + 1, 17, 2, _Y_WIDTH), np.uint8)
    for cls in range(_ZERO + 1):
        for last in range(17):
            row = keep[cls, last, 0]
            if cls == _ZERO:
                row[_LEAD] = 1
            elif cls < _E2:
                x = cls - 4
                row[_DIGITS:_DIGITS + 2 * max(x, last) + 1:2] = 1
                if x < 0:
                    row[_LEAD:_LEAD + 1 - x] = 1
                elif last > x:
                    row[_DIGITS + 2 * x + 1] = 1
            else:
                row[_DIGITS:_DIGITS + 2 * last + 1:2] = 1
                row[_DIGITS + 1] = last > 0
                row[_EXPONENT:_EXPONENT + 2] = 1
                row[_EXPONENT + (3 if cls == _E2 else 2):] = 1
    keep[:, :, 1] = keep[:, :, 0]
    keep[:, :, 1, _SIGN] = 1
    layout = (10.0 ** np.arange(23), keep.reshape(-1, _Y_WIDTH))
    for arr in layout:  # shared by every call
        arr.setflags(write=False)
    return layout


def _two_product(a: np.ndarray, b: np.ndarray):
    """``p, e`` with ``p + e == a * b`` exactly: Dekker's TwoProduct, for
    products that neither overflow nor underflow."""
    def halves(v):
        c = v * _SPLITTER
        high = c - (c - v)
        return high, v - high

    p = a * b
    (ah, al), (bh, bl) = halves(a), halves(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _exact_digits(a: np.ndarray, tens: np.ndarray):
    """The 17 significant digits ``n`` (an int64 in [10^16, 10^17)) and the
    decimal exponent ``x`` of each ``a`` in ``_EXACT_RANGE``, rounded half
    to even as ``%.17g`` rounds them: ``a`` is about ``n 10^(x - 16)``."""
    k = np.clip(16 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    p, e = _two_product(a, tens[k])
    # log10 can put the exponent one off near a power of ten; then the
    # exact product p + e is below 10^16 or at least 10^17.
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += np.where(low[off], 1, -1)
        p[off], e[off] = _two_product(a[off], tens[k[off]])
    # p >= 10^16 > 2^53 is an even integer, so rounding e half to even
    # rounds p + e half to even.  No double in the range lies within half a
    # 17th digit (a relative 5e-18) below a power of ten, so n never rounds
    # up to 10^17.
    return p.astype(np.int64) + np.rint(e).astype(np.int64), 16 - k


def _rare_digits(a: np.ndarray):
    """The same for any other positive ``a``, read from ``'%.16e'``: a
    digit, ".", 16 digits, "e", the exponent's sign and two or three
    digits."""
    text = ("%.16e " * a.size % tuple(a.tolist())).encode().split()
    chars = np.array(text, "S23").view(np.uint8).reshape(a.size, 23)
    chars = chars.astype(np.int64) - ord("0")  # the NUL padding is -48
    n = chars[:, 0]
    for col in range(2, 18):
        n = 10 * n + chars[:, col]
    x = 10 * chars[:, 20] + chars[:, 21]
    x = np.where(chars[:, 22] < 0, x, 10 * x + chars[:, 22])
    return n, np.where(chars[:, 19] == ord("-") - ord("0"), -x, x)


def _fill_y(y: np.ndarray, out: np.ndarray) -> None:
    """Make each row of the (rows, _Y_WIDTH) byte matrix ``out`` the bytes
    of ``"%.17g" % y`` with NULs between them."""
    tens, keep = _layout()
    out[:] = np.frombuffer(_Y_TEMPLATE, np.uint8)
    a = np.abs(y)
    # Values outside the exact range, zeros and rare ones, are set aside and
    # replaced by 1.0, so a chunk that has some holds no more chunk-length
    # arrays.  A zero keeps only the template's "0"; a rare value's digits
    # are replaced.
    outside = np.flatnonzero((a <= _EXACT_RANGE[0]) | (a >= _EXACT_RANGE[1]))
    rare = a[outside]
    a[outside] = 1.0
    n, x = _exact_digits(a, tens)
    i = np.flatnonzero(rare)
    if i.size:
        n[outside[i]], x[outside[i]] = _rare_digits(rare[i])
    cls = x + 4
    for j in range(16, -1, -1):
        q = n // 10
        out[:, _DIGITS + 2 * j] = n - 10 * q + ord("0")
        n = q
    digits = out[:, _EXPONENT - 1:_DIGITS - 1:-2]  # the 17 digits, last first
    last = 16 - np.argmax(digits != ord("0"), axis=1)
    far = np.flatnonzero((x < -4) | (x > 16))
    if far.size:
        x = x[far]
        size = np.abs(x)
        cls[far] = np.where(size < 100, _E2, _E3)
        out[far, _EXPONENT + 1] = np.where(x < 0, ord("-"), ord("+"))
        for col, place in enumerate((100, 10, 1), _EXPONENT + 2):
            out[far, col] = size // place % 10 + ord("0")
    cls[y == 0.0] = _ZERO
    out *= keep.take((cls * 17 + last) * 2 + np.signbit(y), axis=0)


def _value_texts(values: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each of ``values``, as ``S<w>``:
    padded only to the longest text, so the records gathered from them
    carry few NULs to delete."""
    text = np.empty((values.size, _Y_WIDTH + 1), np.uint8)
    _fill_y(values, text[:, :-1])
    text[:, -1] = ord(" ")
    return np.array(text.tobytes().translate(None, b"\0").split())


def _prefixes(labels: np.ndarray) -> np.ndarray:
    """``L,<x>,`` for each label ``x``, printed by ``%d`` once per distinct
    label (:func:`_group`)."""
    distinct, index, _ = _group(labels)
    return np.array([b"L,%d," % x for x in distinct.tolist()])[index]


def _records(size: int, dtype: np.dtype) -> np.ndarray:
    """``size`` records of ``dtype``: a prefix, set to ``U,,`` (an L part
    sets its own), the value's text and a newline."""
    rows = np.empty(size, dtype)
    rows["prefix"], rows["end"] = b"U,,", b"\n"
    return rows


def _write_part(fh, y: np.ndarray, table: ValueTable | None,
                labels: np.ndarray | None = None) -> None:
    """Write the rows of one part of a dataset, ``_CHUNK_ROWS`` at a time:
    row i is its prefix, ``U,,`` or ``L,<labels[i]>,``, then the bytes of
    ``"%.17g" % y[i]`` and a newline.  A chunk is an array of fixed-width
    records whose NUL padding is deleted.  Its value bytes come from the
    kernel (:func:`_fill_y`), or, for a part grouped in ``table``, from
    one record per distinct value, gathered in row order."""
    if not y.size:
        return
    prefix = "S3" if labels is None else f"S{len(b'L,%d,' % labels.max())}"
    texts = None if table is None else _value_texts(table.values)
    value = (np.uint8, _Y_WIDTH) if texts is None else texts.dtype
    dtype = np.dtype([("prefix", prefix), ("y", value), ("end", "S1")])
    if texts is not None:
        distinct = _records(texts.size, dtype)
        distinct["y"] = texts
        # Gathered as opaque items: 0.9 ms for 180,000 records against
        # 3.8 ms field by field.
        distinct = distinct.view(f"V{dtype.itemsize}")
    for start in range(0, y.size, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        if table is None:
            rows = _records(y[start:stop].size, dtype)
            _fill_y(y[start:stop], rows["y"])
        else:
            rows = distinct[table.inverse[start:stop]].view(dtype)
        if labels is not None:
            rows["prefix"] = _prefixes(labels[start:stop])
        fh.write(rows.tobytes().translate(None, b"\0"))


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write ``kind,x,y`` rows: kind L/U, x empty on U rows, y at 17
    significant digits, LF line endings.

    Each row is its prefix, ``L,<x>,`` with the label printed by ``%d``,
    or ``U,,``, then the bytes of ``"%.17g" % y`` (``-0`` included).  The
    labeled part is written first, then the unlabeled part
    (:func:`_write_part`).  The value bytes come from the numpy kernel of
    the module docstring, a chunk of rows at a time.  A part whose values
    are all integers (:attr:`Dataset.labeled_table`,
    :attr:`Dataset.unlabeled_table`) has each distinct value formatted
    once, and its rows gathered from those texts; :func:`formatted_rows`
    counts the values formatted.
    """
    with open(path, "wb") as fh:
        fh.write(b"kind,x,y\n")
        _write_part(fh, dataset.labeled_y, dataset.labeled_table,
                    dataset.labeled_x)
        _write_part(fh, dataset.unlabeled_y, dataset.unlabeled_table)


def _bad_line(lineno: int, line: str) -> ConfigError:
    return ConfigError(
        f"dataset line {lineno}: expected 'L,<label>,<y>' or 'U,,<y>', "
        f"got {line!r}", field="dataset")


def _line_count(fh) -> int | None:
    """The number of lines from the position of binary file ``fh`` (a line
    start) to its end, or None when one of them is blank or holds a byte
    that no row of the writer holds.  Reads a MiB at a time, so the text is
    never held whole."""
    count, last = 0, b"\n"
    for chunk in iter(partial(fh.read, 1 << 20), b""):
        if (b"\n\n" in chunk or last == chunk[:1] == b"\n"
                or chunk.translate(None, _ROW_BYTES)):
            return None
        count += chunk.count(b"\n")
        last = chunk[-1:]
    return count + (last != b"\n")


def _body_lines(path) -> list[str]:
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        lines = fh.read().split("\n")[1:]
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _unparsed(line: str) -> bool:
    """Whether ``np.loadtxt`` would skip ``line`` or parse it leniently: a
    blank line, or one with a byte outside ``_ROW_BYTES``."""
    return not line or bool(line.encode().translate(None, _ROW_BYTES))


def _parse(source, **kwargs) -> np.ndarray:
    return np.loadtxt(source, dtype=_ROW, delimiter=",", comments=None,
                      ndmin=1, encoding="utf-8", **kwargs)


def _labels(rows: np.ndarray) -> np.ndarray:
    """The int64 labels of the L rows of ``rows``.  Raises ``ValueError``
    when a row breaks the kind/label rule: a kind other than L or U, a
    label on a U row, or an L label that is no int64 decimal."""
    kind, x = rows["k"], rows["x"]
    labeled = kind == b"L"
    # Labels repeat: parse each distinct string once.
    uniq, inverse = np.unique(x[labeled], return_inverse=True)
    values = [int(s) if _LABEL.fullmatch(s) and int(s) in _INT64 else None
              for s in uniq.tolist()]
    if None in values or not np.all(labeled | ((kind == b"U") & (x == b""))):
        raise ValueError("a row breaks the kind/label rule")
    return np.array(values, dtype=np.int64)[inverse]


def _good(lines: list[str]) -> bool:
    """Whether ``lines`` parse and keep the kind/label rule."""
    try:
        _labels(_parse(lines))
    except ValueError:
        return False
    return True


def _first_bad_line(path) -> ConfigError:
    """The error naming the first row of ``path`` that is blank, holds a
    byte outside ``_ROW_BYTES``, does not parse (a wrong field count or a
    ``y`` that is no float) or breaks the kind/label rule of
    :func:`_labels`; ``path`` must hold one."""
    lines = _body_lines(path)
    # Bisect: lines[:lo] are good, and the first bad line is at an index in
    # [lo, hi], the first blank line or line with a stray byte at the
    # latest.
    lo = 0
    hi = next((i for i, line in enumerate(lines) if _unparsed(line)),
              len(lines))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _good(lines[lo:mid]):
            lo = mid
        else:
            hi = mid - 1
    return _bad_line(lo + 2, lines[lo])


def load_dataset_csv(path) -> Dataset:
    """Read a ``dataset.csv`` written by :func:`save_dataset_csv`.

    Each row must be ``L,<label>,<y>`` with an int64 decimal label, or
    ``U,,<y>``, where ``y`` is a float.  A bad header, or any other row
    (a blank line, a missing or extra field, an empty, fractional or
    out-of-range label, a label on a ``U`` row, a ``y`` that is no float,
    whitespace, a NUL or a non-ASCII character anywhere in the row),
    raises :class:`ConfigError` with ``field="dataset"`` and the 1-based
    number of the first such line.  Negative labels and non-finite ``y``
    pass the parse and are refused by :class:`Dataset`
    (:class:`DomainError`).
    """
    with open(path, "rb") as fh:
        header = fh.readline().removesuffix(b"\n")
        if header != b"kind,x,y":
            raise ConfigError(
                f"unexpected dataset header {header.decode(errors='replace')!r}",
                field="dataset")
        n_lines = _line_count(fh)
    if n_lines is None:  # a blank line or a stray byte (``_line_count``)
        raise _first_bad_line(path)
    # max_rows lets np.loadtxt allocate the records once, at their final
    # size.
    try:
        rows = (_parse(path, skiprows=1, max_rows=n_lines) if n_lines
                else np.empty(0, _ROW))
        labels = _labels(rows)
    except ValueError:
        raise _first_bad_line(path) from None
    labeled = rows["k"] == b"L"  # every other row is a U row
    return Dataset(labels, rows["y"][labeled], rows["y"][~labeled])
