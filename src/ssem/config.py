"""Flat key-value run configuration.

The config format is plain text, one ``key = value`` per line, with dotted
section keys (``model.kind = sym2``) and ``#`` comments.  Values parse as
int, float, true/false, comma-separated lists of those, or bare strings.
The full key list is documented in the README.

A verify grid the verifiers could not use is refused here, naming its key,
before any integral, by the predicates of :mod:`ssem.analysis` that the
verifiers apply themselves: every command checks the item-3 probes
(``_item3_regime``); Theorem 2 checks its radii (``_usable_radius``, in
:meth:`RunConfig.theorem2_radii`) and the rescue its probe offsets
(``_in_domain``) only when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from . import analysis
from .em import EmConfig
from .errors import ConfigError
from .model import BUILTIN_FAMILIES, MixtureParams, ModelKind
from .population import PopulationModel, QuadratureScheme
from .sampling import ALLOCATIONS, SampleConfig

SCHEMA_VERSION = "1"


def _parse_scalar(token: str):
    token = token.strip()
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(value: str):
    """A scalar, or a list when ``value`` holds a comma."""
    value = value.strip()
    if "," in value:
        return [_parse_scalar(tok) for tok in value.split(",") if tok.strip()]
    return _parse_scalar(value)


def parse_config_text(text: str) -> dict:
    """Parse config text into an ordered flat dict of typed values."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = _parse_value(value)
    return out


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply ``--set key=value`` style overrides to a parsed config."""
    out = dict(cfg)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        out[key.strip()] = _parse_value(value)
    return out


class _Consulted(dict):
    """The raw config, recording in ``keys_read`` every key tested for
    membership.  :func:`_get` and :func:`_section` test each key they
    consult, so a key left out of ``keys_read`` is one no converter read."""

    def __init__(self, raw: dict):
        super().__init__(raw)
        self.keys_read: set = set()

    def __contains__(self, key):
        self.keys_read.add(key)
        return super().__contains__(key)


def _get(raw: dict, key: str, convert, default=...):
    """``convert(raw[key])``, or ``convert(default)`` when the key is absent
    (a required key when ``default`` is left at ``...``).

    The one place a config value is converted: a ``TypeError`` or
    ``ValueError`` becomes a :class:`ConfigError` naming ``key``, while a
    :class:`ConfigError` from a nested key passes through.
    """
    if key not in raw and default is ...:
        raise ConfigError(f"missing required key {key}", field=key)
    try:
        return convert(raw.get(key, default))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field=key) from exc


def _integer(value) -> int:
    """``value`` as an int, refusing any value an int cannot hold exactly."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _sample_count(value) -> int:
    """``value`` as an int below 2^63, the most samples numpy can index."""
    value = _integer(value)
    if value >= 2 ** 63:
        raise ValueError(f"must be below 2^63, got {value!r}")
    return value


def _boolean(value) -> bool:
    """``value``, if it was written ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _text(value) -> str:
    """``value``, if the config parser left it text: not a number, a
    boolean or a list."""
    if not isinstance(value, str):
        raise ValueError(f"must be text, got {value!r}")
    return value


def _choice(*options):
    def convert(value):
        if value not in options:
            raise ValueError(f"must be one of {'|'.join(options)}, got {value!r}")
        return value
    return convert


def _unit_interval(value) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {value}")
    return value


def _weights(k: int):
    """Converter for ``k`` positive mixture weights summing to 1."""
    def convert(value):
        pi = _as_float_list(value)
        if len(pi) != k:
            raise ValueError(f"model.pi has {len(pi)} entries but "
                             f"model.theta_star has {k}")
        # Written so that a NaN weight fails.
        if not (all(p > 0.0 for p in pi) and abs(sum(pi) - 1.0) <= 1e-12):
            raise ValueError(f"model.pi must be positive and sum to 1, got {pi}")
        return pi
    return convert


def _section(raw: dict, prefix: str, factory, converters: dict):
    """Build ``factory(**kwargs)`` from the ``<prefix>.<name>`` keys present
    in ``raw``, the rest left at the factory's defaults.

    The factory is re-validated after each key is added, so a value that
    fails its converter or the factory's own checks is reported under its
    own key.  This relies on the factory checking each field on its own.
    """
    kwargs = {}
    for name, convert in converters.items():
        key = f"{prefix}.{name}"
        if key in raw:
            kwargs[name] = _get(raw, key, convert)
            _get(raw, key, lambda _: factory(**kwargs))
    return factory(**kwargs)


def _as_float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(value)]


def _grid(rule: str, ok):
    """Converter for a non-empty list of floats each of which passes
    ``ok``; ``rule`` states the constraint in the error.  An empty grid is
    refused: its target would pass with no checks."""
    def convert(value):
        values = _as_float_list(value)
        if not values:
            raise ValueError("the grid must not be empty")
        for v in values:
            if not ok(v):
                raise ValueError(f"each value must be {rule}, got {v}")
        return values
    return convert


def _radii(value) -> list[float]:
    """Converter for ``verify.epsilons``: two or more finite radii > 0.
    How many of them Theorem 2 can use is :meth:`RunConfig.theorem2_radii`."""
    radii = _grid("finite and > 0", lambda v: 0.0 < v < math.inf)(value)
    if len(radii) < 2:
        raise ValueError(f"at least two radii are needed, got {radii}")
    return radii


@dataclass
class RunConfig:
    """Validated, structured view over the flat config dict."""

    raw: dict
    kind: ModelKind
    theta_star: MixtureParams
    theta0: MixtureParams
    em: EmConfig
    scheme: QuadratureScheme
    gamma: float
    total_samples: int
    seed: int
    allocation: str
    out_dir: str
    probe_offsets: list[float]
    epsilons: list[float]
    item3_probe_offsets: list[float]
    theta_star_grid: list[float]
    tail_grid: list[float]

    @property
    def m(self) -> int:
        return int(round(self.gamma * self.total_samples))

    @property
    def n(self) -> int:
        return self.total_samples - self.m

    def sample_config(self) -> SampleConfig:
        return SampleConfig(seed=self.seed, m=self.m, n=self.n,
                            label_allocation=self.allocation)

    def population_gamma(self) -> float:
        """``data.gamma`` for the population operators and rate bounds.

        They need unlabeled data, so gamma = 1 (valid for ``sample`` and
        ``simulate``) is a configuration error here.
        """
        if self.gamma >= 1.0:
            raise ConfigError(
                "data.gamma = 1 leaves no unlabeled data; population EM and "
                "the verify targets need gamma < 1", field="data.gamma")
        return self.gamma

    def theorem2_radii(self) -> list[float]:
        """``verify.epsilons`` for Theorem 2, which fits its Taylor slope to
        the radii it can use (:func:`ssem.analysis._usable_radius`): beyond
        the fixed-point guard ``100 * quadrature.abs_tol``, with both probes
        ``theta* +- eps`` in the natural domain.  With fewer than two the
        series passes with nothing measured, so that is a configuration
        error here, raised before any integral."""
        pm = self.population_model()
        if sum(analysis._usable_radius(pm, eps) for eps in self.epsilons) < 2:
            raise ConfigError(
                f"at least two radii must exceed the fixed-point guard "
                f"{analysis.fixed_point_guard(self.scheme):g} (set by "
                f"quadrature.abs_tol) with both probes theta* +- eps in the "
                f"natural domain, got {self.epsilons}", field="verify.epsilons")
        return self.epsilons

    def _rescue_offsets(self) -> list[float]:
        """``verify.probe_offsets`` for the rescue, which needs a probe
        ``theta* + offset`` in the natural domain
        (:func:`ssem.analysis._in_domain`); with none, that is a
        configuration error here, raised before any integral.  Only the
        rescue applies this rule."""
        pm = self.population_model()
        if not any(analysis._in_domain(pm, off) for off in self.probe_offsets):
            raise ConfigError(
                f"no probe theta* + offset lies in the natural domain, for "
                f"offsets {self.probe_offsets}", field="verify.probe_offsets")
        return self.probe_offsets

    def population_model(self) -> PopulationModel:
        return PopulationModel(self.kind, self.theta_star,
                               self.population_gamma(), self.scheme)


def _family(name):
    return BUILTIN_FAMILIES[_choice(*BUILTIN_FAMILIES)(name)]()


def build_run_config(raw: dict) -> RunConfig:
    """Validate the flat dict and build typed objects.

    Every key goes through :func:`_get`, as ``(key, converter, default)``,
    so a bad value raises :class:`ConfigError` naming that key in ``field``.
    A key that none of them reads (a typo, or a key of another model kind,
    such as ``model.pi`` on ``sym2``) raises :class:`ConfigError` too.
    """
    raw = _Consulted(raw)
    get = partial(_get, raw)
    tag = get("model.kind", _choice("gmm", "sym2", "expfam"))
    kind = ModelKind(tag, get("model.family", _family) if tag == "expfam" else None)

    def truth(value):
        star = kind.params(value, lambda k: get("model.pi", _weights(k)))
        kind.check_truth(star)
        return star

    star = get("model.theta_star", truth)
    stars = get("verify.theta_stars",
                _grid("finite and > 0, with a nonzero square",
                      lambda v: 0.0 < v < math.inf and v * v > 0.0),
                (0.8, 1.0, 1.5, 2.0, 3.0, 5.0))
    cfg = RunConfig(
        raw=dict(raw), kind=kind, theta_star=star,
        theta0=get("em.theta0", lambda v: kind.params(v, lambda k: star.pi),
                   raw["model.theta_star"]),
        em=_section(raw, "em", EmConfig, {
            "max_iters": _integer, "tol": float,
            "record_trajectory": _boolean}),
        scheme=_section(raw, "quadrature", QuadratureScheme, {
            "abs_tol": float, "range_sigma": float,
            "max_subdivisions": _integer}),
        gamma=get("data.gamma", _unit_interval, 0.0),
        total_samples=get("data.total_samples", _sample_count, 0),
        seed=get("data.seed", _integer, 0),
        allocation=get("data.allocation", _choice(*ALLOCATIONS), "proportional"),
        out_dir=get("output.directory", _text, "."),
        probe_offsets=get("verify.probe_offsets",
                          _grid("finite", math.isfinite),
                          analysis.PROBE_OFFSETS),
        epsilons=get("verify.epsilons", _radii, (0.2, 0.1, 0.05, 0.025)),
        # The probes theta* + offset of rate_bound_item3, for every theta*.
        item3_probe_offsets=get(
            "verify.item3_probe_offsets",
            _grid("finite, with theta* + offset > theta* + 1 in floats",
                  lambda v: v < math.inf and all(
                      analysis._item3_regime(s, s + v) for s in stars)),
            (1.01, 2.0, 4.0)),
        theta_star_grid=stars,
        tail_grid=get("verify.tail_grid",
                      _grid("> 0 with phi(t) a normal float (t <= 37.6)",
                            analysis.tail_sandwich_defined),
                      (1.0, 1.5, 2.0, 3.0, 4.0, 5.0)))
    for key in raw:
        if key not in raw.keys_read:
            raise ConfigError(f"unknown key {key} (no {tag} run reads it)",
                              field=key)
    return cfg


def _echo(value):
    """A config value as JSON can spell it: a non-finite number is None."""
    if isinstance(value, list):
        return [_echo(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def summary_header(cfg: RunConfig) -> dict:
    """The opening keys of every artifact: the schema version and the
    resolved config, each number with no JSON spelling echoed as null."""
    return {"schema_version": SCHEMA_VERSION,
            "config": {key: _echo(value) for key, value in cfg.raw.items()}}
