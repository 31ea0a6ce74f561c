"""Flat key-value run configuration.

The config format is plain text, one ``key = value`` per line, with dotted
section keys (``model.kind = sym2``) and ``#`` comments.  Values parse as
int, float, true/false, comma-separated lists of those, or bare strings.
The full key list is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def format_config(cfg: dict) -> str:
    """Render a flat config dict back to parseable text."""
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in cfg.items())


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply ``--set key=value`` style overrides to a parsed config."""
    out = dict(cfg)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        out[key.strip()] = _parse_value(value)
    return out


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
        if any(p <= 0.0 for p in pi) or abs(sum(pi) - 1.0) > 1e-12:
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

    def population_model(self) -> PopulationModel:
        return PopulationModel(self.kind, self.theta_star,
                               self.population_gamma(), self.scheme)


def _family(name):
    return BUILTIN_FAMILIES[_choice(*BUILTIN_FAMILIES)(name)]()


def build_run_config(raw: dict) -> RunConfig:
    """Validate the flat dict and build typed objects.

    Every key goes through :func:`_get`, as ``(key, converter, default)``,
    so a bad value raises :class:`ConfigError` naming that key in ``field``.
    """
    get = partial(_get, raw)
    tag = get("model.kind", _choice("gmm", "sym2", "expfam"))
    kind = ModelKind(tag, get("model.family", _family) if tag == "expfam" else None)
    star = get("model.theta_star", lambda v: kind.params(
        v, lambda k: get("model.pi", _weights(k))))
    return RunConfig(
        raw=dict(raw), kind=kind, theta_star=star,
        theta0=get("em.theta0", lambda v: kind.params(v, lambda k: star.pi),
                   raw["model.theta_star"]),
        em=_section(raw, "em", EmConfig, {
            "max_iters": _integer, "tol": float, "record_trajectory": bool}),
        scheme=_section(raw, "quadrature", QuadratureScheme, {
            "abs_tol": float, "range_sigma": float,
            "max_subdivisions": _integer}),
        gamma=get("data.gamma", _unit_interval, 0.0),
        total_samples=get("data.total_samples", _integer, 0),
        seed=get("data.seed", _integer, 0),
        allocation=get("data.allocation", _choice(*ALLOCATIONS), "proportional"),
        out_dir=get("output.directory", str, "."),
        probe_offsets=get("verify.probe_offsets", _as_float_list,
                          (0.2, 0.5, 0.8, 1.2, 1.7, 2.3, 3.0, 4.0)),
        epsilons=get("verify.epsilons", _as_float_list, (0.2, 0.1, 0.05, 0.025)),
        item3_probe_offsets=get("verify.item3_probe_offsets", _as_float_list,
                                (1.01, 2.0, 4.0)),
        theta_star_grid=get("verify.theta_stars", _as_float_list,
                            (0.8, 1.0, 1.5, 2.0, 3.0, 5.0)),
        tail_grid=get("verify.tail_grid", _as_float_list,
                      (1.0, 1.5, 2.0, 3.0, 4.0, 5.0)))


def summary_header(cfg: RunConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": dict(cfg.raw)}
