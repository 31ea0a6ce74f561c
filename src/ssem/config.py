"""Flat key-value run configuration.

The config format is plain text, one ``key = value`` per line, with dotted
section keys (``model.kind = sym2``) and ``#`` comments.  Values parse as
int, float, true/false, comma-separated lists of those, or bare strings.
The full key list is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .em import EmConfig
from .errors import ConfigError
from .model import BUILTIN_FAMILIES, MixtureParams, ModelKind
from .population import PopulationModel, QuadratureScheme
from .sampling import SampleConfig

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
        value = value.strip()
        if "," in value:
            out[key] = [_parse_scalar(tok) for tok in value.split(",") if tok.strip()]
        else:
            out[key] = _parse_scalar(value)
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
        value = value.strip()
        if "," in value:
            out[key.strip()] = [_parse_scalar(t) for t in value.split(",") if t.strip()]
        else:
            out[key.strip()] = _parse_scalar(value)
    return out


def _integer(value) -> int:
    """``value`` as an int, refusing any value an int cannot hold exactly."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


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
        if key not in raw:
            continue
        try:
            kwargs[name] = convert(raw[key])
            factory(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc), field=key) from exc
    return factory(**kwargs)


def _as_float_list(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(value)]


@dataclass
class RunConfig:
    """Validated, structured view over the flat config dict."""

    raw: dict
    kind: ModelKind = None
    theta_star: MixtureParams = None
    gamma: float = 0.0
    total_samples: int = 0
    seed: int = 0
    allocation: str = "proportional"
    theta0: MixtureParams = None
    em: EmConfig = None
    scheme: QuadratureScheme = None
    out_dir: str = "."
    probe_offsets: list = field(default_factory=list)
    epsilons: list = field(default_factory=list)
    item3_probe_offsets: list = field(default_factory=list)
    theta_star_grid: list = field(default_factory=list)
    tail_grid: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return int(round(self.gamma * self.total_samples))

    @property
    def n(self) -> int:
        return self.total_samples - self.m

    def sample_config(self) -> SampleConfig:
        return SampleConfig(seed=self.seed, m=self.m, n=self.n,
                            label_allocation=self.allocation)

    def population_model(self, gamma: float | None = None) -> PopulationModel:
        g = self.gamma if gamma is None else gamma
        return PopulationModel(self.kind, self.theta_star, g, self.scheme)


def build_run_config(raw: dict) -> RunConfig:
    """Validate the flat dict and build typed objects.

    Raises :class:`ConfigError` with the offending dotted key in ``field``.
    """
    cfg = RunConfig(raw=dict(raw))

    def get(key, default=None, required=False):
        if key in raw:
            return raw[key]
        if required:
            raise ConfigError(f"missing required key {key}", field=key)
        return default

    kind_tag = get("model.kind", required=True)
    if kind_tag not in ("gmm", "sym2", "expfam"):
        raise ConfigError(f"model.kind must be gmm|sym2|expfam, got {kind_tag!r}",
                          field="model.kind")
    try:
        if kind_tag == "expfam":
            family = get("model.family", required=True)
            if family not in BUILTIN_FAMILIES:
                raise ConfigError(
                    f"model.family must be one of {sorted(BUILTIN_FAMILIES)}",
                    field="model.family")
            cfg.kind = ModelKind.expfam(BUILTIN_FAMILIES[family]())
        else:
            cfg.kind = ModelKind(kind_tag)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc), field="model.kind") from exc

    theta_raw = get("model.theta_star", required=True)
    try:
        if kind_tag == "sym2":
            cfg.theta_star = MixtureParams.symmetric(float(theta_raw))
        else:
            theta = _as_float_list(theta_raw)
            pi = _as_float_list(get("model.pi", required=True))
            if len(pi) != len(theta):
                raise ConfigError(
                    f"model.pi has {len(pi)} entries but model.theta_star "
                    f"has {len(theta)}", field="model.pi")
            if any(p <= 0.0 for p in pi) or abs(sum(pi) - 1.0) > 1e-12:
                raise ConfigError(
                    f"model.pi must be positive and sum to 1, got {pi}",
                    field="model.pi")
            cfg.theta_star = MixtureParams(pi, theta)
        cfg.kind.check_params(cfg.theta_star)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc), field="model.theta_star") from exc

    cfg.gamma = float(get("data.gamma", 0.0))
    if not 0.0 <= cfg.gamma <= 1.0:
        raise ConfigError(f"data.gamma must lie in [0, 1], got {cfg.gamma}",
                          field="data.gamma")
    cfg.total_samples = int(get("data.total_samples", 0))
    cfg.seed = int(get("data.seed", 0))
    cfg.allocation = get("data.allocation", "proportional")
    if cfg.allocation not in ("proportional", "multinomial"):
        raise ConfigError("data.allocation must be proportional|multinomial",
                          field="data.allocation")

    theta0_raw = get("em.theta0", None)
    try:
        if theta0_raw is None:
            cfg.theta0 = cfg.theta_star
        elif kind_tag == "sym2":
            cfg.theta0 = MixtureParams.symmetric(float(theta0_raw))
        else:
            cfg.theta0 = MixtureParams(cfg.theta_star.pi,
                                       _as_float_list(theta0_raw))
        cfg.kind.check_params(cfg.theta0)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc), field="em.theta0") from exc

    cfg.em = _section(raw, "em", EmConfig, {
        "max_iters": _integer, "tol": float, "record_trajectory": bool})
    cfg.scheme = _section(raw, "quadrature", QuadratureScheme, {
        "abs_tol": float, "range_sigma": float, "max_subdivisions": _integer})

    cfg.out_dir = str(get("output.directory", "."))
    cfg.probe_offsets = _as_float_list(
        get("verify.probe_offsets", [0.2, 0.5, 0.8, 1.2, 1.7, 2.3, 3.0, 4.0]))
    cfg.epsilons = _as_float_list(get("verify.epsilons", [0.2, 0.1, 0.05, 0.025]))
    cfg.item3_probe_offsets = _as_float_list(
        get("verify.item3_probe_offsets", [1.01, 2.0, 4.0]))
    cfg.theta_star_grid = _as_float_list(
        get("verify.theta_stars", [0.8, 1.0, 1.5, 2.0, 3.0, 5.0]))
    cfg.tail_grid = _as_float_list(
        get("verify.tail_grid", [1.0, 1.5, 2.0, 3.0, 4.0, 5.0]))

    return cfg


def probe_grid(cfg: RunConfig) -> list[MixtureParams]:
    """Probe parameters: the configured offsets added to the ground truth
    (scalar offsets for sym2, vector shifts otherwise)."""
    probes = []
    for off in cfg.probe_offsets:
        if cfg.kind.tag == "sym2":
            probes.append(
                MixtureParams.symmetric(cfg.theta_star.sym2_scalar() + off))
        else:
            probes.append(MixtureParams(cfg.theta_star.pi,
                                        cfg.theta_star.theta + off))
    return probes


def summary_header(cfg: RunConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": dict(cfg.raw)}
