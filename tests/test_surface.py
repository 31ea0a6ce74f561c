"""The surface a change that only simplifies the code must keep: the names
``ssem`` exports and the parameters of each callable one, the CLI's
commands, verify targets and options (the parser ``perfbench/checks.py``
imports), and the config keys each model kind reads, which README's config
table lists.  A name, parameter, default, command, option or key added or
lost fails here."""

import inspect
import re
import types
from pathlib import Path

import pytest

import ssem
import ssem.config as config
from ssem import cli
from ssem.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = frozenset("""
    BUILTIN_FAMILIES ConfigError ContractionReport Dataset
    DegenerateDenominator DomainError EmConfig EmptyComponent ExpFamilySpec
    MeanOutOfRange MixtureParams ModelKind NoConvergence NotExpFam
    NumericOverflow PopulationModel PopulationStep ProbeOutsideRegime
    ProbeTooCloseToFixedPoint QuadratureFailure QuadratureScheme
    RateBoundReport RescueReport SampleConfig SsemError Support Trajectory
    TrajectoryTooShort beta_theoretical c_theta component_log_density
    contraction_ratio demonstrate_rescue dm0_dtheta_sym2 empirical_rate
    expect exponential_spec gaussian_spec gaussian_tail_sandwich
    invert_alpha_prime load_dataset_csv m_step_expfam m_step_gmm m_step_sym2
    marginal_log_density poisson_spec pop_m0 pop_m_gamma q_value
    rate_bound_item1 rate_bound_item2 rate_bound_item3 responsibility run_em
    run_population_em sample_dataset save_dataset_csv theta_star_from_labels
    verify_theorem1 verify_theorem2
""".split())
_SCHEME = ("QuadratureScheme(abs_tol=1e-10, range_sigma=12.0, "
           "max_subdivisions=65536)")
# The parameters of each callable export, as a ``def`` line spells them
# without annotations; None for an error class that takes the arguments of
# ``Exception``.
SIGNATURES = {
    "ConfigError": "(message, field='')",
    "ContractionReport": "(gamma, theta_star, pi, probes, results=<factory>)",
    "Dataset": "(labeled_x, labeled_y, unlabeled_y)",
    "DegenerateDenominator": None,
    "DomainError": None,
    "EmConfig": "(max_iters=100, tol=1e-10, record_trajectory=True)",
    "EmptyComponent": None,
    "ExpFamilySpec": (
        "(name, t, log_carrier, alpha, alpha_prime, alpha_second, "
        "natural_domain=(-inf, inf), support=Support(kind='real', lo=-inf, "
        "hi=inf), quantile=None, alpha_prime_inv=None)"),
    "MeanOutOfRange": None,
    "MixtureParams": "(pi, theta)",
    "ModelKind": "(tag, spec=None)",
    "NoConvergence": None,
    "NotExpFam": None,
    "NumericOverflow": None,
    "PopulationModel": f"(kind, theta_star, gamma, scheme={_SCHEME})",
    "PopulationStep": "(pm, theta, e_q, e_qt)",
    "ProbeOutsideRegime": None,
    "ProbeTooCloseToFixedPoint": None,
    "QuadratureFailure": None,
    "QuadratureScheme": "(abs_tol=1e-10, range_sigma=12.0, max_subdivisions=65536)",
    "RateBoundReport": (
        "(item, theta_star, gamma, bound_value, applicable, measured_kappa, "
        "passed, extras=<factory>)"),
    "RescueReport": (
        "(kind, theta_star, kappa_measured, kappa_component, kappa_probe, "
        "c_at_kappa, gamma_min, rescue_needed, status, gammas=<factory>, "
        "trajectory_errors=<factory>, step_ratios=<factory>, "
        "ratio_bounds=<factory>, ratio_ok=<factory>)"),
    "SampleConfig": "(seed, m, n, label_allocation='proportional')",
    "SsemError": None,
    "Support": "(kind, lo=-inf, hi=inf)",
    "Trajectory": "(iterates=<factory>, q_values=<factory>, errors=<factory>, "
                  "converged=False)",
    "TrajectoryTooShort": None,
    "beta_theoretical": "(c, pi_k, gamma)",
    "c_theta": "(pm, theta, k)",
    "component_log_density": "(kind, k, params, y)",
    "contraction_ratio": "(pm, theta_probe, k)",
    "demonstrate_rescue": "(pm, probe_offsets=None)",
    "dm0_dtheta_sym2": "(pm, theta)",
    "empirical_rate": "(traj, theta_star)",
    "expect": "(pm, f)",
    "exponential_spec": "()",
    "gaussian_spec": "()",
    "gaussian_tail_sandwich": "(t)",
    "invert_alpha_prime": "(spec, target, x0=None)",
    "load_dataset_csv": "(path)",
    "m_step_expfam": "(spec, data, theta_t)",
    "m_step_gmm": "(data, theta_t)",
    "m_step_sym2": "(data, theta_t)",
    "marginal_log_density": "(kind, params, y)",
    "poisson_spec": "()",
    "pop_m0": "(pm, theta, k)",
    "pop_m_gamma": "(pm, theta, k)",
    "q_value": "(kind, data, theta, theta_t)",
    "rate_bound_item1": f"(theta_star, gamma, scheme={_SCHEME})",
    "rate_bound_item2": f"(theta_star, gamma, scheme={_SCHEME})",
    "rate_bound_item3": f"(theta_star, gamma, theta_probe, scheme={_SCHEME})",
    "responsibility": "(kind, params, y, k)",
    "run_em": "(kind, data, theta0, cfg, theta_star=None)",
    "run_population_em": "(pm, theta0, max_iters=200, tol=1e-13)",
    "sample_dataset": "(kind, theta_star, cfg)",
    "save_dataset_csv": "(dataset, path)",
    "theta_star_from_labels": "(pm, k)",
    "verify_theorem1": "(pm, probe_grid)",
    "verify_theorem2": "(pm, epsilons)",
}
COMMANDS = ("simulate", "population", "sample", "verify")
# In the order ``verify all`` runs them.
TARGETS = ["thm1", "thm2", "thm3-1", "thm3-2", "thm3-3", "lemma3", "rescue"]
KINDS = {"gmm": "gmm3.cfg", "sym2": "sym2.cfg", "expfam": "poisson2.cfg"}
CONFIG_KEYS = frozenset("""
    model.kind model.theta_star model.pi model.family data.gamma
    data.total_samples data.seed data.allocation em.theta0 em.max_iters
    em.tol em.record_trajectory quadrature.abs_tol quadrature.range_sigma
    quadrature.max_subdivisions verify.probe_offsets verify.epsilons
    verify.theta_stars verify.item3_probe_offsets verify.tail_grid
    output.directory
""".split())


def test_package_exports():
    public = {name for name, value in vars(ssem).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS


def parameters(obj) -> str | None:
    """The parameters of ``obj`` with their defaults and no annotations, or
    None when it has no signature of its own."""
    try:
        sig = inspect.signature(obj)
    except ValueError:  # an exception class with BaseException's __init__
        return None
    return str(sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty))


def test_exported_signatures():
    exported = {name: parameters(getattr(ssem, name)) for name in EXPORTS
                if callable(getattr(ssem, name))}
    assert exported == SIGNATURES


def test_commands_and_verify_targets():
    assert cli.COMMANDS == COMMANDS
    assert list(cli.VERIFIERS) == TARGETS


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_options(command):
    # Every option each command takes, with its default: an added option
    # adds a key.
    head = [command, "thm1"] if command == "verify" else [command]
    args = vars(build_parser().parse_args(head + ["--config", "c.cfg"]))
    want = {"command": command, "config": "c.cfg", "out": None,
            "seed": None, "assignments": []}
    if command == "verify":
        want["which"] = "thm1"
    assert args == want
    args = build_parser().parse_args(head + [
        "--config", "c", "--out", "o", "--seed", "3", "--set", "a=1",
        "--set", "b=2"])
    assert (args.out, args.seed, args.assignments) == ("o", 3, ["a=1", "b=2"])


@pytest.mark.parametrize("which", [*TARGETS, "all"])
def test_verify_accepts_each_target(which):
    args = build_parser().parse_args(["verify", which, "--config", "c"])
    assert args.which == which


def test_verify_refuses_an_unknown_target(capsys):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["verify", "thm4", "--config", "c"])
    assert err.value.code == 2
    capsys.readouterr()


def readme_config_table() -> dict[str, set[str]]:
    """README's config table: each key and the model kinds that read it,
    from its default column ("required for gmm/expfam" names them; any
    other default means every kind)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Config format", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        keys = re.findall(r"`([a-z_]+\.[a-z_0-9]+)`", cells[0])
        if not line.startswith("| `") or not keys:
            continue
        only = re.fullmatch(r"required for ([a-z0-9/]+)", cells[-1])
        kinds = set(only.group(1).split("/")) if only else set(KINDS)
        for key in keys:
            table[key] = kinds
    return table


@pytest.mark.parametrize("kind", KINDS)
def test_config_keys_match_readme(kind, monkeypatch):
    # ``build_run_config`` tests every key it reads, present or not, so
    # the keys it tests are the keys of the kind.
    consulted = []

    class Recording(config._Consulted):
        def __init__(self, raw):
            super().__init__(raw)
            consulted.append(self)

    monkeypatch.setattr(config, "_Consulted", Recording)
    raw = config.load_config_file(ROOT / "perfbench" / "configs" / KINDS[kind])
    cfg = config.build_run_config(raw)
    assert cfg.kind.tag == kind
    table = readme_config_table()
    assert set(table) == CONFIG_KEYS
    assert consulted[0].keys_read == {
        key for key, kinds in table.items() if kind in kinds}
