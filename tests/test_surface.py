"""The surface a change that only simplifies the code must keep: the names
``ssem`` exports, the CLI's commands, verify targets and options (the
parser ``perfbench/checks.py`` imports), and the config keys each model
kind reads, which README's config table lists.  A name, command, option
or key added or lost fails here."""

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
