"""End-to-end command, config, and artifact checks."""

import csv
import errno
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import ssem
from ssem import cli, population
from ssem.cli import build_parser, main
from ssem.config import (
    apply_overrides,
    build_run_config,
    load_config_file,
    parse_config_text,
)
from ssem.errors import ConfigError

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
# The targets ``verify all`` runs on each config's model kind, in order;
# every other target refuses it.
KIND_TARGETS = {
    "gmm3.cfg": ["thm1", "lemma3", "rescue"],
    "sym2.cfg": ["thm1", "thm3-1", "thm3-2", "thm3-3", "lemma3", "rescue"],
    "poisson2.cfg": ["thm2", "lemma3", "rescue"],
}

SYM2_CFG = """
# symmetric pair run
model.kind = sym2
model.theta_star = 1.5
data.gamma = 0
data.total_samples = 100000
data.seed = 7
em.theta0 = 3.0
em.max_iters = 60
em.tol = 1e-8
"""

GMM_CFG = """
model.kind = gmm
model.pi = 0.3, 0.7
model.theta_star = -1.0, 2.0
data.gamma = 0.2
data.total_samples = 2000
data.seed = 11
em.theta0 = -0.5, 1.5
"""

# One labeled sample cannot support two components: EM fails at iteration 0.
EMPTY_COMPONENT_CFG = """
model.kind = gmm
model.pi = 0.5, 0.5
model.theta_star = -1.0, 1.0
data.gamma = 1
data.total_samples = 1
data.seed = 1
em.theta0 = 0.0, 0.5
"""


SYM2_POP = "model.kind = sym2\nmodel.theta_star = 1.5\n"
POISSON_POP = ("model.kind = expfam\nmodel.family = poisson\n"
               "model.theta_star = 0.5, 2.0\nmodel.pi = 0.5, 0.5\n")
GMM3_POP = ("model.kind = gmm\nmodel.theta_star = -3, 0, 3\n"
            "model.pi = 0.3, 0.4, 0.3\n")


SIMULATE_PHASES = ["sample", "write_dataset", "em", "write_trajectory"]
# ``cli._FORK_WRITE_ROWS`` values that put simulate's dataset writer in this
# process or in a child, whatever the dataset size.
INLINE, CHILD = sys.maxsize, 0


def force_writer(monkeypatch, fork_rows):
    if fork_rows is not None:
        monkeypatch.setattr(cli, "_FORK_WRITE_ROWS", fork_rows)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def config_text(raw):
    """Config text for a flat dict of the values the parser returns."""
    def text(value):
        return ", ".join(map(str, value)) if isinstance(value, list) else value
    return "".join(f"{key} = {text(value)}\n" for key, value in raw.items())


class TestConfigParsing:
    def test_types_and_comments(self):
        cfg = parse_config_text(
            "a.b = 3\nc = 1.5\nd = true\ne = x, 2, 2.5 # trailing\nf = name\n")
        assert cfg == {"a.b": 3, "c": 1.5, "d": True,
                       "e": ["x", 2, 2.5], "f": "name"}

    def test_overrides(self):
        raw = apply_overrides({"a": 1}, ["a=2", "b.c=0.5, 0.5"])
        assert raw == {"a": 2, "b.c": [0.5, 0.5]}

    def test_missing_kind(self):
        with pytest.raises(ConfigError) as err:
            build_run_config({})
        assert err.value.field == "model.kind"

    def test_missing_weights_field_path(self):
        raw = parse_config_text(GMM_CFG)
        del raw["model.pi"]
        with pytest.raises(ConfigError) as err:
            build_run_config(raw)
        assert err.value.field == "model.pi"

    def test_bad_weights_field_path(self):
        raw = parse_config_text(GMM_CFG)
        raw["model.pi"] = [0.5, 0.4]
        with pytest.raises(ConfigError) as err:
            build_run_config(raw)
        assert err.value.field == "model.pi"


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, GMM_CFG + "model.pi = 0.5, 0.4\n")
        rc = main(["simulate", "--config", bad, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "model.pi"

    @pytest.mark.parametrize("line, field", [
        ("em.max_iters = 1.5", "em.max_iters"),
        ("em.tol = 0", "em.tol"),
        ("quadrature.range_sigma = 4", "quadrature.range_sigma"),
        ("data.gamma = abc", "data.gamma"),
        ("data.total_samples = abc", "data.total_samples"),
        ("data.seed = abc", "data.seed"),
        ("verify.probe_offsets = abc", "verify.probe_offsets"),
        ("verify.epsilons = abc", "verify.epsilons"),
        ("verify.item3_probe_offsets = abc", "verify.item3_probe_offsets"),
        ("verify.theta_stars = abc", "verify.theta_stars"),
        ("verify.tail_grid = abc", "verify.tail_grid"),
        # Grid values the verifiers cannot use are refused up front, not by
        # a numeric failure (or a ZeroDivisionError) in the target.
        ("verify.theta_stars = 0", "verify.theta_stars"),
        ("verify.theta_stars = 1e-200", "verify.theta_stars"),  # square is 0
        ("verify.theta_stars = -1", "verify.theta_stars"),
        ("verify.theta_stars = 1, inf", "verify.theta_stars"),
        ("verify.theta_stars = nan", "verify.theta_stars"),
        ("verify.tail_grid = 0", "verify.tail_grid"),
        ("verify.tail_grid = 1, nan", "verify.tail_grid"),
        ("verify.tail_grid = inf", "verify.tail_grid"),
        ("verify.item3_probe_offsets = 0.5", "verify.item3_probe_offsets"),
        ("verify.item3_probe_offsets = 1", "verify.item3_probe_offsets"),
        ("verify.item3_probe_offsets = 2, inf", "verify.item3_probe_offsets"),
        ("verify.probe_offsets = nan", "verify.probe_offsets"),
        ("verify.probe_offsets = 0.5, -inf", "verify.probe_offsets"),
        ("data.total_samples = 1.5", "data.total_samples"),
        ("data.seed = 1.5", "data.seed"),
        ("model.pi = 1", "model.pi"),
        ("model.pi = a, b", "model.pi"),
        ("em.max_iter = 2", "em.max_iter"),
        ("model.family = poisson", "model.family"),
        # An empty grid would pass vacuously: zero checks, exit 0.
        ("verify.probe_offsets = ,", "verify.probe_offsets"),
        ("verify.epsilons = ,", "verify.epsilons"),
        ("verify.item3_probe_offsets = ,", "verify.item3_probe_offsets"),
        ("verify.theta_stars = ,", "verify.theta_stars"),
        ("verify.tail_grid = ,", "verify.tail_grid"),
        # A Theorem-2 radius is a distance from the truth.
        ("verify.epsilons = nan", "verify.epsilons"),
        ("verify.epsilons = -0.1, 0", "verify.epsilons"),
        ("verify.epsilons = 0", "verify.epsilons"),
        ("verify.epsilons = 0.1, inf", "verify.epsilons"),
        # 5 + 1.0000000000000002 rounds to 6.0 = theta* + 1.
        ("verify.theta_stars = 5\nverify.item3_probe_offsets = 1.0000000000000002",
         "verify.item3_probe_offsets"),
    ])
    def test_config_error_names_field(self, tmp_path, capsys, line, field):
        bad = write_cfg(tmp_path, GMM_CFG + line + "\n")
        rc = main(["simulate", "--config", bad, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == field

    def test_key_of_another_kind_is_config_error(self, tmp_path, capsys):
        # sym2 is one scalar with fixed equal weights: it reads no model.pi.
        bad = write_cfg(tmp_path, SYM2_CFG + "model.pi = 0.5, 0.5\n")
        rc = main(["population", "--config", bad, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "model.pi"

    @pytest.mark.parametrize("command", [
        ["sample"], ["simulate"], ["population"], ["verify", "thm1"],
        ["verify", "rescue"], ["verify", "all"]])
    def test_negative_sym2_truth_is_config_error(self, tmp_path, capsys,
                                                 command):
        # The pair is labelled by sign: component 1 sits at +theta*, so a
        # negative truth is refused up front, not by a later numeric check.
        bad = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = -1\n"
                        "data.total_samples = 10\n")
        rc = main(command + ["--config", bad, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "model.theta_star"

    def test_negative_sym2_start_is_allowed(self, tmp_path):
        cfg = write_cfg(tmp_path, SYM2_CFG.replace("em.theta0 = 3.0",
                                                   "em.theta0 = -3.0"))
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path),
                   "--set", "data.total_samples=2000"])
        assert rc == 0

    def test_numeric_error_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EMPTY_COMPONENT_CFG)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert err["type"] == "EmptyComponent"
        assert err["iteration"] == 0

    @pytest.mark.parametrize("text, command", [
        (SYM2_POP, ["population"]),
        (SYM2_POP, ["verify", "thm1"]),
        (SYM2_POP, ["verify", "rescue"]),
        (SYM2_POP, ["verify", "thm3-1"]),
        (SYM2_POP, ["verify", "thm3-2"]),
        (SYM2_POP, ["verify", "thm3-3"]),
        (POISSON_POP, ["verify", "thm2"]),
    ], ids=["population", "thm1", "rescue", "thm3-1", "thm3-2", "thm3-3", "thm2"])
    def test_gamma_one_population_is_config_error(self, tmp_path, capsys,
                                                  text, command):
        # gamma = 1 is valid for sampling but not for the population
        # operators or the rate bounds, which need unlabeled data.
        cfg = write_cfg(tmp_path, text + "data.gamma = 1\n")
        rc = main(command + ["--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "data.gamma"

    @pytest.mark.parametrize("command, artifact, fork_rows", [
        (["verify", "lemma3"], "verify_lemma3.json", None),
        (["simulate", "--set", "data.total_samples=200"], "dataset.csv",
         INLINE),
        (["simulate", "--set", "data.total_samples=200"], "dataset.csv",
         CHILD),
    ], ids=["verify", "simulate", "simulate-child"])
    def test_failed_artifact_write_is_config_error(self, tmp_path, capsys,
                                                   monkeypatch, command,
                                                   artifact, fork_rows):
        # The artifact's path is taken by a directory, so the rename fails.
        force_writer(monkeypatch, fork_rows)
        cfg = write_cfg(tmp_path, SYM2_CFG)
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        rc = main(command + ["--config", cfg, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "output.directory"
        assert err["type"] == "IsADirectoryError"
        assert str(out / artifact) in err["message"]
        assert sorted(p.name for p in out.iterdir()) == [artifact]

    @pytest.mark.parametrize("below, error", [
        ("sub", "NotADirectoryError"), ("", "FileExistsError")],
        ids=["under-a-file", "a-file"])
    def test_output_directory_not_creatable_is_config_error(
            self, tmp_path, capsys, below, error):
        # The output directory cannot be made: a file takes its path or the
        # path of its parent.
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / below if below else taken
        rc = main(["verify", "lemma3", "--config", str(CONFIGS / "sym2.cfg"),
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "output.directory"
        assert err["type"] == error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize("value", ["nan", "out, -inf", "1e3", "true", "7"],
                             ids=["nan", "list", "float", "bool", "int"])
    def test_non_text_output_directory_is_config_error(
            self, tmp_path, monkeypatch, capsys, value):
        # The config parser has typed the value; naming a directory after
        # its repr ("nan", "1000.0", "['out', -inf]") would hide the typo.
        monkeypatch.chdir(tmp_path)
        rc = main(["population", "--config", str(CONFIGS / "gmm3.cfg"),
                   "--set", "em.max_iters=3",
                   "--set", f"output.directory={value}"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["type"], err["field"]) == ("ConfigError",
                                               "output.directory")
        assert list(tmp_path.iterdir()) == []

    def test_out_option_is_taken_verbatim(self, tmp_path, monkeypatch):
        # --out is text as given, and replaces the config's value.
        monkeypatch.chdir(tmp_path)
        rc = main(["population", "--config", str(CONFIGS / "gmm3.cfg"),
                   "--set", "em.max_iters=3", "--set", "output.directory=1e3",
                   "--out", "1e3"])
        assert rc == 0
        summary = strict_json(tmp_path / "1e3" / "summary.json")
        assert summary["config"]["output.directory"] == "1e3"

    def test_missing_config_file_has_no_field(self, tmp_path, capsys):
        rc = main(["verify", "lemma3", "--config", str(tmp_path / "no.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "FileNotFoundError"
        assert "field" not in err

    def test_population_step_failure_carries_iteration(self, tmp_path, capsys):
        rc = main(["population", "--config", str(CONFIGS / "gmm3.cfg"),
                   "--out", str(tmp_path),
                   "--set", "quadrature.abs_tol=1e-18",
                   "--set", "quadrature.max_subdivisions=8"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert err["type"] == "QuadratureFailure"
        assert err["iteration"] == 0

    def test_rescue_without_usable_probe_exits_3(self, tmp_path, capsys):
        # Offset 0 puts the only probe on the truth, inside the guard.
        rc = main(["verify", "rescue", "--config", str(CONFIGS / "sym2.cfg"),
                   "--out", str(tmp_path), "--set", "verify.probe_offsets=0"])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert err["type"] == "ProbeTooCloseToFixedPoint"

    def test_violation_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = 1.0\n")
        rc = main(["verify", "thm3-3", "--config", cfg, "--out", str(tmp_path),
                   "--set", "verify.theta_stars=1,2"])
        assert rc == 4
        payload = json.loads((tmp_path / "verify_thm3-3.json").read_text())
        assert payload["pass_all"] is False


class TestOutOfRangeValues:
    """Numbers past float range, or NaN, end in exit 2 naming the key, or
    exit 3, with one JSON object on stderr and no numpy warning."""

    @staticmethod
    def _run(capsys, tmp_path, config, command, *sets):
        args = [f"--set={assignment}" for assignment in sets]
        rc = main(command + ["--config", str(CONFIGS / config),
                             "--out", str(tmp_path), *args])
        err = capsys.readouterr().err
        return rc, (json.loads(err) if err else None)

    @pytest.mark.parametrize("config, command, assignment, field", [
        ("sym2.cfg", ["population"], "quadrature.range_sigma=nan",
         "quadrature.range_sigma"),
        ("gmm3.cfg", ["verify", "thm1"], "quadrature.range_sigma=inf",
         "quadrature.range_sigma"),
        ("poisson2.cfg", ["population"], "quadrature.abs_tol=inf",
         "quadrature.abs_tol"),
        ("poisson2.cfg", ["population"], "model.theta_star=1e308,1",
         "model.theta_star"),
        ("gmm3.cfg", ["simulate"], "data.total_samples=1e308",
         "data.total_samples"),
        ("sym2.cfg", ["simulate"], f"data.total_samples={2 ** 63}",
         "data.total_samples"),
        ("gmm3.cfg", ["population"], "model.pi=nan,nan,nan", "model.pi"),
        ("poisson2.cfg", ["population"], "model.pi=0.5,nan", "model.pi"),
        ("gmm3.cfg", ["simulate"], "model.pi=0.3,nan,0.3", "model.pi"),
        ("sym2.cfg", ["simulate"], "em.record_trajectory=no",
         "em.record_trajectory"),
        ("sym2.cfg", ["simulate"], "em.record_trajectory=nan",
         "em.record_trajectory"),
        ("gmm3.cfg", ["simulate"], "em.record_trajectory=7",
         "em.record_trajectory"),
    ])
    def test_config_error(self, tmp_path, capsys, config, command,
                          assignment, field):
        rc, err = self._run(capsys, tmp_path, config, command,
                            "data.total_samples=300", assignment)
        assert rc == 2
        assert (err["error"], err["field"]) == ("config", field)

    @pytest.mark.parametrize("config, assignment, error", [
        ("sym2.cfg", "quadrature.range_sigma=1e308", "DomainError"),
        ("gmm3.cfg", "quadrature.range_sigma=1e308", "DomainError"),
        ("sym2.cfg", "model.theta_star=1e308", "DomainError"),
        ("gmm3.cfg", "model.theta_star=-1e308,0,1e308", "DomainError"),
        ("gmm3.cfg", "em.theta0=1e308,1,1", "QuadratureFailure"),
        ("sym2.cfg", "em.theta0=-1e308", "QuadratureFailure"),
    ])
    def test_numeric_error(self, tmp_path, capsys, config, assignment, error):
        rc, err = self._run(capsys, tmp_path, config, ["population"],
                            assignment)
        assert rc == 3
        assert (err["error"], err["type"]) == ("numeric", error)

    @pytest.mark.parametrize("truth", ["40,2", "700,2"])
    def test_integer_window_beyond_cap_is_domain_error(self, tmp_path, truth):
        # A Poisson log-mean of 40 beside one of 2 makes a window of about
        # 2.4e17 support points; it must be refused before any array is
        # built.  The child runs
        # under a 1 GiB address-space limit, so a regression fails fast
        # (MemoryError, exit 1) instead of filling the machine.
        src = str(Path(ssem.__file__).resolve().parents[1])
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "sys.path.insert(0, sys.argv[1]); from ssem.cli import main; "
                "sys.exit(main(sys.argv[2:]))")
        out = subprocess.run(
            [sys.executable, "-c", code, src, "population",
             "--config", str(CONFIGS / "poisson2.cfg"), "--out", str(tmp_path),
             "--set", f"model.theta_star={truth}"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 3, out.stderr
        err = json.loads(out.stderr)
        assert (err["error"], err["type"]) == ("numeric", "DomainError")
        assert "points" in err["message"]

    @pytest.mark.parametrize("command", ["sample", "simulate"])
    def test_sample_beyond_cap_is_config_error(self, tmp_path, command):
        # 1e12 samples would need 33 TB of sampler arrays (745 GiB for the
        # first array alone); they must be refused before any array is
        # built.  Under the same 1 GiB address-space limit as above.
        src = str(Path(ssem.__file__).resolve().parents[1])
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "sys.path.insert(0, sys.argv[1]); from ssem.cli import main; "
                "sys.exit(main(sys.argv[2:]))")
        out = subprocess.run(
            [sys.executable, "-c", code, src, command,
             "--config", str(CONFIGS / "gmm3.cfg"), "--out", str(tmp_path),
             "--set", "data.total_samples=1e12"],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 2, out.stderr
        err = json.loads(out.stderr)
        assert (err["error"], err["field"]) == ("config", "data.total_samples")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [["population"], ["verify", "lemma3"]])
    def test_commands_that_do_not_sample_accept_any_size(self, tmp_path,
                                                         capsys, command):
        rc, err = self._run(capsys, tmp_path, "sym2.cfg", command,
                            "data.total_samples=1e12")
        assert (rc, err) == (0, None)

    def test_far_poisson_start_runs_without_warnings(self, tmp_path, capsys):
        rc, err = self._run(capsys, tmp_path, "poisson2.cfg", ["population"],
                            "em.theta0=-1e308,1")
        assert (rc, err) == (0, None)

    @pytest.mark.parametrize("value", [True, False])
    def test_record_trajectory_takes_true_or_false(self, tmp_path, capsys,
                                                   value):
        rc, err = self._run(capsys, tmp_path, "sym2.cfg", ["simulate"],
                            "data.total_samples=300",
                            f"em.record_trajectory={str(value).lower()}")
        assert (rc, err) == (0, None)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            surrogate = [row["q_value"] for row in csv.DictReader(fh)]
        assert any(surrogate) is value


def _refuse(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(path: Path):
    """The JSON document at ``path``, refusing NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_refuse)


class TestStrictJson:
    """A config number with no JSON spelling is echoed as null; any other
    non-finite number is an error, not a silent rewrite."""

    def test_non_finite_config_value_is_written_as_null(self, tmp_path):
        # em.tol = inf is a valid stop rule (one step), but has no JSON
        # spelling; the summary must stay strict JSON.
        rc = main(["population", "--config", str(CONFIGS / "gmm3.cfg"),
                   "--out", str(tmp_path), "--set", "em.tol=inf"])
        assert rc == 0
        summary = strict_json(tmp_path / "summary.json")
        assert summary["config"]["em.tol"] is None
        assert summary["iterations"] == 1

    def test_verify_echoes_non_finite_config_value_as_null(self, tmp_path):
        # verify builds its header as every other command does.
        rc = main(["verify", "lemma3", "--config", str(CONFIGS / "sym2.cfg"),
                   "--out", str(tmp_path), "--set", "em.tol=inf"])
        assert rc == 0
        payload = strict_json(tmp_path / "verify_lemma3.json")
        assert list(payload)[:2] == ["schema_version", "config"]
        assert payload["config"]["em.tol"] is None

    def test_non_finite_result_is_an_error(self, tmp_path):
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError):
            cli._write_json(str(path), {"lhs": math.nan})
        assert list(tmp_path.iterdir()) == []


class TestArgumentParsing:
    """``main`` builds the parser of its one command; it must parse what the
    parser of every command, :func:`build_parser`, parses."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "a.cfg"],
        ["population", "--config", "a.cfg", "--out", "d"],
        ["sample", "--out", "d", "--config", "a.cfg", "--seed", "18446744073709551615"],
        ["simulate", "--config", "a.cfg", "--set", "data.gamma=0.1",
         "--set", "em.tol=1e-9", "--seed", "-3"],
        ["verify", "all", "--config", "a.cfg"],
        ["verify", "--config", "a.cfg", "thm3-3", "--set", "x=1, 2",
         "--out", "d", "--set", "x=3"],
        ["verify", "lemma3", "--conf", "a.cfg", "--seed", "0"],
        ["population", "--config=a.cfg", "--set=a=b"],
    ])
    def test_same_namespace_as_full_parser(self, argv):
        assert cli._parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate", "--config", "a.cfg"],
        ["--config", "a.cfg", "simulate"],
        ["verify", "--config", "a.cfg"],
        ["verify", "thm9", "--config", "a.cfg"],
        ["simulate"],
        ["population", "--out", "d"],
        ["sample", "--config", "a.cfg", "--seed", "1.5"],
        ["simulate", "--config", "a.cfg", "--bogus"],
    ], ids=["empty", "unknown-command", "option-first", "verify-no-target",
            "verify-bad-target", "no-config", "no-config-with-out",
            "non-integer-seed", "unknown-option"])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: ssem" in capsys.readouterr().err

    def test_assignments_do_not_leak_between_calls(self, tmp_path, monkeypatch):
        seen = []

        def recording(raw, assignments):
            seen.append(list(assignments))
            return apply_overrides(raw, assignments)

        monkeypatch.setattr(cli, "apply_overrides", recording)
        cfg = write_cfg(tmp_path, SYM2_CFG.replace("100000", "40"))
        assert main(["sample", "--config", cfg, "--out", str(tmp_path),
                     "--set", "data.total_samples=50"]) == 0
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert seen == [["data.total_samples=50"], []]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["m"] + summary["n"] == 40


class TestSimulate:
    def test_recovers_truth(self, tmp_path):
        cfg = write_cfg(tmp_path, SYM2_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["final_theta"][1] - 1.5) < 0.05
        assert summary["schema_version"] == "1"
        assert (tmp_path / "dataset.csv").exists()
        assert (tmp_path / "trajectory.csv").exists()

    def test_labeled_only_converges_immediately(self, tmp_path):
        cfg = write_cfg(tmp_path, GMM_CFG)
        out = tmp_path / "labonly"
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--set", "data.gamma=1", "--set", "data.total_samples=500"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] <= 2

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, SYM2_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out_a), "--seed", "99"])
        main(["simulate", "--config", cfg, "--out", str(out_b), "--seed", "100"])
        assert ((out_a / "dataset.csv").read_bytes()
                != (out_b / "dataset.csv").read_bytes())


def simulate_artifacts(out, config, fork_rows, monkeypatch, *sets):
    """Run ``simulate`` with the dataset writer forced in or out of this
    process; return the exit code and the names in ``out``."""
    force_writer(monkeypatch, fork_rows)
    argv = ["simulate", "--config", config, "--out", str(out)]
    for assignment in sets:
        argv += ["--set", assignment]
    rc = main(argv)
    return rc, sorted(p.name for p in out.iterdir())


def failing_writer(exc):
    def save_dataset_csv(dataset, path):
        with open(path, "w") as fh:
            fh.write("kind,x,y\n")
        raise exc

    return save_dataset_csv


class TestDatasetWriterProcess:
    """``simulate`` writes ``dataset.csv`` in a child process while EM runs
    once the writer formats ``_FORK_WRITE_ROWS`` rows or more."""

    @pytest.mark.parametrize("config", ["gmm3.cfg", "sym2.cfg",
                                        "poisson2.cfg"])
    def test_child_writes_the_inline_bytes(self, tmp_path, monkeypatch,
                                           config):
        runs = {}
        for name, rows in (("inline", INLINE), ("child", CHILD)):
            out = tmp_path / name
            rc, names = simulate_artifacts(
                out, str(CONFIGS / config), rows, monkeypatch,
                "data.total_samples=20000", "data.seed=3")
            assert rc == 0
            assert names == ["dataset.csv", "summary.json", "trajectory.csv"]
            summary = json.loads((out / "summary.json").read_text())
            assert summary.pop("dataset_writer")["process"] == name
            for key in ("wall_time_s", "timings_s"):
                del summary[key]
            del summary["config"]["output.directory"]
            runs[name] = (summary, *((out / f).read_bytes() for f in
                                     ("dataset.csv", "trajectory.csv")))
        assert runs["child"] == runs["inline"]

    @pytest.mark.parametrize("config, process", [
        (SYM2_CFG, "child"),
        (GMM_CFG, "inline"),
        (POISSON_POP + "data.gamma = 0.1\ndata.total_samples = 200000\n"
         "data.seed = 0\nem.theta0 = 0, 2.5\n", "inline"),
    ], ids=["sym2", "gmm", "poisson"])
    def test_process_follows_formatted_rows(self, tmp_path, config, process):
        # Rows the writer formats: all 100,000 rows of the continuous
        # sym2 sample and 2,000 of the gmm one, but only the distinct rows
        # of the 200,000-row Poisson sample.
        cfg = write_cfg(tmp_path, config)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["dataset_writer"]["process"] == process

    @pytest.mark.parametrize("code, type_name", [
        (errno.EACCES, "PermissionError"),
        (errno.ENOSPC, "OSError"),
    ])
    def test_child_write_error_exits_2(self, tmp_path, capsys, monkeypatch,
                                       code, type_name):
        monkeypatch.setattr(cli, "save_dataset_csv", failing_writer(
            OSError(code, os.strerror(code))))
        out = tmp_path / "out"
        rc, names = simulate_artifacts(out, write_cfg(tmp_path, GMM_CFG),
                                       CHILD, monkeypatch)
        assert rc == 2
        assert names == []
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == "output.directory"
        assert err["type"] == type_name
        assert os.strerror(code) in err["message"]
        assert str(out / "dataset.csv") in err["message"]

    @pytest.mark.parametrize("fail", ["raise", "signal"])
    def test_child_failure_without_errno_exits_2(self, tmp_path, capsys,
                                                 monkeypatch, fail):
        if fail == "raise":
            writer = failing_writer(ValueError("not an OSError"))
        else:
            def writer(dataset, path):
                os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(cli, "save_dataset_csv", writer)
        out = tmp_path / "out"
        rc, names = simulate_artifacts(out, write_cfg(tmp_path, GMM_CFG),
                                       CHILD, monkeypatch)
        assert rc == 2
        assert names == []
        err = json.loads(capsys.readouterr().err)
        assert err["field"] == "output.directory"
        assert err["type"] == "ChildProcessError"
        assert ("status 255" if fail == "raise" else "signal 9") in err["message"]

    def test_em_failure_during_the_write_commits_the_dataset(
            self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, EMPTY_COMPONENT_CFG)
        written = {}
        for name, rows in (("inline", INLINE), ("child", CHILD)):
            rc, names = simulate_artifacts(tmp_path / name, cfg, rows,
                                           monkeypatch)
            assert rc == 3
            assert names == ["dataset.csv"]
            err = json.loads(capsys.readouterr().err)
            assert (err["type"], err["iteration"]) == ("EmptyComponent", 0)
            written[name] = (tmp_path / name / "dataset.csv").read_bytes()
        assert written["child"] == written["inline"]
        assert written["child"].count(b"\n") == 2

    def test_failed_write_takes_precedence_over_em_failure(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "save_dataset_csv", failing_writer(
            OSError(errno.EACCES, os.strerror(errno.EACCES))))
        rc, names = simulate_artifacts(
            tmp_path / "out", write_cfg(tmp_path, EMPTY_COMPONENT_CFG),
            CHILD, monkeypatch)
        assert rc == 2
        assert names == []
        assert json.loads(capsys.readouterr().err)["type"] == "PermissionError"


class TestPhaseTimings:
    @pytest.mark.parametrize("command, phases, fork_rows", [
        ("simulate", SIMULATE_PHASES, INLINE),
        ("simulate", SIMULATE_PHASES, CHILD),
        ("population", ["em", "write_trajectory"], None),
    ], ids=["simulate", "simulate-child", "population"])
    def test_phases_fit_in_wall_time(self, tmp_path, monkeypatch, command,
                                     phases, fork_rows):
        force_writer(monkeypatch, fork_rows)
        cfg = write_cfg(tmp_path, GMM_CFG)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        timings = summary["timings_s"]
        assert list(timings) == phases
        assert all(t >= 0.0 for t in timings.values())
        assert sum(timings.values()) <= summary["wall_time_s"]
        if command == "simulate":
            writer = summary["dataset_writer"]
            assert list(writer) == ["process", "cpu_s"]
            assert writer["process"] == ("child" if fork_rows == CHILD
                                         else "inline")
            assert writer["cpu_s"] >= 0.0

    @pytest.mark.parametrize("text, which, targets", [
        (SYM2_POP, "all",
         ["thm1", "thm3-1", "thm3-2", "thm3-3", "lemma3", "rescue"]),
        (SYM2_POP, "lemma3", ["lemma3"]),
        (GMM3_POP, "all", KIND_TARGETS["gmm3.cfg"]),
        (POISSON_POP, "all", KIND_TARGETS["poisson2.cfg"]),
    ], ids=["all", "lemma3", "all-gmm", "all-expfam"])
    def test_verify_times_each_target_in_run_order(self, tmp_path, text,
                                                   which, targets):
        cfg = write_cfg(tmp_path, text + "data.gamma = 0.1\n")
        main(["verify", which, "--config", cfg, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / f"verify_{which}.json").read_text())
        assert list(payload["timings_s"]) == targets
        assert all(t >= 0.0 for t in payload["timings_s"].values())
        assert payload["schema_version"] == "1"

    def test_sample_phases(self, tmp_path):
        cfg = write_cfg(tmp_path, GMM_CFG)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary["timings_s"]) == ["sample", "write_dataset"]
        assert all(t >= 0.0 for t in summary["timings_s"].values())


class TestRunDiagnostics:
    @pytest.mark.parametrize("command", ["simulate", "population"])
    def test_default_gmm_run_stops_on_tol(self, tmp_path, command):
        cfg = write_cfg(tmp_path, GMM_CFG)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["stop_reason"] == "tol"

    @pytest.mark.parametrize("command", ["simulate", "population"])
    def test_one_iteration_stops_on_max_iters(self, tmp_path, command):
        cfg = write_cfg(tmp_path, GMM_CFG)
        assert main([command, "--config", cfg, "--out", str(tmp_path),
                     "--set", "em.max_iters=1"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] == 1
        assert summary["converged"] is False
        assert summary["stop_reason"] == "max_iters"


class TestImport:
    def test_cli_import_leaves_scipy_special_unloaded(self):
        # scipy.special is most of the start-up time; only sampling and the
        # Poisson family need it, and they import it when called.
        src = str(Path(ssem.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import ssem.cli; "
             "print('scipy.special' in sys.modules)", src],
            capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_poisson_sampling_leaves_scipy_stats_unloaded(self):
        # The Poisson sampler needs scipy.special only; scipy.stats costs
        # about a second to import.
        src = str(Path(ssem.__file__).resolve().parents[1])
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import ssem; "
            "kind = ssem.ModelKind.expfam(ssem.poisson_spec()); "
            "star = ssem.MixtureParams([0.5, 0.5], [0.5, 2.0]); "
            "ds = ssem.sample_dataset(kind, star, ssem.SampleConfig(0, 100, 900)); "
            "print(ds.n, 'scipy.special' in sys.modules, "
            "'scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, src],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        assert out.stdout.split() == ["900", "True", "False"]


class TestPopulationCommand:
    def test_starts_at_truth(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = 2.0\n"
                                  "em.theta0 = 2.0\nem.tol = 1e-10\n")
        assert main(["population", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] <= 1
        assert abs(summary["final_theta"][1] - 2.0) < 1e-9

    def test_geometric_decay_and_label_speedup(self, tmp_path):
        base = ("model.kind = sym2\nmodel.theta_star = 2.0\n"
                "em.theta0 = 4.0\nem.max_iters = 40\nem.tol = 1e-9\n")
        out0, out9 = tmp_path / "g0", tmp_path / "g9"
        cfg = write_cfg(tmp_path, base + "data.gamma = 0\n")
        assert main(["population", "--config", cfg, "--out", str(out0)]) == 0
        cfg9 = write_cfg(tmp_path, base + "data.gamma = 0.9\n", name="g9.cfg")
        assert main(["population", "--config", cfg9, "--out", str(out9)]) == 0
        s0 = json.loads((out0 / "summary.json").read_text())
        s9 = json.loads((out9 / "summary.json").read_text())
        assert s0["empirical_rate"] <= math.exp(-2.0) + 1e-6
        assert abs(s0["final_theta"][1] - 2.0) < 1e-8
        assert s0["iterations"] <= 12
        assert s9["iterations"] < s0["iterations"]

    @staticmethod
    def _final_error(out):
        """``final_error`` of the summary in ``out``, after checking that it
        is the last ``err`` of ``trajectory.csv``, and ``converged``."""
        summary = strict_json(out / "summary.json")
        last = (out / "trajectory.csv").read_text().splitlines()[-1]
        assert summary["final_error"] == float(last.split(",")[-1])
        return summary["final_error"], summary["converged"]

    def test_final_error_shows_a_spurious_fixed_point(self, tmp_path):
        # Started at -(theta* + 1) with gamma = 0.1, below gamma_c (0.15 at
        # theta* = 1, 0.31 at 2), sym2 stops at a negative fixed point.
        assert main(["population", "--config", str(CONFIGS / "sym2.cfg"),
                     "--out", str(tmp_path), "--set", "data.gamma=0.1",
                     "--set", "em.theta0=-2.5"]) == 0
        error, converged = self._final_error(tmp_path)
        assert converged and error > 1.5

    def test_final_error_at_the_truth(self, tmp_path):
        assert main(["population", "--config", str(CONFIGS / "gmm3.cfg"),
                     "--out", str(tmp_path)]) == 0
        error, converged = self._final_error(tmp_path)
        assert converged and error <= 1e-9


class TestVerifyCommand:
    def test_thm1_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = 1.5\n"
                                  "data.gamma = 0.5\n")
        assert main(["verify", "thm1", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verify_thm1.json").read_text())
        assert payload["pass_all"] is True
        assert {"name", "probe", "lhs", "rhs", "pass"} <= set(payload["checks"][0])

    def test_lemma3_lists_triples(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = 1.0\n")
        assert main(["verify", "lemma3", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verify_lemma3.json").read_text())
        assert len(payload["checks"]) == 12  # two strict bounds per t

    def test_thm3_2_not_applicable_exits_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = 1.0\n")
        rc = main(["verify", "thm3-2", "--config", cfg, "--out", str(tmp_path),
                   "--set", "verify.theta_stars=1"])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_thm3-2.json").read_text())
        assert "(not applicable)" in payload["checks"][0]["name"]

    def test_gmm_all_runs_no_sym2_rate_checks(self, tmp_path):
        # thm3-* check the symmetric pair on their own theta* grid; on a
        # gmm model they say nothing about it and must not set the exit.
        cfg = write_cfg(tmp_path, GMM_CFG)
        rc = main(["verify", "all", "--config", cfg, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "verify_all.json").read_text())
        names = [c["name"] for c in payload["checks"]]
        assert not [n for n in names if n.startswith("thm3-")]
        assert any(n.startswith("thm1/") for n in names)
        assert rc == 0

    @pytest.mark.parametrize("text", [
        POISSON_POP + "data.gamma = 0.1\n",
        ("model.kind = expfam\nmodel.family = exponential\n"
         "model.theta_star = -1, -3\nmodel.pi = 0.5, 0.5\ndata.gamma = 0.1\n"),
    ], ids=["poisson", "exponential"])
    def test_rescue_probes_off_domain_are_not_numeric_failures(
            self, tmp_path, capsys, text):
        # The default probe offsets (up to 4) leave the exponential natural
        # domain and make the far Poisson component's E[q_k] underflow;
        # those probes are skipped, so the run reports its checks.
        cfg = write_cfg(tmp_path, text)
        rc = main(["verify", "all", "--config", cfg, "--out", str(tmp_path)])
        assert rc in (0, 4), capsys.readouterr().err
        payload = json.loads((tmp_path / "verify_all.json").read_text())
        names = [c["name"] for c in payload["checks"]]
        assert any(n.startswith("rescue/step_ratio_le_beta_kappa") for n in names)

    def test_rescue_reports(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = 1.5\n")
        assert main(["verify", "rescue", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verify_rescue.json").read_text())
        assert any("no_rescue_needed" in c["name"] for c in payload["checks"])

    @pytest.mark.parametrize("config", list(KIND_TARGETS))
    @pytest.mark.parametrize("which", list(cli.VERIFIERS))
    def test_target_of_another_kind_is_config_error(self, tmp_path, capsys,
                                                    config, which):
        # A target checks only the model kinds it lists; named for another
        # kind it is refused before any integral and writes nothing.
        kind = build_run_config(load_config_file(CONFIGS / config)).kind.tag
        listed = which in KIND_TARGETS[config]
        assert (kind in cli.VERIFIERS[which][0]) is listed
        if listed:
            return  # run by TestVerifyArtifact
        rc = main(["verify", which, "--config", str(CONFIGS / config),
                   "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"], err["field"]) == (
            "config", "ConfigError", "model.kind")
        assert not (tmp_path / f"verify_{which}.json").exists()

    @pytest.mark.parametrize("config, command, assignment, field", [
        ("sym2.cfg", ["verify", "lemma3"], "verify.tail_grid=1,39",
         "verify.tail_grid"),
        ("poisson2.cfg", ["verify", "thm2"], "verify.epsilons=1e-9",
         "verify.epsilons"),
        ("poisson2.cfg", ["verify", "thm2"], "verify.epsilons=0.2",
         "verify.epsilons"),
        ("gmm3.cfg", ["simulate"], "verify.epsilons=0.2", "verify.epsilons"),
        ("poisson2.cfg", ["verify", "thm2"], "verify.epsilons=1e-9,1e-10",
         "verify.epsilons"),
        ("poisson2.cfg", ["verify", "thm2"], "quadrature.abs_tol=1e-3",
         "verify.epsilons"),
    ], ids=["tail-phi-subnormal", "radii-inside-guard", "one-radius",
            "simulate-one-radius", "two-radii-inside-guard",
            "coarse-tolerance-guard"])
    def test_grid_that_measures_nothing_is_config_error(
            self, tmp_path, capsys, config, command, assignment, field):
        # phi(39) is subnormal, so the lemma-3 bounds compare rounded-off
        # values; Theorem 2 fits its slope to two radii or more beyond the
        # fixed-point guard 100 * quadrature.abs_tol.
        rc = main(command + ["--config", str(CONFIGS / config),
                             "--out", str(tmp_path), "--set", assignment])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["field"]) == ("config", field)
        assert list(tmp_path.iterdir()) == []

    def test_guard_rule_waits_for_theorem2(self, tmp_path, capsys):
        # A coarse tolerance leaves one radius beyond the guard, which only
        # Theorem 2 reads: sampling does not need the radii at all.
        rc = main(["sample", "--config", str(CONFIGS / "gmm3.cfg"),
                   "--out", str(tmp_path), "--set", "data.total_samples=300",
                   "--set", "quadrature.abs_tol=1e-3"])
        assert (rc, capsys.readouterr().err) == (0, "")

    def test_tail_grid_at_normal_phi_passes(self, tmp_path):
        rc = main(["verify", "lemma3", "--config", str(CONFIGS / "sym2.cfg"),
                   "--out", str(tmp_path), "--set", "verify.tail_grid=1,37.5"])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_lemma3.json").read_text())
        assert [c["pass"] for c in payload["checks"]] == [True] * 4

    def test_radius_inside_guard_is_dropped(self, tmp_path):
        rc = main(["verify", "thm2", "--config", str(CONFIGS / "poisson2.cfg"),
                   "--out", str(tmp_path),
                   "--set", "verify.epsilons=0.2, 0.1, 1e-9"])
        assert rc == 0
        payload = json.loads((tmp_path / "verify_thm2.json").read_text())
        assert {tuple(c["probe"]) for c in payload["checks"]} == {(0.2, 0.1)}


# An exponential truth 0.1 from the natural-domain boundary 0: the probes
# theta* + 0.1 and + 0.2 leave the domain, and so does every default
# rescue offset (0.2 to 4).
NEAR_EDGE_POP = ("model.kind = expfam\nmodel.family = exponential\n"
                 "model.theta_star = -0.1, -3\nmodel.pi = 0.5, 0.5\n"
                 "data.gamma = 0.1\n")


def no_integral(monkeypatch):
    """Make any population integral fail the test."""
    def refuse(*args):
        raise AssertionError("a population integral was taken")
    monkeypatch.setattr(population, "_kernel_integral", refuse)


class TestDomainLeavingGrids:
    def test_thm2_drops_radii_whose_probes_leave_the_domain(self, tmp_path):
        cfg = write_cfg(tmp_path, NEAR_EDGE_POP)
        runs = {}
        for name, sets in (("default", []),
                           ("by-hand", ["--set", "verify.epsilons=0.05, 0.025"])):
            out = tmp_path / name
            rc = main(["verify", "thm2", "--config", cfg, "--out", str(out),
                       *sets])
            runs[name] = rc, json.loads((out / "verify_thm2.json").read_text())
        (rc, payload), (rc_hand, hand) = runs["default"], runs["by-hand"]
        assert {tuple(c["probe"]) for c in payload["checks"]} == {(0.05, 0.025)}
        assert (rc, payload["checks"]) == (rc_hand, hand["checks"])

    @pytest.mark.parametrize("epsilons", ["0.2, 0.1, 0.05", "0.3, 0.2"])
    def test_fewer_than_two_usable_radii_is_config_error(
            self, tmp_path, capsys, monkeypatch, epsilons):
        no_integral(monkeypatch)
        cfg = write_cfg(tmp_path, NEAR_EDGE_POP)
        rc = main(["verify", "thm2", "--config", cfg, "--out", str(tmp_path),
                   "--set", f"verify.epsilons={epsilons}"])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"], err["field"]) == (2, "config", "verify.epsilons")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("which", ["rescue", "all"])
    def test_rescue_grid_outside_the_domain_is_config_error(
            self, tmp_path, capsys, which):
        cfg = write_cfg(tmp_path, NEAR_EDGE_POP)
        rc = main(["verify", which, "--config", cfg, "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert (rc, err["error"], err["field"]) == (
            2, "config", "verify.probe_offsets")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_rescue_rule_comes_before_its_integrals(self, tmp_path, capsys,
                                                    monkeypatch):
        no_integral(monkeypatch)
        cfg = write_cfg(tmp_path, NEAR_EDGE_POP)
        assert main(["verify", "rescue", "--config", cfg,
                     "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["field"] == "verify.probe_offsets"

    @pytest.mark.parametrize("command", [["population"], ["verify", "lemma3"],
                                         ["simulate"]])
    def test_other_commands_do_not_apply_the_rescue_rule(
            self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, NEAR_EDGE_POP + "data.total_samples = 300\n")
        rc = main(command + ["--config", cfg, "--out", str(tmp_path)])
        assert (rc, capsys.readouterr().err) == (0, "")

    def test_rescue_with_an_in_domain_probe_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, NEAR_EDGE_POP)
        rc = main(["verify", "rescue", "--config", cfg, "--out", str(tmp_path),
                   "--set", "verify.probe_offsets=-0.05, 0.05, 0.5"])
        assert rc in (0, 4)
        payload = json.loads((tmp_path / "verify_rescue.json").read_text())
        assert payload["checks"]


ENTRY_KEYS = ["name", "probe", "lhs", "rhs", "pass"]


class TestVerifyArtifact:
    @pytest.mark.parametrize("text, which", [
        (SYM2_POP, w) for w in ("thm1", "thm3-1", "thm3-2", "thm3-3",
                                "lemma3", "rescue", "all")] + [
        (GMM3_POP, w) for w in ("thm1", "lemma3", "rescue", "all")] + [
        (POISSON_POP, w) for w in ("thm2", "lemma3", "rescue", "all")])
    def test_pass_rule_and_entry_format(self, tmp_path, text, which):
        cfg = write_cfg(tmp_path, text + "data.gamma = 0.1\n")
        rc = main(["verify", which, "--config", cfg, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / f"verify_{which}.json").read_text())
        checks = payload["checks"]
        assert checks
        # Entries marked not applicable are reported but never fail.
        rule = all(c["pass"] for c in checks if c.get("applicable", True))
        assert payload["pass_all"] is rule
        assert rc == (0 if rule else 4)
        for check in checks:
            extra = ["applicable"] if check["name"].startswith("thm3-") else []
            assert list(check) == ENTRY_KEYS + extra, check["name"]
            assert isinstance(check["pass"], bool)


class TestSampleCommand:
    def test_writes_dataset_and_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, GMM_CFG)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["m"] + summary["n"] == 2000
        assert summary["gamma"] == pytest.approx(0.2, abs=1e-12)
        lines = (tmp_path / "dataset.csv").read_text().splitlines()
        assert lines[0] == "kind,x,y"
        assert len(lines) == 2001


class TestReproducibility:
    def test_identical_bytes_across_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, SYM2_CFG)
        out_a, out_b = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("dataset.csv", "trajectory.csv"):
            assert ((out_a / name).read_bytes() == (out_b / name).read_bytes())

    def test_rerun_from_embedded_config(self, tmp_path):
        cfg = write_cfg(tmp_path, GMM_CFG)
        out_a = tmp_path / "orig"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        summary = json.loads((out_a / "summary.json").read_text())
        # Round-trip: the embedded config reproduces identical CSV bytes.
        embedded = dict(summary["config"])
        embedded.pop("output.directory", None)
        cfg2 = write_cfg(tmp_path, config_text(embedded), name="embed.cfg")
        out_b = tmp_path / "rerun"
        assert main(["simulate", "--config", cfg2, "--out", str(out_b)]) == 0
        for name in ("dataset.csv", "trajectory.csv"):
            assert ((out_a / name).read_bytes() == (out_b / name).read_bytes())
