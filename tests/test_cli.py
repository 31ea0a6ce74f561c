"""End-to-end command, config, and artifact checks."""

import json
import math

import pytest

from ssem.cli import main
from ssem.config import (
    apply_overrides,
    build_run_config,
    format_config,
    parse_config_text,
)
from ssem.errors import ConfigError

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

SYM2_POP = "model.kind = sym2\nmodel.theta_star = 1.5\n"
POISSON_POP = ("model.kind = expfam\nmodel.family = poisson\n"
               "model.theta_star = 0.5, 2.0\nmodel.pi = 0.5, 0.5\n")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_types_and_comments(self):
        cfg = parse_config_text(
            "a.b = 3\nc = 1.5\nd = true\ne = x, 2, 2.5 # trailing\nf = name\n")
        assert cfg == {"a.b": 3, "c": 1.5, "d": True,
                       "e": ["x", 2, 2.5], "f": "name"}

    def test_format_roundtrip(self):
        raw = parse_config_text(SYM2_CFG)
        again = parse_config_text(format_config(raw))
        assert again == raw

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
        ("data.total_samples = 1.5", "data.total_samples"),
        ("data.seed = 1.5", "data.seed"),
        ("model.pi = 1", "model.pi"),
        ("model.pi = a, b", "model.pi"),
    ])
    def test_config_error_names_field(self, tmp_path, capsys, line, field):
        bad = write_cfg(tmp_path, GMM_CFG + line + "\n")
        rc = main(["simulate", "--config", bad, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["field"] == field

    def test_numeric_error_exit_3(self, tmp_path, capsys):
        # One labeled sample cannot support two components.
        cfg = write_cfg(tmp_path, """
model.kind = gmm
model.pi = 0.5, 0.5
model.theta_star = -1.0, 1.0
data.gamma = 1
data.total_samples = 1
data.seed = 1
em.theta0 = 0.0, 0.5
""")
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

    def test_violation_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.kind = sym2\nmodel.theta_star = 1.0\n")
        rc = main(["verify", "thm3-3", "--config", cfg, "--out", str(tmp_path),
                   "--set", "verify.theta_stars=1,2"])
        assert rc == 4
        payload = json.loads((tmp_path / "verify_thm3-3.json").read_text())
        assert payload["pass_all"] is False


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
        cfg2 = write_cfg(tmp_path, format_config(embedded), name="embed.cfg")
        out_b = tmp_path / "rerun"
        assert main(["simulate", "--config", cfg2, "--out", str(out_b)]) == 0
        for name in ("dataset.csv", "trajectory.csv"):
            assert ((out_a / name).read_bytes() == (out_b / name).read_bytes())
