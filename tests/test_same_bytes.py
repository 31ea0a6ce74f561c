"""tools/same_bytes.py, which compares two trees of artifacts."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

SUMMARY = {
    "schema_version": "1",
    "config": {"model.kind": "gmm", "output.directory": "out/a"},
    "final_theta": [-2.9999999999999996, 0.0, 3.0],
    "wall_time_s": 0.5,
    "timings_s": {"sample": 0.25, "em": 0.125},
    "dataset_writer": {"process": "child", "cpu_s": 0.04},
}


def _tree(root: Path, summary: dict, trajectory: str = "iter,err\n0,1\n"):
    (root / "op").mkdir(parents=True)
    (root / "op" / "summary.json").write_text(json.dumps(summary, indent=2))
    (root / "op" / "trajectory.csv").write_text(trajectory)
    return root


def _run(a, b, capsys):
    rc = same_bytes.main([str(a), str(b)])
    return rc, capsys.readouterr().out.splitlines()


def test_equal_trees(tmp_path, capsys):
    a = _tree(tmp_path / "a", SUMMARY)
    b = _tree(tmp_path / "b", SUMMARY)
    assert _run(a, b, capsys) == (0, [])


def test_only_the_run_to_run_keys_differ(tmp_path, capsys):
    other = json.loads(json.dumps(SUMMARY))
    other["config"]["output.directory"] = "out/b"
    other["wall_time_s"] = 0.75
    other["timings_s"] = {"sample": 0.5}
    other["dataset_writer"]["cpu_s"] = 0.08
    a = _tree(tmp_path / "a", SUMMARY)
    b = _tree(tmp_path / "b", other)
    assert _run(a, b, capsys) == (0, [])


def test_a_differing_float(tmp_path, capsys):
    other = json.loads(json.dumps(SUMMARY))
    other["final_theta"][0] = -3.0
    a = _tree(tmp_path / "a", SUMMARY)
    b = _tree(tmp_path / "b", other)
    assert _run(a, b, capsys) == (1, ["op/summary.json"])


def test_a_signed_zero_and_a_kept_key_count(tmp_path, capsys):
    zero = json.loads(json.dumps(SUMMARY))
    zero["final_theta"][1] = -0.0
    child = json.loads(json.dumps(SUMMARY))
    child["dataset_writer"]["process"] = "inline"
    a = _tree(tmp_path / "a", SUMMARY)
    assert _run(a, _tree(tmp_path / "b", zero), capsys) == (
        1, ["op/summary.json"])
    assert _run(a, _tree(tmp_path / "c", child), capsys) == (
        1, ["op/summary.json"])


def test_csv_raw_and_files_on_one_side(tmp_path, capsys):
    a = _tree(tmp_path / "a", SUMMARY)
    b = _tree(tmp_path / "b", SUMMARY, trajectory="iter,err\n0,1.0\n")
    (b / "op" / "dataset.csv").write_text("x,y\n")
    assert _run(a, b, capsys) == (1, ["op/dataset.csv", "op/trajectory.csv"])


def test_usage(tmp_path, capsys):
    assert same_bytes.main([str(tmp_path)]) == 2
    assert same_bytes.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    assert "usage" in capsys.readouterr().err
