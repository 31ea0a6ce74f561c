"""Extreme config values end in a frozen exit code and one JSON error.

Each numeric key of the three perfbench configs (every ``data.*``, ``em.*``
and ``quadrature.*`` key, and ``output.directory``), and each entry of the
vector keys, is set in turn to nan, +-inf and +-1e308.  ``population`` and
``simulate`` must return 0, 2 or 3 without raising, and stderr must be
empty or exactly one JSON object.  Tier-1 turns warnings into errors, so a
numpy warning on the way fails the case too.  A case that exits 0 writes
one ``summary.json``, strict JSON: a config number with no JSON spelling is
echoed as null, never as NaN or Infinity.
"""

import json
from pathlib import Path

import pytest

from ssem.cli import main
from ssem.config import load_config_file

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

VALUES = ("nan", "inf", "-inf", "1e308", "-1e308")
SCALAR_KEYS = (
    "data.gamma", "data.total_samples", "data.seed", "data.allocation",
    "em.max_iters", "em.tol", "em.record_trajectory",
    "quadrature.abs_tol", "quadrature.range_sigma",
    "quadrature.max_subdivisions", "output.directory")
VECTOR_KEYS = ("model.theta_star", "model.pi", "em.theta0")


def _refuse(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _assignments():
    """``(config, key=value)`` for every key, one vector entry at a time."""
    for config in ("gmm3.cfg", "sym2.cfg", "poisson2.cfg"):
        raw = load_config_file(CONFIGS / config)
        for key in SCALAR_KEYS:
            for value in VALUES:
                yield config, f"{key}={value}"
        for key in VECTOR_KEYS:
            if key not in raw:
                continue
            entries = raw[key] if isinstance(raw[key], list) else [raw[key]]
            for i in range(len(entries)):
                for value in VALUES:
                    moved = [str(v) for v in entries]
                    moved[i] = value
                    yield config, f"{key}={','.join(moved)}"


@pytest.mark.parametrize("command", ["population", "simulate"])
@pytest.mark.parametrize("config, assignment", list(_assignments()))
def test_extreme_value_exits_cleanly(tmp_path, monkeypatch, capsys,
                                     command, config, assignment):
    # No --out: output.directory is one of the keys, and relative
    # directories land in tmp_path.
    monkeypatch.chdir(tmp_path)
    rc = main([command, "--config", str(CONFIGS / config),
               "--set", "em.max_iters=3", "--set", "data.total_samples=300",
               "--set", assignment])
    assert rc in (0, 2, 3)
    err = capsys.readouterr().err
    if err:
        assert isinstance(json.loads(err), dict), err
    assert (rc == 0) == (err == ""), err
    summaries = list(tmp_path.rglob("summary.json"))
    assert len(summaries) == (rc == 0)
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse)
