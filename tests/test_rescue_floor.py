"""The rescue's lockstep stops at its floor and reaches the verdicts of a
lockstep run to ``RESCUE_MAX_ITERS``.

A step that starts at or below ``RATE_FLOOR`` counts toward no verdict, so
``demonstrate_rescue`` stops both of its runs after the first round in
which every run still going is at or below the floor.  Each case runs the
rescue as the library does and again with the floor taken away, so that
the lockstep runs to ``RESCUE_MAX_ITERS`` or to its tolerance.  The cases
are the rescues of the benchmark's population-sweep (``verify rescue`` on
gmm3 and ``verify all`` on sym2, read from ``perfbench/workloads.py``),
poisson2, whose rescue fails at gamma 0.1, and an exponential truth at
(-1, -3).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ssem.analysis as analysis
import ssem.population as population
from ssem.analysis import RATE_FLOOR, RESCUE_MAX_ITERS, demonstrate_rescue
from ssem.config import (
    apply_overrides,
    build_run_config,
    load_config_file,
    parse_config_text,
)

ROOT = Path(__file__).resolve().parents[1]
EXPONENTIAL = """model.kind = expfam
model.family = exponential
model.theta_star = -1, -3
model.pi = 0.5, 0.5
data.gamma = 0.1
"""


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _raw(argv):
    """The raw config of a ``--config FILE --set KEY=VALUE ...`` argv."""
    raw = load_config_file(argv[argv.index("--config") + 1])
    return apply_overrides(raw, [argv[i + 1] for i, a in enumerate(argv)
                                 if a == "--set"])


def _cases():
    cases = {}
    for op in _workloads().population_sweep(0):
        if op.argv[:2] in (("verify", "rescue"), ("verify", "all")):
            raw = _raw(op.argv[2:])
            label = (f"{raw['model.kind']}-{raw['model.theta_star']}"
                     f"-gamma{raw['data.gamma']}")
            cases[label] = raw
    assert len(cases) == 20
    cases["poisson2"] = load_config_file(
        ROOT / "perfbench" / "configs" / "poisson2.cfg")
    cases["exponential"] = parse_config_text(EXPONENTIAL)
    return cases


CASES = _cases()


def _rescue(raw):
    cfg = build_run_config(raw)
    pm = cfg.population_model()
    return pm, demonstrate_rescue(pm, probe_offsets=cfg._rescue_offsets())


def _stop_round(trajs):
    """The round after which a floored lockstep of ``trajs`` stops: the
    first in which every run still going afterwards is at or below the
    floor, or the last round run."""
    last = max(len(t.errors) - 1 for t in trajs)
    for r in range(1, last + 1):
        if all(t.errors[r] <= RATE_FLOOR for t in trajs
               if r < len(t.errors) - 1):
            return r
    return last


@pytest.mark.parametrize("label", CASES)
def test_stopped_rescue_reaches_the_full_verdicts(monkeypatch, label):
    pm, stopped = _rescue(CASES[label])
    full_runs = []

    def unfloored(*args, floor, **kwargs):
        assert floor == RATE_FLOOR
        full_runs.append(population._run_lockstep(*args, **kwargs))
        return full_runs[-1]

    monkeypatch.setattr(analysis, "_run_lockstep", unfloored)
    full = _rescue(CASES[label])[1]
    [trajs] = full_runs
    assert max(len(t.errors) for t in trajs) <= RESCUE_MAX_ITERS + 1
    for key, traj in zip(full.step_ratios, trajs):
        assert full.step_ratios[key] == analysis.measurable_step_ratios(
            traj, pm.theta_star)
    assert stopped.step_ratios == full.step_ratios
    assert stopped.ratio_ok == full.ratio_ok
    assert stopped.checks() == full.checks()
    if label == "poisson2":  # the failing verdict stays failing
        assert stopped.ratio_ok == {"0": True, "0.1": False}
        assert max(stopped.step_ratios["0.1"]) == pytest.approx(0.85408,
                                                                abs=5e-6)
    # The stopped runs are the full runs cut after the stop round.
    stop = _stop_round(trajs)
    for key, traj in zip(full.trajectory_errors, trajs):
        length = min(len(traj.errors), stop + 1)
        assert stopped.trajectory_errors[key] == traj.errors[:length]
