"""One pass of the benchmark's population-sweep workload, run in process,
makes an exact number of integrals, integrand calls and kernel passes, and
builds an exact number of :class:`ssem.model.LogitTerms`.

The ops are read from ``perfbench/workloads.py``.  The counts are counts of
work, and follow the code: a change that integrates a probe grid, a
theta* of thm3-3 or a round of the rescue's two runs as more than one
integral moves them, as does one that refines more, or one that runs the
rescue past its floor.  Each truth's terms are built once, with its
quadrature grid, and serve every density its refinements read.  An
integrand call evaluates the responsibility kernel once for its whole
probe batch.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ssem.model
import ssem.quadrature
from ssem.cli import main
from ssem.model import LogitTerms

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def counts(monkeypatch):
    """Integrals and integrand calls made while the test runs."""
    made = {"integrals": 0, "integrand_calls": 0}
    original = ssem.quadrature.integrate

    def counting(f, *args, **kwargs):
        made["integrals"] += 1

        def counted(y):
            made["integrand_calls"] += 1
            return f(y)

        return original(counted, *args, **kwargs)

    monkeypatch.setattr(ssem.quadrature, "integrate", counting)
    return made


@pytest.fixture
def terms_built(monkeypatch):
    """``LogitTerms.of`` and ``LogitTerms.batch`` calls made while the test
    runs."""
    made = {"LogitTerms.of": 0, "LogitTerms.batch": 0}

    def counted(name):
        original = getattr(LogitTerms, name).__func__

        def counting(cls, *args, **kwargs):
            made[f"LogitTerms.{name}"] += 1
            return original(cls, *args, **kwargs)

        return classmethod(counting)

    for name in ("of", "batch"):
        monkeypatch.setattr(LogitTerms, name, counted(name))
    return made


@pytest.fixture
def kernel_passes(monkeypatch):
    """Passes of the responsibility kernel made while the test runs."""
    made = {"kernel_passes": 0}
    original = ssem.model._relative_weights

    def counting(*args):
        made["kernel_passes"] += 1
        return original(*args)

    monkeypatch.setattr(ssem.model, "_relative_weights", counting)
    return made


def test_population_sweep_pass(tmp_path, counts, terms_built, kernel_passes):
    # 1,471 integrals and 2,039 integrand calls when each probe was
    # integrated on its own; 1,903 LogitTerms when every refinement of a
    # truth's integral built the truth's terms again (292 of them).  863
    # integrals and 1,155 integrand calls when the rescue's lockstep ran on
    # below RATE_FLOOR to its tolerance: its 84 rounds there were one
    # integral each, of 160 probes.  1,611 LogitTerms.of (1,451 without
    # those rounds) and 2,423 kernel passes when each probe of a batch
    # built its own terms and took its own kernel pass per integrand call;
    # now each integral builds one batch and each integrand call makes one
    # pass, and LogitTerms.of builds only the truths' terms (124 grids).
    ops = _workloads().population_sweep(0)
    assert len(ops) == 44
    for op in ops:
        assert main(list(op.argv) + ["--out", str(tmp_path)]) == op.expect_rc
    assert counts == {"integrals": 779, "integrand_calls": 1071}
    assert terms_built == {"LogitTerms.of": 124, "LogitTerms.batch": 779}
    assert kernel_passes == {"kernel_passes": counts["integrand_calls"]}
