"""Tests of the benchmark's own tracer and reference checks.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The file name keeps the repository's test suite from collecting it.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import ssem.cli  # noqa: E402
import ssem.em  # noqa: E402
import ssem.model  # noqa: E402
import ssem.quadrature  # noqa: E402
from ssem import EmConfig, MixtureParams, ModelKind, SampleConfig, sample_dataset  # noqa: E402

from checks import PINNED, reference_digest, run_config  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CONFIGS  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def test_fixed_panels_count_one_call_and_fifteen_points_each():
    panels = 6
    tracer = Tracer()
    with tracer:
        value, _ = ssem.quadrature.integrate(
            lambda x: 3.0 * x * x - x + 2.0, 0.0, 2.0, abs_tol=1e-3,
            initial_panels=panels)
    counts, _ = tracer.metrics()
    assert abs(value - 10.0) < 1e-12
    assert counts["quadrature.integrate.calls"] == 1
    assert counts["quadrature.integrand.calls"] == 1
    assert counts["quadrature.integrand_evals"] == 15 * panels
    assert counts["quadrature.evals_per_call"] == 15.0 * panels


def test_three_em_iterations_make_two_estep_passes_each():
    kind = ModelKind.gmm()
    star = MixtureParams([0.3, 0.4, 0.3], [-3.0, 0.0, 3.0])
    data = sample_dataset(kind, star, SampleConfig(seed=5, m=12, n=40))
    theta0 = MixtureParams(star.pi, [-2.0, 0.5, 2.0])
    tracer = Tracer()
    with tracer:
        traj = ssem.em.run_em(kind, data, theta0,
                              EmConfig(max_iters=3, tol=1e-300))
    counts, _ = tracer.metrics()
    assert traj.n_steps == 3
    assert counts["em.iterations"] == 3
    assert counts["model.responsibilities.rows"] == 2 * 3 * data.n
    assert counts["em.run_em.n_x_iterations"] == 3 * data.n
    assert counts["em.estep_passes_per_iter"] == 2.0


def _traced_counts() -> dict:
    gmm, sym2 = str(CONFIGS / "gmm3.cfg"), str(CONFIGS / "sym2.cfg")
    small = ["--set", "data.total_samples=3000", "--seed", "3"]
    ops = [["simulate", "--config", gmm] + small,
           ["simulate", "--config", sym2] + small,
           ["population", "--config", gmm],
           ["verify", "rescue", "--config", sym2]]
    tracer = Tracer()
    with tracer:
        for i, argv in enumerate(ops):
            assert ssem.cli.main(argv + ["--out", str(WORK / f"op{i}")]) == 0
    return tracer.metrics()[0]


def test_two_traced_runs_give_identical_counters():
    try:
        first, second = _traced_counts(), _traced_counts()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    assert first == second
    assert first["em.iterations"] > 0
    assert first["quadrature.integrate.calls"] > 0
    assert first["sampling.save_dataset_csv.bytes"] > 0
    assert first["population.integrals_per_step.gmm"] == 6.0


def test_uninstall_restores_every_namespace():
    originals = (ssem.model.responsibilities, ssem.em.responsibilities,
                 ssem.cli.main, ssem.em.Trajectory.write_csv,
                 ssem.quadrature.integrate)
    with Tracer():
        assert ssem.em.responsibilities is ssem.model.responsibilities
        assert ssem.model.responsibilities is not originals[0]
    assert (ssem.model.responsibilities, ssem.em.responsibilities,
            ssem.cli.main, ssem.em.Trajectory.write_csv,
            ssem.quadrature.integrate) == originals


def test_reference_sampler_matches_pinned_digests():
    for name in ("gmm3.cfg", "poisson2.cfg"):
        cfg = run_config(("simulate", "--config", str(CONFIGS / name),
                          "--seed", "0"))
        assert reference_digest(cfg) == PINNED[f"{name}:0"], name


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
