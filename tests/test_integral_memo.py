"""Each distinct population integral is computed once per CLI command.

The responsibility moments at a probe and the sym2 derivative do not
depend on gamma, so one command reuses them across verify targets and
labeled fractions.  The reuse must end with the command and must not move
any number.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import ssem.population as population
import ssem.quadrature
from ssem.analysis import (
    demonstrate_rescue,
    rate_bound_item1,
    rate_bound_item2,
    rate_bound_item3,
    verify_theorem1,
)
from ssem.cli import VERIFIERS, main
from ssem.config import load_config_file
from ssem.model import MixtureParams, ModelKind, poisson_spec
from ssem.population import (
    PopulationModel,
    PopulationStep,
    QuadratureScheme,
    dm0_dtheta_sym2,
    expect,
)

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

GMM3 = MixtureParams([0.3, 0.4, 0.3], [-3.0, 0.0, 3.0])
OFFSETS = (0.2, 0.5, 0.8, 1.2, 1.7, 2.3, 3.0, 4.0)


@pytest.fixture
def calls(monkeypatch):
    """One entry per ``integrate`` call: the integrand calls it made."""
    counter = []
    original = ssem.quadrature.integrate

    def counting(f, *args, **kwargs):
        made = [0]

        def counted(y):
            made[0] += 1
            return f(y)

        try:
            return original(counted, *args, **kwargs)
        finally:
            counter.append(made[0])

    monkeypatch.setattr(ssem.quadrature, "integrate", counting)
    return counter


def _verify(tmp_path, cfg, which):
    return main(["verify", which, "--config", str(CONFIGS / cfg),
                 "--out", str(tmp_path)])


class TestIntegralsPerCommand:
    # Exact counts of work, which follow the code.  thm1 integrates its
    # grid as one batch; thm3-1 one derivative per theta* (6), which thm3-2
    # reads; thm3-3 one batch per theta* (6; f(theta*) = theta*/2 needs
    # none); the rescue reads thm1's batch and thm3-1's derivative at
    # theta*, and its two runs take one batch per round after the first,
    # which reads the grid's step: 6 rounds on sym2, 23 on gmm3 (whose
    # runs stop at max_iters = 24).  The sym2 lockstep stops after the
    # first round that leaves both runs at or below RATE_FLOOR; running on
    # to the tolerance it took 12 rounds, 25 integrals and 41 integrand
    # calls.  Integrand calls are the integrals plus their refinement
    # rounds.
    @pytest.mark.parametrize("cfg, which, rc, integrals, integrand_calls", [
        ("sym2.cfg", "all", 4, 19, 35),
        ("sym2.cfg", "thm3-3", 4, 6, 17),
        ("gmm3.cfg", "rescue", 0, 24, 28),
        ("sym2.cfg", "thm3-2", 0, 6, 9),
    ], ids=["sym2-all", "sym2-thm3-3", "gmm3-rescue", "sym2-thm3-2"])
    def test_integral_count(self, tmp_path, calls, cfg, which, rc, integrals,
                            integrand_calls):
        assert _verify(tmp_path, cfg, which) == rc
        assert len(calls) == integrals
        assert sum(calls) == integrand_calls

    def test_memo_ends_with_the_command(self, tmp_path, calls):
        assert _verify(tmp_path / "a", "sym2.cfg", "all") == 4
        first = len(calls)
        assert _verify(tmp_path / "b", "sym2.cfg", "all") == 4
        assert len(calls) - first == first
        a, b = (json.loads((tmp_path / d / "verify_all.json").read_text())
                for d in "ab")
        assert a["checks"] == b["checks"]

    def test_library_calls_outside_a_command_recompute(self, calls):
        pm = PopulationModel.sym2(1.5, 0.1)
        probe = MixtureParams.symmetric(2.0)
        PopulationStep.at(pm, probe)
        PopulationStep.at(pm, probe)
        dm0_dtheta_sym2(pm, 1.5)
        dm0_dtheta_sym2(pm, 1.5)
        assert len(calls) == 4

    def test_other_threads_do_not_see_the_memo(self, calls):
        pm = PopulationModel.sym2(1.5, 0.1)
        probe = MixtureParams.symmetric(2.0)

        def twice():
            PopulationStep.at(pm, probe)
            PopulationStep.at(pm, probe)

        with population.IntegralMemo():
            worker = threading.Thread(target=twice)
            worker.start()
            worker.join()
        assert len(calls) == 2

    def test_key_ignores_gamma_but_not_truth_or_scheme(self, calls):
        pm = PopulationModel(ModelKind.gmm(), GMM3, 0.1)
        probe = MixtureParams(GMM3.pi, GMM3.theta + 0.5)
        with population.IntegralMemo():
            PopulationStep.at(pm, probe)
            PopulationStep.at(pm.with_gamma(0.3), probe)
            assert len(calls) == 1
            moved = MixtureParams(GMM3.pi, GMM3.theta + 0.25)
            PopulationStep.at(PopulationModel(ModelKind.gmm(), moved, 0.1), probe)
            assert len(calls) == 2
            coarse = QuadratureScheme(abs_tol=1e-8)
            PopulationStep.at(PopulationModel(ModelKind.gmm(), GMM3, 0.1, coarse),
                              probe)
            assert len(calls) == 3


    def test_keys_are_the_grid_or_a_tagged_probe(self):
        pm = PopulationModel.sym2(1.5, 0.1)
        with population.IntegralMemo():
            PopulationStep.at(pm, MixtureParams.symmetric(2.0))
            dm0_dtheta_sym2(pm, 1.5)
            keys = set(population._memo.get())

        def probe(theta):
            params = MixtureParams.symmetric(theta)
            return (params.theta.tobytes(), params.pi.tobytes())

        truth = pm._truth_key
        assert keys == {("grid",) + truth,
                        ("moments",) + truth + probe(2.0),
                        ("dm0",) + truth + probe(1.5)}


class TestExactness:
    def test_cached_step_answers_another_gamma_bit_for_bit(self):
        pm = PopulationModel(ModelKind.gmm(), GMM3, 0.1)
        probe = MixtureParams(GMM3.pi, GMM3.theta + 0.8)
        with population.IntegralMemo():
            PopulationStep.at(pm, probe)
            cached = PopulationStep.at(pm.with_gamma(0.3), probe)
            scoped = [cached.m_gamma(k) for k in range(3)]
        fresh = PopulationStep.at(pm.with_gamma(0.3), probe)
        assert cached.pm.gamma == 0.3
        assert scoped == [fresh.m_gamma(k) for k in range(3)]
        assert cached.e_q.tobytes() == fresh.e_q.tobytes()
        assert cached.e_qt.tobytes() == fresh.e_qt.tobytes()

    def test_expect_reuses_the_grid_exactly(self):
        pm = PopulationModel.sym2(1.5, 0.0)

        def second(y):
            return y * y

        with population.IntegralMemo():
            expect(pm, np.cos)
            scoped = expect(pm, second)
        assert scoped == expect(pm, second)

    def test_verifier_reports_match_unscoped(self):
        gmm = PopulationModel(ModelKind.gmm(), GMM3, 0.1)
        probes = [MixtureParams(GMM3.pi, GMM3.theta + off) for off in OFFSETS]
        sym2 = PopulationModel.sym2(1.5, 0.1)
        sym2_probes = [MixtureParams.symmetric(1.5 + off) for off in OFFSETS]
        stars = (0.8, 1.5, 3.0)

        def reports():
            out = [verify_theorem1(gmm.with_gamma(0.3), probes),
                   verify_theorem1(gmm, probes),
                   demonstrate_rescue(gmm, probe_offsets=OFFSETS),
                   verify_theorem1(sym2, sym2_probes),
                   demonstrate_rescue(sym2, probe_offsets=OFFSETS)]
            for star in stars:
                out += [rate_bound_item1(star, 0.1), rate_bound_item2(star, 0.1)]
                out += [rate_bound_item3(star, 0.1, star + off)
                        for off in (1.01, 2.0)]
            return [repr(r) for r in out]

        with population.IntegralMemo():
            scoped = reports()
        assert scoped == reports()


class TestBatches:
    """The probes of a grid are integrated as one batch, whose every row
    meets ``abs_tol`` on its own; a value depends only on the truth and its
    batch."""

    SYM2 = PopulationModel.sym2(1.5, 0.1)
    POISSON = PopulationModel(ModelKind.expfam(poisson_spec()),
                              MixtureParams([0.5, 0.5], [0.5, 2.0]), 0.1)

    @pytest.mark.parametrize("pm, probes", [
        (PopulationModel(ModelKind.gmm(), GMM3, 0.1),
         [MixtureParams(GMM3.pi, GMM3.theta + off) for off in OFFSETS]),
        (SYM2, [MixtureParams.symmetric(1.5 + off) for off in OFFSETS]),
        (SYM2, [MixtureParams.symmetric(1.5 + off) for off in (1.01, 2.0, 4.0)]),
        (POISSON, [MixtureParams([0.5, 0.5], [0.5 + eps, 2.0 + eps])
                   for eps in (0.2, 0.1, 0.05, 0.025)]),
    ], ids=["gmm3-grid", "sym2-grid", "sym2-item3", "poisson-thm2"])
    def test_batched_moments_match_lone_integration(self, pm, probes):
        # A lone and a batched integral each hold every row within abs_tol
        # of the exact moment, so they differ by at most 2 * abs_tol a row.
        tol = 2.0 * pm.scheme.abs_tol
        for probe, step in zip(probes, population._steps_at(pm, probes)):
            lone = PopulationStep.at(pm, probe)
            assert step.theta is probe
            assert np.all(np.abs(step.e_q - lone.e_q) <= tol)
            assert np.all(np.abs(step.e_qt - lone.e_qt) <= tol)

    def test_a_probe_answers_only_its_own_batch(self, calls):
        # 3.5 is in both batches; the memo must not hand the second batch
        # the first one's value, and the first batch is remembered whole.
        first = [MixtureParams.symmetric(t) for t in (2.0, 3.5)]
        second = [MixtureParams.symmetric(t) for t in (3.5, 5.0)]
        fresh = population._steps_at(self.SYM2, second)
        with population.IntegralMemo():
            population._steps_at(self.SYM2, first)
            scoped = population._steps_at(self.SYM2, second)
            again = population._steps_at(self.SYM2, first)
        assert len(calls) == 3
        for a, b in zip(scoped, fresh):
            assert a.e_qt.tobytes() == b.e_qt.tobytes()
        assert again[0].e_qt.tobytes() == population._steps_at(
            self.SYM2, first)[0].e_qt.tobytes()

    @pytest.mark.parametrize("cfg", ["gmm3.cfg", "sym2.cfg", "poisson2.cfg"])
    def test_verify_all_matches_each_target(self, tmp_path, cfg):
        # verify all shares one memo across its targets; its checks must
        # be those of each target run on its own, bit for bit.
        kind = load_config_file(str(CONFIGS / cfg))["model.kind"]
        _verify(tmp_path / "all", cfg, "all")
        everything = json.loads((tmp_path / "all" / "verify_all.json")
                                .read_text())["checks"]
        each = []
        for target, (kinds, _) in VERIFIERS.items():
            if kind in kinds:
                _verify(tmp_path / target, cfg, target)
                each += json.loads((tmp_path / target / f"verify_{target}.json")
                                   .read_text())["checks"]
        assert everything == each
