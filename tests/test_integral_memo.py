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
from ssem.cli import main
from ssem.model import MixtureParams, ModelKind
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
    counter = []
    original = ssem.quadrature.integrate

    def counting(*args, **kwargs):
        counter.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ssem.quadrature, "integrate", counting)
    return counter


def _verify(tmp_path, cfg, which):
    return main(["verify", which, "--config", str(CONFIGS / cfg),
                 "--out", str(tmp_path)])


class TestIntegralsPerCommand:
    # thm3-2 reads thm3-1's derivatives, thm3-3 integrates one step per
    # probe (f(theta*) = theta*/2 needs none), and the rescue reads thm1's
    # probe moments, thm3-1's derivative at theta* and its own probe
    # moments at its first steps.
    @pytest.mark.parametrize("cfg, which, rc, integrals", [
        ("sym2.cfg", "all", 4, 54),
        ("sym2.cfg", "thm3-3", 4, 18),
        ("gmm3.cfg", "rescue", 0, 54),
        ("sym2.cfg", "thm3-2", 0, 6),
    ], ids=["sym2-all", "sym2-thm3-3", "gmm3-rescue", "sym2-thm3-2"])
    def test_integral_count(self, tmp_path, calls, cfg, which, rc, integrals):
        assert _verify(tmp_path, cfg, which) == rc
        assert len(calls) == integrals

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
