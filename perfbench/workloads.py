"""The benchmark's workloads: lists of ``ssem`` CLI invocations.

Each op is the argument list for ``ssem.cli.main`` (the output directory is
added by the runner), the exit code it must return, and the output check
that decides whether it failed.  Inputs are fixed here; only ``data.seed``
of the simulate ops comes from the workload seed.  ``population-sweep`` and
the population and verify ops of ``expfam-poisson`` use no random data, so
they are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"

# Population EM runs to the 1e-9 final-error check, not to the default stop.
POPULATION_SETS = ("--set", "em.max_iters=200", "--set", "em.tol=1e-13")
GAMMAS = (0.0, 0.1, 0.3, 0.5)
SYM2_STARS = (1.0, 1.5, 2.0, 3.0)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``argv`` for ``ssem.cli.main`` without ``--out``."""

    argv: tuple[str, ...]
    expect_rc: int
    check: str  # simulate | population | verify | verify-sym2-all

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _cfg(name: str) -> str:
    return str(CONFIGS / name)


def _simulate(cfg: str, seed: int) -> Op:
    return Op(("simulate", "--config", _cfg(cfg), "--seed", str(seed)),
              0, "simulate")


def simulate_gmm(seed: int) -> list[Op]:
    return [_simulate("gmm3.cfg", seed)]


def population_sweep(seed: int) -> list[Op]:
    ops = []
    for gamma in GAMMAS:
        sets = POPULATION_SETS + ("--set", f"data.gamma={gamma}")
        gmm = ("--config", _cfg("gmm3.cfg")) + sets
        ops += [Op(("population",) + gmm, 0, "population"),
                Op(("verify", "thm1") + gmm, 0, "verify"),
                Op(("verify", "rescue") + gmm, 0, "verify")]
        for star in SYM2_STARS:
            sym2 = (("--config", _cfg("sym2.cfg")) + sets
                    + ("--set", f"model.theta_star={star}",
                       "--set", f"em.theta0={star + 1.5}"))
            # verify all exits 4: the thm3-3 smoothness constant is wrong as
            # stated in the paper (acceptance criterion 05, red by design).
            ops += [Op(("population",) + sym2, 0, "population"),
                    Op(("verify", "all") + sym2, 4, "verify-sym2-all")]
    return ops


def expfam_poisson(seed: int) -> list[Op]:
    fixed = ("--config", _cfg("poisson2.cfg")) + POPULATION_SETS
    return [_simulate("poisson2.cfg", seed),
            Op(("population",) + fixed, 0, "population"),
            Op(("verify", "thm2") + fixed, 0, "verify")]


WORKLOADS = {
    "simulate-gmm": simulate_gmm,
    "population-sweep": population_sweep,
    "expfam-poisson": expfam_poisson,
}
