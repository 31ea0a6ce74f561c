"""Output checks that decide whether a benchmark op failed.

They run outside the timed interval.  An op fails when it raises, exits
with another code than the one listed for it, or fails its check:

* simulate: the sha256 of ``dataset.csv`` equals the digest of the same
  data rebuilt here from the frozen stream contract (Philox4x64-10 keyed by
  ``(seed, stream)``, inverse-CDF variates, 17 significant digits), and the
  digest pinned in ``digests.json`` where that file has one for the seed;
  ``load_dataset_csv`` round-trips to ``sample_dataset`` bit-exactly (on
  full checks only: once the bytes match, the round trip cannot change);
  ``trajectory.csv`` has ``iterations + 1`` rows; the final theta lies
  within ``6 / sqrt(N min pi_k)`` of the truth.
* population: the final error is at most 1e-9.
* verify: ``pass_all`` agrees with the exit code.  The sym2 ``verify all``
  must exit 4 with exactly the 18 ``thm3-3/*`` entries failing
  (acceptance criterion 05, red by design).

The functions used to rebuild expectations are bound at import, before any
tracer patches the package.  ``load_dataset_csv`` is looked up at call
time, so a traced run records the round trip as its span.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtri

import ssem.sampling
from ssem.cli import build_parser
from ssem.config import apply_overrides, build_run_config, load_config_file
from ssem.sampling import sample_dataset

PINNED = json.loads((Path(__file__).resolve().parent / "digests.json")
                    .read_text(encoding="utf-8"))["sha256"]
POPULATION_TOL = 1e-9
THM3_3_FAILURES = 18
_MIN_UNIFORM = 2.0 ** -54
_CHUNK = 1 << 16


def run_config(argv):
    """The validated config ``ssem.cli.main`` builds for ``argv``."""
    args = build_parser().parse_args(list(argv))
    raw = apply_overrides(load_config_file(args.config), args.assignments)
    if args.seed is not None:
        raw["data.seed"] = args.seed
    return build_run_config(raw)


def _quantile(kind):
    if kind.tag in ("gmm", "sym2"):
        return lambda th, u: th + ndtri(u)
    if kind.spec.name == "poisson":
        from scipy.stats import poisson
        return lambda th, u: poisson.ppf(u, np.exp(th)).astype(float)
    raise ValueError(f"no reference sampler for family {kind.spec.name!r}")


def _draws(quantile, theta, labels, u):
    y = np.empty_like(u)
    for k, th in enumerate(theta):
        mask = labels == k
        if mask.any():
            y[mask] = quantile(float(th), u[mask])
    return y


def reference_digest(cfg) -> str:
    """sha256 of the ``dataset.csv`` the stream contract fixes for ``cfg``."""
    if cfg.allocation != "proportional":
        raise ValueError("reference sampler covers proportional allocation")
    theta, pi = cfg.theta_star.theta, cfg.theta_star.pi
    quantile = _quantile(cfg.kind)

    def stream(index):
        key = np.array([cfg.seed, index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    counts = np.rint(pi * cfg.m).astype(np.int64)
    counts[np.argmax(pi)] += cfg.m - counts.sum()
    labels = np.repeat(np.arange(theta.size), counts)
    u1 = np.maximum(stream(1).random(cfg.m), _MIN_UNIFORM)
    labeled_y = _draws(quantile, theta, labels, u1)
    u2 = np.maximum(stream(2).random((cfg.n, 2)), _MIN_UNIFORM)
    comps = np.minimum(np.searchsorted(np.cumsum(pi), u2[:, 0], side="right"),
                       theta.size - 1)
    unlabeled_y = _draws(quantile, theta, comps, u2[:, 1])

    digest = hashlib.sha256(b"kind,x,y\n")
    for lo in range(0, cfg.m, _CHUNK):
        digest.update("".join(
            f"L,{x},{y:.17g}\n" for x, y in
            zip(labels[lo:lo + _CHUNK].tolist(), labeled_y[lo:lo + _CHUNK].tolist())
        ).encode())
    for lo in range(0, cfg.n, _CHUNK):
        digest.update("".join(
            f"U,,{y:.17g}\n" for y in unlabeled_y[lo:lo + _CHUNK].tolist()
        ).encode())
    return digest.hexdigest()


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class OpCheck:
    """Expectations for one op, built once and applied after every call."""

    def __init__(self, op, workload: str):
        self.op = op
        self.cfg = run_config(op.argv)
        self.digest = None
        if op.check == "simulate":
            self.digest = reference_digest(self.cfg)
            pinned = PINNED.get(f"{Path(op.argv[2]).name}:{self.cfg.seed}")
            if pinned is not None and pinned != self.digest:
                raise RuntimeError(
                    f"{workload}: reference digest {self.digest} disagrees with "
                    f"the pinned digest {pinned} for seed {self.cfg.seed}")

    def __call__(self, rc, out_dir: Path, full: bool = True) -> str | None:
        """Return why the op failed, or None."""
        op = self.op
        if rc != op.expect_rc:
            return f"exit code {rc}, expected {op.expect_rc}"
        if op.check == "simulate":
            return self._simulate(out_dir, full)
        if op.check == "population":
            return self._population(out_dir)
        return self._verify(rc, out_dir)

    def _summary(self, out_dir: Path) -> tuple[int, float]:
        """Iterations and max-norm final error from ``summary.json``."""
        summary = json.loads((out_dir / "summary.json").read_text())
        final = np.asarray(summary["final_theta"], dtype=float)
        err = float(np.max(np.abs(final - self.cfg.theta_star.theta)))
        return summary["iterations"], err

    def _simulate(self, out_dir: Path, full: bool) -> str | None:
        cfg = self.cfg
        dataset_csv = out_dir / "dataset.csv"
        got = file_digest(dataset_csv)
        if got != self.digest:
            return f"dataset.csv sha256 {got} != expected {self.digest}"
        if full:
            loaded = ssem.sampling.load_dataset_csv(dataset_csv)
            sampled = sample_dataset(cfg.kind, cfg.theta_star, cfg.sample_config())
            for attr in ("labeled_x", "labeled_y", "unlabeled_y"):
                a, b = getattr(loaded, attr), getattr(sampled, attr)
                if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                    return f"dataset.csv does not round-trip ({attr})"
        iterations, err = self._summary(out_dir)
        with open(out_dir / "trajectory.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != iterations + 1:
            return f"trajectory.csv has {rows} rows, expected {iterations + 1}"
        tol = 6.0 / math.sqrt(cfg.total_samples * float(np.min(cfg.theta_star.pi)))
        if not err <= tol:
            return f"final theta is {err:.3g} from the truth, allowed {tol:.3g}"
        return None

    def _population(self, out_dir: Path) -> str | None:
        _, err = self._summary(out_dir)
        if not err <= POPULATION_TOL:
            return f"population final error {err:.3g} > {POPULATION_TOL:g}"
        return None

    def _verify(self, rc, out_dir: Path) -> str | None:
        which = self.op.argv[1]
        report = json.loads((out_dir / f"verify_{which}.json").read_text())
        if report["pass_all"] != (rc == 0):
            return f"pass_all={report['pass_all']} with exit code {rc}"
        if self.op.check != "verify-sym2-all":
            return None
        failing = [c["name"] for c in report["checks"]
                   if c.get("applicable", True) and not c["pass"]]
        thm3_3 = [c["name"] for c in report["checks"]
                  if c["name"].startswith("thm3-3/")]
        if failing != thm3_3 or len(failing) != THM3_3_FAILURES:
            return (f"failing checks {failing} are not exactly the "
                    f"{THM3_3_FAILURES} thm3-3 entries")
        return None
