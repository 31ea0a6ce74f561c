"""Command-line entry point.

    ssem simulate|population|verify|sample --config <path>
         [--out <dir>] [--seed <u64>] [--set key=value ...]

Exit codes (frozen interface): 0 success, 2 configuration error, 3 numeric
failure, 4 a verified inequality failed.  Errors are emitted as one JSON
object on stderr.  All file writes are whole-file atomic (temp + rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from .analysis import (
    demonstrate_rescue,
    empirical_rate,
    gaussian_tail_sandwich,
    rate_bound_item1,
    rate_bound_item2,
    rate_bound_item3,
    verify_theorem1,
    verify_theorem2,
)
from .config import (
    SCHEMA_VERSION,
    RunConfig,
    apply_overrides,
    build_run_config,
    load_config_file,
    summary_header,
)
from .em import run_em
from .errors import ConfigError, SsemError, TrajectoryTooShort
from .population import run_population_em
from .sampling import sample_dataset, save_dataset_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VIOLATION = 4

VERIFY_TARGETS = ("thm1", "thm2", "thm3-1", "thm3-2", "thm3-3",
                  "lemma3", "rescue", "all")


def _jsonify(obj):
    """Map numpy scalars/arrays to plain types and non-finite floats to
    null so the emitted files stay strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_via(path: str, writer) -> None:
    """Whole-file atomic write: ``writer(tmp)`` fills a temporary file in
    the destination directory, which is then renamed over ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ssem-tmp-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonify(payload), indent=2) + "\n"
    _write_via(path, lambda tmp: Path(tmp).write_text(
        text, encoding="utf-8", newline="\n"))


def cmd_sample(cfg: RunConfig, out_dir: str) -> int:
    dataset = sample_dataset(cfg.kind, cfg.theta_star, cfg.sample_config())
    _write_via(os.path.join(out_dir, "dataset.csv"),
               lambda p: save_dataset_csv(dataset, p))
    summary = summary_header(cfg)
    summary.update({"m": dataset.m, "n": dataset.n, "gamma": dataset.gamma})
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return EXIT_OK


def _finish_run(cfg: RunConfig, out_dir: str, traj, start: float) -> int:
    """Write ``trajectory.csv`` and ``summary.json`` for an EM run begun at
    ``start`` (a ``perf_counter`` reading)."""
    _write_via(os.path.join(out_dir, "trajectory.csv"), traj.write_csv)
    try:
        rate = empirical_rate(traj, cfg.theta_star)
    except TrajectoryTooShort:
        rate = None
    summary = summary_header(cfg)
    summary.update({
        "final_theta": traj.final.theta.tolist(),
        "iterations": traj.n_steps,
        "empirical_rate": rate,
        "wall_time_s": time.perf_counter() - start,
    })
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    start = time.perf_counter()
    dataset = sample_dataset(cfg.kind, cfg.theta_star, cfg.sample_config())
    _write_via(os.path.join(out_dir, "dataset.csv"),
               lambda p: save_dataset_csv(dataset, p))
    traj = run_em(cfg.kind, dataset, cfg.theta0, cfg.em,
                  theta_star=cfg.theta_star)
    return _finish_run(cfg, out_dir, traj, start)


def cmd_population(cfg: RunConfig, out_dir: str) -> int:
    start = time.perf_counter()
    traj = run_population_em(cfg.population_model(), cfg.theta0,
                             max_iters=cfg.em.max_iters, tol=cfg.em.tol)
    return _finish_run(cfg, out_dir, traj, start)


def _verify_checks(cfg: RunConfig, which: str) -> list[dict]:
    checks: list[dict] = []
    if which == "thm1":
        pm = cfg.population_model()
        checks += verify_theorem1(pm, [cfg.kind.shift(cfg.theta_star, off)
                                       for off in cfg.probe_offsets]).checks()
    elif which == "thm2":
        pm = cfg.population_model()
        checks += verify_theorem2(pm, cfg.epsilons).checks()
    elif which == "thm3-1":
        for star in cfg.theta_star_grid:
            checks += rate_bound_item1(
                star, cfg.population_gamma(), cfg.scheme).checks()
    elif which == "thm3-2":
        for star in cfg.theta_star_grid:
            checks += rate_bound_item2(
                star, cfg.population_gamma(), cfg.scheme).checks()
    elif which == "thm3-3":
        for star in cfg.theta_star_grid:
            for off in cfg.item3_probe_offsets:
                checks += rate_bound_item3(star, cfg.population_gamma(),
                                           star + off, cfg.scheme).checks()
    elif which == "lemma3":
        for t in cfg.tail_grid:
            lower, upper, tail = gaussian_tail_sandwich(t)
            checks.append({"name": f"lemma3/lower_lt_tail[t={t:g}]", "probe": t,
                           "lhs": lower, "rhs": tail, "pass": lower < tail})
            checks.append({"name": f"lemma3/tail_lt_upper[t={t:g}]", "probe": t,
                           "lhs": tail, "rhs": upper, "pass": tail < upper})
    elif which == "rescue":
        pm = cfg.population_model()
        checks += demonstrate_rescue(pm, probe_offsets=cfg.probe_offsets).checks()
    else:
        raise ConfigError(f"unknown verify target {which!r}", field="verify")
    return checks


def cmd_verify(cfg: RunConfig, which: str, out_dir: str) -> int:
    if which == "all":
        targets = [w for w in VERIFY_TARGETS if w != "all"]
        # thm1 applies to the Gaussian kinds, thm2 to exponential families,
        # and thm3-* to the symmetric pair (on their own theta* grid).
        skip = {"thm1"} if cfg.kind.tag == "expfam" else {"thm2"}
        if cfg.kind.tag != "sym2":
            skip |= {"thm3-1", "thm3-2", "thm3-3"}
        targets = [t for t in targets if t not in skip]
    else:
        targets = [which]
    checks: list[dict] = []
    for target in targets:
        checks += _verify_checks(cfg, target)
    # Exit status considers only applicable checks; non-applicable entries
    # are reported but never fail the run.
    pass_all = all(c["pass"] for c in checks if c.get("applicable", True))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": dict(cfg.raw),
        "checks": checks,
        "pass_all": pass_all,
    }
    _write_json(os.path.join(out_dir, f"verify_{which}.json"), payload)
    return EXIT_OK if pass_all else EXIT_VIOLATION


def _emit_error(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    field = getattr(exc, "field", "")
    if field:
        payload["field"] = field
    iteration = getattr(exc, "iteration", None)
    if iteration is not None:
        payload["iteration"] = iteration
    print(json.dumps(payload), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssem",
        description="Semi-supervised EM simulator and rate-bound verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "population", "sample", "verify"):
        cmd = sub.add_parser(name)
        if name == "verify":
            cmd.add_argument("which", choices=VERIFY_TARGETS)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--set", dest="assignments", action="append",
                         default=[], metavar="KEY=VALUE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config_file(args.config)
        raw = apply_overrides(raw, args.assignments)
        if args.seed is not None:
            raw["data.seed"] = args.seed
        if args.out is not None:
            raw["output.directory"] = args.out
        cfg = build_run_config(raw)
        out_dir = cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
    except (ConfigError, OSError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG

    try:
        if args.command == "sample":
            return cmd_sample(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "population":
            return cmd_population(cfg, out_dir)
        return cmd_verify(cfg, args.which, out_dir)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except SsemError as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
