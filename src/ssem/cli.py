"""Command-line entry point.

    ssem simulate|population|verify|sample --config <path>
         [--out <dir>] [--seed <u64>] [--set key=value ...]

Exit codes (frozen interface): 0 success, 2 configuration error, 3 numeric
failure, 4 a verified inequality failed.  Errors are emitted as one JSON
object on stderr.  All file writes are whole-file atomic (temp + rename); a
write that fails (say, the output path is a directory) leaves no temporary
file behind and exits 2 with ``field: "output.directory"``, as does an
output directory that cannot be created.  ``simulate`` may write
``dataset.csv`` in a forked child process while it runs EM (see
:func:`cmd_simulate`); the same rules hold.

Every JSON artifact opens with :func:`ssem.config.summary_header` and is
written as the command holds it, in strict JSON: the header echoes a
config number with no JSON spelling as null, and any other non-finite
number raises ``ValueError``.

``verify <target>`` runs the checks of one target on the config's model;
``VERIFIERS`` lists the model kinds each target checks.  ``verify all``
runs every target that lists the config's kind, and a target named for a
kind it does not list exits 2 with ``field: "model.kind"``.

Each call builds the argument parser of its one command only;
:func:`build_parser` is the parser of all of them, and ``main`` parses the
same namespace as it does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager

from .analysis import (
    _rate_bound_item3_each,
    all_pass,
    demonstrate_rescue,
    empirical_rate,
    lemma3_checks,
    rate_bound_item1,
    rate_bound_item2,
    verify_theorem1,
    verify_theorem2,
)
from .config import (
    RunConfig,
    apply_overrides,
    build_run_config,
    load_config_file,
    summary_header,
)
from .em import run_em
from .errors import ConfigError, SsemError, TrajectoryTooShort
from .population import IntegralMemo, run_population_em
from .sampling import formatted_rows, sample_dataset, save_dataset_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VIOLATION = 4


@contextmanager
def _atomic_file(path: str):
    """Whole-file atomic write: yields a new temporary file in the
    destination directory, as the descriptor ``mkstemp`` opened and its
    name, for the ``with`` body to fill; then renames it over ``path``.
    The body owns the descriptor: it writes through it with ``open(fd,
    ...)``, which closes it, or closes it and writes by name.  If the body
    or the rename fails, the temporary file is removed; an ``OSError`` is
    raised again naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ssem-tmp-")
        yield fd, tmp
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    with _atomic_file(path) as (fd, _):
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


@contextmanager
def _timed(timings: dict, phase: str):
    """Record the seconds the ``with`` body takes as ``timings[phase]``."""
    start = time.perf_counter()
    yield
    timings[phase] = time.perf_counter() - start


def _sample(cfg: RunConfig, timings: dict):
    with _timed(timings, "sample"):
        return sample_dataset(cfg.kind, cfg.theta_star, cfg.sample_config())


def _write_dataset(dataset, out_dir: str, timings: dict) -> dict:
    """Write ``dataset.csv`` in this process; return the writer's summary
    entry."""
    with _timed(timings, "write_dataset"):
        cpu = time.process_time()
        with _atomic_file(os.path.join(out_dir, "dataset.csv")) as (fd, tmp):
            os.close(fd)
            save_dataset_csv(dataset, tmp)
    return {"process": "inline", "cpu_s": time.process_time() - cpu}


# Values the dataset writer must format (``formatted_rows``) before
# ``simulate`` hands the write to a child process.  Forking, exiting and
# reaping the child took 2.5-7.3 ms (median 3.4-3.6 ms) in a 61 MiB process
# with BLAS threads started, and the writer's kernel writes a row in
# 0.30-0.36 us (medians from 16,384 to 200,000 rows, 2-CPU Xeon), so the
# child pays once it writes more than about 11,000 rows, the median fork
# over the per-row cost; the threshold is the power of two above that.
# 16,384 rows take 5.9 ms.  A Poisson sample, whose values are grouped
# (43 distinct values in its two parts at N = 2e5), stays in process.
_FORK_WRITE_ROWS = 1 << 14


def _fork_writer(dataset, tmp: str) -> int:
    """Fork a child process that writes ``dataset`` to ``tmp`` and leaves
    through ``os._exit``, never returning: status 0 when written, the
    errno of an ``OSError`` that has one, else 255.  Returns its pid."""
    pid = os.fork()
    if pid == 0:
        status = 255
        try:
            save_dataset_csv(dataset, tmp)
            status = 0
        except OSError as exc:
            if exc.errno is not None and 0 < exc.errno < 255:
                status = exc.errno
        finally:
            os._exit(status)
    return pid


def _reap_writer(pid: int) -> float:
    """Wait for the writer ``pid`` and return its user+system CPU seconds;
    raise the ``OSError`` of its errno status, or ``ChildProcessError``
    when it failed without one."""
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if 0 < code < 255:
        raise OSError(code, os.strerror(code))
    if code:
        how = (f"was killed by signal {-code}" if code < 0
               else f"exited with status {code}")
        raise ChildProcessError(f"the dataset writer process {how}")
    return usage.ru_utime + usage.ru_stime


def _write_dataset_beside(dataset, out_dir: str, timings: dict, run):
    """Write ``dataset.csv`` in a forked child while this process calls
    ``run()``; return its result and the writer's summary entry.

    ``write_dataset`` is the seconds ``run`` did not hide: the fork, the
    wait and the rename.  As when the write comes first, a failed write is
    raised before a failure of ``run``, and a good write is committed
    before a failure of ``run`` is raised.
    """
    error = None
    start = time.perf_counter()
    with _atomic_file(os.path.join(out_dir, "dataset.csv")) as (fd, tmp):
        os.close(fd)
        pid = _fork_writer(dataset, tmp)
        timings["write_dataset"] = time.perf_counter() - start
        try:
            result = run()
        except BaseException as exc:  # raised once the write is settled
            error = exc
        start = time.perf_counter()
        cpu = _reap_writer(pid)
    timings["write_dataset"] += time.perf_counter() - start
    if error is not None:
        raise error
    return result, {"process": "child", "cpu_s": cpu}


def cmd_sample(cfg: RunConfig, out_dir: str) -> int:
    timings: dict = {}
    dataset = _sample(cfg, timings)
    _write_dataset(dataset, out_dir, timings)
    summary = summary_header(cfg)
    summary.update({"m": dataset.m, "n": dataset.n, "gamma": dataset.gamma,
                    "timings_s": timings})
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return EXIT_OK


def _finish_run(cfg: RunConfig, out_dir: str, traj, start: float,
                timings: dict, **extra) -> int:
    """Write ``trajectory.csv`` and ``summary.json`` for an EM run begun at
    ``start`` (a ``perf_counter`` reading); ``timings`` (seconds per phase)
    gains the trajectory write and goes into the summary as ``timings_s``,
    followed by the ``extra`` keys."""
    with _timed(timings, "write_trajectory"):
        with _atomic_file(os.path.join(out_dir, "trajectory.csv")) as (fd, _):
            traj.write_csv(fd)
    try:
        rate = empirical_rate(traj, cfg.theta_star)
    except TrajectoryTooShort:
        rate = None
    summary = summary_header(cfg)
    summary.update({
        "final_theta": traj.final.theta.tolist(),
        "iterations": traj.n_steps,
        "converged": traj.converged,
        "stop_reason": traj.stop_reason,
        "empirical_rate": rate,
        "wall_time_s": time.perf_counter() - start,
        "timings_s": timings,
        **extra,
    })
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    """Sample, write ``dataset.csv`` and run EM.  A write that formats at
    least ``_FORK_WRITE_ROWS`` values runs in a child process, beside EM."""
    start = time.perf_counter()
    timings: dict = {}
    dataset = _sample(cfg, timings)

    def em():
        with _timed(timings, "em"):
            return run_em(cfg.kind, dataset, cfg.theta0, cfg.em,
                          theta_star=cfg.theta_star)

    if hasattr(os, "fork") and formatted_rows(dataset) >= _FORK_WRITE_ROWS:
        traj, writer = _write_dataset_beside(dataset, out_dir, timings, em)
    else:
        writer = _write_dataset(dataset, out_dir, timings)
        traj = em()
    return _finish_run(cfg, out_dir, traj, start, timings,
                       dataset_writer=writer)


def cmd_population(cfg: RunConfig, out_dir: str) -> int:
    start = time.perf_counter()
    timings: dict = {}
    with _timed(timings, "em"):
        traj = run_population_em(cfg.population_model(), cfg.theta0,
                                 max_iters=cfg.em.max_iters, tol=cfg.em.tol)
    return _finish_run(cfg, out_dir, traj, start, timings,
                       final_error=traj.errors[-1])


def _checks_of(reports) -> list[dict]:
    return [check for report in reports for check in report.checks()]


def _at_each_star(bound):
    """The checks of a thm3 target: the sym2 rate ``bound`` at every theta*
    of ``verify.theta_stars``."""
    return lambda cfg: _checks_of(bound(star, cfg.population_gamma(), cfg.scheme)
                                  for star in cfg.theta_star_grid)


# Each verify target: the model kinds it checks, and its check entries for a
# config of one of them.  The paper's local result (thm2) covers
# exponential families, its contraction bound (thm1) the Gaussian kinds,
# and its rate bounds (thm3-*) the symmetric pair, on their own theta* grid.
# Each target integrates a probe grid as one batch: thm3-3 one per theta*.
# ``verify all`` runs, in this order, every target that lists the kind.
VERIFIERS = {
    "thm1": (("gmm", "sym2"), lambda cfg: verify_theorem1(
        cfg.population_model(), [cfg.kind.shift(cfg.theta_star, off)
                                 for off in cfg.probe_offsets]).checks()),
    "thm2": (("expfam",), lambda cfg: verify_theorem2(
        cfg.population_model(), cfg.theorem2_radii()).checks()),
    "thm3-1": (("sym2",), _at_each_star(rate_bound_item1)),
    "thm3-2": (("sym2",), _at_each_star(rate_bound_item2)),
    "thm3-3": (("sym2",), lambda cfg: _checks_of(
        report for star in cfg.theta_star_grid
        for report in _rate_bound_item3_each(
            star, cfg.population_gamma(),
            [star + off for off in cfg.item3_probe_offsets], cfg.scheme))),
    "lemma3": (("gmm", "sym2", "expfam"),
               lambda cfg: lemma3_checks(cfg.tail_grid)),
    "rescue": (("gmm", "sym2", "expfam"), lambda cfg: demonstrate_rescue(
        cfg.population_model(), probe_offsets=cfg._rescue_offsets()).checks()),
}


def cmd_verify(cfg: RunConfig, which: str, out_dir: str) -> int:
    """Run ``which`` (or, for ``all``, every target that checks the
    config's kind); a target that does not check it is a configuration
    error, raised before any integral."""
    targets = {target: run for target, (kinds, run) in VERIFIERS.items()
               if which in (target, "all") and cfg.kind.tag in kinds}
    if not targets:
        raise ConfigError(
            f"verify {which} checks {'/'.join(VERIFIERS[which][0])} models, "
            f"not {cfg.kind.tag}", field="model.kind")
    checks: list[dict] = []
    timings: dict = {}
    for target, run in targets.items():
        with _timed(timings, target):
            checks += run(cfg)
    pass_all = all_pass(checks)
    payload = summary_header(cfg)
    payload.update({"checks": checks, "pass_all": pass_all,
                    "timings_s": timings})
    _write_json(os.path.join(out_dir, f"verify_{which}.json"), payload)
    return EXIT_OK if pass_all else EXIT_VIOLATION


def _emit_error(kind: str, exc: Exception, field: str = "") -> None:
    """One JSON error object on stderr; ``field`` names the config key at
    fault when ``exc`` carries none."""
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    field = getattr(exc, "field", "") or field
    if field:
        payload["field"] = field
    iteration = getattr(exc, "iteration", None)
    if iteration is not None:
        payload["iteration"] = iteration
    print(json.dumps(payload), file=sys.stderr)


COMMANDS = ("simulate", "population", "sample", "verify")


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """The arguments of ``command``, declared once for both parsers."""
    if command == "verify":
        parser.add_argument("which", choices=[*VERIFIERS, "all"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--set", dest="assignments", action="append",
                        default=[], metavar="KEY=VALUE")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command: ``ssem <command> ...``."""
    parser = argparse.ArgumentParser(
        prog="ssem",
        description="Semi-supervised EM simulator and rate-bound verifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_options(sub.add_parser(name), name)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, built for the one command named
    in ``argv[0]``: a command line runs one command, and the parser of all
    of them costs most of a millisecond to build.  A missing or unknown
    command goes to the full parser, which reports it (exit 2)."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"ssem {argv[0]}")
    _add_options(parser, argv[0])
    return parser.parse_args(argv[1:],
                             namespace=argparse.Namespace(command=argv[0]))


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        raw = load_config_file(args.config)
        raw = apply_overrides(raw, args.assignments)
        if args.seed is not None:
            raw["data.seed"] = args.seed
        if args.out is not None:
            raw["output.directory"] = args.out
        cfg = build_run_config(raw)
    except (ConfigError, OSError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG

    out_dir = cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        # Integrals are shared by the targets and gammas of this command only.
        with IntegralMemo():
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
    except OSError as exc:  # the directory or an artifact could not be made
        _emit_error("config", exc, field="output.directory")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
