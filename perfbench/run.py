"""ssem benchmark: one workload, one fresh interpreter per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is imported from the
checkout's ``src`` directory and driven in-process through its public CLI
entry point ``ssem.cli.main(argv)``; ``perfbench/workloads.py`` lists the
ops of each workload.  Outputs go under ``.perfbench_work/``.

A run (closed loop, one caller):

1. ``setup_s``: ``SETUP_SAMPLES`` fresh interpreters each import ``ssem.cli``
   and load and validate the workload's configs (``setup_probe.py``); the
   median of the seconds from starting each until it is done.
2. One warm-up pass over the workload's ops, untimed, with full checks.
3. Timed passes for about ``--seconds`` (at least one; see ``Deadline``).
   Each op is timed on its own, wall and user+system CPU seconds; checks
   (``checks.py``) run outside those intervals.  ``wall_s`` and ``cpu_s``
   are best-of-k: the sum, over the ops of a pass, of each op's fastest
   pass.  On a machine shared with other tenants, whose load slows every
   op it overlaps for seconds to minutes, this moves far less between runs
   than per-op medians (which are printed too).  ``peak_rss_mib`` is the
   peak resident set of this process at the end.

With ``--trace 1`` the timed passes alternate between untraced and traced
(``tracer.py``) and the result holds the per-layer metrics: exact counters
(which must repeat across traced passes), median self times, and the
tracing overhead, traced minus untraced best-of-k wall seconds.  The spans of
the last traced pass are written to ``.perfbench_work/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``fail_frac`` and ``ops`` are
printed above it; the JSON carries them as ``failed`` and ``attempted``.
Exit code 0 after a measured run, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60

# name -> unit, for the end-to-end metrics reported with --trace 0.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
              "setup_s": "s"}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import ``ssem.cli`` from the checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ssem" / "cli.py").is_file():
        raise ProgramMissing(f"no ssem package under {src}")
    sys.path.insert(0, str(src))
    import ssem.cli

    if not Path(ssem.cli.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"ssem imported from {ssem.cli.__file__}, not {src}")
    return ssem


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read, not set."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ssem").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until the probe has
    validated the workload's configs, as the probe reports them."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
        proc = subprocess.run(cmd + [spawned], check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        samples.append(float(proc.stdout))
    return samples


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Runs passes over a workload's ops and checks every op's output."""

    def __init__(self, ssem, ops, checks, work: Path):
        self.ssem, self.ops, self.checks = ssem, ops, checks
        self.dirs = [work / f"op{i:02d}" for i in range(len(ops))]
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, argv) -> int | None:
        try:
            return self.ssem.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:  # an op that raises counts as failed
            traceback.print_exc()
            return None

    def run_pass(self, full: bool = False) -> tuple[list[float], list[float]]:
        """One pass over all ops: wall and CPU seconds of each op.  ``full``
        adds the checks that need not repeat on every pass."""
        wall, cpu = [], []
        for op, check, out in zip(self.ops, self.checks, self.dirs):
            argv = list(op.argv) + ["--out", str(out)]
            w0, c0 = time.perf_counter(), cpu_seconds()
            rc = self.call(argv)
            wall.append(time.perf_counter() - w0)
            cpu.append(cpu_seconds() - c0)
            self.attempted += 1
            try:
                why = check(rc, out, full)
            except (OSError, ValueError, KeyError) as exc:
                why = f"output unreadable: {exc!r}"
            if why is not None:
                self.failures.append(f"{op.label}: {why}")
        return wall, cpu


def summarize(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


class Deadline:
    """Says whether another pass fits: one that would end more than half a
    pass after ``seconds`` does not start."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()

    def another_pass(self) -> bool:
        now = time.perf_counter()
        cycle, self.last = now - self.last, now
        return now - self.start + cycle / 2 < self.seconds


def per_op(passes: list[list[float]], stat) -> float:
    """Sum over ops of ``stat`` of the op's times across passes."""
    return sum(stat(op) for op in zip(*passes))


def measure(runner: Runner, seconds: float) -> dict:
    walls, cpus = [], []
    deadline = Deadline(seconds)
    while not walls or deadline.another_pass():
        wall, cpu = runner.run_pass()
        walls.append(wall)
        cpus.append(cpu)
    return {"wall_s": walls, "cpu_s": cpus}


def measure_traced(runner: Runner, seconds: float, spans_path: Path):
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, times = [], [], []
    counts = None
    mismatch = []
    deadline = Deadline(seconds)
    while not traced or deadline.another_pass():
        if len(untraced) <= len(traced):
            untraced.append(runner.run_pass()[0])
            continue
        tracer.reset()
        with tracer:
            traced.append(runner.run_pass(full=True)[0])
        pass_counts, pass_times = tracer.metrics()
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            mismatch = sorted(k for k in counts if pass_counts[k] != counts[k])
        times.append(pass_times)
    with gzip.open(spans_path, "wt", encoding="utf-8", newline="\n") as fh:
        tracer.write_spans(fh)
    per_layer = {name: (value, "ratio" if isinstance(value, float) else "count")
                 for name, value in counts.items()}
    per_layer["sampling.save_dataset_csv.bytes"] = (
        counts["sampling.save_dataset_csv.bytes"], "B")
    for name in times[0]:
        per_layer[name] = (statistics.median(t[name] for t in times), "s")
    traced_wall, untraced_wall = per_op(traced, min), per_op(untraced, min)
    per_layer["trace.traced_wall_s"] = (traced_wall, "s")
    per_layer["trace.untraced_wall_s"] = (untraced_wall, "s")
    per_layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    per_layer["trace.overhead_frac"] = (
        (traced_wall - untraced_wall) / untraced_wall, "ratio")
    passes = {"traced_wall_s": traced, "untraced_wall_s": untraced}
    return per_layer, passes, mismatch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ssem = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from checks import OpCheck
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")

    env = environment()
    setup = setup_samples(args.workload, args.seed)
    ops = WORKLOADS[args.workload](args.seed)
    checks = [OpCheck(op, args.workload) for op in ops]
    work = WORK / f"{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(ssem, ops, checks, work)
    mismatch = []
    try:
        runner.run_pass(full=True)  # warm-up
        if args.trace:
            per_layer, passes, mismatch = measure_traced(
                runner, args.seconds, WORK / f"spans-{tag}.csv.gz")
        else:
            passes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    if args.trace:
        metrics = per_layer
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": per_op(passes["wall_s"], min),
                  "cpu_s": per_op(passes["cpu_s"], min),
                  "peak_rss_mib": peak,
                  "setup_s": statistics.median(setup)}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0 and not mismatch,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup_s": setup, "passes": passes,
              "pass_totals": {k: summarize([sum(p) for p in v])
                              for k, v in passes.items()},
              "per_op_median": {k: per_op(v, statistics.median)
                                for k, v in passes.items()},
              "failures": runner.failures, "counter_mismatch": mismatch,
              "result": result}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, stats in detail["pass_totals"].items():
        print(f"  {name + ' per pass':<27} median {stats['median']:.4f} s  "
              f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  passes {stats['n']}  "
              f"per-op medians {detail['per_op_median'][name]:.4f} s")
    s = summarize(setup)
    print(f"  {'setup_s per sample':<27} median {s['median']:.4f} s  q1 {s['q1']:.4f}  "
          f"q3 {s['q3']:.4f}  samples {s['n']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(f"  {'fail_frac':<44} {failed / runner.attempted:.6g} "
          f"(of ops={runner.attempted})")
    print(f"  {'ops':<44} {runner.attempted} count")
    for why in runner.failures[:20]:
        print(f"  FAILED {why}")
    if mismatch:
        print(f"  counters differ between traced passes: {mismatch}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
