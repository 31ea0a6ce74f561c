"""Run the benchmark over several seeds and workloads and summarize it.

    python3 perfbench/report.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--out results.json]

Each run is a separate ``run.py`` process, run one after another from the
checkout root.  Prints every end-to-end metric (and ``fail_frac`` over its
``ops``) per workload by name and unit: the median over runs, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and their spread
(q3 - q1) / median against the metric's bound in ``BENCHMARK.json``.  With
``--trace 1`` it prints the per-layer metrics and whether every counter
repeated exactly across runs.  ``--out`` saves the raw results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    return q1, med, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, args.seconds, args.trace)
            res["seed"] = seed
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'fail_frac':<48} {failed / attempted:.4g} (of ops={attempted})")
        print(f"  {'ops':<48} {attempted} count "
              f"({statistics.median(r['attempted'] for r in runs):g} per run)")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(values)
            line = f"  {name:<48} {med:.6g} {unit}"
            if args.trace:
                same = len(set(values)) == 1
                line += "  (same in every run)" if same else f"  q1 {q1:.6g} q3 {q3:.6g}"
            else:
                spread = (q3 - q1) / med if med else float("inf")
                bound = bounds.get(name)
                verdict = ""
                if bound is not None:
                    verdict = ("ok" if spread < bound / 3 else
                               "within bound" if spread <= bound else "TOO WIDE")
                line += (f"  q1 {q1:.6g} q3 {q3:.6g}  spread {spread:.4f}"
                         f"  bound {bound}  {verdict}")
            print(line)
        print()
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
