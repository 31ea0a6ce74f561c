"""Set-up probe, run in a fresh interpreter per sample of ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> <spawn time>

Imports ``ssem.cli`` from the checkout's ``src`` and loads and validates
every config of the workload the way ``ssem.cli.main`` does
(``load_config_file``, ``apply_overrides``, ``build_run_config``).  Then,
where the first op would start, it prints the seconds since ``<spawn
time>``, the parent's ``CLOCK_MONOTONIC`` reading just before it started
this process, and exits.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import run_config  # noqa: E402  (imports ssem.cli)
from workloads import WORKLOADS  # noqa: E402


def main(workload: str, seed: int, spawned: float) -> int:
    for op in WORKLOADS[workload](seed):
        run_config(op.argv)
    print(time.clock_gettime(time.CLOCK_MONOTONIC) - spawned)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3])))
