"""Compare two trees of ssem artifacts, leaving out what varies run to run.

Every file under either directory is compared with the file at the same
relative path under the other.  A ``.json`` file is parsed, its timing and
location keys are dropped (``timings_s``, ``wall_time_s``, ``cpu_s`` of
``dataset_writer`` and ``output.directory`` of ``config``), and the rest is
compared as the text ``json.dumps`` writes for it, so key order, a float's
digits, the sign of a zero and an int against a float all count.  Every
other file, ``dataset.csv`` and ``trajectory.csv`` among them, is compared
byte for byte.  Prints each path that differs or is in one tree only, and
exits 1 when there is one, else 0.

    python3 tools/same_bytes.py DIR_A DIR_B
"""

import json
import sys
from pathlib import Path

# The keys that vary run to run, each as its path from the top object.
_DROPPED = (("timings_s",), ("wall_time_s",), ("dataset_writer", "cpu_s"),
            ("config", "output.directory"))


def _comparable(path: Path) -> bytes:
    """What of ``path`` must be the same on both sides."""
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    payload = json.loads(data)
    for *parents, key in _DROPPED:
        node = payload
        for parent in parents:
            node = node.get(parent) if isinstance(node, dict) else None
        if isinstance(node, dict):
            node.pop(key, None)
    return json.dumps(payload).encode()


def differing(a: Path, b: Path) -> list[str]:
    """The relative paths, sorted, of the files that differ between the
    trees ``a`` and ``b`` or are in one of them only."""
    names = {p.relative_to(root).as_posix()
             for root in (a, b) for p in root.rglob("*") if p.is_file()}
    return sorted(name for name in names
                  if not ((a / name).is_file() and (b / name).is_file()
                          and _comparable(a / name) == _comparable(b / name)))


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: python3 tools/same_bytes.py DIR_A DIR_B", file=sys.stderr)
        return 2
    names = differing(Path(argv[0]), Path(argv[1]))
    for name in names:
        print(name)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
