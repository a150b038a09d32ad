"""Check that a regenerated benchmark manifest reproduces a committed one.

Every field must be equal except the ones that legitimately move from
one run or one checkout to the next: wall-clock seconds and the source
digest.  Prints one line per differing field and exits 1 if there is
any, 0 otherwise.

Usage (from the repository root)::

    git show HEAD:BENCH_service.json > committed.json
    python -m repro.bench.service --out BENCH_service.json
    python tools/manifest_diff.py committed.json BENCH_service.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Keys ignored at any depth: they differ between runs of the same code.
VOLATILE_KEYS = frozenset({"wall_seconds", "source_digest"})


def differences(committed, regenerated, path: str = "") -> list[str]:
    """``path: committed != regenerated`` lines, volatile keys skipped."""
    if isinstance(committed, dict) and isinstance(regenerated, dict):
        out = []
        for key in sorted(set(committed) | set(regenerated), key=str):
            if key in VOLATILE_KEYS:
                continue
            where = f"{path}.{key}" if path else str(key)
            if key not in committed:
                out.append(f"{where}: added")
            elif key not in regenerated:
                out.append(f"{where}: removed")
            else:
                out += differences(committed[key], regenerated[key], where)
        return out
    if isinstance(committed, list) and isinstance(regenerated, list):
        if len(committed) != len(regenerated):
            return [f"{path}: {len(committed)} items != {len(regenerated)} items"]
        out = []
        for i, (old, new) in enumerate(zip(committed, regenerated)):
            out += differences(old, new, f"{path}[{i}]")
        return out
    if type(committed) is not type(regenerated) or committed != regenerated:
        return [f"{path}: {committed!r} != {regenerated!r}"]
    return []


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: manifest_diff.py COMMITTED REGENERATED", file=sys.stderr)
        return 2
    committed, regenerated = (json.loads(Path(arg).read_text()) for arg in args)
    lines = differences(committed, regenerated)
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} field(s) differ", file=sys.stderr)
        return 1
    print("manifests match (wall_seconds and source_digest ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
