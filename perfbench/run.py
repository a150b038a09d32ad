"""Run one workload of the HMJ benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-10pct --seed 1 --seconds 20 --trace 0

Workloads: ``paper-10pct``, ``bursty-10pct``, ``ample-200k``,
``tenants-64`` (declared in ``BENCHMARK.json``, defined in
``harness.py``, explained in ``rationale.json``).  With
``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Each metric is
printed on its own line; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    result = harness.run_workload(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    for error in result.pop("errors"):
        print(f"error: {error}", file=sys.stderr)
    metrics = {
        name: {"value": value, "unit": units[name][0]}
        for name, value in result["metrics"].items()
    }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
