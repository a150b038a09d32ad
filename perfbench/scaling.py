"""Check that rescaled wall times follow real changes to the program.

The end-to-end wall times are rescaled to reference machine speed by a
probe that runs inside the workload (``speed.py``).  A program change
that also moves the probe's speed, for example memory-heavy work that
leaves the core slower for a while after it, is partly hidden by the
rescaling.  This check measures how much, with three known changes
made from outside the program:

``slower``
    extra pure-Python work before every ``probe_insert_batch`` call;
``bigger``
    an in-place sweep over a 32 MB array before every such call, which
    enlarges the working set and evicts the caches;
``batched``
    ``run_join`` on the batched instead of the columnar delivery path.

Repetitions of the unchanged program and of the variants run in
rotation, so drift in host speed falls on all of them alike and the
median raw ratio (variant over unchanged, within a rotation) is the
change's true effect.  For each variant the check prints the median
rescaled ratio next to it, and the share of the raw change that the
rescaled one shows.  It passes when every rescaled ratio is within
``--tolerance`` (by default the ``tuples_per_s`` bound) of the raw one.
Only the join workloads call ``probe_insert_batch`` and ``run_join``.

Usage (from the repository root)::

    python3 perfbench/scaling.py --workload paper-10pct --seed 1 --seconds 120
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from repro.core.hashing import DualHashTable  # noqa: E402
from speed import SpeedSampler  # noqa: E402

#: Pure-Python iterations added to every call by ``slower``.
EXTRA_ITERATIONS = 40_000
#: Bytes swept at every call by ``bigger``.
SWEEP_BYTES = 32 << 20


def _slower() -> None:
    total = 0
    for i in range(EXTRA_ITERATIONS):
        total += i


_SWEPT = np.zeros(SWEEP_BYTES // 8)


def _bigger() -> None:
    np.add(_SWEPT, 1.0, out=_SWEPT)


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    """``owner.attr`` bound to ``replacement(original)`` for the block."""
    original = vars(owner)[attr]
    setattr(owner, attr, replacement(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def before_each_probe(extra):
    """``probe_insert_batch`` with ``extra()`` run before every call."""

    def replacement(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra()
            return original(*args, **kwargs)

        return wrapper

    return patched(DualHashTable, "probe_insert_batch", replacement)


def batched_delivery():
    """``run_join`` on the batched instead of the columnar delivery path."""
    return patched(
        harness, "run_join", lambda original: functools.partial(
            original, columnar_delivery=False
        )
    )


VARIANTS = {
    "unchanged": contextlib.nullcontext,
    "slower": lambda: before_each_probe(_slower),
    "bigger": lambda: before_each_probe(_bigger),
    "batched": batched_delivery,
}


def measure(workload, inputs, variant) -> tuple[float, float]:
    """(raw, rescaled) wall seconds of one repetition."""
    with SpeedSampler() as sampler, variant():
        mark = sampler.mark()
        rep = harness.one_rep(workload, inputs)
    if not all(rep.ok):
        raise RuntimeError("a repetition missed the oracle")
    return rep.wall, rep.wall * sampler.scale(mark, rep.wall)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bound = next(
        m["bound"] for m in harness.MANIFEST["end_to_end"] if m["name"] == "tuples_per_s"
    )
    parser.add_argument(
        "--workload", default="paper-10pct", choices=["paper-10pct", "bursty-10pct"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=120.0)
    parser.add_argument("--tolerance", type=float, default=bound)
    args = parser.parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    inputs = harness.make_inputs(workload, args.seed)
    ratios: dict[str, dict[str, list[float]]] = {
        name: {"raw": [], "rescaled": []} for name in VARIANTS if name != "unchanged"
    }
    deadline = time.perf_counter() + args.seconds
    rotations = 0
    while rotations < 3 or time.perf_counter() < deadline:
        walls = {name: measure(workload, inputs, make) for name, make in VARIANTS.items()}
        base_raw, base_scaled = walls["unchanged"]
        for name, table in ratios.items():
            table["raw"].append(walls[name][0] / base_raw)
            table["rescaled"].append(walls[name][1] / base_scaled)
        rotations += 1
    ok = True
    for name, table in ratios.items():
        raw = statistics.median(table["raw"])
        scaled = statistics.median(table["rescaled"])
        agree = abs(scaled / raw - 1.0) <= args.tolerance
        ok &= agree
        print(
            f"{args.workload} {name}: raw ratio {raw:.4f}, rescaled ratio "
            f"{scaled:.4f}, rescaled/raw {scaled / raw:.4f}, change shown "
            f"{(scaled - 1.0) / (raw - 1.0):.0%} "
            f"({'ok' if agree else 'MISMATCH'}, {rotations} rotations)"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
