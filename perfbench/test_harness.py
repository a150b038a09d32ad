"""Tests of the benchmark itself, at tiny scale.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import scaling  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from repro.service import QuerySpec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(name: str):
    """The named workload shrunk to run in well under a second."""
    workload = harness.WORKLOADS[name]
    if isinstance(workload, harness.TenantWorkload):
        return dataclasses.replace(
            workload,
            tenants=4,
            # A default QuerySpec's rate is n / 2 tuples per second.
            tenant=dataclasses.replace(workload.tenant, n=100, rate=50.0),
        )
    return dataclasses.replace(workload, n=1500)


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def rationale() -> dict:
    return json.loads((HERE / "rationale.json").read_text())


def test_manifest_is_well_formed():
    data = manifest()
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in data["workloads"]] == list(harness.WORKLOADS)
    for table in (harness.END_TO_END, harness.PER_LAYER):
        for name, (unit, better) in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
            assert better in ("higher", "lower")
    assert not set(harness.END_TO_END) & set(harness.PER_LAYER)
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
    assert data["paths"] == ["perfbench"]
    assert data["command"][1] == "perfbench/run.py"


def test_rationale_covers_every_metric():
    notes = rationale()
    assert set(notes["per_layer"]) == set(harness.PER_LAYER)
    assert set(notes["end_to_end"]) == set(harness.END_TO_END)
    for entry in notes["per_layer"].values():
        assert entry["layer"] and entry["should_move"]
    assert set(notes["reference"]["workloads"]) == set(harness.WORKLOADS)


def test_oracle_counts_every_matching_pair():
    inp = harness.join_input(tiny("paper-10pct"), seed=5)
    keys_b = inp.rel_b.columns().keys.tolist()
    brute = sum(keys_b.count(k) for k in inp.rel_a.columns().keys.tolist())
    assert inp.exact == brute > 0


def test_seed_plumbing_changes_relations_and_repeats_them():
    workload = tiny("tenants-64")
    first = harness.make_inputs(workload, 1)
    again = harness.make_inputs(workload, 1)
    other = harness.make_inputs(workload, 2)
    keys = [inp.rel_a.columns().keys.tolist() for inp in first]
    assert keys == [inp.rel_a.columns().keys.tolist() for inp in again]
    assert keys != [inp.rel_a.columns().keys.tolist() for inp in other]
    assert len({tuple(k) for k in keys}) == len(keys)  # tenants differ too


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_exactly_the_declared_metrics(trace):
    out = run_cli(
        ROOT, "--workload", "tenants-64", "--seed", "1", "--seconds", "0.01",
        "--trace", trace,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = manifest()["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_end_to_end_smoke(name, seed):
    result = harness.run_workload(tiny(name), seed, seconds=0.01, trace=False)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= harness.MIN_REPS
    assert set(result["metrics"]) == set(harness.END_TO_END)
    for name_, value in result["metrics"].items():
        assert math.isfinite(value) and value > 0, name_


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_smoke(name):
    result = harness.run_workload(tiny(name), 1, seconds=0.01, trace=True)
    assert result["correct"], result["errors"]
    metrics = result["metrics"]
    assert set(metrics) == set(harness.PER_LAYER)
    accounted = sum(metrics[m] for m in tracer.SELF_TIME_METRICS)
    assert accounted == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    assert all(metrics[m] >= 0 for m in tracer.SELF_TIME_METRICS)
    # Nested spans are attributed to the innermost layer.
    assert metrics["hmj.hashing_s"] >= metrics["hashing.probe_s"]
    assert metrics["source.tuples"] == sum(
        inp.tuples for inp in harness.make_inputs(tiny(name), 1)
    )


def test_tracer_restores_every_attribute():
    before = tracer.traced_attributes()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            during = tracer.traced_attributes()
            raise RuntimeError("a traced run that fails")
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, tracer.traced_attributes()))


def test_wrong_output_counts_as_failed(monkeypatch):
    real = harness.join_size
    monkeypatch.setattr(harness, "join_size", lambda a, b: real(a, b) + 1)
    result = harness.run_workload(tiny("paper-10pct"), 1, seconds=0.01, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= harness.MIN_REPS


def test_tenant_matches_the_service_query_spec():
    workload = tiny("tenants-64")
    inp = harness.join_input(workload.tenant, seed=3, index=0)
    src_a, src_b, operator = harness.build_join(workload.tenant, inp)
    sim = harness.JoinSimulation(src_a, src_b, operator, keep_results=False)
    ours = harness.Query(sim).run()
    spec = QuerySpec(n=workload.tenant.n, seed=harness.derive_seed(3, 0))
    theirs = spec.build().run()
    assert (ours.count, ours.clock.now, ours.disk.io_count) == (
        theirs.count, theirs.clock.now, theirs.disk.io_count
    )
    assert ours.count == inp.exact


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_cli(
        tmp_path, "--workload", "paper-10pct", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_speed_probe_creates_no_container():
    gc.collect()
    before = gc.get_count()[0]
    for _ in range(50):
        speed._probe()
    assert gc.get_count()[0] - before <= 1


@pytest.mark.parametrize("variant", list(scaling.VARIANTS))
def test_scaling_variants_run_correctly_and_restore(variant):
    workload = tiny("paper-10pct")
    inputs = harness.make_inputs(workload, 1)
    before = (vars(scaling.DualHashTable)["probe_insert_batch"], harness.run_join)
    raw, rescaled = scaling.measure(workload, inputs, scaling.VARIANTS[variant])
    assert raw > 0 and rescaled > 0
    assert before == (vars(scaling.DualHashTable)["probe_insert_batch"], harness.run_join)
