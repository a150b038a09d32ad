"""``tools/manifest_diff.py``: regenerated manifests must reproduce."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "manifest_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("manifest_diff", TOOL)
    assert spec is not None and spec.loader is not None
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_walls_and_digest_are_ignored_at_any_depth():
    tool = _tool()
    committed = json.loads((ROOT / "BENCH_service.json").read_text())
    regenerated = copy.deepcopy(committed)
    regenerated["source_digest"] = "0" * 16
    for cell in regenerated["cells"]:
        cell["wall_seconds"] *= 3
    regenerated["revocation"]["cell"]["wall_seconds"] += 1.0
    assert tool.differences(committed, regenerated) == []


def test_every_other_field_is_compared():
    tool = _tool()
    committed = {
        "cells": [{"tenants": 1, "time_to_first_k": {"mean": 0.5}}],
        "ok": True,
        "schema": 1,
    }
    regenerated = copy.deepcopy(committed)
    regenerated["cells"][0]["time_to_first_k"]["mean"] = 0.25
    regenerated["ok"] = 1  # equal as a number, but not as JSON
    del regenerated["schema"]
    regenerated["extra"] = []
    assert tool.differences(committed, regenerated) == [
        "cells[0].time_to_first_k.mean: 0.5 != 0.25",
        "extra: added",
        "ok: True != 1",
        "schema: removed",
    ]
    regenerated = copy.deepcopy(committed)
    regenerated["cells"].append({})
    assert tool.differences(committed, regenerated) == ["cells: 1 items != 2 items"]


def test_main_exit_codes(tmp_path, capsys):
    tool = _tool()
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"a": 1, "wall_seconds": 1.0}))
    new.write_text(json.dumps({"a": 1, "wall_seconds": 2.0}))
    assert tool.main([str(old), str(new)]) == 0
    new.write_text(json.dumps({"a": 2, "wall_seconds": 1.0}))
    assert tool.main([str(old), str(new)]) == 1
    assert "a: 1 != 2" in capsys.readouterr().out
    assert tool.main([str(old)]) == 2
