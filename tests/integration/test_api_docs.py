"""``docs/api.md`` matches the public surface it is generated from."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "gen_api_docs.py"


def test_api_docs_are_current():
    spec = importlib.util.spec_from_file_location("gen_api_docs", TOOL)
    assert spec is not None and spec.loader is not None
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.TARGET.read_text() == tool.render(), (
        "docs/api.md is stale: run `python tools/gen_api_docs.py`"
    )
