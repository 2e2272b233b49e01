"""scripts/ladder_levels.py end to end, with one tiny size and the same source on both sides."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ladder_levels.py"


def test_same_source_on_both_sides_gives_equal_levels(tmp_path):
    spec = importlib.util.spec_from_file_location("ladder_levels", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    src = str(ROOT / "src")
    out = tmp_path / "levels.json"
    argv = ["--side", f"a={src}", "--side", f"b={src}", "--sizes", "60", "--rounds", "1", "--repeats", "1"]
    assert script.main([*argv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    summary = doc["summary"]["60"]
    assert summary["labels_equal"] is True
    assert summary["a"]["levels"] == summary["b"]["levels"] >= 1
    assert [run["side"] for run in doc["runs"]] == ["a", "b"]
