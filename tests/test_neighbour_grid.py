"""scripts/neighbour_grid.py end to end at tiny sizes: the sweep and the kd-tree find the same pairs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "neighbour_grid.py"


def _script():
    spec = importlib.util.spec_from_file_location("neighbour_grid", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sweep_and_tree_agree_on_whole_and_sorted_bands(tmp_path):
    # at n = 400 the sd-2 pairs are within the scan budget and the sd-16 pairs past it
    out = tmp_path / "grid.json"
    assert _script().main(["--sizes", "400", "--sds", "2", "16", "--repeats", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cells = doc["cells"]
    assert [(cell["n"], cell["sd"], cell["r"]) for cell in cells] == [
        (400, 2, 0.08),
        (400, 2, 0.16),
        (400, 16, 0.3),
        (400, 16, 0.6),
    ]
    assert doc["digests_equal"] is True and all(cell["digests_equal"] for cell in cells)
    assert all(cell["pairs"] > 0 and cell["sweep_s"] > 0 and cell["tree_s"] > 0 for cell in cells)
    assert [cell["band_tests"] for cell in cells[:2]] == [400 * 399 // 2] * 2  # whole bands
    assert all(cell["pairs"] <= cell["band_tests"] < 400 * 399 // 2 for cell in cells[2:])  # sorted bands


def test_cells_past_the_pair_limit_are_reported_with_their_count(tmp_path):
    out = tmp_path / "grid.json"
    assert _script().main(["--sizes", "60", "--sds", "2", "--max-pairs", "0", "--out", str(out)]) == 0
    cells = json.loads(out.read_text())["cells"]
    assert [(cell["r"], cell["skipped"]) for cell in cells] == [(0.08, True), (0.16, True)]
    assert 0 < cells[0]["pairs"] <= cells[1]["pairs"]
