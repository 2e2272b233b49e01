"""Tests of the benchmark itself: its checks, its tracer and its metadata.

Each correctness check must accept real program output and reject a
corrupted copy of it. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    w = workloads.SeriesTree(seed=3, workdir=tmp_path_factory.mktemp("tree"), n=300)
    w.setup()
    w.run_pass()
    return w, w.outputs()


@pytest.fixture(scope="module")
def smooth(tmp_path_factory):
    w = workloads.SeriesSmooth(seed=3, workdir=tmp_path_factory.mktemp("smooth"), n=40)
    w.setup()
    w.run_pass()
    return w, w.outputs()


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    w = workloads.Registry(seed=3, workdir=tmp_path_factory.mktemp("registry"))
    w.setup()
    w.run_pass()
    return w, w.outputs()


def test_tree_check_accepts_program_output(tree):
    w, out = tree
    assert w.check(out) == []


def test_tree_check_rejects_permuted_labels(tree):
    w, out = tree
    ids = list(w.truth)
    permuted = np.random.default_rng(0).permutation([w.truth[i] for i in ids])
    truth = w.truth
    try:
        w.truth = dict(zip(ids, permuted.tolist()))
        problems = w.check(out)
    finally:
        w.truth = truth
    assert any("impure" in p for p in problems)


def test_tree_check_rejects_broken_parent_link(tree):
    w, out = tree
    doc = json.loads(out["tree.json"])
    level = next(lev for lev in doc["levels"][:-1] if lev["clusters"])
    level["clusters"][0]["parent"] = len(doc["levels"][-1]["clusters"]) + 5
    bad = dict(out, **{"tree.json": json.dumps(doc).encode()})
    assert any("invalid parent" in p for p in w.check(bad))


def test_smooth_check_accepts_program_output(smooth):
    w, out = smooth
    assert w.check(out) == []


def test_smooth_check_rejects_one_perturbed_grid_value(smooth):
    w, out = smooth
    lines = out["grid.csv"].decode().split("\n")
    sid, t, v = lines[7].split(",")
    lines[7] = f"{sid},{t},{float(v) + 1e-9!r}"
    problems = w.check({"grid.csv": "\n".join(lines).encode()})
    assert any("deviates from the reference" in p for p in problems)


def test_registry_check_accepts_program_output_with_expected_failure(registry):
    w, out = registry
    assert json.loads(out["compensating"])["checks"]["closed_form_ratio_in_band"] is False
    assert w.check(out) == []


@pytest.mark.parametrize(
    "name, check",
    [("hartigan", "final_frequency_ge_095"), ("compensating", "closed_form_ratio_in_band")],
)
def test_registry_check_rejects_a_flipped_check(registry, name, check):
    w, out = registry
    doc = json.loads(out[name])
    doc["checks"][check] = not doc["checks"][check]
    problems = w.check(dict(out, **{name: json.dumps(doc).encode()}))
    assert problems == [f"{name}.{check} = {doc['checks'][check]}, documented {not doc['checks'][check]}"]


def test_tracer_restores_every_hooked_attribute():
    before = [getattr(h.owner, h.attr) for h in tracing.hooks()]
    tracer = tracing.Tracer()
    with tracer.installed():
        during = [getattr(h.owner, h.attr) for h in tracing.hooks()]
    after = [getattr(h.owner, h.attr) for h in tracing.hooks()]
    assert tracer.missing == []
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_traced_tree_pass_builds_two_indexes(tree):
    w, _ = tree
    tracer = tracing.Tracer()
    tracer.phase = "pass"
    with tracer.installed():
        w.run_pass()
    m = tracing.layer_metrics(tracer, passes=1, setups=1)
    assert m["spatial.index_builds"] == 2
    assert m["smoothing.slots"] == w.n * workloads.TREE_CONFIG["d"]
    assert m["clustering.dbscan_self_s"] > 0 and m["io.ingest_s"] > 0


def test_metric_names_agree_with_layer_map_and_benchmark_json():
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    names = set(tracing.layer_metrics(tracing.Tracer(), 1, 1))
    names |= {"trace.overhead_s", "trace.overhead_frac"}
    names |= {f"{kind}.sd{sd}" for kind in ("spatial.counts_s", "clustering.dbscan_s") for sd in tracing.PROBE_SDS}
    assert names == set(layers)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == (layers[m["name"]]["unit"], layers[m["name"]]["better"])
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
