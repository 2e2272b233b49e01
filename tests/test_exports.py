import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import flatclust
from flatclust import spatial


def test_every_exported_name_resolves():
    """Each module's __all__ names only what it defines, and the package re-exports only those."""
    modules = [
        importlib.import_module(f"flatclust.{m.name}")
        for m in pkgutil.iter_modules(flatclust.__path__)
        if m.name != "__main__"  # importing it runs the command line
    ]
    assert all(hasattr(mod, "__all__") for mod in modules)
    stale = [f"{mod.__name__}.{name}" for mod in modules for name in mod.__all__ if not hasattr(mod, name)]
    assert stale == []
    exported = {name for mod in modules for name in mod.__all__}
    reexported = [
        name
        for name, value in vars(flatclust).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert reexported and set(reexported) <= exported


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running code with flatclust importable."""
    probe = f"import sys\n{code}\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(flatclust.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=300)
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["flatclust", "flatclust.cli"])
def test_import_loads_no_scipy(module):
    """scipy is imported where it is called, so importing the package or the command line skips it."""
    assert _scipy_modules_after(f"import {module}") == []


def test_queries_on_both_sides_of_the_scan_budget_load_no_scipy_spatial():
    """A KdeModel's counts within and past the scan budget, its pairs and a single query load no scipy.spatial."""
    counts = (
        "import numpy as np\n"
        "from flatclust import spatial\n"
        "from flatclust.density import KdeModel, kde_counts_batch\n"
        "pts = np.random.default_rng(0).uniform(size=(2000, 2))\n"
        "assert 2000 * 2000 * 2 > 2000 * 1999 // 2 * 2 > spatial._SCAN_BUDGET >= 100 * 2000 * 2\n"
        "model = KdeModel(pts, 0.05)\n"
        "assert kde_counts_batch(model, pts[:100]).min() >= 1 and kde_counts_batch(model, pts).min() >= 1\n"
        "assert model.index.pair_sq_dists(0.05)[0].size and model.index.count_within(pts[0], 0.05) >= 1"
    )
    assert "scipy.spatial" not in _scipy_modules_after(counts)


ORACLE_IMPORTS = {
    "sq_dists",
    "_checked_link",
    "_checked_radius",
    "flat_array",
    "Labeling",
    "NOISE",
    "RawSeries",
    "KdeModel",
}


def test_oracles_stay_apart_from_the_code_they_check():
    """tests/oracles.py imports from flatclust only the kernel, checks and data types; no module holds an oracle.

    The one path into the code under test is kde_eval's model.index.count_within,
    the index's single-query scan, which no pipeline query takes.
    """
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "flatclust" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flatclust":
            assert node.module != "flatclust"  # every name from its own module
            imported |= {alias.name for alias in node.names}
    assert imported <= ORACLE_IMPORTS
    index_calls = {
        (fn.name, node.attr)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and node.value.attr == "index"
    }
    assert index_calls == {("kde_eval", "count_within")}
    oracles = {
        node.name if not isinstance(node, ast.Assign) else node.targets[0].id
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign))
    }
    assert oracles == {
        "_BRUTE_GUARD",
        "_UnionFind",
        "ball_union_components",
        "components_bruteforce",
        "kernel_symmetric",
        "smooth_at_symmetric",
        "kde_eval",
        "brute_indices_within",
        "brute_count_within",
    }
    names = pkgutil.iter_modules(flatclust.__path__)
    modules = [flatclust] + [importlib.import_module(f"flatclust.{m.name}") for m in names if m.name != "__main__"]
    held = {
        (mod.__name__, name)
        for mod in modules
        for name in oracles
        if hasattr(mod, name) or name in getattr(mod, "__all__", ())
    }
    assert held == set()


def _loads_csgraph(loaded: list[str]) -> bool:
    return any(m.split(".")[:3] == ["scipy", "sparse", "csgraph"] for m in loaded)


def _tree_command_modules(tmp_path, n: int) -> list[str]:
    """The scipy modules `flatclust tree` loads on n series of 32 observations, flattened to sd = 4."""
    from flatclust.io import emit_series_csv, write_json_document
    from flatclust.synthetic import lipschitz_family, sample_raw_series

    raws, _, _ = sample_raw_series(lipschitz_family(d=4, eps_bar=0.02), n, 32, seed=14)
    emit_series_csv(tmp_path / "series.csv", raws)
    write_json_document(tmp_path / "config.json", {"s": 1, "d": 4, "delta": 0.1, "k": 3, "k_ladder": [6, 3, 1]})
    argv = ["tree", "--config", "config.json", "--input", "series.csv", "--outdir", "out"]
    tree = f"import os; os.chdir({str(tmp_path)!r}); from flatclust.cli import main; assert main({argv!r}) == 0"
    return _scipy_modules_after(tree)


def test_tree_command_loads_no_csgraph(tmp_path):
    """`flatclust tree` labels its levels without scipy.sparse.csgraph, and past the scan budget clusters without scipy.spatial."""
    n = 800
    assert n * (n - 1) // 2 * 4 > spatial._SCAN_BUDGET  # past the scan budget, the pair pass sweeps sorted bands
    loaded = _tree_command_modules(tmp_path, n)
    assert "scipy.spatial" not in loaded
    assert not _loads_csgraph(loaded)


def test_series_tree_commands_load_no_scipy_spatial(tmp_path):
    """`flatclust cluster` and `flatclust tree` on the benchmark's series_tree inputs load no scipy.spatial.

    1000 series in three clusters, flattened to sd = 8, at delta 0.08: the
    pair pass is past the scan budget, so it sweeps sorted bands.
    """
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    run = (
        f"import os; sys.path.insert(0, {perfbench!r}); os.chdir({str(tmp_path)!r})\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "from flatclust.cli import main\n"
        "inputs = workloads.SeriesTree(1, Path('.'))\n"
        "inputs.setup()\n"
        "assert (inputs.n, inputs.sizes['sd'], workloads.TREE_CONFIG['delta']) == (1000, 8, 0.08)\n"
        "for command in ('cluster', 'tree'):\n"
        "    argv = [command, '--config', str(inputs.config), '--input', str(inputs.input), '--outdir', command]\n"
        "    assert main(argv) == 0"
    )
    assert 1000 * 999 // 2 * 8 > spatial._SCAN_BUDGET
    assert "scipy.spatial" not in _scipy_modules_after(run)


def test_small_tree_command_loads_no_scipy(tmp_path):
    """On 24 series the pair pass is within the scan budget, so `flatclust tree` loads no scipy at all."""
    assert _tree_command_modules(tmp_path, 24) == []


def test_no_experiment_loads_scipy_optimize():
    """Every registered experiment at its pinned config leaves scipy.optimize, scipy.sparse.csgraph and scipy.spatial unloaded.

    No GridIndex query loads scipy.spatial, and their only indexes off a
    line are within its scan budget. compensating loads no scipy at all.
    """
    pinned = Path(__file__).parent / "pinned_reports.json"
    run_all = (
        "import json; from flatclust.experiments import run_experiment\n"
        f"for name, pin in json.loads(open({str(pinned)!r}).read())['reports'].items():\n"
        "    run_experiment(name, pin['config'])"
    )
    loaded = _scipy_modules_after(run_all)
    assert "scipy.special" in loaded  # the probe ran sym_diff_mc, whose betainc needs scipy
    assert "scipy.spatial" not in loaded
    assert [m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]] == []
    assert not _loads_csgraph(loaded)
    pin = json.loads(pinned.read_text())["reports"]["compensating"]["config"]
    compensating = f"from flatclust.experiments import run_experiment; run_experiment('compensating', {pin!r})"
    assert _scipy_modules_after(compensating) == []


def test_line_experiments_load_no_scipy():
    """kde_rate, sandwich, hartigan and smoothing_rate at their pinned configs load no scipy module.

    The first three count balls and cluster on a line, where GridIndex.counts_within
    and the clustering sweep read runs of one sort.
    """
    pinned = json.loads((Path(__file__).parent / "pinned_reports.json").read_text())["reports"]
    configs = {name: pinned[name]["config"] for name in ("kde_rate", "sandwich", "hartigan", "smoothing_rate")}
    run = (
        "from flatclust.experiments import run_experiment\n"
        f"for name, config in {configs!r}.items(): run_experiment(name, config)"
    )
    assert _scipy_modules_after(run) == []
