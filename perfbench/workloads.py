"""The benchmark workloads: set-up, one timed pass, and its correctness check.

Every workload draws its inputs from the benchmark seed alone, so one seed
always produces the same files. A pass is one user-level operation on those
inputs, run in-process; the program never sees the seed except where the
operation itself takes one (the registry experiments).

Why each workload exists, and which layer it should stress, is recorded in
`layers.json`; the sizes below are the ones stated there.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from flatclust import cli
from flatclust import experiments as fexp
from flatclust import io as fio
from flatclust import synthetic as fsyn
from flatclust.synthetic import ClusterTemplate, FunctionFamilySpec, TemplateComponent, lipschitz_family

import checks

M_OBS = 64

TREE_N = 1000
TREE_CONFIG = {"s": 2, "d": 4, "delta": 0.08, "k": 10, "k_ladder": [40, 10, 3]}

SMOOTH_N = 2500
SMOOTH_D = 32
SMOOTH_CONFIG = {"s": 1, "d": SMOOTH_D, "k": 10}  # smooth ignores k, but a config must set k or lambda

# Per-experiment overrides that shrink a registry pass from about 20 s to
# about 5 s on 2 cores, so one run holds several passes. Ladders are kept,
# so every slope check still fits. Trial counts and Monte Carlo budgets are
# a tenth of the pinned ones, except noisy_kde_gap, which keeps half: its
# gap_nonincreasing_le_1_inversion check broke on 3 of 30 seeds at a fifth
# of its trials and on none of 40 at half. Every check keeps its
# documented outcome on every seed tried.
REGISTRY_SCALE = {
    "hartigan": {"trials": 20},
    "kde_rate": {"trials": 2},
    "noisy_kde_gap": {"trials": 5},
    "sandwich": {"trials": 10},
    "smoothing_rate": {"trials": 2},
    "sym_diff_mc": {"pairs_per_dim": 1000, "mc_budget": 100_000},
}


def tree_family() -> FunctionFamilySpec:
    """Three two-component sinusoid clusters with real spread at sd = 8.

    The pinned lipschitz/jump families collapse each cluster to a near-atom
    (about n/2 points in every ball), and delta="auto" merges all clusters;
    both would time a degenerate all-pairs graph instead of the analyst's
    case of separated clusters with spread.
    """

    def template(o1: float, o2: float, phase: float) -> ClusterTemplate:
        return ClusterTemplate(
            components=(
                TemplateComponent(kind="sine", offset=o1, amp=0.1, freq=0.5, phase=phase),
                TemplateComponent(kind="sine", offset=o2, amp=0.1, freq=0.5, phase=phase + 0.25),
            ),
            offset_jitter=0.06,
            amp_jitter=0.5,
        )

    return FunctionFamilySpec(
        clusters=(template(0.22, 0.5, 0.0), template(0.5, 0.78, 0.5), template(0.78, 0.22, 0.25)),
        weights=(1 / 3, 1 / 3, 1 / 3),
        d=4,
        eps_bar=0.05,
    )


class SeriesTree:
    """`flatclust tree` on a series CSV: every layer runs."""

    name = "series_tree"
    sizes = {"n": TREE_N, "m": M_OBS, "s": 2, "d": 4, "sd": 8, "clusters": 3}

    def __init__(self, seed: int, workdir: Path, n: int = TREE_N):
        self.seed = seed
        self.n = n
        self.input = workdir / "series.csv"
        self.config = workdir / "tree_config.json"
        self.outdir = workdir / "tree_out"
        self.truth: dict[str, int] = {}

    @property
    def series(self) -> int:
        return self.n

    def setup(self) -> None:
        raws, labels, _ = fsyn.sample_raw_series(tree_family(), self.n, M_OBS, self.seed)
        fio.emit_series_csv(self.input, raws)
        fio.write_json_document(self.config, TREE_CONFIG)
        self.truth = {r.id: int(label) for r, label in zip(raws, labels)}

    def run_pass(self) -> None:
        argv = ["tree", "--config", str(self.config), "--input", str(self.input), "--outdir", str(self.outdir)]
        if cli.main(argv) != 0:
            raise RuntimeError("flatclust tree exited nonzero")

    def outputs(self) -> dict[str, bytes]:
        return {f: (self.outdir / f).read_bytes() for f in ("assignments.csv", "manifest.json", "tree.json")}

    def check(self, out: dict[str, bytes]) -> list[str]:
        tree = json.loads(out["tree.json"])
        assignments = checks.parse_assignments(out["assignments.csv"].decode())
        return checks.check_tree(tree, assignments, TREE_CONFIG["k"], self.truth, tree_family().C)


class SeriesSmooth:
    """`flatclust smooth` on a series CSV: ingest, smoothing and emit only."""

    name = "series_smooth"
    sizes = {"n": SMOOTH_N, "m": M_OBS, "s": 1, "d": SMOOTH_D, "grid_slots": SMOOTH_N * SMOOTH_D}

    def __init__(self, seed: int, workdir: Path, n: int = SMOOTH_N):
        self.seed = seed
        self.n = n
        self.input = workdir / "series.csv"
        self.config = workdir / "smooth_config.json"
        self.output = workdir / "grid.csv"
        self.ids: list[str] = []
        self.times = np.empty(0)
        self.values = np.empty(0)
        self._want: np.ndarray | None = None

    @property
    def series(self) -> int:
        return self.n

    def setup(self) -> None:
        raws, _, _ = fsyn.sample_raw_series(lipschitz_family(d=SMOOTH_D, eps_bar=0.05), self.n, M_OBS, self.seed)
        fio.emit_series_csv(self.input, raws)
        fio.write_json_document(self.config, SMOOTH_CONFIG)
        self.ids = [r.id for r in raws]
        self.times = raws[0].times
        self.values = np.stack([r.values for r in raws])

    def run_pass(self) -> None:
        argv = ["smooth", "--config", str(self.config), "--input", str(self.input), "--output", str(self.output)]
        if cli.main(argv) != 0:
            raise RuntimeError("flatclust smooth exited nonzero")

    def outputs(self) -> dict[str, bytes]:
        return {"grid.csv": self.output.read_bytes()}

    def check(self, out: dict[str, bytes]) -> list[str]:
        if self._want is None:
            self._want = checks.left_epanechnikov_grid(self.times, self.values, SMOOTH_D)
        ids, times, values = checks.parse_grid_csv(out["grid.csv"].decode(), self.n, SMOOTH_D, 1)
        return checks.check_smooth(ids, times, values, self.ids, self._want)


class Registry:
    """All eight verification experiments, as a researcher reruns them."""

    name = "registry"
    sizes = {"experiments": len(checks.REGISTRY_EXPECTED), "overrides": REGISTRY_SCALE}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.configs: dict[str, dict] = {}
        self.reports: dict[str, object] = {}

    @property
    def series(self) -> int:
        """Noisy series the registry generates and smooths in one pass."""
        smooth = fexp.SmoothingRateConfig.from_dict(self.configs["smoothing_rate"])
        gap = fexp.NoisyKdeGapConfig.from_dict(self.configs["noisy_kde_gap"])
        return len(smooth.m_ladder) * smooth.trials * smooth.series_per_trial + len(gap.m_ladder) * gap.trials * gap.n

    def setup(self) -> None:
        self.configs = {
            name: {**REGISTRY_SCALE.get(name, {}), "seed": self.seed} for name in fexp.experiment_names()
        }

    def run_pass(self) -> None:
        self.reports = {name: fexp.run_experiment(name, cfg) for name, cfg in self.configs.items()}

    def outputs(self) -> dict[str, bytes]:
        return {
            name: json.dumps(report.to_document(), sort_keys=True).encode()
            for name, report in self.reports.items()
        }

    def check(self, out: dict[str, bytes]) -> list[str]:
        return checks.check_registry({name: json.loads(doc)["checks"] for name, doc in out.items()})


WORKLOADS = {w.name: w for w in (SeriesTree, SeriesSmooth, Registry)}
