"""Per-layer tracing from outside the program.

`Tracer.installed()` replaces each layer's public functions and methods at
the place their callers look them up (for example `flatclust.io.dbscan_cluster`,
which is what `run_cluster` calls, or `GridIndex.counts_within_all` on the
class) with a timing wrapper, and restores the originals on exit. The
untraced run never enters it, so it measures the program untouched.

Calls made a few times per pass become spans (name, pass, parent, start,
end) kept in memory and written out with the results. Hot calls, made
thousands of times per pass, only add to a count and a total time. Either
kind charges its duration to the enclosing call, so a layer's self time is
its duration minus the time of the calls it made into other layers.

A hook whose target no longer exists is skipped and listed in `missing`,
and the metrics it fed read 0, so the benchmark keeps running while the
program's internals change.
"""

from __future__ import annotations

import functools
import os
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

import flatclust.clustering as fclust
import flatclust.density as fdens
import flatclust.experiments as fexp
import flatclust.io as fio
import flatclust.series as fseries
import flatclust.spatial as fspatial
import flatclust.synthetic as fsyn
from flatclust.smoothing import EmptyWindowWarning


@dataclass(frozen=True)
class Hook:
    owner: object
    attr: str
    name: str | Callable  # layer.operation, or a function of the call's args
    hot: bool = False
    on_result: Callable | None = None


def _ingest(tr, result, args, kwargs):
    tr.add("io.rows_read", sum(r.m for r in result))
    tr.add("io.bytes_read", os.path.getsize(args[0]))


def _read(tr, result, args, kwargs):
    tr.add("io.bytes_read", os.path.getsize(args[0]))


def _written(tr, result, args, kwargs):
    tr.add("io.bytes_written", os.path.getsize(args[0]))


def _smoothed(tr, result, args, kwargs):
    tr.add("smoothing.slots", sum(g.d for g in result))


def _counted(tr, result, args, kwargs):
    tr.add("spatial.ball_points", len(result))
    tr.add("spatial.ball_total", int(np.sum(result)))


def _radius(tr, result, args, kwargs):
    if isinstance(result, np.ndarray) and tr.inside("clustering."):
        # each link query returns the point itself plus every neighbour,
        # and each linked pair is returned by both of its endpoints
        tr.add("clustering.link_pairs", (result.size - 1) / 2)


def _dbscan(tr, result, args, kwargs):
    a = np.asarray(result.assignments)
    tr.add("clustering.labelings", 1)
    tr.add("clustering.core_points", int(np.count_nonzero(a >= 0)))
    tr.add("clustering.clusters", result.n_clusters)
    tr.add("clustering.noise_frac_sum", float(np.mean(a < 0)) if a.size else 0.0)


def _batch(tr, result, args, kwargs):
    model, queries = args[0], np.atleast_2d(args[1])
    tr.add("density.pair_tests", queries.shape[0] * model.n)


def hooks() -> list[Hook]:
    out = [
        Hook(fio, "ingest_series_csv", "io.ingest", on_result=_ingest),
        Hook(fio, "read_json_document", "io.read_json", on_result=_read),
        Hook(fio, "emit_series_csv", "io.emit", on_result=_written),
        Hook(fio, "emit_assignments_csv", "io.emit", on_result=_written),
        Hook(fio, "write_json_document", "io.emit", on_result=_written),
        Hook(fio, "run_cluster", "io.run_cluster"),
        Hook(fio, "run_smooth", "smoothing.run_smooth", on_result=_smoothed),
        Hook(fseries.RawSeries, "__init__", "series.raw_build", hot=True),
        Hook(fspatial.GridIndex, "__init__", "spatial.index_build", hot=True),
        Hook(fspatial.GridIndex, "counts_within_all", "spatial.counts", hot=True, on_result=_counted),
        Hook(fspatial.GridIndex, "indices_within", "spatial.radius_query", hot=True, on_result=_radius),
        Hook(fspatial.GridIndex, "count_within", "spatial.radius_query", hot=True),
        Hook(fdens.KdeModel, "__init__", "density.model", hot=True),
        Hook(fdens, "kde_counts_batch", "density.batch", on_result=_batch),
        Hook(fexp, "kde_counts_batch", "density.batch", on_result=_batch),
        Hook(fexp, "ball_sym_diff_volume", "geometry.sym_diff", hot=True),
        Hook(fexp, "sample_raw_series", "synthetic.sample", hot=True),
        Hook(fsyn, "sample_raw_series", "synthetic.sample", hot=True),
        Hook(fsyn.MixtureSpec, "sample", "synthetic.sample", hot=True),
        Hook(fexp, "run_experiment", lambda name, *rest: f"experiments.{name}"),
    ]
    for owner in (fio, fexp):
        out += [
            Hook(owner, "estimate_grid_series", "smoothing.estimate", hot=True),
            Hook(owner, "flatten", "series.flatten", hot=True),
            Hook(owner, "dbscan_cluster", "clustering.dbscan", on_result=_dbscan),
            Hook(owner, "cluster_tree", "clustering.tree"),
        ]
    return out


class Tracer:
    """Spans, counts and times, grouped by phase ("setup", "pass", ...)."""

    def __init__(self):
        self.phase = "setup"
        self.pass_id: int | None = None
        self.spans: list[dict] = []
        self.totals: dict[tuple, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, seconds spent in callees]
        self._t0 = time.perf_counter()

    def add(self, key: str, value: float) -> None:
        self.totals[(self.phase, key)] += value

    def get(self, phase: str, key: str) -> float:
        return self.totals.get((phase, key), 0.0)

    def inside(self, prefix: str) -> bool:
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = hook.name(*args) if callable(hook.name) else hook.name
            frame = [name, 0.0]
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            took = end - start
            if parent is not None:
                parent[1] += took
            tracer.add(name + ".calls", 1)
            tracer.add(name + ".s", took)
            tracer.add(name + ".self_s", took - frame[1])
            if not hook.hot:
                tracer.spans.append(
                    {
                        "name": name,
                        "phase": tracer.phase,
                        "pass": tracer.pass_id,
                        "parent": parent[0] if parent else None,
                        "start_s": start - tracer._t0,
                        "end_s": end - tracer._t0,
                        "self_s": took - frame[1],
                    }
                )
            if hook.on_result is not None:
                hook.on_result(tracer, result, args, kwargs)
            return result

        return traced

    def _count_warning(self, message, category, *rest):
        if issubclass(category, EmptyWindowWarning):
            self.add("smoothing.empty_windows", 1)

    @contextmanager
    def installed(self):
        """Wrap every hook target for the duration of the block."""
        saved = []  # (owner, attr, what the owner itself held, or None if inherited)
        self.missing = []
        try:
            for hook in hooks():
                if not hasattr(hook.owner, hook.attr):
                    self.missing.append(f"{getattr(hook.owner, '__name__', hook.owner)}.{hook.attr}")
                    continue
                saved.append((hook.owner, hook.attr, vars(hook.owner).get(hook.attr)))
                setattr(hook.owner, hook.attr, self._wrap(hook, getattr(hook.owner, hook.attr)))
            with warnings.catch_warnings():
                warnings.simplefilter("always", EmptyWindowWarning)
                warnings.showwarning = self._count_warning
                yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


# sd-sweep probe: dbscan_cluster on two-component mixture points at fixed n,
# the dimension-cliff table of the roadmap at a size one traced run affords.
PROBE_N = 400
PROBE_SDS = (1, 2, 4, 8, 16)
PROBE_K = 5


def probe_mixture(sd: int) -> fsyn.MixtureSpec:
    def box(lo: float, hi: float) -> fsyn.MixtureComponent:
        return fsyn.MixtureComponent(bumps=tuple(fsyn.Bump1D(lo, hi, "triangular") for _ in range(sd)))

    return fsyn.MixtureSpec(components=(box(0.05, 0.45), box(0.55, 0.95)), weights=(0.5, 0.5))


def sd_probe(tracer: Tracer, seed: int) -> dict[str, float]:
    out = {}
    for sd in PROBE_SDS:
        points, _ = probe_mixture(sd).sample(PROBE_N, seed)
        delta = 0.08 if sd <= 2 else 0.3
        tracer.phase = f"sd{sd}"
        with tracer.installed():
            start = time.perf_counter()
            fclust.dbscan_cluster(points, k=PROBE_K, delta=delta)
            took = time.perf_counter() - start
        out[f"spatial.counts_s.sd{sd}"] = tracer.get(tracer.phase, "spatial.counts.s")
        out[f"clustering.dbscan_s.sd{sd}"] = took
    return out


def layer_metrics(tr: Tracer, passes: int, setups: int) -> dict[str, float]:
    """Per-pass layer numbers from the "pass" phase, set-up ones per set-up."""

    def per_pass(key: str) -> float:
        return tr.get("pass", key) / passes

    def rate(count: str, seconds: str) -> float:
        s = tr.get("pass", seconds)
        return tr.get("pass", count) / s if s > 0 else 0.0

    labelings = tr.get("pass", "clustering.labelings")
    ball_points = tr.get("pass", "spatial.ball_points")
    m = {
        "io.ingest_s": per_pass("io.ingest.s"),
        "io.ingest_rows_per_s": rate("io.rows_read", "io.ingest.s"),
        "io.emit_s": per_pass("io.emit.s"),
        "io.bytes_read": per_pass("io.bytes_read"),
        "io.bytes_written": per_pass("io.bytes_written"),
        "io.run_cluster_self_s": per_pass("io.run_cluster.self_s"),
        "io.setup_emit_s": tr.get("setup", "io.emit.s") / setups,
        "smoothing.run_smooth_s": per_pass("smoothing.run_smooth.s"),
        "smoothing.slots_per_s": rate("smoothing.slots", "smoothing.run_smooth.s"),
        "smoothing.estimate_calls": per_pass("smoothing.estimate.calls"),
        "smoothing.estimate_s": per_pass("smoothing.estimate.s"),
        "smoothing.slots": per_pass("smoothing.slots"),
        "smoothing.empty_windows": per_pass("smoothing.empty_windows"),
        "series.raw_built": per_pass("series.raw_build.calls"),
        "series.raw_build_s": per_pass("series.raw_build.s"),
        "series.flatten_s": per_pass("series.flatten.s"),
        "spatial.index_builds": per_pass("spatial.index_build.calls"),
        "spatial.index_build_s": per_pass("spatial.index_build.s"),
        "spatial.counts_s": per_pass("spatial.counts.s"),
        "spatial.radius_queries": per_pass("spatial.radius_query.calls"),
        "spatial.radius_query_s": per_pass("spatial.radius_query.s"),
        "spatial.mean_ball_count": tr.get("pass", "spatial.ball_total") / ball_points if ball_points else 0.0,
        "clustering.dbscan_self_s": per_pass("clustering.dbscan.self_s"),
        "clustering.tree_self_s": per_pass("clustering.tree.self_s"),
        "clustering.core_points": per_pass("clustering.core_points"),
        "clustering.clusters": per_pass("clustering.clusters"),
        "clustering.noise_frac": tr.get("pass", "clustering.noise_frac_sum") / labelings if labelings else 0.0,
        "clustering.link_pairs": per_pass("clustering.link_pairs"),
        "density.model_s": per_pass("density.model.s"),
        "density.batch_s": per_pass("density.batch.s"),
        "density.pair_tests": per_pass("density.pair_tests"),
        "density.pair_tests_per_s": rate("density.pair_tests", "density.batch.s"),
        "geometry.sym_diff_calls": per_pass("geometry.sym_diff.calls"),
        "geometry.sym_diff_s": per_pass("geometry.sym_diff.s"),
        "synthetic.sample_s": per_pass("synthetic.sample.s"),
        "synthetic.setup_sample_s": tr.get("setup", "synthetic.sample.s") / setups,
    }
    for name in fexp.experiment_names():
        m[f"experiments.{name}_s"] = per_pass(f"experiments.{name}.s")
    return m
