"""Batch command-line surface: cluster, tree, smooth, synth, experiment.

Every command reads explicit paths, writes files into an output directory,
and exits 0 on success or nonzero with a one-line JSON error on stderr.
There is no interactive mode and no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import io as fio
from .codec import Codec
from .experiments import experiment_names, run_experiment
from .synthetic import FunctionFamilySpec, MixtureSpec, sample_raw_series

__all__ = ["main", "build_parser"]


def _fail(code: int, kind: str, message: str, **extra) -> int:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatclust",
        description="Cluster noisy multivariate time series by smoothing, "
        "flattening, and density-based clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="smooth, flatten, and cluster a series CSV")
    p_cluster.add_argument("--config", required=True, help="pipeline config JSON")
    p_cluster.add_argument("--input", required=True, help="series CSV")
    p_cluster.add_argument("--outdir", required=True)

    p_tree = sub.add_parser("tree", help="like cluster, but requires a k ladder")
    p_tree.add_argument("--config", required=True)
    p_tree.add_argument("--input", required=True)
    p_tree.add_argument("--outdir", required=True)

    p_smooth = sub.add_parser("smooth", help="emit the smoothed grid series as CSV")
    p_smooth.add_argument("--config", required=True)
    p_smooth.add_argument("--input", required=True)
    p_smooth.add_argument("--output", required=True)

    p_synth = sub.add_parser("synth", help="generate fixture data from a generator spec")
    p_synth.add_argument("--spec", required=True, help="generator spec JSON")
    p_synth.add_argument("--outdir", required=True)

    p_exp = sub.add_parser("experiment", help="run a named verification experiment")
    p_exp.add_argument("name", nargs="?", default=None)
    p_exp.add_argument("--config", default=None, help="experiment config JSON")
    p_exp.add_argument("--outdir", required=True)

    return parser


def _cmd_cluster(args, want_tree: bool) -> int:
    cfg = fio.PipelineConfig.from_dict(fio.read_json_document(args.config))
    if want_tree and cfg.k_ladder is None:
        return _fail(2, "config-error", "the tree command needs a k_ladder in the config")
    series = fio.ingest_series_csv(args.input)
    result = fio.run_cluster(cfg, series)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fio.emit_assignments_csv(outdir / "assignments.csv", result["ids"], result["assignments"])
    fio.write_json_document(outdir / "manifest.json", result["manifest"])
    if result["tree"] is not None:
        fio.write_json_document(outdir / "tree.json", result["tree"])
    return 0


def _cmd_smooth(args) -> int:
    cfg = fio.PipelineConfig.from_dict(fio.read_json_document(args.config))
    series = fio.ingest_series_csv(args.input)
    grids = fio.run_smooth(cfg, series)
    fio.emit_series_csv(args.output, grids)
    return 0


@dataclass(frozen=True)
class SynthDocument(Codec):
    """`flatclust synth`: n points of a mixture, or n series of length m (default 4 d) of a family."""

    spec: MixtureSpec | FunctionFamilySpec
    n: int = 100
    m: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:  # refused here, before a directory is made, whatever the spec's kind
            raise ValueError(f"n must be >= 1, got {self.n}")


def _cmd_synth(args) -> int:
    doc = fio.read_json_document(args.spec)
    spec = doc.get("spec") if isinstance(doc, dict) else None
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if isinstance(spec, dict) and kind not in ("mixture", "function_family"):
        return _fail(2, "config-error", f"spec.kind must be mixture or function_family, got {kind!r}")
    synth = SynthDocument.from_dict(doc)
    if isinstance(synth.spec, MixtureSpec):
        points, labels = synth.spec.sample(synth.n, synth.seed)
        ids = [f"p{i:06d}" for i in range(synth.n)]
    else:
        m = 4 * synth.spec.d if synth.m is None else synth.m
        raws, labels, grids = sample_raw_series(synth.spec, synth.n, m, synth.seed)
        ids = list(raws.ids)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if isinstance(synth.spec, MixtureSpec):
        fio.emit_points_csv(outdir / "points.csv", points, ids)
    else:
        fio.emit_series_csv(outdir / "series.csv", raws)
        fio.emit_series_csv(outdir / "grid_truth.csv", grids)
    fio.emit_labels_csv(outdir / "labels.csv", ids, labels)
    return 0


def _cmd_experiment(args) -> int:
    if args.name is None or args.name not in experiment_names():
        return _fail(
            2,
            "unknown-experiment",
            f"unknown experiment {args.name!r}",
            available=experiment_names(),
        )
    overrides = {} if args.config is None else fio.read_json_document(args.config)
    if overrides is None:  # a null document is not "no config"
        raise ValueError("config must be a JSON object, got NoneType")
    report = run_experiment(args.name, overrides)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fio.write_json_document(outdir / f"{args.name}_report.json", report.to_document())
    fio.emit_curves_csv(outdir / f"{args.name}_curves.csv", report.curves)
    print(
        f"{args.name}: passed={report.passed} checks={report.checks} "
        f"wall_clock_s={report.wall_clock_s:.3f}"
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "cluster":
            return _cmd_cluster(args, want_tree=False)
        if args.command == "tree":
            return _cmd_cluster(args, want_tree=True)
        if args.command == "smooth":
            return _cmd_smooth(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        return _fail(2, "usage", f"unknown command {args.command!r}")
    except fio.ParseError as exc:
        return _fail(1, "parse-error", str(exc), line=exc.line)
    except (ValueError, KeyError) as exc:
        return _fail(1, "invalid-argument", str(exc))
    except OSError as exc:
        return _fail(1, "io-error", str(exc))
    except MemoryError as exc:  # such as numpy refusing an array larger than the address space
        return _fail(1, "out-of-memory", str(exc))


if __name__ == "__main__":
    sys.exit(main())
