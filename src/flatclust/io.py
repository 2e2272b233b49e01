"""File formats, pipeline configuration, and the batch clustering run.

Formats are deliberately plain and stable:

- series CSV: header ``series_id,time,v1,...,vs``; one observation per row,
  times in (0,1], '.' decimal, UTF-8, LF or CRLF. Floats are emitted with 17
  significant digits so an emit/ingest round trip is exact.
- points CSV: header ``point_id,x1,...,x{sd}``; written only.
- assignments CSV: header ``series_id,cluster`` with NOISE encoded as -1.
- configs, manifests, cluster trees, and experiment reports: JSON with
  sorted keys, so identical runs produce identical bytes.

Ingest rejects malformed input with the offending line number; nothing is
silently repaired.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, fields
from typing import Literal, get_type_hints

import numpy as np

from .clustering import NOISE, ClusterTree, cluster_tree, dbscan_cluster
from .codec import Codec, decode
from .density import delta_schedule, k_of_lambda, lambda_of_k
from .series import GridSeries, RawSeries, SeriesBatch, flatten, grid_series_views
from .smoothing import gamma_schedule, smooth_batch

# Bound here, though this module does not call it, because the per-layer
# tracer in perfbench/ wraps it under this module's name.
from .smoothing import estimate_grid_series  # noqa: F401

__all__ = [
    "ParseError",
    "PipelineConfig",
    "ingest_series_csv",
    "emit_series_csv",
    "emit_points_csv",
    "emit_assignments_csv",
    "emit_labels_csv",
    "emit_curves_csv",
    "write_json_document",
    "read_json_document",
    "run_cluster",
    "run_smooth",
]


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class PipelineConfig(Codec):
    """User-facing knobs for one clustering run.

    Exactly one of k / level must be set; "auto" resolves delta and gamma
    from the sample via the built-in schedules. The document spells level
    as "lambda".
    """

    _keys = {"level": "lambda"}

    s: int
    d: int
    delta: float | Literal["auto"] = "auto"
    gamma: float | Literal["auto"] = "auto"
    k: int | None = None
    level: float | None = None
    link_radius: float | None = None
    k_ladder: tuple[int, ...] | None = None

    def __post_init__(self):
        hints = get_type_hints(PipelineConfig)
        for f in fields(self):  # a config built in Python gets its document's type checks
            object.__setattr__(self, f.name, decode(hints[f.name], getattr(self, f.name), f.name))
        for name in ("s", "d", "k"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if (self.k is None) == (self.level is None):
            raise ValueError("exactly one of k / level must be provided")
        for name in ("delta", "gamma", "level", "link_radius"):
            v = getattr(self, name)
            if v not in ("auto", None) and not v > 0:
                raise ValueError(f"{name} must be a positive number, got {v!r}")
        ladder = self.k_ladder
        if ladder is not None and (
            not ladder or ladder[-1] < 1 or any(a <= b for a, b in zip(ladder, ladder[1:]))
        ):
            raise ValueError(
                f"k_ladder must be a strictly descending list of integers >= 1, got {list(ladder)!r}"
            )


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


# Rows parsed at a time: ingest holds one chunk of text fields, not the file's.
INGEST_CHUNK = 8192


def ingest_series_csv(path) -> list[RawSeries]:
    """Parse a series CSV into RawSeries, grouped by id and sorted by time.

    Series come in order of first appearance, as views into one SeriesBatch.
    Rows are parsed in chunks and checked a column at a time; an error names
    the first offending line in file order.
    """
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file, header required", line=1) from None
        if len(header) < 3 or header[0] != "series_id" or header[1] != "time":
            raise ParseError(
                f"header must be series_id,time,v1,...,vs; got {','.join(header)}", line=1
            )
        s = len(header) - 2
        expected = [f"v{i}" for i in range(1, s + 1)]
        if header[2:] != expected:
            raise ParseError(
                f"value columns must be {','.join(expected)}; got {','.join(header[2:])}", line=1
            )
        code_of: dict[str, int] = {}  # series id -> its rank of first appearance
        parts = []  # per chunk: (codes, lines, times, values) of its accepted rows
        first_line = 2
        error = None
        while rows := list(itertools.islice(reader, INGEST_CHUNK)):
            *part, error = _parse_rows(rows, first_line, s, code_of)
            parts.append(part)
            first_line += len(rows)
            if error is not None:
                break
    if not parts:
        return []
    codes, lines, times, values = (np.concatenate([p[k] for p in parts]) for k in range(4))
    order = np.lexsort((times, codes))
    same = (codes[order][1:] == codes[order][:-1]) & (times[order][1:] == times[order][:-1])
    if same.any():
        # every later row of an equal (id, time) run repeats an earlier one
        dup = order[1:][same][np.argmin(lines[order][1:][same])]
        sid = list(code_of)[codes[dup]]
        error = (int(lines[dup]), f"duplicate (series_id, time) = ({sid}, {float(times[dup])})")
    if error is not None:
        raise ParseError(error[1], line=error[0])
    values = values[order]
    sorted_times = times[order]
    for a in (values, sorted_times):
        a.setflags(write=False)  # handed to the batch without a copy
    offsets = np.zeros(len(code_of) + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=len(code_of)), out=offsets[1:])
    batch = SeriesBatch(ids=list(code_of), s=s, offsets=offsets, times=sorted_times, values=values)
    return batch.series()


def _parse_rows(rows: list[list[str]], first_line: int, s: int, code_of: dict[str, int]):
    """Parse one chunk of series CSV rows, the first at line first_line.

    Returns (codes, lines, times, values, error) for the rows before the
    chunk's first offending one; error is that row's (line, message), or
    None. Ids met for the first time get the next codes in code_of.
    """
    width = s + 2
    lines = np.arange(first_line, first_line + len(rows))
    error = None
    if set(map(len, rows)) != {width}:
        cut = next((i for i, row in enumerate(rows) if row and len(row) != width), len(rows))
        if cut < len(rows):
            error = (first_line + cut, f"expected {width} fields, got {len(rows[cut])}")
        kept = [i for i, row in enumerate(rows[:cut]) if row]  # blank rows are skipped
        rows, lines = [rows[i] for i in kept], lines[kept]
    columns = list(zip(*rows)) or [()] * width
    try:
        numbers = [np.fromiter(map(float, col), float, len(rows)) for col in columns[1:]]
    except ValueError:
        # the first row that fails, and its first failing field, as a row loop meets them
        for cut, row in enumerate(rows):
            try:
                list(map(float, row[1:]))
            except ValueError as exc:
                error = (int(lines[cut]), str(exc))
                break
        rows, lines = rows[:cut], lines[:cut]
        columns = list(zip(*rows)) or [()] * width
        numbers = [np.fromiter(map(float, col), float, len(rows)) for col in columns[1:]]
    sids, times, values = columns[0], numbers[0], np.stack(numbers[1:], axis=1)
    bad_time = ~((times > 0.0) & (times <= 1.0))
    bad_value = ~np.isfinite(values)
    bad = bad_time | bad_value.any(axis=1)
    if bad.any():
        cut = int(np.argmax(bad))
        if bad_time[cut]:
            message = f"time {float(times[cut])} outside (0, 1]"
        else:
            j = int(np.argmax(bad_value[cut]))
            message = f"non-finite value {float(values[cut, j])} in column v{j + 1}"
        error = (int(lines[cut]), message)
        sids, lines, times, values = sids[:cut], lines[:cut], times[:cut], values[:cut]
    for sid in dict.fromkeys(sids):  # distinct ids, in order of first appearance
        code_of.setdefault(sid, len(code_of))
    codes = np.fromiter(map(code_of.__getitem__, sids), np.intp, len(sids))
    return codes, lines, times, values, error


def _write_csv(path, header: str, fmt: str, rows) -> None:
    """Write the header line, then `fmt % row` for each row as it is generated.

    A %.17g field writes the same digits as format(float(x), ".17g"), so
    every float round-trips exactly.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % row for row in rows)


def emit_series_csv(path, series: list[RawSeries] | list[GridSeries]) -> None:
    """Write raw or grid series in the ingestible series CSV format."""
    if not series:
        raise ValueError("nothing to write")
    s = series[0].s
    rows = (
        (sr.id, t, *vals)
        for sr in series  # one series' values converted at a time
        for t, vals in zip(sr.times.tolist(), sr.values.tolist())
    )
    header = "series_id,time," + ",".join(f"v{i}" for i in range(1, s + 1))
    _write_csv(path, header, "%s" + ",%.17g" * (s + 1) + "\n", rows)


def emit_points_csv(path, points: np.ndarray, ids: list[str]) -> None:
    points = np.asarray(points, dtype=float)
    sd = points.shape[1]
    rows = ((pid, *row.tolist()) for pid, row in zip(ids, points))
    header = "point_id," + ",".join(f"x{i}" for i in range(1, sd + 1))
    _write_csv(path, header, "%s" + ",%.17g" * sd + "\n", rows)


def emit_curves_csv(path, curves: dict) -> None:
    """Write experiment curves as `curve,x,y` rows, curves in name order."""
    rows = ((curve, x, y) for curve in sorted(curves) for x, y in curves[curve])
    _write_csv(path, "curve,x,y", "%s,%.17g,%.17g\n", rows)


def emit_assignments_csv(path, ids: list[str], assignments) -> None:
    _write_csv(path, "series_id,cluster", "%s,%d\n", zip(ids, assignments))


def emit_labels_csv(path, ids: list[str], labels) -> None:
    _write_csv(path, "id,label", "%s,%d\n", zip(ids, labels))


def write_json_document(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Batch runs
# ---------------------------------------------------------------------------


def _resolve_gamma(cfg: PipelineConfig, m: int) -> float:
    return gamma_schedule(m) if cfg.gamma == "auto" else float(cfg.gamma)


def _resolve_k(cfg: PipelineConfig, n: int, delta: float, sd: int) -> int:
    if cfg.k is not None:
        return cfg.k
    raw = k_of_lambda(cfg.level, n, delta, sd)
    rounded = round(raw)
    k = rounded if abs(raw - rounded) < 1e-9 else math.ceil(raw)
    return max(1, int(k))


def run_smooth(cfg: PipelineConfig, series: list[RawSeries]) -> list[GridSeries]:
    """Smooth every raw series onto the clustering grid, as one batch."""
    if not series:
        raise ValueError("no series to smooth: the input has no observation rows")
    for sr in series:
        if sr.s != cfg.s:
            raise ValueError(f"series {sr.id!r} has s={sr.s}, config expects {cfg.s}")
        if sr.m <= cfg.d:
            raise ValueError(f"series {sr.id!r} has m={sr.m} <= d={cfg.d}; need m > d")
    batch = SeriesBatch.from_series(series, s=cfg.s)
    gammas = [_resolve_gamma(cfg, m) for m in batch.m.tolist()]
    return grid_series_views(batch.ids, smooth_batch(batch, cfg.d, gammas))


def _tree_document(tree: ClusterTree, ids: list[str], n: int, sd: int) -> dict:
    levels = []
    for level in tree.levels:
        lab = level.labeling
        clusters = []
        for c in range(lab.n_clusters):
            clusters.append(
                {
                    "id": c,
                    "parent": level.parents[c] if level.parents else None,
                    "members": [ids[i] for i in lab.members(c)],
                }
            )
        levels.append(
            {
                "k": level.k,
                "lambda": lambda_of_k(level.k, n, tree.delta, sd),
                "clusters": clusters,
                "noise": [ids[i] for i in np.nonzero(lab.assignments == NOISE)[0]],
            }
        )
    return {"delta": tree.delta, "link_radius": tree.link_radius, "levels": levels}


def run_cluster(cfg: PipelineConfig, series: list[RawSeries]) -> dict:
    """Smooth, flatten, and cluster a batch of raw series.

    Returns a dict with the assignment table, the run manifest, and (when a
    k-ladder is configured) the cluster-tree document.
    """
    grids = run_smooth(cfg, series)
    ids = [g.id for g in grids]
    points = flatten(np.stack([g.values for g in grids]))
    n, sd = points.shape
    delta = delta_schedule(n, sd) if cfg.delta == "auto" else float(cfg.delta)
    link = 2.0 * delta if cfg.link_radius is None else float(cfg.link_radius)
    k = _resolve_k(cfg, n, delta, sd)
    labeling = dbscan_cluster(points, k=k, delta=delta, link_radius=link)
    gammas = {sr.id: _resolve_gamma(cfg, sr.m) for sr in series}
    manifest = {
        "config": cfg.to_dict(),
        "n_series": n,
        "resolved": {
            "delta": delta,
            "gamma": gammas,
            "k": k,
            "lambda_of_k": lambda_of_k(k, n, delta, sd),
            "link_radius": link,
            "sd": sd,
        },
    }
    out = {
        "ids": ids,
        "assignments": labeling.assignments,
        "labeling": labeling,
        "manifest": manifest,
        "tree": None,
    }
    if cfg.k_ladder is not None:
        tree = cluster_tree(points, delta, cfg.k_ladder, link_radius=link)
        out["tree"] = _tree_document(tree, ids, n, sd)
    return out
