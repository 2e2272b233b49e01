"""File formats, pipeline configuration, and the batch clustering run.

Formats are deliberately plain and stable:

- series CSV: header ``series_id,time,v1,...,vs``; one observation per row,
  times in (0,1], '.' decimal, UTF-8, LF, CRLF or CR. Floats are emitted with 17
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
from io import StringIO
from typing import Literal, get_type_hints

import numpy as np

from .clustering import NOISE, ClusterTree, cluster_tree, dbscan_cluster
from .codec import Codec, decode
from .density import delta_schedule, k_of_lambda, lambda_of_k
from .series import GridSeries, SeriesBatch, _adopt_grid, flatten
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


# Rows the exact parser splits into fields at a time: it holds one chunk of fields, not the file's.
INGEST_CHUNK = 8192

# A file holding any of these is read by the exact parser: '"' opens a quoted
# field, and numpy strips \x1c-\x1f around a number, which float refuses.
_EXACT_ONLY = '"\x1c\x1d\x1e\x1f'


def ingest_series_csv(path) -> SeriesBatch:
    """Parse a series CSV into one SeriesBatch, grouped by id and sorted by time.

    Series come in order of first appearance, one time per observation.
    numpy's C parser reads the numbers when the fast path can be sure that it
    reads what csv.reader and float would; any other file, and every file
    with an error, is read by the exact parser, which names the first
    offending line in file order.
    """
    text = _read_text(path)
    try:
        rows = _fast_rows(text)
        if rows is not None:
            return _series_of(*rows)
    except ParseError:
        pass  # the exact parser below names the error
    return _series_of(*_exact_rows(text))


def _read_text(path) -> str:
    """The file as UTF-8 text, line ends as they are: a quoted CR belongs to its field."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ParseError(message, line=line) from None
    return text


def _value_columns(header: list[str]) -> int:
    """The value column count s of a series CSV header, which must be series_id,time,v1,...,vs.

    A byte-order mark before it is refused by name, not read as part of the first field.
    """
    if header and header[0].startswith("\ufeff"):
        raise ParseError("file starts with a UTF-8 byte-order mark (BOM); save it without one", line=1)
    if len(header) < 3 or header[0] != "series_id" or header[1] != "time":
        raise ParseError(f"header must be series_id,time,v1,...,vs; got {','.join(header)}", line=1)
    expected = [f"v{i}" for i in range(1, len(header) - 1)]
    if header[2:] != expected:
        raise ParseError(
            f"value columns must be {','.join(expected)}; got {','.join(header[2:])}", line=1
        )
    return len(header) - 2


def _fast_rows(text: str):
    """(s, ids, lines, numbers) of every row by numpy's C parser, or None where it may differ.

    It reads a file only where csv.reader and float give the same fields and
    numbers: no character of _EXACT_ONLY, no line longer than csv's field
    limit, and s+1 commas a line in total. Each id is cut off at its line's
    first comma, and one np.loadtxt call parses the other fields of every
    line. loadtxt refuses a line with too few fields; with the comma count,
    no line has one too many, which usecols would drop. It skips a blank
    line, which the row count catches, so every line number stays the
    file's. A number it refuses (1_0, non-ASCII digits) may still be one
    float accepts, so that file goes to the exact parser too.
    """
    if not text or any(c in text for c in _EXACT_ONLY):
        return None
    if "\r" in text:  # with no quotes, CRLF and CR end a line as LF does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the final line end
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    s = _value_columns(lines[0].split(","))
    if text.count(",") != len(lines) * (s + 1):
        return None
    del lines[0]
    ids = [line.partition(",")[0] for line in lines]
    numbers = np.empty((0, s + 1))
    if lines:
        try:
            numbers = np.loadtxt(
                lines, delimiter=",", comments=None, quotechar=None, ndmin=2, usecols=range(1, s + 2)
            )
        except ValueError:
            return None
    if numbers.shape != (len(lines), s + 1):
        return None
    return s, ids, np.arange(2, len(lines) + 2), numbers


def _exact_rows(text: str):
    """(s, ids, lines, numbers, error) of the rows by csv.reader and float, INGEST_CHUNK at a time.

    The rows are those before the first one that csv or float rejects, or
    that has the wrong field count; error is that row's (line, message), or
    None. Blank rows are skipped.
    """
    reader = csv.reader(StringIO(text, newline=""))  # LF, CR and CRLF each end one physical line
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    if header is None:
        raise ParseError("empty file, header required", line=1)
    s = _value_columns(header)
    parts = []  # per chunk: (ids, lines, numbers) of its accepted rows
    end = reader.line_num  # the last physical line read; a quoted field may span several
    while True:
        rows, starts, error = [], [], None
        try:
            for row in itertools.islice(reader, INGEST_CHUNK):
                rows.append(row)
                starts.append(end + 1)
                end = reader.line_num
        except csv.Error as exc:
            error = (reader.line_num, str(exc))
        *part, row_error = _parse_rows(rows, np.array(starts, dtype=np.int64), s)
        parts.append(part)
        error = row_error or error
        if error is not None or len(rows) < INGEST_CHUNK:
            break
    ids = [sid for part in parts for sid in part[0]]
    lines, numbers = (np.concatenate([p[k] for p in parts]) for k in (1, 2))
    return s, ids, lines, numbers, error


def _parse_rows(rows: list[list[str]], lines: np.ndarray, s: int):
    """Parse one chunk of series CSV rows, row i starting on physical line lines[i].

    Returns (ids, lines, numbers, error) for the rows before the chunk's first
    offending one, numbers holding the time and then v1..vs of each; error is
    that row's (line, message), or None.
    """
    width = s + 2
    error = None
    if set(map(len, rows)) != {width}:
        cut = next((i for i, row in enumerate(rows) if row and len(row) != width), len(rows))
        if cut < len(rows):
            error = (int(lines[cut]), f"expected {width} fields, got {len(rows[cut])}")
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
    return columns[0], lines, np.stack(numbers, axis=1), error


def _series_of(
    s: int, ids: list[str], lines: np.ndarray, numbers: np.ndarray, error=None
) -> SeriesBatch:
    """The batch of parsed rows: the checks no parser makes, then one SeriesBatch.

    Rows come in file order, with their line numbers, numbers holding the
    time and then v1..vs of each; error is the (line, message) of a row that
    ended parsing after all of them, or None. The first offending line in
    file order is raised: a time outside (0, 1], a non-finite value, a
    repeated (id, time), or error.
    """
    times, values = numbers[:, 0], numbers[:, 1:]
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
        ids, lines, times, values = ids[:cut], lines[:cut], times[:cut], values[:cut]
    # each id's code is its rank of first appearance
    code_of = {sid: code for code, sid in enumerate(dict.fromkeys(ids))}
    codes = np.fromiter(map(code_of.__getitem__, ids), np.intp, len(ids))
    order = np.lexsort((times, codes))
    same = (codes[order][1:] == codes[order][:-1]) & (times[order][1:] == times[order][:-1])
    if same.any():
        # every later row of an equal (id, time) run repeats an earlier one
        dup = order[1:][same][np.argmin(lines[order][1:][same])]
        error = (int(lines[dup]), f"duplicate (series_id, time) = ({ids[dup]}, {float(times[dup])})")
    if error is not None:
        raise ParseError(error[1], line=error[0])
    offsets = np.zeros(len(code_of) + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=len(code_of)), out=offsets[1:])
    return SeriesBatch._adopt(list(code_of), s, offsets, times[order], values[order])


_NEEDS_QUOTES = frozenset(',"\r\n')


def _csv_field(text: str) -> str:
    """text as one csv field: quoted, its '"' doubled, when it holds a comma, '"', CR or LF.

    These are the csv module's minimal-quoting rules, so csv.reader reads
    the text back; ingest does too, but reads a CR in it as LF.
    """
    if _NEEDS_QUOTES.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _write_csv(path, header: str, fmt: str, rows) -> None:
    """Write the header line, then `fmt % row` for each row as it is generated.

    A %.17g field writes the same digits as format(float(x), ".17g"), so
    every float round-trips exactly. A %s field holding an id or a name must
    already be a _csv_field.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % row for row in rows)


def emit_series_csv(path, series: SeriesBatch | list[GridSeries]) -> None:
    """Write a batch of raw series, or grid series, in the ingestible series CSV format."""
    if not series:
        raise ValueError("nothing to write")
    s = series[0].s

    def rows():
        for sr in series:  # one series' id quoted and values converted at a time
            sid = _csv_field(sr.id)
            for t, vals in zip(sr.times.tolist(), sr.values.tolist()):
                yield (sid, t, *vals)

    header = "series_id,time," + ",".join(f"v{i}" for i in range(1, s + 1))
    _write_csv(path, header, "%s" + ",%.17g" * (s + 1) + "\n", rows())


def emit_points_csv(path, points: np.ndarray, ids: list[str]) -> None:
    points = np.asarray(points, dtype=float)
    sd = points.shape[1]
    rows = ((pid, *row.tolist()) for pid, row in zip(map(_csv_field, ids), points))
    header = "point_id," + ",".join(f"x{i}" for i in range(1, sd + 1))
    _write_csv(path, header, "%s" + ",%.17g" * sd + "\n", rows)


def emit_curves_csv(path, curves: dict) -> None:
    """Write experiment curves as `curve,x,y` rows, curves in name order."""
    rows = ((_csv_field(curve), x, y) for curve in sorted(curves) for x, y in curves[curve])
    _write_csv(path, "curve,x,y", "%s,%.17g,%.17g\n", rows)


def emit_assignments_csv(path, ids: list[str], assignments) -> None:
    _write_csv(path, "series_id,cluster", "%s,%d\n", zip(map(_csv_field, ids), assignments))


def emit_labels_csv(path, ids: list[str], labels) -> None:
    _write_csv(path, "id,label", "%s,%d\n", zip(map(_csv_field, ids), labels))


def write_json_document(path, doc: dict) -> None:
    """Write doc as sorted, indented JSON; a NaN or infinity is refused before the file is opened."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_json_document(path) -> dict:
    """The JSON document in path; a byte that is not UTF-8 or a syntax error is a ParseError naming its line."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{exc.msg} (column {exc.colno})", line=exc.lineno) from None


# ---------------------------------------------------------------------------
# Batch runs
# ---------------------------------------------------------------------------


def _resolve_gammas(cfg: PipelineConfig, batch: SeriesBatch) -> list[float]:
    gamma = {m: gamma_schedule(m) if cfg.gamma == "auto" else float(cfg.gamma) for m in set(batch.m.tolist())}
    return [gamma[m] for m in batch.m.tolist()]


def _resolve_k(cfg: PipelineConfig, n: int, delta: float, sd: int) -> int:
    if cfg.k is not None:
        return cfg.k
    raw = k_of_lambda(cfg.level, n, delta, sd)
    if math.isinf(raw):
        raise ValueError(f"lambda={cfg.level!r} at delta={delta!r}, sd={sd}, n={n} gives k=inf")
    rounded = round(raw)
    k = rounded if abs(raw - rounded) < 1e-9 else math.ceil(raw)
    return max(1, int(k))


def _check_levels(cfg: PipelineConfig, k: int, n: int, delta: float, sd: int) -> None:
    """Refuse, before any clustering, a delta whose ball mass is 0 or inf or whose top level is inf.

    The top level is lambda_of_k at the largest k of the run, k or a rung
    of the ladder: the documents report it, and JSON has no infinity.
    """
    top = max((k, *(cfg.k_ladder or ())))
    if math.isinf(lambda_of_k(top, n, delta, sd)):
        raise ValueError(f"delta={delta!r} at sd={sd}, n={n} gives k={top} lambda=inf")


def run_smooth(cfg: PipelineConfig, batch: SeriesBatch) -> list[GridSeries]:
    """Smooth the batch, as given, onto the clustering grid: one GridSeries view per series, of one grid array."""
    if not batch:
        raise ValueError("no series to smooth: the input has no observation rows")
    if batch.s != cfg.s:  # every series of a batch has its s
        raise ValueError(f"series {batch.ids[0]!r} has s={batch.s}, config expects {cfg.s}")
    return _adopt_grid(batch.ids, smooth_batch(batch, cfg.d, _resolve_gammas(cfg, batch)))


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


def run_cluster(cfg: PipelineConfig, batch: SeriesBatch) -> dict:
    """Smooth (by run_smooth), flatten, and cluster the series of a batch.

    Returns a dict with the assignment table, the run manifest, and (when a
    k-ladder is configured) the cluster-tree document.
    """
    grids = run_smooth(cfg, batch)
    ids = [g.id for g in grids]
    points = flatten(np.stack([g.values for g in grids]))
    n, sd = points.shape
    delta = delta_schedule(n, sd) if cfg.delta == "auto" else float(cfg.delta)
    k = _resolve_k(cfg, n, delta, sd)
    _check_levels(cfg, k, n, delta, sd)
    labeling = dbscan_cluster(points, k=k, delta=delta, link_radius=cfg.link_radius)
    gammas = dict(zip(batch.ids, _resolve_gammas(cfg, batch)))
    manifest = {
        "config": cfg.to_dict(),
        "n_series": n,
        "resolved": {
            "delta": delta,
            "gamma": gammas,
            "k": k,
            "lambda_of_k": lambda_of_k(k, n, delta, sd),
            "link_radius": labeling.link_radius,
            "sd": sd,
        },
    }
    out = {"ids": ids, "assignments": labeling.assignments, "manifest": manifest, "tree": None}
    if cfg.k_ladder is not None:
        tree = cluster_tree(points, delta, cfg.k_ladder, link_radius=cfg.link_radius)
        out["tree"] = _tree_document(tree, ids, n, sd)
    return out
