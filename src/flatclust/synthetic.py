"""Ground-truth generators with certificates.

Flattened-space mixtures are built from product-form component densities
(triangular or truncated-quadratic bumps per coordinate) on pairwise
disjoint boxes: closed-form sampling by inverse CDF, convex upper level
sets, and exactly computable peak/Lipschitz constants and separation
margins. Function families generate noisy raw series from parametric
templates with bounded uniform noise and known cluster labels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._ufuncs import row_loops
from .codec import Codec, prefixed
from .series import GridSeries, SeriesBatch, _adopt_grid, grid_times
from .smoothing import _rows_per_block, _smooth_chunks

__all__ = [
    "Bump1D",
    "MixtureComponent",
    "MixtureSpec",
    "TemplateComponent",
    "ClusterTemplate",
    "FunctionFamilySpec",
    "sample_raw_series",
    "sample_series_batch",
    "single_bump_mixture_1d",
    "two_bump_mixture_1d",
    "lipschitz_family",
    "gap_family",
    "jump_family",
    "grid_resolution_templates",
]

_BUMP_KINDS = ("triangular", "quadratic")

# Largest clustering grid d a family or an experiment accepts, checked before any grid is built; the
# pinned configurations use at most 32.
MAX_GRID_D = 10_000


@dataclass(frozen=True)
class Bump1D:
    """A unimodal density on [lo, hi] that vanishes at both ends.

    triangular: rises linearly to the midpoint; quadratic: the parabola
    6 z (1 - z) in box coordinates z.
    """

    lo: float
    hi: float
    kind: str = "triangular"

    def __post_init__(self):
        if self.kind not in _BUMP_KINDS:
            raise ValueError(f"kind must be one of {_BUMP_KINDS}, got {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def peak(self) -> float:
        return (2.0 if self.kind == "triangular" else 1.5) / self.width

    @property
    def lipschitz(self) -> float:
        return (4.0 if self.kind == "triangular" else 6.0) / self.width**2

    def pdf(self, x):
        return self.pdf_in_z((np.asarray(x, dtype=float) - self.lo) / self.width)

    def pdf_in_z(self, z):
        """Density (in x units) at box coordinate z; 0 outside [0, 1]."""
        z = np.asarray(z, dtype=float)
        if self.kind == "triangular":
            core = 4.0 * np.minimum(z, 1.0 - z)
        else:
            core = 6.0 * z * (1.0 - z)
        return np.where((z >= 0.0) & (z <= 1.0), core, 0.0) / self.width

    def ppf(self, u):
        """Inverse CDF, exact; maps [0,1] onto [lo, hi]."""
        u = np.asarray(u, dtype=float)
        if self.kind == "triangular":
            z = np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))
        else:
            # solve 3z^2 - 2z^3 = u through the depressed cubic on [-1, 1]
            phi = np.arccos(1.0 - 2.0 * np.clip(u, 0.0, 1.0))
            t = 2.0 * np.cos(phi / 3.0 - 2.0 * math.pi / 3.0)
            z = (t + 1.0) / 2.0
        return self.lo + self.width * np.clip(z, 0.0, 1.0)


@dataclass(frozen=True)
class _ComponentDocument(Codec):
    """The document of a MixtureComponent: one bump kind, one [lo, hi] box row per coordinate."""

    box: tuple[tuple[float, float], ...]
    kind: str = "triangular"


@dataclass(frozen=True)
class MixtureComponent(Codec):
    """Product of per-coordinate bumps of one kind over an axis-aligned support box."""

    bumps: tuple[Bump1D, ...]

    def __post_init__(self):
        if len(self.bumps) == 0:
            raise ValueError("component needs at least one coordinate bump")
        kinds = sorted({b.kind for b in self.bumps})
        if len(kinds) > 1:
            raise ValueError(f"a component's bumps must share one kind, got {kinds}")
        for b in self.bumps:
            if b.lo < 0.0 or b.hi > 1.0:
                raise ValueError(f"support [{b.lo}, {b.hi}] leaves [0, 1]")

    @property
    def sd(self) -> int:
        return len(self.bumps)

    @property
    def box(self) -> np.ndarray:
        return np.array([[b.lo, b.hi] for b in self.bumps])

    @property
    def peak(self) -> float:
        return float(np.prod([b.peak for b in self.bumps]))

    @property
    def lipschitz(self) -> float:
        peaks = np.array([b.peak for b in self.bumps])
        slopes = np.array([b.lipschitz for b in self.bumps])
        total = np.prod(peaks)
        # coordinate j of the gradient is bounded by slope_j * prod of other peaks
        grad = slopes * total / peaks
        return float(np.sqrt(np.sum(grad * grad)))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.ones(x.shape[0])
        for j, b in enumerate(self.bumps):
            out *= b.pdf(x[:, j])
        return out

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map uniform draws of shape (n, sd) into the component."""
        return np.column_stack([b.ppf(u[:, j]) for j, b in enumerate(self.bumps)])

    def inner_core(self, fraction: float) -> np.ndarray:
        """The centered sub-box covering `fraction` of each coordinate width."""
        box = self.box
        c = box.mean(axis=1)
        half = (box[:, 1] - box[:, 0]) * fraction / 2.0
        return np.column_stack([c - half, c + half])

    def core_min_density(self, fraction: float) -> float:
        """Minimum of the component density over its inner core (at a corner)."""
        z = 0.5 - fraction / 2.0
        return float(np.prod([b.pdf_in_z(z) for b in self.bumps]))

    def to_dict(self) -> dict:
        box = tuple((b.lo, b.hi) for b in self.bumps)
        return _ComponentDocument(box, self.bumps[0].kind).to_dict()

    @classmethod
    def from_dict(cls, doc, path: str = "") -> "MixtureComponent":
        c = _ComponentDocument.from_dict(doc, path)
        with prefixed(path):
            return cls(bumps=tuple(Bump1D(lo, hi, c.kind) for lo, hi in c.box))


def _check_weights(weights, count: int, part: str) -> None:
    """One weight per part, all nonnegative and summing to 1."""
    if len(weights) != count:
        raise ValueError(f"one weight per {part} required")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")


def _box_distance(a: np.ndarray, b: np.ndarray) -> float:
    gaps = np.maximum(0.0, np.maximum(a[:, 0] - b[:, 1], b[:, 0] - a[:, 1]))
    return float(np.sqrt(np.sum(gaps * gaps)))


@dataclass(frozen=True)
class MixtureSpec(Codec):
    """A detectable mixture in [0,1]^sd: disjoint boxes, known constants.

    Exposes the separation margin, a Lipschitz certificate, the peak density,
    and the level lambda_star below which every point outside all support
    boxes falls.
    """

    _kind = "mixture"

    components: tuple[MixtureComponent, ...]
    weights: tuple[float, ...]
    inner_fraction: float = 0.5

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("mixture needs at least one component")
        _check_weights(self.weights, len(self.components), "component")
        sd = self.components[0].sd
        if any(c.sd != sd for c in self.components):
            raise ValueError("all components must share one dimension")
        if not 0.0 < self.inner_fraction < 1.0:
            raise ValueError("inner_fraction must lie in (0, 1)")
        boxes = [c.box for c in self.components]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _box_distance(boxes[i], boxes[j]) <= 0.0:
                    raise ValueError(f"support boxes {i} and {j} are not disjoint")

    @property
    def C(self) -> int:
        return len(self.components)

    @property
    def sd(self) -> int:
        return self.components[0].sd

    @property
    def margin(self) -> float:
        """Smallest Euclidean distance between two support boxes."""
        boxes = [c.box for c in self.components]
        if len(boxes) == 1:
            return math.inf
        return min(
            _box_distance(boxes[i], boxes[j])
            for i in range(len(boxes))
            for j in range(i + 1, len(boxes))
        )

    @property
    def peak_density(self) -> float:
        return max(w * c.peak for w, c in zip(self.weights, self.components))

    @property
    def lipschitz_bound(self) -> float:
        return float(sum(w * c.lipschitz for w, c in zip(self.weights, self.components)))

    @property
    def lambda_star(self) -> float:
        """Half the smallest weighted density on any component's inner core."""
        return 0.5 * min(
            w * c.core_min_density(self.inner_fraction)
            for w, c in zip(self.weights, self.components)
        )

    def inner_core(self, i: int) -> np.ndarray:
        return self.components[i].inner_core(self.inner_fraction)

    def density(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.sd:
            raise ValueError(f"points must have {self.sd} coordinates, got {pts.shape[1]}")
        out = np.zeros(pts.shape[0])
        for w, c in zip(self.weights, self.components):
            out += w * c.pdf(pts)
        return float(out[0]) if scalar else out

    def sample(self, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
        """n i.i.d. draws: categorical label, then exact inverse-CDF coords."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        labels = rng.choice(self.C, size=n, p=np.asarray(self.weights, dtype=float))
        u = rng.uniform(size=(n, self.sd))
        points = np.empty((n, self.sd))
        for i, comp in enumerate(self.components):
            mask = labels == i
            if np.any(mask):
                points[mask] = comp.sample(u[mask])
        return points, labels


# ---------------------------------------------------------------------------
# Function families
# ---------------------------------------------------------------------------

_TEMPLATE_KINDS = ("sine", "linear", "constant")


@dataclass(frozen=True)
class TemplateComponent(Codec):
    """One scalar component of a path template.

    Base shapes are constant, affine, or a sinusoid; an optional single
    upward or downward jump makes the path right-continuous piecewise
    Lipschitz instead of globally Lipschitz.
    """

    kind: str = "constant"
    offset: float = 0.5
    amp: float = 0.0
    freq: float = 1.0
    phase: float = 0.0
    slope: float = 0.0
    jump_time: float | None = None
    jump_size: float = 0.0

    def __post_init__(self):
        if self.kind not in _TEMPLATE_KINDS:
            raise ValueError(f"kind must be one of {_TEMPLATE_KINDS}, got {self.kind!r}")
        if self.jump_time is not None and not 0.0 < self.jump_time < 1.0:
            raise ValueError("jump_time must lie strictly inside (0, 1)")

    def lipschitz(self, amp_scale: float = 1.0) -> float:
        """Slope bound on every continuous segment."""
        if self.kind == "sine":
            return 2.0 * math.pi * abs(self.freq) * abs(self.amp) * amp_scale
        if self.kind == "linear":
            return abs(self.slope) * amp_scale
        return 0.0

    def range_bounds(self, amp_scale: float = 1.0) -> tuple[float, float]:
        if self.kind == "sine":
            lo = self.offset - abs(self.amp) * amp_scale
            hi = self.offset + abs(self.amp) * amp_scale
        elif self.kind == "linear":
            lo = min(self.offset, self.offset + self.slope * amp_scale)
            hi = max(self.offset, self.offset + self.slope * amp_scale)
        else:
            lo = hi = self.offset
        if self.jump_time is not None:
            lo += min(0.0, self.jump_size)
            hi += max(0.0, self.jump_size)
        return lo, hi


@dataclass(frozen=True)
class ClusterTemplate(Codec):
    """An s-vector path template plus per-series jitter ranges."""

    components: tuple[TemplateComponent, ...]
    offset_jitter: float = 0.0
    amp_jitter: float = 0.0

    def __post_init__(self):
        if len(self.components) == 0:
            raise ValueError("template needs at least one component")
        if self.offset_jitter < 0 or self.amp_jitter < 0:
            raise ValueError("jitter ranges must be nonnegative")

    @property
    def s(self) -> int:
        return len(self.components)

    @property
    def lipschitz(self) -> float:
        """Componentwise (sup-norm) slope bound over all jittered instances."""
        return max(c.lipschitz(1.0 + self.amp_jitter) for c in self.components)

    def eval(self, t, amp_scales=None, offset_shifts=None) -> np.ndarray:
        """Values at times t: shape (len(t), s).

        With jitter arrays of shape (k, s), one row per instance, the result
        has shape (k, len(t), s), each instance equal bit for bit to its own
        call with one row.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        amp_scales = np.ones(self.s) if amp_scales is None else np.asarray(amp_scales, dtype=float)
        offset_shifts = np.zeros(self.s) if offset_shifts is None else np.asarray(offset_shifts, dtype=float)
        scales, shifts = np.broadcast_arrays(np.atleast_2d(amp_scales), np.atleast_2d(offset_shifts))
        out = np.empty((scales.shape[0], t.size, self.s))
        _Paths((self,), t).fill(out, np.zeros(out.shape[0], dtype=np.intp), scales, shifts)
        return out if max(amp_scales.ndim, offset_shifts.ndim) == 2 else out[0]

    def range_ok(self) -> bool:
        for c in self.components:
            for scale in (1.0 - self.amp_jitter, 1.0 + self.amp_jitter):
                lo, hi = c.range_bounds(scale)
                if lo - self.offset_jitter < 0.0 or hi + self.offset_jitter > 1.0:
                    return False
        return True

    def draw_jitter(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        scales = rng.uniform(1.0 - self.amp_jitter, 1.0 + self.amp_jitter, size=self.s)
        shifts = rng.uniform(-self.offset_jitter, self.offset_jitter, size=self.s)
        return scales, shifts


class _Paths:
    """Templates at fixed times t, for writing jittered paths into rows of an array.

    The one owner of the path formula: ClusterTemplate.eval and the batch
    sampler both fill through it.
    """

    def __init__(self, templates: tuple[ClusterTemplate, ...], t: np.ndarray):
        comps = [(c, j, comp) for c, template in enumerate(templates) for j, comp in enumerate(template.components)]
        C, s = len(templates), templates[0].s
        self.curves = np.empty((C, t.size, s))
        self.coefs = np.empty((C, s))
        self.offsets = np.empty((C, s))
        for c, j, comp in comps:
            # the unit curve and the coefficient an amp scale multiplies
            if comp.kind == "sine":
                self.curves[c, :, j] = np.sin(2.0 * math.pi * (comp.freq * t + comp.phase))
                self.coefs[c, j] = comp.amp
            elif comp.kind == "linear":
                self.curves[c, :, j] = t
                self.coefs[c, j] = comp.slope
            else:
                self.curves[c, :, j] = 0.0
                self.coefs[c, j] = 0.0
            self.offsets[c, j] = comp.offset
        self.jumps = [
            (c, j, comp.jump_size * (t >= comp.jump_time)) for c, j, comp in comps if comp.jump_time is not None
        ]

    def fill(self, out: np.ndarray, labels: np.ndarray, amp_scales: np.ndarray, offset_shifts: np.ndarray) -> None:
        """out[i] = templates[labels[i]] at t under amp_scales[i] and offset_shifts[i].

        out is (k, len(t), s), the jitter arrays (k, s). Each value is
        rounded step by step as Python evaluates `offset + amp_scale * coef
        * curve + offset_shift + jump`: the curve times (amp_scale * coef),
        plus the offset, plus the shift, plus the jump term where the
        component has a jump.
        """
        # mode="clip" (labels are in range anyway): "raise" would stage out in a copy
        np.take(self.curves, labels, axis=0, out=out, mode="clip")
        scales, offsets = amp_scales * self.coefs[labels], self.offsets[labels]
        for j in range(out.shape[2]):
            # component j of every row as one (k, len(t)) block, with per-row operands
            col = out[:, :, j]
            col *= scales[:, j, None]
            col += offsets[:, j, None]
            col += offset_shifts[:, j, None]
        for c, j, term in self.jumps:
            np.add(out[..., j], term, out=out[..., j], where=(labels == c)[:, None])


@dataclass(frozen=True)
class FunctionFamilySpec(Codec):
    """Per-cluster templates with bounded uniform noise and a clustering grid.

    All jumps must sit strictly between the grid points 1/d .. 1, templates
    must stay inside [0,1] under every jitter draw, and distinct clusters
    must remain separated on the grid after jitter.
    """

    _kind = "function_family"

    clusters: tuple[ClusterTemplate, ...]
    weights: tuple[float, ...]
    d: int
    eps_bar: float = 0.0

    def __post_init__(self):
        if len(self.clusters) == 0:
            raise ValueError("family needs at least one cluster template")
        _check_weights(self.weights, len(self.clusters), "cluster")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.d > MAX_GRID_D:
            raise ValueError(f"d must be <= {MAX_GRID_D}, got {self.d}")
        if self.eps_bar < 0.0:
            raise ValueError("eps_bar must be nonnegative")
        s = self.clusters[0].s
        if any(c.s != s for c in self.clusters):
            raise ValueError("all cluster templates must share one component count")
        grid = grid_times(self.d)
        for c in self.clusters:
            if not c.range_ok():
                raise ValueError("a jittered template can leave [0, 1]")
            for comp in c.components:
                if comp.jump_time is not None and np.any(
                    np.abs(grid - comp.jump_time) < 1e-9
                ):
                    raise ValueError(
                        f"jump at t={comp.jump_time} collides with a grid point"
                    )
        if self.grid_margin <= 0.0:
            raise ValueError("cluster templates are not separated on the grid")

    @property
    def s(self) -> int:
        return self.clusters[0].s

    @property
    def C(self) -> int:
        return len(self.clusters)

    @property
    def lipschitz(self) -> float:
        return max(c.lipschitz for c in self.clusters)

    @property
    def grid_margin(self) -> float:
        """Worst-case flattened sup-norm separation between distinct clusters."""
        if self.C == 1:
            return math.inf
        grid = grid_times(self.d)
        centers = [c.eval(grid) for c in self.clusters]
        slack = [
            c.offset_jitter + c.amp_jitter * max(abs(comp.amp) + abs(comp.slope) for comp in c.components)
            for c in self.clusters
        ]
        best = math.inf
        for i in range(self.C):
            for j in range(i + 1, self.C):
                gap = float(np.max(np.abs(centers[i] - centers[j]))) - slack[i] - slack[j]
                best = min(best, gap)
        return best


_series_id = "series{:05d}".format


def _drawn_chunks(
    templates: tuple[ClusterTemplate, ...],
    labels: np.ndarray,
    times: np.ndarray,
    eps_bar: float,
    rng: np.random.Generator,
    grid: np.ndarray,
):
    """Draw noisy series of templates[labels[i]] at times, a chunk at a time: yield (start, stop, values).

    A chunk is smoothing._rows_per_block(m) series, the row blocks of
    smooth_batch: about _ROW_BLOCK observations, or one series when m is
    longer. values holds the chunk's (k, m, s) observations in one buffer
    made once per call and refilled for every chunk, so a chunk must be
    used before the next is drawn, and memory holds one chunk's draw and
    values whatever n. The exact values at 1/d..1 go into grid, (n, d, s),
    in one fill once the last chunk is used.

    The random stream is the one of a per-series loop of `draw_jitter` and
    `uniform(-eps_bar, eps_bar, (m, s))` calls: each series takes
    [amp scales s | offset shifts s | noise m*s] from one bulk `random`
    draw per chunk, mapped by `low + (high - low) * u` as `uniform` maps
    it, so the values are bit-identical to that loop's, whatever the chunk
    size: a bulk draw is the run of doubles that draws of its parts, one
    after another, would give. Each chunk's draw
    lands in one buffer made once per call and is mapped in place, and its
    paths are filled straight into values and grid.
    """
    n, m, s = labels.size, times.size, templates[0].s
    noisy = eps_bar > 0
    width = 2 * s + (m * s if noisy else 0)
    # draw_jitter's (amp scale, offset shift) bounds per template, shaped (C, 2, 1) for (k, 2, s) draws,
    # and gathered for every series once: a chunk takes its rows by a slice
    jitter_lo = np.array([[1.0 - t.amp_jitter, -t.offset_jitter] for t in templates])[:, :, None]
    jitter_width = np.array([[1.0 + t.amp_jitter, t.offset_jitter] for t in templates])[:, :, None] - jitter_lo
    jitter_lo, jitter_width = jitter_lo[labels], jitter_width[labels]
    # every series' jitter, kept for one fill of the grid after the last chunk
    jitter = np.empty((n, 2, s))
    paths = _Paths(templates, times)
    step = _rows_per_block(m)
    draws = np.empty(min(step, n) * width)
    buffer = np.empty((min(step, n), m, s))
    for start in range(0, n, step):
        stop = min(start + step, n)
        values = buffer[: stop - start]
        chunk = slice(start, stop)
        with row_loops(m):
            draw = rng.random(out=draws[: (stop - start) * width])
            u = draw.reshape(stop - start, width)
            drawn = np.multiply(u[:, : 2 * s].reshape(-1, 2, s), jitter_width[chunk], out=jitter[chunk])
            drawn += jitter_lo[chunk]
            paths.fill(values, labels[chunk], drawn[:, 0], drawn[:, 1])
            if noisy:
                # mapped as one flat run: the jitter columns it also maps are spent
                lo, hi = -eps_bar, eps_bar
                draw *= hi - lo
                draw += lo
                values += u[:, 2 * s :].reshape(-1, m, s)
        yield start, stop, values  # outside row_loops: its one-row buffer slows the consumer's ops
    _Paths(templates, grid_times(grid.shape[1])).fill(grid, labels, jitter[:, 0], jitter[:, 1])


def _sample_batch(
    templates: tuple[ClusterTemplate, ...],
    labels: np.ndarray,
    m: int,
    d: int,
    eps_bar: float,
    rng: np.random.Generator,
) -> tuple[SeriesBatch, np.ndarray]:
    """Noisy series of length m for templates[labels[i]], plus their grid values at 1/d..1.

    Each chunk _drawn_chunks draws is copied into the batch's values, and
    every series' times are the j/m schedule, one per observation.
    """
    n, s = labels.size, templates[0].s
    times = np.arange(1, m + 1) / m
    values = np.empty((n * m, s))
    blocks = values.reshape(n, m, s)
    grid = np.empty((n, d, s))
    for start, stop, chunk in _drawn_chunks(templates, labels, times, eps_bar, rng, grid):
        blocks[start:stop] = chunk
    batch = SeriesBatch._adopt([_series_id(i) for i in range(n)], s, np.arange(n + 1) * m, np.tile(times, n), values)
    return batch, grid


def _drawn_labels(fspec: FunctionFamilySpec, n: int, m: int, seed) -> tuple[np.ndarray, np.random.Generator]:
    """Check n and m, then draw the n cluster labels that start every sampler's random stream."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m <= fspec.d:
        raise ValueError(f"need m > d, got m={m}, d={fspec.d}")
    rng = np.random.default_rng(seed)
    return rng.choice(fspec.C, size=n, p=np.asarray(fspec.weights, dtype=float)), rng


def sample_series_batch(
    fspec: FunctionFamilySpec,
    n: int,
    m: int,
    seed,
) -> tuple[SeriesBatch, np.ndarray, np.ndarray]:
    """Draw n noisy series of length m, their labels, and their exact (n, d, s) grid values.

    Observation times are j/m for every series; noise is i.i.d. uniform on
    [-eps_bar, eps_bar] across series, components, and times.
    """
    labels, rng = _drawn_labels(fspec, n, m, seed)
    batch, grid = _sample_batch(fspec.clusters, labels, m, fspec.d, fspec.eps_bar, rng)
    return batch, labels, grid


def _sample_smoothed(fspec: FunctionFamilySpec, n: int, m: int, seed, gamma: float):
    """(est, labels, truth): sample_series_batch's series smoothed at bandwidth gamma, without the batch.

    est is `smooth_batch(batch, fspec.d, gamma)` and labels and truth are
    sample_series_batch's, bit for bit, but each chunk of series is
    smoothed as it is drawn (smoothing._smooth_chunks), so memory holds
    one chunk's draw and values and the two (n, d, s) grids, never the n*m
    observations. An empty window warns as in smooth_batch, chunk by chunk.
    """
    labels, rng = _drawn_labels(fspec, n, m, seed)
    times = np.arange(1, m + 1) / m
    truth, est = np.empty((n, fspec.d, fspec.s)), np.zeros((n, fspec.d, fspec.s))
    chunks = _drawn_chunks(fspec.clusters, labels, times, fspec.eps_bar, rng, truth)
    return _smooth_chunks(est, chunks, times, gamma, _series_id), labels, truth


def sample_raw_series(
    fspec: FunctionFamilySpec,
    n: int,
    m: int,
    seed,
) -> tuple[SeriesBatch, np.ndarray, list[GridSeries]]:
    """sample_series_batch with its grid values as GridSeries views; the batch is a sequence of RawSeries."""
    batch, labels, grid = sample_series_batch(fspec, n, m, seed)
    return batch, labels, _adopt_grid(batch.ids, grid)


# ---------------------------------------------------------------------------
# Pinned reference configurations
# ---------------------------------------------------------------------------


def single_bump_mixture_1d() -> MixtureSpec:
    """One triangular bump on [0.2, 0.8]: the plain rate-check mixture."""
    return MixtureSpec(
        components=(MixtureComponent(bumps=(Bump1D(0.2, 0.8, "triangular"),)),),
        weights=(1.0,),
    )


def two_bump_mixture_1d() -> MixtureSpec:
    """Two well-separated triangular bumps; margin 0.66."""
    return MixtureSpec(
        components=(
            MixtureComponent(bumps=(Bump1D(0.05, 0.17, "triangular"),)),
            MixtureComponent(bumps=(Bump1D(0.83, 0.95, "triangular"),)),
        ),
        weights=(0.5, 0.5),
    )


def lipschitz_family(d: int = 4, eps_bar: float = 0.0) -> FunctionFamilySpec:
    """Two jump-free sinusoid clusters; slope bound pi * 0.15 per instance."""
    return FunctionFamilySpec(
        clusters=(
            ClusterTemplate(
                components=(TemplateComponent(kind="sine", offset=0.3, amp=0.15, freq=0.5),),
                offset_jitter=0.02,
            ),
            ClusterTemplate(
                components=(
                    TemplateComponent(kind="sine", offset=0.7, amp=0.15, freq=0.5, phase=0.5),
                ),
                offset_jitter=0.02,
            ),
        ),
        weights=(0.5, 0.5),
        d=d,
        eps_bar=eps_bar,
    )


def gap_family(eps_bar: float = 0.02) -> FunctionFamilySpec:
    """Two gentle sinusoid clusters whose flattened law has real spread.

    Offset and amplitude jitter span both flattened coordinates, so the
    points do not collapse into near-atoms; ball-boundary crossings under
    estimation error then stay proportional to the error instead of
    flipping whole clusters at once.
    """
    return FunctionFamilySpec(
        clusters=(
            ClusterTemplate(
                components=(TemplateComponent(kind="sine", offset=0.28, amp=0.05, freq=0.25),),
                offset_jitter=0.08,
                amp_jitter=0.8,
            ),
            ClusterTemplate(
                components=(
                    TemplateComponent(kind="sine", offset=0.72, amp=0.05, freq=0.25, phase=0.5),
                ),
                offset_jitter=0.08,
                amp_jitter=0.8,
            ),
        ),
        weights=(0.5, 0.5),
        d=2,
        eps_bar=eps_bar,
    )


def jump_family(d: int = 4, eps_bar: float = 0.05) -> FunctionFamilySpec:
    """One smooth cluster and one cluster with a jump between grid points."""
    return FunctionFamilySpec(
        clusters=(
            ClusterTemplate(
                components=(TemplateComponent(kind="linear", offset=0.15, slope=0.2),),
                offset_jitter=0.02,
            ),
            ClusterTemplate(
                components=(
                    TemplateComponent(
                        kind="constant", offset=0.55, jump_time=0.55, jump_size=0.25
                    ),
                ),
                offset_jitter=0.02,
            ),
        ),
        weights=(0.5, 0.5),
        d=d,
        eps_bar=eps_bar,
    )


def grid_resolution_templates() -> tuple[ClusterTemplate, ClusterTemplate]:
    """A pair that agrees at t in {1/5..1} but separates at finer grids."""
    flat = ClusterTemplate(components=(TemplateComponent(kind="constant", offset=0.5),))
    wavy = ClusterTemplate(
        components=(TemplateComponent(kind="sine", offset=0.5, amp=0.22, freq=5.0),)
    )
    return flat, wavy
