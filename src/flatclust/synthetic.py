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
from dataclasses import dataclass

import numpy as np

from .codec import Codec, prefixed
from .series import GridSeries, RawSeries, SeriesBatch, grid_series_views, grid_times

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
        z = (np.asarray(x, dtype=float) - self.lo) / self.width
        inside = (z >= 0.0) & (z <= 1.0)
        if self.kind == "triangular":
            core = 4.0 * np.minimum(z, 1.0 - z)
        else:
            core = 6.0 * z * (1.0 - z)
        return np.where(inside, core, 0.0) / self.width

    def pdf_in_z(self, z: float) -> float:
        """Density (in x units) at box coordinate z."""
        if not 0.0 <= z <= 1.0:
            return 0.0
        if self.kind == "triangular":
            return 4.0 * min(z, 1.0 - z) / self.width
        return 6.0 * z * (1.0 - z) / self.width

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
    """Product of per-coordinate bumps over an axis-aligned support box."""

    bumps: tuple[Bump1D, ...]

    def __post_init__(self):
        if len(self.bumps) == 0:
            raise ValueError("component needs at least one coordinate bump")
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
        if len(self.weights) != len(self.components):
            raise ValueError("one weight per component required")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
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

    def base(self, t, amp_scale: float = 1.0):
        t = np.asarray(t, dtype=float)
        if self.kind == "sine":
            return self.offset + amp_scale * self.amp * np.sin(
                2.0 * math.pi * (self.freq * t + self.phase)
            )
        if self.kind == "linear":
            return self.offset + amp_scale * self.slope * t
        return self.offset + np.zeros_like(t)

    def eval(self, t, amp_scale: float = 1.0, offset_shift: float = 0.0):
        out = self.base(t, amp_scale) + offset_shift
        if self.jump_time is not None:
            out = out + self.jump_size * (np.asarray(t, dtype=float) >= self.jump_time)
        return out

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
        amp_scales = np.ones(self.s) if amp_scales is None else np.asarray(amp_scales)
        offset_shifts = np.zeros(self.s) if offset_shifts is None else np.asarray(offset_shifts)
        return np.stack(
            [
                c.eval(t, amp_scale=amp_scales[..., j, None], offset_shift=offset_shifts[..., j, None])
                for j, c in enumerate(self.components)
            ],
            axis=-1,
        )

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
        if len(self.weights) != len(self.clusters):
            raise ValueError("one weight per cluster required")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
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
        best = math.inf
        for i in range(self.C):
            for j in range(i + 1, self.C):
                slack_i = self.clusters[i].offset_jitter + self.clusters[i].amp_jitter * max(
                    abs(comp.amp) + abs(comp.slope) for comp in self.clusters[i].components
                )
                slack_j = self.clusters[j].offset_jitter + self.clusters[j].amp_jitter * max(
                    abs(comp.amp) + abs(comp.slope) for comp in self.clusters[j].components
                )
                gap = float(np.max(np.abs(centers[i] - centers[j]))) - slack_i - slack_j
                best = min(best, gap)
        return best


# Series drawn per bulk draw: memory holds one chunk's uniforms, not the batch's.
SAMPLE_CHUNK = 64


def _sample_batch(
    templates: tuple[ClusterTemplate, ...],
    labels: np.ndarray,
    m: int,
    d: int,
    eps_bar: float,
    rng: np.random.Generator,
) -> tuple[SeriesBatch, np.ndarray]:
    """Noisy series of length m for templates[labels[i]], plus their grid values at 1/d..1.

    The random stream is the one of a per-series loop of `draw_jitter` and
    `uniform(-eps_bar, eps_bar, (m, s))` calls: each series takes
    [amp scales s | offset shifts s | noise m*s] from one bulk `random`
    draw, mapped by `low + (high - low) * u` as `uniform` maps it, so the
    values are bit-identical to that loop's.
    """
    n = labels.size
    s = templates[0].s
    times = np.arange(1, m + 1) / m
    noisy = eps_bar > 0
    width = 2 * s + (m * s if noisy else 0)
    values = np.empty((n * m, s))  # owns its data, so the batch keeps it without a copy
    blocks = values.reshape(n, m, s)
    grid = np.empty((n, d, s))
    for start in range(0, n, SAMPLE_CHUNK):
        stop = min(start + SAMPLE_CHUNK, n)
        u = rng.random((stop - start) * width).reshape(stop - start, width)
        for c, template in enumerate(templates):
            rows = np.nonzero(labels[start:stop] == c)[0]
            if rows.size == 0:
                continue
            lo, hi = 1.0 - template.amp_jitter, 1.0 + template.amp_jitter
            scales = lo + (hi - lo) * u[rows, :s]
            lo, hi = -template.offset_jitter, template.offset_jitter
            shifts = lo + (hi - lo) * u[rows, s : 2 * s]
            block = template.eval(times, scales, shifts)
            if noisy:
                lo, hi = -eps_bar, eps_bar
                block = block + (lo + (hi - lo) * u[rows, 2 * s :]).reshape(-1, m, s)
            blocks[start + rows] = block
            grid[start + rows] = template.eval(grid_times(d), scales, shifts)
    all_times = np.empty(n * m)
    all_times.reshape(n, m)[:] = times
    for a in (values, all_times):
        a.setflags(write=False)  # handed to the batch without a copy
    batch = SeriesBatch(
        ids=[f"series{i:05d}" for i in range(n)],
        s=s,
        offsets=np.arange(n + 1) * m,
        times=all_times,
        values=values,
    )
    return batch, grid


def sample_series_batch(
    fspec: FunctionFamilySpec,
    n: int,
    m: int,
    seed,
) -> tuple[SeriesBatch, np.ndarray, np.ndarray]:
    """Draw n noisy series of length m, their labels, and their exact (n, d, s) grid values.

    Observation times are j/m; noise is i.i.d. uniform on [-eps_bar, eps_bar]
    across series, components, and times.
    """
    if m <= fspec.d:
        raise ValueError(f"need m > d, got m={m}, d={fspec.d}")
    rng = np.random.default_rng(seed)
    labels = rng.choice(fspec.C, size=n, p=np.asarray(fspec.weights, dtype=float))
    batch, grid = _sample_batch(fspec.clusters, labels, m, fspec.d, fspec.eps_bar, rng)
    return batch, labels, grid


def sample_raw_series(
    fspec: FunctionFamilySpec,
    n: int,
    m: int,
    seed,
) -> tuple[list[RawSeries], np.ndarray, list[GridSeries]]:
    """sample_series_batch with per-series RawSeries and GridSeries views."""
    batch, labels, grid = sample_series_batch(fspec, n, m, seed)
    return batch.series(), labels, grid_series_views(batch.ids, grid)


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
