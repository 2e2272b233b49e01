"""Spherical-kernel density estimation on flattened points.

The estimator at x is the number of samples in the closed ball B(x, delta)
divided by n * delta^sd * v_sd, so level sets, core-point counts, and the
k <-> lambda conversions are all exact integer arithmetic divided by one
common constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ball_volume
from .series import flat_array
from .spatial import GridIndex

__all__ = [
    "KdeModel",
    "kde_eval",
    "kde_counts_batch",
    "kde_eval_batch",
    "delta_schedule",
    "lambda_of_k",
    "k_of_lambda",
    "evaluation_lattice",
]


@dataclass
class KdeModel:
    """A sample of flattened points with bandwidth delta and a spatial index."""

    points: np.ndarray
    delta: float
    sd: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        pts = flat_array(self.points)
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("need at least one point")
        self.points = pts
        self.n = pts.shape[0]
        self.sd = pts.shape[1]
        self._norm = self.n * self.delta**self.sd * ball_volume(self.sd)
        self._index = GridIndex(pts)

    @property
    def index(self) -> GridIndex:
        return self._index

    @property
    def normalizer(self) -> float:
        """n * delta^sd * v_sd, the constant dividing every ball count."""
        return self._norm


def kde_eval(model: KdeModel, x) -> float:
    """Density estimate |B(x, delta) n sample| / (n delta^sd v_sd) at one point.

    Reference implementation: tests hold kde_eval_batch and the core-point
    sets of the clustering equal to it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.sd,):
        raise ValueError(f"query must have shape ({model.sd},), got {x.shape}")
    return model.index.count_within(x, model.delta) / model.normalizer


def kde_counts_batch(model: KdeModel, queries: np.ndarray) -> np.ndarray:
    """Ball counts |B(q, delta) n sample| for every row q of queries.

    The index decides every count with the same exact refilter as the
    single-query path, so batch results equal looped kde_eval results exactly.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != model.sd:
        raise ValueError(f"queries must have {model.sd} coordinates, got {queries.shape[1]}")
    return model.index.counts_within(queries, model.delta)


def kde_eval_batch(model: KdeModel, queries: np.ndarray) -> np.ndarray:
    """Vectorized kde_eval over the rows of queries."""
    return kde_counts_batch(model, queries) / model.normalizer


def delta_schedule(n: int, sd: int, scale: float = 1.0) -> float:
    """KDE bandwidth (log n / n)^(1/(2+sd)), optionally rescaled."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if sd < 1:
        raise ValueError(f"sd must be >= 1, got {sd}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    return scale * (math.log(n) / n) ** (1.0 / (2.0 + sd))


def lambda_of_k(k: float, n: int, delta: float, sd: int) -> float:
    """Density level corresponding to a neighbor-count threshold k."""
    return k / (n * delta**sd * ball_volume(sd))


def k_of_lambda(lam: float, n: int, delta: float, sd: int) -> float:
    """Neighbor-count threshold corresponding to a density level lambda."""
    return lam * n * delta**sd * ball_volume(sd)


def evaluation_lattice(
    sd: int,
    resolution: int = 200,
    mc_points: int = 100_000,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Finite proxy for [0,1]^sd sup norms.

    A regular lattice with `resolution` points per axis for sd <= 2; a seeded
    uniform Monte Carlo point set for sd >= 3, where the full lattice would
    blow up.
    """
    if sd < 1:
        raise ValueError(f"sd must be >= 1, got {sd}")
    if sd <= 2:
        axis = np.linspace(0.0, 1.0, resolution)
        if sd == 1:
            return axis[:, None]
        a, b = np.meshgrid(axis, axis, indexing="ij")
        return np.column_stack([a.ravel(), b.ravel()])
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(mc_points, sd))
