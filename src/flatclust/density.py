"""Spherical-kernel density estimation on flattened points.

The estimator at x is the number of samples in the closed ball B(x, delta)
divided by n * delta^sd * v_sd, so level sets, core-point counts, and the
k <-> lambda conversions are all exact integer arithmetic divided by one
common constant.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ball_volume
from .series import flat_array
from .spatial import GridIndex

__all__ = [
    "KdeModel",
    "kde_counts_batch",
    "kde_eval_batch",
    "delta_schedule",
    "lambda_of_k",
    "k_of_lambda",
    "evaluation_lattice",
]


class KdeModel:
    """A sample of flattened points with bandwidth delta and a spatial index."""

    def __init__(self, points, delta: float):
        pts = flat_array(points)
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta!r}")
        self.index = GridIndex(pts)
        self.points = self.index.points
        self.n, self.sd = self.points.shape
        self.delta = delta
        self.normalizer = _normalizer(self.n, delta, self.sd)


def _normalizer(n: int, delta: float, sd: int) -> float:
    """n * delta^sd * v_sd, the constant dividing every ball count.

    Raises ValueError when it is not a positive finite number, as for a
    tiny delta whose power underflows to 0 or a huge one that overflows:
    every level would then divide by 0 or by inf.
    """
    try:
        value = n * delta**sd * ball_volume(sd)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"delta={delta!r} at sd={sd}, n={n} gives n*delta^sd*v_sd={value!r}, not a positive finite number"
        )
    return value


def kde_counts_batch(model: KdeModel, queries: np.ndarray) -> np.ndarray:
    """Ball counts |B(q, delta) n sample| for every row q of queries.

    The index decides every count by the same sq_dists predicate as its
    kd-tree single-query path, GridIndex.count_within, so batch results
    equal looped single-query results exactly; tests hold them equal to the
    kde_eval reference in tests/oracles.py, which takes that path. The
    index refuses a misshapen or non-finite query.
    """
    return model.index.counts_within(queries, model.delta)


def kde_eval_batch(model: KdeModel, queries: np.ndarray) -> np.ndarray:
    """Density estimates |B(q, delta) n sample| / (n delta^sd v_sd) for every row q of queries."""
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
    return k / _normalizer(n, delta, sd)


def k_of_lambda(lam: float, n: int, delta: float, sd: int) -> float:
    """Neighbor-count threshold corresponding to a density level lambda."""
    return lam * _normalizer(n, delta, sd)


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
