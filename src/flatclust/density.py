"""Spherical-kernel density estimation on flattened points.

The estimator at x is the number of samples in the closed ball B(x, delta)
divided by n * delta^sd * v_sd, so level sets, core-point counts, and the
k <-> lambda conversions are all exact integer arithmetic divided by one
common constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    "level_set_member",
    "mollified_density",
    "sup_norm_error",
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
        self._sample_counts: np.ndarray | None = None

    @property
    def index(self) -> GridIndex:
        return self._index

    @property
    def normalizer(self) -> float:
        """n * delta^sd * v_sd, the constant dividing every ball count."""
        return self._norm

    def count_within_delta(self, x) -> int:
        return self._index.count_within(x, self.delta)

    def sample_counts(self) -> np.ndarray:
        """Neighbor counts |B(x_i, delta)| for every sample, cached."""
        if self._sample_counts is None:
            self._sample_counts = self._index.counts_within_all(self.delta)
        return self._sample_counts

    def sample_densities(self) -> np.ndarray:
        return self.sample_counts() / self._norm


def kde_eval(model: KdeModel, x) -> float:
    """Density estimate |B(x, delta) n sample| / (n delta^sd v_sd)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.sd,):
        raise ValueError(f"query must have shape ({model.sd},), got {x.shape}")
    return model.count_within_delta(x) / model.normalizer


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


def level_set_member(model: KdeModel, lam: float, x) -> bool:
    """Membership in the ball union over samples whose estimate reaches lam.

    True iff some sample x_i has kde_eval(x_i) >= lam and |x - x_i| <= delta.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.sd,):
        raise ValueError(f"query must have shape ({model.sd},), got {x.shape}")
    near = model.index.indices_within(x, model.delta)
    if near.size == 0:
        return False
    return bool(np.any(model.sample_densities()[near] >= lam))


def mollified_density(
    spec,
    delta: float,
    x,
    mc_budget: int = 100_000,
    seed: int | np.random.Generator = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of P(B(x, delta)) / (delta^sd v_sd).

    Draws mc_budget points from the mixture spec and counts the ball hits;
    returns (estimate, standard error).
    """
    if mc_budget < 1_000:
        raise ValueError(f"mc_budget must be >= 1000, got {mc_budget}")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    draws, _ = spec.sample(mc_budget, rng)
    diff = draws - x
    hits = np.einsum("ij,ij->i", diff, diff) <= delta * delta
    p_hat = hits.mean()
    se_p = math.sqrt(p_hat * (1.0 - p_hat) / mc_budget)
    norm = delta**spec.sd * ball_volume(spec.sd)
    return p_hat / norm, se_p / norm


def sup_norm_error(
    estimate: Callable[[np.ndarray], float],
    truth: Callable[[np.ndarray], float],
    eval_points: np.ndarray | Sequence,
) -> float:
    """Max absolute deviation between two functions over a finite point set."""
    pts = np.asarray(eval_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("eval_points must be nonempty")
    best = 0.0
    for p in pts:
        best = max(best, abs(float(estimate(p)) - float(truth(p))))
    return best


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
