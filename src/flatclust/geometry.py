"""Euclidean ball geometry and the regularized incomplete beta function.

Closed-form quantities used by the spherical-kernel density estimator and by
the ball-perturbation volume bounds: unit-ball volumes, I_x(a, b), the exact
volume of the symmetric difference of two equal-radius balls, and the
cruder hypercylinder bound on that volume.
"""

from __future__ import annotations

import math
import warnings

__all__ = [
    "BallSpec",
    "RegimeWarning",
    "ball_volume",
    "log_ball_volume",
    "reg_inc_beta",
    "ball_sym_diff_volume",
    "ball_sym_diff_bound",
]

class RegimeWarning(UserWarning):
    """A bound was evaluated outside the regime in which it is proven."""


def _validate_dim(dim: int) -> None:
    if not isinstance(dim, (int,)) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")


class BallSpec:
    """A closed Euclidean ball given by ambient dimension and radius."""

    __slots__ = ("dim", "radius")

    def __init__(self, dim: int, radius: float):
        _validate_dim(dim)
        if not radius > 0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        self.dim = dim
        self.radius = float(radius)

    def volume(self) -> float:
        return self.radius**self.dim * ball_volume(self.dim)

    def __repr__(self) -> str:
        return f"BallSpec(dim={self.dim}, radius={self.radius})"


def log_ball_volume(dim: int) -> float:
    """log of the unit-ball volume, stable for large dimension."""
    _validate_dim(dim)
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in `dim` dimensions, pi^(d/2) / Gamma(d/2 + 1).

    Evaluated in log space above dimension 20; the direct quotient loses
    accuracy and eventually overflows as both terms grow.
    """
    _validate_dim(dim)
    if dim > 20:
        return math.exp(log_ball_volume(dim))
    return math.pi ** (0.5 * dim) / math.gamma(0.5 * dim + 1.0)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by scipy.special.betainc."""
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    # imported here so that `import flatclust` does not load scipy.special
    from scipy.special import betainc

    return float(betainc(a, b, x))


def ball_sym_diff_volume(dist: float, delta: float, dim: int) -> float:
    """Exact volume of B(p, delta) symmetric-difference B(q, delta), |p-q| = dist.

    Equal radii throughout; the shared volume is twice a hyperspherical cap,
    which reduces to the incomplete-beta identity
    intersection = delta^dim * v_dim * I_{1 - dist^2/(4 delta^2)}((dim+1)/2, 1/2).
    At dist >= 2 delta the balls are disjoint and the volume is both balls.
    """
    _validate_dim(dim)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if dist < 0:
        raise ValueError(f"dist must be nonnegative, got {dist!r}")
    full = 2.0 * delta**dim * ball_volume(dim)
    if dist == 0.0:
        return 0.0
    if dist >= 2.0 * delta:
        return full
    # shared volume = full * I_{1-u}((dim+1)/2, 1/2) with u = dist^2/(4 delta^2);
    # the reflected form I_u(1/2, (dim+1)/2) evaluates the small complement
    # directly instead of cancelling it against 1
    u = (dist * dist) / (4.0 * delta * delta)
    return full * reg_inc_beta(u, 0.5, 0.5 * (dim + 1))


def ball_sym_diff_bound(eps: float, delta: float, dim: int) -> float:
    """Hypercylinder bound 2^dim * delta^(dim-1) * eps on the symmetric difference.

    Proven for center shifts eps <= delta; larger eps still evaluates the
    formula but raises RegimeWarning.
    """
    _validate_dim(dim)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    if eps > delta:
        warnings.warn(
            f"eps={eps} exceeds delta={delta}; bound evaluated outside its regime",
            RegimeWarning,
            stacklevel=2,
        )
    return 2.0**dim * delta ** (dim - 1) * eps
