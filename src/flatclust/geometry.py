"""Euclidean ball geometry and the regularized incomplete beta function.

Closed-form quantities used by the spherical-kernel density estimator and by
the ball-perturbation volume bounds: unit-ball volumes, I_x(a, b), the exact
volume of the symmetric difference of two equal-radius balls, and the
cruder hypercylinder bound on that volume.

`reg_inc_beta`, `ball_sym_diff_volume` and `ball_sym_diff_bound` take
arrays as well as scalars, through one code path: arrays give an array,
scalars a float, and every element has the bits of the scalar call on it.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

__all__ = [
    "RegimeWarning",
    "ball_volume",
    "log_ball_volume",
    "reg_inc_beta",
    "ball_sym_diff_volume",
    "ball_sym_diff_bound",
]

class RegimeWarning(UserWarning):
    """A bound was evaluated outside the regime in which it is proven."""


def _validate_dim(dim) -> int:
    """`dim` as an int; any integral type is accepted, numpy's included."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return int(dim)


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    return float(values[bad].flat[0])


def _checked(name: str, value, *, positive: bool = False) -> np.ndarray:
    """`value` as a float array, refused unless every element is finite and > 0 (positive) or >= 0."""
    values = np.asarray(value, dtype=float)
    bad = ~(np.isfinite(values) & ((values > 0.0) if positive else (values >= 0.0)))
    if bad.any():
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {_first(values, bad)!r}")
    return values


def _result(values: np.ndarray):
    return values if values.ndim else float(values)


def log_ball_volume(dim: int) -> float:
    """log of the unit-ball volume, stable for large dimension."""
    dim = _validate_dim(dim)
    return 0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim + 1.0)


def ball_volume(dim: int) -> float:
    """Volume of the unit ball in `dim` dimensions, pi^(d/2) / Gamma(d/2 + 1).

    Evaluated in log space above dimension 20; the direct quotient loses
    accuracy and eventually overflows as both terms grow.
    """
    dim = _validate_dim(dim)
    if dim > 20:
        return math.exp(log_ball_volume(dim))
    return math.pi ** (0.5 * dim) / math.gamma(0.5 * dim + 1.0)


def reg_inc_beta(x, a: float, b: float):
    """Regularized incomplete beta function I_x(a, b), by scipy.special.betainc.

    `x` is a scalar or an array; the shapes `a`, `b` are scalars.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    x = np.asarray(x, dtype=float)
    bad = ~((0.0 <= x) & (x <= 1.0))
    if bad.any():
        raise ValueError(f"x must lie in [0, 1], got {_first(x, bad)!r}")
    # imported here so that `import flatclust` does not load scipy.special
    from scipy.special import betainc

    return _result(betainc(a, b, x))


def ball_sym_diff_volume(dist, delta, dim: int):
    """Exact volume of B(p, delta) symmetric-difference B(q, delta), |p-q| = dist.

    Equal radii throughout; the shared volume is twice a hyperspherical cap,
    which reduces to the incomplete-beta identity
    intersection = delta^dim * v_dim * I_{1 - dist^2/(4 delta^2)}((dim+1)/2, 1/2).
    At dist >= 2 delta the balls are disjoint and the volume is both balls.

    `dist` and `delta` are scalars or arrays of pairs, each finite, dist >= 0
    and delta > 0. delta^dim is `np.float_power`, which rounds as Python's
    `delta**dim` does; numpy's `**` on an array multiplies small integer
    powers out and so differs in the last bit for about one element in 20.
    """
    dim = _validate_dim(dim)
    dist = _checked("dist", dist)
    delta = _checked("delta", delta, positive=True)
    full = 2.0 * np.float_power(delta, dim) * ball_volume(dim)
    # shared volume = full * I_{1-u}((dim+1)/2, 1/2) with u = dist^2/(4 delta^2);
    # the reflected form I_u(1/2, (dim+1)/2) evaluates the small complement
    # directly instead of cancelling it against 1. I_0 = 0 gives 0 at dist 0,
    # and u capped at 1 gives I_1 = 1, both whole balls, once they are disjoint.
    u = (dist * dist) / (4.0 * delta * delta)
    return _result(full * reg_inc_beta(np.minimum(u, 1.0), 0.5, 0.5 * (dim + 1)))


def ball_sym_diff_bound(eps, delta, dim: int):
    """Hypercylinder bound 2^dim * delta^(dim-1) * eps on the symmetric difference.

    Proven for center shifts eps <= delta; larger eps still evaluates the
    formula but raises RegimeWarning, once per call, naming the first such
    pair. `eps` and `delta` are scalars or arrays of pairs, each finite,
    eps >= 0 and delta > 0; delta^(dim-1) is `np.float_power` for the bits
    of Python's `**`, as in `ball_sym_diff_volume`.
    """
    dim = _validate_dim(dim)
    eps = _checked("eps", eps)
    delta = _checked("delta", delta, positive=True)
    outside = eps > delta
    if outside.any():
        eps_at, delta_at = (_first(v, outside) for v in np.broadcast_arrays(eps, delta))
        warnings.warn(
            f"eps={eps_at} exceeds delta={delta_at}; bound evaluated outside its regime",
            RegimeWarning,
            stacklevel=2,
        )
    return _result(2.0**dim * np.float_power(delta, dim - 1) * eps)
