"""Entropy-like mirror geometry and its composite proximal step.

The distance-generating function

    phi(x) = sum_i ((|x_i| + 1/d) * ln(d*|x_i| + 1) - |x_i|)

is strictly convex, coordinate-separable, and symmetric.  Its gradient and
conjugate gradient have closed forms, and the proximal step for an elastic
net reduces per coordinate to a soft shrinkage in the dual followed by a
scalar Lambert-W solve.

The prox solves that Lambert equation over the whole vector in one array
call, not over a gathered subset of active coordinates.  A coordinate
that the l1 weight zeroes carries the argument ``log_arg = -inf``:
exp(-inf) = 0 and W(0) = 0 exactly, so it meets the residual test at the
start, every Halley step leaves it at exactly 0, and it cannot change how
many steps the active coordinates take.  Its magnitude 0/b - 1/d is then
clipped to 0, which is what the shrinkage gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ElasticNet, FeasibleSet, NumericError

__all__ = [
    "MirrorGeometry",
    "dgf_value",
    "mirror_map",
    "inverse_mirror_map",
    "bregman",
    "lambert_w0",
    "prox_composite",
]

# exp(|theta|) must stay below 1e300 so d*|y| + 1 never overflows.
_LN_CAP = float(np.log(1e300))
_W_TOL = 1e-12
_W_MAX_ITER = 50
_NEG_INV_E = -float(np.exp(-1.0))


@dataclass(frozen=True)
class MirrorGeometry:
    """Dimension-bound handle for the entropy-like geometry."""

    dimension: int
    inv_d: float = field(init=False)

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "inv_d", 1.0 / self.dimension)


def dgf_value(geo: MirrorGeometry, x) -> float:
    """phi(x); nonnegative, zero only at the origin."""
    ax = np.abs(np.asarray(x, dtype=float))
    d = geo.dimension
    return float(np.sum((ax + geo.inv_d) * np.log1p(d * ax) - ax))


def mirror_map(geo: MirrorGeometry, x) -> np.ndarray:
    """Gradient of phi: ln(d*|x_i| + 1) * sgn(x_i), with sgn(0) = 0."""
    x = np.asarray(x, dtype=float)
    return np.log1p(geo.dimension * np.abs(x)) * np.sign(x)


def inverse_mirror_map(geo: MirrorGeometry, theta) -> np.ndarray:
    """Gradient of the conjugate: ((1/d) * exp(|theta_i|) - 1/d) * sgn(theta_i).

    Exact inverse of :func:`mirror_map`.  Raises NumericError when
    exp(|theta_i|) would overflow the guarded range.
    """
    theta = np.asarray(theta, dtype=float)
    abs_theta = np.abs(theta)
    if np.any(abs_theta > _LN_CAP):
        raise NumericError("inverse mirror map overflow: |theta| too large")
    return geo.inv_d * np.expm1(abs_theta) * np.sign(theta)


def bregman(geo: MirrorGeometry, y, x) -> float:
    """B(y, x) = phi(y) - phi(x) - <grad phi(x), y - x>; always >= 0."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise ValueError("bregman arguments must have equal shapes")
    return dgf_value(geo, y) - dgf_value(geo, x) - float(np.dot(mirror_map(geo, x), y - x))


def _w0_halley(z: np.ndarray) -> np.ndarray:
    """Principal Lambert branch on an array of one or more dimensions;
    assumes z >= -1/e element-wise.

    Every element takes Halley steps until all of them meet the residual
    test; none is frozen early.  The steps run in place on buffers
    allocated once per call.
    """
    near_branch = None
    if z.min(initial=0.0) >= 0.0:
        # The prox's case: log1p(max(z, 0)) is the general start on z >= 0.
        w = np.maximum(z, 0.0)
        np.log1p(w, out=w)
    else:
        w = np.where(z >= 0.0, np.log1p(np.maximum(z, 0.0)), z)
        near = z < -0.36
        if np.any(near):
            near_branch = near
            p = np.sqrt(2.0 * (1.0 + np.e * np.where(near, z, 0.0)))
            w = np.where(near, -1.0 + p - p * p / 3.0, w)

    target = np.abs(z)
    np.maximum(target, 1.0, out=target)
    target *= _W_TOL
    ew, f, wp1, tmp = (np.empty_like(w) for _ in range(4))
    met = np.empty(w.shape, dtype=bool)
    for step in range(_W_MAX_ITER + 1):
        np.exp(w, out=ew)
        np.multiply(w, ew, out=f)
        f -= z
        if np.less_equal(np.abs(f, out=tmp), target, out=met).all():
            return w
        if step == _W_MAX_ITER:
            break
        np.add(w, 1.0, out=wp1)
        if near_branch is not None:
            # An element solved exactly on the branch point has wp1 = 0 and
            # f = 0, so its Halley step would be 0/0 while the rest of the
            # array still converges.  A unit wp1 makes that step exactly
            # zero; elsewhere a zero residual already gives a zero step.
            np.copyto(wp1, 1.0, where=f == 0.0)
        # w -= f / (ew * wp1 - (w + 2) * f / (2 * wp1))
        ew *= wp1
        np.add(w, 2.0, out=tmp)
        tmp *= f
        wp1 *= 2.0
        tmp /= wp1
        ew -= tmp
        f /= ew
        w -= f
    raise NumericError("lambert_w0 failed to converge")


def lambert_w0(z):
    """Principal branch of the Lambert function: w with w * exp(w) = z.

    Accepts a scalar or an array; defined for z >= -1/e.  The residual
    |w * exp(w) - z| is driven below 1e-12 * max(1, |z|).
    """
    arr = np.asarray(z, dtype=float)
    if np.any(arr < _NEG_INV_E):
        raise ValueError("lambert_w0 domain is z >= -1/e")
    if np.any(arr > 1e300):
        raise NumericError("lambert_w0 overflow: z too large")
    w = _w0_halley(arr.reshape(-1)).reshape(arr.shape)
    if np.ndim(z) == 0:
        return float(w)
    return w


def prox_composite(
    geo: MirrorGeometry,
    x_t,
    g,
    eta: float,
    reg: ElasticNet,
    feasible_set: FeasibleSet,
) -> np.ndarray:
    """Minimize <g, x> + r(x) + eta * B(x, x_t) over the feasible set.

    Coordinate-separable: the dual point z_i = grad phi(x_t)_i - g_i/eta is
    mapped back through the conjugate gradient, the l1 weight zeroes every
    coordinate with ln(d*|y_i| + 1) <= gamma1/eta, and the surviving
    magnitudes solve ln(d*m + 1) + (gamma2/eta)*m = ln(d*|y_i| + 1) -
    gamma1/eta, which is a Lambert-W evaluation (a plain exponential when
    gamma2 = 0).  Box constraints clamp the result coordinate-wise, valid
    because each scalar objective is convex.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x_t = np.asarray(x_t, dtype=float)
    g = np.asarray(g, dtype=float)
    if x_t.shape != g.shape or x_t.shape != (geo.dimension,):
        raise ValueError("x_t and g must both have shape (dimension,)")

    # z = mirror_map(x_t) - g/eta, built in place; s is the second buffer.
    z = np.abs(x_t)
    z *= geo.dimension
    np.log1p(z, out=z)
    s = np.sign(x_t)
    z *= s
    np.divide(g, eta, out=s)
    z -= s
    abs_z = np.abs(z, out=s)
    # fmax skips NaN, so this is any(abs_z > _LN_CAP) in one reduction.
    if np.fmax.reduce(abs_z) > _LN_CAP:
        raise NumericError("prox overflow: dual point too large")
    sign_z = np.sign(z, out=z)

    # q_i = ln(d*|y_i| + 1) - gamma1/eta without forming y_i explicitly.
    q = abs_z
    q -= reg.gamma1 / eta
    if reg.gamma2 == 0.0:
        # fmax sends q <= 0 and NaN to +0, and expm1(+0) = +0.
        magnitude = np.expm1(np.fmax(q, 0.0, out=q), out=q)
        magnitude *= geo.inv_d
    else:
        b = reg.gamma2 / eta
        ab = geo.inv_d * b
        active = q > 0.0
        q += np.log(ab) + ab
        log_arg = np.where(active, q, -np.inf)
        if np.fmax.reduce(log_arg) > _LN_CAP:
            raise NumericError("prox overflow: Lambert argument too large")
        magnitude = _w0_halley(np.exp(log_arg, out=log_arg))
        magnitude /= b
        magnitude -= geo.inv_d
        # Shrinkage never produces a negative magnitude; clip roundoff.
        np.maximum(magnitude, 0.0, out=magnitude)
        if not b > 0.0:
            # gamma2/eta underflowed to 0 (or eta is NaN): W/b is 0/0 on
            # every coordinate, and only the active ones carry it.
            np.copyto(magnitude, 0.0, where=~active)
    np.multiply(sign_z, magnitude, out=magnitude)
    return feasible_set.clamp(magnitude)
