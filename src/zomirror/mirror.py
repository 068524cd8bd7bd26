"""Entropy-like mirror geometry, its composite proximal step and gradient map.

The distance-generating function

    phi(x) = sum_i ((|x_i| + 1/d) * ln(d*|x_i| + 1) - |x_i|)

is strictly convex, coordinate-separable, and symmetric.  Its gradient and
conjugate gradient have closed forms, and the proximal step for an elastic
net reduces per coordinate to a soft shrinkage in the dual followed by a
scalar Lambert-W solve.

The prox solves that Lambert equation over the whole vector, or over a
(k, d) stack of points with one eta per row, in one array call, not over
a gathered subset of active coordinates; each row of a stack stops its
Halley steps when its own coordinates converge, so it equals the prox of
that point alone bit for bit.  A coordinate that the l1 weight zeroes
carries the argument ``log_arg = -inf``: exp(-inf) = 0 and W(0) = 0
exactly, so it meets the residual test at the start, every Halley step
leaves it at exactly 0, and it cannot change how many steps the active
coordinates take.  Its magnitude 0/b - 1/d is then clipped to 0, which
is what the shrinkage gives it.  A heavy quadratic weight gamma2/(eta*d)
can push the Lambert argument exp(s) past the overflow guard although
the prox itself is small; those coordinates solve w + ln(w) = s for
w = W(exp(s)) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ElasticNet, FeasibleSet, NumericError, _check_count, _check_scale

__all__ = [
    "MirrorGeometry",
    "dgf_value",
    "mirror_map",
    "inverse_mirror_map",
    "bregman",
    "lambert_w0",
    "prox_composite",
    "GradientMapResult",
    "gradient_map",
]

# exp(|theta|) must stay below 1e300 so d*|y| + 1 never overflows.
_LN_CAP = float(np.log(1e300))
_W_TOL = 1e-12
_W_MAX_ITER = 50
_NEG_INV_E = -float(np.exp(-1.0))
_MIN_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class MirrorGeometry:
    """Dimension-bound handle for the entropy-like geometry."""

    dimension: int
    inv_d: float = field(init=False)

    def __post_init__(self) -> None:
        _check_count("dimension", self.dimension)
        object.__setattr__(self, "inv_d", 1.0 / self.dimension)


def _dgf_terms(geo: MirrorGeometry, x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return (ax + geo.inv_d) * np.log1p(geo.dimension * ax) - ax


def dgf_value(geo: MirrorGeometry, x) -> float:
    """phi(x); nonnegative, zero only at the origin."""
    return float(np.sum(_dgf_terms(geo, np.asarray(x, dtype=float))))


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
    """B(y, x) = phi(y) - phi(x) - <grad phi(x), y - x>; always >= 0.

    Summed over coordinates, each clipped at 0: a coordinate's divergence
    is nonnegative, and its terms cancel to roundoff, possibly below 0,
    when y_i is within a few ulps of x_i.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise ValueError("bregman arguments must have equal shapes")
    terms = _dgf_terms(geo, y) - _dgf_terms(geo, x) - mirror_map(geo, x) * (y - x)
    return float(np.sum(np.maximum(terms, 0.0)))


def _w0_halley(z: np.ndarray, negative: bool = False) -> np.ndarray:
    """Principal Lambert branch on an array of one or more dimensions;
    assumes z >= -1/e element-wise, ``negative`` true if z holds a
    negative element, and no -0.0 otherwise (its start log1p(z) would
    keep the sign).

    On a 1-D array every element takes Halley steps until all of them
    meet the residual test; none is frozen early.  On a (k, d) stack of
    z >= 0 rows, a row stops once all of its own elements meet the test:
    it is written out and leaves the working set, so each row takes the
    steps it would take alone.  The steps run in place on buffers
    allocated once per call (again when rows leave).
    """
    near_branch = False
    if not negative:
        # The prox's case: log1p(z) is the general start on z >= 0.
        w = np.log1p(z)
        target = np.maximum(z, 1.0)
    else:
        w = np.where(z >= 0.0, np.log1p(np.maximum(z, 0.0)), z)
        near = z < -0.36
        if np.any(near):
            near_branch = True
            p = np.sqrt(2.0 * (1.0 + np.e * np.where(near, z, 0.0)))
            w = np.where(near, -1.0 + p - p * p / 3.0, w)
        target = np.abs(z)
        np.maximum(target, 1.0, out=target)
    target *= _W_TOL
    ew, f, wp1, tmp = np.empty((4, *w.shape))
    met = np.empty(w.shape, dtype=bool)
    out = rows = None
    for step in range(_W_MAX_ITER + 1):
        np.exp(w, out=ew)
        np.multiply(w, ew, out=f)
        f -= z
        # A count, not met.all(): the same truth value (a NaN residual
        # fails both) at about half the per-call cost on small arrays.
        np.less_equal(np.abs(f, out=tmp), target, out=met)
        if np.count_nonzero(met) == met.size:
            if rows is None:
                return w
            out[rows] = w
            return out
        if step == _W_MAX_ITER:
            break
        if w.ndim == 2 and len(w) > 1:
            done = met.all(axis=1)
            if done.any():
                if rows is None:
                    out, rows = np.empty_like(w), np.arange(len(w))
                out[rows[done]] = w[done]
                keep = ~done
                rows, w, z, target, ew, f, met = (a[keep] for a in (rows, w, z, target, ew, f, met))
                wp1, tmp = np.empty((2, *w.shape))
        np.add(w, 1.0, out=wp1)
        if near_branch:
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


def _w0_of_exp(s: np.ndarray) -> np.ndarray:
    """W(exp(s)) for s > _LN_CAP, where exp(s) itself may overflow.

    w = W(exp(s)) is the root of w + ln(w) = s, found by Newton steps from
    s - ln(s); the residual is driven below 1e-12 * s, the precision that
    s itself carries.  An infinite s raises NumericError.
    """
    if not np.isfinite(s).all():
        raise NumericError("prox overflow: Lambert argument too large")
    w = s - np.log(s)
    for _ in range(_W_MAX_ITER):
        f = w + np.log(w) - s
        if np.all(np.abs(f) <= _W_TOL * s):
            return w
        w -= f / (1.0 + 1.0 / w)
    raise NumericError("lambert_w0 failed to converge")


def lambert_w0(z):
    """Principal branch of the Lambert function: w with w * exp(w) = z.

    Accepts a scalar or an array; defined for z >= -1/e, so NaN is
    rejected too.  The residual |w * exp(w) - z| is driven below
    1e-12 * max(1, |z|).
    """
    arr = np.asarray(z, dtype=float)
    if not (arr >= _NEG_INV_E).all():
        raise ValueError("lambert_w0 domain is z >= -1/e")
    if np.any(arr > 1e300):
        raise NumericError("lambert_w0 overflow: z too large")
    # Adding +0.0 turns -0.0 into +0.0 and leaves every other value alone.
    w = _w0_halley(arr.reshape(-1) + 0.0, negative=arr.min(initial=0.0) < 0.0).reshape(arr.shape)
    if np.ndim(z) == 0:
        return float(w)
    return w


def _rows_apart(geo, x_t, g, eta, reg, feasible_set) -> np.ndarray:
    """A stack's prox solved one row at a time; eta is a (k, 1) column."""
    return np.stack([prox_composite(geo, x, gi, e, reg, feasible_set) for x, gi, (e,) in zip(x_t, g, eta)])


def prox_composite(
    geo: MirrorGeometry,
    x_t,
    g,
    eta,
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

    ``x_t`` and ``g`` are one point of shape (d,) with a scalar ``eta``,
    or a (k, d) stack of points, one per row, with ``eta`` a scalar or a
    sequence of k step weights, one per row.  Each row of a stack's
    result equals the one-point prox of that row bit for bit, and a stack
    raises what its first failing row raises alone: ValueError for a NaN
    in ``x_t`` or ``g``, NumericError for an overflow.  Rows that straddle
    the switch to the gamma2 = 0 formula, or reach the log-space Lambert
    solve, are solved one at a time.
    """
    x_t = np.asarray(x_t, dtype=float)
    g = np.asarray(g, dtype=float)
    stacked = x_t.ndim == 2
    if stacked:
        eta = np.asarray(eta, dtype=float)
        for e in eta.reshape(-1):
            _check_scale("eta", e)
    else:
        # One scalar, used as a Python float as a stack's rows are: in
        # float32, gamma2/eta = 0 would not count as small.  A float
        # (np.float64 included) skips np.ndim's array conversion.
        if not isinstance(eta, float) and np.ndim(eta):
            raise ValueError("one point takes one scalar eta")
        _check_scale("eta", eta)
        eta = float(eta)
    if x_t.shape != g.shape or x_t.shape[-1:] != (geo.dimension,) or x_t.ndim > 2 or not len(x_t):
        raise ValueError("x_t and g must both have shape (dimension,) or (k, dimension) with k >= 1")
    if stacked:
        if eta.ndim and eta.shape != (len(x_t),):
            raise ValueError("a stack takes one eta or one eta per row")
        # Per-row scalars as a (k, 1) column: elementwise, they are the
        # one-point call's Python-float values.
        eta = np.broadcast_to(eta.reshape(-1, 1), (len(x_t), 1))

    # z = mirror_map(x_t) - g/eta, built in place; s is the second buffer.
    z = np.abs(x_t)
    z *= geo.dimension
    np.log1p(z, out=z)
    s = np.sign(x_t)
    z *= s
    np.divide(g, eta, out=s)
    z -= s
    abs_z = np.abs(z, out=s)
    # maximum propagates NaN, so one reduction also catches a NaN.
    if not np.maximum.reduce(abs_z, axis=None) <= _LN_CAP:
        if stacked:
            return _rows_apart(geo, x_t, g, eta, reg, feasible_set)
        if np.isnan(x_t).any() or np.isnan(g).any():
            raise ValueError("x_t and g must not hold NaN")
        raise NumericError("prox overflow: dual point too large")
    sign_z = np.sign(z, out=z)

    # q_i = ln(d*|y_i| + 1) - gamma1/eta without forming y_i explicitly.
    q = abs_z
    q -= reg.gamma1 / eta
    b = reg.gamma2 / eta
    ab = geo.inv_d * b
    small = ab < _MIN_NORMAL
    if stacked:
        if small.any() != small.all():
            return _rows_apart(geo, x_t, g, eta, reg, feasible_set)
        small = small[0, 0]
    if small:
        # gamma2 = 0, or (1/d)*gamma2/eta underflows to 0 or to a subnormal
        # too coarse for ln(ab); the quadratic term is then negligible and
        # drops out.  fmax sends q <= 0 to +0, and expm1(+0) = +0.
        magnitude = np.expm1(np.fmax(q, 0.0, out=q), out=q)
        magnitude *= geo.inv_d
    else:
        active = q > 0.0
        if stacked:
            # ln(ab) + ab row by row on Python floats, as for one point.
            q += np.array([np.log(v) + v for v in ab[:, 0].tolist()])[:, None]
        else:
            q += np.log(ab) + ab
        log_arg = np.where(active, q, -np.inf)
        big = None
        if np.fmax.reduce(log_arg, axis=None) > _LN_CAP:
            if stacked:
                return _rows_apart(geo, x_t, g, eta, reg, feasible_set)
            # exp(log_arg) would overflow on these coordinates, so they
            # solve in log space; the Halley call sees them as W(0) = 0.
            big = log_arg > _LN_CAP
            big_arg = log_arg[big]
            log_arg[big] = -np.inf
        magnitude = _w0_halley(np.exp(log_arg, out=log_arg))
        if big is not None:
            magnitude[big] = _w0_of_exp(big_arg)
        magnitude /= b
        magnitude -= geo.inv_d
        # Shrinkage never produces a negative magnitude; clip roundoff.
        np.maximum(magnitude, 0.0, out=magnitude)
    np.multiply(sign_z, magnitude, out=magnitude)
    return feasible_set.clamp(magnitude)


@dataclass(frozen=True)
class GradientMapResult:
    """Output of the generalized gradient map at a point or a stack of points.

    ``mapped_point`` is the prox target P(x, g, eta), ``map_vector`` is
    eta*(x - mapped_point), and ``sq_l1_norm`` is its squared l1 norm: a
    float for one point, a (k,) array with one norm per row for a stack.
    """

    mapped_point: np.ndarray
    map_vector: np.ndarray
    sq_l1_norm: float | np.ndarray


def gradient_map(
    x: np.ndarray,
    g: np.ndarray,
    eta: float,
    geometry: MirrorGeometry,
    reg: ElasticNet,
    feasible_set: FeasibleSet,
) -> GradientMapResult:
    """Generalized gradient map G(x, g, eta) = eta*(x - P(x, g, eta)).

    P(x, g, eta) minimizes <g, y> + r(y) + eta*B(y, x) over the feasible
    set; a small ||G||_1 certifies approximate stationarity of the
    composite objective at x.  Like ``prox_composite``, it takes one point
    of shape (d,) or a (k, d) stack of points with one eta or one eta per
    row; each row of a stack's result equals the one-point map bit for bit.
    """
    # prox_composite checks eta first of all.
    mapped = prox_composite(geometry, x, g, eta, reg, feasible_set)
    map_vector = np.asarray(x, dtype=float) - mapped
    stacked = mapped.ndim == 2
    map_vector *= np.reshape(eta, (-1, 1)) if stacked else eta
    l1 = np.abs(map_vector).sum(axis=-1)
    # A norm past 1e154 squares to inf quietly, as a Python float does.
    with np.errstate(over="ignore"):
        sq = l1 * l1
    return GradientMapResult(mapped_point=mapped, map_vector=map_vector, sq_l1_norm=sq if stacked else float(sq))
