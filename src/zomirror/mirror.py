"""Entropy-like mirror geometry, its composite proximal step and gradient map.

The distance-generating function

    phi(x) = sum_i ((|x_i| + 1/d) * ln(d*|x_i| + 1) - |x_i|)

is strictly convex, coordinate-separable, and symmetric.  Its gradient and
conjugate gradient have closed forms, and the proximal step for an elastic
net reduces per coordinate to a soft shrinkage in the dual and a scalar
equation ln(d*m + 1) + (gamma2/eta)*m = q for the magnitude m, whose root
is a Lambert-W value.  The prox solves it for v = ln(d*m + 1), so that
m = expm1(v)/d has no cancellation and nothing overflows, by Halley steps
over the whole vector, or over a (k, d) stack of points with one eta per
row, in one array call.  A stack follows one row rule: each row's weights
over eta are computed once, with the bits a Python float gives at one
point; a row whose coordinates have all converged stops in place by a zero
step while the others go on; and a failing stack raises what its first
failing row raises.  So each row equals the prox of that point alone bit
for bit and warns only where that point would.
"""

from __future__ import annotations

import math
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
_TINIEST = math.ulp(0.0)


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


def lambert_w0(z):
    """Principal branch of the Lambert function: w with w * exp(w) = z.

    Accepts a scalar or an array; defined for z >= -1/e, so NaN is
    rejected too.  Every element takes Halley steps until all residuals
    |w * exp(w) - z| are below 1e-12 * max(1, |z|).
    """
    arr = np.asarray(z, dtype=float)
    if not (arr >= _NEG_INV_E).all():
        raise ValueError("lambert_w0 domain is z >= -1/e")
    if np.any(arr > 1e300):
        raise NumericError("lambert_w0 overflow: z too large")
    # Adding +0.0 turns -0.0, whose start log1p(z) would keep the sign,
    # into +0.0 and leaves every other value alone.
    flat = arr.reshape(-1) + 0.0
    w = np.where(flat >= 0.0, np.log1p(np.maximum(flat, 0.0)), flat)
    near = flat < -0.36
    if near.any():
        p = np.sqrt(2.0 * (1.0 + np.e * np.where(near, flat, 0.0)))
        w = np.where(near, -1.0 + p - p * p / 3.0, w)
    target = _W_TOL * np.maximum(1.0, np.abs(flat))
    for _ in range(_W_MAX_ITER + 1):
        ew = np.exp(w)
        f = w * ew - flat
        if np.all(np.abs(f) <= target):
            w = w.reshape(arr.shape)
            return float(w) if np.ndim(z) == 0 else w
        # An element solved exactly on the branch point has w + 1 = 0 and
        # f = 0; a unit w + 1 makes its step exactly zero, not 0/0.
        wp1 = np.where(f == 0.0, 1.0, w + 1.0)
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise NumericError("lambert_w0 failed to converge")


def _expm1_root(q: np.ndarray, a, floor, threshold) -> np.ndarray:
    """expm1(v) at the root v of h(v) = v + a*expm1(v) - q, elementwise, for
    q >= 0 and a finite a >= 0.  The weights are floats for one point, or
    (k, 1) columns, one value per row, for a (k, d) stack: a, its floor
    max(a, 1e-300) and the far-start threshold ln(1 + 1/floor).

    h is increasing and convex with h(0) <= 0 <= h(q), so Halley steps close
    in from an upper bound: q, or where a*expm1(q) > 1 the smaller of q and
    ln(1 + q/a).  Below a = 1e-300 no q <= _LN_CAP passes that threshold, so
    the floor on a only keeps q/a finite.  The steps stop at |h| <= 1e-12*q,
    q being the size of h's largest term; q = 0 (and gamma2 = 0) meets that
    at the start.  All elements of a point step until all meet it.  A row of
    a stack whose elements all meet it stops in place, by a zero step, so it
    returns the bits it would alone.
    """
    far = q > threshold
    if far.any():
        v = np.where(far, np.minimum(q, np.log1p(q / floor)), q)
    else:
        v = q.copy()
    target = q * _W_TOL
    # A subnormal step of v moves h by (1 + a) * 5e-324: no finer root exists.
    target += (1.0 + a) * _TINIEST
    # em1 becomes the result, so it is not a view that keeps the others alive.
    em1 = np.empty(q.shape)
    ae, h, hp, tmp = np.empty((4, *q.shape))
    met = np.empty(q.shape, dtype=bool)
    for _ in range(_W_MAX_ITER + 1):
        np.expm1(v, out=em1)
        np.multiply(em1, a, out=ae)
        np.add(ae, v, out=h)
        h -= q
        # A count, not met.all(): half the per-call cost on small arrays.
        np.less_equal(np.abs(h, out=tmp), target, out=met)
        if np.count_nonzero(met) == met.size:
            return em1
        # v -= h / (h' - h*h''/(2*h')) with h'' = a*exp(v) and h' = 1 + h'';
        # h''/h' <= 1 is formed first, so no product can overflow.
        ae += a
        np.add(ae, 1.0, out=hp)
        ae /= hp
        ae *= h
        ae *= 0.5
        hp -= ae
        h /= hp
        if h.ndim == 2:
            done = met.all(axis=1)
            if done.any():
                h[done] = 0.0
        v -= h
    raise NumericError("prox magnitude failed to converge")


def _row_error(x_t: np.ndarray, g: np.ndarray, peak) -> Exception:
    """The error of one point whose prox fails, ``peak`` being the largest
    |z_i| of its dual point: ValueError for a NaN in ``x_t`` or ``g``,
    NumericError for an overflowing dual point or, if that is in range, for
    gamma2/eta past the float range with a coordinate active."""
    if peak <= _LN_CAP:
        return NumericError("prox overflow: Lambert argument too large")
    if np.isnan(x_t).any() or np.isnan(g).any():
        return ValueError("x_t and g must not hold NaN")
    return NumericError("prox overflow: dual point too large")


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
    coordinate with ln(d*|y_i| + 1) <= gamma1/eta, and each magnitude m
    solves ln(d*m + 1) + (gamma2/eta)*m = q_i = max(ln(d*|y_i| + 1) -
    gamma1/eta, 0) (``_expm1_root``).  Box constraints clamp the result
    coordinate-wise, valid because each scalar objective is convex.

    ``x_t`` and ``g`` are one point of shape (d,) with a scalar ``eta``,
    or a (k, d) stack of points, one per row, with ``eta`` a scalar or a
    sequence of k step weights, one per row.  Each row of a stack's
    result equals the one-point prox of that row bit for bit, and a stack
    raises what its first failing row raises alone: ValueError for a NaN
    in ``x_t`` or ``g``, NumericError for an overflow.  The elastic-net
    weights act as Python floats, numpy scalars included, and a weight over
    eta past the float range is inf without a warning, in a stack's rows as
    at one point.
    """
    x_t = np.asarray(x_t, dtype=float)
    g = np.asarray(g, dtype=float)
    stacked = x_t.ndim == 2
    if stacked:
        eta = np.asarray(eta, dtype=float)
        # Its extremes fail where any entry does (NaN propagates to both);
        # the initial 1.0 lets an empty eta through to the shape check.
        _check_scale("eta", eta.min(initial=1.0))
        _check_scale("eta", eta.max(initial=1.0))
    else:
        # One scalar, used as a Python float as a stack's rows are: in
        # float32, gamma2/eta could round apart from them.  A float
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

    # The weights are Python floats, so numpy-scalar ones act as floats do.
    gamma1, gamma2 = float(reg.gamma1), float(reg.gamma2)
    # z = mirror_map(x_t) - g/eta, built in place; s is the second buffer.
    # A term past the float range is inf or NaN, which the guard rejects.
    # The weights over eta, a float or one per row, have the bits of Python
    # floats: past the float range they are inf, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.abs(x_t)
        z *= geo.dimension
        np.log1p(z, out=z)
        s = np.sign(x_t)
        z *= s
        np.divide(g, eta, out=s)
        z -= s
        shrink = gamma1 / eta
        a = geo.inv_d * (gamma2 / eta)
    abs_z = np.abs(z, out=s)
    # A row fails on a dual point past the guard or NaN (maximum propagates
    # NaN), or where gamma2/eta is inf with a coordinate active (|z_i| >
    # gamma1/eta); a row with none active solves as if gamma2 were 0.
    peak = np.maximum.reduce(abs_z, axis=None)
    if stacked:
        inf = a == math.inf
        if not peak <= _LN_CAP or inf.any():
            peak = np.maximum.reduce(abs_z, axis=1, keepdims=True)
            fails = ~(peak <= _LN_CAP) | (inf & (peak > shrink))
            if fails.any():
                i = int(fails.argmax())
                raise _row_error(x_t[i], g[i], peak[i, 0])
            a[inf] = 0.0
        floor = np.maximum(a, 1e-300)
        # Row by row with math.log1p, as for one point: np.log1p may round
        # apart from it.
        threshold = np.array([math.log1p(1.0 / f) for f in floor[:, 0].tolist()])[:, None]
    else:
        if not peak <= _LN_CAP or (a == math.inf and peak > shrink):
            raise _row_error(x_t, g, peak)
        a = 0.0 if a == math.inf else a
        floor = max(a, 1e-300)
        threshold = math.log1p(1.0 / floor)
    sign_z = np.sign(z, out=z)

    # q_i without forming y_i explicitly; fmax sends q <= 0 to +0.
    q = abs_z
    q -= shrink
    np.fmax(q, 0.0, out=q)
    magnitude = _expm1_root(q, a, floor, threshold)
    magnitude *= geo.inv_d
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
