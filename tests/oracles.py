"""Independent reference implementations used to cross-check the library.

Everything here is written from the mathematical definitions using only
the standard library and numpy, deliberately avoiding the package's own
helpers, so agreement between the two is meaningful evidence.  The
exceptions are frozen copies of earlier forms of package code, kept to pin
the rewritten code bit for bit: ``w0_halley_reference``, a masked-gather
Lambert-W kernel, and ``prox_unweighted_reference``, the gamma2 = 0 prox
in closed form, both raising the package's ``NumericError`` so that
messages compare too, and the run loop's bookkeeping in
``np.sum``/``np.all`` form (``stepsize_update_reference``,
``objective_reference``, ``contains_reference``).
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np

from zomirror.core import FeasibleSet, NumericError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Golden-section minimizer of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def scalar_dgf(d: int, y: float) -> float:
    a = abs(y)
    return (a + 1.0 / d) * math.log(d * a + 1.0) - a


def scalar_mirror(d: int, y: float) -> float:
    if y == 0.0:
        return 0.0
    return math.copysign(math.log(d * abs(y) + 1.0), y)


def scalar_bregman(d: int, y: float, x: float) -> float:
    return scalar_dgf(d, y) - scalar_dgf(d, x) - scalar_mirror(d, x) * (y - x)


def prox_objective_1d(
    d: int, y: float, x: float, g: float, eta: float, gamma1: float, gamma2: float
) -> float:
    """Per-coordinate composite prox objective at candidate y."""
    return g * y + gamma1 * abs(y) + 0.5 * gamma2 * y * y + eta * scalar_bregman(d, y, x)


def prox_reference(
    d: int,
    x: np.ndarray,
    g: np.ndarray,
    eta: float,
    gamma1: float,
    gamma2: float,
    lo: np.ndarray | None = None,
    hi: np.ndarray | None = None,
    tol: float = 1e-9,
) -> np.ndarray:
    """Coordinate-wise golden-section solution of the composite prox.

    The unconstrained bracket is derived from the dual offset: the
    minimizer magnitude never exceeds the pure mirror image of the dual
    point, so (exp(|z|) - 1)/d + 1 with z = mirror(x) - g/eta brackets it.
    """
    out = np.empty(d)
    for i in range(d):
        if lo is not None:
            a, b = float(lo[i]), float(hi[i])
        else:
            z = scalar_mirror(d, float(x[i])) - float(g[i]) / eta
            radius = math.expm1(min(abs(z), 30.0)) / d + 1.0
            a, b = -radius, radius
        out[i] = golden_min(
            lambda y: prox_objective_1d(d, y, float(x[i]), float(g[i]), eta, gamma1, gamma2),
            a,
            b,
            tol,
        )
    return out


def sample_loss_reference(
    matrix: np.ndarray, targets: np.ndarray, kind: str, x: np.ndarray, index: int
) -> float:
    """Row loss in numpy array arithmetic: 0.5*r^2, or r^2/(1 + r^2) on a 0-d array."""
    r = float(matrix[index] @ x - targets[index])
    if kind == "least_squares":
        return 0.5 * r * r
    sq = np.square(np.asarray(r))
    return float(sq / (1.0 + sq))


def margin_reference(logits: np.ndarray, k0: int, mode: str) -> float:
    """Explanation margin from np.delete and np.max over the rival logits.

    PP: best rival minus class k0; PN: class k0 minus best rival.
    """
    top = np.max(np.delete(logits, k0))
    if mode == "PP":
        return float(top - logits[k0])
    return float(logits[k0] - top)


def softplus_ref(c: float) -> float:
    """Reference softplus via the exact identity ln(1+e^c) = max(c,0) + log1p(e^-|c|)."""
    return max(c, 0.0) + math.log1p(math.exp(-abs(c)))


def all_sign_vectors(d: int) -> np.ndarray:
    """All 2^d vectors with entries in {-1, +1}, as a (2^d, d) array."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def enumerated_linear_mean(a: np.ndarray) -> np.ndarray:
    """Exact E[<a,u>u] over all sign vectors, computed directly."""
    U = all_sign_vectors(len(a))
    return (U * (U @ a)[:, None]).mean(axis=0)


def decimal_bregman_margin(d: int, y, x, prec: int = 50) -> float:
    """Bregman divergence minus its l1 lower bound, at ``prec`` decimal digits.

    B(y, x) cancels catastrophically in binary64 when y is within ~1e-5 of
    x, so near-tie comparisons against the bound need an exact-arithmetic
    arbiter.  Decimal(float(.)) conversions are exact, and Decimal.ln()
    rounds correctly at the working precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        dd = decimal.Decimal(d)
        inv_d = 1 / dd

        def phi(t: decimal.Decimal) -> decimal.Decimal:
            a = abs(t)
            return (a + inv_d) * (dd * a + 1).ln() - a

        def theta(t: decimal.Decimal) -> decimal.Decimal:
            m = (dd * abs(t) + 1).ln()
            return m if t > 0 else (-m if t < 0 else decimal.Decimal(0))

        xs = [decimal.Decimal(float(v)) for v in np.atleast_1d(x)]
        ys = [decimal.Decimal(float(v)) for v in np.atleast_1d(y)]
        breg = sum((phi(b) - phi(a) - theta(a) * (b - a) for a, b in zip(xs, ys)),
                   decimal.Decimal(0))
        gap = sum((abs(b - a) for a, b in zip(xs, ys)), decimal.Decimal(0))
        norm = max(sum(abs(a) for a in xs), sum(abs(b) for b in ys))
        bound = gap * gap / (2 * (norm + 1))
        return float(breg - bound)


def decimal_prox_magnitude(d: int, gamma2: float, eta: float, q: float, prec: int = 50) -> float:
    """Root m >= 0 of ln(d*m + 1) + (gamma2/eta)*m = q, at ``prec`` decimal digits.

    Newton steps on v = ln(d*m + 1), the root of the increasing convex
    v + (gamma2/(eta*d))*(e^v - 1) - q, decrease monotonically from the
    upper bound min(q, ln(1 + q*eta*d/gamma2)).  e^v - 1 is taken at
    enough extra digits to keep ``prec`` significant ones for tiny v.
    Decimal(float(.)) conversions are exact, so the root is that of the
    floats given, not of their rounded ratio.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        q = decimal.Decimal(float(q))
        if q <= 0:
            return 0.0
        a = decimal.Decimal(float(gamma2)) / (decimal.Decimal(float(eta)) * d)

        def expm1(v: decimal.Decimal) -> decimal.Decimal:
            with decimal.localcontext() as wide:
                wide.prec = prec + max(0, -v.adjusted())
                return +(v.exp() - 1)

        v = q if a == 0 else min(q, (1 + q / a).ln())
        while True:
            e = expm1(v)
            step = (v + a * e - q) / (1 + a * (e + 1))
            v -= step
            if abs(step) <= v.scaleb(-prec + 5):
                return float(expm1(v) / d)


def mean_loss_reference(matrix: np.ndarray, targets: np.ndarray, kind: str, x: np.ndarray) -> float:
    """Mean row loss from its own residual: 0.5*mean(r^2) or mean(r^2/(1 + r^2))."""
    r = matrix @ x - targets
    sq = r * r
    if kind == "least_squares":
        return 0.5 * float(np.mean(sq))
    return float(np.mean(sq / (1.0 + sq)))


def gradient_reference(matrix: np.ndarray, targets: np.ndarray, kind: str, x: np.ndarray) -> np.ndarray:
    """Exact mean gradient from its own residual: A^T r / n, or A^T rho'(r) / n."""
    r = matrix @ x - targets
    if kind == "least_squares":
        return matrix.T @ r / len(targets)
    return matrix.T @ (2.0 * r / np.square(1.0 + r * r)) / len(targets)


# Frozen kernel copies (see the module docstring).  Their constants and the
# mirror map are inlined with the values the package uses.
_REF_LN_CAP = float(np.log(1e300))
_REF_W_TOL = 1e-12
_REF_W_MAX_ITER = 50


def w0_halley_reference(z: np.ndarray) -> np.ndarray:
    """Principal Lambert branch on an array; assumes z >= -1/e element-wise."""
    z = np.asarray(z, dtype=float)
    w = np.where(z >= 0.0, np.log1p(np.maximum(z, 0.0)), z)
    near_branch = z < -0.36
    any_near = bool(np.any(near_branch))
    if any_near:
        p = np.sqrt(2.0 * (1.0 + np.e * np.where(near_branch, z, 0.0)))
        w = np.where(near_branch, -1.0 + p - p * p / 3.0, w)

    target = _REF_W_TOL * np.maximum(1.0, np.abs(z))
    for _ in range(_REF_W_MAX_ITER):
        ew = np.exp(w)
        f = w * ew - z
        if np.all(np.abs(f) <= target):
            return w
        wp1 = w + 1.0
        if any_near:
            wp1 = np.where(f == 0.0, 1.0, wp1)
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w = w - f / denom
    ew = np.exp(w)
    if np.all(np.abs(w * ew - z) <= target):
        return w
    raise NumericError("lambert_w0 failed to converge")


def prox_unweighted_reference(d: int, x_t, g, eta: float, gamma1: float, feasible_set: FeasibleSet) -> np.ndarray:
    """Composite mirror prox at gamma2 = 0: gather the active coordinates,
    take (1/d)*expm1(q) in closed form, scatter back."""
    inv_d = 1.0 / d
    x_t = np.asarray(x_t, dtype=float)
    g = np.asarray(g, dtype=float)

    z = np.log1p(d * np.abs(x_t)) * np.sign(x_t) - g / eta
    abs_z = np.abs(z)
    if np.any(abs_z > _REF_LN_CAP):
        raise NumericError("prox overflow: dual point too large")

    q = abs_z - gamma1 / eta
    active = q > 0.0
    magnitude = np.zeros_like(z)
    magnitude[active] = inv_d * np.expm1(q[active])
    candidate = np.sign(z) * magnitude
    return feasible_set.clamp(candidate)


# Frozen bookkeeping forms (see the module docstring).


def stepsize_update_reference(x, y, alpha: float, accum: float, rule, t: int, m: int) -> tuple[float, float]:
    """(alpha_{t+1}, accum) with each l1 norm taken by np.sum."""
    if rule is None:
        return alpha, accum
    lam = 1.0 / (max(float(np.sum(np.abs(x))), float(np.sum(np.abs(y)))) + 1.0)
    accum += (lam * alpha * float(np.sum(np.abs(y - x)))) ** 2
    alpha_next = rule(accum, t, m)
    if alpha_next < alpha:
        raise RuntimeError("stepsize invariant violated: alpha decreased")
    return alpha_next, accum


def objective_reference(losses, X: np.ndarray, gamma1: float, gamma2: float) -> list[float]:
    """float(loss) + gamma1*||x||_1 + (gamma2/2)*||x||_2^2 per row, each
    term skipped at zero weight, in elastic_net_value's order."""
    out = []
    for loss, x in zip(losses, X):
        value = 0.0
        if gamma1 != 0.0:
            value += gamma1 * float(np.sum(np.abs(x)))
        if gamma2 != 0.0:
            value += 0.5 * gamma2 * float(np.dot(x, x))
        out.append(float(loss) + value)
    return out


def contains_reference(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> bool:
    """Whether lo <= x <= hi holds everywhere."""
    return bool(np.all(x >= lo) and np.all(x <= hi))


def paired_call_order(m: int, d: int, block_signs: int = 65536) -> list[tuple[int, int, bool]]:
    """The oracle calls of a paired estimate as (point, element, forward).

    Point 0 is x_t and point 1 is x_prev.  The m probe rows go in blocks of
    max(1, block_signs // d) whole rows; per block, each element at x_t
    (its forward point, then x_t), then each element at x_prev.
    """
    rows = max(1, block_signs // d)
    order = []
    for j0 in range(0, m, rows):
        for point in (0, 1):
            for j in range(j0, min(j0 + rows, m)):
                order += [(point, j, True), (point, j, False)]
    return order
