"""Independent reference implementations used to cross-check the library.

Everything here is written from the mathematical definitions using only
the standard library and numpy, deliberately avoiding the package's own
helpers, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np

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
