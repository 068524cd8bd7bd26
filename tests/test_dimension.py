"""The paper's dimension claim, on its two ingredients.

Rademacher probes in the max-norm geometry give a complexity that grows
like ln d.  That rests on two facts, both checked here at d = 16, 256 and
4096:

* The estimator's error e = (u u^T - I) g + bias has a dual (max) norm
  that does not grow with d.  Its i-th entry is u_i * sum_{j != i} u_j g_j,
  so ||e||_inf <= |u.g| + ||g||_inf, and by Minkowski
  E||e||_inf^2 <= (2 ||g||_2 + beta)^2, where beta bounds the bias and the
  rounding per entry.  Its 2-norm does grow: E||e||_2^2 = (d - 1) ||g||_2^2,
  which shows the check can tell the two norms apart.
* The mirror geometry's radius grows like ln d: phi is convex, so its
  largest value on the unit l1 ball is at a vertex, where
  B(e_1, 0) = phi(e_1) = (1 + 1/d) ln(d + 1) - 1.
"""

import functools
import math

import numpy as np
import pytest

from zomirror import (
    EstimatorConfig,
    MirrorGeometry,
    bregman,
    minibatch_gradient,
    sparse_regression_design,
)

DIMENSIONS = [16, 256, 4096]
KEYS = 400
NU = 1e-7
EPS = np.finfo(float).eps


def one_row_problem(d):
    """l(x) = (a.x - b)^2 / 2 on one unit row a, at x = -a; returns
    (problem, x, exact gradient, R), where R bounds |a.y - b| and
    sum_i |a_i y_i| + |b| at every probe point y = x + nu u."""
    design = sparse_regression_design(d, 1, 1, 0.0, "least_squares", d)
    a = design.matrix[0]
    x = -a
    # ||y||_2 <= 1 + nu sqrt(d) and ||a||_2 = 1.
    bound = 1.0 + abs(float(design.targets[0])) + NU * math.sqrt(d)
    return design.to_problem(), x, design.gradient(x), bound


@functools.lru_cache(maxsize=None)
def errors(d):
    problem, x, grad, bound = one_row_problem(d)
    cfg = EstimatorConfig(nu=NU, batch=1)
    errs = np.array([minibatch_gradient(problem, x, cfg, ("dimension", d, k)).vector - grad for k in range(KEYS)])
    # The forward difference adds (nu/2) (a.u)^2 u: at most nu d L / 2 per
    # entry, with L = ||a||_2^2 = 1.  Rounding puts each residual off by at
    # most (d + 2) eps R (the sum x + nu u, a length-d dot product and the
    # subtraction), each loss by at most 2 (d + 2) eps R^2, and so each
    # coefficient by at most twice that over nu.
    beta = NU * d / 2 + 4 * (d + 2) * EPS * bound**2 / NU
    return errs, float(np.dot(grad, grad)), beta


@pytest.mark.parametrize("d", DIMENSIONS)
def test_max_norm_error_does_not_grow_with_dimension(d):
    errs, g_sq, beta = errors(d)
    ratio = float(np.mean(np.max(np.abs(errs), axis=1) ** 2)) / g_sq
    assert ratio <= (2.0 + beta / math.sqrt(g_sq)) ** 2


@pytest.mark.parametrize("d", DIMENSIONS)
def test_two_norm_error_grows_like_dimension(d):
    # ||e0||_2^2 = (d - 2)(u.g)^2 + ||g||^2 for the bias-free error e0, and
    # Var (u.g)^2 <= 2 ||g||^4, so the mean over the keys has a standard
    # error of at most (d - 2) sqrt(2 / KEYS) in units of ||g||^2.
    errs, g_sq, beta = errors(d)
    ratio = float(np.mean(np.sum(errs**2, axis=1))) / g_sq
    spread = 4.0 * (d - 2) * math.sqrt(2.0 / KEYS)
    # The bias moves the root mean square by at most sqrt(d) * beta.
    shift = math.sqrt(d) * beta / math.sqrt(g_sq)
    assert (math.sqrt(max(d - 1 - spread, 0.0)) - shift) ** 2 <= ratio
    assert ratio <= (math.sqrt(d - 1 + spread) + shift) ** 2


@pytest.mark.parametrize("d", DIMENSIONS)
def test_mirror_radius_at_a_vertex(d):
    e1 = np.zeros(d)
    e1[0] = 1.0
    want = (1.0 + 1.0 / d) * math.log(d + 1) - 1.0
    assert bregman(MirrorGeometry(d), e1, np.zeros(d)) == pytest.approx(want, rel=8 * EPS)
