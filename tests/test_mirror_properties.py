"""Property tests: Lambert W on arrays that mix its whole domain.

The prox solves many Lambert equations in one array call, so an element
that converges early (the branch point converges at once) must not spoil
the elements still iterating.  Array and scalar results may differ in the
last bits, so the check is the residual, not equality with the scalar call.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import lambert_w0

BRANCH = -1.0 / math.e

POINTS = st.one_of(
    st.floats(BRANCH, 1e300),
    st.floats(BRANCH, -0.36),
    st.floats(-1e-3, 1e-3),
    st.sampled_from([BRANCH, 0.0, 1.0, 10.0, 1e100, 1e300]),
)


def residual_ok(w, z):
    return np.abs(w * np.exp(w) - z) <= 1e-12 * np.maximum(1.0, np.abs(z))


@settings(max_examples=200)
@given(st.lists(POINTS, min_size=1, max_size=16), st.integers(0, 16))
@example([10.0], 0)
@example([10.0], 1)
@example([BRANCH, 1e300, -0.3], 2)
def test_mixed_arrays_with_branch_point_meet_the_residual(points, at):
    z = np.array(points)
    z = np.insert(z, min(at, z.size), BRANCH)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = lambert_w0(z)
    assert w.shape == z.shape
    assert np.all(np.isfinite(w))
    assert np.all(residual_ok(w, z)), (z[~residual_ok(w, z)], w[~residual_ok(w, z)])
