"""Property tests against the golden-section references in tests/oracles.py.

``prox_composite`` must lie within acceptance 01's 1e-6 of the coordinate-wise
golden-section search ``prox_reference``, relative to max(1, |reference|), on
both elastic-net branches, without a box and on boxes that contain, straddle
or exclude zero, with eta over six decades.  The mirror map must round-trip
up to the ``_LN_CAP`` guard, and the Bregman divergence must be nonnegative.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import (
    ElasticNet,
    FeasibleSet,
    MirrorGeometry,
    NumericError,
    bregman,
    inverse_mirror_map,
    mirror_map,
    prox_composite,
)

from oracles import prox_reference

LN_CAP = float(np.log(1e300))


def box(gen, d, shape):
    if shape == "contains":
        return -gen.uniform(0.0, 2.0, d), gen.uniform(0.0, 2.0, d)
    if shape == "straddles":
        lo = gen.uniform(-2.0, 1.0, d)
        return lo, lo + gen.uniform(0.0, 2.0, d)
    # "excludes": each interval lies wholly on one side of zero.
    lo = gen.uniform(0.1, 1.0, d)
    hi = lo + gen.uniform(0.0, 1.0, d)
    flip = gen.uniform(size=d) < 0.5
    return np.where(flip, -hi, lo), np.where(flip, -lo, hi)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    log_eta=st.floats(-3.0, 3.0),
    gamma1_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    gamma2=st.one_of(st.just(0.0), st.floats(-4.0, 2.0).map(lambda e: 10.0**e)),
    shape=st.sampled_from(["none", "contains", "straddles", "excludes"]),
)
@example(seed=0, d=5, log_eta=-3.0, gamma1_share=0.0, gamma2=0.0, shape="none")
@example(seed=1, d=1, log_eta=3.0, gamma1_share=0.5, gamma2=100.0, shape="excludes")
@example(seed=0, d=1, log_eta=-3.0, gamma1_share=0.0, gamma2=1.0, shape="none")
def test_prox_matches_golden_section(seed, d, log_eta, gamma1_share, gamma2, shape):
    gen = np.random.default_rng(seed)
    eta = 10.0**log_eta
    geo = MirrorGeometry(d)
    lo = hi = None
    fs = FeasibleSet()
    if shape != "none":
        lo, hi = box(gen, d, shape)
        fs = FeasibleSet.box(lo, hi)
    x = fs.clamp(gen.uniform(-2.0, 2.0, d))
    # The dual point z = mirror(x) - g/eta, and gamma1/eta is a share of
    # its largest magnitude, so every eta meets active and zeroed
    # coordinates.  |z| <= 8 keeps golden section's own precision,
    # ~sqrt(eps * |f| / f''), well inside the tolerance.
    z = gen.uniform(-8.0, 8.0, d)
    g = eta * (mirror_map(geo, x) - z)
    gamma1 = eta * gamma1_share * float(np.max(np.abs(z)))
    got = prox_composite(geo, x, g, eta, ElasticNet(gamma1, gamma2), fs)
    ref = prox_reference(d, x, g, eta, gamma1, gamma2, lo=lo, hi=hi)
    assert np.all(np.abs(got - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref))), (got, ref)


@settings(max_examples=300)
@given(
    d=st.sampled_from([1, 2, 5, 50, 2000]),
    x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
)
@example(d=1, x=[0.0, -0.0, 5e-324, 1.0])
@example(d=2000, x=[1e300 / 2000])
def test_mirror_round_trip_up_to_the_guard(d, x):
    geo = MirrorGeometry(d)
    x = np.array(x)
    with np.errstate(over="ignore"):
        theta = mirror_map(geo, x)
    if np.any(np.abs(theta) > LN_CAP):
        with pytest.raises(NumericError, match="inverse mirror map overflow"):
            inverse_mirror_map(geo, theta)
        return
    back = inverse_mirror_map(geo, theta)
    assert np.all(np.abs(back - x) <= 1e-12 * np.abs(x)), (x, back)


coordinate = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-6, 1e-6), st.sampled_from([0.0, 1.0, -1.0]))


@settings(max_examples=200)
@given(
    d=st.sampled_from([1, 2, 5, 50]),
    pairs=st.lists(st.tuples(coordinate, coordinate, st.floats(-1e-9, 1e-9)), min_size=1, max_size=8),
    near=st.booleans(),
)
@example(d=1, pairs=[(1.0, 1.0, 0.0)], near=False)
def test_bregman_is_nonnegative(d, pairs, near):
    # With ``near`` set y is x plus a tiny offset, where B(y, x) cancels.
    x = np.array([p[0] for p in pairs])
    y = x + np.array([p[2] for p in pairs]) if near else np.array([p[1] for p in pairs])
    assert bregman(MirrorGeometry(d), y, x) >= 0.0
