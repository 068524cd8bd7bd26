"""Property tests: the prox and Lambert-W kernels equal their frozen references bit for bit.

``tests/oracles.py`` keeps the earlier masked-gather formulation of
``prox_composite`` and ``_w0_halley``.  The package's kernels solve over the
whole vector in place, and every output byte and every ``NumericError``
message must stay the same, except where the frozen prox gives up: a
Lambert argument past the overflow guard and a degenerate gamma2/eta.
There the package's prox must meet the golden-section ``prox_reference``.
The inputs cover both elastic-net branches,
no, some or all coordinates active, no box and boxes that contain zero,
end at zero or exclude it, eta over six decades, d from 1 to 2000, dual
points at the overflow guards and NaN entries.
"""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import ElasticNet, FeasibleSet, MirrorGeometry, NumericError, lambert_w0, prox_composite

from oracles import prox_composite_reference, prox_reference, w0_halley_reference

LN_CAP = float(np.log(1e300))
LAMBERT_OVERFLOW = "NumericError: prox overflow: Lambert argument too large"
BRANCH = -1.0 / math.e


def outcome(fn):
    """Output bytes, or the NumericError message; warnings are not compared."""
    with np.errstate(all="ignore"):
        try:
            return fn().tobytes()
        except NumericError as exc:
            return f"NumericError: {exc}"


def box_around_zero(gen, d, shape):
    if shape == "contains":
        return -gen.uniform(0.01, 2.0, d), gen.uniform(0.01, 2.0, d)
    if shape == "edge":  # zero is a bound, as in the explanation boxes
        hi = gen.uniform(0.0, 2.0, d)
        flip = gen.uniform(size=d) < 0.5
        return np.where(flip, -hi, 0.0), np.where(flip, 0.0, hi)
    lo = gen.uniform(0.01, 1.0, d)
    hi = lo + gen.uniform(0.0, 1.0, d)
    flip = gen.uniform(size=d) < 0.5
    return np.where(flip, -hi, lo), np.where(flip, -lo, hi)


def prox_inputs(seed, d, log_eta, gamma2, active, box, at_cap, nan):
    gen = np.random.default_rng(seed)
    eta = 10.0**log_eta
    x = 10.0 ** gen.uniform(-3, 1) * gen.standard_normal(d)
    target = 10.0 ** gen.uniform(-3, math.log10(LN_CAP), d) * gen.choice([-1.0, 1.0], d)
    if at_cap:
        # The realized |z| lands within a few ulps of the guard, on either side.
        hit = gen.uniform(size=d) < 0.2
        hit[gen.integers(d)] = True
        target[hit] = np.copysign(LN_CAP, target[hit])
    g = eta * (np.log1p(d * np.abs(x)) * np.sign(x) - target)
    magnitudes = np.abs(target)
    threshold = {
        "none": 2.0 * magnitudes.max() + 1.0,
        "some": float(np.median(magnitudes)),
        "all": 0.0 if gen.uniform() < 0.5 else 0.5 * magnitudes.min(),
    }[active]
    gamma1 = eta * threshold
    if nan:
        (x if gen.uniform() < 0.5 else g)[gen.integers(d)] = math.nan
    fs = FeasibleSet() if box == "none" else FeasibleSet.box(*box_around_zero(gen, d, box))
    return x, g, eta, gamma1, gamma2, fs


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.one_of(st.integers(1, 8), st.sampled_from([50, 500, 2000])),
    log_eta=st.floats(-3.0, 3.0),
    gamma2=st.one_of(st.just(0.0), st.floats(-4.0, 1.0).map(lambda e: 10.0**e)),
    active=st.sampled_from(["none", "some", "all"]),
    box=st.sampled_from(["none", "contains", "edge", "excludes"]),
    at_cap=st.booleans(),
    nan=st.booleans(),
)
@example(seed=0, d=2000, log_eta=-1.3, gamma2=1e-4, active="some", box="none", at_cap=False, nan=False)
@example(seed=1, d=1, log_eta=-3.0, gamma2=10.0, active="all", box="none", at_cap=True, nan=False)
@example(seed=2, d=50, log_eta=0.0, gamma2=0.0625, active="none", box="edge", at_cap=False, nan=True)
def test_prox_matches_frozen_reference(seed, d, log_eta, gamma2, active, box, at_cap, nan):
    x, g, eta, gamma1, gamma2, fs = prox_inputs(seed, d, log_eta, gamma2, active, box, at_cap, nan)
    got = outcome(lambda: prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(gamma1, gamma2), fs))
    want = outcome(lambda: prox_composite_reference(d, x, g, eta, gamma1, gamma2, fs))
    if want != LAMBERT_OVERFLOW:
        assert got == want
        return
    # The frozen copy gives up where exp(log_arg) overflows; the kernel
    # solves those coordinates in log space, so it must meet the
    # golden-section reference there (acceptance 01's 1e-6).  A NaN entry
    # still gives a NaN coordinate.
    with np.errstate(invalid="ignore"):
        result = prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(gamma1, gamma2), fs)
    finite = np.isfinite(x) & np.isfinite(g)
    assert np.all(np.isnan(result[~finite]))
    ref = prox_reference(d, x, g, eta, gamma1, gamma2, fs.lo, fs.hi)[finite]
    assert np.all(np.abs(result[finite] - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize(
    "eta, gamma2",
    [
        (10.0, 5e-324),
        (1.0, 5e-324),
        (1e-300, 1e300),
        (math.nan, 0.0625),
        (math.nan, 0.0),
        (1.0, 3.5e-323),
        (math.inf, 0.0625),
        (math.inf, 0.0),
    ],
    ids=[
        "gamma2-over-eta-underflows",
        "inv-d-times-b-underflows",
        "gamma2-over-eta-overflows",
        "nan-eta",
        "nan-eta-no-gamma2",
        "inv-d-times-b-subnormal",
        "inf-eta",
        "inf-eta-no-gamma2",
    ],
)
def test_prox_degenerate_ratios_match_frozen_reference(eta, gamma2):
    """Where gamma2/eta overflows the kernel still equals the frozen copy.
    Where (1/d)*gamma2/eta underflows to 0 or to a subnormal the quadratic
    term drops out: the result is the gamma2 = 0 prox and lies within
    acceptance 01's 1e-6 of the golden-section reference (the frozen copy
    returns zeros, NaN or, at 7 subnormal units, an error of 0.06 there).
    A NaN or infinite eta is rejected."""
    d = 7
    gen = np.random.default_rng(5)
    x = gen.standard_normal(d)
    g = gen.standard_normal(d)

    def prox(gamma2):
        return prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(0.3, gamma2), FeasibleSet())

    if not math.isfinite(eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            prox(gamma2)
    elif gamma2 / eta / d < sys.float_info.min:
        got = prox(gamma2)
        assert got.tobytes() == prox(0.0).tobytes()
        ref = prox_reference(d, x, g, eta, 0.3, gamma2)
        assert np.all(np.abs(got - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))
    else:
        want = outcome(lambda: prox_composite_reference(d, x, g, eta, 0.3, gamma2, FeasibleSet()))
        assert outcome(lambda: prox(gamma2)) == want


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.one_of(st.integers(1, 16), st.sampled_from([500, 2000])),
    branch_share=st.floats(0.0, 1.0),
)
@example(seed=0, size=1, branch_share=1.0)
def test_lambert_w0_matches_frozen_reference_on_mixed_arrays(seed, size, branch_share):
    gen = np.random.default_rng(seed)
    pools = np.stack(
        [
            gen.uniform(BRANCH, -0.36, size),
            gen.uniform(-0.36, 0.0, size),
            10.0 ** gen.uniform(-300, 300, size),
            gen.choice([BRANCH, 0.0, -0.0, 1.0, 10.0, 1e300], size),
        ]
    )
    z = pools[gen.integers(4, size=size), np.arange(size)]
    z[gen.uniform(size=size) < branch_share] = BRANCH
    z[gen.integers(size)] = BRANCH
    assert outcome(lambda: lambert_w0(z)) == outcome(lambda: w0_halley_reference(z))
