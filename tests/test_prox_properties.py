"""Property tests: the prox and Lambert-W kernels equal their frozen references bit for bit.

``tests/oracles.py`` keeps the earlier masked-gather formulation of
``prox_composite`` and ``_w0_halley``.  The package's kernels solve over the
whole vector in place, and every output byte and every ``NumericError``
message must stay the same, except where the frozen prox gives up: a
Lambert argument past the overflow guard and a degenerate gamma2/eta.
There the package's prox must meet the golden-section ``prox_reference``.
The inputs cover both elastic-net branches,
no, some or all coordinates active, no box and boxes that contain zero,
end at zero or exclude it, eta over six decades, d from 1 to 2000 and dual
points at the overflow guards.  A NaN entry, which the frozen prox lets
through to a NaN coordinate, must raise ValueError.
"""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import ElasticNet, FeasibleSet, MirrorGeometry, NumericError, gradient_map, lambert_w0, prox_composite

from oracles import prox_composite_reference, prox_reference, w0_halley_reference

LN_CAP = float(np.log(1e300))
MIN_NORMAL = sys.float_info.min
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
    if nan:
        # The frozen copy lets a NaN entry through to a NaN coordinate; the
        # kernel rejects it.
        with pytest.raises(ValueError, match="must not hold NaN"):
            prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(gamma1, gamma2), fs)
        return
    got = outcome(lambda: prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(gamma1, gamma2), fs))
    want = outcome(lambda: prox_composite_reference(d, x, g, eta, gamma1, gamma2, fs))
    if want != LAMBERT_OVERFLOW:
        assert got == want
        return
    # The frozen copy gives up where exp(log_arg) overflows; the kernel
    # solves those coordinates in log space, so it must meet the
    # golden-section reference there (acceptance 01's 1e-6).
    result = prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(gamma1, gamma2), fs)
    ref = prox_reference(d, x, g, eta, gamma1, gamma2, fs.lo, fs.hi)
    assert np.all(np.abs(result - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))


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


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def stack_inputs(seed, k, d, gamma2_kind, box, rare):
    """A (k, d) stack with per-row eta over six decades and one shared
    elastic net and feasible set.  About a third of the rows lie wholly
    inside the l1 dead zone (no Halley step) while the others need one or
    more.  ``rare`` puts rows 0 and 1 on both sides of the switch to the
    gamma2 = 0 formula, or row 0 past the log-space Lambert guard."""
    gen = np.random.default_rng(seed)
    if rare != "none":
        k = max(k, 2)
    etas = 10.0 ** gen.uniform(-3, 3, k)
    gamma1 = 0.0 if gen.uniform() < 0.3 else 10.0 ** gen.uniform(-4, 1)
    gamma2 = {"zero": 0.0, "some": 10.0 ** gen.uniform(-4, 1)}[gamma2_kind]
    if rare == "switch":
        etas[:2] = 1e-3, 1e3
        gamma2 = MIN_NORMAL * d  # (1/d)*gamma2/eta is 1e3 and 1e-3 normals
    elif rare == "guard":
        gamma2 = 1000.0 * d * etas[0]  # (1/d)*gamma2/eta_0 = 1000
    X = 10.0 ** gen.uniform(-3, 1, (k, 1)) * gen.standard_normal((k, d))
    magnitudes = 10.0 ** gen.uniform(-3, math.log10(LN_CAP) - 1e-3, (k, d))
    dead = gen.uniform(size=k) < 0.35
    if rare == "guard":
        dead[0] = False
    magnitudes[dead] = gen.uniform(0.0, 1.0, (dead.sum(), d)) * (gamma1 / etas[dead])[:, None]
    target = magnitudes * gen.choice([-1.0, 1.0], (k, d))
    G = etas[:, None] * (np.log1p(d * np.abs(X)) * np.sign(X) - target)
    fs = FeasibleSet() if box == "none" else FeasibleSet.box(*box_around_zero(gen, d, box))
    return X, G, etas, ElasticNet(gamma1, gamma2), fs


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 6),
    d=st.one_of(st.integers(1, 8), st.sampled_from([50, 500, 2000])),
    gamma2_kind=st.sampled_from(["zero", "some"]),
    box=st.sampled_from(["none", "contains", "edge", "excludes"]),
    rare=st.sampled_from(["none", "none", "switch", "guard"]),
)
@example(seed=3, k=6, d=500, gamma2_kind="some", box="none", rare="none")
@example(seed=4, k=3, d=2000, gamma2_kind="some", box="edge", rare="switch")
@example(seed=5, k=4, d=50, gamma2_kind="some", box="contains", rare="guard")
def test_stacked_rows_match_one_point_calls(seed, k, d, gamma2_kind, box, rare):
    """Each row of a stacked prox_composite and gradient_map equals the
    one-point call bit for bit, and the frozen prox wherever that applies
    (not past the Lambert guard, nor where (1/d)*gamma2/eta is subnormal);
    a stack raises what its first failing row raises."""
    X, G, etas, reg, fs = stack_inputs(seed, k, d, gamma2_kind, box, rare)
    geo = MirrorGeometry(d)
    ones = [outcome(lambda i=i: prox_composite(geo, X[i], G[i], etas[i], reg, fs)) for i in range(len(X))]
    failed = [one for one in ones if isinstance(one, str)]
    stacked = outcome(lambda: prox_composite(geo, X, G, etas, reg, fs))
    if failed:
        assert stacked == failed[0]
        return
    with np.errstate(all="ignore"):
        P = prox_composite(geo, X, G, etas, reg, fs)
        M = gradient_map(X, G, etas, geo, reg, fs)
    assert P.shape == M.mapped_point.shape == M.map_vector.shape == X.shape
    assert M.sq_l1_norm.shape == (len(X),)
    for i, (x, g, eta) in enumerate(zip(X, G, etas)):
        assert np.array_equal(bits(P[i]), bits(np.frombuffer(ones[i])))
        with np.errstate(all="ignore"):
            one = gradient_map(x, g, eta, geo, reg, fs)
        assert np.array_equal(bits(M.mapped_point[i]), bits(one.mapped_point))
        assert np.array_equal(bits(M.map_vector[i]), bits(one.map_vector))
        assert bits(M.sq_l1_norm[i]) == bits(one.sq_l1_norm)
        if reg.gamma2 == 0.0 or reg.gamma2 / eta / d >= MIN_NORMAL:
            want = outcome(lambda: prox_composite_reference(d, x, g, eta, reg.gamma1, reg.gamma2, fs))
            if want != LAMBERT_OVERFLOW:
                assert ones[i] == want

