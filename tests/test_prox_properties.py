"""Property tests: the prox against a 50-digit root and frozen references, the Lambert-W kernel bit for bit.

The prox magnitude m solves ln(d*m + 1) + (gamma2/eta)*m = q per
coordinate.  Its relative error against ``decimal_prox_magnitude`` in
``tests/oracles.py`` must stay within PRECISION: the solve stops once
|h| <= 1e-12*q for h(v) = v + (gamma2/(eta*d))*expm1(v) - q at
v = ln(d*m + 1), and a first-order expansion bounds the relative error
that leaves in m by 1e-12*(2 + v) <= 1e-12*(2 + q); twice that covers
the roundoff of h, of expm1 and of the scaling by 1/d.  Magnitudes below
the smallest normal float carry an absolute error of up to two subnormal
units instead.  At gamma2 = 0, and where (1/d)*gamma2/eta underflows, the
prox must equal the frozen closed form ``prox_unweighted_reference`` bit
for bit.  The inputs cover both elastic-net branches, gamma2/(eta*d) from
subnormal to past 1, no, some or all coordinates active, no box and boxes
that contain zero, end at zero or exclude it, eta over six decades, d from
1 to 2000, q from just above 0 to the overflow guard and dual points at
that guard.  A NaN entry must raise ValueError.  ``lambert_w0`` must equal
its frozen masked-gather copy bit for bit.  A stack must equal its rows
alone bit for bit and warn only as they do, and numpy-scalar weights must
act as the same Python floats.
"""

import math
import sys
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zomirror import ElasticNet, FeasibleSet, MirrorGeometry, NumericError, gradient_map, lambert_w0, prox_composite

from oracles import decimal_prox_magnitude, prox_reference, prox_unweighted_reference, w0_halley_reference

LN_CAP = float(np.log(1e300))
MIN_NORMAL = sys.float_info.min
TINIEST = math.ulp(0.0)
BRANCH = -1.0 / math.e
PRECISION = 2e-12


def outcome(fn):
    """Output bytes, or the NumericError message; warnings are not compared."""
    with np.errstate(all="ignore"):
        try:
            return fn().tobytes()
        except NumericError as exc:
            return f"NumericError: {exc}"


def recorded(fn):
    """The output bytes or the error's type and message, and the set of
    warning messages the call gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn().tobytes()
        except (NumericError, ValueError) as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, {str(w.message) for w in caught}


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


def assert_meets_decimal_root(got, d, eta, gamma2, q, sign, fs, seed=0, picks=16):
    """Coordinates of ``got`` (up to ``picks`` of them, all of a small d)
    against sign*m clamped to the box, m the 50-digit root for q; the clamp
    cannot widen the gap, so the magnitude's bound holds after it."""
    index = np.arange(d) if d <= picks else np.random.default_rng(seed).choice(d, picks, replace=False)
    for i in index:
        m = decimal_prox_magnitude(d, gamma2, eta, q[i])
        want = sign[i] * m
        if fs.is_box:
            want = min(max(want, fs.lo[i]), fs.hi[i])
        bound = PRECISION * (1.0 + max(q[i], 0.0)) * m + 2 * TINIEST
        assert abs(got[i] - want) <= bound, (i, q[i], got[i], want)


@settings(max_examples=300, deadline=None)
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
def test_prox_meets_decimal_root(seed, d, log_eta, gamma2, active, box, at_cap, nan):
    """The whole prox, dual point, shrinkage, sign and clamp: at gamma2 = 0
    equal to the frozen closed form bit for bit, otherwise within
    PRECISION of the decimal root of the same q."""
    x, g, eta, gamma1, gamma2, fs = prox_inputs(seed, d, log_eta, gamma2, active, box, at_cap, nan)

    def prox():
        return prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(gamma1, gamma2), fs)

    if nan:
        with pytest.raises(ValueError, match="must not hold NaN"):
            prox()
        return
    frozen = outcome(lambda: prox_unweighted_reference(d, x, g, eta, gamma1, fs))
    if gamma2 == 0.0 or isinstance(frozen, str):
        # At the guard both raise "dual point too large".
        assert outcome(prox) == frozen
        return
    z = np.log1p(d * np.abs(x)) * np.sign(x) - g / eta
    q = np.abs(z) - gamma1 / eta
    assert_meets_decimal_root(prox(), d, eta, gamma2, q, np.sign(z), fs, seed=seed)


def weighted_gamma2(weight, eta, d, gen):
    """gamma2 with (1/d)*gamma2/eta zero, subnormal, moderate or above 1."""
    if weight == "zero":
        return 0.0
    if weight == "subnormal":
        return eta * d * 10.0 ** gen.uniform(-323, -308.5)
    if weight == "moderate":
        return 1e-4
    return eta * d * 10.0 ** gen.uniform(0.01, 6.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.one_of(st.integers(1, 8), st.sampled_from([50, 500, 2000])),
    log2_eta=st.integers(-10, 10),
    weight=st.sampled_from(["zero", "subnormal", "moderate", "heavy"]),
    log_q_min=st.sampled_from([-300.0, -12.0, -3.0]),
)
@example(seed=0, d=2000, log2_eta=-4, weight="moderate", log_q_min=-12.0)
@example(seed=1, d=1, log2_eta=-10, weight="heavy", log_q_min=-300.0)
@example(seed=2, d=500, log2_eta=3, weight="subnormal", log_q_min=-3.0)
def test_prox_magnitude_precision(seed, d, log2_eta, weight, log_q_min):
    """Each magnitude within PRECISION of the 50-digit root of
    ln(d*m + 1) + (gamma2/eta)*m = q, with q exact: x_t = 0, no l1 weight
    and a power-of-two eta make the dual point -g/eta = q.  q runs from
    10**log_q_min, or the smallest subnormal or normal float, to the
    overflow guard."""
    gen = np.random.default_rng(seed)
    eta = 2.0**log2_eta
    gamma2 = weighted_gamma2(weight, eta, d, gen)
    q = 10.0 ** gen.uniform(log_q_min, math.log10(LN_CAP), d)
    q[gen.integers(d)] = gen.choice([TINIEST, MIN_NORMAL, LN_CAP])
    got = prox_composite(MirrorGeometry(d), np.zeros(d), -eta * q, eta, ElasticNet(0.0, gamma2), FeasibleSet())
    assert_meets_decimal_root(got, d, eta, gamma2, q, np.ones(d), FeasibleSet(), seed=seed)


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
    """Where (1/d)*gamma2/eta underflows to 0 or to a subnormal, the
    quadratic term of these q (a few units) is below the solve's tolerance
    from its start, though not near the guard (at q = 690 it is not): the
    result equals the frozen gamma2 = 0 closed form bit for bit and lies
    within acceptance 01's 1e-6 of the golden-section reference.  Where
    gamma2/eta overflows (eta = 1e-300), the dual point overflows first,
    and both raise its error.  A NaN or infinite eta is rejected."""
    d = 7
    gen = np.random.default_rng(5)
    x = gen.standard_normal(d)
    g = gen.standard_normal(d)

    def prox():
        return prox_composite(MirrorGeometry(d), x, g, eta, ElasticNet(0.3, gamma2), FeasibleSet())

    if not math.isfinite(eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            prox()
        return
    assert outcome(prox) == outcome(lambda: prox_unweighted_reference(d, x, g, eta, 0.3, FeasibleSet()))
    if gamma2 / eta / d < MIN_NORMAL:
        got = prox()
        ref = prox_reference(d, x, g, eta, 0.3, gamma2)
        assert np.all(np.abs(got - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))


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


def stack_inputs(seed, k, d, gamma2_kind, box, rare):
    """A (k, d) stack with per-row eta over six decades and one shared
    elastic net and feasible set.  About a third of the rows lie wholly
    inside the l1 dead zone (no Halley step) while the others need one or
    more.  ``rare`` gives rows 0 and 1 a subnormal and a normal
    (1/d)*gamma2/eta, or row 0 a heavy one of 1000, or row 1 the least
    positive eta with g = 0, whose weights over eta pass the float range,
    or a NaN in row 1's g."""
    gen = np.random.default_rng(seed)
    if rare != "none":
        k = max(k, 2)
    etas = 10.0 ** gen.uniform(-3, 3, k)
    gamma1 = 0.0 if gen.uniform() < 0.3 else 10.0 ** gen.uniform(-4, 1)
    gamma2 = {"zero": 0.0, "some": 10.0 ** gen.uniform(-4, 1)}[gamma2_kind]
    if rare == "subnormal":
        etas[:2] = 1e-3, 1e3
        gamma2 = MIN_NORMAL * d  # (1/d)*gamma2/eta is 1e3 and 1e-3 normals
    elif rare == "heavy":
        gamma2 = 1000.0 * d * etas[0]  # (1/d)*gamma2/eta_0 = 1000
    X = 10.0 ** gen.uniform(-3, 1, (k, 1)) * gen.standard_normal((k, d))
    magnitudes = 10.0 ** gen.uniform(-3, math.log10(LN_CAP) - 1e-3, (k, d))
    dead = gen.uniform(size=k) < 0.35
    if rare == "heavy":
        dead[0] = False
    magnitudes[dead] = gen.uniform(0.0, 1.0, (dead.sum(), d)) * (gamma1 / etas[dead])[:, None]
    target = magnitudes * gen.choice([-1.0, 1.0], (k, d))
    G = etas[:, None] * (np.log1p(d * np.abs(X)) * np.sign(X) - target)
    if rare == "tiny-eta":
        etas[1], G[1] = TINIEST, 0.0
    elif rare == "nan":
        G[1, 0] = math.nan
    fs = FeasibleSet() if box == "none" else FeasibleSet.box(*box_around_zero(gen, d, box))
    return X, G, etas, ElasticNet(gamma1, gamma2), fs


def flat(m, x):
    """A gradient map's three fields side by side, one row per point."""
    assert m.mapped_point.shape == m.map_vector.shape == x.shape
    assert np.shape(m.sq_l1_norm) == x.shape[:-1]
    return np.concatenate([m.mapped_point, m.map_vector, np.asarray(m.sq_l1_norm)[..., None]], axis=-1)


def shaped(p, x):
    assert p.shape == x.shape
    return p


@settings(max_examples=150, deadline=None)
@given(
    inputs=st.builds(
        stack_inputs,
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        d=st.one_of(st.integers(1, 8), st.sampled_from([50, 500, 2000])),
        gamma2_kind=st.sampled_from(["zero", "some"]),
        box=st.sampled_from(["none", "contains", "edge", "excludes"]),
        rare=st.sampled_from(["none", "none", "none", "subnormal", "heavy", "tiny-eta", "nan"]),
    )
)
@example(inputs=stack_inputs(seed=3, k=6, d=500, gamma2_kind="some", box="none", rare="none"))
@example(inputs=stack_inputs(seed=4, k=3, d=2000, gamma2_kind="some", box="edge", rare="subnormal"))
@example(inputs=stack_inputs(seed=5, k=4, d=50, gamma2_kind="some", box="contains", rare="heavy"))
# Row 1's gamma1/eta is inf: alone it returns zeros without a warning.
@example(
    inputs=(np.array([[0.1, 0.2, 0.3]] * 2), np.zeros((2, 3)), np.array([1.0, 1e-300]), ElasticNet(1e10, 0.0), FeasibleSet())
)
def test_stacked_rows_match_one_point_calls(inputs):
    """Each row of a stacked prox_composite and gradient_map equals the
    one-point call bit for bit; a stack raises what its first failing row
    raises, and warns only with messages that one of its rows gives
    alone."""
    X, G, etas, reg, fs = inputs
    geo = MirrorGeometry(X.shape[1])
    calls = {
        "prox": lambda x, g, eta: shaped(prox_composite(geo, x, g, eta, reg, fs), x),
        "map": lambda x, g, eta: flat(gradient_map(x, g, eta, geo, reg, fs), x),
    }
    for name, call in calls.items():
        ones = [recorded(lambda i=i: call(X[i], G[i], etas[i])) for i in range(len(X))]
        stacked, warned = recorded(lambda: call(X, G, etas))
        assert warned <= set().union(*(w for _, w in ones)), name
        failed = [out for out, _ in ones if isinstance(out, str)]
        if failed:
            assert stacked == failed[0], name
            continue
        rows = np.frombuffer(stacked).reshape(len(X), -1)
        for i, (one, _) in enumerate(ones):
            assert rows[i].tobytes() == one, (name, i)


@pytest.mark.parametrize(
    "eta, gamma1, gamma2",
    [(1e-300, np.float64(1e-290), np.float64(1e300)), (0.3, np.float32(0.1), np.float32(0.2))],
    ids=["ratio-past-float-range", "float32"],
)
def test_numpy_scalar_weights_act_as_python_floats(eta, gamma1, gamma2):
    """Numpy-scalar elastic-net weights give the bytes and the warnings of
    the Python floats they equal: with gamma2/eta past the float range and
    no coordinate active (zeros, no warning), and in float32, which would
    divide by eta in float32, with coordinates active."""
    geo, x, g = MirrorGeometry(3), np.array([0.1, 0.2, 0.3]), np.zeros(3)

    def prox(*weights):
        return recorded(lambda: prox_composite(geo, x, g, eta, ElasticNet(*weights), FeasibleSet()))

    want = prox(float(gamma1), float(gamma2))
    assert prox(gamma1, gamma2) == want
    if eta == 1e-300:
        assert want == (np.zeros(3).tobytes(), set())
    else:
        assert np.frombuffer(want[0]).any()
