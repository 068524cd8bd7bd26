"""Mirror geometry: DGF, mirror maps, Bregman divergence, Lambert W, prox."""

import math
import warnings

import numpy as np
import pytest

from zomirror import (
    ElasticNet,
    FeasibleSet,
    MirrorGeometry,
    NumericError,
    bregman,
    dgf_value,
    inverse_mirror_map,
    lambert_w0,
    mirror_map,
    prox_composite,
)
from zomirror import rng

from oracles import prox_reference, scalar_bregman, scalar_dgf

FREE = FeasibleSet.unconstrained()

# Reference values computed with mpmath at 50 digits.
W_PINS = [
    (0.0, 0.0),
    (math.e, 1.0),
    (1.0, 0.5671432904097838),
    (10.0, 1.7455280027406994),
    (1e6, 11.383358086140053),
    (1e100, 224.8431064451185),
]


class TestDgf:
    def test_zero_at_origin(self):
        for d in (1, 3, 100):
            assert dgf_value(MirrorGeometry(d), np.zeros(d)) == 0.0

    def test_d1_unit_value(self):
        # (1 + 1) ln 2 - 1
        assert dgf_value(MirrorGeometry(1), np.array([1.0])) == pytest.approx(
            2 * math.log(2) - 1, abs=1e-15
        )

    def test_matches_scalar_reference(self):
        stream = rng.stream("test-dgf", 0)
        for d in (1, 4, 50):
            geo = MirrorGeometry(d)
            for _ in range(20):
                x = stream.uniform(-3, 3, d)
                ref = sum(scalar_dgf(d, v) for v in x)
                assert dgf_value(geo, x) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_positive_away_from_origin(self):
        stream = rng.stream("test-dgf", 1)
        geo = MirrorGeometry(7)
        for _ in range(50):
            x = stream.uniform(-2, 2, 7)
            if np.any(x != 0.0):
                assert dgf_value(geo, x) > 0.0

    def test_even_symmetry(self):
        geo = MirrorGeometry(3)
        x = np.array([0.5, -1.5, 2.0])
        assert dgf_value(geo, x) == dgf_value(geo, -x)


class TestMirrorMaps:
    def test_map_at_unit_point(self):
        theta = mirror_map(MirrorGeometry(1), np.array([1.0]))
        assert theta[0] == pytest.approx(math.log(2), abs=1e-16)

    def test_sign_zero_convention(self):
        assert mirror_map(MirrorGeometry(5), np.zeros(5)).tolist() == [0.0] * 5

    def test_odd_symmetry(self):
        geo = MirrorGeometry(4)
        x = np.array([0.1, -2.0, 0.0, 3.5])
        assert np.array_equal(mirror_map(geo, -x), -mirror_map(geo, x))

    def test_inverse_at_log_two(self):
        y = inverse_mirror_map(MirrorGeometry(1), np.array([math.log(2.0)]))
        assert y[0] == pytest.approx(1.0, abs=1e-15)

    def test_roundtrip(self):
        stream = rng.stream("test-roundtrip", 0)
        for d in (1, 10, 1000):
            geo = MirrorGeometry(d)
            for _ in range(200):
                x = stream.uniform(-50, 50, d) * stream.uniform(0, 1)
                back = inverse_mirror_map(geo, mirror_map(geo, x))
                assert np.max(np.abs(back - x)) <= 1e-10 * max(1.0, float(np.max(np.abs(x))))

    def test_inverse_overflow_guard(self):
        with pytest.raises(NumericError, match="inverse mirror map overflow"):
            inverse_mirror_map(MirrorGeometry(2), np.array([0.0, 800.0]))

    def test_monotone_per_coordinate(self):
        geo = MirrorGeometry(3)
        grid = np.linspace(-4, 4, 41)
        vals = [mirror_map(geo, np.array([t, 0.0, 0.0]))[0] for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            MirrorGeometry(0)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                MirrorGeometry(bad)


class TestBregman:
    def test_zero_when_equal(self):
        geo = MirrorGeometry(3)
        x = np.array([1.0, -0.5, 0.0])
        assert bregman(geo, x, x) == 0.0

    def test_matches_scalar_reference(self):
        stream = rng.stream("test-breg", 0)
        for d in (1, 6):
            geo = MirrorGeometry(d)
            for _ in range(30):
                x = stream.uniform(-2, 2, d)
                y = stream.uniform(-2, 2, d)
                ref = sum(scalar_bregman(d, yi, xi) for yi, xi in zip(y, x))
                assert bregman(geo, y, x) == pytest.approx(ref, rel=1e-11, abs=1e-12)

    def test_nonnegative_and_lower_bound(self):
        stream = rng.stream("test-breg", 1)
        for d in (1, 5, 100):
            geo = MirrorGeometry(d)
            for _ in range(200):
                x = stream.uniform(-3, 3, d)
                y = stream.uniform(-3, 3, d)
                b = bregman(geo, y, x)
                n1x = float(np.sum(np.abs(x)))
                n1y = float(np.sum(np.abs(y)))
                diff = float(np.sum(np.abs(y - x)))
                bound = diff * diff / (2.0 * (max(n1x, n1y) + 1.0))
                assert b >= bound - 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bregman(MirrorGeometry(2), np.zeros(2), np.zeros(3))


class TestLambertW:
    @pytest.mark.parametrize("z, expected", W_PINS)
    def test_pinned_values(self, z, expected):
        assert lambert_w0(z) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)

    def test_residual_tolerance(self):
        # |w e^w - z| <= 1e-12 * max(1, z) across fourteen decades.
        for z in np.logspace(-8, 6, 200):
            w = lambert_w0(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, z)

    def test_negative_domain_segment(self):
        for z in np.linspace(-0.36, -0.01, 50):
            w = lambert_w0(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-12

    def test_array_input(self):
        out = lambert_w0(np.array([0.0, 1.0, 10.0]))
        assert isinstance(out, np.ndarray)
        assert out[1] == pytest.approx(0.5671432904097838, abs=1e-13)

    def test_array_with_branch_point(self):
        # The branch-point element converges at once; the Halley step must
        # not divide 0/0 on it while 10.0 is still converging.
        z = np.array([-1.0 / math.e, 10.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = lambert_w0(z)
        assert w[0] == -1.0
        assert w[1] == pytest.approx(1.7455280027406994, rel=1e-13)
        assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))

    def test_scalar_returns_float(self):
        assert isinstance(lambert_w0(1.0), float)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    def test_overflow_error(self):
        with pytest.raises(NumericError):
            lambert_w0(1e301)

    @pytest.mark.parametrize("z", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
    def test_nan_is_outside_the_domain(self, z):
        # NaN fails every comparison, so it once passed the domain check and
        # took 50 Halley steps before "failed to converge".
        with pytest.raises(ValueError, match="domain"):
            lambert_w0(z)

    def test_negative_zero_returns_positive_zero(self):
        # The start log1p(z) would keep -0.0; the Halley start of every
        # other input in the same array must not see the sign either.
        assert np.signbit(lambert_w0(np.array([-0.0, 1.0]))).tolist() == [False, False]


class TestProxComposite:
    def test_dead_zone_snaps_to_zero(self):
        geo = MirrorGeometry(1)
        out = prox_composite(geo, np.zeros(1), np.array([0.5]), 1.0, ElasticNet(1.0, 0.0), FREE)
        assert out[0] == 0.0

    def test_pure_mirror_step_when_unregularized(self):
        geo = MirrorGeometry(1)
        out = prox_composite(geo, np.zeros(1), np.array([-math.log(2.0)]), 1.0, ElasticNet(), FREE)
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_l1_shrinks_in_dual(self):
        # gamma2 = 0 closed form: magnitude = (exp(|z| - gamma1/eta) - 1) / d.
        geo = MirrorGeometry(1)
        g1 = math.log(2.0) / 2.0
        out = prox_composite(geo, np.zeros(1), np.array([-math.log(2.0)]), 1.0, ElasticNet(g1), FREE)
        assert out[0] == pytest.approx(math.expm1(math.log(2.0) / 2.0), abs=1e-14)

    def test_quadratic_term_lambert_value(self):
        # d=1, x=0, g=-ln 2, eta=1, gamma2=1: magnitude = W0(2e) - 1.
        geo = MirrorGeometry(1)
        out = prox_composite(
            geo, np.zeros(1), np.array([-math.log(2.0)]), 1.0, ElasticNet(0.0, 1.0), FREE
        )
        assert out[0] == pytest.approx(0.3748225281836234, abs=1e-13)

    def test_sign_antisymmetry(self):
        geo = MirrorGeometry(4)
        stream = rng.stream("test-prox", 0)
        for _ in range(25):
            x = stream.uniform(-1, 1, 4)
            g = stream.standard_normal(4)
            reg = ElasticNet(0.3, 0.2)
            a = prox_composite(geo, x, g, 1.5, reg, FREE)
            b = prox_composite(geo, -x, -g, 1.5, reg, FREE)
            assert np.max(np.abs(a + b)) <= 1e-12

    def test_small_gamma2_continuity(self):
        geo = MirrorGeometry(3)
        stream = rng.stream("test-prox", 1)
        for _ in range(50):
            x = stream.uniform(-2, 2, 3)
            g = stream.standard_normal(3)
            base = prox_composite(geo, x, g, 1.0, ElasticNet(0.1, 0.0), FREE)
            tiny = prox_composite(geo, x, g, 1.0, ElasticNet(0.1, 1e-12), FREE)
            assert np.max(np.abs(base - tiny)) <= 1e-6

    def test_unconstrained_optimality_certificate(self):
        # Subgradient condition: for p_i != 0,
        #   g_i + gamma1*sgn(p_i) + gamma2*p_i + eta*(theta(p)_i - theta(x)_i) = 0;
        # for p_i = 0, |g_i - eta*theta(x)_i| <= gamma1.
        stream = rng.stream("test-prox", 2)
        for d in (1, 2, 8):
            geo = MirrorGeometry(d)
            for _ in range(80):
                x = stream.uniform(-2, 2, d)
                g = stream.uniform(-3, 3, d)
                eta = float(np.exp(stream.uniform(-0.7, 0.7)))
                reg = ElasticNet(
                    0.0 if stream.uniform() < 0.3 else float(stream.uniform(0, 1)),
                    0.0 if stream.uniform() < 0.5 else float(stream.uniform(0, 1)),
                )
                p = prox_composite(geo, x, g, eta, reg, FREE)
                theta_p = mirror_map(geo, p)
                theta_x = mirror_map(geo, x)
                for i in range(d):
                    if p[i] != 0.0:
                        res = (
                            g[i]
                            + reg.gamma1 * np.sign(p[i])
                            + reg.gamma2 * p[i]
                            + eta * (theta_p[i] - theta_x[i])
                        )
                        assert abs(res) <= 1e-8 * max(1.0, abs(g[i]))
                    else:
                        assert abs(g[i] - eta * theta_x[i]) <= reg.gamma1 + 1e-12

    def test_matches_golden_section_unconstrained(self):
        # Instances are drawn with bounded dual offsets: golden section can
        # only localize the minimizer to ~sqrt(eps * |f| / f''), which decays
        # badly once the solution magnitude is large.  Large duals are covered
        # by the optimality-certificate test above, whose precision does not
        # depend on the objective's curvature.
        stream = rng.stream("test-prox", 3)
        for _ in range(120):
            d = int(stream.integers(1, 7))
            geo = MirrorGeometry(d)
            x = stream.uniform(-2, 2, d)
            z = stream.uniform(-4, 4, d)
            eta = float(np.exp(stream.uniform(-0.7, 0.7)))
            g = eta * (mirror_map(geo, x) - z)
            g1 = 0.0 if stream.uniform() < 0.3 else float(stream.uniform(0, 1))
            g2 = 0.0 if stream.uniform() < 0.5 else float(stream.uniform(0, 1))
            p = prox_composite(geo, x, g, eta, ElasticNet(g1, g2), FREE)
            ref = prox_reference(d, x, g, eta, g1, g2)
            assert np.max(np.abs(p - ref)) <= 1e-6

    def test_matches_golden_section_box(self):
        stream = rng.stream("test-prox", 4)
        for _ in range(80):
            d = int(stream.integers(1, 6))
            geo = MirrorGeometry(d)
            x = stream.uniform(-1, 1, d)
            lo = x - stream.uniform(0, 1.5, d)
            hi = x + stream.uniform(0, 1.5, d)
            g = stream.uniform(-3, 3, d)
            eta = float(np.exp(stream.uniform(-0.7, 0.7)))
            g1 = 0.0 if stream.uniform() < 0.3 else float(stream.uniform(0, 1))
            g2 = 0.0 if stream.uniform() < 0.5 else float(stream.uniform(0, 1))
            fs = FeasibleSet.box(lo, hi)
            p = prox_composite(geo, x, g, eta, ElasticNet(g1, g2), fs)
            ref = prox_reference(d, x, g, eta, g1, g2, lo=lo, hi=hi)
            assert FeasibleSet.box(lo - 1e-12, hi + 1e-12).contains(p)
            assert np.max(np.abs(p - ref)) <= 1e-6

    def test_dual_overflow_guard(self):
        geo = MirrorGeometry(1)
        with pytest.raises(NumericError, match="prox overflow: dual point too large"):
            prox_composite(geo, np.zeros(1), np.array([-800.0]), 1.0, ElasticNet(), FREE)

    def test_heavy_quadratic_weight_solves_in_log_space(self):
        # gamma2/(eta*d) = 1000 puts the Lambert argument exp(q + ln 1000 +
        # 1000) past the overflow guard, yet the prox is small and well
        # posed: g + gamma2*p + eta*ln(1 + p) = 0 at p > 0.
        geo = MirrorGeometry(1)
        eta, gamma2 = 1e-3, 1.0
        g = np.array([-5.0 * eta])
        p = prox_composite(geo, np.zeros(1), g, eta, ElasticNet(0.0, gamma2), FREE)[0]
        assert 0.0 < p < 5.0 * eta / gamma2
        assert abs(g[0] + gamma2 * p + eta * math.log1p(p)) <= 1e-10 * abs(g[0])

    def test_lambert_guard_on_overflowing_ratio(self):
        # gamma2/eta = inf leaves no finite Lambert argument to solve.
        geo = MirrorGeometry(1)
        with pytest.raises(NumericError, match="prox overflow: Lambert argument too large"):
            prox_composite(geo, np.zeros(1), np.array([-1e-300]), 1e-300, ElasticNet(0.0, 1e300), FREE)

    def test_overflowing_ratio_in_a_stack(self):
        # A row whose gamma2/eta overflows is 0 where the l1 weight zeroes
        # every coordinate, as alone; with an active coordinate it raises.
        geo, X, G, etas = MirrorGeometry(3), np.array([[0.1, 0.2, 0.3]] * 2), np.zeros((2, 3)), [1.0, 1e-300]
        reg = ElasticNet(1e-290, 1e300)
        got = prox_composite(geo, X, G, etas, reg, FREE)
        want = [prox_composite(geo, x, g, eta, reg, FREE) for x, g, eta in zip(X, G, etas)]
        assert got.tobytes() == np.array(want).tobytes() and not got[1].any()
        with pytest.raises(NumericError, match="prox overflow: Lambert argument too large"):
            prox_composite(geo, X, G, etas, ElasticNet(0.0, 1e300), FREE)

    @pytest.mark.parametrize("where", ["x_t", "g"])
    def test_nan_entry_is_rejected(self, where):
        # A NaN once slipped past the overflow guard (fmax skips NaN), so the
        # prox returned a NaN coordinate beside finite ones.
        x = np.array([0.1, 0.2, 0.3])
        g = np.zeros(3)
        (x if where == "x_t" else g)[1] = math.nan
        with pytest.raises(ValueError, match="must not hold NaN"):
            prox_composite(MirrorGeometry(3), x, g, 1.0, ElasticNet(0.1, 0.0), FREE)

    def test_nan_beside_an_overflow_is_still_a_nan(self):
        x = np.array([0.1, math.nan])
        g = np.array([-1e300, 0.0])
        with pytest.raises(ValueError, match="must not hold NaN"):
            prox_composite(MirrorGeometry(2), x, g, 1.0, ElasticNet(), FREE)

    def test_infinite_entry_is_an_overflow(self):
        # inf - inf makes the dual point NaN, but no input is NaN.
        with pytest.raises(NumericError, match="dual point too large"), np.errstate(invalid="ignore"):
            prox_composite(MirrorGeometry(1), np.array([math.inf]), np.array([math.inf]), 1.0, ElasticNet(), FREE)

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)], ids=["overflow-first", "nan-first"])
    def test_stack_raises_its_first_failing_row(self, order):
        rows = [(np.array([0.1, 0.2]), np.zeros(2)), (np.array([0.1, 0.2]), np.array([-1e300, 0.0]))]
        rows.append((np.array([0.1, math.nan]), np.zeros(2)))
        X, G = (np.array([rows[i][j] for i in order]) for j in (0, 1))
        error = NumericError if order[1] == 1 else ValueError
        with pytest.raises(error, match="dual point too large" if error is NumericError else "NaN"):
            prox_composite(MirrorGeometry(2), X, G, [1.0, 2.0, 3.0], ElasticNet(0.1, 0.1), FREE)

    @pytest.mark.parametrize("ratio_row", [0, 1], ids=["ratio-first", "overflow-first"])
    def test_stack_raises_its_first_failing_row_of_either_kind(self, ratio_row):
        # One row's gamma2/eta overflows with a coordinate active, another's
        # dual point overflows: the stack raises the first row's error.
        x = np.array([0.1, 0.2])
        rows = [(1e-300, np.zeros(2)), (1.0, np.array([-1e300, 0.0]))]
        if ratio_row:
            rows.reverse()
        etas, G = zip(*rows)
        match = "Lambert argument too large" if ratio_row == 0 else "dual point too large"
        with pytest.raises(NumericError, match=match):
            prox_composite(MirrorGeometry(2), np.array([x, x]), np.array(G), etas, ElasticNet(0.0, 1e300), FREE)

    def test_stack_takes_one_eta_for_all_rows(self):
        gen = np.random.default_rng(8)
        X, G = gen.standard_normal((2, 3, 5))
        reg = ElasticNet(0.1, 0.2)
        got = prox_composite(MirrorGeometry(5), X, G, 0.7, reg, FREE)
        want = [prox_composite(MirrorGeometry(5), x, g, 0.7, reg, FREE) for x, g in zip(X, G)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_stack_validation_errors(self):
        geo = MirrorGeometry(2)
        with pytest.raises(ValueError, match="one eta per row"):
            prox_composite(geo, np.zeros((3, 2)), np.zeros((3, 2)), [1.0, 1.0], ElasticNet(), FREE)
        with pytest.raises(ValueError, match="eta must be positive"):
            prox_composite(geo, np.zeros((2, 2)), np.zeros((2, 2)), [1.0, math.nan], ElasticNet(), FREE)
        for shape in [(0, 2), (2, 3), (1, 2, 2)]:
            with pytest.raises(ValueError, match="must both have shape"):
                prox_composite(geo, np.zeros(shape), np.zeros(shape), 1.0, ElasticNet(), FREE)

    @pytest.mark.parametrize("eta", [[1.0, 2.0], np.array([1.0, 2.0]), np.array([1.0]), (0.5,)])
    def test_one_point_rejects_a_sequence_eta(self, eta):
        # These once failed with a TypeError about '<', with numpy's
        # "truth value ... ambiguous", or were accepted (a one-element array).
        with pytest.raises(ValueError, match="^one point takes one scalar eta$"):
            prox_composite(MirrorGeometry(2), np.zeros(2), np.ones(2), eta, ElasticNet(0.1, 0.2), FREE)

    @pytest.mark.parametrize("reg", [ElasticNet(), ElasticNet(0.1, 0.0), ElasticNet(0.0, 0.2)])
    @pytest.mark.parametrize("eta", [np.float32(0.5), np.float16(0.5), np.array(0.5), np.float64(0.5)])
    def test_one_point_eta_of_any_float_type(self, eta, reg):
        # A float32 eta once made gamma2/eta a float32 zero that did not
        # count as small, and the prox read NaN.
        x, g = np.array([0.1, -0.2]), np.array([1.0, -0.3])
        got = prox_composite(MirrorGeometry(2), x, g, eta, reg, FREE)
        assert got.tobytes() == prox_composite(MirrorGeometry(2), x, g, 0.5, reg, FREE).tobytes()

    def test_validation_errors(self):
        geo = MirrorGeometry(2)
        with pytest.raises(ValueError):
            prox_composite(geo, np.zeros(2), np.zeros(2), 0.0, ElasticNet(), FREE)
        with pytest.raises(ValueError):
            prox_composite(geo, np.zeros(3), np.zeros(3), 1.0, ElasticNet(), FREE)
