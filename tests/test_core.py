"""Domain types, composite values, and the generalized gradient map."""

import math
import warnings

import numpy as np
import pytest

import zomirror
from zomirror import (
    ElasticNet,
    FeasibleSet,
    GradientMapResult,
    MirrorGeometry,
    NumericError,
    Problem,
    composite_value,
    elastic_net_value,
    gradient_map,
    make_sparse_regression,
)
from zomirror import core, mirror, problems, rng, sampling, solvers


def zero_problem(d=2, **kw):
    return Problem(dimension=d, oracle=lambda x, xi: 0.0, **kw)


class TestElasticNet:
    def test_zero_point_gives_zero(self):
        assert elastic_net_value(ElasticNet(3.0, 5.0), np.zeros(4)) == 0.0

    def test_l1_only(self):
        assert elastic_net_value(ElasticNet(1.0, 0.0), np.array([1.0, -2.0])) == 3.0

    def test_l2_only(self):
        assert elastic_net_value(ElasticNet(0.0, 1.0), np.array([3.0, 4.0])) == 12.5

    def test_point_gives_a_float_and_stack_one_value_per_row(self):
        reg, X = ElasticNet(1.0, 1.0), np.array([[3.0, -4.0], [0.0, 0.0], [1.0, 1.0]])
        point = elastic_net_value(reg, X[0])
        assert type(point) is float and point == 19.5
        assert elastic_net_value(reg, X).tolist() == [19.5, 0.0, 3.0]
        assert elastic_net_value(ElasticNet(), X).tolist() == [0.0, 0.0, 0.0]

    def test_overflow_is_quiet_as_in_python_floats(self):
        # gamma1*||x||_1 overflows to inf, and 0.5*5e-324 rounds to 0.0,
        # which times the infinite ||x||^2 is NaN: no warning on the way.
        x = np.array([1e200, 1.0])
        reg = ElasticNet(1e300, 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = elastic_net_value(reg, x)
            rows = elastic_net_value(reg, np.stack([x, x]))
        assert math.isnan(point) and np.isnan(rows).all()

    def test_nonnegative_on_random_points(self):
        stream = rng.stream("test-en", 0)
        for _ in range(50):
            reg = ElasticNet(float(stream.uniform(0, 2)), float(stream.uniform(0, 2)))
            assert elastic_net_value(reg, stream.standard_normal(5)) >= 0.0

    def test_midpoint_convexity(self):
        stream = rng.stream("test-en", 1)
        reg = ElasticNet(0.7, 1.3)
        for _ in range(100):
            x = stream.standard_normal(6)
            y = stream.standard_normal(6)
            mid = elastic_net_value(reg, 0.5 * (x + y))
            avg = 0.5 * (elastic_net_value(reg, x) + elastic_net_value(reg, y))
            assert mid <= avg + 1e-12

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ElasticNet(-0.1, 0.0)
        with pytest.raises(ValueError):
            ElasticNet(0.0, -1.0)

    @pytest.mark.parametrize("weights", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, math.inf), (math.nan, math.inf)])
    def test_rejects_nonfinite_weights(self, weights):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ElasticNet(*weights)


class TestFeasibleSet:
    def test_unconstrained_contains_everything(self):
        fs = FeasibleSet.unconstrained()
        assert not fs.is_box
        assert fs.contains(np.array([1e12, -1e12]))
        x = np.array([3.0, -4.0])
        assert fs.clamp(x) is x

    def test_box_membership_and_clamp(self):
        fs = FeasibleSet.box([-1.0, 0.0], [1.0, 2.0])
        assert fs.is_box
        assert fs.contains(np.array([0.0, 1.0]))
        assert not fs.contains(np.array([0.0, 2.5]))
        assert fs.clamp(np.array([-3.0, 5.0])).tolist() == [-1.0, 2.0]

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            FeasibleSet.box([1.0], [0.0])
        with pytest.raises(ValueError):
            FeasibleSet.box([0.0, 0.0], [1.0])

    @pytest.mark.parametrize("lo, hi", [([0.0, math.nan], [1.0, 1.0]), ([0.0, 0.0], [math.nan, 1.0])])
    def test_box_rejects_nan_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="box requires lo_i <= hi_i"):
            FeasibleSet.box(lo, hi)

    @pytest.mark.parametrize(
        "lo, hi",
        [([math.inf], [math.inf]), ([-math.inf], [-math.inf]), ([0.0, math.inf], [1.0, math.inf]), ([-math.inf, 0.0], [-math.inf, math.inf])],
    )
    def test_box_rejects_bounds_with_no_finite_point(self, lo, hi):
        # A lower bound of +inf or an upper bound of -inf leaves no finite
        # point in the box; such a run used to start at inf and fail late.
        with pytest.raises(ValueError, match="^box requires lo_i < inf and hi_i > -inf for all i"):
            FeasibleSet.box(lo, hi)
        assert FeasibleSet.box([-math.inf, 1.0], [math.inf, math.inf]).is_box

    def test_contains_tolerance(self):
        fs = FeasibleSet.box([0.0], [1.0])
        assert not fs.contains(np.array([1.0 + 1e-12]))
        assert FeasibleSet.box([-1e-9], [1.0 + 1e-9]).contains(np.array([1.0 + 1e-12]))


class TestProblem:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            zero_problem(d=0)
        with pytest.raises(ValueError):
            zero_problem(num_samples=0)
        # Floats and bools are no counts, even where they compare as one.
        for bad in (2.5, True, 2.0):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                zero_problem(d=bad)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="num_samples must be a positive integer"):
                zero_problem(num_samples=bad)

    def test_box_must_match_dimension(self):
        with pytest.raises(ValueError, match=r"box bounds must have shape \(3,\)"):
            zero_problem(d=3, feasible_set=FeasibleSet.box([0.0, 0.0], [1.0, 1.0]))
        with pytest.raises(ValueError, match=r"box bounds must have shape \(1,\)"):
            zero_problem(d=1, feasible_set=FeasibleSet.box(0.0, 1.0))

    def test_oracle_deterministic(self):
        prob = make_sparse_regression(4, 6, 2, 0.3, "least_squares", seed=3)
        x = rng.stream("test-det", 0).standard_normal(4)
        assert prob.oracle(x, 11) == prob.oracle(x, 11)


def test_package_republishes_each_module_name_once():
    modules = (core, mirror, problems, sampling, solvers)
    for module in modules:
        for name in module.__all__:
            assert getattr(zomirror, name) is getattr(module, name)
    assert len(zomirror.__all__) == len(set(zomirror.__all__))
    assert set(zomirror.__all__) == {name for module in modules for name in module.__all__} | {"__version__"}


class TestCompositeValue:
    def test_zero_everything(self):
        assert composite_value(zero_problem(), np.array([4.0, -5.0]), [0, 1]) == 0.0

    def test_first_coordinate_oracle_plus_l1(self):
        prob = Problem(
            dimension=2,
            oracle=lambda x, xi: float(x[0]),
            regularizer=ElasticNet(gamma1=1.0),
        )
        assert composite_value(prob, np.array([2.0, 0.0]), [0]) == 4.0

    def test_quadratic_regularizer_only(self):
        prob = zero_problem(regularizer=ElasticNet(gamma2=2.0))
        assert composite_value(prob, np.array([1.0, 1.0]), [0, 5, 9]) == 2.0

    def test_averages_over_samples(self):
        prob = Problem(dimension=1, oracle=lambda x, xi: float(xi))
        assert composite_value(prob, np.zeros(1), [1, 2, 3]) == 2.0

    def test_rejects_empty_samples(self):
        with pytest.raises(ValueError):
            composite_value(zero_problem(), np.zeros(2), [])

    def test_nonfinite_oracle_names_sample(self):
        prob = Problem(dimension=1, oracle=lambda x, xi: math.inf if xi == 7 else 0.0)
        with pytest.raises(NumericError, match="xi=7"):
            composite_value(prob, np.zeros(1), [0, 7])


class TestGradientMap:
    def setup_method(self):
        self.geo = MirrorGeometry(1)
        self.none = ElasticNet()
        self.free = FeasibleSet.unconstrained()

    def test_zero_dual_is_fixed_point(self):
        x = np.array([0.3, -1.2, 0.0])
        res = gradient_map(x, np.zeros(3), 2.0, MirrorGeometry(3), self.none, self.free)
        assert np.allclose(res.mapped_point, x, atol=1e-14)
        assert np.allclose(res.map_vector, 0.0, atol=1e-13)

    def test_unit_mirror_step(self):
        res = gradient_map(
            np.zeros(1), np.array([-math.log(2.0)]), 1.0, self.geo, self.none, self.free
        )
        assert res.mapped_point[0] == pytest.approx(1.0, abs=1e-12)
        assert res.map_vector[0] == pytest.approx(-1.0, abs=1e-12)
        assert res.sq_l1_norm == pytest.approx(1.0, abs=1e-11)

    def test_stationary_point_has_zero_norm(self):
        res = gradient_map(np.zeros(2), np.zeros(2), 1.0, MirrorGeometry(2), self.none, self.free)
        assert res.sq_l1_norm == 0.0

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            gradient_map(np.zeros(1), np.zeros(1), 0.0, self.geo, self.none, self.free)

    def test_rejects_nan_eta(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            gradient_map(np.zeros(1), np.zeros(1), math.nan, self.geo, self.none, self.free)

    @pytest.mark.parametrize("where", ["x", "g"])
    def test_rejects_nan_entry(self, where):
        # The norm once read NaN for a NaN entry of x or g.
        x = np.array([0.1, 0.2, 0.3])
        g = np.zeros(3)
        (x if where == "x" else g)[0] = math.nan
        with pytest.raises(ValueError, match="must not hold NaN"):
            gradient_map(x, g, 1.0, MirrorGeometry(3), ElasticNet(0.1, 0.0), self.free)

    @pytest.mark.parametrize("eta", [[1.0, 2.0], np.array([1.0, 2.0]), np.array([1.0])])
    def test_one_point_rejects_a_sequence_eta(self, eta):
        with pytest.raises(ValueError, match="^one point takes one scalar eta$"):
            gradient_map(np.full(2, 0.1), np.ones(2), eta, MirrorGeometry(2), self.none, self.free)

    def test_rejects_infinite_eta(self):
        # The map vector would be 0*inf: sq_l1_norm read inf or NaN.
        with pytest.raises(ValueError, match="eta must be positive"):
            gradient_map(np.full(3, 0.1), np.ones(3), math.inf, MirrorGeometry(3), self.none, self.free)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_map_past_the_float_range_is_inf_quietly(self, stacked):
        # x - P is one ulp of 5e149, times eta = 1e300: inf, as Python
        # floats give it, where the product once raised a RuntimeWarning.
        x = np.array([-5e149])
        fs = FeasibleSet.box([-1e150], [-1e8])
        args = (x[None], (x - 1.0)[None], [1e300]) if stacked else (x, x - 1.0, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gradient_map(*args, self.geo, self.none, fs)
        assert np.isinf(res.map_vector).all() and np.all(res.sq_l1_norm == math.inf)

    def test_scaling_identity(self):
        stream = rng.stream("test-gm", 0)
        geo = MirrorGeometry(5)
        for _ in range(50):
            x = stream.uniform(-2, 2, 5)
            g = stream.standard_normal(5)
            eta = float(np.exp(stream.uniform(-1, 1)))
            reg = ElasticNet(float(stream.uniform(0, 1)), float(stream.uniform(0, 1)))
            res = gradient_map(x, g, eta, geo, reg, self.free)
            assert np.max(np.abs(res.map_vector + eta * res.mapped_point - eta * x)) <= 1e-12
            l1 = float(np.sum(np.abs(res.map_vector)))
            assert res.sq_l1_norm == l1 * l1

    def test_dual_contraction_at_moderate_offsets(self):
        # With small iterates and dual offsets below ln(d), the per-coordinate
        # prox slope stays under 1, so the map is 1-Lipschitz in its dual
        # argument in the l1 sense over these probes.
        stream = rng.stream("test-gm", 1)
        d = 50
        geo = MirrorGeometry(d)
        for _ in range(40):
            x = stream.uniform(-0.5, 0.5, d)
            g1 = stream.uniform(-0.25, 0.25, d)
            g2 = stream.uniform(-0.25, 0.25, d)
            eta = float(stream.uniform(1.0, 2.0))
            reg = ElasticNet(float(stream.uniform(0, 0.1)), float(stream.uniform(0, 0.1)))
            a = gradient_map(x, g1, eta, geo, reg, self.free)
            b = gradient_map(x, g2, eta, geo, reg, self.free)
            lhs = float(np.sum(np.abs(a.map_vector - b.map_vector)))
            rhs = float(np.sum(np.abs(g1 - g2)))
            assert lhs <= rhs + 1e-10

    def test_box_keeps_mapped_point_feasible(self):
        stream = rng.stream("test-gm", 2)
        geo = MirrorGeometry(4)
        for _ in range(30):
            x = stream.uniform(-1, 1, 4)
            fs = FeasibleSet.box(x - stream.uniform(0, 1, 4), x + stream.uniform(0, 1, 4))
            res = gradient_map(x, stream.standard_normal(4), 1.0, geo, ElasticNet(), fs)
            assert FeasibleSet.box(fs.lo - 1e-12, fs.hi + 1e-12).contains(res.mapped_point)

    def test_result_type_fields(self):
        res = gradient_map(np.zeros(1), np.zeros(1), 1.0, self.geo, self.none, self.free)
        assert isinstance(res, GradientMapResult)

    def test_lives_beside_its_prox(self):
        assert zomirror.gradient_map is mirror.gradient_map
        assert zomirror.GradientMapResult is mirror.GradientMapResult
        assert not hasattr(core, "gradient_map")


class TestExactGradientConsistency:
    @pytest.mark.parametrize("kind", ["least_squares", "robust_nonconvex"])
    def test_central_difference_matches(self, kind):
        prob = make_sparse_regression(6, 9, 2, 0.2, kind, seed=5)
        stream = rng.stream("test-fd", kind)
        h = 1e-5
        for _ in range(100):
            x = stream.uniform(-2, 2, 6)
            i = int(stream.integers(6))
            e = np.zeros(6)
            e[i] = h
            plus = np.mean([prob.oracle(x + e, xi) for xi in range(prob.num_samples)])
            minus = np.mean([prob.oracle(x - e, xi) for xi in range(prob.num_samples)])
            fd = (plus - minus) / (2 * h)
            exact = prob.exact_gradient(x)[i]
            assert fd == pytest.approx(exact, rel=1e-4, abs=1e-6)
