"""Two-point Rademacher gradient estimation and smoothing defaults."""

import math

import numpy as np
import pytest

from zomirror import (
    EstimatorConfig,
    NumericError,
    Problem,
    default_smoothing,
    minibatch_gradient,
    paired_storm_estimates,
    rademacher_vector,
    two_point_estimate,
)
from zomirror import rng

from oracles import all_sign_vectors, enumerated_linear_mean


def quadratic_problem(d=2):
    return Problem(
        dimension=d,
        oracle=lambda x, xi: 0.5 * float(x @ x),
        exact_gradient=lambda x: x.copy(),
    )


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    return Problem(dimension=a.size, oracle=lambda x, xi: float(a @ x))


class TestRademacher:
    def test_pinned_draw(self):
        u = rademacher_vector(rng.stream(0, 1, 0), 6)
        assert u.tolist() == [-1.0, -1.0, 1.0, -1.0, 1.0, 1.0]

    def test_entries_are_signs(self):
        u = rademacher_vector(rng.stream("test-rad", 0), 500)
        assert set(np.unique(u)) <= {-1.0, 1.0}

    def test_roughly_balanced(self):
        u = rademacher_vector(rng.stream("test-rad", 1), 20000)
        assert abs(float(np.mean(u))) < 0.03

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            rademacher_vector(rng.stream(0), 0)


class TestEstimatorConfig:
    def test_defaults(self):
        cfg = EstimatorConfig(nu=0.01, batch=4)
        assert cfg.delta == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(nu=0.0, batch=1)
        with pytest.raises(ValueError):
            EstimatorConfig(nu=0.1, batch=0)
        with pytest.raises(ValueError, match="delta is fixed to 1"):
            EstimatorConfig(nu=0.1, batch=1, delta=0.5)


class TestTwoPoint:
    def test_linear_oracle_is_exact_per_probe(self):
        # For l(x) = <a, x> the finite difference is exact: estimate = <a,u>u.
        a = np.array([2.0, -3.0, 0.5])
        prob = linear_problem(a)
        u = np.array([1.0, -1.0, -1.0])
        est = two_point_estimate(prob, np.zeros(3), u, 0.37, 0)
        assert np.allclose(est, float(a @ u) * u, atol=1e-12)

    def test_quadratic_hand_value(self):
        # l = ||x||^2/2, x = (1,0), u = (1,1), nu = 0.1:
        # (l(x+nu u) - l(x))/nu = (0.61 - 0.5)/0.1 = 1.1.
        prob = quadratic_problem()
        u = np.ones(2)
        est = two_point_estimate(prob, np.array([1.0, 0.0]), u, 0.1, 0)
        assert np.allclose(est, [1.1, 1.1], atol=1e-12)
        est0 = two_point_estimate(prob, np.zeros(2), u, 0.1, 0)
        assert np.allclose(est0, [0.1, 0.1], atol=1e-12)

    def test_enumerated_mean_matches_expectation(self):
        # Averaging over all 2^d sign vectors recovers <a,u>u's mean exactly,
        # which for a linear loss is the gradient itself.
        a = np.array([1.5, -0.25, 4.0, 0.0])
        prob = linear_problem(a)
        x = np.array([0.3, -1.0, 0.0, 2.0])
        acc = np.zeros(4)
        signs = all_sign_vectors(4)
        for u in signs:
            acc += two_point_estimate(prob, x, u, 0.5, 0)
        acc /= len(signs)
        assert np.max(np.abs(acc - enumerated_linear_mean(a))) <= 1e-12
        assert np.max(np.abs(acc - a)) <= 1e-12

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            two_point_estimate(quadratic_problem(), np.zeros(2), np.ones(2), 0.0, 0)

    def test_nonfinite_oracle_reports_sample(self):
        prob = Problem(dimension=1, oracle=lambda x, xi: math.nan)
        with pytest.raises(NumericError, match="xi=3"):
            two_point_estimate(prob, np.zeros(1), np.ones(1), 0.1, 3)


class TestMinibatch:
    def test_oracle_call_count(self):
        est = minibatch_gradient(
            quadratic_problem(), np.zeros(2), EstimatorConfig(nu=0.1, batch=7), (0, 1)
        )
        assert est.oracle_calls == 14
        assert est.nu_used == 0.1

    def test_deterministic_for_fixed_key(self):
        prob = quadratic_problem(5)
        cfg = EstimatorConfig(nu=0.05, batch=3)
        x = rng.stream("test-mb", 0).standard_normal(5)
        a = minibatch_gradient(prob, x, cfg, (9, 2))
        b = minibatch_gradient(prob, x, cfg, (9, 2))
        assert np.array_equal(a.vector, b.vector)

    def test_distinct_keys_decorrelate(self):
        prob = quadratic_problem(5)
        cfg = EstimatorConfig(nu=0.05, batch=3)
        x = np.ones(5)
        a = minibatch_gradient(prob, x, cfg, (9, 2))
        b = minibatch_gradient(prob, x, cfg, (9, 3))
        assert not np.array_equal(a.vector, b.vector)

    def test_matches_manual_replay_of_stream_paths(self):
        # The batch draws from the single stream named by key: the m*d signs
        # as ceil(m*d/8) packed bytes read row-major by np.unpackbits (bit
        # 1 is +1), then the m sample ids from integers(2**63, size=m).
        # d=3 and m=5 make rows straddle byte boundaries.  Replaying that
        # by hand must reproduce the batch mean bit for bit.
        prob = Problem(
            dimension=3, oracle=lambda x, xi: float((xi % 4) + 1) * 0.5 * float(x @ x)
        )
        cfg = EstimatorConfig(nu=0.2, batch=5)
        x = np.array([0.4, -1.1, 2.0])
        key = (123, 17)
        stream = rng.stream(*key)
        packed = np.frombuffer(stream.bytes(math.ceil(cfg.batch * 3 / 8)), dtype=np.uint8)
        signs = 2.0 * np.unpackbits(packed)[: cfg.batch * 3].reshape(cfg.batch, 3) - 1.0
        xis = stream.integers(2**63, size=cfg.batch)
        total = np.zeros(3)
        for j in range(cfg.batch):
            u, xi = signs[j], int(xis[j])
            forward = prob.oracle(x + cfg.nu * u, xi)
            base = prob.oracle(x, xi)
            total += ((forward - base) / cfg.nu) * u
        est = minibatch_gradient(prob, x, cfg, key)
        assert np.array_equal(est.vector, total / cfg.batch)

    def test_oracle_sees_forward_then_base_in_element_order(self):
        # 2m scalar calls per estimate: element j's forward point x + nu*u_j,
        # then the base point x, both with sample id xi_j.
        seen = []

        def oracle(x, xi):
            seen.append((x.copy(), xi))
            return float(x.sum())

        prob = Problem(dimension=11, oracle=oracle)
        cfg = EstimatorConfig(nu=0.5, batch=4)
        x = np.linspace(-1.0, 1.0, 11)
        minibatch_gradient(prob, x, cfg, (4, 2))
        assert len(seen) == 2 * cfg.batch
        for j in range(cfg.batch):
            (fwd, xi_f), (base, xi_b) = seen[2 * j], seen[2 * j + 1]
            assert xi_f == xi_b
            assert np.array_equal(base, x)
            assert set(np.round((fwd - x) / cfg.nu, 12)) <= {-1.0, 1.0}

    def test_linear_minibatch_mean_is_near_gradient(self):
        a = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        prob = linear_problem(a)
        cfg = EstimatorConfig(nu=1.0, batch=4096)
        est = minibatch_gradient(prob, np.zeros(5), cfg, ("test-mb", "law"))
        assert np.max(np.abs(est.vector - a)) < 0.25


class TestPairedStorm:
    def test_shared_probes_collapse_at_equal_points(self):
        prob = quadratic_problem(4)
        cfg = EstimatorConfig(nu=0.1, batch=5)
        x = np.array([1.0, -2.0, 0.0, 0.5])
        cur, prev = paired_storm_estimates(prob, x, x.copy(), cfg, (3, 8))
        assert np.array_equal(cur.vector, prev.vector)

    def test_call_accounting_per_point(self):
        prob = quadratic_problem(2)
        cur, prev = paired_storm_estimates(
            prob, np.zeros(2), np.ones(2), EstimatorConfig(nu=0.1, batch=6), (0, 2)
        )
        assert cur.oracle_calls == 12
        assert prev.oracle_calls == 12

    def test_current_point_estimate_equals_plain_minibatch(self):
        # The paired batch at x_t reuses exactly the minibatch stream paths,
        # so it coincides with minibatch_gradient under the same key.
        prob = quadratic_problem(3)
        cfg = EstimatorConfig(nu=0.05, batch=4)
        x_t = np.array([0.2, 0.9, -0.4])
        x_prev = np.array([0.1, 1.0, -0.3])
        cur, _ = paired_storm_estimates(prob, x_t, x_prev, cfg, (7, 5))
        plain = minibatch_gradient(prob, x_t, cfg, (7, 5))
        assert np.array_equal(cur.vector, plain.vector)

    def test_pairing_shrinks_difference_variance(self):
        # Shared (u, xi) makes est(x_t) - est(x_prev) track the gradient gap;
        # independent keys would leave O(1) noise in the difference.
        prob = quadratic_problem(6)
        cfg = EstimatorConfig(nu=0.01, batch=2)
        x_prev = np.ones(6)
        x_t = x_prev + 0.01
        gaps = []
        for r in range(200):
            cur, prev = paired_storm_estimates(prob, x_t, x_prev, cfg, ("var", r))
            gaps.append(np.max(np.abs(cur.vector - prev.vector)))
        # True gradient gap has l_inf norm 0.01; shared noise cancels to O(d*nu).
        assert max(gaps) < 0.5


class TestDefaultSmoothing:
    def test_minibatch_rule(self):
        assert default_smoothing(1, 1, "minibatch") == 1.0
        assert default_smoothing(100, 400, "minibatch") == pytest.approx(5e-4, rel=1e-12)

    def test_storm_rule(self):
        assert default_smoothing(1, 1, "storm") == 1.0
        assert default_smoothing(10, 1000, "storm") == pytest.approx(1e-3, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            default_smoothing(0, 10, "minibatch")
        with pytest.raises(ValueError):
            default_smoothing(10, 0, "storm")
        with pytest.raises(ValueError):
            default_smoothing(10, 10, "unknown")
