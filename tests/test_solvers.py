"""Solver loops: stepsize recursions, momentum, drivers, output sampling."""

import dataclasses
import math

import numpy as np
import pytest

from zomirror import (
    ElasticNet,
    EstimatorConfig,
    FeasibleSet,
    MirrorGeometry,
    NumericError,
    Problem,
    RunConfig,
    StepsizeState,
    StormState,
    adaptive_stepsize_md_update,
    default_smoothing,
    fw_combined_step,
    make_sparse_regression,
    minibatch_gradient,
    run_zo_ada_expgrad,
    run_zo_ada_expgrad_plus,
    run_zo_expstorm,
    run_zo_psgd,
    scmd_step,
    storm_momentum_update,
    storm_schedule,
)
from zomirror import rng
from zomirror.solvers import SolverState

FREE = FeasibleSet.unconstrained()

RUNNERS = {
    "zo-ada-expgrad": run_zo_ada_expgrad,
    "zo-ada-expgrad-plus": run_zo_ada_expgrad_plus,
    "zo-expstorm": run_zo_expstorm,
    "zo-psgd": run_zo_psgd,
}


def zero_problem(d=1, **kw):
    kw.setdefault("regularizer", ElasticNet())
    return Problem(dimension=d, oracle=lambda x, xi: 0.0, **kw)


def quadratic_problem(center, noise=0.0, seed=0, box=None):
    """Mean loss ||x - c||^2 / 2 with optional additive per-sample noise.

    ``box`` bounds the iterates; without it, small eta values can push the
    entropy prox into its guarded overflow regime on this unbounded loss.
    """
    c = np.asarray(center, dtype=float)
    d = c.size
    if noise == 0.0:
        offsets = np.zeros((1, d))
    else:
        offsets = noise * rng.stream("quad-noise", seed).standard_normal((40, d))
        offsets -= offsets.mean(axis=0)
    n = offsets.shape[0]

    def oracle(x, xi):
        r = x - c - offsets[xi % n]
        return 0.5 * float(r @ r)

    fs = FREE if box is None else FeasibleSet.box(np.full(d, -box), np.full(d, box))
    return Problem(
        dimension=d,
        oracle=oracle,
        exact_gradient=lambda x: x - c,
        mean_loss=lambda x: 0.5 * float((x - c) @ (x - c))
        + 0.5 * float(np.mean(np.sum(offsets * offsets, axis=1))),
        num_samples=n,
        feasible_set=fs,
    )


def fresh_state(d=1, variant="adaptive_fw", eta=1.0, reg=None, fs=None, storm=None, x=None):
    return SolverState(
        geometry=MirrorGeometry(d),
        regularizer=reg or ElasticNet(),
        feasible_set=fs or FREE,
        x=np.zeros(d) if x is None else np.asarray(x, dtype=float),
        steps=StepsizeState(variant=variant, eta_base=eta),
        storm=storm,
    )


class TestStepsizeState:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepsizeState(variant="bogus", eta_base=1.0)
        with pytest.raises(ValueError):
            StepsizeState(variant="constant", eta_base=0.0)

    def test_current_eta(self):
        s = StepsizeState(variant="adaptive_md", eta_base=2.0, alpha=3.0)
        assert s.current_eta() == 6.0


class TestRunConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"T": 0, "batch": 1},
            {"T": 1, "batch": 0},
            {"T": 1, "batch": 1, "eta_base": 0.0},
            {"T": 1, "batch": 1, "nu": -0.1},
            {"T": 1, "batch": 1, "stationarity_eval_period": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)

    def test_variant_rejection_per_algorithm(self):
        prob = zero_problem()
        bad = [
            (run_zo_ada_expgrad, "adaptive_fw"),
            (run_zo_ada_expgrad_plus, "constant"),
            (run_zo_expstorm, "adaptive_fw"),
            (run_zo_psgd, "adaptive_md"),
        ]
        for runner, variant in bad:
            cfg = RunConfig(T=1, batch=1, stepsize_variant=variant)
            with pytest.raises(ValueError, match="does not support stepsize variant"):
                runner(prob, cfg)

    def test_explicit_default_variants_accepted(self):
        prob = zero_problem()
        ok = [
            (run_zo_ada_expgrad, "adaptive_md"),
            (run_zo_ada_expgrad, "constant"),
            (run_zo_ada_expgrad_plus, "adaptive_fw"),
            (run_zo_expstorm, "storm"),
            (run_zo_psgd, "constant"),
        ]
        for runner, variant in ok:
            runner(prob, RunConfig(T=1, batch=1, stepsize_variant=variant))

    def test_algorithm_must_match_the_runner(self):
        prob = zero_problem()
        for name, runner in RUNNERS.items():
            runner(prob, RunConfig(T=1, batch=1, algorithm=name))
            other = next(tag for tag in RUNNERS if tag != name)
            for wrong in (other, "nonsense"):
                with pytest.raises(ValueError, match=f"names algorithm {wrong!r}, but this runs {name!r}"):
                    runner(prob, RunConfig(T=1, batch=1, algorithm=wrong))


class TestStormSchedule:
    def test_pinned_start(self):
        tau, gamma, beta = storm_schedule(1, 1)
        assert tau == pytest.approx(1.5874010519681996, rel=1e-15)
        assert gamma == pytest.approx(0.7729764191286187, rel=1e-13)
        assert beta == 1.0

    def test_exact_rational_point(self):
        # t=7, m=1: tau = 8^(2/3) = 4, gamma = 0.4, beta = 1.5.
        tau, gamma, beta = storm_schedule(7, 1)
        assert tau == pytest.approx(4.0, rel=1e-14)
        assert gamma == pytest.approx(0.4, rel=1e-14)
        assert beta == pytest.approx(1.5, rel=1e-14)

    def test_monotone_over_long_horizon(self):
        m = 16
        prev = storm_schedule(1, m)
        for t in range(2, 10_001, 7):
            cur = storm_schedule(t, m)
            assert cur[0] > prev[0]
            assert cur[1] < prev[1]
            assert cur[2] >= prev[2]
            prev = cur
        assert storm_schedule(10_000, m)[1] < 0.03

    def test_gamma_stays_in_unit_interval(self):
        for t in (1, 2, 10, 1000):
            for m in (1, 8, 256):
                gamma = storm_schedule(t, m)[1]
                assert 0.0 < gamma < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            storm_schedule(0, 1)
        with pytest.raises(ValueError):
            storm_schedule(1, 0)


class TestStormMomentum:
    def test_hand_update(self):
        state = StormState(batch=1, momentum=np.array([1.0, 0.0]), gamma=0.5)
        d_t = storm_momentum_update(state, np.array([2.0, 2.0]), np.array([0.0, 1.0]))
        assert d_t.tolist() == [2.5, 1.5]
        assert state.momentum.tolist() == [2.5, 1.5]

    def test_gamma_one_forgets_history(self):
        state = StormState(batch=1, momentum=np.array([50.0]), gamma=1.0)
        d_t = storm_momentum_update(state, np.array([3.0]), np.array([-1.0]))
        assert d_t.tolist() == [3.0]

    def test_shape_mismatch(self):
        state = StormState(batch=1, momentum=np.zeros(2))
        with pytest.raises(ValueError):
            storm_momentum_update(state, np.zeros(2), np.zeros(3))


class TestAdaptiveMdUpdate:
    def test_zero_move_square_root_rule(self):
        # With accum pre-loaded to 9 the next alpha is sqrt(9 + 1).
        steps = StepsizeState(variant="adaptive_md", eta_base=1.0, alpha=1.0, accum=9.0)
        adaptive_stepsize_md_update(steps, np.zeros(2), np.zeros(2))
        assert steps.alpha == pytest.approx(math.sqrt(10.0), abs=1e-15)

    def test_unit_move_from_origin(self):
        steps = StepsizeState(variant="adaptive_md", eta_base=1.0)
        adaptive_stepsize_md_update(steps, np.array([0.0]), np.array([1.0]))
        assert steps.accum == pytest.approx(0.25, abs=1e-16)
        assert steps.alpha == pytest.approx(math.sqrt(1.25), abs=1e-15)

    def test_alpha_never_decreases_on_random_walk(self):
        steps = StepsizeState(variant="adaptive_md", eta_base=0.7)
        stream = rng.stream("test-md-up", 0)
        x = np.zeros(4)
        prev_alpha = steps.alpha
        for _ in range(200):
            nxt = x + stream.uniform(-1, 1, 4)
            adaptive_stepsize_md_update(steps, x, nxt)
            assert steps.alpha >= prev_alpha
            prev_alpha = steps.alpha
            x = nxt

    def test_guard_fires_on_corrupted_state(self):
        steps = StepsizeState(variant="adaptive_md", eta_base=1.0, alpha=5.0, accum=0.0)
        with pytest.raises(RuntimeError, match="alpha decreased"):
            adaptive_stepsize_md_update(steps, np.zeros(1), np.zeros(1))


class TestScmdStep:
    def test_unit_mirror_move(self):
        state = fresh_state(variant="adaptive_md")
        out = scmd_step(state, np.array([-math.log(2.0)]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_joint_scaling_invariance(self):
        # Without an l1/l2 term the prox depends on g/eta only.
        stream = rng.stream("test-scmd", 0)
        for _ in range(20):
            x = stream.uniform(-1, 1, 3)
            g = stream.standard_normal(3)
            a = fresh_state(d=3, variant="adaptive_md", eta=1.0, x=x)
            b = fresh_state(d=3, variant="adaptive_md", eta=4.0, x=x)
            assert np.allclose(scmd_step(a, g), scmd_step(b, 4.0 * g), atol=1e-12)


class TestFwCombinedStep:
    def test_hand_example_full_step(self):
        # From the origin with accum 0 the new alpha clamps to 1, so the
        # combination lands exactly on the prox target.
        state = fresh_state(variant="adaptive_fw")
        v, x_next = fw_combined_step(state, np.array([-math.log(2.0)]))
        assert v[0] == pytest.approx(1.0, abs=1e-15)
        assert x_next[0] == pytest.approx(1.0, abs=1e-15)
        assert state.steps.alpha == 1.0
        assert state.steps.accum == pytest.approx(0.25, abs=1e-16)

    def test_partial_step_when_accum_grows(self):
        state = fresh_state(variant="adaptive_fw")
        state.steps.accum = 8.75
        v, x_next = fw_combined_step(state, np.array([-math.log(2.0)]))
        # accum gains 0.25 -> alpha_next = 3, ratio = 1/3.
        assert state.steps.alpha == pytest.approx(3.0, rel=1e-15)
        assert x_next[0] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_storm_variant_uses_beta_schedule(self):
        storm = StormState(batch=1, momentum=np.zeros(1))
        state = fresh_state(variant="storm", storm=storm)
        state.iteration = 9
        v, x_next = fw_combined_step(state, np.array([-math.log(2.0)]))
        beta_next = storm_schedule(10, 1)[2]
        alpha_next = math.sqrt(beta_next * 1.25)
        assert state.steps.alpha == pytest.approx(alpha_next, rel=1e-14)
        assert x_next[0] == pytest.approx(1.0 / alpha_next, rel=1e-13)

    def test_storm_variant_requires_state(self):
        state = fresh_state(variant="storm", storm=None)
        with pytest.raises(ValueError, match="require StormState"):
            fw_combined_step(state, np.zeros(1))

    def test_rejects_plain_md_variant(self):
        state = fresh_state(variant="adaptive_md")
        with pytest.raises(ValueError, match="does not support"):
            fw_combined_step(state, np.zeros(1))

    def test_guard_fires_on_corrupted_state(self):
        state = fresh_state(variant="adaptive_fw")
        state.steps.alpha = 5.0
        with pytest.raises(RuntimeError, match="alpha decreased"):
            fw_combined_step(state, np.zeros(1))

    def test_box_feasibility_preserved(self):
        fs = FeasibleSet.box([0.0], [0.25])
        state = fresh_state(variant="adaptive_fw", fs=fs, x=[0.1])
        _, x_next = fw_combined_step(state, np.array([-3.0]))
        assert fs.contains(x_next)


class TestRunMechanics:
    def test_oracle_call_ledger_minibatch(self):
        prob = zero_problem()
        trace = run_zo_ada_expgrad(prob, RunConfig(T=4, batch=3))
        assert [r.oracle_calls for r in trace.records] == [6, 12, 18, 24]

    def test_oracle_call_ledger_storm(self):
        prob = zero_problem()
        trace = run_zo_expstorm(prob, RunConfig(T=4, batch=3))
        assert [r.oracle_calls for r in trace.records] == [6, 18, 30, 42]

    def test_single_iteration_storm_costs_one_batch(self):
        prob = zero_problem()
        trace = run_zo_expstorm(prob, RunConfig(T=1, batch=5))
        assert trace.records[-1].oracle_calls == 10

    def test_record_layout(self):
        prob = quadratic_problem([1.0, -1.0], box=2.0)
        trace = run_zo_ada_expgrad(prob, RunConfig(T=5, batch=2, eta_base=0.5))
        assert [r.iteration for r in trace.records] == [1, 2, 3, 4, 5]
        assert trace.records[0].alpha == 1.0
        assert trace.records[0].eta == 0.5
        assert trace.records[0].objective == pytest.approx(1.0, abs=1e-12)
        alphas = [r.alpha for r in trace.records]
        assert alphas == sorted(alphas)

    def test_constant_variant_freezes_eta(self):
        prob = quadratic_problem([1.0, -1.0], box=2.0)
        cfg = RunConfig(T=6, batch=2, eta_base=0.8, stepsize_variant="constant")
        trace = run_zo_ada_expgrad(prob, cfg)
        assert all(r.alpha == 1.0 for r in trace.records)
        assert all(r.eta == 0.8 for r in trace.records)

    def test_objective_prefers_mean_loss(self):
        prob = Problem(
            dimension=1,
            oracle=lambda x, xi: 0.0,
            mean_loss=lambda x: 7.0,
            regularizer=ElasticNet(),
        )
        trace = run_zo_psgd(prob, RunConfig(T=1, batch=1))
        assert trace.records[0].objective == 7.0

    def test_stationarity_eval_period(self):
        prob = quadratic_problem([1.0])
        cfg = RunConfig(T=7, batch=1, stationarity_eval_period=3)
        trace = run_zo_ada_expgrad(prob, cfg)
        have = [r.iteration for r in trace.records if r.stationarity_sq_l1 is not None]
        assert have == [1, 4, 7]

    def test_storm_computes_exact_gradient_once_per_iteration(self):
        # The gradient map and the momentum tracking share one exact
        # gradient per iteration.  minibatch_tracking_sq is recomputed from
        # the stored iterates to check that the shared gradient is the one
        # at x_t.
        base = make_sparse_regression(
            10, 40, 3, 0.1, "least_squares", seed=0, regularizer=ElasticNet(1e-3, 1e-4)
        )
        calls = []

        def counted(x):
            calls.append(1)
            return base.exact_gradient(x)

        prob = dataclasses.replace(base, exact_gradient=counted)
        T, m = 50, 4
        cfg = RunConfig(T=T, batch=m, eta_base=2.0, seed=3, stationarity_eval_period=1)
        trace = run_zo_expstorm(prob, cfg)
        assert len(calls) == T
        plain = run_zo_expstorm(base, cfg)

        def untimed(tr):
            return [dataclasses.replace(r, wall_ms=0.0) for r in tr.records]

        assert untimed(trace) == untimed(plain)
        assert trace.tracking_sq == plain.tracking_sq
        est_cfg = EstimatorConfig(nu=default_smoothing(10, T, "storm"), batch=m)
        for t, x_t in enumerate(trace.iterates, start=1):
            g = minibatch_gradient(base, x_t, est_cfg, (cfg.seed, t)).vector
            want = float(np.max(np.abs(g - base.exact_gradient(x_t)))) ** 2
            assert trace.minibatch_tracking_sq[t - 1] == want

    def test_no_exact_gradient_no_stationarity(self):
        prob = zero_problem()
        trace = run_zo_expstorm(prob, RunConfig(T=3, batch=1))
        assert all(r.stationarity_sq_l1 is None for r in trace.records)
        assert trace.tracking_sq is None
        assert trace.minibatch_tracking_sq is None

    def test_deterministic_repetition(self):
        prob = quadratic_problem([1.0, 2.0], noise=0.3, box=3.0)
        cfg = RunConfig(T=20, batch=4, seed=11)
        a = run_zo_ada_expgrad(prob, cfg)
        b = run_zo_ada_expgrad(prob, cfg)
        assert [r.objective for r in a.records] == [r.objective for r in b.records]
        assert all(np.array_equal(p, q) for p, q in zip(a.iterates, b.iterates))
        assert a.sampled_index == b.sampled_index

    def test_seed_changes_trajectory(self):
        prob = quadratic_problem([1.0, 2.0], noise=0.3, box=3.0)
        a = run_zo_ada_expgrad(prob, RunConfig(T=5, batch=2, seed=0))
        b = run_zo_ada_expgrad(prob, RunConfig(T=5, batch=2, seed=1))
        assert not np.array_equal(a.iterates[-1], b.iterates[-1])

    def test_start_point_defaults(self):
        free = zero_problem(d=3)
        assert run_zo_psgd(free, RunConfig(T=1, batch=1)).iterates[0].tolist() == [0.0] * 3
        shifted = zero_problem(d=1, feasible_set=FeasibleSet.box([1.0], [2.0]))
        assert run_zo_psgd(shifted, RunConfig(T=1, batch=1)).iterates[0].tolist() == [1.5]

    def test_start_point_validation(self):
        bad_shape = zero_problem(d=2, start_point=np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            run_zo_psgd(bad_shape, RunConfig(T=1, batch=1))
        infeasible = zero_problem(
            d=1, feasible_set=FeasibleSet.box([0.0], [1.0]), start_point=np.array([2.0])
        )
        with pytest.raises(ValueError, match="outside the feasible set"):
            run_zo_psgd(infeasible, RunConfig(T=1, batch=1))

    def test_box_run_stays_feasible_all_algorithms(self):
        fs = FeasibleSet.box(np.full(3, -0.5), np.full(3, 0.5))
        prob = quadratic_problem([2.0, -2.0, 2.0], noise=0.2)
        prob = Problem(
            dimension=3,
            oracle=prob.oracle,
            exact_gradient=prob.exact_gradient,
            mean_loss=prob.mean_loss,
            num_samples=prob.num_samples,
            regularizer=ElasticNet(0.01, 0.01),
            feasible_set=fs,
        )
        for name, runner in RUNNERS.items():
            trace = runner(prob, RunConfig(T=25, batch=2, eta_base=2.0, seed=3))
            for x in trace.iterates:
                assert fs.contains(x, atol=0.0), name


class TestSolverBehavior:
    def test_psgd_soft_threshold_path(self):
        # Zero oracle, start 2, eta 1, gamma1 1: iterates walk 2 -> 1 -> 0.
        prob = zero_problem(
            d=1, regularizer=ElasticNet(1.0, 0.0), start_point=np.array([2.0])
        )
        trace = run_zo_psgd(prob, RunConfig(T=3, batch=1, eta_base=1.0))
        assert [float(x[0]) for x in trace.iterates] == [2.0, 1.0, 0.0]

    def test_l1_drain_is_monotone_without_signal(self):
        prob = zero_problem(d=4, regularizer=ElasticNet(0.3, 0.0), start_point=np.ones(4))
        for runner in (run_zo_ada_expgrad, run_zo_expstorm, run_zo_psgd):
            trace = runner(prob, RunConfig(T=12, batch=1))
            norms = [float(np.sum(np.abs(x))) for x in trace.iterates]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
            assert norms[-1] < norms[0]

    def test_adaptive_runs_descend_on_convex_quadratic(self):
        prob = quadratic_problem([1.0, -1.0], noise=0.1)
        cfg = RunConfig(T=200, batch=16, eta_base=1.0, seed=0)
        for runner in (run_zo_ada_expgrad, run_zo_ada_expgrad_plus):
            trace = runner(prob, cfg)
            first = trace.records[0].stationarity_sq_l1
            last = trace.records[-1].stationarity_sq_l1
            assert last < first / 10.0

    def test_storm_tracking_is_exact_for_univariate_linear(self):
        # In d=1 every Rademacher probe of a linear loss returns the exact
        # slope, so both the momentum and the raw batch track perfectly.
        prob = Problem(
            dimension=1,
            oracle=lambda x, xi: 3.0 * float(x[0]),
            exact_gradient=lambda x: np.array([3.0]),
            mean_loss=lambda x: 3.0 * float(x[0]),
            regularizer=ElasticNet(0.5, 0.0),
        )
        trace = run_zo_expstorm(prob, RunConfig(T=10, batch=2, nu=0.5))
        assert trace.tracking_sq == [0.0] * 10
        assert trace.minibatch_tracking_sq == [0.0] * 10

    def test_storm_first_iteration_tracking_matches_minibatch(self):
        prob = quadratic_problem([1.0, -2.0], noise=0.4)
        trace = run_zo_expstorm(prob, RunConfig(T=5, batch=3, seed=2))
        assert trace.tracking_sq[0] == trace.minibatch_tracking_sq[0]

    def test_storm_momentum_beats_minibatch_late(self):
        prob = make_sparse_regression(
            10, 40, 3, 0.1, "least_squares", seed=0, regularizer=ElasticNet(1e-3, 1e-4)
        )
        cfg = RunConfig(T=150, batch=8, eta_base=2.0, seed=0)
        trace = run_zo_expstorm(prob, cfg)
        q = 150 - 150 // 4
        storm_err = float(np.mean(trace.tracking_sq[q:]))
        plain_err = float(np.mean(trace.minibatch_tracking_sq[q:]))
        assert storm_err < plain_err

    # The fixture's mean loss may overflow on the way to the prox's guard.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_unboxed_quadratic_stays_finite_or_raises(self):
        # Unboxed, eta=1 lets the entropy prox reach its overflow guard on
        # some seeds.  A run there must raise NumericError; every run that
        # returns has finite objectives and iterates.
        prob = quadratic_problem([1.0, 2.0], noise=0.2)
        for name, runner in RUNNERS.items():
            for seed in range(200):
                try:
                    trace = runner(prob, RunConfig(T=13, batch=2, seed=seed))
                except NumericError:
                    continue
                assert all(math.isfinite(r.objective) for r in trace.records), (name, seed)
                assert all(np.all(np.isfinite(x)) for x in trace.iterates), (name, seed)

    def test_nonfinite_mean_loss_raises_with_iteration(self):
        values = iter([1.0, math.inf, 1.0])
        prob = zero_problem(d=2, mean_loss=lambda x: next(values))
        with pytest.raises(NumericError, match="mean_loss .* iteration 2$"):
            run_zo_ada_expgrad(prob, RunConfig(T=3, batch=1))

    @pytest.mark.parametrize("tag", ["zo-ada-expgrad", "zo-expstorm"])
    def test_nonfinite_exact_gradient_raises_with_iteration(self, tag):
        # Unchecked, the NaN would reach stationarity_sq_l1 and, for the
        # momentum solver, tracking_sq.
        calls = iter(range(1, 100))

        def grad(x):
            return np.array([0.0, math.nan]) if next(calls) == 3 else np.zeros(2)

        prob = zero_problem(d=2, exact_gradient=grad)
        with pytest.raises(NumericError, match="exact_gradient .* iteration 3$"):
            RUNNERS[tag](prob, RunConfig(T=4, batch=1))

    # The fixture's mean loss may overflow on the way to the prox's guard.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "exact_gradient, seed, layer",
        [(True, 1, "gradient map"), (False, 5, "step")],
        ids=["gradient-map", "step"],
    )
    def test_prox_overflow_names_iteration_and_layer(self, exact_gradient, seed, layer):
        # Unboxed at eta=1 the dual point passes the prox's guard at x_4:
        # first in the gradient map, or in the step when no exact gradient
        # asks for a gradient map.
        prob = quadratic_problem([1.0, 2.0], noise=0.2)
        if not exact_gradient:
            prob = dataclasses.replace(prob, exact_gradient=None)
        with pytest.raises(NumericError) as info:
            run_zo_ada_expgrad_plus(prob, RunConfig(T=13, batch=2, eta_base=1.0, seed=seed))
        assert str(info.value) == f"prox overflow: dual point too large at iteration 4 in {layer}"
        assert str(info.value.__cause__) == "prox overflow: dual point too large"

    @pytest.mark.parametrize("tag", ["zo-ada-expgrad", "zo-expstorm"])
    def test_nonfinite_oracle_names_iteration_and_layer(self, tag):
        # The estimator makes 2 calls per iteration at m=1 (4 when paired);
        # call 3 is the first of iteration 2 either way.
        calls = iter(range(1, 100))
        prob = Problem(
            dimension=2,
            oracle=lambda x, xi: math.inf if next(calls) == 3 else 0.0,
            mean_loss=lambda x: 0.0,
        )
        with pytest.raises(NumericError, match=r"^oracle .* xi=\d+ at iteration 2 in estimator$"):
            RUNNERS[tag](prob, RunConfig(T=4, batch=1))

    def test_nonfinite_oracle_objective_names_iteration(self):
        # Without mean_loss the objective averages the oracle itself.
        calls = iter(range(1, 100))
        prob = zero_problem(d=2)
        prob = dataclasses.replace(prob, oracle=lambda x, xi: math.inf if next(calls) == 4 else 0.0)
        # Iteration 1 makes one objective call and two estimator calls.
        with pytest.raises(NumericError, match=r"^oracle .* xi=0 at iteration 2 in objective$"):
            run_zo_psgd(prob, RunConfig(T=3, batch=1))


class TestOutputSampling:
    def test_single_iteration_always_returns_start(self):
        prob = zero_problem(d=2, start_point=np.array([0.5, -0.5]))
        for seed in range(5):
            trace = run_zo_psgd(prob, RunConfig(T=1, batch=1, seed=seed))
            assert trace.sampled_index == 1
            assert trace.sampled_point.tolist() == [0.5, -0.5]

    def test_deterministic_under_fixed_stream(self):
        # x_tau is drawn from the run's own (seed, "tau") stream, so a fixed
        # seed fixes both the index and the point.
        prob = quadratic_problem([1.0], box=3.0)
        for seed in range(3):
            a = run_zo_ada_expgrad(prob, RunConfig(T=9, batch=1, seed=seed))
            b = run_zo_ada_expgrad(prob, RunConfig(T=9, batch=1, seed=seed))
            assert a.sampled_index == b.sampled_index == 1 + int(rng.stream(seed, "tau").integers(9))
            assert np.array_equal(a.sampled_point, b.sampled_point)

    def test_index_distribution_is_uniform(self):
        # Each run draws its output index in-loop from its own seed, so
        # uniformity shows across seeds.
        prob = zero_problem()
        counts = np.zeros(4)
        n = 4000
        for seed in range(n):
            trace = run_zo_psgd(prob, RunConfig(T=4, batch=1, seed=seed))
            counts[trace.sampled_index - 1] += 1
        assert np.all(counts / n >= 0.225)
        assert np.all(counts / n <= 0.275)

    def test_trace_sampled_point_matches_iterates(self):
        prob = quadratic_problem([1.0, 2.0], noise=0.2, box=3.0)
        trace = run_zo_ada_expgrad_plus(prob, RunConfig(T=13, batch=2, seed=5))
        assert 1 <= trace.sampled_index <= 13
        assert np.array_equal(trace.sampled_point, trace.iterates[trace.sampled_index - 1])

    def test_large_run_drops_iterates_and_replays(self):
        # 16001 * 250 floats exceed the retention limit, so the trace keeps
        # no iterate list; x_tau is still captured in-loop.
        d, T = 16001, 250
        prob = zero_problem(d=d, regularizer=ElasticNet(0.05, 0.0), start_point=np.ones(d))
        trace = run_zo_psgd(prob, RunConfig(T=T, batch=1))
        assert trace.iterates is None
        assert 1 <= trace.sampled_index <= T
        assert trace.sampled_point.shape == (d,)
