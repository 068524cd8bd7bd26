"""Solver loops: stepsize recursions, momentum, drivers, output sampling."""

import dataclasses
import math
import time

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
    default_smoothing,
    elastic_net_value,
    gradient_map,
    make_sparse_regression,
    minibatch_gradient,
    prox_composite,
    run_zo_ada_expgrad,
    run_zo_ada_expgrad_plus,
    run_zo_expstorm,
    run_zo_psgd,
    storm_momentum_update,
    storm_schedule,
)
from zomirror import rng, solvers
from zomirror.problems import sparse_regression_design
from zomirror.solvers import ALGORITHM_TABLE, stepsize_update

from oracles import gradient_reference, mean_loss_reference

FREE = FeasibleSet.unconstrained()

RUNNERS = {
    "zo-ada-expgrad": run_zo_ada_expgrad,
    "zo-ada-expgrad-plus": run_zo_ada_expgrad_plus,
    "zo-expstorm": run_zo_expstorm,
    "zo-psgd": run_zo_psgd,
}

MD_RULE = ALGORITHM_TABLE["zo-ada-expgrad"].alpha_rules["adaptive"]


def zero_problem(d=1, **kw):
    kw.setdefault("regularizer", ElasticNet())
    return Problem(dimension=d, oracle=lambda x, xi: 0.0, **kw)


def draining_problem(**kw):
    """A zero oracle whose l1 term drains the iterates from (1, 2) toward 0,
    so that each of the first iterates differs from the others."""
    return zero_problem(d=2, regularizer=ElasticNet(0.3, 0.0), start_point=np.array([1.0, 2.0]), **kw)


def fails_at(point, bad, good):
    """An evaluation hook on a stack of points: ``bad`` at rows equal to
    ``point`` and ``good`` at the others, one value or vector per row."""
    bad, good = np.asarray(bad, dtype=float), np.asarray(good, dtype=float)

    def hook(X):
        hit = np.all(X == point, axis=1).reshape((-1,) + (1,) * good.ndim)
        return np.where(hit, bad, good)

    return hook


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
    spread = 0.5 * float(np.mean(np.sum(offsets * offsets, axis=1)))

    def oracle(x, xi):
        r = x - c - offsets[xi % n]
        return 0.5 * float(r @ r)

    fs = FREE if box is None else FeasibleSet.box(np.full(d, -box), np.full(d, box))
    return Problem(
        dimension=d,
        oracle=oracle,
        exact_gradient=lambda x: x - c,
        mean_loss=lambda X: 0.5 * np.sum(np.square(X - c), axis=1) + spread,
        num_samples=n,
        feasible_set=fs,
    )


def take_step(tag, d_t, x=None, eta=1.0, alpha=1.0, accum=0.0, variant="adaptive", t=1, m=1, fs=None):
    """One step of the tag's table entry from x (the origin by default);
    returns (x_next, alpha_next, accum)."""
    algo = ALGORITHM_TABLE[tag]
    d_t = np.asarray(d_t, dtype=float)
    x = np.zeros(d_t.size) if x is None else np.asarray(x, dtype=float)
    problem = zero_problem(d=d_t.size, feasible_set=fs or FREE)
    geo = MirrorGeometry(d_t.size)
    return algo.step(problem, geo, x, d_t, eta, alpha, accum, algo.alpha_rules[variant], t, m)


class TestStepsizeState:
    def test_current_eta(self):
        # eta_t = eta_base * alpha_t on every record, while alpha grows.
        prob = quadratic_problem([1.0, -1.0], box=2.0)
        trace = run_zo_ada_expgrad(prob, RunConfig(T=8, batch=2, eta_base=2.0))
        assert all(r.eta == 2.0 * r.alpha for r in trace.records)
        assert trace.records[-1].alpha > 1.0


class TestRunConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"T": 0, "batch": 1},
            {"T": 1, "batch": 0},
            {"T": 1, "batch": 1, "eta_base": 0.0},
            {"T": 1, "batch": 1, "nu": -0.1},
            {"T": 1, "batch": 1, "stationarity_eval_period": 0},
            {"T": 1, "batch": 1, "eta_base": math.nan},
            {"T": 1, "batch": 1, "nu": math.nan},
            {"T": 1, "batch": 1, "eta_base": math.inf},
            {"T": 1, "batch": 1, "nu": math.inf},
            {"T": 1, "batch": 1, "algorithm": "zo-expstorm", "stepsize_variant": "constant"},
            {"T": 1, "batch": 1, "algorithm": ["zo-psgd"]},
            {"T": 1, "batch": 1, "algorithm": ""},
            {"T": 1, "batch": 1, "algorithm": "zo-psgd", "stepsize_variant": ["constant"]},
            {"T": 2.5, "batch": 1},
            {"T": 1, "batch": 1.5},
            {"T": 4, "batch": 1, "stationarity_eval_period": 1.5},
            {"T": True, "batch": 1},
            {"T": 1, "batch": 1, "seed": 1.5},
            {"T": 1, "batch": 1, "seed": True},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)

    @pytest.mark.parametrize("tag", ALGORITHM_TABLE)
    def test_every_row_takes_the_default_word(self, tag):
        # "adaptive" is RunConfig's default, so every row must hold it; None
        # is no word, and fails as a word missing from the row does.
        assert "adaptive" in ALGORITHM_TABLE[tag].alpha_rules
        assert RunConfig(T=1, batch=1, algorithm=tag).stepsize_variant == "adaptive"
        with pytest.raises(ValueError, match=f"^tag {tag!r} has no None-stepsize variant$"):
            RunConfig(T=1, batch=1, algorithm=tag, stepsize_variant=None)
        with pytest.raises(ValueError, match=f"^tag {tag!r} has no None-stepsize variant$"):
            RUNNERS[tag](zero_problem(), RunConfig(T=1, batch=1, stepsize_variant=None))

    def test_trace_bound_on_T(self):
        # 392 bytes a record: 10,956,549 iterations fit in 4 GiB, one more does not.
        assert RunConfig(T=10_956_549, batch=1).T == 10_956_549
        with pytest.raises(ValueError, match=r"^T = 10956550 keeps 4,294,967,600 bytes of trace records, "):
            RunConfig(T=10_956_550, batch=1)

    def test_run_rejects_T_before_any_oracle_call(self):
        calls = []
        problem = Problem(dimension=10, oracle=lambda x, xi: calls.append(xi) or 0.0)
        with pytest.raises(ValueError, match=r"^T = 1000000000000 keeps 392,000,000,000,000 bytes "):
            run_zo_ada_expgrad(problem, RunConfig(T=10**12, batch=8))
        assert calls == []

    def test_numpy_integers_accepted(self):
        cfg = RunConfig(T=np.int64(3), batch=np.int32(2), stationarity_eval_period=np.uint8(2))
        assert run_zo_psgd(zero_problem(), cfg).records[-1].iteration == 3

    def test_variant_rejection_per_algorithm(self):
        # Only "adaptive" and "constant" name stepsize rules, and only
        # zo-ada-expgrad and zo-psgd have a "constant" one.
        prob = zero_problem()
        bad = [(runner, word) for runner in RUNNERS.values() for word in ("adaptive_md", "adaptive_fw", "storm")]
        bad += [(run_zo_ada_expgrad_plus, "constant"), (run_zo_expstorm, "constant")]
        for runner, variant in bad:
            cfg = RunConfig(T=1, batch=1, stepsize_variant=variant)
            with pytest.raises(ValueError, match=f"has no {variant}-stepsize variant"):
                runner(prob, cfg)

    def test_explicit_default_variants_accepted(self):
        prob = zero_problem()
        ok = [(runner, "adaptive") for runner in RUNNERS.values()]
        ok += [(run_zo_ada_expgrad, "constant"), (run_zo_psgd, "constant")]
        for runner, variant in ok:
            runner(prob, RunConfig(T=1, batch=1, stepsize_variant=variant))

    def test_algorithm_must_match_the_runner(self):
        prob = zero_problem()
        for name, runner in RUNNERS.items():
            runner(prob, RunConfig(T=1, batch=1, algorithm=name))
            other = next(tag for tag in RUNNERS if tag != name)
            with pytest.raises(ValueError, match=f"names algorithm {other!r}, but this runs {name!r}"):
                runner(prob, RunConfig(T=1, batch=1, algorithm=other))
        with pytest.raises(ValueError, match="unknown algorithm tag 'nonsense'"):
            RunConfig(T=1, batch=1, algorithm="nonsense")


class TestStormSchedule:
    def test_pinned_start(self):
        gamma, beta = storm_schedule(1, 1)
        assert gamma == pytest.approx(0.7729764191286187, rel=1e-13)
        assert beta == 1.0

    def test_exact_rational_point(self):
        # t=7, m=1: tau = 8^(2/3) = 4, gamma = 0.4, beta = 1.5.
        gamma, beta = storm_schedule(7, 1)
        assert gamma == pytest.approx(0.4, rel=1e-14)
        assert beta == pytest.approx(1.5, rel=1e-14)

    def test_monotone_over_long_horizon(self):
        m = 16
        prev = storm_schedule(1, m)
        for t in range(2, 10_001, 7):
            cur = storm_schedule(t, m)
            assert cur[0] < prev[0]
            assert cur[1] >= prev[1]
            prev = cur
        assert storm_schedule(10_000, m)[0] < 0.03

    def test_gamma_stays_in_unit_interval(self):
        for t in (1, 2, 10, 1000):
            for m in (1, 8, 256):
                gamma = storm_schedule(t, m)[0]
                assert 0.0 < gamma < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            storm_schedule(0, 1)
        with pytest.raises(ValueError):
            storm_schedule(1, 0)

    @pytest.mark.parametrize("t, m", [(1.5, 1), (1, True), (math.nan, 1), (1.5, True)])
    def test_counts_must_be_integers(self, t, m):
        with pytest.raises(ValueError, match="must be a positive integer"):
            storm_schedule(t, m)


class TestStormMomentum:
    def test_hand_update(self):
        d_t = storm_momentum_update(np.array([1.0, 0.0]), np.array([2.0, 2.0]), np.array([0.0, 1.0]), 0.5)
        assert d_t.tolist() == [2.5, 1.5]

    def test_gamma_one_forgets_history(self):
        d_t = storm_momentum_update(np.array([50.0]), np.array([3.0]), np.array([-1.0]), 1.0)
        assert d_t.tolist() == [3.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            storm_momentum_update(np.zeros(2), np.zeros(2), np.zeros(3), 0.5)


class TestAdaptiveMdUpdate:
    def test_zero_move_square_root_rule(self):
        # With accum pre-loaded to 9 the next alpha is sqrt(9 + 1).
        alpha, accum = stepsize_update(np.zeros(2), np.zeros(2), 1.0, 9.0, MD_RULE, 1, 1)
        assert alpha == pytest.approx(math.sqrt(10.0), abs=1e-15)

    def test_unit_move_from_origin(self):
        alpha, accum = stepsize_update(np.array([0.0]), np.array([1.0]), 1.0, 0.0, MD_RULE, 1, 1)
        assert accum == pytest.approx(0.25, abs=1e-16)
        assert alpha == pytest.approx(math.sqrt(1.25), abs=1e-15)

    def test_alpha_never_decreases_on_random_walk(self):
        alpha, accum = 1.0, 0.0
        stream = rng.stream("test-md-up", 0)
        x = np.zeros(4)
        for t in range(1, 201):
            nxt = x + stream.uniform(-1, 1, 4)
            prev_alpha = alpha
            alpha, accum = stepsize_update(x, nxt, alpha, accum, MD_RULE, t, 1)
            assert alpha >= prev_alpha
            x = nxt

    def test_guard_fires_on_corrupted_state(self):
        with pytest.raises(RuntimeError, match="alpha decreased"):
            stepsize_update(np.zeros(1), np.zeros(1), 5.0, 0.0, MD_RULE, 1, 1)


class TestScmdStep:
    def test_unit_mirror_move(self):
        x_next, _, _ = take_step("zo-ada-expgrad", [-math.log(2.0)])
        assert x_next[0] == pytest.approx(1.0, abs=1e-15)

    def test_joint_scaling_invariance(self):
        # Without an l1/l2 term the prox depends on g/eta only.
        stream = rng.stream("test-scmd", 0)
        for _ in range(20):
            x = stream.uniform(-1, 1, 3)
            g = stream.standard_normal(3)
            a = take_step("zo-ada-expgrad", g, x=x, eta=1.0, variant="constant")[0]
            b = take_step("zo-ada-expgrad", 4.0 * g, x=x, eta=4.0, variant="constant")[0]
            assert np.allclose(a, b, atol=1e-12)


class TestFwCombinedStep:
    def test_hand_example_full_step(self):
        # From the origin with accum 0 the new alpha clamps to 1, so the
        # combination lands exactly on the prox target.
        d_t = np.array([-math.log(2.0)])
        v = prox_composite(MirrorGeometry(1), np.zeros(1), d_t, 1.0, ElasticNet(), FREE)
        x_next, alpha, accum = take_step("zo-ada-expgrad-plus", d_t)
        assert v[0] == pytest.approx(1.0, abs=1e-15)
        assert x_next[0] == pytest.approx(1.0, abs=1e-15)
        assert alpha == 1.0
        assert accum == pytest.approx(0.25, abs=1e-16)

    def test_partial_step_when_accum_grows(self):
        x_next, alpha, _ = take_step("zo-ada-expgrad-plus", [-math.log(2.0)], accum=8.75)
        # accum gains 0.25 -> alpha_next = 3, ratio = 1/3.
        assert alpha == pytest.approx(3.0, rel=1e-15)
        assert x_next[0] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_storm_variant_uses_beta_schedule(self):
        x_next, alpha, _ = take_step("zo-expstorm", [-math.log(2.0)], t=9, m=1)
        beta_next = storm_schedule(10, 1)[1]
        alpha_next = math.sqrt(beta_next * 1.25)
        assert alpha == pytest.approx(alpha_next, rel=1e-14)
        assert x_next[0] == pytest.approx(1.0 / alpha_next, rel=1e-13)

    def test_guard_fires_on_corrupted_state(self):
        with pytest.raises(RuntimeError, match="alpha decreased"):
            take_step("zo-ada-expgrad-plus", [0.0], alpha=5.0)

    def test_box_feasibility_preserved(self):
        fs = FeasibleSet.box([0.0], [0.25])
        x_next, _, _ = take_step("zo-ada-expgrad-plus", [-3.0], x=[0.1], fs=fs)
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
            mean_loss=lambda X: np.full(len(X), 7.0),
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
        # at x_t; all 50 iterates fit one evaluation block at d = 10, so
        # the same stack gives the same gradient bytes.
        base = make_sparse_regression(
            10, 40, 3, 0.1, "least_squares", seed=0, regularizer=ElasticNet(1e-3, 1e-4)
        )
        rows = {"mean_loss": [], "exact_gradient": []}

        def counted(name):
            def hook(X):
                rows[name].extend(map(bytes, X))
                return getattr(base, name)(X)

            return hook

        prob = dataclasses.replace(base, mean_loss=counted("mean_loss"), exact_gradient=counted("exact_gradient"))
        T, m = 50, 4
        cfg = RunConfig(T=T, batch=m, eta_base=2.0, seed=3, stationarity_eval_period=1)
        trace = run_zo_expstorm(prob, cfg)
        want = [x.tobytes() for x in trace.iterates]
        assert rows == {"mean_loss": want, "exact_gradient": want}
        plain = run_zo_expstorm(base, cfg)

        def untimed(tr):
            return [dataclasses.replace(r, wall_ms=0.0) for r in tr.records]

        assert untimed(trace) == untimed(plain)
        assert trace.tracking_sq == plain.tracking_sq
        est_cfg = EstimatorConfig(nu=default_smoothing(10, T, "storm"), batch=m)
        grads = base.exact_gradient(np.array(trace.iterates))
        for t, x_t in enumerate(trace.iterates, start=1):
            g = minibatch_gradient(base, x_t, est_cfg, (cfg.seed, t)).vector
            want = float(np.max(np.abs(g - grads[t - 1]))) ** 2
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
            exact_gradient=lambda X: np.full_like(X, 3.0),
            mean_loss=lambda X: 3.0 * X[:, 0],
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
        cfg = RunConfig(T=3, batch=1)
        x_2 = run_zo_ada_expgrad(draining_problem(), cfg).iterates[1]
        prob = draining_problem(mean_loss=fails_at(x_2, math.inf, 1.0))
        with pytest.raises(NumericError, match="mean_loss .* iteration 2 in objective$"):
            run_zo_ada_expgrad(prob, cfg)

    @pytest.mark.parametrize("tag", ["zo-ada-expgrad", "zo-expstorm"])
    def test_nonfinite_exact_gradient_raises_with_iteration(self, tag):
        # Unchecked, the NaN would reach stationarity_sq_l1 and, for the
        # momentum solver, tracking_sq.
        cfg = RunConfig(T=4, batch=1)
        x_3 = RUNNERS[tag](draining_problem(), cfg).iterates[2]
        prob = draining_problem(exact_gradient=fails_at(x_3, [0.0, math.nan], [0.0, 0.0]))
        with pytest.raises(NumericError, match="exact_gradient .* iteration 3 in exact gradient$"):
            RUNNERS[tag](prob, cfg)

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
        assert (info.value.iteration, info.value.layer) == (4, layer)
        assert (info.value.__cause__.iteration, info.value.__cause__.layer) == (None, None)

    @pytest.mark.parametrize("tag", ["zo-ada-expgrad", "zo-expstorm"])
    def test_nonfinite_oracle_names_iteration_and_layer(self, tag):
        # The estimator makes 2 calls per iteration at m=1 (4 when paired);
        # call 3 is the first of iteration 2 either way.
        calls = iter(range(1, 100))
        prob = Problem(
            dimension=2,
            oracle=lambda x, xi: math.inf if next(calls) == 3 else 0.0,
            mean_loss=lambda X: np.zeros(len(X)),
        )
        with pytest.raises(NumericError, match=r"^oracle .* xi=\d+ at iteration 2 in estimator$") as info:
            RUNNERS[tag](prob, RunConfig(T=4, batch=1))
        assert (info.value.iteration, info.value.layer) == (2, "estimator")

    @pytest.mark.parametrize("boxed", [False, True], ids=["free", "box"])
    def test_overflowing_estimate_raises_in_estimator(self, boxed):
        # coef = 1e300/1e-20 overflows and the row sums make NaN.  Unchecked,
        # the free run finished at [-inf nan nan nan] and the boxed run
        # failed its feasibility invariant.
        fs = FeasibleSet.box(-np.ones(4), np.ones(4)) if boxed else FREE
        prob = Problem(dimension=4, oracle=lambda x, xi: 1e300 if x[0] > 0 else 0.0, feasible_set=fs)
        with pytest.raises(NumericError, match=r"^batch estimate .* at iteration 1 in estimator$") as info:
            run_zo_psgd(prob, RunConfig(T=3, batch=8, nu=1e-20))
        assert (info.value.iteration, info.value.layer) == (1, "estimator")

    def test_nonfinite_oracle_objective_names_iteration(self):
        # Without mean_loss the objective averages the oracle itself.  The
        # oracle fails at x_2, which the estimator of iteration 2 also
        # asks for (its base point); the objective at x_2 comes first.
        cfg = RunConfig(T=3, batch=1)
        x_2 = run_zo_psgd(draining_problem(), cfg).iterates[1]
        prob = dataclasses.replace(
            draining_problem(), oracle=lambda x, xi: math.inf if np.array_equal(x, x_2) else 0.0
        )
        with pytest.raises(NumericError, match=r"^oracle .* xi=0 at iteration 2 in objective$"):
            run_zo_psgd(prob, cfg)

    @pytest.mark.parametrize("tag", list(RUNNERS))
    @pytest.mark.parametrize(
        "regularizer, what, layer",
        [(ElasticNet(0.0, 1.0), "objective", "objective"), (ElasticNet(1.0, 0.0), "stationarity", "gradient map")],
        ids=["objective", "stationarity"],
    )
    def test_overflowing_evaluation_names_iteration_and_layer(self, tag, regularizer, what, layer):
        # At x_1 = 1e200 the l2 term overflows the objective; the l1 term
        # keeps it finite at 3e200, but the squared l1 norm of the gradient
        # map overflows.  Unchecked, those columns would hold inf.
        prob = zero_problem(
            d=3,
            regularizer=regularizer,
            start_point=np.full(3, 1e200),
            mean_loss=lambda X: np.zeros(len(X)),
            exact_gradient=np.zeros_like,
        )
        with pytest.raises(NumericError) as info:
            RUNNERS[tag](prob, RunConfig(T=3, batch=2))
        assert str(info.value) == f"{what} is not finite at iteration 1 in {layer}"
        assert (info.value.iteration, info.value.layer) == (1, layer)

    def test_overflowing_tracking_error_names_iteration_and_layer(self):
        # An exact gradient of (1e160, 0) at x_2 puts both tracking errors
        # near 1e160, whose squares pass the float range; x_2's gradient map
        # is not due, so only the tracking sees it.  Unchecked, squaring the
        # Python float raised a bare OverflowError.
        cfg = RunConfig(T=3, batch=1, stationarity_eval_period=5)
        x_2 = run_zo_expstorm(draining_problem(), cfg).iterates[1]
        prob = draining_problem(exact_gradient=fails_at(x_2, [1e160, 0.0], [0.0, 0.0]))
        with pytest.raises(NumericError) as info:
            run_zo_expstorm(prob, cfg)
        assert str(info.value) == "tracking error is not finite at iteration 2 in tracking"
        assert (info.value.iteration, info.value.layer) == (2, "tracking")

    def test_large_finite_tracking_error_is_kept(self):
        # An error of 1e150 squares to 1e300, inside the float range.
        cfg = RunConfig(T=3, batch=1, stationarity_eval_period=5)
        x_2 = run_zo_expstorm(draining_problem(), cfg).iterates[1]
        prob = draining_problem(exact_gradient=fails_at(x_2, [1e150, 0.0], [0.0, 0.0]))
        trace = run_zo_expstorm(prob, cfg)
        assert trace.tracking_sq[1] == trace.minibatch_tracking_sq[1] == pytest.approx(1e300, rel=1e-12)

    def test_overflowing_stationarity_names_a_later_iterate(self):
        # A finite exact gradient of -500 at x_2 sends the gradient map's
        # prox point to about 1e210, and its squared l1 norm overflows; the
        # block's other iterates evaluate to finite values.
        cfg = RunConfig(T=3, batch=1)
        x_2 = run_zo_ada_expgrad(draining_problem(), cfg).iterates[1]
        prob = draining_problem(
            mean_loss=lambda X: np.zeros(len(X)), exact_gradient=fails_at(x_2, [-500.0, 0.0], [0.0, 0.0])
        )
        with pytest.raises(NumericError, match="^stationarity is not finite at iteration 2 in gradient map$"):
            run_zo_ada_expgrad(prob, cfg)


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


class TestBlockEvaluation:
    """Iterates are evaluated in blocks of at most 65,536 floats, 32 rows at
    d = 2000, with one mean_loss and one exact_gradient call per block and
    one gradient_map call per chunk of at most 8,192 floats of its due rows."""

    @staticmethod
    def spied(problem, seen):
        """The problem with hooks that log (hook name, stack rows as bytes)."""

        def spy(name, hook):
            def spied_hook(X):
                seen.append((name, [row.tobytes() for row in X]))
                return hook(X)

            return spied_hook

        return dataclasses.replace(
            problem,
            mean_loss=spy("mean_loss", problem.mean_loss),
            exact_gradient=spy("exact_gradient", problem.exact_gradient),
        )

    @pytest.mark.parametrize("kind", ["least_squares", "robust_nonconvex"])
    def test_trace_values_match_numpy_references(self, kind):
        # T = 40 at d = 2000 is one full block of 32 and a partial one of 8.
        design = sparse_regression_design(2000, 400, 20, 0.1, kind, seed=1)
        reg = ElasticNet(0.02, 1e-4)
        prob = dataclasses.replace(design.to_problem(reg), start_point=np.full(2000, 0.02))
        A, b, geo = design.matrix, design.targets, MirrorGeometry(2000)
        for runner, eta in ((run_zo_ada_expgrad, 0.2), (run_zo_expstorm, 1.0)):
            cfg = RunConfig(T=40, batch=16, eta_base=eta, seed=2)
            trace = runner(prob, cfg)
            nu = default_smoothing(2000, 40, "storm" if runner is run_zo_expstorm else "minibatch")
            for t, (record, x) in enumerate(zip(trace.records, trace.iterates), start=1):
                grad = gradient_reference(A, b, kind, x)
                objective = mean_loss_reference(A, b, kind, x) + elastic_net_value(reg, x)
                stationarity = gradient_map(x, grad, record.eta, geo, reg, FREE).sq_l1_norm
                assert record.objective == pytest.approx(objective, rel=1e-12, abs=0.0)
                assert record.stationarity_sq_l1 == pytest.approx(stationarity, rel=1e-12, abs=0.0)
                if runner is run_zo_expstorm:
                    g = minibatch_gradient(prob, x, EstimatorConfig(nu=nu, batch=16), (cfg.seed, t)).vector
                    tracked = float(np.max(np.abs(g - grad))) ** 2
                    assert trace.minibatch_tracking_sq[t - 1] == pytest.approx(tracked, rel=1e-12, abs=0.0)

    def test_blocks_cover_each_iterate_once_in_order(self):
        design = sparse_regression_design(2000, 50, 5, 0.1, "least_squares", seed=2)
        seen = []
        prob = self.spied(design.to_problem(ElasticNet(0.01, 0.0)), seen)
        trace = run_zo_psgd(prob, RunConfig(T=70, batch=1, eta_base=7.0))
        want = [x.tobytes() for x in trace.iterates]
        blocks = [want[0:32], want[32:64], want[64:70]]
        assert seen == [(name, rows) for rows in blocks for name in ("mean_loss", "exact_gradient")]

    def test_exact_gradient_sees_only_the_iterates_its_period_selects(self):
        # Period 3 over blocks of 32 rows: x_1, x_4, ..., x_70, in three calls.
        design = sparse_regression_design(2000, 50, 5, 0.1, "least_squares", seed=2)
        seen = []
        prob = self.spied(design.to_problem(ElasticNet(0.01, 0.0)), seen)
        trace = run_zo_psgd(prob, RunConfig(T=70, batch=1, eta_base=7.0, stationarity_eval_period=3))
        grads = [rows for name, rows in seen if name == "exact_gradient"]
        assert [len(rows) for rows in grads] == [11, 11, 2]
        assert sum(grads, []) == [x.tobytes() for x in trace.iterates[::3]]
        have = [r.iteration for r in trace.records if r.stationarity_sq_l1 is not None]
        assert have == list(range(1, 71, 3))

    @pytest.mark.parametrize("layer", ["objective", "exact gradient"])
    def test_evaluation_error_wins_over_a_later_estimator_error(self, layer):
        # The evaluation fails at x_2 and the estimator at iteration 3, in
        # the same block: evaluating x_2 came first, so its error is raised.
        cfg = RunConfig(T=5, batch=1)
        x_2, x_3 = run_zo_ada_expgrad(draining_problem(), cfg).iterates[1:3]
        hooks = {
            "objective": {"mean_loss": fails_at(x_2, math.inf, 1.0)},
            "exact gradient": {"exact_gradient": fails_at(x_2, [math.nan, 0.0], [0.0, 0.0])},
        }[layer]
        prob = draining_problem(**hooks)
        prob = dataclasses.replace(prob, oracle=lambda x, xi: math.inf if np.array_equal(x, x_3) else 0.0)
        with pytest.raises(NumericError) as info:
            run_zo_ada_expgrad(prob, cfg)
        assert (info.value.iteration, info.value.layer) == (2, layer)
        assert str(info.value).endswith(f"at iteration 2 in {layer}")

    def test_other_estimator_errors_propagate_unchanged(self):
        # Only a NumericError gains an iteration and a layer: an oracle's
        # KeyError at iteration 3 comes out as it was raised, after the
        # block's evaluation, whose own error at x_2 still wins.
        cfg = RunConfig(T=5, batch=1)
        x_2, x_3 = run_zo_ada_expgrad(draining_problem(), cfg).iterates[1:3]
        missing = KeyError("no row for this sample")

        def oracle(x, xi):
            if np.array_equal(x, x_3):
                raise missing
            return 0.0

        prob = dataclasses.replace(draining_problem(mean_loss=lambda X: np.zeros(len(X))), oracle=oracle)
        with pytest.raises(KeyError) as info:
            run_zo_ada_expgrad(prob, cfg)
        assert info.value is missing
        assert info.value.__cause__ is None
        assert not hasattr(info.value, "iteration") and not hasattr(info.value, "layer")
        prob = dataclasses.replace(prob, mean_loss=fails_at(x_2, math.inf, 0.0))
        with pytest.raises(NumericError, match="^mean_loss returned a non-finite value at iteration 2 in objective$"):
            run_zo_ada_expgrad(prob, cfg)

    def test_estimator_error_follows_a_clean_evaluation_of_its_block(self):
        cfg = RunConfig(T=5, batch=1)
        x_3 = run_zo_ada_expgrad(draining_problem(), cfg).iterates[2]
        seen = []
        prob = draining_problem(mean_loss=lambda X: np.zeros(len(X)), exact_gradient=np.zeros_like)
        prob = self.spied(prob, seen)
        prob = dataclasses.replace(prob, oracle=lambda x, xi: math.inf if np.array_equal(x, x_3) else 0.0)
        with pytest.raises(NumericError, match=r"^oracle .* at iteration 3 in estimator$"):
            run_zo_ada_expgrad(prob, cfg)
        # x_1..x_3 were evaluated, once, before the error was raised.
        assert [(name, len(rows)) for name, rows in seen] == [("mean_loss", 3), ("exact_gradient", 3)]

    def test_hook_failing_on_the_stack_is_traced_to_its_row(self):
        # mean_loss raises on any stack that holds x_3, but the exact
        # gradient is NaN at x_2: row by row, x_2's gradient fails first.
        cfg = RunConfig(T=4, batch=1)
        x_2, x_3 = run_zo_ada_expgrad(draining_problem(), cfg).iterates[1:3]

        def mean_loss(X):
            if np.all(X == x_3, axis=1).any():
                raise NumericError("mean_loss refused the stack")
            return np.zeros(len(X))

        prob = draining_problem(mean_loss=mean_loss, exact_gradient=fails_at(x_2, [0.0, math.nan], [0.0, 0.0]))
        with pytest.raises(NumericError, match="^exact_gradient .* at iteration 2 in exact gradient$"):
            run_zo_ada_expgrad(prob, cfg)
        prob = draining_problem(mean_loss=mean_loss)
        with pytest.raises(NumericError, match="^mean_loss refused the stack at iteration 3 in objective$"):
            run_zo_ada_expgrad(prob, cfg)

    @pytest.mark.parametrize("period", [1, 3])
    @pytest.mark.parametrize("runner", [run_zo_ada_expgrad, run_zo_expstorm], ids=["untracked", "tracked"])
    def test_gradient_map_takes_chunks_of_the_due_rows(self, monkeypatch, runner, period):
        # d = 500: blocks of 131 rows (65,536 floats) and maps over chunks of
        # at most 16 rows (8,192 floats).  T = 140 is a full block and 9 rows.
        design = sparse_regression_design(500, 60, 5, 0.1, "least_squares", seed=3)
        prob = design.to_problem(ElasticNet(0.01, 1e-4))
        calls = []

        def spy(x, g, eta, *args):
            result = gradient_map(x, g, eta, *args)
            calls.append((np.array(x), list(eta), result.sq_l1_norm.tolist()))
            return result

        monkeypatch.setattr(solvers, "gradient_map", spy)
        trace = runner(prob, RunConfig(T=140, batch=1, eta_base=0.5, seed=4, stationarity_eval_period=period))
        assert (trace.tracking_sq is not None) == (runner is run_zo_expstorm)
        due = [[t for t in block if (t - 1) % period == 0] for block in (range(1, 132), range(132, 141))]
        want = [len(rows[i : i + 16]) for rows in due for i in range(0, len(rows), 16)]
        assert [len(x) for x, _, _ in calls] == want
        assert all(x.ndim == 2 and x.size <= 8192 for x, _, _ in calls)
        rows = sum(due, [])
        assert np.array_equal(np.concatenate([x for x, _, _ in calls]), np.array(trace.iterates)[np.array(rows) - 1])
        assert sum((eta for _, eta, _ in calls), []) == [trace.records[t - 1].eta for t in rows]
        maps = sum((sq for _, _, sq in calls), [])
        assert [r.stationarity_sq_l1 for r in trace.records if r.stationarity_sq_l1 is not None] == maps
        assert [r.iteration for r in trace.records if r.stationarity_sq_l1 is not None] == rows

    def test_gradient_map_error_in_a_chunk_names_its_row(self):
        # x_1..x_5 share one chunk; the gradient at x_3 sends its dual point
        # past the prox's guard, so the row-by-row pass names iteration 3.
        cfg = RunConfig(T=5, batch=1)
        x_2, x_3 = run_zo_ada_expgrad(draining_problem(), cfg).iterates[1:3]
        prob = draining_problem(exact_gradient=fails_at(x_3, [1e300, 0.0], [0.0, 0.0]))
        with pytest.raises(NumericError) as info:
            run_zo_ada_expgrad(prob, cfg)
        assert str(info.value) == "prox overflow: dual point too large at iteration 3 in gradient map"
        assert (info.value.iteration, info.value.layer) == (3, "gradient map")
        # An objective error at an earlier row of the same block still wins.
        prob = dataclasses.replace(prob, mean_loss=fails_at(x_2, math.inf, 0.0))
        with pytest.raises(NumericError, match="at iteration 2 in objective$") as info:
            run_zo_ada_expgrad(prob, cfg)
        assert (info.value.iteration, info.value.layer) == (2, "objective")

    @pytest.mark.parametrize("tag", ["zo-ada-expgrad", "zo-ada-expgrad-plus", "zo-expstorm"])
    def test_step_prox_sees_only_single_points(self, monkeypatch, tag):
        # The step's prox takes one point at a time; stacks go to the
        # gradient map's own prox only.
        design = sparse_regression_design(50, 30, 5, 0.1, "least_squares", seed=1)
        prob = design.to_problem(ElasticNet(0.01, 1e-4))
        shapes = []

        def spy(geo, x_t, g, eta, *args):
            shapes.append((np.shape(x_t), np.shape(g), np.ndim(eta)))
            return prox_composite(geo, x_t, g, eta, *args)

        monkeypatch.setattr(solvers, "prox_composite", spy)
        trace = RUNNERS[tag](prob, RunConfig(T=40, batch=2, eta_base=0.5))
        assert all(r.stationarity_sq_l1 is not None for r in trace.records)
        assert set(shapes) == {((50,), (50,), 0)}
        assert len(shapes) == 40

    def test_hooks_must_return_one_value_per_row(self):
        with pytest.raises(ValueError, match="mean_loss must return one loss per row"):
            run_zo_psgd(zero_problem(d=2, mean_loss=lambda X: 0.0), RunConfig(T=3, batch=1))
        with pytest.raises(ValueError, match="exact_gradient must return one gradient per row"):
            run_zo_psgd(zero_problem(d=2, exact_gradient=lambda X: np.zeros(2)), RunConfig(T=3, batch=1))

    def test_wall_ms_shares_the_block_evaluation(self):
        # One block of 4 rows whose mean_loss takes 40 ms: each row carries
        # a quarter of it, and the column sums to no more than the run.
        def slow_mean_loss(X):
            time.sleep(0.04)
            return np.zeros(len(X))

        start = time.perf_counter()
        trace = run_zo_psgd(zero_problem(d=2, mean_loss=slow_mean_loss), RunConfig(T=4, batch=1))
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert all(r.wall_ms >= 10.0 for r in trace.records)
        assert sum(r.wall_ms for r in trace.records) <= elapsed_ms
