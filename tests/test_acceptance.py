"""Acceptance gate: functional tolerances plus desk-scale behavior checks.

Each test prints one "acceptance NN: PASS/FAIL - ..." line so the whole
gate can be read from the -s output at a glance.  The empirical checks
(08, 09, 10) run frozen problem instances with 20 solver seeds each; the
shared fixtures below execute them once per session.
"""

import dataclasses
import filecmp
import math
import os
import time

import numpy as np
import pytest

from zomirror import (
    ElasticNet,
    EstimatorConfig,
    FeasibleSet,
    MirrorGeometry,
    Problem,
    RunConfig,
    bregman,
    inverse_mirror_map,
    lambert_w0,
    make_explanation_problem,
    make_sparse_regression,
    make_tiny_classifier,
    minibatch_gradient,
    mirror_map,
    prox_composite,
    run_zo_ada_expgrad,
    run_zo_ada_expgrad_plus,
    run_zo_expstorm,
    run_zo_psgd,
    two_point_estimate,
)
from zomirror import rng
from zomirror.cli import execute, parse_run_spec

from oracles import all_sign_vectors, decimal_bregman_margin, prox_reference

SEEDS = range(20)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"acceptance {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def expected_calls(algorithm: str, T: int, m: int) -> int:
    if algorithm == "zo-expstorm":
        return 2 * m + 4 * m * (T - 1)
    return 2 * m * T


def run_summary(algorithm: str, runner, problem, cfg: RunConfig) -> dict:
    """Execute one run and keep only scalars needed by the checks."""
    trace = runner(problem, cfg)
    alphas = [r.alpha for r in trace.records]
    # A run that kept no iterates cannot show feasibility, so it fails the check.
    feasible = trace.iterates is not None and all(
        problem.feasible_set.contains(x) for x in trace.iterates
    )
    return {
        "algorithm": algorithm,
        "seed": cfg.seed,
        "stationarity": [r.stationarity_sq_l1 for r in trace.records],
        "final_objective": trace.records[-1].objective,
        "oracle_calls": trace.records[-1].oracle_calls,
        "expected_calls": expected_calls(algorithm, cfg.T, cfg.batch),
        "alpha_monotone": all(b >= a for a, b in zip(alphas, alphas[1:])),
        "feasible": feasible,
        "tracking_sq": trace.tracking_sq,
        "minibatch_tracking_sq": trace.minibatch_tracking_sq,
        "T": cfg.T,
    }


@pytest.fixture(scope="module")
def convergence_runs():
    """08: noiseless planted least squares, d=500, both adaptive loops."""
    problem = make_sparse_regression(
        500, 250, 10, 0.0, "least_squares", seed=0, regularizer=ElasticNet(0.005, 1e-4)
    )
    problem = dataclasses.replace(problem, start_point=0.02 * np.ones(500))
    runs = []
    start = time.perf_counter()
    for algorithm, runner in (
        ("zo-ada-expgrad", run_zo_ada_expgrad),
        ("zo-ada-expgrad-plus", run_zo_ada_expgrad_plus),
    ):
        for seed in SEEDS:
            cfg = RunConfig(T=300, batch=32, eta_base=0.2, seed=seed, algorithm=algorithm)
            runs.append(run_summary(algorithm, runner, problem, cfg))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def geometry_advantage_runs():
    """09: robust nonconvex d=2000, mirror loop vs euclidean baseline.

    Equal oracle budgets; the baseline stepsize 7.0 is the best median
    performer from a sweep of {0.3, 1, 3, 5, 7, 10, 15, 20, 30, 100, 300}
    on this instance, so the comparison favors the baseline as much as a
    constant stepsize can.
    """
    problem = make_sparse_regression(
        2000, 400, 20, 0.1, "robust_nonconvex", seed=0, regularizer=ElasticNet(0.02, 1e-4)
    )
    problem = dataclasses.replace(problem, start_point=0.5 * np.ones(2000))
    runs = []
    start = time.perf_counter()
    for algorithm, runner, eta in (
        ("zo-ada-expgrad", run_zo_ada_expgrad, 0.05),
        ("zo-psgd", run_zo_psgd, 7.0),
    ):
        for seed in SEEDS:
            cfg = RunConfig(T=350, batch=16, eta_base=eta, seed=seed, algorithm=algorithm)
            runs.append(run_summary(algorithm, runner, problem, cfg))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def tracking_runs():
    """10: momentum tracking error vs plain batches on a noisy quadratic."""
    problem = make_sparse_regression(
        10, 40, 3, 0.1, "least_squares", seed=0, regularizer=ElasticNet(1e-3, 1e-4)
    )
    runs = []
    for seed in SEEDS:
        cfg = RunConfig(T=300, batch=8, eta_base=2.0, seed=seed, algorithm="zo-expstorm")
        runs.append(run_summary("zo-expstorm", run_zo_expstorm, problem, cfg))
    return runs


def test_01_prox_matches_reference_search():
    stream = rng.stream("acceptance-prox", 0)
    start = time.perf_counter()
    worst = 0.0
    combos = set()
    for _ in range(1000):
        d = int(stream.integers(1, 9))
        geo = MirrorGeometry(d)
        x = stream.uniform(-2.0, 2.0, d)
        z = stream.uniform(-4.0, 4.0, d)
        eta = float(np.exp(stream.uniform(math.log(0.5), math.log(2.0))))
        gamma1 = 0.0 if stream.integers(0, 3) == 0 else float(stream.uniform(0.0, 1.0))
        gamma2 = 0.0 if stream.integers(0, 2) == 0 else float(stream.uniform(0.0, 1.0))
        lo = hi = None
        feasible = FeasibleSet.unconstrained()
        if stream.integers(0, 2) == 1:
            lo = x - stream.uniform(0.0, 2.0, d)
            hi = x + stream.uniform(0.0, 2.0, d)
            feasible = FeasibleSet.box(lo, hi)
        combos.add((gamma2 > 0.0, lo is not None))
        g = eta * (mirror_map(geo, x) - z)
        result = prox_composite(geo, x, g, eta, ElasticNet(gamma1, gamma2), feasible)
        reference = prox_reference(d, x, g, eta, gamma1, gamma2, lo=lo, hi=hi)
        worst = max(worst, float(np.max(np.abs(result - reference))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and len(combos) == 4 and elapsed < 10.0
    assert report(
        1, ok, f"prox vs golden section, 1000 instances, worst {worst:.3e}, {elapsed:.1f}s"
    )


def test_02_lambert_w_residuals():
    points = [0.0, 1e-8, 1.0, math.e, 10.0, 1e6, 1e100]
    worst_rel = 0.0
    for z in points:
        w = lambert_w0(z)
        worst_rel = max(worst_rel, abs(w * math.exp(w) - z) / max(1.0, z))
    anchors = lambert_w0(0.0) == 0.0 and abs(lambert_w0(math.e) - 1.0) <= 1e-12
    ok = worst_rel <= 1e-12 and anchors
    assert report(2, ok, f"residual over 7 magnitudes, worst {worst_rel:.3e}, anchors hold")


def test_03_mirror_roundtrip():
    worst = 0.0
    for d in (1, 10, 1000):
        geo = MirrorGeometry(d)
        stream = rng.stream("acceptance-roundtrip", d)
        x = stream.uniform(-10.0, 10.0, (10_000, d))
        back = inverse_mirror_map(geo, mirror_map(geo, x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    ok = worst <= 1e-10
    assert report(3, ok, f"inverse of mirror map over 1e4 points x 3 dims, worst {worst:.3e}")


def test_04_bregman_lower_bound():
    violations = 0
    adjudicated = 0
    worst_margin = math.inf
    for d in (1, 5, 100):
        geo = MirrorGeometry(d)
        stream = rng.stream("acceptance-bregman", d)
        for _ in range(10_000):
            x = stream.uniform(-5.0, 5.0, d)
            y = stream.uniform(-5.0, 5.0, d)
            gap = float(np.sum(np.abs(y - x)))
            bound = gap * gap / (2.0 * (max(np.sum(np.abs(x)), np.sum(np.abs(y))) + 1.0))
            margin = bregman(geo, y, x) - bound
            if margin < 0.0:
                # Near-tie pairs cancel catastrophically in binary64; let
                # 50-digit arithmetic decide whether the bound truly fails.
                margin = decimal_bregman_margin(d, y, x)
                adjudicated += 1
            worst_margin = min(worst_margin, margin)
            if margin < 0.0:
                violations += 1
    ok = violations == 0
    assert report(
        4, ok, f"strong-convexity bound, 3e4 pairs, {violations} violations "
        f"({adjudicated} near-tie adjudicated), smallest slack {worst_margin:.3e}"
    )


def test_05_estimator_unbiasedness_by_enumeration():
    worst = 0.0
    for d in (3, 6, 10):
        signs = all_sign_vectors(d)
        stream = rng.stream("acceptance-unbiased", d)
        for _ in range(100):
            a = stream.standard_normal(d)
            prob = Problem(dimension=d, oracle=lambda x, xi, a=a: float(a @ x))
            acc = np.zeros(d)
            for u in signs:
                acc += two_point_estimate(prob, np.zeros(d), u, 1.0, 0)
            acc /= len(signs)
            worst = max(worst, float(np.max(np.abs(acc - a))))
    ok = worst <= 1e-12
    assert report(5, ok, f"enumerated mean equals the gradient, worst gap {worst:.3e}")


def test_06_smoothing_bias_bound():
    worst_ratio = 0.0
    for d in (2, 4, 8):
        stream = rng.stream("acceptance-bias", d)
        base = stream.standard_normal((d, d))
        H = 0.5 * (base + base.T)
        L = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        b = stream.standard_normal(d)
        x = stream.uniform(-1.0, 1.0, d)
        grad = H @ x + b
        prob = Problem(
            dimension=d,
            oracle=lambda p, xi: 0.5 * float(p @ (H @ p)) + float(b @ p),
        )
        signs = all_sign_vectors(d)
        for nu in (1e-1, 1e-3):
            acc = np.zeros(d)
            for u in signs:
                acc += two_point_estimate(prob, x, u, nu, 0)
            acc /= len(signs)
            bias = float(np.max(np.abs(acc - grad)))
            bound = nu * d * L / 2.0
            worst_ratio = max(worst_ratio, bias / bound)
    ok = worst_ratio <= 1.0
    assert report(
        6, ok, f"enumerated smoothing bias within nu*d*L/2, worst ratio {worst_ratio:.3e}"
    )


def test_07_minibatch_variance_decay():
    design = make_sparse_regression(
        6, 30, 2, 0.3, "least_squares", seed=1, regularizer=ElasticNet()
    )
    x = rng.stream("acceptance-var", "x").uniform(-1.0, 1.0, 6)
    center = design.exact_gradient(x)
    nu = 1e-4
    variances = {}
    for m in (1, 8, 16):
        cfg = EstimatorConfig(nu=nu, batch=m)
        total = 0.0
        for r in range(1000):
            est = minibatch_gradient(design, x, cfg, ("acceptance-var", m, r))
            total += float(np.max(np.abs(est.vector - center))) ** 2
        variances[m] = total / 1000.0
    r8 = variances[1] / variances[8]
    r16 = variances[1] / variances[16]
    ok = r8 >= 3.0 and r16 >= 6.0
    assert report(
        7, ok, f"variance drop m1->m8 {r8:.2f}x (need 3x), m1->m16 {r16:.2f}x (need 6x)"
    )


def test_08_desk_scale_convergence(convergence_runs):
    runs, elapsed = convergence_runs
    passed = {}
    for run in runs:
        stationarity = run["stationarity"]
        ratio = stationarity[0] / min(stationarity[-20:])
        passed.setdefault(run["algorithm"], []).append(ratio >= 10.0)
    md = sum(passed["zo-ada-expgrad"])
    fw = sum(passed["zo-ada-expgrad-plus"])
    ok = md >= 18 and fw >= 18 and elapsed < 120.0
    assert report(
        8, ok, f"stationarity drop >= 10x: mirror {md}/20, combined-step {fw}/20, "
        f"{elapsed:.1f}s"
    )


def test_09_geometry_advantage(geometry_advantage_runs):
    runs, elapsed = geometry_advantage_runs
    finals = {}
    calls = {}
    for run in runs:
        finals.setdefault(run["algorithm"], []).append(run["final_objective"])
        calls.setdefault(run["algorithm"], set()).add(run["oracle_calls"])
    assert calls["zo-ada-expgrad"] == calls["zo-psgd"], "budgets must match"
    md = float(np.median(finals["zo-ada-expgrad"]))
    base = float(np.median(finals["zo-psgd"]))
    ok = md < base and elapsed < 300.0
    assert report(
        9, ok, f"median final objective {md:.4f} (mirror) vs {base:.4f} (euclidean), "
        f"equal budget, {elapsed:.1f}s"
    )


def test_10_storm_tracking(tracking_runs):
    wins = 0
    for run in tracking_runs:
        q = run["T"] - run["T"] // 4
        storm_err = float(np.mean(run["tracking_sq"][q:]))
        plain_err = float(np.mean(run["minibatch_tracking_sq"][q:]))
        wins += storm_err < plain_err
    ok = wins >= 15
    assert report(10, ok, f"momentum beats plain batches in {wins}/20 paired seeds (need 15)")


def test_11_run_invariants(convergence_runs, geometry_advantage_runs, tracking_runs):
    runs = convergence_runs[0] + geometry_advantage_runs[0] + tracking_runs
    # Add box-constrained runs so feasibility is checked against real bounds.
    clf = make_tiny_classifier(6, 3, 0)
    anchor = rng.stream("acceptance-box", 0).uniform(0.05, 0.95, 6)
    box_problem = make_explanation_problem(clf, anchor, "PP")
    for algorithm, runner in (
        ("zo-ada-expgrad", run_zo_ada_expgrad),
        ("zo-ada-expgrad-plus", run_zo_ada_expgrad_plus),
        ("zo-expstorm", run_zo_expstorm),
        ("zo-psgd", run_zo_psgd),
    ):
        cfg = RunConfig(T=80, batch=4, eta_base=1.0, seed=0, algorithm=algorithm)
        runs.append(run_summary(algorithm, runner, box_problem, cfg))
    alpha_bad = sum(not r["alpha_monotone"] for r in runs)
    feas_bad = sum(not r["feasible"] for r in runs)
    call_bad = sum(r["oracle_calls"] != r["expected_calls"] for r in runs)
    ok = alpha_bad == 0 and feas_bad == 0 and call_bad == 0
    assert report(
        11, ok, f"{len(runs)} runs: {alpha_bad} stepsize, {feas_bad} feasibility, "
        f"{call_bad} accounting violations"
    )


def test_12_reproducible_outputs(tmp_path):
    spec = parse_run_spec(os.path.join(CONFIG_DIR, "acceptance.json"))
    outs = {}
    for label, jobs in (("a1", 1), ("b1", 1), ("a8", 8), ("b8", 8)):
        out = tmp_path / label
        rc = execute(spec, jobs=jobs, no_timing=True, out_dir=str(out))
        assert rc == 0
        outs[label] = out
    names = sorted(os.listdir(outs["a1"]))
    csv_names = [n for n in names if n.endswith(".csv")]
    mismatches = []
    for other in ("b1", "a8", "b8"):
        assert sorted(os.listdir(outs[other])) == names
        for name in names:
            if not filecmp.cmp(outs["a1"] / name, outs[other] / name, shallow=False):
                mismatches.append(f"{other}/{name}")
    ok = not mismatches and len(csv_names) >= 16
    assert report(
        12, ok, f"{len(csv_names)} trace/curve files byte-identical over "
        f"2x jobs=1 and 2x jobs=8" + (f"; mismatches: {mismatches}" if mismatches else "")
    )
