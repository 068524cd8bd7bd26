"""Print SHA-256 digests of a fixed set of solver outputs, to compare two checkouts.

Run from the repository root:

    python3 tests/trace_digest.py                   # the package under ./src
    python3 tests/trace_digest.py --src OTHER/src   # another checkout's package

Equal digests for two checkouts mean byte-identical outputs on this set:

* ``trajectory``: the path of every ``traces`` and ``paths`` run: its
  iterates, its sampled index and point, and each record's oracle calls,
  alpha and eta (a raising run gives its message, as in ``traces``).  No
  evaluation column goes in, neither objective nor stationarity nor
  tracking, so this digest holds across changes to how iterates are
  evaluated.
* ``traces``: 80 solver runs: all four methods on sparse regression at
  d in {1, 50, 500, 2000} with both losses, boxed and unboxed (64), on PP
  and PN explanations (8), and on an unboxed quadratic at two seeds (8).
  Some of the unboxed runs raise ``NumericError``.  Each run contributes
  its records (``wall_ms`` zeroed), the sampled index and point, the
  iterates and the tracking lists; a raising run contributes its error
  message with a trailing `` in <layer>`` removed, so the digest pins the
  failing iteration while the layer wording may change.
* ``paths``: 38 further runs through the stepsize and momentum paths
  the ``traces`` set leaves out, on the d=50 least-squares problem (free
  and boxed) and the PN explanation: zo-ada-expgrad and zo-psgd with
  ``stepsize_variant="constant"``, all four methods at T=1, and all four
  at nu=0.3 with ``stationarity_eval_period=3``; then eight runs that
  each raise in one layer of the run loop: a non-finite ``mean_loss``, a
  non-finite oracle in the oracle-averaged objective, a NaN exact
  gradient, a prox overflow in the gradient map, a non-finite oracle in
  the estimator, a prox overflow in the step, a momentum tracking error
  whose square overflows and an eta_t that overflows in the stepsize.
  These configs are ones every checkout accepts, so two checkouts
  compare on them too.  The
  hooks that fail do so at one iterate, not at one call number, and the
  evaluation hooks take a point or a stack of points (``axis=-1``), so
  a checkout that evaluates iterates one at a time and one that
  evaluates them in blocks run the same failing runs.
* ``prox``: 3,000 random ``prox_composite`` calls (both elastic-net
  branches, no box and boxes that contain, straddle or exclude zero, eta
  over six decades, d up to 2000), each again as the first row of a
  stack of 1 to 7 rows with one eta per row, every row's outcome folded
  in; then 200 ``lambert_w0`` calls on mixed arrays that hold the branch
  point.  A package whose prox takes no stacks, or a stack that raises,
  gives its rows from one-row calls, so a checkout with stacks and one
  without compare on the same outcomes.
* ``estimates``: ``minibatch_gradient`` and ``paired_storm_estimates``
  (vectors and call counts) on the least-squares, robust and PN oracles
  at d in {1, 2, 7, 8191, 8192, 8193}, around a row block of 8,192
  signs, and at d in {32768, 32769, 65535, 65536, 65537}, around one of
  65,536.  Where such a block holds more than one probe row, m is twice
  the rows per block plus 3, so the last block is partial; at one row per
  block m is 3.  The block sizes are literals, so checkouts with either
  size run the same cases.  Then both on
  the least-squares and robust oracles at the benchmark shapes
  (d=500, m=32) and (d=2000, m=16); a d=7, m=9 estimate whose oracle runs
  a minibatch estimate of the same shape at each point it is given; and
  the benchmark-shape estimates again from two threads at once, both
  inside an estimate at the same time.
* ``cli``: every file written by ``zomirror run --no-timing`` for
  ``configs/acceptance.json``, a four-method PN explanation spec and a
  four-method sparse-regression spec whose entries set every optional
  algorithm key (``eta``, ``nu``, ``variant`` with ``"constant"`` where
  the tag accepts it, ``stationarity_eval_period``), each at ``--jobs 1``
  and ``--jobs 2``.
* ``errors``: the exit code, the stderr text and whether the output
  directory exists after ``zomirror validate`` on each bad spec of
  ``test_cli.py::test_invalid_spec_is_one_line`` (the NUL-character
  ``output_dir`` case aside) and on five more, one per value rule the
  parser may leave to a builder or to ``RunConfig`` (``k`` above ``d``,
  ``d`` 0, ``gamma1`` -1, a float ``seed``, ``stationarity_eval_period``
  0), and after ``zomirror run`` with ``--jobs 0``,
  with a non-integer ``ZOMIRROR_SEED`` and with both; then the error type
  and text of each count and scale check on bad values: the counts of
  ``RunConfig``, ``Problem``, ``EstimatorConfig``, ``MirrorGeometry`` and
  ``sparse_regression_design``, and the scales ``RunConfig.eta_base``,
  ``EstimatorConfig.nu`` and the ``eta`` of ``prox_composite`` and
  ``gradient_map``.  ``RunConfig.nu`` and the ``nu`` of
  ``two_point_estimate`` are left out.

Before the sections it prints numpy's BLAS build, ``OPENBLAS_NUM_THREADS``
and the CPU count: the ``traces`` section holds only for one BLAS build
and thread count, the others for one BLAS build at any thread count.

The last line is one digest over all seven.  This is a comparison tool,
not a test: it pins no hash, since any deliberate change of output moves
it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
import threading

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _root_message(exc: BaseException) -> str:
    while exc.__cause__ is not None:
        exc = exc.__cause__
    return f"{type(exc).__name__}: {exc}"


def _run_message(exc: BaseException) -> str:
    message = re.sub(r"( at iteration \d+) in [a-z ]+$", r"\1", str(exc))
    return f"{type(exc).__name__}: {message}"


def _array_bytes(a) -> bytes:
    a = np.asarray(a)
    return repr((a.dtype.str, a.shape)).encode() + a.tobytes()


def _trajectory_bytes(trace) -> bytes:
    parts = [repr([(r.iteration, r.oracle_calls, r.alpha, r.eta) for r in trace.records]).encode()]
    parts.append(repr(trace.sampled_index).encode())
    parts.append(_array_bytes(trace.sampled_point))
    for x in trace.iterates or []:
        parts.append(_array_bytes(x))
    return b"|".join(parts)


def _trace_bytes(trace) -> bytes:
    parts = [repr(dataclasses.astuple(dataclasses.replace(r, wall_ms=0.0))).encode() for r in trace.records]
    parts.append(repr(trace.sampled_index).encode())
    parts.append(_array_bytes(trace.sampled_point))
    for x in trace.iterates or []:
        parts.append(_array_bytes(x))
    for values in (trace.tracking_sq, trace.minibatch_tracking_sq):
        parts.append(repr(values).encode())
    return b"|".join(parts)


def _quadratic(zm, center, noise_seed):
    c = np.asarray(center, dtype=float)
    offsets = 0.2 * zm.rng.stream("digest-quad", noise_seed).standard_normal((40, c.size))
    offsets -= offsets.mean(axis=0)

    def oracle(x, xi):
        r = x - c - offsets[xi % 40]
        return 0.5 * float(r @ r)

    # The evaluation hooks take a point or a stack of points, one per row.
    return zm.Problem(
        dimension=c.size,
        oracle=oracle,
        exact_gradient=lambda x: x - c,
        mean_loss=lambda x: 0.5 * np.sum(np.square(x - c), axis=-1),
        num_samples=40,
    )


def _fails_at(point, bad, good):
    """An evaluation hook on a point or a stack of points (one per row):
    ``bad`` at ``point`` and ``good`` elsewhere, per point."""
    bad, good = np.asarray(bad, dtype=float), np.asarray(good, dtype=float)

    def hook(x):
        hit = np.all(x == point, axis=-1)
        return np.where(hit[..., None] if good.ndim else hit, bad, good)

    return hook


def trace_runs(zm):
    """Yield (label, problem, RunConfig, runner) for the fixed run set."""
    runners = {
        "zo-ada-expgrad": zm.run_zo_ada_expgrad,
        "zo-ada-expgrad-plus": zm.run_zo_ada_expgrad_plus,
        "zo-expstorm": zm.run_zo_expstorm,
        "zo-psgd": zm.run_zo_psgd,
    }
    sizes = {1: (20, 1), 50: (60, 5), 500: (100, 10), 2000: (400, 20)}
    regs = {"least_squares": zm.ElasticNet(0.005, 0.0), "robust_nonconvex": zm.ElasticNet(0.02, 1e-4)}
    for d, (n, k) in sizes.items():
        for kind, reg in regs.items():
            free = zm.make_sparse_regression(d, n, k, 0.1, kind, seed=d, regularizer=reg)
            boxed = dataclasses.replace(free, feasible_set=zm.FeasibleSet.box(-np.ones(d), np.ones(d)))
            for box_label, problem in (("free", free), ("box", boxed)):
                for tag, runner in runners.items():
                    cfg = zm.RunConfig(T=25, batch=4, eta_base=7.0 if tag == "zo-psgd" else 0.5, seed=d + 1)
                    yield f"{tag}/{kind}/d={d}/{box_label}", problem, cfg, runner
    classifier = zm.make_tiny_classifier(50, 3, 3)
    anchor = zm.rng.stream("digest-anchor").uniform(0.05, 0.95, size=50)
    for mode in ("PP", "PN"):
        problem = zm.make_explanation_problem(classifier, anchor, mode)
        for tag, runner in runners.items():
            yield f"{tag}/{mode}", problem, zm.RunConfig(T=40, batch=4, seed=11), runner
    problem = _quadratic(zm, [1.0, 2.0], 0)
    for tag, runner in runners.items():
        for seed in (1, 3):
            yield f"{tag}/quadratic/seed={seed}", problem, zm.RunConfig(T=13, batch=2, seed=seed), runner


def path_runs(zm):
    """Yield (label, problem, RunConfig, runner) for the constant-stepsize,
    single-iteration and explicit-nu runs, then one raising run per layer."""
    runners = {
        "zo-ada-expgrad": zm.run_zo_ada_expgrad,
        "zo-ada-expgrad-plus": zm.run_zo_ada_expgrad_plus,
        "zo-expstorm": zm.run_zo_expstorm,
        "zo-psgd": zm.run_zo_psgd,
    }
    free = zm.make_sparse_regression(50, 60, 5, 0.1, "least_squares", seed=50, regularizer=zm.ElasticNet(0.005, 0.0))
    boxed = dataclasses.replace(free, feasible_set=zm.FeasibleSet.box(-np.ones(50), np.ones(50)))
    classifier = zm.make_tiny_classifier(50, 3, 3)
    anchor = zm.rng.stream("digest-anchor").uniform(0.05, 0.95, size=50)
    explanation = zm.make_explanation_problem(classifier, anchor, "PN")
    for name, problem in (("free", free), ("box", boxed), ("PN", explanation)):
        for tag, runner in runners.items():
            eta = 7.0 if tag == "zo-psgd" else 0.5
            if tag in ("zo-ada-expgrad", "zo-psgd"):
                cfg = zm.RunConfig(T=25, batch=4, eta_base=eta, seed=5, stepsize_variant="constant")
                yield f"{tag}/{name}/constant", problem, cfg, runner
            yield f"{tag}/{name}/T=1", problem, zm.RunConfig(T=1, batch=4, eta_base=eta, seed=6), runner
            cfg = zm.RunConfig(T=25, batch=4, eta_base=eta, nu=0.3, seed=7, stationarity_eval_period=3)
            yield f"{tag}/{name}/nu=0.3/period=3", problem, cfg, runner
    # One raising run per layer, each failing at one iterate of a zero
    # oracle whose l1 term drains the iterates from (1, 2) toward 0.  A
    # failing oracle also fails in the estimator, which asks for x_t as
    # its base point; the objective at x_t comes first.
    drain = zm.Problem(
        dimension=2, oracle=lambda x, xi: 0.0, regularizer=zm.ElasticNet(0.3, 0.0), start_point=np.array([1.0, 2.0])
    )
    cfg = zm.RunConfig(T=4, batch=1)
    failing = [
        ("objective/mean_loss", zm.run_zo_ada_expgrad, 2, lambda x: {"mean_loss": _fails_at(x, math.inf, 1.0)}),
        ("objective/oracle", zm.run_zo_psgd, 2, lambda x: {"oracle": lambda p, xi: math.inf if np.array_equal(p, x) else 0.0}),
        ("exact-gradient", zm.run_zo_expstorm, 3, lambda x: {"exact_gradient": _fails_at(x, [0.0, math.nan], [0.0, 0.0])}),
        (
            "estimator",
            zm.run_zo_expstorm,
            2,
            lambda x: {
                "oracle": lambda p, xi: math.inf if np.array_equal(p, x) else 0.0,
                "mean_loss": lambda p: np.zeros(np.shape(p)[:-1]),
            },
        ),
    ]
    for name, runner, t, hooks in failing:
        x_t = runner(drain, cfg).iterates[t - 1]
        yield f"fail/{name}", dataclasses.replace(drain, **hooks(x_t)), cfg, runner
    quadratic = _quadratic(zm, [1.0, 2.0], 0)
    # Unboxed at eta=1 the dual point passes the prox's guard at x_4.
    yield "fail/gradient-map", quadratic, zm.RunConfig(T=13, batch=2, seed=1), zm.run_zo_ada_expgrad
    problem = dataclasses.replace(quadratic, exact_gradient=None)
    yield "fail/step", problem, zm.RunConfig(T=13, batch=2, seed=5), zm.run_zo_ada_expgrad
    # An exact gradient of (1e160, 0) at x_2 squares its tracking errors
    # past the float range; a period of 5 keeps x_2 out of the gradient map.
    tracked = zm.RunConfig(T=4, batch=1, stationarity_eval_period=5)
    x_2 = zm.run_zo_expstorm(drain, tracked).iterates[1]
    problem = dataclasses.replace(drain, exact_gradient=_fails_at(x_2, [1e160, 0.0], [0.0, 0.0]))
    yield "fail/tracking", problem, tracked, zm.run_zo_expstorm
    # eta_t = 1.7e308 * alpha_t is inf once alpha_t > 1.
    steep = zm.Problem(dimension=2, oracle=lambda x, xi: x[0] - 2.0 * x[1], regularizer=zm.ElasticNet(0.0, 1e-3))
    yield "fail/stepsize", steep, zm.RunConfig(T=7, batch=1, eta_base=1.7e308), zm.run_zo_expstorm


def digest_traces(zm, runs, trajectory) -> tuple[str, int]:
    """Digest of the runs; their trajectories also go into ``trajectory``."""
    h = hashlib.sha256()
    raised = 0
    for label, problem, cfg, runner in runs:
        h.update(label.encode())
        trajectory.update(label.encode())
        try:
            with np.errstate(all="ignore"):
                trace = runner(problem, cfg)
        except zm.NumericError as exc:
            raised += 1
            h.update(_run_message(exc).encode())
            trajectory.update(_run_message(exc).encode())
            continue
        h.update(_trace_bytes(trace))
        trajectory.update(_trajectory_bytes(trace))
    return h.hexdigest(), raised


def _box(gen, d, shape):
    if shape == "contains":
        return -gen.uniform(0.0, 2.0, d), gen.uniform(0.0, 2.0, d)
    if shape == "straddles":
        lo = gen.uniform(-2.0, 1.0, d)
        return lo, lo + gen.uniform(0.0, 2.0, d)
    lo = gen.uniform(0.1, 1.0, d) * gen.choice([-1.0, 1.0], d)
    span = gen.uniform(0.0, 1.0, d)
    return np.where(lo > 0, lo, lo - span), np.where(lo > 0, lo + span, lo)


def _prox_outcome(zm, geo, x, g, eta, reg, fs) -> bytes:
    try:
        return _array_bytes(zm.prox_composite(geo, x, g, eta, reg, fs))
    except zm.NumericError as exc:
        return _root_message(exc).encode()


def _takes_stacks(zm) -> bool:
    """Whether the package's prox_composite takes a (k, d) stack with one eta per row."""
    try:
        zm.prox_composite(zm.MirrorGeometry(1), np.zeros((2, 1)), np.zeros((2, 1)), [1.0, 2.0], zm.ElasticNet(), zm.FeasibleSet())
    except (TypeError, ValueError):
        return False
    return True


def _stack_outcomes(zm, stacks, geo, X, G, etas, reg, fs) -> list[bytes]:
    """Each row's prox outcome: from one stacked call where the package
    takes stacks and the stack raises nothing, else from one-row calls."""
    if stacks:
        try:
            return [_array_bytes(row) for row in zm.prox_composite(geo, X, G, etas, reg, fs)]
        except zm.NumericError:
            pass
    return [_prox_outcome(zm, geo, x, g, eta, reg, fs) for x, g, eta in zip(X, G, etas)]


def digest_prox(zm) -> str:
    h = hashlib.sha256()
    gen = np.random.default_rng(20260)
    stack_gen = np.random.default_rng(20261)
    stacks = _takes_stacks(zm)
    for _ in range(3000):
        d = int(gen.choice([1, 2, 5, 50, 500, 2000]))
        geo = zm.MirrorGeometry(d)
        scale = 10.0 ** gen.uniform(-3, 1)
        x = scale * gen.standard_normal(d)
        g = 10.0 ** gen.uniform(-3, 3) * gen.standard_normal(d)
        eta = 10.0 ** gen.uniform(-3, 3)
        gamma1 = 0.0 if gen.uniform() < 0.3 else 10.0 ** gen.uniform(-4, 1)
        gamma2 = 0.0 if gen.uniform() < 0.5 else 10.0 ** gen.uniform(-4, 1)
        shape = gen.choice(["none", "contains", "straddles", "excludes"])
        fs = zm.FeasibleSet() if shape == "none" else zm.FeasibleSet.box(*_box(gen, d, shape))
        if shape != "none":
            x = fs.clamp(x)
        reg = zm.ElasticNet(gamma1, gamma2)
        with np.errstate(all="ignore"):
            h.update(_prox_outcome(zm, geo, x, g, eta, reg, fs))
            # The same call again as the first row of a stack of 1 to 7 rows,
            # the others drawn alike, each with its own eta.
            k = int(stack_gen.integers(1, 8))
            X = np.vstack([x, 10.0 ** stack_gen.uniform(-3, 1, (k - 1, 1)) * stack_gen.standard_normal((k - 1, d))])
            G = np.vstack([g, 10.0 ** stack_gen.uniform(-3, 3, (k - 1, 1)) * stack_gen.standard_normal((k - 1, d))])
            etas = [eta, *(10.0 ** stack_gen.uniform(-3, 3, k - 1)).tolist()]
            for row in _stack_outcomes(zm, stacks, geo, fs.clamp(X), G, etas, reg, fs):
                h.update(row)
    branch = -math.exp(-1.0)
    for _ in range(200):
        size = int(gen.integers(1, 17))
        z = np.concatenate([gen.uniform(branch, 1.0, size), 10.0 ** gen.uniform(-3, 300, size), [branch, 0.0]])
        gen.shuffle(z)
        with np.errstate(all="ignore"):
            h.update(_array_bytes(zm.lambert_w0(z)))
    return h.hexdigest()


def _estimate_pair_bytes(zm, problem, cfg, x, x_prev, d) -> bytes:
    estimates = (zm.minibatch_gradient(problem, x, cfg, (d, 1)),)
    estimates += zm.paired_storm_estimates(problem, x, x_prev, cfg, (d, 2))
    return b"".join(_array_bytes(est.vector) + repr(est.oracle_calls).encode() for est in estimates)


def _digest_estimate_pair(zm, h, label, problem, cfg, x, x_prev, d):
    h.update(label.encode() + _estimate_pair_bytes(zm, problem, cfg, x, x_prev, d))


def _nested_problem(zm, d, m):
    """An oracle that runs a minibatch estimate of its own, of the same shape
    (d, m), at the point it is given."""
    inner = zm.make_sparse_regression(d, 5, 1, 0.1, "least_squares", seed=d)
    inner_cfg = zm.EstimatorConfig(nu=0.05, batch=m)

    def oracle(x, xi):
        g = zm.minibatch_gradient(inner, x, inner_cfg, (xi % 3,)).vector
        return inner.oracle(x, xi) + float(g @ x)

    return zm.Problem(dimension=d, oracle=oracle)


def _threaded_estimate_bytes(zm, jobs) -> bytes:
    """The estimate pairs of ``jobs`` run on two threads at once, one in
    reverse order, each in job order: thread 0's, then thread 1's."""
    barrier = threading.Barrier(2)
    out = [None, None]

    def worker(slot, order):
        first = [True]

        def held(problem):
            # Both threads wait at their first oracle call, so both are
            # inside an estimate at the same time.
            def oracle(x, xi):
                if first[0]:
                    first[0] = False
                    barrier.wait(timeout=60)
                return problem.oracle(x, xi)

            return dataclasses.replace(problem, oracle=oracle)

        out[slot] = {label: _estimate_pair_bytes(zm, held(problem), *rest) for label, problem, *rest in order}

    threads = [threading.Thread(target=worker, args=(0, jobs)), threading.Thread(target=worker, args=(1, jobs[::-1]))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(switch)
    return b"".join(label.encode() + done[label] for done in out for label, *_ in jobs)


def digest_estimates(zm) -> str:
    h = hashlib.sha256()
    widths = [(8192, d) for d in (1, 2, 7, 8191, 8192, 8193)]
    widths += [(65536, d) for d in (32768, 32769, 65535, 65536, 65537)]
    for block, d in widths:
        rows = max(1, block // d)
        m = 2 * rows + 3 if rows > 1 else 3
        x = zm.rng.stream("digest-estimates", d).uniform(-0.5, 0.5, size=d)
        x_prev = x + 0.01
        anchor = zm.rng.stream("digest-estimates-anchor", d).uniform(0.05, 0.95, size=d)
        problems = {
            kind: zm.make_sparse_regression(d, 5, 1, 0.1, kind, seed=d)
            for kind in ("least_squares", "robust_nonconvex")
        }
        problems["PN"] = zm.make_explanation_problem(zm.make_tiny_classifier(d, 3, 1), anchor, "PN")
        cfg = zm.EstimatorConfig(nu=0.01, batch=m)
        for name, problem in problems.items():
            _digest_estimate_pair(zm, h, f"{name}/d={d}/m={m}", problem, cfg, x, x_prev, d)
    # The benchmark shapes: acceptance 08 (d=500, m=32) and 09 (d=2000, m=16).
    bench = []
    for d, m, n, k in ((500, 32, 250, 10), (2000, 16, 400, 20)):
        x = zm.rng.stream("digest-estimates", d).uniform(-0.5, 0.5, size=d)
        cfg = zm.EstimatorConfig(nu=zm.default_smoothing(d, 300, "minibatch"), batch=m)
        for kind in ("least_squares", "robust_nonconvex"):
            problem = zm.make_sparse_regression(d, n, k, 0.1, kind, seed=d)
            bench.append((f"{kind}/d={d}/m={m}/bench", problem, cfg, x, x + 1e-3, d))
    for label, *job in bench:
        _digest_estimate_pair(zm, h, label, *job)
    # An estimate inside the oracle of another.
    x = zm.rng.stream("digest-estimates", 7).uniform(-0.5, 0.5, size=7)
    _digest_estimate_pair(zm, h, "nested/d=7/m=9", _nested_problem(zm, 7, 9), zm.EstimatorConfig(nu=0.01, batch=9), x, x + 0.01, 7)
    # The benchmark shapes again, from two threads at once.
    h.update(_threaded_estimate_bytes(zm, bench))
    return h.hexdigest()


PN_SPEC = {
    "problem": {"kind": "explanation", "seed": 3, "d": 50, "mode": "PN", "n_classes": 3},
    "algorithms": [
        {"tag": tag, "T": 60, "m": 4, "eta": 1.0}
        for tag in ("zo-ada-expgrad", "zo-ada-expgrad-plus", "zo-expstorm", "zo-psgd")
    ],
    "seeds": [0, 1],
    "output_dir": "runs/pn",
    "emit_plot_data": True,
}

OPTIONAL_KEYS_SPEC = {
    "problem": {
        "kind": "sparse_regression", "seed": 5, "d": 50, "n_samples": 60, "k": 5,
        "noise_sigma": 0.1, "loss": "least_squares", "gamma1": 0.005, "gamma2": 1e-4,
    },
    "algorithms": [
        {"tag": "zo-ada-expgrad", "T": 30, "m": 4, "eta": 0.5, "nu": 0.3, "variant": "constant", "stationarity_eval_period": 3},
        {"tag": "zo-ada-expgrad-plus", "T": 30, "m": 4, "eta": 0.5, "nu": 0.3, "variant": "adaptive", "stationarity_eval_period": 3},
        {"tag": "zo-expstorm", "T": 30, "m": 4, "eta": 0.5, "nu": 0.3, "variant": "adaptive", "stationarity_eval_period": 3},
        {"tag": "zo-psgd", "T": 30, "m": 4, "eta": 7.0, "nu": 0.3, "variant": "constant", "stationarity_eval_period": 3},
    ],
    "seeds": [0, 1],
    "output_dir": "runs/optional-keys",
    "emit_plot_data": True,
}


def digest_cli(zm) -> str:
    from zomirror import cli

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        specs = [("acceptance", os.path.join(ROOT, "configs", "acceptance.json"))]
        for name, doc in (("pn", PN_SPEC), ("optional-keys", OPTIONAL_KEYS_SPEC)):
            specs.append((name, os.path.join(tmp, f"{name}.json")))
            with open(specs[-1][1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for name, path in specs:
            for jobs in (1, 2):
                out = os.path.join(tmp, f"{name}-{jobs}")
                rc = cli.main(["run", "--config", path, "--no-timing", "--jobs", str(jobs), "--out", out])
                h.update(f"{name} rc={rc}".encode())
                for filename in sorted(os.listdir(out)):
                    with open(os.path.join(out, filename), "rb") as fh:
                        h.update(filename.encode() + b"\0" + fh.read())
    return h.hexdigest()


ERRORS_BASE_SPEC = {
    "problem": {
        "kind": "sparse_regression", "seed": 3, "d": 10, "n_samples": 12, "k": 3,
        "noise_sigma": 0.1, "loss": "least_squares", "gamma1": 0.01, "gamma2": 0.001,
    },
    "algorithms": [
        {"tag": "zo-ada-expgrad", "T": 15, "m": 2, "eta": 2.0},
        {"tag": "zo-psgd", "T": 15, "m": 2, "eta": 2.0, "variant": "constant"},
    ],
    "seeds": [0, 1],
}

# (key path, value) edits of ERRORS_BASE_SPEC; an empty path replaces it whole.
BAD_SPEC_EDITS = [
    (("algorithms", 0, "T"), 1.5),
    (("algorithms", 0, "m"), 0),
    (("problem", "noise_sigma"), "0.1"),
    (("problem", "noise_sigma"), -0.1),
    (("problem",), []),
    (("problem", "loss"), "hinge"),
    (("algorithms", 0), "zo-psgd"),
    (("algorithms", 0, "nu"), 0.0),
    ((), []),
    (("algorithms",), []),
    (("seeds",), []),
    (("output_dir",), ""),
    (("emit_plot_data",), 1),
    (("problem", "k"), 11),
    (("problem", "d"), 0),
    (("problem", "gamma1"), -1.0),
    (("problem", "seed"), 1.5),
    (("algorithms", 0, "stationarity_eval_period"), 0),
]

BAD_COUNTS = [0, -1, 2.5, True, "3", np.int64(0)]
BAD_SCALES = [0.0, -1.0, math.nan, math.inf, -math.inf, np.float64(math.nan)]


def _cli_outcome(cli, argv, out, env_seed=None) -> bytes:
    """Exit code, stderr and whether ``out`` exists after cli.main(argv)."""
    saved = os.environ.pop("ZOMIRROR_SEED", None)
    if env_seed is not None:
        os.environ["ZOMIRROR_SEED"] = env_seed
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        os.environ.pop("ZOMIRROR_SEED", None)
        if saved is not None:
            os.environ["ZOMIRROR_SEED"] = saved
    return repr((rc, err.getvalue(), os.path.exists(out))).encode()


def _error_text(build) -> str:
    try:
        build()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def _check_cases(zm):
    """Yield (label, thunk) for each count and scale check on each bad value."""
    geo = zm.MirrorGeometry(3)
    x, g, reg, fs = np.full(3, 0.1), np.ones(3), zm.ElasticNet(0.01, 0.01), zm.FeasibleSet()

    def oracle(x, xi):
        return 0.0

    for v in BAD_COUNTS:
        yield f"RunConfig.T={v!r}", lambda v=v: zm.RunConfig(T=v, batch=1)
        yield f"RunConfig.batch={v!r}", lambda v=v: zm.RunConfig(T=1, batch=v)
        yield f"RunConfig.period={v!r}", lambda v=v: zm.RunConfig(T=1, batch=1, stationarity_eval_period=v)
        yield f"Problem.dimension={v!r}", lambda v=v: zm.Problem(dimension=v, oracle=oracle)
        yield f"Problem.num_samples={v!r}", lambda v=v: zm.Problem(dimension=2, oracle=oracle, num_samples=v)
        yield f"EstimatorConfig.batch={v!r}", lambda v=v: zm.EstimatorConfig(nu=0.1, batch=v)
        yield f"MirrorGeometry.dimension={v!r}", lambda v=v: zm.MirrorGeometry(v)
    for v in (0, -1):
        yield f"sparse_regression_design.n_samples={v!r}", lambda v=v: zm.sparse_regression_design(3, v, 1, 0.1, "least_squares", 0)
    for v in BAD_SCALES:
        yield f"RunConfig.eta_base={v!r}", lambda v=v: zm.RunConfig(T=1, batch=1, eta_base=v)
        yield f"EstimatorConfig.nu={v!r}", lambda v=v: zm.EstimatorConfig(nu=v, batch=1)
        yield f"prox_composite.eta={v!r}", lambda v=v: zm.prox_composite(geo, x, g, v, reg, fs)
        yield f"gradient_map.eta={v!r}", lambda v=v: zm.gradient_map(x, g, v, geo, reg, fs)


def digest_errors(zm) -> str:
    from zomirror import cli

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for i, (path, value) in enumerate(BAD_SPEC_EDITS):
            doc = json.loads(json.dumps(dict(ERRORS_BASE_SPEC, output_dir=out)))
            if path:
                target = doc
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value
            else:
                doc = value
            spec = os.path.join(tmp, f"bad-{i}.json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            h.update(f"spec {path!r}={value!r}".encode() + _cli_outcome(cli, ["validate", "--config", spec], out))
        spec = os.path.join(tmp, "good.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(dict(ERRORS_BASE_SPEC, output_dir=out), fh)
        for label, jobs, env_seed in (("jobs", "0", None), ("seed", "1", "1.5"), ("both", "0", "x")):
            argv = ["run", "--config", spec, "--no-timing", "--jobs", jobs]
            h.update(f"run {label}".encode() + _cli_outcome(cli, argv, out, env_seed))
    for label, build in _check_cases(zm):
        h.update(f"{label} {_error_text(build)}".encode())
    return h.hexdigest()


def _blas_build() -> str:
    """numpy's BLAS: its name, version and build configuration."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', 'no configuration')})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the zomirror package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import zomirror as zm

    trajectory = hashlib.sha256()
    traces, raised = digest_traces(zm, trace_runs(zm), trajectory)
    paths, paths_raised = digest_traces(zm, path_runs(zm), trajectory)
    sections = {
        "trajectory": trajectory.hexdigest(),
        "traces": traces,
        "paths": paths,
        "prox": digest_prox(zm),
        "estimates": digest_estimates(zm),
        "cli": digest_cli(zm),
        "errors": digest_errors(zm),
    }
    print(f"package {os.path.dirname(zm.__file__)}")
    # The estimates and trajectory sections hold for a given BLAS build at
    # any thread count; the traces section only at one thread count.
    print(f"blas {_blas_build()}")
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}, {os.cpu_count()} CPUs")
    print(f"{raised} of the traced runs and {paths_raised} of the path runs raised NumericError")
    for name, value in sections.items():
        print(f"{name:10s} {value}")
    total = hashlib.sha256("".join(sections.values()).encode()).hexdigest()
    print(f"{'total':10s} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
