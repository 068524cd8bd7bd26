"""Configuration-driven experiment runner.

Subcommands: ``run`` executes every (algorithm, seed) pair of a JSON run
spec and writes per-run CSV traces plus a summary.json; ``validate``
parses a spec without running it.

All numeric output is deterministic given (spec, seed): run streams are
derived by hashing (global seed, algorithm tag, listed seed), files are
written atomically, and the wall_ms column can be suppressed with
``--no-timing`` so outputs are byte-comparable across machines and
thread counts.  The environment variable ZOMIRROR_SEED overrides the
spec's global seed, from which the per-run seeds are derived; the problem
instance is still built from the spec's problem seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import ElasticNet, Problem
from .problems import (
    EXPLANATION_MODES,
    LOSS_KINDS,
    make_explanation_problem,
    make_sparse_regression,
    make_tiny_classifier,
)
from .solvers import ALGORITHM_TABLE, ALGORITHMS, RunConfig, run_algorithm

__all__ = [
    "AlgorithmSpec",
    "RunSpec",
    "parse_run_spec",
    "problem_from_descriptor",
    "execute",
    "main",
]

TRACE_HEADER = ("iter", "oracle_calls", "objective", "stationarity_sq_l1", "alpha", "eta", "wall_ms")

# Specs whose data matrix (n_samples x d for sparse regression, n_classes x d
# for an explanation) would take more bytes than this fail at parse time.
_MAX_DESIGN_BYTES = 1 << 32

# Looked up per run, so a caller may wrap the runners in place.
_RUNNERS = {tag: functools.partial(run_algorithm, algorithm=tag) for tag in ALGORITHMS}


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm entry of a run spec."""

    tag: str
    T: int
    batch: int
    eta: float = 1.0
    nu: float | None = None
    variant: str = "adaptive"
    stationarity_eval_period: int = 1


@dataclass(frozen=True)
class RunSpec:
    """Validated run specification; ``raw`` is the parsed JSON document."""

    problem: dict
    algorithms: tuple[AlgorithmSpec, ...]
    seeds: tuple[int, ...]
    output_dir: str
    emit_plot_data: bool
    raw: dict

    def to_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)


def _check_keys(doc: dict, required: set, optional: set, context: str) -> None:
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"unknown key {key!r} in {context}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing key {key!r} in {context}")


def _as_int(doc: dict, key: str, context: str, minimum: int | None = None) -> int:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{context}: {key!r} must be an integer")
    if minimum is not None and v < minimum:
        raise ValueError(f"{context}: {key!r} must be >= {minimum}")
    return v


def _as_number(doc: dict, key: str, context: str, minimum: float | None = None) -> float:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{context}: {key!r} must be a number")
    if minimum is not None and v < minimum:
        raise ValueError(f"{context}: {key!r} must be >= {minimum}")
    return float(v)


def _check_design_size(rows: int, d: int, what: str) -> None:
    if 8 * rows * d > _MAX_DESIGN_BYTES:
        raise ValueError(
            f"problem: the {what} x d = {rows} x {d} matrix needs {8 * rows * d:,} bytes, "
            f"above the limit of {_MAX_DESIGN_BYTES:,}"
        )


def _parse_problem(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("'problem' must be an object")
    kind = doc.get("kind")
    if kind == "sparse_regression":
        _check_keys(
            doc,
            {"kind", "seed", "d", "n_samples", "k", "noise_sigma", "loss"},
            {"gamma1", "gamma2"},
            "problem",
        )
        d = _as_int(doc, "d", "problem", 1)
        n = _as_int(doc, "n_samples", "problem", 1)
        k = _as_int(doc, "k", "problem", 1)
        if k > d:
            raise ValueError("problem: 'k' must not exceed 'd'")
        _check_design_size(n, d, "n_samples")
        _as_number(doc, "noise_sigma", "problem", 0.0)
        if doc["loss"] not in LOSS_KINDS:
            raise ValueError(f"problem: unknown loss {doc['loss']!r}")
    elif kind == "explanation":
        _check_keys(doc, {"kind", "seed", "d", "mode"}, {"n_classes", "gamma1", "gamma2"}, "problem")
        d = _as_int(doc, "d", "problem", 1)
        n_classes = _as_int(doc, "n_classes", "problem", 2) if "n_classes" in doc else 3
        _check_design_size(n_classes, d, "n_classes")
        if doc["mode"] not in EXPLANATION_MODES:
            raise ValueError(f"problem: unknown mode {doc['mode']!r}")
    else:
        raise ValueError(f"problem: unknown kind {kind!r}")
    _as_int(doc, "seed", "problem")
    for key in ("gamma1", "gamma2"):
        if key in doc:
            _as_number(doc, key, "problem", 0.0)
    return doc


def _parse_algorithm(doc: dict, index: int) -> AlgorithmSpec:
    context = f"algorithms[{index}]"
    if not isinstance(doc, dict):
        raise ValueError(f"{context} must be an object")
    _check_keys(doc, {"tag", "T", "m"}, {"eta", "nu", "variant", "stationarity_eval_period"}, context)
    tag = doc["tag"]
    if tag not in ALGORITHMS:
        raise ValueError(f"{context}: unknown algorithm tag {tag!r}")
    T = _as_int(doc, "T", context, 1)
    batch = _as_int(doc, "m", context, 1)
    eta = _as_number(doc, "eta", context) if "eta" in doc else 1.0
    if eta <= 0:
        raise ValueError(f"{context}: 'eta' must be positive")
    nu = None
    if doc.get("nu") is not None:
        nu = _as_number(doc, "nu", context)
        if nu <= 0:
            raise ValueError(f"{context}: 'nu' must be positive")
    variant = doc.get("variant", "adaptive")
    if variant not in ("adaptive", "constant"):
        raise ValueError(f"{context}: 'variant' must be 'adaptive' or 'constant'")
    if variant == "constant" and "constant" not in ALGORITHM_TABLE[tag].variants:
        raise ValueError(f"{context}: tag {tag!r} has no constant-stepsize variant")
    period = (
        _as_int(doc, "stationarity_eval_period", context, 1)
        if "stationarity_eval_period" in doc
        else 1
    )
    return AlgorithmSpec(
        tag=tag, T=T, batch=batch, eta=eta, nu=nu, variant=variant, stationarity_eval_period=period
    )


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def parse_run_spec(path: str) -> RunSpec:
    """Parse and validate a JSON run spec; unknown keys and non-finite
    numbers (NaN, Infinity, or literals that overflow) are errors."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    if not isinstance(raw, dict):
        raise ValueError("run spec must be a JSON object")
    _check_keys(raw, {"problem", "algorithms", "seeds", "output_dir"}, {"emit_plot_data"}, "run spec")
    problem = _parse_problem(raw["problem"])
    algos_doc = raw["algorithms"]
    if not isinstance(algos_doc, list) or not algos_doc:
        raise ValueError("'algorithms' must be a nonempty list")
    algorithms = tuple(_parse_algorithm(doc, i) for i, doc in enumerate(algos_doc))
    tags = [a.tag for a in algorithms]
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate algorithm tags would collide on output files")
    seeds_doc = raw["seeds"]
    if not isinstance(seeds_doc, list) or not seeds_doc:
        raise ValueError("'seeds' must be a nonempty list")
    seeds = []
    for s in seeds_doc:
        if isinstance(s, bool) or not isinstance(s, int):
            raise ValueError("'seeds' entries must be integers")
        seeds.append(s)
    if len(set(seeds)) != len(seeds):
        raise ValueError("duplicate seeds would collide on output files")
    output_dir = raw["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ValueError("'output_dir' must be a nonempty string")
    emit = raw.get("emit_plot_data", False)
    if not isinstance(emit, bool):
        raise ValueError("'emit_plot_data' must be a boolean")
    return RunSpec(
        problem=problem,
        algorithms=algorithms,
        seeds=tuple(seeds),
        output_dir=output_dir,
        emit_plot_data=emit,
        raw=raw,
    )


def problem_from_descriptor(doc: dict) -> Problem:
    """Build the Problem named by a validated problem descriptor."""
    if doc["kind"] == "sparse_regression":
        reg = ElasticNet(gamma1=doc.get("gamma1", 0.0), gamma2=doc.get("gamma2", 0.0))
        return make_sparse_regression(
            d=doc["d"],
            n_samples=doc["n_samples"],
            k=doc["k"],
            noise_sigma=doc["noise_sigma"],
            kind=doc["loss"],
            seed=doc["seed"],
            regularizer=reg,
        )
    d = doc["d"]
    seed = doc["seed"]
    classifier = make_tiny_classifier(d, doc.get("n_classes", 3), seed)
    anchor = rng.stream("anchor", seed, d).uniform(0.05, 0.95, size=d)
    return make_explanation_problem(
        classifier,
        anchor,
        doc["mode"],
        gamma1=doc.get("gamma1", 0.0625),
        gamma2=doc.get("gamma2", 0.0625),
    )


def _env_seed() -> int | None:
    """The ZOMIRROR_SEED override of the global seed, or None when unset."""
    raw = os.environ.get("ZOMIRROR_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ZOMIRROR_SEED must be an integer, got {raw!r}") from None


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=False)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _trace_csv_text(records, no_timing: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for r in records:
        writer.writerow(
            [
                r.iteration,
                r.oracle_calls,
                _fmt(r.objective),
                "" if r.stationarity_sq_l1 is None else _fmt(r.stationarity_sq_l1),
                _fmt(r.alpha),
                _fmt(r.eta),
                "" if no_timing else _fmt(r.wall_ms),
            ]
        )
    return buf.getvalue()


def _execute_one(problem, algo: AlgorithmSpec, listed_seed: int, global_seed: int, out: str, no_timing: bool):
    run_seed = rng.derive_seed(global_seed, algo.tag, listed_seed)
    filename = f"{algo.tag}_{listed_seed}.csv"
    entry = {
        "algorithm": algo.tag,
        "seed": listed_seed,
        "run_seed": run_seed,
        "trace_file": filename,
    }
    try:
        cfg = RunConfig(
            T=algo.T,
            batch=algo.batch,
            eta_base=algo.eta,
            nu=algo.nu,
            seed=run_seed,
            algorithm=algo.tag,
            stepsize_variant="constant" if algo.variant == "constant" else None,
            stationarity_eval_period=algo.stationarity_eval_period,
        )
        trace = _RUNNERS[algo.tag](problem, cfg)
        _atomic_write(os.path.join(out, filename), _trace_csv_text(trace.records, no_timing))
    except Exception as exc:
        entry["status"] = "failed"
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry, None
    stationarities = [r.stationarity_sq_l1 for r in trace.records if r.stationarity_sq_l1 is not None]
    entry.update(
        status="ok",
        final_objective=trace.records[-1].objective,
        final_stationarity=stationarities[-1] if stationarities else None,
        mean_stationarity=float(np.mean(stationarities)) if stationarities else None,
        total_oracle_calls=trace.records[-1].oracle_calls,
        sampled_iteration=trace.sampled_index,
    )
    return entry, np.array([r.objective for r in trace.records])


def _mean_curve_text(curves: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iter", "objective_mean", "objective_std"])
    mean = np.mean(curves, axis=0)
    std = np.std(curves, axis=0)
    for t in range(curves.shape[1]):
        writer.writerow([t + 1, _fmt(mean[t]), _fmt(std[t])])
    return buf.getvalue()


def execute(spec: RunSpec, jobs: int = 1, no_timing: bool = False, out_dir: str | None = None) -> int:
    """Run every (algorithm, seed) pair; return 0 iff all runs succeeded.

    Failures of individual runs are recorded in summary.json with status
    "failed" and do not stop the remaining runs.  When the problem itself
    cannot be built, one line goes to stderr, nothing is written and the
    result is 1.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    out = out_dir if out_dir is not None else spec.output_dir
    env_seed = _env_seed()
    global_seed = env_seed if env_seed is not None else spec.problem["seed"]
    try:
        problem = problem_from_descriptor(spec.problem)
    except Exception as exc:
        print(f"problem build failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    os.makedirs(out, exist_ok=True)
    tasks = [(algo, seed) for algo in spec.algorithms for seed in spec.seeds]
    results = {}
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_execute_one, problem, algo, seed, global_seed, out, no_timing): (
                    algo.tag,
                    seed,
                )
                for algo, seed in tasks
            }
            for future in as_completed(futures):
                results[futures[future]] = future.result()
    else:
        for algo, seed in tasks:
            results[(algo.tag, seed)] = _execute_one(problem, algo, seed, global_seed, out, no_timing)

    entries = [results[(algo.tag, seed)][0] for algo, seed in tasks]
    if spec.emit_plot_data:
        for algo in spec.algorithms:
            curves = [
                results[(algo.tag, seed)][1]
                for seed in spec.seeds
                if results[(algo.tag, seed)][1] is not None
            ]
            if curves:
                path = os.path.join(out, f"{algo.tag}_mean_curve.csv")
                _atomic_write(path, _mean_curve_text(np.vstack(curves)))
    summary = {"config": spec.raw, "global_seed": global_seed, "runs": entries}
    _atomic_write(os.path.join(out, "summary.json"), json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if all(e["status"] == "ok" for e in entries) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zomirror", description="zeroth-order mirror-descent benchmark runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a run spec")
    run_parser.add_argument("--config", required=True, help="path to a JSON run spec")
    run_parser.add_argument("--jobs", type=int, default=1, help="parallel runs (threads)")
    run_parser.add_argument("--no-timing", action="store_true", help="leave the wall_ms column empty")
    run_parser.add_argument("--out", default=None, help="override the spec's output directory")

    validate_parser = sub.add_parser("validate", help="parse a run spec without executing it")
    validate_parser.add_argument("--config", required=True, help="path to a JSON run spec")

    args = parser.parse_args(argv)
    try:
        spec = parse_run_spec(args.config)
    except Exception as exc:
        print(f"invalid run spec: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(
            f"ok: {spec.problem['kind']} problem, {len(spec.algorithms)} algorithm(s), "
            f"{len(spec.seeds)} seed(s)"
        )
        return 0

    if args.jobs < 1:
        print("jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        _env_seed()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    return execute(spec, jobs=args.jobs, no_timing=args.no_timing, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
