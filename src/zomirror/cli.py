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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .core import _MAX_BYTES, ElasticNet, Problem, _check_count, _is_integer
from .problems import (
    _DEFAULT_N_CLASSES,
    check_classifier,
    check_design,
    check_explanation_mode,
    make_explanation_problem,
    make_sparse_regression,
    make_tiny_classifier,
)
from .sampling import check_batch_size
from .solvers import ALGORITHMS, RunConfig, run_algorithm

__all__ = [
    "RunSpec",
    "parse_run_spec",
    "problem_from_descriptor",
    "execute",
    "main",
]

TRACE_HEADER = ("iter", "oracle_calls", "objective", "stationarity_sq_l1", "alpha", "eta", "wall_ms")

# Looked up per run, so a caller may wrap the runners in place.
_RUNNERS = {tag: functools.partial(run_algorithm, algorithm=tag) for tag in ALGORITHMS}


@dataclass(frozen=True)
class RunSpec:
    """Validated run specification: one RunConfig per algorithm entry, its
    seed set per run; ``raw`` is the parsed JSON document."""

    problem: dict
    algorithms: tuple[RunConfig, ...]
    seeds: tuple[int, ...]
    output_dir: str
    emit_plot_data: bool
    raw: dict


def _check_keys(doc: dict, required: set, optional: set, context: str) -> None:
    for key in doc:
        if key not in required and key not in optional:
            raise ValueError(f"unknown key {key!r} in {context}")
    for key in required:
        if key not in doc:
            raise ValueError(f"missing key {key!r} in {context}")


def _as_number(doc: dict, key: str, context: str) -> float:
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{context}: {key!r} must be a number")
    return float(v)


def _check_design_size(rows: int, d: int, what: str) -> None:
    if 8 * rows * d > _MAX_BYTES:
        raise ValueError(
            f"problem: the {what} x d = {rows} x {d} matrix needs {8 * rows * d:,} bytes, "
            f"above the limit of {_MAX_BYTES:,}"
        )


def _builder_check(check, *args, **kwargs) -> None:
    """A problem builder's own check on spec values, its message prefixed."""
    try:
        check(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"problem: {exc}") from None


def _parse_problem(doc: dict) -> dict:
    """The problem descriptor; its values meet the checks its builders make."""
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
        _as_number(doc, "noise_sigma", "problem")
        _builder_check(check_design, doc["d"], doc["n_samples"], doc["k"], doc["noise_sigma"], doc["loss"])
        _check_design_size(doc["n_samples"], doc["d"], "n_samples")
    elif kind == "explanation":
        _check_keys(doc, {"kind", "seed", "d", "mode"}, {"n_classes", "gamma1", "gamma2"}, "problem")
        n_classes = doc.get("n_classes", _DEFAULT_N_CLASSES)
        _builder_check(check_classifier, doc["d"], n_classes)
        _check_design_size(n_classes, doc["d"], "n_classes")
        _builder_check(check_explanation_mode, doc["mode"])
    else:
        raise ValueError(f"problem: unknown kind {kind!r}")
    if not _is_integer(doc["seed"]):
        raise ValueError("problem: 'seed' must be an integer")
    weights = {key: _as_number(doc, key, "problem") for key in ("gamma1", "gamma2") if key in doc}
    _builder_check(ElasticNet, **weights)
    return doc


def _parse_algorithm(doc: dict, index: int, d: int) -> RunConfig:
    """One algorithm entry as a RunConfig, which checks every value it
    holds, and whose batch meets check_batch_size at the problem's d; a
    key the entry leaves out keeps RunConfig's default."""
    context = f"algorithms[{index}]"
    if not isinstance(doc, dict):
        raise ValueError(f"{context} must be an object")
    _check_keys(doc, {"tag", "T", "m"}, {"eta", "nu", "variant", "stationarity_eval_period"}, context)
    if doc["tag"] is None:  # RunConfig reads None as "no tag yet"
        raise ValueError(f"{context}: unknown algorithm tag None")
    fields = {"algorithm": doc["tag"], "T": doc["T"], "batch": doc["m"]}
    if "eta" in doc:
        fields["eta_base"] = _as_number(doc, "eta", context)
    if doc.get("nu") is not None:
        fields["nu"] = _as_number(doc, "nu", context)
    if "variant" in doc:
        fields["stepsize_variant"] = doc["variant"]
    if "stationarity_eval_period" in doc:
        fields["stationarity_eval_period"] = doc["stationarity_eval_period"]
    try:
        cfg = RunConfig(**fields)
        check_batch_size(cfg.batch, d)
        return cfg
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from None


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} overflows to {value}")
    return value


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_run_spec(path: str) -> RunSpec:
    """Parse and validate a JSON run spec; unknown or duplicate keys and
    non-finite numbers (NaN, Infinity, or literals that overflow) are
    errors."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(
            fh, object_pairs_hook=_unique_keys, parse_constant=_reject_constant, parse_float=_finite_float
        )
    if not isinstance(raw, dict):
        raise ValueError("run spec must be a JSON object")
    _check_keys(raw, {"problem", "algorithms", "seeds", "output_dir"}, {"emit_plot_data"}, "run spec")
    problem = _parse_problem(raw["problem"])
    algos_doc = raw["algorithms"]
    if not isinstance(algos_doc, list) or not algos_doc:
        raise ValueError("'algorithms' must be a nonempty list")
    algorithms = tuple(_parse_algorithm(doc, i, problem["d"]) for i, doc in enumerate(algos_doc))
    tags = [a.algorithm for a in algorithms]
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate algorithm tags would collide on output files")
    seeds_doc = raw["seeds"]
    if not isinstance(seeds_doc, list) or not seeds_doc:
        raise ValueError("'seeds' must be a nonempty list")
    if not all(_is_integer(s) for s in seeds_doc):
        raise ValueError("'seeds' entries must be integers")
    seeds = tuple(seeds_doc)
    if len(set(seeds)) != len(seeds):
        raise ValueError("duplicate seeds would collide on output files")
    output_dir = raw["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ValueError("'output_dir' must be a nonempty string")
    if "\0" in output_dir:
        raise ValueError("'output_dir' must not contain a NUL character")
    emit = raw.get("emit_plot_data", False)
    if not isinstance(emit, bool):
        raise ValueError("'emit_plot_data' must be a boolean")
    return RunSpec(
        problem=problem,
        algorithms=algorithms,
        seeds=seeds,
        output_dir=output_dir,
        emit_plot_data=emit,
        raw=raw,
    )


def problem_from_descriptor(doc: dict) -> Problem:
    """Build the Problem named by a validated problem descriptor; a weight
    the descriptor leaves out keeps the problem builder's default."""
    weights = {key: doc[key] for key in ("gamma1", "gamma2") if key in doc}
    if doc["kind"] == "sparse_regression":
        return make_sparse_regression(
            d=doc["d"],
            n_samples=doc["n_samples"],
            k=doc["k"],
            noise_sigma=doc["noise_sigma"],
            kind=doc["loss"],
            seed=doc["seed"],
            regularizer=ElasticNet(**weights),
        )
    d = doc["d"]
    seed = doc["seed"]
    classifier = make_tiny_classifier(d, doc.get("n_classes", _DEFAULT_N_CLASSES), seed)
    anchor = rng.stream("anchor", seed, d).uniform(0.05, 0.95, size=d)
    return make_explanation_problem(classifier, anchor, doc["mode"], **weights)


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


def _execute_one(problem, cfg: RunConfig, listed_seed: int, global_seed: int, out: str, no_timing: bool):
    run_seed = rng.derive_seed(global_seed, cfg.algorithm, listed_seed)
    filename = f"{cfg.algorithm}_{listed_seed}.csv"
    entry = {
        "algorithm": cfg.algorithm,
        "seed": listed_seed,
        "run_seed": run_seed,
        "trace_file": filename,
    }
    try:
        trace = _RUNNERS[cfg.algorithm](problem, replace(cfg, seed=run_seed))
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
    cannot be built, or the output directory cannot be created, one line
    goes to stderr, no run starts and the result is 1; when a mean curve
    or summary.json cannot be written after the runs, the other outputs
    are still written, one line for the first failure goes to stderr and
    the result is 1.  The only ValueError it raises, before any of that,
    is for a ``jobs`` that is not a positive integer or a ZOMIRROR_SEED
    that is not an integer, in that order.
    """
    _check_count("jobs", jobs)
    out = out_dir if out_dir is not None else spec.output_dir
    env_seed = _env_seed()
    global_seed = env_seed if env_seed is not None else spec.problem["seed"]
    try:
        problem = problem_from_descriptor(spec.problem)
    except Exception as exc:
        print(f"problem build failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"cannot create output directory: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    tasks = [(cfg, seed) for cfg in spec.algorithms for seed in spec.seeds]

    def run(task):
        cfg, seed = task
        return _execute_one(problem, cfg, seed, global_seed, out, no_timing)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(task) for task in tasks]

    entries = [entry for entry, _ in results]
    outputs = []
    if spec.emit_plot_data:
        for cfg in spec.algorithms:
            curves = [curve for (c, _), (_, curve) in zip(tasks, results) if c is cfg and curve is not None]
            if curves:
                outputs.append((f"{cfg.algorithm}_mean_curve.csv", _mean_curve_text(np.vstack(curves))))
    summary = {"config": spec.raw, "global_seed": global_seed, "runs": entries}
    outputs.append(("summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"))
    # Every write is attempted, so one that fails drops no other output.
    failed = None
    for filename, text in outputs:
        try:
            _atomic_write(os.path.join(out, filename), text)
        except OSError as exc:
            failed = failed or exc
    if failed is not None:
        print(f"cannot write output: {type(failed).__name__}: {failed}", file=sys.stderr)
        return 1
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

    try:
        return execute(spec, jobs=args.jobs, no_timing=args.no_timing, out_dir=args.out)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
