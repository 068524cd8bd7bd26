"""zomirror benchmark: one workload per process, end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload lsq-d500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run repeats whole rounds, each after a fresh set-up, until ``--seconds``
have passed and at least forty solver runs are done.  It checks every
round's outputs and prints one JSON object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer split of the traced ones.  ``--workload all`` runs each workload
in a child process of its own and prints a table of all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("lsq-d500", "robust-d2000", "cli-explain")
MIN_RUNS = 40  # the p75 tail then has ten runs beyond it
RUN_CAP_S = 150.0  # stop adding rounds here even short of MIN_RUNS
CHILD_TIMEOUT_S = 900

clock = time.perf_counter

# Typical time of one calibration burst on the machine the benchmark was
# tuned on; see ``calibrate`` and ``measure``.
CALIBRATION_REF_S = 0.03


def calibrate() -> float:
    """Time a fixed burst shaped like the estimator's hot path.

    The host this benchmark was tuned on shares its cores with other
    machines, and its speed drifts by 10-20% over minutes.  The burst does
    what a probe draw does (hash a key, build a Philox generator, draw signs,
    take a dot product) with numpy and the standard library only, so its
    time follows the machine and nothing in zomirror.
    """
    a = np.linspace(-1.0, 1.0, 500)
    acc = 0.0
    start = clock()
    for i in range(700):
        key = int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:16], "little")
        signs = 2.0 * np.random.Generator(np.random.Philox(key=key)).integers(0, 2, size=500) - 1.0
        acc += float(a @ signs)
    elapsed = clock() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration burst went wrong")
    return elapsed


def make_workload(name: str, seed: int, out_root: str):
    import workloads

    if name == "lsq-d500":
        return workloads.LeastSquares(seed)
    if name == "robust-d2000":
        return workloads.RobustRegression(seed)
    return workloads.CliExplain(seed, out_root)


def time_setup(workload, adopt: bool = False) -> float:
    """Time one fresh import of zomirror plus building the workload's problem.

    Only the first set-up is kept (``adopt``); for the later ones the
    modules the rounds use, with their counters, are put back afterwards.
    """
    live = {n: m for n, m in sys.modules.items() if n == "zomirror" or n.startswith("zomirror.")}
    for name in live:
        del sys.modules[name]
    start = clock()
    built = workload.setup()
    elapsed = clock() - start
    if adopt:
        source = sys.modules["zomirror"].__file__
        if not os.path.abspath(source).startswith(SRC + os.sep):
            raise RuntimeError(f"imported zomirror from {source}, not from {SRC}")
        workload.adopt(built)
    else:
        for name in [n for n in sys.modules if n == "zomirror" or n.startswith("zomirror.")]:
            del sys.modules[name]
        sys.modules.update(live)
    return elapsed


@dataclass
class Round:
    """What one round left behind, timed as it ran (unscaled)."""

    setup_s: float
    wall_s: float
    traced: bool
    run_s: list
    oracle_calls: int
    spans: dict
    files_written: int
    bytes_written: int


def measure(workload, seconds: float, trace: bool) -> tuple[list, list, int, int]:
    """Repeat whole rounds; with ``trace`` every second round is traced.

    Returns the rounds, each round's speed scale, and the solver runs
    attempted and failed.  Calibration bursts bracket every round, and a
    round's scale is CALIBRATION_REF_S over the mean of its two bursts.
    """
    rec = workload.rec
    bursts = [calibrate()]
    time_setup(workload, adopt=True)
    workload.install()
    rounds: list[Round] = []
    attempted = failed = 0
    started = clock()
    while True:
        traced = trace and len(rounds) % 2 == 1
        setup_s = time_setup(workload)
        if traced:
            rec.start_tracing(workload.traces_cli)
        workload.prepare_round(len(rounds))
        start = clock()
        workload.round()
        wall_s = clock() - start
        spans = {}
        if traced:
            rec.stop_tracing()
            spans = rec.take_spans()
        before = len(workload.outcomes)
        round_attempted, round_failed = workload.finish_round()
        new = workload.outcomes[before:]
        bursts.append(calibrate())
        rounds.append(Round(
            setup_s, wall_s, traced, [o.seconds for o in new], sum(o.oracle_calls for o in new), spans,
            workload.files_written, workload.bytes_written,
        ))
        attempted += round_attempted
        failed += round_failed
        elapsed = clock() - started
        if elapsed >= seconds and (attempted >= MIN_RUNS or elapsed >= RUN_CAP_S):
            break
    workload.finish_checks()
    scales = [2.0 * CALIBRATION_REF_S / (a + b) for a, b in zip(bursts, bursts[1:])]
    return rounds, scales, attempted, failed


def end_to_end(workload, rounds: list, scales: list) -> dict:
    runs = [t * k for r, k in zip(rounds, scales) for t in r.run_s]
    if len(runs) < MIN_RUNS:
        print(f"warning: {len(runs)} solver runs; run_s_tail (p75) has fewer than ten beyond it", file=sys.stderr)
    return {
        "setup_s": (float(np.median([r.setup_s * k for r, k in zip(rounds, scales)])), "s"),
        "run_s_p50": (float(np.median(runs)), "s"),
        "run_s_tail": (float(np.percentile(runs, 75)), "s"),
        "wall_s": (float(np.median([r.wall_s * k for r, k in zip(rounds, scales)])), "s"),
        "oracle_calls_per_s": (sum(r.oracle_calls for r in rounds) / sum(runs), "1/s"),
        "calls_to_target": (workload.calls_to_target(), "calls"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, rounds: list, scales: list) -> dict:
    """Per traced round: busy and self times per layer, counts, overhead."""
    spans: dict[str, list] = {}
    traced, untraced = [], []
    for r, k in zip(rounds, scales):
        (traced if r.traced else untraced).append(r.wall_s * k)
        for layer, (calls, total, own) in r.spans.items():
            if own < -1e-9:
                raise RuntimeError(f"negative self time {own} in layer {layer}")
            row = spans.setdefault(layer, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total * k
            row[2] += own * k
    n = len(traced)

    def calls(*layers):
        return sum(spans.get(layer, (0, 0.0, 0.0))[0] for layer in layers) / n

    def busy(*layers):
        return sum(spans.get(layer, (0, 0.0, 0.0))[1] for layer in layers) / n

    def own(*layers):
        return sum(spans.get(layer, (0, 0.0, 0.0))[2] for layer in layers) / n

    cli = workload.traces_cli
    run_sum = busy("solvers.run") if cli else 0.0
    execute = float(np.mean(traced)) if cli else 0.0
    written = [r for r in rounds if r.traced]
    return {
        "rng.streams": (calls("rng.stream"), "count"),
        "rng.stream_s": (busy("rng.stream"), "s"),
        "sampling.estimates": (calls("sampling.minibatch", "sampling.paired"), "count"),
        "sampling.self_s": (own("sampling.minibatch", "sampling.paired"), "s"),
        "sampling.paired_s": (busy("sampling.paired"), "s"),
        "problems.oracle_calls": (calls("problems.oracle"), "count"),
        "problems.oracle_s": (busy("problems.oracle"), "s"),
        "problems.eval_calls": (calls("problems.eval"), "count"),
        "problems.eval_s": (busy("problems.eval"), "s"),
        "core.gradient_map_s": (busy("core.gradient_map"), "s"),
        "mirror.prox_calls": (calls("mirror.prox"), "count"),
        "mirror.prox_s": (busy("mirror.prox"), "s"),
        "solvers.self_s": (own("solvers.run"), "s"),
        "cli.io_s": (busy("cli.io"), "s"),
        "cli.files_written": (sum(r.files_written for r in written) / n, "count"),
        "cli.bytes_written": (sum(r.bytes_written for r in written) / n, "bytes"),
        "cli.run_sum_s": (run_sum, "s"),
        "cli.execute_s": (execute, "s"),
        "cli.parallelism": (run_sum / execute if cli else 0.0, "ratio"),
        "bench.trace_overhead_s": (float(np.median(traced) - np.median(untraced)), "s"),
    }


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "zomirror")):
        print(f"no zomirror sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        import workloads

        workload = make_workload(args.workload, args.seed, out_root)
        try:
            rounds, scales, attempted, failed = measure(workload, args.seconds, bool(args.trace))
            if args.trace:
                workloads.check_prox_samples(workload.rec.prox_samples)
        except workloads.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(OUT_ROOT)
        except OSError:  # another run still has files there
            pass
    summarize = per_layer if args.trace else end_to_end
    metrics = summarize(workload, rounds, scales)
    as_timed = summarize(workload, rounds, [1.0] * len(rounds))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<13} {name:<24} {value:>14.6g} {unit:<6} (as timed: {as_timed[name][0]:.6g})")
    print(f"{args.workload:<13} {len(rounds)} rounds, speed scale median {statistics.median(scales):.4f} "
          f"(min {min(scales):.4f}, max {max(scales):.4f})")
    print(f"{args.workload:<13} solver runs attempted {attempted}, failed {failed}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name} failed with exit code {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
