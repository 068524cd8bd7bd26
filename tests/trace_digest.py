"""Print SHA-256 digests of a fixed set of solver outputs, to compare two checkouts.

Run from the repository root:

    python3 tests/trace_digest.py                   # the package under ./src
    python3 tests/trace_digest.py --src OTHER/src   # another checkout's package

Equal digests for two checkouts mean byte-identical outputs on this set:

* ``traces``: 80 solver runs: all four methods on sparse regression at
  d in {1, 50, 500, 2000} with both losses, boxed and unboxed (64), on PP
  and PN explanations (8), and on an unboxed quadratic at two seeds (8).
  Some of the unboxed runs raise ``NumericError``.  Each run contributes
  its records (``wall_ms`` zeroed), the sampled index and point, the
  iterates and the tracking lists; a raising run contributes the message
  of the error that started the chain, so context added to a re-raised
  error does not change the digest.
* ``prox``: 3,000 random ``prox_composite`` calls (both elastic-net
  branches, no box and boxes that contain, straddle or exclude zero, eta
  over six decades, d up to 2000) and 200 ``lambert_w0`` calls on mixed
  arrays that hold the branch point.
* ``cli``: every file written by ``zomirror run --no-timing`` for
  ``configs/acceptance.json`` and a four-method PN explanation spec, each
  at ``--jobs 1`` and ``--jobs 2``.

The last line is one digest over all three.  This is a comparison tool,
not a test: it pins no hash, since any deliberate change of output moves
it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _root_message(exc: BaseException) -> str:
    while exc.__cause__ is not None:
        exc = exc.__cause__
    return f"{type(exc).__name__}: {exc}"


def _array_bytes(a) -> bytes:
    a = np.asarray(a)
    return repr((a.dtype.str, a.shape)).encode() + a.tobytes()


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

    return zm.Problem(
        dimension=c.size,
        oracle=oracle,
        exact_gradient=lambda x: x - c,
        mean_loss=lambda x: 0.5 * float((x - c) @ (x - c)),
        num_samples=40,
    )


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


def digest_traces(zm) -> tuple[str, int]:
    h = hashlib.sha256()
    raised = 0
    for label, problem, cfg, runner in trace_runs(zm):
        h.update(label.encode())
        try:
            with np.errstate(all="ignore"):
                trace = runner(problem, cfg)
        except zm.NumericError as exc:
            raised += 1
            h.update(_root_message(exc).encode())
            continue
        h.update(_trace_bytes(trace))
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


def digest_prox(zm) -> str:
    h = hashlib.sha256()
    gen = np.random.default_rng(20260)
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
        try:
            with np.errstate(all="ignore"):
                result = _array_bytes(zm.prox_composite(geo, x, g, eta, zm.ElasticNet(gamma1, gamma2), fs))
        except zm.NumericError as exc:
            result = _root_message(exc).encode()
        h.update(result)
    branch = -math.exp(-1.0)
    for _ in range(200):
        size = int(gen.integers(1, 17))
        z = np.concatenate([gen.uniform(branch, 1.0, size), 10.0 ** gen.uniform(-3, 300, size), [branch, 0.0]])
        gen.shuffle(z)
        with np.errstate(all="ignore"):
            h.update(_array_bytes(zm.lambert_w0(z)))
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


def digest_cli(zm) -> str:
    from zomirror import cli

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        pn_path = os.path.join(tmp, "pn.json")
        with open(pn_path, "w", encoding="utf-8") as fh:
            json.dump(PN_SPEC, fh)
        specs = (("acceptance", os.path.join(ROOT, "configs", "acceptance.json")), ("pn", pn_path))
        for name, path in specs:
            for jobs in (1, 2):
                out = os.path.join(tmp, f"{name}-{jobs}")
                rc = cli.main(["run", "--config", path, "--no-timing", "--jobs", str(jobs), "--out", out])
                h.update(f"{name} rc={rc}".encode())
                for filename in sorted(os.listdir(out)):
                    with open(os.path.join(out, filename), "rb") as fh:
                        h.update(filename.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the zomirror package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import zomirror as zm

    traces, raised = digest_traces(zm)
    sections = {"traces": traces, "prox": digest_prox(zm), "cli": digest_cli(zm)}
    print(f"package {os.path.dirname(zm.__file__)}")
    print(f"{raised} of the traced runs raised NumericError")
    for name, value in sections.items():
        print(f"{name:7s} {value}")
    total = hashlib.sha256("".join(sections.values()).encode()).hexdigest()
    print(f"total   {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
