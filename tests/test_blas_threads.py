"""A run's trajectory does not depend on the BLAS thread count.

Two child processes, one at OPENBLAS_NUM_THREADS=1 and one at 2, each
print a digest of the trajectories (iterates, sampled index and point,
oracle calls, alpha and eta) of all four algorithms on sparse regression
and on a PN explanation, at d = 20,000, past the length where OpenBLAS
splits a dot product across threads, and at d = 500.  The environment of
the children is the only thing set.  Run as a script, this file prints
the digest of its own process.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np

from zomirror import (
    ALGORITHMS,
    RunConfig,
    make_explanation_problem,
    make_sparse_regression,
    make_tiny_classifier,
    run_algorithm,
)
from zomirror import rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _problems(d: int):
    regression = make_sparse_regression(d, 50, 5, 0.1, "least_squares", seed=1)
    yield dataclasses.replace(regression, start_point=np.full(d, 0.3))
    anchor = rng.stream("thread-test", d).uniform(0.05, 0.95, size=d)
    yield make_explanation_problem(make_tiny_classifier(d, 3, seed=4), anchor, "PN")


def trajectory_digest() -> str:
    h = hashlib.sha256()
    for d in (20_000, 500):
        for problem in _problems(d):
            for tag in ALGORITHMS:
                trace = run_algorithm(problem, RunConfig(T=4, batch=2, seed=3), tag)
                h.update(repr([(r.iteration, r.oracle_calls, r.alpha, r.eta) for r in trace.records]).encode())
                h.update(repr(trace.sampled_index).encode())
                for x in [*trace.iterates, trace.sampled_point]:
                    h.update(x.tobytes())
    return h.hexdigest()


def test_trajectories_equal_at_one_and_two_blas_threads():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


if __name__ == "__main__":
    print(trajectory_digest())
