"""Print the per-call cost of the calls around the oracle, to compare two checkouts.

Run from the repository root:

    python3 tests/fixed_cost.py                   # the package under ./src
    python3 tests/fixed_cost.py --src OTHER/src   # another checkout's package

At each shape (d, m) = (50, 8), (500, 32) and (2000, 16) it times, in
microseconds per call, the best of 7 repeats of a loop that takes about
0.05 s (a quarter of the loop ``timeit.Timer.autorange`` picks):

* ``prox 1-D``: ``prox_composite`` at one point, elastic net with both
  weights set and a box, so the Lambert-W solve and the clamp both run;
* ``prox stack``: the same on a stack of 8192 // d rows, one gradient-map
  chunk of the run loop's evaluation, one eta per row;
* ``minibatch`` and ``paired``: ``minibatch_gradient`` and
  ``paired_storm_estimates`` with batch m and an oracle that returns 0.0,
  so only the estimator's own cost is left;
* ``stepsize``: ``stepsize_update`` under the mirror-descent rule;
* ``contains`` and ``clamp``: ``FeasibleSet.contains`` and
  ``FeasibleSet.clamp`` of the box at one point.

Inputs come from a fixed seed, so two checkouts time the same calls.
Timings follow the host's load: compare two checkouts by running this
tool on both, alternately, on the same machine.  This is a timing tool,
not a test.
"""

from __future__ import annotations

import argparse
import os
import sys
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHAPES = [(50, 8), (500, 32), (2000, 16)]
REPEATS = 7


def _best_us(call) -> float:
    """Best of REPEATS auto-ranged loops of ``call``, in microseconds per call."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    number = max(1, number // 4)
    return min(timer.repeat(REPEATS, number)) / number * 1e6


def _calls(zm, d: int, m: int) -> dict:
    gen = np.random.default_rng(d * 1000 + m)
    geo = zm.MirrorGeometry(d)
    reg = zm.ElasticNet(1e-3, 1e-2)
    box = zm.FeasibleSet.box(-np.ones(d), np.ones(d))
    x = box.clamp(0.1 * gen.standard_normal(d))
    g = gen.standard_normal(d)
    y = zm.prox_composite(geo, x, g, 2.0, reg, box)
    k = max(1, 8192 // d)
    xs = box.clamp(0.1 * gen.standard_normal((k, d)))
    gs = gen.standard_normal((k, d))
    etas = 10.0 ** gen.uniform(-1.0, 1.0, k)
    problem = zm.Problem(dimension=d, oracle=lambda point, xi: 0.0)
    cfg = zm.EstimatorConfig(nu=1e-3, batch=m)
    rule = zm.solvers._md_alpha
    return {
        "prox 1-D": lambda: zm.prox_composite(geo, x, g, 2.0, reg, box),
        "prox stack": lambda: zm.prox_composite(geo, xs, gs, etas, reg, box),
        "minibatch": lambda: zm.minibatch_gradient(problem, x, cfg, (7, 1)),
        "paired": lambda: zm.paired_storm_estimates(problem, x, y, cfg, (7, 1)),
        "stepsize": lambda: zm.stepsize_update(x, y, 1.0, 0.5, rule, 3, m),
        "contains": lambda: box.contains(x),
        "clamp": lambda: box.clamp(y),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding the zomirror package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import zomirror as zm

    print(f"package {os.path.dirname(os.path.abspath(zm.__file__))}")
    print(f"{'call':<22}" + "".join(f"{f'd={d} m={m}':>16}" for d, m in SHAPES) + "   (us per call)")
    table = [_calls(zm, d, m) for d, m in SHAPES]
    for name in table[0]:
        print(f"{name:<22}" + "".join(f"{_best_us(calls[name]):>16.2f}" for calls in table))
    print(f"prox stack rows: {', '.join(str(max(1, 8192 // d)) for d, _ in SHAPES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
