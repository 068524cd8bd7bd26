"""Print the per-call cost of the calls around the oracle, to compare two checkouts.

Run from the repository root:

    python3 tests/fixed_cost.py                   # the package under ./src
    python3 tests/fixed_cost.py --src OTHER/src   # another checkout's package

At each shape (d, m) = (50, 8), (500, 32) and (2000, 16) it times, in
microseconds per call, the best of 7 repeats of a loop that takes about
0.05 s (a quarter of the loop ``timeit.Timer.autorange`` picks).  The
estimator rows also run at (20000, 8), whose signs span several blocks,
and print beside their time the minor page faults per call of this
process (``ru_minflt``) over the 7 repeats.  The repeats follow the
auto-ranging loops, which warm the heap up, so an estimate whose arrays
go back to the operating system after each call shows as faults:

* ``prox 1-D``: ``prox_composite`` at one point, elastic net with both
  weights set and a box, so the magnitude solve and the clamp both run;
* ``prox 1-D heavy``: the same with a quadratic weight gamma2/(eta*d) of
  1000, whose every active coordinate once took the log-space Lambert
  solve past the overflow guard;
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
import resource
import sys
import timeit

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHAPES = [(50, 8), (500, 32), (2000, 16)]
ESTIMATOR_SHAPES = SHAPES + [(20000, 8)]
ESTIMATORS = ("minibatch", "paired")
REPEATS = 7


def _best_us(call) -> tuple[float, float]:
    """Best of REPEATS auto-ranged loops of ``call``, in microseconds per
    call, and the minor page faults per call over all REPEATS loops."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    number = max(1, number // 4)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    best = min(timer.repeat(REPEATS, number))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best / number * 1e6, faults / (REPEATS * number)


def _cell(name: str, calls: dict, shape: tuple) -> str:
    """One table cell: us per call, with faults per call on estimator rows."""
    if name in ESTIMATORS:
        us, faults = _best_us(calls[name])
        return f"{us:>11.2f} {faults:>6.2f}"
    return f"{_best_us(calls[name])[0]:>18.2f}" if shape in SHAPES else f"{'':>18}"


def _calls(zm, d: int, m: int) -> dict:
    gen = np.random.default_rng(d * 1000 + m)
    geo = zm.MirrorGeometry(d)
    reg = zm.ElasticNet(1e-3, 1e-2)
    heavy = zm.ElasticNet(1e-3, 1000.0 * 2.0 * d)
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
        "prox 1-D heavy": lambda: zm.prox_composite(geo, x, g, 2.0, heavy, box),
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
    print(f"{'call':<22}" + "".join(f"{f'd={d} m={m}':>18}" for d, m in ESTIMATOR_SHAPES))
    print(f"{'':<22}" + f"{'us  faults':>18}" * len(ESTIMATOR_SHAPES) + "   (per call)")
    table = [_calls(zm, d, m) for d, m in ESTIMATOR_SHAPES]
    for name in table[0]:
        print(f"{name:<22}" + "".join(_cell(name, calls, shape) for calls, shape in zip(table, ESTIMATOR_SHAPES)))
    print(f"prox stack rows: {', '.join(str(max(1, 8192 // d)) for d, _ in SHAPES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
