"""Property test: mutated run specs are accepted or refused cleanly, and an accepted one runs.

Each example applies one to three mutations to ``configs/acceptance.json``
at a key of the spec, of its problem, of an algorithm entry or at a seed:
a value of the wrong type, a bool, a float where a count belongs, zero, a
negative or a huge number, null, a NaN or infinity literal, the value
nested in an object or a list, a deleted key, an extra key or a duplicated
one, or an extreme value that the key accepts.  ``zomirror validate``
must exit 0, or exit 2 with exactly one line on stderr and no traceback.
A spec it accepts, shrunk to T <= 3, m <= 2 and two seeds, must run to
exit 0, or to exit 1 where every failed run failed with a NumericError;
its problem is run only while its design has at most 20,000 entries, so
the test stays small.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zomirror.cli import main

ACCEPTANCE = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.json")


class Literal(str):
    """A bare JSON constant: NaN, Infinity or -Infinity."""


VALUES = st.sampled_from(
    ["text", "", True, False, None, 0, -1, -0.5, 2.5, 3.0, 10**12, 10**30, 1e308, -1e308, 5e-324]
    + [Literal("NaN"), Literal("Infinity"), Literal("-Infinity"), [], {}]
).map(copy.deepcopy)
# Extreme values that the key accepts, so that some mutated specs run.
EXTREMES = {
    "T": [1, 2, 10**6],
    "m": [1, 3],
    "eta": [1e-300, 1e300, 1e308],
    "nu": [1e-300, 1e300],
    "variant": ["constant", "adaptive"],
    "stationarity_eval_period": [1, 7, 10**6],
    "seed": [-1, 2**63, 10**30],
    "d": [1, 2],
    "n_samples": [1, 2],
    "k": [1],
    "noise_sigma": [0, 1e300],
    "gamma1": [0, 1e300],
    "gamma2": [0, 5e-324, 1e300],
}


class Pairs(list):
    """A JSON object as its (key, value) pairs, so a key can repeat."""


def as_pairs(value):
    if isinstance(value, dict):
        return Pairs([key, as_pairs(v)] for key, v in value.items())
    if isinstance(value, list):
        return [as_pairs(v) for v in value]
    return value


def dump(value) -> str:
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    if isinstance(value, Literal):
        return str(value)
    return json.dumps(value)


def objects(doc: Pairs) -> list:
    """Every object of the spec that a mutation can reach, as (kind, object)."""
    found = [("spec", doc)]
    for key, value in doc:
        if key == "problem" and isinstance(value, Pairs):
            found.append(("problem", value))
        elif key == "algorithms" and isinstance(value, list):
            found += [("entry", v) for v in value if isinstance(v, Pairs)]
    return found


# The keys an extreme value goes to, per kind of object; in the spec
# itself, "seed" stands for one of its seeds.
EXTREME_KEYS = {
    "spec": ["seed"],
    "problem": ["seed", "d", "n_samples", "k", "noise_sigma", "gamma1", "gamma2"],
    "entry": ["T", "m", "eta", "nu", "variant", "stationarity_eval_period"],
}


def put(target: Pairs, key: str, value) -> None:
    slots = [pair for pair in target if pair[0] == key]
    if slots:
        slots[0][1] = value
    else:
        target.append([key, value])


@st.composite
def mutated_specs(draw):
    with open(ACCEPTANCE, encoding="utf-8") as fh:
        doc = as_pairs(json.load(fh))
    for _ in range(draw(st.integers(1, 3))):
        kind, target = draw(st.sampled_from(objects(doc)))
        op = draw(st.sampled_from(["extreme", "extreme", "extreme", "set", "nest", "delete", "extra", "duplicate"]))
        if op == "extreme" or kind == "spec" and op == "set":
            key = draw(st.sampled_from(EXTREME_KEYS[kind]))
            value = draw(st.sampled_from(EXTREMES[key]) if op == "extreme" else VALUES)
            seeds = next((v for k, v in doc if k == "seeds"), None)
            if kind != "spec":
                put(target, key, value)
            elif type(seeds) is list and seeds:
                seeds[draw(st.integers(0, len(seeds) - 1))] = value
            continue
        key = draw(st.sampled_from([k for k, _ in target] + ["nu", "variant", "gamma2", "zz"]))
        slots = [pair for pair in target if pair[0] == key]
        if op == "delete" and slots:
            target.remove(slots[0])
        elif op == "duplicate" and slots:
            target.append([key, draw(st.one_of(st.just(slots[0][1]), VALUES))])
        elif op == "extra":
            target.append(["zz", draw(VALUES)])
        elif op == "nest" and slots:
            slots[0][1] = draw(st.sampled_from([Pairs([["value", slots[0][1]]]), [slots[0][1]]]))
        else:
            put(target, key, draw(VALUES))
    return dump(doc)


def cli(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def shrunk(text: str):
    """The accepted spec at T <= 3, m <= 2 and two seeds, or None when its
    design is too large to run here."""
    doc = json.loads(text)
    problem = doc["problem"]
    rows = problem.get("n_samples", problem.get("n_classes", 3))
    if problem["d"] * rows > 20_000:
        return None
    for entry in doc["algorithms"]:
        entry["T"], entry["m"] = min(entry["T"], 3), min(entry["m"], 2)
    doc["seeds"] = doc["seeds"][:2]
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_specs())
def test_mutated_spec_is_refused_in_one_line_or_runs(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = cli(["validate", "--config", path])
        assert code in (0, 2), (code, err)
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert "Traceback" not in err
            return
        small = shrunk(text)
        if small is None:
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(small)
        out = os.path.join(tmp, "out")
        code, err = cli(["run", "--config", path, "--no-timing", "--out", out])
        assert code in (0, 1), (code, err)
        if code == 1:
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                runs = json.load(fh)["runs"]
            errors = [run["error"] for run in runs if run["status"] != "ok"]
            assert errors and all(e.startswith("NumericError: ") for e in errors), errors
