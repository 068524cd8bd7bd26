"""Run-spec parsing, execution artifacts, and the command line."""

import csv
import json
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import zomirror
from zomirror import cli, rng
from zomirror.cli import (
    TRACE_HEADER,
    execute,
    main,
    parse_run_spec,
    problem_from_descriptor,
)
from zomirror.core import ElasticNet
from zomirror.problems import check_classifier, check_design, check_explanation_mode
from zomirror.solvers import ALGORITHM_TABLE, ALGORITHMS, RunConfig, run_zo_ada_expgrad


def base_spec(out_dir, **overrides):
    doc = {
        "problem": {
            "kind": "sparse_regression",
            "seed": 3,
            "d": 10,
            "n_samples": 12,
            "k": 3,
            "noise_sigma": 0.1,
            "loss": "least_squares",
            "gamma1": 0.01,
            "gamma2": 0.001,
        },
        "algorithms": [
            {"tag": "zo-ada-expgrad", "T": 15, "m": 2, "eta": 2.0},
            {"tag": "zo-psgd", "T": 15, "m": 2, "eta": 2.0, "variant": "constant"},
        ],
        "seeds": [0, 1],
        "output_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseRunSpec:
    def test_round_trip(self, tmp_path):
        doc = base_spec(tmp_path / "out")
        doc["algorithms"][0]["stationarity_eval_period"] = 3
        spec = parse_run_spec(write_spec(tmp_path, doc))
        assert spec.problem["kind"] == "sparse_regression"
        assert [a.algorithm for a in spec.algorithms] == ["zo-ada-expgrad", "zo-psgd"]
        assert spec.algorithms[0].batch == 2
        assert spec.algorithms[0].nu is None
        assert spec.algorithms[0].stationarity_eval_period == 3
        assert spec.algorithms[1].stationarity_eval_period == 1
        assert spec.algorithms[1].stepsize_variant == "constant"
        assert spec.seeds == (0, 1)
        assert spec.emit_plot_data is False
        assert spec.raw == doc

    def test_unknown_top_level_key(self, tmp_path):
        doc = base_spec(tmp_path, algorith=[])
        with pytest.raises(ValueError, match="unknown key 'algorith' in run spec"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_unknown_algorithm_key(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["algorithms"][0]["bathc"] = 4
        with pytest.raises(ValueError, match=r"unknown key 'bathc' in algorithms\[0\]"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_missing_key(self, tmp_path):
        doc = base_spec(tmp_path)
        del doc["seeds"]
        with pytest.raises(ValueError, match="missing key 'seeds'"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_unknown_tag(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["algorithms"][0]["tag"] = "zo-sgd"
        with pytest.raises(ValueError, match="unknown algorithm tag"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_null_tag_rejected(self, tmp_path):
        # RunConfig.algorithm = None means "filled in by the runner", so a
        # null tag must fail at parse time, not as a late run failure.
        doc = base_spec(tmp_path)
        doc["algorithms"][0]["tag"] = None
        with pytest.raises(ValueError, match=r"algorithms\[0\]: unknown algorithm tag None"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_duplicate_tags(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["algorithms"][1]["tag"] = "zo-ada-expgrad"
        with pytest.raises(ValueError, match="duplicate algorithm tags"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_duplicate_seeds(self, tmp_path):
        doc = base_spec(tmp_path, seeds=[4, 4])
        with pytest.raises(ValueError, match="duplicate seeds"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_boolean_seed_rejected(self, tmp_path):
        doc = base_spec(tmp_path, seeds=[True])
        with pytest.raises(ValueError, match="must be integers"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_constant_variant_limited_to_supporting_tags(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["algorithms"][0] = {"tag": "zo-expstorm", "T": 5, "m": 1, "variant": "constant"}
        with pytest.raises(ValueError, match="no constant-stepsize variant"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_bad_variant_name(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["algorithms"][0]["variant"] = "warmup"
        with pytest.raises(ValueError, match="tag 'zo-ada-expgrad' has no warmup-stepsize variant"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_sparsity_exceeding_dimension(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["problem"]["k"] = 11
        with pytest.raises(ValueError, match=r"^problem: sparsity k must satisfy 1 <= k <= d$"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_unknown_problem_kind(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["problem"] = {"kind": "mnist", "seed": 0}
        with pytest.raises(ValueError, match="unknown kind"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_explanation_problem_keys(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["problem"] = {"kind": "explanation", "seed": 2, "d": 4, "mode": "PP"}
        spec = parse_run_spec(write_spec(tmp_path, doc))
        assert spec.problem["mode"] == "PP"
        doc["problem"]["mode"] = "PPP"
        with pytest.raises(ValueError, match="^problem: unknown explanation mode: 'PPP'$"):
            parse_run_spec(write_spec(tmp_path, doc))

    def test_nonpositive_eta_rejected(self, tmp_path):
        doc = base_spec(tmp_path)
        doc["algorithms"][0]["eta"] = 0.0
        with pytest.raises(ValueError, match=r"algorithms\[0\]: eta_base must be positive and finite"):
            parse_run_spec(write_spec(tmp_path, doc))


    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"seeds": [0, 1]', '"seeds": [0], "seeds": [5]', "seeds"),
            ('"T": 15', '"T": 15, "T": 3', "T"),
            ('"seed": 3', '"seed": 3, "seed": 3', "seed"),
        ],
        ids=["top level", "algorithm entry", "problem"],
    )
    def test_duplicate_key_rejected(self, tmp_path, capsys, old, new, key):
        # json.load alone keeps the last value of a repeated key.
        text = json.dumps(base_spec(tmp_path / "out"))
        assert old in text
        path = tmp_path / "spec.json"
        path.write_text(text.replace(old, new, 1))
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"invalid run spec: duplicate key {key!r}\n"

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e999"])
    def test_nonfinite_literals_rejected(self, tmp_path, literal):
        text = json.dumps(base_spec(tmp_path / "out")).replace('"eta": 2.0', f'"eta": {literal}', 1)
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="non-finite number|overflows"):
            parse_run_spec(str(path))


class TestProblemFromDescriptor:
    def test_sparse_regression_regularizer(self):
        doc = {
            "kind": "sparse_regression",
            "seed": 0,
            "d": 6,
            "n_samples": 5,
            "k": 2,
            "noise_sigma": 0.0,
            "loss": "least_squares",
            "gamma1": 0.25,
        }
        prob = problem_from_descriptor(doc)
        assert prob.dimension == 6
        assert prob.regularizer.gamma1 == 0.25
        assert prob.regularizer.gamma2 == 0.0

    def test_explanation_anchor_is_pinned_by_seed(self):
        doc = {"kind": "explanation", "seed": 2, "d": 4, "mode": "PP"}
        prob = problem_from_descriptor(doc)
        assert prob.start_point.tolist() == pytest.approx(
            [
                0.3358486164170525,
                0.34062560908140244,
                0.6728627613252515,
                0.3337091498881451,
            ],
            abs=1e-16,
        )
        assert prob.regularizer.gamma1 == 0.0625
        assert prob.exact_gradient is None

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "sparse_regression", "seed": 1, "d": 6, "n_samples": 5, "k": 2,
             "noise_sigma": 0.1, "loss": "robust_nonconvex", "gamma1": 0.01},
            {"kind": "explanation", "seed": 2, "d": 4, "mode": "PN", "gamma2": 0.5},
        ],
        ids=["sparse-regression", "explanation"],
    )
    def test_problem_pickles_with_its_hooks(self, doc):
        prob = problem_from_descriptor(doc)
        clone = pickle.loads(pickle.dumps(prob))
        x = np.linspace(0.05, 0.2, doc["d"])
        for xi in (0, 3, 2**63 - 1):
            assert clone.oracle(x, xi) == prob.oracle(x, xi)
        # The evaluation hooks take a stack of points, one per row.
        X = np.stack([x, 0.5 * x, x[::-1]])
        assert np.array_equal(clone.mean_loss(X), prob.mean_loss(X))
        if prob.exact_gradient is not None:
            assert np.array_equal(clone.exact_gradient(X), prob.exact_gradient(X))
        assert clone.regularizer == prob.regularizer
        assert clone.num_samples == prob.num_samples


class TestExecute:
    def test_writes_traces_and_summary(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_run_spec(write_spec(tmp_path, base_spec(out)))
        rc = execute(spec, no_timing=True)
        assert rc == 0
        names = sorted(os.listdir(out))
        assert names == [
            "summary.json",
            "zo-ada-expgrad_0.csv",
            "zo-ada-expgrad_1.csv",
            "zo-psgd_0.csv",
            "zo-psgd_1.csv",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["global_seed"] == 3
        assert summary["config"] == spec.raw
        assert [(e["algorithm"], e["seed"]) for e in summary["runs"]] == [
            ("zo-ada-expgrad", 0),
            ("zo-ada-expgrad", 1),
            ("zo-psgd", 0),
            ("zo-psgd", 1),
        ]
        for entry in summary["runs"]:
            assert entry["status"] == "ok"
            assert entry["total_oracle_calls"] == 2 * 2 * 15
            assert 1 <= entry["sampled_iteration"] <= 15
            assert entry["run_seed"] == rng.derive_seed(3, entry["algorithm"], entry["seed"])

    def test_trace_csv_shape_and_content(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_run_spec(write_spec(tmp_path, base_spec(out)))
        execute(spec, no_timing=True)
        rows = read_csv(out / "zo-ada-expgrad_0.csv")
        assert rows[0] == list(TRACE_HEADER)
        assert len(rows) == 16
        assert [r[0] for r in rows[1:]] == [str(t) for t in range(1, 16)]
        assert [r[1] for r in rows[1:]] == [str(4 * t) for t in range(1, 16)]
        assert all(r[6] == "" for r in rows[1:])
        # Objectives round-trip through %.17g: re-running the same seed
        # must give bit-identical floats.
        summary = json.loads((out / "summary.json").read_text())
        run_seed = summary["runs"][0]["run_seed"]
        prob = problem_from_descriptor(spec.problem)
        trace = run_zo_ada_expgrad(prob, RunConfig(T=15, batch=2, eta_base=2.0, seed=run_seed))
        parsed = [float(r[2]) for r in rows[1:]]
        assert parsed == [r.objective for r in trace.records]

    def test_wall_ms_present_without_no_timing(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_run_spec(write_spec(tmp_path, base_spec(out)))
        execute(spec)
        rows = read_csv(out / "zo-psgd_1.csv")
        assert all(r[6] != "" for r in rows[1:])

    def test_stationarity_blank_without_exact_gradient(self, tmp_path):
        doc = base_spec(tmp_path / "out")
        doc["problem"] = {"kind": "explanation", "seed": 1, "d": 3, "mode": "PN"}
        doc["algorithms"] = [{"tag": "zo-expstorm", "T": 8, "m": 2}]
        spec = parse_run_spec(write_spec(tmp_path, doc))
        assert execute(spec, no_timing=True) == 0
        rows = read_csv(tmp_path / "out" / "zo-expstorm_0.csv")
        assert all(r[3] == "" for r in rows[1:])

    def test_explicit_nu_equals_default(self, tmp_path):
        doc_a = base_spec(tmp_path / "a")
        doc_a["algorithms"] = [{"tag": "zo-ada-expgrad", "T": 5, "m": 2, "eta": 2.0}]
        doc_b = base_spec(tmp_path / "b")
        doc_b["algorithms"] = [
            {
                "tag": "zo-ada-expgrad",
                "T": 5,
                "m": 2,
                "eta": 2.0,
                "nu": 1.0 / (10.0 * math.sqrt(5.0)),
            }
        ]
        execute(parse_run_spec(write_spec(tmp_path, doc_a, "a.json")), no_timing=True)
        execute(parse_run_spec(write_spec(tmp_path, doc_b, "b.json")), no_timing=True)
        a = (tmp_path / "a" / "zo-ada-expgrad_0.csv").read_bytes()
        b = (tmp_path / "b" / "zo-ada-expgrad_0.csv").read_bytes()
        assert a == b

    def test_byte_identical_across_repeats_and_jobs(self, tmp_path):
        doc = base_spec(tmp_path / "x", emit_plot_data=True)
        spec_path = write_spec(tmp_path, doc)
        for out, jobs in (("r1", 1), ("r2", 1), ("r8", 8)):
            execute(parse_run_spec(spec_path), jobs=jobs, no_timing=True, out_dir=str(tmp_path / out))
        names = sorted(os.listdir(tmp_path / "r1"))
        assert "zo-ada-expgrad_mean_curve.csv" in names
        for name in names:
            ref = (tmp_path / "r1" / name).read_bytes()
            assert (tmp_path / "r2" / name).read_bytes() == ref, name
            r8 = (tmp_path / "r8" / name).read_bytes()
            assert r8 == ref, name

    def test_byte_identical_across_jobs_at_threaded_blas_size(self, tmp_path):
        # At d = 2000 and n = 400 a block of 32 iterates costs X A^T, a
        # 32 x 2000 x 400 product that BLAS runs on several threads; T = 40
        # adds a partial block of 8.
        doc = base_spec(tmp_path / "x", emit_plot_data=True)
        doc["problem"].update(d=2000, n_samples=400, k=20, loss="robust_nonconvex", gamma1=0.02, gamma2=1e-4)
        doc["algorithms"] = [
            {"tag": tag, "T": 40, "m": 4, "eta": 7.0 if tag == "zo-psgd" else 0.5} for tag in ALGORITHMS
        ]
        path = write_spec(tmp_path, doc)
        for jobs in (1, 2):
            assert main(["run", "--config", path, "--no-timing", "--jobs", str(jobs), "--out", str(tmp_path / f"j{jobs}")]) == 0
        names = sorted(os.listdir(tmp_path / "j1"))
        assert len(names) == 4 * 2 + 4 + 1
        for name in names:
            assert (tmp_path / "j2" / name).read_bytes() == (tmp_path / "j1" / name).read_bytes(), name

    def test_mean_curve_matches_per_seed_traces(self, tmp_path):
        out = tmp_path / "out"
        doc = base_spec(out, emit_plot_data=True)
        spec = parse_run_spec(write_spec(tmp_path, doc))
        execute(spec, no_timing=True)
        per_seed = np.array(
            [
                [float(r[2]) for r in read_csv(out / f"zo-psgd_{s}.csv")[1:]]
                for s in (0, 1)
            ]
        )
        rows = read_csv(out / "zo-psgd_mean_curve.csv")
        assert rows[0] == ["iter", "objective_mean", "objective_std"]
        mean = np.array([float(r[1]) for r in rows[1:]])
        std = np.array([float(r[2]) for r in rows[1:]])
        assert np.array_equal(mean, np.mean(per_seed, axis=0))
        assert np.array_equal(std, np.std(per_seed, axis=0))

    def test_failed_run_recorded_and_others_continue(self, tmp_path):
        out = tmp_path / "out"
        doc = base_spec(out)
        # A vanishing stepsize drives the dual offset past the overflow
        # guard, so this run fails while the other algorithm's runs land.
        doc["algorithms"][0]["eta"] = 1e-12
        spec = parse_run_spec(write_spec(tmp_path, doc))
        rc = execute(spec, no_timing=True)
        assert rc == 1
        summary = json.loads((out / "summary.json").read_text())
        by_algo = {}
        for e in summary["runs"]:
            by_algo.setdefault(e["algorithm"], []).append(e)
        assert all(e["status"] == "failed" for e in by_algo["zo-ada-expgrad"])
        assert all(e["status"] == "ok" for e in by_algo["zo-psgd"])
        failed = by_algo["zo-ada-expgrad"][0]
        assert failed["error"].startswith("NumericError:")
        assert "final_objective" not in failed
        assert not (out / "zo-ada-expgrad_0.csv").exists()
        assert (out / "zo-psgd_0.csv").exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        spec = parse_run_spec(write_spec(tmp_path, base_spec(out)))
        monkeypatch.setenv("ZOMIRROR_SEED", "777")
        execute(spec, no_timing=True)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["global_seed"] == 777
        assert summary["runs"][0]["run_seed"] == rng.derive_seed(777, "zo-ada-expgrad", 0)

    def test_out_dir_overrides_spec(self, tmp_path):
        doc = base_spec("/nonexistent/never-created")
        spec = parse_run_spec(write_spec(tmp_path, doc))
        execute(spec, no_timing=True, out_dir=str(tmp_path / "redirected"))
        assert (tmp_path / "redirected" / "summary.json").exists()
        assert not os.path.exists("/nonexistent/never-created")

    def test_jobs_validation(self, tmp_path):
        spec = parse_run_spec(write_spec(tmp_path, base_spec(tmp_path / "out")))
        with pytest.raises(ValueError):
            execute(spec, jobs=0)

    @pytest.mark.parametrize("jobs", [2.5, True, 2.0])
    def test_non_integer_jobs_rejected(self, tmp_path, jobs):
        # A float or a bool must not reach the thread pool.
        out = tmp_path / "out"
        spec = parse_run_spec(write_spec(tmp_path, base_spec(out)))
        with pytest.raises(ValueError, match="^jobs must be a positive integer$"):
            execute(spec, jobs=jobs)
        assert not out.exists()

    def test_numpy_integer_jobs_accepted(self, tmp_path):
        out = tmp_path / "out"
        spec = parse_run_spec(write_spec(tmp_path, base_spec(out)))
        assert execute(spec, jobs=np.int64(2), no_timing=True) == 0
        assert (out / "summary.json").exists()


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_spec(tmp_path, base_spec(tmp_path / "out"))
        assert main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out == "ok: sparse_regression problem, 2 algorithm(s), 2 seed(s)\n"

    def test_invalid_spec_exit_code(self, tmp_path, capsys):
        doc = base_spec(tmp_path / "out")
        del doc["problem"]["loss"]
        path = write_spec(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid run spec: missing key 'loss'")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("algorithms", 0, "T"), 1.5, "algorithms[0]: T must be a positive integer"),
            (("algorithms", 0, "m"), 0, "algorithms[0]: batch must be a positive integer"),
            (("problem", "noise_sigma"), "0.1", "problem: 'noise_sigma' must be a number"),
            (("problem", "noise_sigma"), -0.1, "problem: noise_sigma must be nonnegative and finite"),
            (("problem",), [], "'problem' must be an object"),
            (("problem", "loss"), "hinge", "problem: unknown loss kind: 'hinge'"),
            (("algorithms", 0), "zo-psgd", "algorithms[0] must be an object"),
            (("algorithms", 0, "nu"), 0.0, "algorithms[0]: nu must be positive and finite"),
            ((), [], "run spec must be a JSON object"),
            (("algorithms",), [], "'algorithms' must be a nonempty list"),
            (("seeds",), [], "'seeds' must be a nonempty list"),
            (("output_dir",), "", "'output_dir' must be a nonempty string"),
            (("emit_plot_data",), 1, "'emit_plot_data' must be a boolean"),
            (("output_dir",), "runs/a\u0000b", "'output_dir' must not contain a NUL character"),
        ],
    )
    def test_invalid_spec_is_one_line(self, tmp_path, capsys, path, value, message):
        doc = base_spec(tmp_path / "out")
        if path:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            doc = value
        assert main(["validate", "--config", write_spec(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"invalid run spec: {message}\n"

    def test_module_entry_point_validates(self):
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.json")
        src = os.path.dirname(os.path.dirname(zomirror.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "zomirror", "validate", "--config", config],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok: sparse_regression problem, 4 algorithm(s), 3 seed(s)\n"

    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "cli-out"
        doc = base_spec(out)
        doc["algorithms"] = [{"tag": "zo-psgd", "T": 5, "m": 1}]
        doc["seeds"] = [0]
        path = write_spec(tmp_path, doc)
        assert main(["run", "--config", path, "--no-timing", "--jobs", "2"]) == 0
        assert (out / "summary.json").exists()
        assert (out / "zo-psgd_0.csv").exists()

    def test_run_out_flag(self, tmp_path):
        doc = base_spec(tmp_path / "ignored")
        path = write_spec(tmp_path, doc)
        target = tmp_path / "flagged"
        assert main(["run", "--config", path, "--no-timing", "--out", str(target)]) == 0
        assert (target / "summary.json").exists()

    def test_nonfinite_number_rejected(self, tmp_path, capsys):
        doc = base_spec(tmp_path / "out")
        doc["algorithms"][0]["eta"] = math.nan
        path = write_spec(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err == "invalid run spec: non-finite number NaN is not allowed\n"

    def test_run_rejects_non_integer_env_seed(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        path = write_spec(tmp_path, base_spec(out))
        monkeypatch.setenv("ZOMIRROR_SEED", "1.5")
        assert main(["run", "--config", path, "--no-timing"]) == 2
        err = capsys.readouterr().err
        assert err == "ZOMIRROR_SEED must be an integer, got '1.5'\n"
        assert not out.exists()

    @pytest.mark.parametrize("tag", [["zo-psgd"], {"a": 1}])
    def test_non_string_tag_rejected(self, tmp_path, capsys, tag):
        # A list or an object is not a tag; it must not reach a dict lookup,
        # where it would fail as unhashable instead.
        doc = base_spec(tmp_path / "out")
        doc["algorithms"][0]["tag"] = tag
        assert main(["validate", "--config", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid run spec: algorithms[0]: unknown algorithm tag {tag!r}\n"

    def test_runners_cover_every_algorithm(self):
        assert set(cli._RUNNERS) == set(ALGORITHMS)

    def test_run_rejects_bad_jobs(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_spec(tmp_path, base_spec(out))
        assert main(["run", "--config", path, "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "jobs must be a positive integer\n"
        assert not out.exists()

    def test_bad_jobs_reported_before_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        path = write_spec(tmp_path, base_spec(out))
        monkeypatch.setenv("ZOMIRROR_SEED", "1.5")
        assert main(["run", "--config", path, "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "jobs must be a positive integer\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, problem, rows",
        [
            ("validate", {"d": 10**7, "n_samples": 10**7}, "n_samples x d = 10000000 x 10000000"),
            ("run", {"d": 10**7, "n_samples": 10**7}, "n_samples x d = 10000000 x 10000000"),
            ("validate", {"kind": "explanation", "seed": 0, "d": 10**9, "mode": "PN"}, "n_classes x d = 3 x 1000000000"),
        ],
    )
    def test_oversize_design_rejected_at_parse(self, tmp_path, capsys, command, problem, rows):
        # Far more bytes than any machine has; parsing allocates none of them.
        out = tmp_path / "out"
        doc = base_spec(out)
        if problem.get("kind") == "explanation":
            doc["problem"] = problem
        else:
            doc["problem"].update(problem)
        assert main([command, "--config", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid run spec: problem: the {rows} matrix")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_oversize_batch_rejected_at_parse(self, tmp_path, capsys, command):
        # m = 10**12 at d = 10 would draw ~61 TB in the first estimate.
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.json")
        with open(config, encoding="utf-8") as fh:
            doc = json.load(fh)
        out = tmp_path / "out"
        doc["algorithms"][0]["m"] = 10**12
        doc["output_dir"] = str(out)
        assert main([command, "--config", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "invalid run spec: algorithms[0]: batch m = 1000000000000 at d = 10 draws "
            "61,250,000,000,000 bytes per estimate, above the limit of 4,294,967,296\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_overlong_run_rejected_at_parse(self, tmp_path, capsys, command):
        # T = 10**12 would keep ~392 TB of trace records.
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.json")
        with open(config, encoding="utf-8") as fh:
            doc = json.load(fh)
        out = tmp_path / "out"
        doc["algorithms"][0]["T"] = 10**12
        doc["output_dir"] = str(out)
        assert main([command, "--config", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "invalid run spec: algorithms[0]: T = 1000000000000 keeps "
            "392,000,000,000,000 bytes of trace records, above the limit of 4,294,967,296\n"
        )
        assert not out.exists()

    def test_problem_build_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def fail(doc):
            raise MemoryError("Unable to allocate 728. TiB for an array")

        monkeypatch.setattr(cli, "problem_from_descriptor", fail)
        out = tmp_path / "out"
        assert main(["run", "--config", write_spec(tmp_path, base_spec(out)), "--no-timing"]) == 1
        err = capsys.readouterr().err
        assert err == "problem build failed: MemoryError: Unable to allocate 728. TiB for an array\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "sub, error", [("", "FileExistsError"), ("sub", "NotADirectoryError"), ("a\0b", "ValueError")]
    )
    def test_unusable_output_directory_exits_one(self, tmp_path, capsys, monkeypatch, sub, error):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        started = []
        monkeypatch.setitem(cli._RUNNERS, "zo-psgd", lambda problem, cfg: started.append(cfg))
        out = os.path.join(blocker, sub) if sub else str(blocker)
        path = write_spec(tmp_path, base_spec(tmp_path / "ignored"))
        assert main(["run", "--config", path, "--no-timing", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot create output directory: {error}: ")
        assert err.count("\n") == 1
        assert started == []
        assert blocker.read_text() == ""


def design_check(problem):
    check_design(problem["d"], problem["n_samples"], problem["k"], problem["noise_sigma"], problem["loss"])


def classifier_check(problem):
    check_classifier(problem["d"], problem.get("n_classes", 3))


def mode_check(problem):
    check_explanation_mode(problem["mode"])


def weights_check(problem):
    ElasticNet(**{key: problem[key] for key in ("gamma1", "gamma2") if key in problem})


EXPLANATION = {"kind": "explanation", "seed": 0, "d": 4, "mode": "PN"}


class TestBuilderRulesAtParse:
    """The parser leaves each value rule of a problem to the check its
    builder makes: one message, whether a spec is validated or built."""

    @pytest.mark.parametrize(
        "edit, check",
        [
            ({"k": 11}, design_check),
            ({"d": 0}, design_check),
            ({"k": True}, design_check),
            ({"n_samples": 2.5}, design_check),
            ({"noise_sigma": -0.1}, design_check),
            ({"loss": "hinge"}, design_check),
            ({"gamma1": -1.0}, weights_check),
            ({**EXPLANATION, "d": 0}, classifier_check),
            ({**EXPLANATION, "n_classes": 1}, classifier_check),
            ({**EXPLANATION, "n_classes": 2.5}, classifier_check),
            ({**EXPLANATION, "mode": "PPP"}, mode_check),
            ({**EXPLANATION, "gamma2": -0.5}, weights_check),
        ],
    )
    def test_one_message_per_rule(self, tmp_path, capsys, edit, check):
        out = tmp_path / "out"
        doc = base_spec(out)
        doc["problem"] = edit if edit.get("kind") == "explanation" else {**doc["problem"], **edit}
        with pytest.raises(ValueError) as checked:
            check(doc["problem"])
        with pytest.raises(ValueError) as built:
            problem_from_descriptor(doc["problem"])
        assert str(built.value) == str(checked.value)
        path = write_spec(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, "--config", path]) == 2
            assert capsys.readouterr().err == f"invalid run spec: problem: {checked.value}\n"
        assert not out.exists()


class TestOutputWrites:
    @pytest.mark.parametrize("blocked", ["summary.json", "zo-psgd_mean_curve.csv"])
    def test_failed_write_after_the_runs_exits_one(self, tmp_path, capsys, blocked):
        # A directory in place of an output file: the runs finish, the write
        # fails on the final rename, and its temporary file is removed.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        path = write_spec(tmp_path, base_spec(out, emit_plot_data=True))
        assert main(["run", "--config", path, "--no-timing"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: IsADirectoryError: ")
        assert err.count("\n") == 1
        assert (out / "zo-psgd_1.csv").exists()
        assert (out / blocked).is_dir()
        assert [name for name in os.listdir(out) if name.startswith(".tmp-")] == []
        if blocked != "summary.json":
            # A failed mean-curve write still leaves the summary of every run.
            runs = json.loads((out / "summary.json").read_text())["runs"]
            assert len(runs) == 4
            assert all(run["status"] == "ok" for run in runs)


# The (tag, variant) pairs a spec may name: every tag runs "adaptive", and
# only these two also run "constant".
ACCEPTED_VARIANTS = {(tag, "adaptive") for tag in ALGORITHMS} | {
    ("zo-ada-expgrad", "constant"),
    ("zo-psgd", "constant"),
}


def variant_spec(tmp_path, tag, variant):
    doc = base_spec(tmp_path / f"{tag}-{variant}", seeds=[0])
    doc["algorithms"] = [{"tag": tag, "T": 6, "m": 2, "eta": 2.0, "variant": variant}]
    return write_spec(tmp_path, doc, f"{tag}-{variant}.json")


class TestVariantTable:
    def test_table_rows_hold_exactly_the_accepted_pairs(self):
        # ALGORITHM_TABLE is the one list of stepsize words; the CLI keeps none.
        table = {(tag, word) for tag, algo in ALGORITHM_TABLE.items() for word in algo.alpha_rules}
        assert table == ACCEPTED_VARIANTS

    # An unknown word and a null one fail as a word missing from the row,
    # though RunConfig reads None as the default word.
    @pytest.mark.parametrize("variant", ["adaptive", "constant", "warmup", None])
    @pytest.mark.parametrize("tag", ALGORITHMS)
    def test_validate_accepts_exactly_the_table_pairs(self, tmp_path, capsys, tag, variant):
        rc = main(["validate", "--config", variant_spec(tmp_path, tag, variant)])
        assert rc == (0 if (tag, variant) in ACCEPTED_VARIANTS else 2)
        if rc == 2:
            err = capsys.readouterr().err
            assert err == f"invalid run spec: algorithms[0]: tag {tag!r} has no {variant}-stepsize variant\n"

    @pytest.mark.parametrize("tag", sorted(tag for tag, variant in ACCEPTED_VARIANTS if variant == "constant"))
    def test_constant_run_keeps_alpha_at_one(self, tmp_path, tag):
        assert main(["run", "--config", variant_spec(tmp_path, tag, "constant"), "--no-timing"]) == 0
        rows = read_csv(tmp_path / f"{tag}-constant" / f"{tag}_0.csv")
        column = rows[0].index("alpha")
        assert len(rows) == 7
        assert all(float(row[column]) == 1.0 for row in rows[1:])

    def test_psgd_words_write_identical_traces(self, tmp_path):
        texts = []
        for variant in ("adaptive", "constant"):
            assert main(["run", "--config", variant_spec(tmp_path, "zo-psgd", variant), "--no-timing"]) == 0
            texts.append((tmp_path / f"zo-psgd-{variant}" / "zo-psgd_0.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_non_string_variant_rejected(self, tmp_path, capsys):
        # A list is no variant word; it must not reach the lookup in the
        # tag's rule table, where it would fail as unhashable instead.
        doc = base_spec(tmp_path / "out")
        doc["algorithms"][1]["variant"] = ["constant"]
        assert main(["validate", "--config", write_spec(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err == "invalid run spec: algorithms[1]: tag 'zo-psgd' has no ['constant']-stepsize variant\n"
