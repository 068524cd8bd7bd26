"""Benchmark problems: sparse regression, tiny classifiers, explanations."""

import math
import pickle
import sys
import threading

import numpy as np
import pytest

from zomirror import (
    ElasticNet,
    ExplanationProblem,
    SparseRegressionProblem,
    TinyClassifier,
    check_classifier,
    check_design,
    check_explanation_mode,
    explanation_loss,
    make_explanation_problem,
    make_sparse_regression,
    make_tiny_classifier,
    pn_cost,
    pp_cost,
    sparse_regression_design,
)
from zomirror import rng
from zomirror.problems import robust_loss, robust_loss_derivative

from oracles import (
    gradient_reference,
    margin_reference,
    mean_loss_reference,
    sample_loss_reference,
    softplus_ref,
)

RHO_SLOPE_CAP = 3.0 * math.sqrt(3.0) / 8.0


class TestRobustLoss:
    def test_values(self):
        assert robust_loss(np.array(0.0)) == 0.0
        assert float(robust_loss(np.array(1.0))) == 0.5
        assert float(robust_loss(np.array(3.0))) == pytest.approx(0.9, abs=1e-15)

    def test_bounded_below_one(self):
        t = np.linspace(-100, 100, 2001)
        v = robust_loss(t)
        assert np.all(v >= 0.0)
        assert np.all(v < 1.0)

    def test_even_and_monotone_in_magnitude(self):
        t = np.linspace(0, 50, 500)
        v = robust_loss(t)
        assert np.array_equal(robust_loss(-t), v)
        assert np.all(np.diff(v) > 0)

    def test_derivative_odd_with_pinned_peak(self):
        t = 1.0 / math.sqrt(3.0)
        peak = float(robust_loss_derivative(np.array(t)))
        assert peak == pytest.approx(0.649519052838329, abs=1e-15)
        assert peak == pytest.approx(RHO_SLOPE_CAP, abs=1e-15)
        grid = np.linspace(-60, 60, 4001)
        dv = robust_loss_derivative(grid)
        assert np.array_equal(robust_loss_derivative(-grid), -dv)
        assert np.max(np.abs(dv)) <= RHO_SLOPE_CAP + 1e-15

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for t in np.linspace(-4, 4, 33):
            fd = float(robust_loss(np.array(t + h)) - robust_loss(np.array(t - h))) / (2 * h)
            assert fd == pytest.approx(float(robust_loss_derivative(np.array(t))), abs=1e-8)


class TestSparseRegressionDesign:
    def test_pinned_instance(self):
        design = sparse_regression_design(6, 5, 2, 0.1, "least_squares", 1)
        support = np.flatnonzero(design.planted)
        assert support.tolist() == [1, 3]
        assert design.planted[support].tolist() == pytest.approx(
            [1.4298194689972719, -0.845340321771618], abs=1e-15
        )
        assert design.matrix[0].tolist() == pytest.approx(
            [
                -0.6268884928433549,
                0.5859339500283319,
                0.2690564155032555,
                -0.1829799790164111,
                0.056823001887269436,
                0.393179784267955,
            ],
            abs=1e-15,
        )
        assert design.targets.tolist() == pytest.approx(
            [
                0.9990896240336897,
                -0.451228849027257,
                0.2362814258971623,
                0.6550135890309818,
                -0.08341048765658454,
            ],
            abs=1e-15,
        )

    def test_rows_have_unit_norm(self):
        design = sparse_regression_design(20, 15, 5, 0.2, "robust_nonconvex", 7)
        norms = np.linalg.norm(design.matrix, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_planted_structure(self):
        design = sparse_regression_design(30, 10, 8, 0.0, "least_squares", 2)
        nz = design.planted[design.planted != 0.0]
        assert nz.size == 8
        assert np.all((np.abs(nz) >= 0.5) & (np.abs(nz) <= 1.5))

    def test_noiseless_targets_are_exact(self):
        design = sparse_regression_design(12, 9, 3, 0.0, "least_squares", 4)
        assert np.array_equal(design.targets, design.matrix @ design.planted)
        assert design.mean_loss(design.planted) == 0.0
        assert np.array_equal(design.gradient(design.planted), np.zeros(12))

    def test_noisy_planted_is_not_exact(self):
        design = sparse_regression_design(12, 9, 3, 0.5, "least_squares", 4)
        assert design.mean_loss(design.planted) > 0.0

    def test_determinism_and_seed_sensitivity(self):
        a = sparse_regression_design(8, 6, 2, 0.1, "least_squares", 0)
        b = sparse_regression_design(8, 6, 2, 0.1, "least_squares", 0)
        c = sparse_regression_design(8, 6, 2, 0.1, "least_squares", 1)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_kind_changes_data(self):
        a = sparse_regression_design(8, 6, 2, 0.1, "least_squares", 0)
        b = sparse_regression_design(8, 6, 2, 0.1, "robust_nonconvex", 0)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_validation(self):
        with pytest.raises(ValueError):
            sparse_regression_design(5, 4, 0, 0.1, "least_squares", 0)
        with pytest.raises(ValueError):
            sparse_regression_design(5, 4, 6, 0.1, "least_squares", 0)
        with pytest.raises(ValueError):
            sparse_regression_design(5, 0, 2, 0.1, "least_squares", 0)
        with pytest.raises(ValueError):
            sparse_regression_design(5, 4, 2, -0.1, "least_squares", 0)
        with pytest.raises(ValueError, match="unknown loss kind"):
            sparse_regression_design(5, 4, 2, 0.1, "huber", 0)

    @pytest.mark.parametrize("noise_sigma", [math.nan, math.inf, -math.inf, -0.1])
    def test_noise_must_be_nonnegative_and_finite(self, noise_sigma):
        # NaN passed a bare `noise_sigma < 0` test and made NaN targets.
        with pytest.raises(ValueError, match="noise_sigma must be nonnegative and finite"):
            sparse_regression_design(5, 4, 2, noise_sigma, "least_squares", 0)

    @pytest.mark.parametrize("d, k", [(5.0, 2), (True, 1), (np.float64(5), 2), (5, 2.0), (5, True)])
    def test_counts_must_be_integers(self, d, k):
        with pytest.raises(ValueError, match="must be a positive integer"):
            sparse_regression_design(d, 4, k, 0.1, "least_squares", 0)

    def test_problem_fields_validated(self):
        design = sparse_regression_design(4, 3, 2, 0.1, "least_squares", 0)
        fields = dict(matrix=design.matrix, targets=design.targets, kind=design.kind, planted=design.planted)
        with pytest.raises(ValueError, match="^unknown loss kind: 'huber'$"):
            SparseRegressionProblem(**dict(fields, kind="huber"))
        for targets in (design.targets[:2], design.targets[:, None]):
            with pytest.raises(ValueError, match="^targets must have one entry per design row$"):
                SparseRegressionProblem(**dict(fields, targets=targets))
        for planted in (design.planted[:3], np.zeros((4, 1))):
            with pytest.raises(ValueError, match="^planted solution must match the design width$"):
                SparseRegressionProblem(**dict(fields, planted=planted))

    @pytest.mark.parametrize("kind", ["least_squares", "robust_nonconvex"])
    def test_gradient_matches_finite_differences(self, kind):
        design = sparse_regression_design(7, 11, 3, 0.3, kind, 6)
        stream = rng.stream("test-sr-fd", kind)
        h = 1e-6
        for _ in range(20):
            x = stream.uniform(-2, 2, 7)
            g = design.gradient(x)
            i = int(stream.integers(7))
            e = np.zeros(7)
            e[i] = h
            fd = (design.mean_loss(x + e) - design.mean_loss(x - e)) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-8)

    def test_sample_losses_average_to_mean_loss(self):
        design = sparse_regression_design(5, 8, 2, 0.2, "robust_nonconvex", 3)
        x = rng.stream("test-sr-avg", 0).standard_normal(5)
        avg = np.mean([design.sample_loss(x, i) for i in range(8)])
        assert avg == pytest.approx(design.mean_loss(x), rel=1e-13)

    def test_to_problem_wiring(self):
        design = sparse_regression_design(5, 6, 2, 0.1, "least_squares", 9)
        prob = design.to_problem()
        assert prob.num_samples == 6
        assert prob.regularizer.gamma1 == 0.0
        assert not prob.feasible_set.is_box
        x = rng.stream("test-sr-wire", 0).standard_normal(5)
        assert prob.oracle(x, 8) == prob.oracle(x, 2)
        assert prob.mean_loss(x) == design.mean_loss(x)
        assert np.array_equal(prob.exact_gradient(x), design.gradient(x))

    @pytest.mark.parametrize("kind", ["least_squares", "robust_nonconvex"])
    def test_sample_loss_equals_numpy_reference_on_every_row(self, kind):
        # The oracle works in Python floats; it must round exactly as the
        # numpy-array formulation does, so traces stay byte-identical.
        design = sparse_regression_design(40, 60, 5, 0.3, kind, 2)
        stream = rng.stream("test-sr-lean", kind)
        for scale in (1e-3, 1.0, 30.0):
            x = scale * stream.standard_normal(40)
            for i in range(design.n_samples):
                want = sample_loss_reference(design.matrix, design.targets, kind, x, i)
                assert design.sample_loss(x, i) == want

    @pytest.mark.parametrize("kind", ["least_squares", "robust_nonconvex"])
    def test_pickled_design_indexes_its_own_rows(self, kind):
        # sample_loss indexes row views built at construction.  A pickle
        # holds the class and the four fields, no copies of the views, and
        # the clone's views are rows of its own matrix.
        design = sparse_regression_design(40, 60, 5, 0.3, kind, 2)
        blob = pickle.dumps(design)
        fields = (design.matrix, design.targets, design.kind, design.planted)
        assert len(blob) <= len(pickle.dumps(fields)) + len(pickle.dumps(type(design)))
        clone = pickle.loads(blob)
        assert len(clone._rows) == clone.n_samples
        assert all(np.shares_memory(row, clone.matrix) for row, _ in clone._rows)
        assert not any(np.shares_memory(row, design.matrix) for row, _ in clone._rows)
        x = rng.stream("test-sr-pickle", kind).standard_normal(40)
        for i in range(clone.n_samples):
            want = sample_loss_reference(clone.matrix, clone.targets, kind, x, i)
            assert clone.sample_loss(x, i) == want == design.sample_loss(x, i)

    def test_make_passes_regularizer(self):
        reg = ElasticNet(0.3, 0.1)
        prob = make_sparse_regression(5, 6, 2, 0.1, "least_squares", 9, regularizer=reg)
        assert prob.regularizer is reg


KINDS = ["least_squares", "robust_nonconvex"]


class TestResidualMemo:
    """mean_loss leaves A x - b for the next exact gradient at the same x."""

    @staticmethod
    def design(kind):
        return sparse_regression_design(40, 30, 5, 0.1, kind, seed=3)

    @staticmethod
    def points(n):
        stream = rng.stream("memo-points")
        return [stream.standard_normal(40) for _ in range(n)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradient_after_change_in_place_is_exact(self, kind):
        design = self.design(kind)
        prob = design.to_problem()
        (x,) = self.points(1)
        prob.mean_loss(x)
        x[3] += 0.5
        got = prob.exact_gradient(x)
        want = gradient_reference(design.matrix, design.targets, kind, x.copy())
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_interleaved_points_give_serial_results(self, kind):
        design = self.design(kind)
        x1, x2 = self.points(2)
        serial = []
        for x in (x1, x2):
            prob = design.to_problem()
            serial.append((prob.mean_loss(x), prob.exact_gradient(x)))
        shared = design.to_problem()
        losses = [shared.mean_loss(x1), shared.mean_loss(x2)]
        grads = [shared.exact_gradient(x1), shared.exact_gradient(x2)]
        assert losses == [serial[0][0], serial[1][0]]
        assert [g.tobytes() for g in grads] == [serial[0][1].tobytes(), serial[1][1].tobytes()]

    def test_threads_sharing_one_problem_get_their_own_gradients(self):
        # Runs under --jobs share one problem, and so its memo slot.
        design = self.design("robust_nonconvex")
        shared = design.to_problem()
        points = self.points(6)
        want = [
            gradient_reference(design.matrix, design.targets, "robust_nonconvex", x).tobytes()
            for x in points
        ]
        wrong = []

        def work(i):
            for _ in range(300):
                shared.mean_loss(points[i])
                if shared.exact_gradient(points[i]).tobytes() != want[i]:
                    wrong.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(points))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_hooks_equal_plain_numpy_reference(self, kind):
        design = self.design(kind)
        prob = design.to_problem()
        A, b = design.matrix, design.targets
        for x in self.points(5):
            want = gradient_reference(A, b, kind, x)
            assert prob.exact_gradient(x).tobytes() == want.tobytes()  # no residual left
            assert prob.mean_loss(x) == mean_loss_reference(A, b, kind, x)
            assert prob.exact_gradient(x).tobytes() == want.tobytes()  # the left residual


    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_rows_match_point_references(self, kind):
        design = self.design(kind)
        prob = design.to_problem()
        A, b = design.matrix, design.targets
        X = np.stack(self.points(5))
        losses, grads = prob.mean_loss(X), prob.exact_gradient(X)
        assert losses.shape == (5,) and grads.shape == (5, 40)
        for x, loss, grad in zip(X, losses, grads):
            assert loss == pytest.approx(mean_loss_reference(A, b, kind, x), rel=1e-12, abs=0.0)
            want = gradient_reference(A, b, kind, x)
            assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", KINDS)
    def test_stack_changed_in_place_misses_the_memo(self, kind):
        design = self.design(kind)
        prob = design.to_problem()
        X = np.stack(self.points(3))
        prob.mean_loss(X)
        X[1, 3] += 0.5
        want = design.to_problem().exact_gradient(X.copy())
        assert prob.exact_gradient(X).tobytes() == want.tobytes()


class TestTinyClassifier:
    def test_pinned_instance(self):
        clf = make_tiny_classifier(4, 3, 0)
        assert clf.weights.shape == (3, 4)
        assert clf.weights[0].tolist() == pytest.approx(
            [
                -0.02279776587598094,
                -0.33305798633837586,
                -1.2539233004270294,
                -0.5034693819762075,
            ],
            abs=1e-15,
        )
        assert clf.bias.tolist() == pytest.approx(
            [-0.09753270947367224, 0.01793636697279456, 0.1507143717363879], abs=1e-15
        )

    def test_forward_hand_example(self):
        clf = TinyClassifier(weights=np.eye(2), bias=np.array([0.5, -0.5]))
        assert clf.forward(np.array([2.0, 3.0])).tolist() == [2.5, 2.5]
        assert clf.n_classes == 2
        assert clf.dimension == 2

    def test_determinism_and_seed_sensitivity(self):
        a = make_tiny_classifier(5, 4, 1)
        b = make_tiny_classifier(5, 4, 1)
        c = make_tiny_classifier(5, 4, 2)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            TinyClassifier(weights=np.zeros((1, 3)), bias=np.zeros(1))
        with pytest.raises(ValueError):
            TinyClassifier(weights=np.zeros((2, 3)), bias=np.zeros(3))
        with pytest.raises(ValueError):
            TinyClassifier(weights=np.zeros(3), bias=np.zeros(3))
        with pytest.raises(ValueError):
            TinyClassifier(weights=np.full((2, 2), np.nan), bias=np.zeros(2))
        with pytest.raises(ValueError):
            make_tiny_classifier(0, 3, 0)
        with pytest.raises(ValueError):
            make_tiny_classifier(3, 1, 0)

    @pytest.mark.parametrize("d, n_classes", [(3.0, 3), (True, 3), (3, 3.0), (3, True), (3, np.float64(2))])
    def test_counts_must_be_integers(self, d, n_classes):
        with pytest.raises(ValueError, match="must be a positive integer"):
            make_tiny_classifier(d, n_classes, 0)


def raised(call, *args):
    """The message of the ValueError that call(*args) raises."""
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


class TestBuilderChecks:
    """Each builder's argument check is one function that draws nothing;
    the builder raises its message first of all."""

    @pytest.mark.parametrize(
        "args",
        [
            (0, 4, 1, 0.1, "least_squares"),
            (5, 4, 6, 0.1, "least_squares"),
            (5, 2.0, 2, 0.1, "least_squares"),
            (5, 4, 2, math.nan, "least_squares"),
            (5, 4, 2, 0.1, "hinge"),
        ],
    )
    def test_design(self, args):
        assert raised(sparse_regression_design, *args, 0) == raised(check_design, *args)
        assert raised(make_sparse_regression, *args, 0) == raised(check_design, *args)

    @pytest.mark.parametrize("d, n_classes", [(0, 3), (3, 1), (True, 3), (3, "3")])
    def test_classifier(self, d, n_classes):
        assert raised(make_tiny_classifier, d, n_classes, 0) == raised(check_classifier, d, n_classes)

    def test_explanation_mode(self):
        clf = two_class([[0.0], [0.0]], [2.0, 1.0])
        for mode in ("pp", None, ["PP"]):
            assert raised(ExplanationProblem, clf, np.array([0.3]), mode) == raised(check_explanation_mode, mode)

    def test_valid_arguments_pass(self):
        check_design(5, 4, 5, 0.0, "robust_nonconvex")
        check_classifier(1, 2)
        for mode in ("PP", "PN"):
            check_explanation_mode(mode)


def two_class(w_rows, bias):
    return TinyClassifier(weights=np.array(w_rows, dtype=float), bias=np.array(bias, dtype=float))


class TestExplanationProblem:
    def test_top_class_and_boxes_pp(self):
        clf = two_class([[0.0, 0.0], [0.0, 0.0]], [2.0, 1.0])
        anchor = np.array([-0.5, 0.8])
        ep = ExplanationProblem(classifier=clf, anchor=anchor, mode="PP")
        assert ep.k0 == 0
        assert ep.box.lo.tolist() == [-0.5, 0.0]
        assert ep.box.hi.tolist() == [0.0, 0.8]
        assert ep.start_point().tolist() == [-0.5, 0.8]

    def test_boxes_pn(self):
        clf = two_class([[0.0], [0.0]], [2.0, 1.0])
        ep = ExplanationProblem(classifier=clf, anchor=np.array([0.25]), mode="PN")
        assert ep.box.lo.tolist() == [0.0]
        assert ep.box.hi.tolist() == [0.75]
        assert ep.start_point().tolist() == [0.375]

    def test_tie_rejected(self):
        clf = two_class([[0.0], [0.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="tied"):
            ExplanationProblem(classifier=clf, anchor=np.array([0.3]), mode="PP")

    def test_pn_anchor_range_enforced(self):
        clf = two_class([[0.0], [0.0]], [2.0, 1.0])
        with pytest.raises(ValueError, match=r"within \[0, 1\]"):
            ExplanationProblem(classifier=clf, anchor=np.array([1.5]), mode="PN")
        # PP accepts the same anchor: its box is anchored at zero.
        ExplanationProblem(classifier=clf, anchor=np.array([1.5]), mode="PP")

    def test_construction_validation(self):
        clf = two_class([[0.0], [0.0]], [2.0, 1.0])
        with pytest.raises(ValueError, match="unknown explanation mode"):
            ExplanationProblem(classifier=clf, anchor=np.array([0.3]), mode="pp")
        with pytest.raises(ValueError, match="dimension"):
            ExplanationProblem(classifier=clf, anchor=np.zeros(2), mode="PP")
        with pytest.raises(ValueError, match="finite"):
            ExplanationProblem(classifier=clf, anchor=np.array([np.inf]), mode="PP")
        with pytest.raises(ValueError):
            make_explanation_problem(clf, np.array([0.3]), "PP", gamma1=-0.1)

    def test_pp_cost_hand_example(self):
        clf = two_class([[0.0, 0.0], [0.0, 0.0]], [2.0, 1.0])
        ep = ExplanationProblem(classifier=clf, anchor=np.array([0.5, 0.5]), mode="PP")
        assert pp_cost(ep, np.zeros(2)) == -1.0

    def test_pn_cost_hand_example(self):
        # Anchor logits (1, 0.9) fix k0 = 0; at anchor + 1 the logits are
        # (0.3, 0.9), so the retained-class margin is -0.6.
        clf = two_class([[-0.7], [0.0]], [1.0, 0.9])
        ep = ExplanationProblem(classifier=clf, anchor=np.array([0.0]), mode="PN")
        assert pn_cost(ep, np.array([1.0])) == pytest.approx(-0.6, abs=1e-15)

    def test_loss_softplus_values(self):
        clf = two_class([[1.0], [0.0]], [0.0, 0.0])
        ep = ExplanationProblem(classifier=clf, anchor=np.array([0.5]), mode="PP")
        assert ep.k0 == 0
        # Cost 0 at the origin, cost -1 at x = 1.
        assert explanation_loss(ep, np.array([0.0]), 0) == pytest.approx(
            math.log(2.0), abs=1e-15
        )
        assert explanation_loss(ep, np.array([1.0]), 0) == pytest.approx(
            0.3132616875182228, abs=1e-15
        )

    def test_loss_matches_reference_softplus(self):
        clf = two_class([[1.0], [0.0]], [0.0, 0.0])
        ep = ExplanationProblem(classifier=clf, anchor=np.array([0.5]), mode="PP")
        for t in np.linspace(-20, 20, 81):
            # pp cost at x = [t] is -t for this classifier.
            got = explanation_loss(ep, np.array([t]), 0)
            assert got == pytest.approx(softplus_ref(-t), rel=1e-13, abs=1e-300)

    def test_loss_large_margin_branches(self):
        clf = two_class([[200.0], [0.0]], [0.0, 150.0])
        ep = ExplanationProblem(classifier=clf, anchor=np.array([1.0]), mode="PP")
        assert ep.k0 == 0
        assert explanation_loss(ep, np.array([0.0]), 0) == 150.0
        assert explanation_loss(ep, np.array([1.25]), 0) == math.exp(-100.0)

    @pytest.mark.parametrize("mode", ["PP", "PN"])
    @pytest.mark.parametrize("d, n_classes", [(50, 3), (6, 5)])
    def test_costs_equal_numpy_reference_across_the_box(self, mode, d, n_classes):
        # ~2,000 points in the mode's box, widened by a quarter of its side
        # so probe points outside it are covered too.
        clf = make_tiny_classifier(d, n_classes, 3)
        stream = rng.stream("test-expl-lean", mode, d)
        if mode == "PP":
            anchor = stream.standard_normal(d)
        else:
            anchor = stream.uniform(0.0, 1.0, d)
        ep = ExplanationProblem(classifier=clf, anchor=anchor, mode=mode)
        lo, hi = ep.box.lo, ep.box.hi
        pad = 0.25 * (hi - lo)
        cost = pp_cost if mode == "PP" else pn_cost
        for _ in range(2000):
            x = stream.uniform(lo - pad, hi + pad)
            point = x if mode == "PP" else anchor + x
            want = margin_reference(clf.weights @ point + clf.bias, ep.k0, mode)
            assert cost(ep, x) == want

    @pytest.mark.parametrize("mode", ["PP", "PN"])
    def test_costs_equal_reference_on_nonfinite_logits(self, mode):
        # A NaN rival after a finite one: Python's max() would skip it,
        # np.max propagates it.  Opposite infinite rivals: both give +inf.
        class Scripted:
            # Logits (2, 1, 0) at the anchor fix k0 = 0; any other point gets probe.
            dimension = 1
            probe: list = []

            def forward(self, x):
                return np.array([2.0, 1.0, 0.0]) if x[0] == 0.0 else np.array(self.probe)

        clf = Scripted()
        ep = ExplanationProblem(classifier=clf, anchor=np.array([0.0]), mode=mode)
        cost = pp_cost if mode == "PP" else pn_cost
        nan, inf = math.nan, math.inf
        for probe in ([2.0, 1.0, nan], [2.0, nan, 1.0], [2.0, inf, -inf], [nan, 1.0, 0.0]):
            clf.probe = probe
            want = margin_reference(np.array(probe), ep.k0, mode)
            got = cost(ep, np.array([0.5]))
            assert got == want or (math.isnan(got) and math.isnan(want)), probe

    def test_loss_monotone_in_cost(self):
        clf = two_class([[1.0], [0.0]], [0.0, 0.0])
        ep = ExplanationProblem(classifier=clf, anchor=np.array([0.5]), mode="PP")
        vals = [explanation_loss(ep, np.array([t]), 0) for t in np.linspace(2, -2, 41)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMakeExplanationProblem:
    def test_wiring_and_defaults(self):
        clf = make_tiny_classifier(4, 3, 0)
        anchor = np.array([0.2, 0.4, 0.6, 0.8])
        prob = make_explanation_problem(clf, anchor, "PP")
        assert prob.dimension == 4
        assert prob.num_samples == 1
        assert prob.exact_gradient is None
        assert prob.regularizer.gamma1 == 0.0625
        assert prob.regularizer.gamma2 == 0.0625
        assert prob.feasible_set.is_box
        assert np.array_equal(prob.start_point, anchor)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert prob.oracle(x, 0) == prob.oracle(x, 99)
        X = np.stack([x, 0.5 * x])
        assert prob.mean_loss(X).tolist() == [prob.oracle(X[0], 0), prob.oracle(X[1], 0)]

    def test_pn_box_and_start(self):
        clf = make_tiny_classifier(3, 3, 5)
        anchor = np.array([0.1, 0.5, 0.9])
        prob = make_explanation_problem(clf, anchor, "PN", gamma1=0.01, gamma2=0.02)
        assert prob.regularizer.gamma1 == 0.01
        assert prob.feasible_set.lo.tolist() == [0.0, 0.0, 0.0]
        assert prob.feasible_set.hi.tolist() == pytest.approx([0.9, 0.5, 0.1], abs=1e-15)
        assert prob.start_point.tolist() == pytest.approx([0.45, 0.25, 0.05], abs=1e-15)

    def test_deterministic_oracle(self):
        clf = make_tiny_classifier(3, 2, 1)
        prob = make_explanation_problem(clf, np.array([0.3, 0.3, 0.3]), "PN")
        x = np.array([0.05, 0.1, 0.0])
        assert prob.oracle(x, 0) == prob.oracle(x, 0)
