"""Benchmark objectives: planted sparse regression and contrastive
explanations (pertinent positives/negatives) against a tiny linear
classifier.

Sparse regression plants a k-sparse solution behind a unit-row random
design and exposes the exact mean gradient for evaluation.  The
explanation objectives treat the classifier as a black box: a margin cost
is passed through a softplus and minimized over a mode-specific box with
an elastic net, so no exact gradient is published for them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .core import ElasticNet, FeasibleSet, Problem, _check_count

__all__ = [
    "SparseRegressionProblem",
    "TinyClassifier",
    "ExplanationProblem",
    "check_design",
    "check_classifier",
    "check_explanation_mode",
    "sparse_regression_design",
    "make_sparse_regression",
    "make_tiny_classifier",
    "make_explanation_problem",
    "pp_cost",
    "pn_cost",
    "explanation_loss",
    "robust_loss",
    "robust_loss_derivative",
]

LOSS_KINDS = ("least_squares", "robust_nonconvex")

EXPLANATION_MODES = ("PP", "PN")

# Defaults of an explanation objective: the weight of both elastic-net
# terms and the number of classes of its classifier.
_EXPLANATION_GAMMA = 0.0625
_DEFAULT_N_CLASSES = 3

# Stable softplus: beyond these the dropped term is below 1e-13 absolute.
_SOFTPLUS_HI = 30.0
_SOFTPLUS_LO = -30.0


def robust_loss(t: np.ndarray) -> np.ndarray:
    """rho(t) = t^2 / (1 + t^2), a bounded redescending residual loss."""
    sq = np.square(t)
    return sq / (1.0 + sq)


def robust_loss_derivative(t: np.ndarray) -> np.ndarray:
    """rho'(t) = 2t / (1 + t^2)^2; bounded by 3*sqrt(3)/8 in magnitude."""
    return 2.0 * t / np.square(1.0 + np.square(t))


@dataclass(frozen=True)
class SparseRegressionProblem:
    """Planted sparse regression data: rows, targets, loss kind, solution.

    ``mean_loss`` and ``gradient`` take a point or a (k, d) stack of points
    and return one loss or gradient per point, so a stack costs two
    matrix-matrix products: X A^T - b and V A.  ``mean_loss(X)`` leaves its
    residuals in a one-slot memo, and the next ``gradient(X)`` takes them
    instead of recomputing them when the slot holds this same array with
    the same bytes.  Reading and clearing the slot is one swap, so a
    residual serves at most one gradient, and runs sharing the problem
    across threads can only miss the memo.

    The design is read at construction: ``sample_loss`` indexes pairs of a
    row view of ``matrix`` and its target as a float, built once, so a
    change to ``targets`` in place afterwards reaches the mean loss and
    gradient but not the oracle.  A pickle or copy carries the four fields
    alone and builds the pairs anew over its own ``matrix``.
    """

    matrix: np.ndarray
    targets: np.ndarray
    kind: str
    planted: np.ndarray
    _residual_slot: list = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind: {self.kind!r}")
        n, d = self.matrix.shape
        if self.targets.shape != (n,):
            raise ValueError("targets must have one entry per design row")
        if self.planted.shape != (d,):
            raise ValueError("planted solution must match the design width")
        object.__setattr__(self, "_residual_slot", [None])
        object.__setattr__(self, "_rows", tuple(zip(self.matrix, self.targets.tolist())))

    def __reduce__(self):
        return type(self), (self.matrix, self.targets, self.kind, self.planted)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def sample_loss(self, x: np.ndarray, xi: int) -> float:
        # Python-float arithmetic and ndarray.dot: the same roundings as
        # the numpy forms and the @ operator, without their per-call overhead.
        rows = self._rows
        row, target = rows[xi % len(rows)]
        r = float(row.dot(x)) - target
        if self.kind == "least_squares":
            return 0.5 * r * r
        sq = r * r
        return sq / (1.0 + sq)

    def _residuals(self, X: np.ndarray) -> np.ndarray:
        R = X @ self.matrix.T
        R -= self.targets
        return R

    def mean_loss(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        R = self._residuals(X)
        if self.kind == "least_squares":
            loss = 0.5 * np.mean(np.square(R), axis=-1)
        else:
            loss = np.mean(robust_loss(R), axis=-1)
        # A copy of X guards the memo against changes to X in place.
        self._residual_slot[0] = (X, X.copy(), R)
        return loss

    def gradient(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        memo, self._residual_slot[0] = self._residual_slot[0], None
        # Compared as integers, so that a change of a zero's sign or of a
        # NaN's payload misses the memo too.
        if memo is not None and memo[0] is X and np.array_equal(memo[1].view(np.uint64), X.view(np.uint64)):
            R = memo[2]
        else:
            R = self._residuals(X)
        del memo  # frees the copy of X before the gradient is allocated
        grad = (R if self.kind == "least_squares" else robust_loss_derivative(R)) @ self.matrix
        grad /= self.n_samples
        return grad

    def to_problem(self, regularizer: ElasticNet | None = None) -> Problem:
        return Problem(
            dimension=self.dimension,
            oracle=self.sample_loss,
            regularizer=regularizer if regularizer is not None else ElasticNet(),
            exact_gradient=self.gradient,
            mean_loss=self.mean_loss,
            num_samples=self.n_samples,
        )


def check_design(d: int, n_samples: int, k: int, noise_sigma: float, kind: str) -> None:
    """sparse_regression_design's argument checks, which draw nothing."""
    for name, count in (("d", d), ("k", k), ("n_samples", n_samples)):
        _check_count(name, count)
    if k > d:
        raise ValueError("sparsity k must satisfy 1 <= k <= d")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError("noise_sigma must be nonnegative and finite")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind: {kind!r}")


def sparse_regression_design(
    d: int, n_samples: int, k: int, noise_sigma: float, kind: str, seed: int
) -> SparseRegressionProblem:
    """Draw the design, planted solution, and targets for a seed.

    Rows are standard normal scaled to unit 2-norm; the support is a
    uniform k-subset; planted entries are uniform(0.5, 1.5) with random
    signs; targets are <a, x*> plus noise_sigma * standard normal.
    """
    check_design(d, n_samples, k, noise_sigma, kind)
    stream = rng.stream("sparse-regression", kind, seed)
    raw = stream.standard_normal((n_samples, d))
    matrix = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    support = np.sort(stream.permutation(d)[:k])
    magnitudes = stream.uniform(0.5, 1.5, size=k)
    signs = 2.0 * stream.integers(0, 2, size=k) - 1.0
    planted = np.zeros(d)
    planted[support] = magnitudes * signs
    noise = stream.standard_normal(n_samples)
    targets = matrix @ planted + noise_sigma * noise
    return SparseRegressionProblem(matrix=matrix, targets=targets, kind=kind, planted=planted)


def make_sparse_regression(
    d: int,
    n_samples: int,
    k: int,
    noise_sigma: float,
    kind: str,
    seed: int,
    regularizer: ElasticNet | None = None,
) -> Problem:
    """Planted sparse-regression Problem; see sparse_regression_design."""
    design = sparse_regression_design(d, n_samples, k, noise_sigma, kind, seed)
    return design.to_problem(regularizer=regularizer)


@dataclass(frozen=True)
class TinyClassifier:
    """Linear K-class scorer: logits(x) = weights @ x + bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise ValueError("weights must be a K x d matrix")
        K = self.weights.shape[0]
        if K < 2:
            raise ValueError("need at least two classes")
        if self.bias.shape != (K,):
            raise ValueError("bias must have one entry per class")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("classifier parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dimension(self) -> int:
        return self.weights.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.weights.dot(x) + self.bias


def check_classifier(d: int, n_classes: int) -> None:
    """make_tiny_classifier's argument checks, which draw nothing."""
    _check_count("d", d)
    _check_count("n_classes", n_classes)
    if n_classes < 2:
        raise ValueError("n_classes must be at least 2")


def make_tiny_classifier(d: int, n_classes: int = _DEFAULT_N_CLASSES, seed: int = 0) -> TinyClassifier:
    """Deterministic small classifier with weights drawn from the seed."""
    check_classifier(d, n_classes)
    stream = rng.stream("tiny-classifier", seed, d, n_classes)
    weights = stream.standard_normal((n_classes, d)) / np.sqrt(d)
    bias = 0.1 * stream.standard_normal(n_classes)
    return TinyClassifier(weights=weights, bias=bias)


def check_explanation_mode(mode: str) -> None:
    """Reject a mode that is not one of EXPLANATION_MODES."""
    if mode not in EXPLANATION_MODES:
        raise ValueError(f"unknown explanation mode: {mode!r}")


@dataclass(frozen=True)
class ExplanationProblem:
    """Contrastive-explanation objective around an anchor point.

    Mode PP searches the box between 0 and the anchor, starting at the
    anchor, for a sparse part of it that alone keeps the predicted class.
    Mode PN searches additive perturbations in [0, 1 - anchor], starting
    at the box centre, for a change that flips the prediction.  The
    predicted class k0 is fixed at construction; an exact tie for the top
    logit at the anchor is rejected.
    """

    classifier: TinyClassifier
    anchor: np.ndarray
    mode: str
    k0: int = field(init=False)
    box: FeasibleSet = field(init=False)

    def __post_init__(self) -> None:
        check_explanation_mode(self.mode)
        if self.anchor.shape != (self.classifier.dimension,):
            raise ValueError("anchor must match the classifier dimension")
        if not np.all(np.isfinite(self.anchor)):
            raise ValueError("anchor must be finite")
        logits = self.classifier.forward(self.anchor)
        order = np.argsort(logits)
        if logits[order[-1]] == logits[order[-2]]:
            raise ValueError("anchor prediction is tied; no unique top class")
        object.__setattr__(self, "k0", int(np.argmax(logits)))
        if self.mode == "PP":
            lo = np.minimum(0.0, self.anchor)
            hi = np.maximum(0.0, self.anchor)
        else:
            if np.any(self.anchor > 1.0):
                raise ValueError("PN mode expects anchor entries within [0, 1]")
            lo = np.zeros_like(self.anchor)
            hi = 1.0 - self.anchor
        object.__setattr__(self, "box", FeasibleSet.box(lo, hi))

    def start_point(self) -> np.ndarray:
        if self.mode == "PP":
            return self.anchor.copy()
        return 0.5 * (1.0 - self.anchor)


def _own_and_top_rival(logits: np.ndarray, k0: int) -> tuple[float, float]:
    """(logit of class k0, largest other logit) as Python floats."""
    rivals = logits.tolist()
    own = rivals.pop(k0)
    top = max(rivals)
    # max() skips a NaN that is not first; np.max propagates it.  A NaN sum
    # also flags opposite infinities, where both agree, so defer to np.max.
    if math.isnan(sum(rivals)):
        top = float(np.max(rivals))
    return own, top


def pp_cost(prob: ExplanationProblem, x: np.ndarray) -> float:
    """Margin of the best rival over the anchor's class, at x itself."""
    own, top = _own_and_top_rival(prob.classifier.forward(x), prob.k0)
    return top - own


def pn_cost(prob: ExplanationProblem, x: np.ndarray) -> float:
    """Margin of the anchor's class over the best rival, at anchor + x."""
    own, top = _own_and_top_rival(prob.classifier.forward(prob.anchor + x), prob.k0)
    return own - top


def _softplus(c: float) -> float:
    if c > _SOFTPLUS_HI:
        return c
    if c < _SOFTPLUS_LO:
        return float(np.exp(c))
    return float(np.log1p(np.exp(c)))


def explanation_loss(prob: ExplanationProblem, x: np.ndarray, xi: int) -> float:
    """Softplus of the mode's margin cost; xi is accepted but unused."""
    c = pp_cost(prob, x) if prob.mode == "PP" else pn_cost(prob, x)
    return _softplus(c)


def _explanation_mean_loss(prob: ExplanationProblem, X: np.ndarray) -> np.ndarray:
    """explanation_loss at each row of a stack of points."""
    return np.array([explanation_loss(prob, x, 0) for x in X])


def make_explanation_problem(
    classifier: TinyClassifier,
    anchor: np.ndarray,
    mode: str,
    gamma1: float = _EXPLANATION_GAMMA,
    gamma2: float = _EXPLANATION_GAMMA,
) -> Problem:
    """Wrap an explanation objective as a black-box Problem.

    The oracle is deterministic (num_samples = 1) and no exact gradient is
    published, so runs report objective values only.
    """
    ep = ExplanationProblem(classifier=classifier, anchor=np.array(anchor, dtype=float), mode=mode)
    return Problem(
        dimension=classifier.dimension,
        oracle=functools.partial(explanation_loss, ep),
        regularizer=ElasticNet(gamma1=gamma1, gamma2=gamma2),
        feasible_set=ep.box,
        mean_loss=functools.partial(_explanation_mean_loss, ep),
        num_samples=1,
        start_point=ep.start_point(),
    )
