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

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .core import ElasticNet, FeasibleSet, Problem

__all__ = [
    "SparseRegressionProblem",
    "TinyClassifier",
    "ExplanationProblem",
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

    ``mean_loss(x)`` leaves its residual A x - b in a one-slot memo, and
    the next ``gradient(x)`` takes it instead of recomputing it when the
    slot holds this same array with the same bytes.  Reading and clearing
    the slot is one swap, so a residual serves at most one gradient, and
    runs sharing the problem across threads can only miss the memo.
    """

    matrix: np.ndarray
    targets: np.ndarray
    kind: str
    planted: np.ndarray
    _residual_slot: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind: {self.kind!r}")
        n, d = self.matrix.shape
        if self.targets.shape != (n,):
            raise ValueError("targets must have one entry per design row")
        if self.planted.shape != (d,):
            raise ValueError("planted solution must match the design width")

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def sample_loss(self, x: np.ndarray, index: int) -> float:
        # Python-float arithmetic: the same roundings as the numpy forms,
        # without their per-call overhead.
        r = float(self.matrix[index] @ x) - float(self.targets[index])
        if self.kind == "least_squares":
            return 0.5 * r * r
        sq = r * r
        return sq / (1.0 + sq)

    def mean_loss(self, x: np.ndarray) -> float:
        x = np.asarray(x)
        r = self.matrix @ x - self.targets
        # The bytes of x guard the memo against changes to x in place.
        self._residual_slot[0] = (x, x.tobytes(), r)
        if self.kind == "least_squares":
            return 0.5 * float(np.mean(np.square(r)))
        return float(np.mean(robust_loss(r)))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        memo, self._residual_slot[0] = self._residual_slot[0], None
        if memo is not None and memo[0] is x and memo[1] == x.tobytes():
            r = memo[2]
        else:
            r = self.matrix @ x - self.targets
        grad = self.matrix.T @ (r if self.kind == "least_squares" else robust_loss_derivative(r))
        grad /= self.n_samples
        return grad

    def to_problem(
        self,
        regularizer: ElasticNet | None = None,
        feasible_set: FeasibleSet | None = None,
    ) -> Problem:
        return Problem(
            dimension=self.dimension,
            oracle=lambda x, xi: self.sample_loss(x, xi % self.n_samples),
            regularizer=regularizer if regularizer is not None else ElasticNet(),
            feasible_set=feasible_set if feasible_set is not None else FeasibleSet(),
            exact_gradient=self.gradient,
            mean_loss=self.mean_loss,
            num_samples=self.n_samples,
        )


def sparse_regression_design(
    d: int, n_samples: int, k: int, noise_sigma: float, kind: str, seed: int
) -> SparseRegressionProblem:
    """Draw the design, planted solution, and targets for a seed.

    Rows are standard normal scaled to unit 2-norm; the support is a
    uniform k-subset; planted entries are uniform(0.5, 1.5) with random
    signs; targets are <a, x*> plus noise_sigma * standard normal.
    """
    if not 1 <= k <= d:
        raise ValueError("sparsity k must satisfy 1 <= k <= d")
    if n_samples < 1:
        raise ValueError("n_samples must be a positive integer")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind: {kind!r}")
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
        return self.weights @ x + self.bias


def make_tiny_classifier(d: int, n_classes: int = 3, seed: int = 0) -> TinyClassifier:
    """Deterministic small classifier with weights drawn from the seed."""
    if d < 1 or n_classes < 2:
        raise ValueError("need d >= 1 and n_classes >= 2")
    stream = rng.stream("tiny-classifier", seed, d, n_classes)
    weights = stream.standard_normal((n_classes, d)) / np.sqrt(d)
    bias = 0.1 * stream.standard_normal(n_classes)
    return TinyClassifier(weights=weights, bias=bias)


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
    gamma1: float = 0.0625
    gamma2: float = 0.0625
    k0: int = field(init=False)
    box: FeasibleSet = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in EXPLANATION_MODES:
            raise ValueError(f"unknown explanation mode: {self.mode!r}")
        if self.anchor.shape != (self.classifier.dimension,):
            raise ValueError("anchor must match the classifier dimension")
        if not np.all(np.isfinite(self.anchor)):
            raise ValueError("anchor must be finite")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("regularizer weights must be nonnegative")
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


def make_explanation_problem(
    classifier: TinyClassifier,
    anchor: np.ndarray,
    mode: str,
    gamma1: float = 0.0625,
    gamma2: float = 0.0625,
) -> Problem:
    """Wrap an explanation objective as a black-box Problem.

    The oracle is deterministic (num_samples = 1) and no exact gradient is
    published, so runs report objective values only.
    """
    ep = ExplanationProblem(
        classifier=classifier,
        anchor=np.array(anchor, dtype=float),
        mode=mode,
        gamma1=gamma1,
        gamma2=gamma2,
    )
    return Problem(
        dimension=classifier.dimension,
        oracle=lambda x, xi: explanation_loss(ep, x, xi),
        regularizer=ElasticNet(gamma1=gamma1, gamma2=gamma2),
        feasible_set=ep.box,
        mean_loss=lambda x: explanation_loss(ep, x, 0),
        num_samples=1,
        start_point=ep.start_point(),
    )
