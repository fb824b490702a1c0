"""Metrics, cross-validation splitting, voting ensembles, significance.

Dataset-level soft voting averages the per-fold test probabilities of one
model, weighted by each fold's best validation F1. Model-level hard
voting sets a label when at least half of the candidate models vote for
it. The binary task's labels and probabilities derive from the four
sub-category outputs by OR / max.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np


@dataclass
class FoldRun:
    model_name: str
    fold: int
    best_f1: float
    test_probs: np.ndarray  # (N, n)
    test_ids: list[str] = field(default_factory=list)  # one per row


@dataclass
class EnsemblePrediction:
    probabilities: np.ndarray
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.labels = (self.probabilities >= 0.5).astype(int)


def kfold_split(dataset, k: int = 10, seed: int = 0) -> list[np.ndarray]:
    """Seeded shuffle, then contiguous chunks whose sizes differ by <= 1."""
    n = dataset if isinstance(dataset, int) else len(dataset)
    if k > n:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(order[start:start + size]))
        start += size
    return folds


def binary_f1(pred: np.ndarray, true: np.ndarray) -> float:
    """F1 of the positive class; 0 when precision + recall is 0."""
    pred = np.asarray(pred).ravel()
    true = np.asarray(true).ravel()
    if pred.shape != true.shape:
        raise ValueError("prediction and truth lengths differ")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2 * tp / (2 * tp + fp + fn)


def taskA_macro_f1(pred: np.ndarray, true: np.ndarray) -> float:
    """Mean of the F1 for the positive and the negative class."""
    pred = np.asarray(pred).ravel()
    true = np.asarray(true).ravel()
    return 0.5 * (binary_f1(pred, true) + binary_f1(1 - pred, 1 - true))


def weighted_f1(pred: np.ndarray, true: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 over the label columns."""
    pred, true = np.atleast_2d(pred), np.atleast_2d(true)
    support = true.sum(axis=0)
    if support.sum() == 0:
        return 0.0
    scores = np.array([binary_f1(pred[:, c], true[:, c])
                       for c in range(true.shape[1])])
    return float((support * scores).sum() / support.sum())


def soft_vote(runs: list[FoldRun]) -> EnsemblePrediction:
    """F1-weighted average of per-fold probabilities for one model."""
    if not runs:
        raise ValueError("no fold runs to vote over")
    names = {r.model_name for r in runs}
    if len(names) > 1:
        raise ValueError(f"soft voting mixes models: {sorted(names)}")
    scores = np.array([r.best_f1 for r in runs], dtype=np.float64)
    total = scores.sum()
    if total <= 0:
        raise ValueError("all fold F1 scores are zero; weights undefined")
    weights = scores / total
    probs = sum(w * r.test_probs for w, r in zip(weights, runs))
    return EnsemblePrediction(probabilities=probs)


def hard_vote(label_sets: list[np.ndarray]) -> np.ndarray:
    """Majority rule: 1 iff at least half of the models vote 1 (exact m/2)."""
    if not label_sets:
        raise ValueError("no label sets to vote over")
    shape = label_sets[0].shape
    if any(ls.shape != shape for ls in label_sets):
        raise ValueError("label matrices differ in shape")
    m = len(label_sets)
    counts = np.sum(np.stack(label_sets), axis=0)
    return (2 * counts >= m).astype(int)


def derive_taskA_labels(labels_b: np.ndarray) -> np.ndarray:
    """Binary misogyny label: OR over the four sub-category labels."""
    return np.asarray(labels_b).max(axis=-1)


def derive_taskA_probs(probs_b: np.ndarray) -> np.ndarray:
    """Binary misogyny probability: max over the sub-category probabilities."""
    return np.asarray(probs_b).max(axis=-1)


def task_scores(probs: np.ndarray, y_mis,
                y_sub) -> tuple[float, float | None]:
    """(task-A macro F1, task-B weighted F1) of thresholded probabilities.

    The setup is the width of `probs`: one column is setup A, scored on
    task A only (weighted F1 None); four columns are setup B, whose
    task-A label is the OR over the sub-category labels.
    """
    labels = (np.asarray(probs) >= 0.5).astype(int)
    if labels.shape[1] == 1:
        return taskA_macro_f1(labels[:, 0], y_mis), None
    return (taskA_macro_f1(derive_taskA_labels(labels), y_mis),
            weighted_f1(labels, y_sub))


EXACT_LIMIT = 16  # enumeration of C(n+m, n) rank assignments up to n+m = 16


def mann_whitney_u(x, y) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test; returns (U of x, p value).

    U counts pairs (x_i, y_j) with x_i > y_j, ties at one half. For small
    tie-free samples (n + m <= 16) the p value is exact, by enumerating
    every assignment of the pooled ranks; otherwise a normal approximation
    with tie-corrected variance and continuity correction is used.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    u = float(np.sum(x[:, None] > y[None, :])
              + 0.5 * np.sum(x[:, None] == y[None, :]))

    pooled = np.concatenate([x, y])
    has_ties = np.unique(pooled, return_counts=True)[1].max() > 1
    if n + m <= EXACT_LIMIT and not has_ties:
        return u, _exact_p(u, n, m)
    return u, _normal_p(u, n, m, pooled)


def _exact_p(u: float, n: int, m: int) -> float:
    total = n * m
    u_lo = min(u, total - u)
    u_hi = total - u_lo
    count = 0
    n_assignments = math.comb(n + m, n)
    offset = n * (n + 1) / 2.0
    for subset in combinations(range(1, n + m + 1), n):
        u_s = sum(subset) - offset
        if u_s <= u_lo or u_s >= u_hi:
            count += 1
    return min(1.0, count / n_assignments)


def _normal_p(u: float, n: int, m: int, pooled: np.ndarray) -> float:
    big_n = n + m
    tie_counts = Counter(pooled.tolist()).values()
    tie_term = sum(t ** 3 - t for t in tie_counts) / (big_n * (big_n - 1))
    var = n * m / 12.0 * ((big_n + 1) - tie_term)
    if var <= 0:
        return 1.0
    z = max(0.0, abs(u - n * m / 2.0) - 0.5) / math.sqrt(var)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def significance_stars(p: float) -> str:
    """Bucket labels for significance reports."""
    if p <= 1e-4:
        return "****"
    if p <= 1e-3:
        return "***"
    if p <= 1e-2:
        return "**"
    if p <= 5e-2:
        return "*"
    return "ns"
