"""Metrics, k-fold splits, voting, task-A derivation, Mann-Whitney U."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from memefuse.ensemble import (EXACT_LIMIT, EnsemblePrediction, FoldRun,
                               _exact_p, _normal_p, binary_f1,
                               derive_taskA_labels, derive_taskA_probs,
                               hard_vote, kfold_split, mann_whitney_u,
                               significance_stars, soft_vote, task_scores,
                               taskA_macro_f1, weighted_f1)
from oracles import f1_oracle, macro_f1_reference, weighted_f1_reference


# --------------------------------------------------------------------- kfold

def test_kfold_singletons():
    folds = kfold_split(10, k=10, seed=0)
    assert all(len(f) == 1 for f in folds)


def test_kfold_size_rule():
    folds = kfold_split(11, k=10, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [1] * 9 + [2]
    assert len(folds[0]) == 2  # the extra sample lands in the first fold


def test_kfold_deterministic():
    a = kfold_split(23, k=4, seed=7)
    b = kfold_split(23, k=4, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = kfold_split(23, k=4, seed=8)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_too_many_folds():
    with pytest.raises(ValueError):
        kfold_split(3, k=4)


def test_kfold_accepts_sequences():
    folds = kfold_split(list("abcdefghij"), k=5, seed=1)
    assert sum(len(f) for f in folds) == 10


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_kfold_partition_properties(n, k, seed):
    if k > n:
        return
    folds = kfold_split(n, k=k, seed=seed)
    allidx = np.concatenate(folds)
    assert sorted(allidx.tolist()) == list(range(n))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


# ------------------------------------------------------------------- metrics

def test_f1_hand_cases():
    assert taskA_macro_f1(np.array([1, 1, 0, 0]),
                          np.array([1, 0, 1, 0])) == 0.5
    pred, true = np.array([1, 1, 1, 1]), np.array([1, 1, 0, 0])
    assert abs(binary_f1(pred, true) - 2 / 3) < 1e-12
    assert binary_f1(1 - pred, 1 - true) == 0.0
    assert abs(taskA_macro_f1(pred, true) - 1 / 3) < 1e-12


def test_f1_perfect():
    pred = np.array([[1, 0], [0, 1]])
    assert [binary_f1(pred[:, c], pred[:, c]) for c in (0, 1)] == [1.0, 1.0]
    assert weighted_f1(pred, pred.copy()) == 1.0


def test_f1_shape_mismatch():
    with pytest.raises(ValueError):
        binary_f1(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        taskA_macro_f1(np.zeros(3), np.zeros(4))


def test_task_scores_setup_from_width():
    y_mis = np.array([1, 0, 1])
    y_sub = np.array([[1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1]])
    a_probs = np.array([[0.7], [0.2], [0.4]])
    assert task_scores(a_probs, y_mis, None) == \
        (taskA_macro_f1(np.array([1, 0, 0]), y_mis), None)
    b_probs = np.array([[0.9, 0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.4],
                        [0.1, 0.6, 0.1, 0.2]])
    labels = (b_probs >= 0.5).astype(int)
    assert task_scores(b_probs, y_mis, y_sub) == \
        (taskA_macro_f1(derive_taskA_labels(labels), y_mis),
         weighted_f1(labels, y_sub))


def test_weighted_f1_zero_support():
    assert weighted_f1(np.zeros((3, 4)), np.zeros((3, 4))) == 0.0


@given(st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_f1_matches_confusion_matrix_oracle(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, 2, size=n)
    true = rng.integers(0, 2, size=n)
    assert abs(binary_f1(pred, true) - f1_oracle(pred, true)) < 1e-12
    macro_ref = 0.5 * (f1_oracle(pred, true)
                       + f1_oracle(1 - pred, 1 - true))
    assert abs(taskA_macro_f1(pred, true) - macro_ref) < 1e-12


def label_pairs(shape):
    """Predicted and true 0/1 label matrices of one shape."""
    labels = hnp.arrays(np.int64, shape, elements=st.integers(0, 1))
    return st.tuples(labels, labels)


@given(st.tuples(st.integers(1, 30), st.integers(1, 4)).flatmap(label_pairs))
@settings(max_examples=300, deadline=None)
@example((np.zeros((3, 4), int), np.zeros((3, 4), int)))  # no support
@example((np.ones((3, 4), int), np.zeros((3, 4), int)))   # nothing true
@example((np.zeros((3, 4), int), np.ones((3, 4), int)))   # nothing predicted
@example((np.ones((2, 1), int), np.ones((2, 1), int)))    # no negatives
@example((np.array([[0, 1], [0, 1]]), np.array([[0, 0], [1, 0]])))
def test_f1_scores_equal_confusion_matrix_reference(labels):
    # runs without scikit-learn, and to the bit: the same divisions and
    # sums, in the same order, from an explicit confusion matrix; columns
    # without support and classes that are neither predicted nor true
    # are among the cases
    pred, true = labels
    assert weighted_f1(pred, true) == weighted_f1_reference(pred, true)
    for c in range(true.shape[1]):
        assert taskA_macro_f1(pred[:, c], true[:, c]) == \
            macro_f1_reference(pred[:, c], true[:, c])


def test_f1_matches_sklearn():
    sklearn = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(5)
    pred = rng.integers(0, 2, size=(40, 4))
    true = rng.integers(0, 2, size=(40, 4))
    ours = weighted_f1(pred, true)
    ref = sklearn.f1_score(true, pred, average="weighted", zero_division=0)
    assert abs(ours - ref) < 1e-12
    pa, ta = pred[:, 0], true[:, 0]
    ref_macro = sklearn.f1_score(ta, pa, average="macro", zero_division=0)
    assert abs(taskA_macro_f1(pa, ta) - ref_macro) < 1e-12


# -------------------------------------------------------------------- voting

def make_runs(probs_list, f1s, name="m"):
    return [FoldRun(model_name=name, fold=i, best_f1=f1, test_probs=p)
            for i, (p, f1) in enumerate(zip(probs_list, f1s))]


def test_soft_vote_equal_f1_is_mean():
    rng = np.random.default_rng(0)
    probs = [rng.random((5, 4)) for _ in range(10)]
    vote = soft_vote(make_runs(probs, [0.7] * 10))
    assert np.max(np.abs(vote.probabilities - np.mean(probs, axis=0))) < 1e-12


def test_soft_vote_two_folds_weighted():
    p1, p2 = np.full((2, 1), 0.2), np.full((2, 1), 0.7)
    vote = soft_vote(make_runs([p1, p2], [0.6, 0.4]))
    assert np.allclose(vote.probabilities, 0.6 * 0.2 + 0.4 * 0.7)


def test_soft_vote_identical_probs_fixed_point():
    p = np.random.default_rng(1).random((4, 4))
    vote = soft_vote(make_runs([p.copy() for _ in range(3)], [0.9, 0.5, 0.1]))
    assert np.max(np.abs(vote.probabilities - p)) < 1e-12


def test_soft_vote_errors():
    with pytest.raises(ValueError):
        soft_vote([])
    runs = make_runs([np.zeros((1, 4))] * 2, [0.0, 0.0])
    with pytest.raises(ValueError):
        soft_vote(runs)
    mixed = make_runs([np.zeros((1, 4))], [0.5]) + \
        make_runs([np.zeros((1, 4))], [0.5], name="other")
    with pytest.raises(ValueError):
        soft_vote(mixed)


def test_soft_vote_convex_bounds():
    rng = np.random.default_rng(2)
    probs = [rng.random((6, 4)) for _ in range(5)]
    vote = soft_vote(make_runs(probs, list(rng.random(5) + 0.1)))
    stacked = np.stack(probs)
    assert np.all(vote.probabilities >= stacked.min(axis=0) - 1e-12)
    assert np.all(vote.probabilities <= stacked.max(axis=0) + 1e-12)


def test_ensemble_prediction_thresholds():
    pred = EnsemblePrediction(np.array([[0.49, 0.5, 0.51]]))
    assert pred.labels.tolist() == [[0, 1, 1]]


def test_hard_vote_boundaries():
    def vote_of(ones, m):
        sets = [np.array([[1]])] * ones + [np.array([[0]])] * (m - ones)
        return hard_vote(sets)[0, 0]

    assert vote_of(3, 6) == 1   # m=6: three votes suffice
    assert vote_of(3, 7) == 0   # m=7: needs at least four
    assert vote_of(4, 7) == 1
    assert vote_of(5, 5) == 1   # unanimous
    assert vote_of(0, 5) == 0


def test_hard_vote_brute_force_all_patterns():
    for m in range(1, 8):
        for pattern in itertools.product((0, 1), repeat=m):
            sets = [np.array([[v]]) for v in pattern]
            expected = 1 if 2 * sum(pattern) >= m else 0
            assert hard_vote(sets)[0, 0] == expected


def test_hard_vote_monotone():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        sets = [rng.integers(0, 2, size=(3, 4)) for _ in range(m)]
        base = hard_vote(sets)
        which = int(rng.integers(m))
        flipped = [s.copy() for s in sets]
        flipped[which] = np.ones_like(flipped[which])
        assert np.all(hard_vote(flipped) >= base)


def test_hard_vote_errors():
    with pytest.raises(ValueError):
        hard_vote([])
    with pytest.raises(ValueError):
        hard_vote([np.zeros((2, 2)), np.zeros((3, 2))])


# ----------------------------------------------------------- task A from B

def test_derive_taskA_cases():
    assert derive_taskA_labels(np.array([0, 0, 0, 0])) == 0
    assert derive_taskA_labels(np.array([0, 1, 0, 0])) == 1
    assert derive_taskA_probs(np.array([0.2, 0.7, 0.1, 0.4])) == 0.7


@given(st.lists(st.floats(min_value=0.0, max_value=1.0),
                min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_or_max_threshold_agreement(probs):
    probs = np.array(probs)
    labels = (probs >= 0.5).astype(int)
    assert derive_taskA_labels(labels) == int(derive_taskA_probs(probs) >= 0.5)


# -------------------------------------------------------------- mann-whitney

def test_mwu_exact_hand_case():
    u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert u == 0.0
    assert abs(p - 1.0 / 3.0) < 1e-15


def test_mwu_identical_samples_p_one():
    u, p = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert u == 4.5
    assert p == 1.0


def test_mwu_empty_sample_error():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


def test_mwu_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.random(4)
        y = rng.random(5)
        ux, px = mann_whitney_u(x, y)
        uy, py = mann_whitney_u(y, x)
        assert abs(ux + uy - len(x) * len(y)) < 1e-12
        assert abs(px - py) < 1e-12


def test_mwu_exact_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(5)
        y = rng.standard_normal(4)
        u, p = mann_whitney_u(x, y)
        ref = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                       method="exact")
        assert abs(u - ref.statistic) < 1e-12
        assert abs(p - ref.pvalue) < 1e-12


def test_mwu_exact_vs_normal_cross_check():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8) + rng.uniform(-1, 1)
        u, p_exact = mann_whitney_u(x, y)
        p_norm = _normal_p(u, 8, 8, np.concatenate([x, y]))
        assert abs(p_exact - p_norm) < 0.05
        assert p_exact == _exact_p(u, 8, 8)  # the exact path was taken


def test_mwu_normal_path_used_above_limit():
    # 10 + 10 folds exceeds the enumeration cap
    x = np.arange(10, dtype=float)
    y = np.arange(10, dtype=float) + 0.5
    assert 10 + 10 > EXACT_LIMIT
    u, p = mann_whitney_u(x, y)
    ref = scipy.stats.mannwhitneyu(
        x, y, alternative="two-sided", method="asymptotic",
        use_continuity=True)
    assert abs(p - ref.pvalue) < 1e-9


def test_mwu_ties_use_normal_path():
    # pairs: (1,2)=0 (1,3)=0 (2,2)=0.5 (2,3)=0 (2,2)=0.5 (2,3)=0 -> U = 1.0
    x = [1.0, 2.0, 2.0]
    y = [2.0, 3.0]
    u, p = mann_whitney_u(x, y)
    assert u == 1.0
    ref = scipy.stats.mannwhitneyu(
        x, y, alternative="two-sided", method="asymptotic",
        use_continuity=True)
    assert abs(p - ref.pvalue) < 1e-9


def test_significance_star_buckets():
    assert significance_stars(5e-5) == "****"
    assert significance_stars(5e-4) == "***"
    assert significance_stars(5e-3) == "**"
    assert significance_stars(3e-2) == "*"
    assert significance_stars(0.06) == "ns"
    assert significance_stars(1e-4) == "****"
    assert significance_stars(1e-3) == "***"
    assert significance_stars(1e-2) == "**"
    assert significance_stars(5e-2) == "*"
