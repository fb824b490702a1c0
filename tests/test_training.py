"""Losses, schedule, optimizer, early stopping, checkpoint averaging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memefuse.training as training
from memefuse.autodiff import Tensor, parameter
from memefuse.checkpoint import average_checkpoints
from memefuse.nn import ModelOutput, NumericError, linear
from memefuse.training import (AdamW, EpochRecord, LossWeights, TrainConfig,
                               bce, class_weights, combined_loss, lr_at,
                               restore, select_top2, setup_loss, snapshot,
                               teacher_forcing_loss, train_model,
                               validation_f1, weighted_bce)
from oracles import (adamw_reference_step, column_weighted_bce,
                     numeric_gradient, rel_error)

# Table 1 training-split counts: 10000 misogynous memes total
TABLE1_COUNTS = (1274, 2810, 2202, 953)
TABLE1_TOTAL = 10000


# -------------------------------------------------------------------- losses

def test_bce_values():
    assert abs(float(bce(Tensor([[0.5]]), [[1.0]]).data)
               - math.log(2)) < 1e-12
    assert float(bce(Tensor([[1.0]]), [[1.0]]).data) < 1e-11
    assert float(bce(Tensor([[0.0]]), [[0.0]]).data) < 1e-11
    assert abs(float(bce(Tensor([[0.9]]), [[0.0]]).data)
               + math.log(0.1)) < 1e-12


def test_bce_is_mean_over_batch_and_components():
    p = Tensor([[0.5, 0.9], [0.5, 0.9]])
    y = [[1.0, 0.0], [1.0, 0.0]]
    expected = (math.log(2) - math.log(0.1)) / 2.0
    assert abs(float(bce(p, y).data) - expected) < 1e-12


def test_class_weights_equal_counts():
    w = class_weights([5, 5, 5, 5], 20).w
    assert np.allclose(w, 0.25)


def test_class_weights_table1():
    w = class_weights(TABLE1_COUNTS, TABLE1_TOTAL).w
    assert np.allclose(w, (0.2969, 0.1346, 0.1717, 0.3968), atol=5e-4)
    assert abs(w.sum() - 1.0) < 1e-12


def test_class_weights_ratio_property():
    w = class_weights([10, 5, 5, 5], 25).w
    assert abs(w[0] * 2 - w[1]) < 1e-12


def test_class_weights_zero_count_error():
    with pytest.raises(ValueError):
        class_weights([0, 1, 1, 1], 3)


@given(st.lists(st.integers(min_value=1, max_value=500),
                min_size=4, max_size=4),
       st.permutations(range(4)))
@settings(max_examples=100, deadline=None)
def test_class_weights_sum_and_equivariance(counts, perm):
    w = class_weights(counts, sum(counts)).w
    assert abs(w.sum() - 1.0) < 1e-12
    permuted = class_weights([counts[i] for i in perm], sum(counts)).w
    assert np.allclose(permuted, w[list(perm)], atol=1e-12)


def test_weighted_bce_uniform_equals_sum_of_means():
    rng = np.random.default_rng(0)
    p = Tensor(rng.random((3, 4)) * 0.9 + 0.05)
    y = rng.integers(0, 2, size=(3, 4)).astype(float)
    w = LossWeights(np.full(4, 0.25))
    total = sum(0.25 * float(bce(p[:, c], y[:, c]).data) for c in range(4))
    assert abs(float(weighted_bce(p, y, w).data) - total) < 1e-12


def test_weighted_bce_matches_column_oracle():
    for seed in range(10):
        gen = np.random.default_rng(seed)
        p = parameter(gen.random((5, 4)) * 0.9 + 0.05)
        y = gen.integers(0, 2, size=(5, 4)).astype(float)
        w = class_weights(gen.integers(1, 50, size=4), 100)
        loss = weighted_bce(p, y, w)
        assert abs(float(loss.data)
                   - column_weighted_bce(p.data, y, w.w)) < 1e-12
        loss.backward()
        ref = numeric_gradient(lambda: column_weighted_bce(p.data, y, w.w),
                               p.data)
        assert rel_error(p.grad, ref) < 1e-6


def test_bce_gradient_zero_where_clamped():
    p = parameter(np.array([[0.0, 0.5, 1.0]]))
    bce(p, [[1.0, 1.0, 0.0]]).backward()
    assert p.grad[0, 0] == 0.0 and p.grad[0, 2] == 0.0
    assert p.grad[0, 1] == pytest.approx(-1.0 / (3 * 0.5))


def test_weighted_bce_perfect_predictions():
    p = Tensor(np.array([[1.0, 0.0, 1.0, 0.0]]))
    y = np.array([[1.0, 0.0, 1.0, 0.0]])
    w = LossWeights(np.full(4, 0.25))
    assert float(weighted_bce(p, y, w).data) < 1e-10


def test_weighted_bce_hand_case():
    # all weight on the first class: w ~ (1, 0, 0, 0), p_shm = 0.5, y = 1
    w = LossWeights(np.array([1.0, 1e-15, 1e-15, 1e-15]))
    p = Tensor(np.array([[0.5, 0.5, 0.5, 0.5]]))
    y = np.array([[1.0, 0.0, 0.0, 0.0]])
    assert abs(float(weighted_bce(p, y, w).data) - math.log(2)) < 1e-12


def test_loss_weights_reject_nonpositive():
    with pytest.raises(ValueError):
        LossWeights(np.array([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        LossWeights(np.array([1.0, 1.0]))


def test_teacher_forcing_values():
    p = Tensor(np.array([[0.2, 0.7, 0.1, 0.4]]))
    assert abs(float(teacher_forcing_loss(p, [1.0]).data) - 0.09) < 1e-12
    assert float(teacher_forcing_loss(p, [0.7]).data) < 1e-12
    half = Tensor(np.full((1, 4), 0.5))
    assert abs(float(teacher_forcing_loss(half, [0.0]).data) - 0.25) < 1e-12


def test_teacher_forcing_exhaustive_grid():
    # p^A = max over every 0.0/0.5/1.0 combination (81 cases)
    from itertools import product
    for combo in product((0.0, 0.5, 1.0), repeat=4):
        p = Tensor(np.array([combo]))
        loss = float(teacher_forcing_loss(p, [0.0]).data)
        assert abs(loss - max(combo) ** 2) < 1e-12


@given(st.lists(st.floats(min_value=0.01, max_value=0.99),
                min_size=4, max_size=4),
       st.permutations(range(4)))
@settings(max_examples=100, deadline=None)
def test_teacher_forcing_permutation_invariant(probs, perm):
    a = float(teacher_forcing_loss(Tensor(np.array([probs])), [1.0]).data)
    b = float(teacher_forcing_loss(
        Tensor(np.array([[probs[i] for i in perm]])), [1.0]).data)
    assert abs(a - b) < 1e-12


def test_combined_loss_values():
    l1, l2 = Tensor(np.array(1.0)), Tensor(np.array(0.5))
    assert abs(float(combined_loss(l1, l2).data) - 0.85) < 1e-12
    assert abs(float(combined_loss(l1, Tensor(np.array(0.0))).data)
               - 0.7) < 1e-12
    assert abs(float(combined_loss(l1, l2, (1.0, 0.0)).data) - 1.0) < 1e-12


def test_combined_loss_monotone():
    base = float(combined_loss(Tensor(np.array(1.0)),
                               Tensor(np.array(1.0))).data)
    assert float(combined_loss(Tensor(np.array(1.1)),
                               Tensor(np.array(1.0))).data) > base
    assert float(combined_loss(Tensor(np.array(1.0)),
                               Tensor(np.array(1.1))).data) > base


def test_setup_loss_dispatch():
    cfg_a = TrainConfig(setup="A", epochs=5, warmup_epochs=1)
    cfg_b = TrainConfig(setup="B", epochs=5, warmup_epochs=1)
    assert cfg_a.n_outputs == 1
    assert cfg_b.n_outputs == 4
    y_mis = np.array([1.0])
    y_sub = np.array([[1.0, 0.0, 0.0, 0.0]])
    p_a = Tensor(np.array([[0.5]]))
    assert abs(float(setup_loss(p_a, y_mis, y_sub, cfg_a, None).data)
               - math.log(2)) < 1e-12
    p_b = Tensor(np.full((1, 4), 0.5))
    w = LossWeights(np.full(4, 0.25))
    expected = 0.7 * float(weighted_bce(p_b, y_sub, w).data) \
        + 0.3 * float(teacher_forcing_loss(p_b, y_mis).data)
    assert abs(float(setup_loss(p_b, y_mis, y_sub, cfg_b, w).data)
               - expected) < 1e-12


# ------------------------------------------------------------------ schedule

def test_lr_endpoints():
    base = 2e-5
    assert lr_at(0, base, 40, 500) == 0.0
    assert lr_at(40, base, 40, 500) == base
    assert lr_at(500, base, 40, 500) == 0.0
    mid = (40 + 500) // 2
    assert abs(lr_at(mid, base, 40, 500) - base / 2) < 1e-18


def test_lr_piecewise_linear_and_single_peak():
    base = 1.0
    values = [lr_at(s, base, 10, 100) for s in range(0, 101)]
    assert max(values) == base
    assert values.count(base) == 1
    # continuity: adjacent steps never jump more than the larger slope
    slope = max(base / 10, base / 90)
    for a, b in zip(values, values[1:]):
        assert abs(b - a) <= slope + 1e-15


# ----------------------------------------------------------------- optimizer

def test_adamw_zero_grads_no_decay():
    p = parameter(np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    opt = AdamW({"p": p}, weight_decay=0.0)
    opt.step(0.1)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adamw_pure_shrinkage():
    p = parameter(np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    opt = AdamW({"p": p}, weight_decay=0.01)
    opt.step(0.1)
    assert np.allclose(p.data, np.array([1.0, -2.0]) * (1 - 0.1 * 0.01))


def test_adamw_single_step_closed_form():
    theta0, g, lr, wd = 1.0, 1.0, 0.1, 0.01
    p = parameter(np.array([theta0]))
    p.grad = np.array([g])
    opt = AdamW({"p": p}, weight_decay=wd)
    opt.step(lr)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = theta0 - lr * (g / (abs(g) + 1e-8) + wd * theta0)
    assert abs(p.data[0] - expected) < 1e-15


def test_adamw_rejects_non_finite_gradient():
    ok = parameter(np.array([1.0]))
    ok.grad = np.array([0.5])
    bad = parameter(np.array([1.0, 2.0]))
    bad.grad = np.array([0.0, np.nan])
    with pytest.raises(NumericError, match="non-finite gradient for bad$"):
        AdamW({"ok": ok, "bad": bad}).step(0.1)
    assert ok.data[0] == 1.0  # nothing moved


def test_adamw_flat_buffer_matches_per_tensor_reference():
    gen = np.random.default_rng(0)
    shapes = {"w": (3, 4), "b": (4,), "frozen": (2, 2), "s": ()}
    params = {k: parameter(gen.standard_normal(s)) for k, s in shapes.items()}
    ref = {k: p.data.copy() for k, p in params.items()}
    ref_m = {k: np.zeros(s) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = AdamW(params, weight_decay=0.05)
    for t in range(1, 6):
        grads = {k: gen.standard_normal(s) for k, s in shapes.items()}
        grads["frozen"] = None  # no gradient: not moved, not decayed
        for k, p in params.items():
            p.grad = grads[k]
        lr = 0.01 * t
        opt.step(lr)
        for k in params:
            if grads[k] is not None:
                ref[k], ref_m[k], ref_v[k] = adamw_reference_step(
                    ref[k], grads[k], ref_m[k], ref_v[k], t, lr,
                    weight_decay=0.05)
    for k, p in params.items():
        assert np.array_equal(p.data, ref[k]), k
        assert np.array_equal(opt.m[k], ref_m[k]), k
        assert np.array_equal(opt.v[k], ref_v[k]), k
    assert not np.any(opt.m["frozen"]) and not np.any(opt.v["frozen"])


def test_adamw_picks_up_replaced_parameter_data():
    p = parameter(np.array([1.0, 2.0]))
    opt = AdamW({"p": p}, weight_decay=0.0)
    p.data = np.array([5.0, 6.0])  # e.g. restore() of a snapshot
    p.grad = np.zeros(2)
    opt.step(0.1)
    assert np.array_equal(p.data, [5.0, 6.0])


def test_snapshot_restore_roundtrip():
    p = parameter(np.array([1.0, 2.0]))
    params = {"p": p}
    saved = snapshot(params)
    p.data[:] = 0.0
    restore(params, saved)
    assert np.array_equal(p.data, [1.0, 2.0])
    saved["p"][0] = 99.0  # snapshots are copies
    assert p.data[0] == 1.0


# --------------------------------------------------------------- loop policy

def recs(f1s):
    return [EpochRecord(e, 0.0, f, 0.0) for e, f in enumerate(f1s, start=1)]


def test_select_top2_monotone_trace():
    assert sorted(select_top2(recs([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))) == [5, 6]


def test_select_top2_tie_rule_earliest():
    assert select_top2(recs([0.5, 0.5, 0.5, 0.5, 0.5])) == [1, 2]


def test_select_top2_single_epoch():
    assert select_top2(recs([0.4])) == [1]


def test_validation_f1_dispatch():
    probs = np.array([[0.9], [0.1]])
    assert validation_f1(probs, np.array([1.0, 0.0]), None) == 1.0
    probs_b = np.array([[0.9, 0.1, 0.1, 0.1]])
    y_sub = np.array([[1, 0, 0, 0]])
    assert validation_f1(probs_b, np.array([1.0]), y_sub) == 1.0


class ScriptedTrainable:
    """Minimal trainable: a 4-logit model over constant inputs."""

    def __init__(self, n_val=4):
        self.params = {"w": parameter(np.zeros(4))}
        self.n_val = n_val

    def forward_batch(self, idx, rng):
        ones = Tensor(np.ones((len(idx), 1)))
        logits = ones @ self.params["w"].reshape(1, 4)
        return ModelOutput(p=logits.sigmoid(), f=ones)

    def eval_val(self):
        return np.full((self.n_val, 4), 0.6)


def scripted_run(monkeypatch, trace, epochs=20, patience=4):
    """train_model against a scripted validation-F1 sequence."""
    seen_snapshots = {}
    real_snapshot = training.snapshot

    def fake_f1(probs, y_mis, y_sub):
        return trace[len(seen_snapshots)]

    def spy_snapshot(params):
        snap = real_snapshot(params)
        seen_snapshots[len(seen_snapshots) + 1] = snap
        return snap

    monkeypatch.setattr(training, "validation_f1", fake_f1)
    monkeypatch.setattr(training, "snapshot", spy_snapshot)
    trainable = ScriptedTrainable()
    n = 8
    y_sub = np.tile([1.0, 0.0, 1.0, 0.0], (n, 1))
    y_mis = np.ones(n)
    cfg = TrainConfig(setup="B", epochs=epochs, batch_size=4, base_lr=1e-2,
                      warmup_epochs=1, patience=patience, seed=0)
    best, final, records = train_model(trainable, y_mis, y_sub,
                                       y_mis[:4], y_sub[:4], cfg)
    return best, final, records, seen_snapshots


def test_early_stopping_constant_trace(monkeypatch):
    best, final, records, _ = scripted_run(monkeypatch, [0.5] * 20)
    assert len(records) == 5  # patience + 1 epochs
    assert best == 0.5


def test_early_stopping_strict_improvement_resets(monkeypatch):
    trace = [0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3] + [0.3] * 20
    _, _, records, _ = scripted_run(monkeypatch, trace)
    assert len(records) == 9  # new best at epoch 5 restarts the counter


def test_checkpoint_averaging_of_top2(monkeypatch):
    trace = [0.1, 0.9, 0.8, 0.7, 0.6, 0.5] + [0.0] * 20
    best, final, records, snaps = scripted_run(monkeypatch, trace)
    assert best == 0.9
    assert len(records) == 6
    expected = average_checkpoints(snaps[2], snaps[3])
    assert np.allclose(final["w"], expected["w"], atol=0)


def test_train_model_empty_fold():
    with pytest.raises(ValueError):
        train_model(ScriptedTrainable(), np.array([]), np.zeros((0, 4)),
                    np.array([1.0]), np.ones((1, 4)),
                    TrainConfig(epochs=5, warmup_epochs=1))


def test_training_loss_decreases_on_separable_data():
    rng = np.random.default_rng(0)
    n, d = 32, 6

    class LinearTrainable:
        def __init__(self, x):
            self.x = x
            self.params = {"w": parameter(np.zeros((4, d))),
                           "b": parameter(np.zeros(4))}

        def forward_batch(self, idx, rng_):
            logits = linear(Tensor(self.x[idx]), self.params["w"],
                            self.params["b"])
            return ModelOutput(p=logits.sigmoid(), f=Tensor(self.x[idx]))

        def eval_val(self):
            logits = self.x[:4] @ self.params["w"].data.T \
                + self.params["b"].data
            return 1.0 / (1.0 + np.exp(-logits))

    x = rng.standard_normal((n, d))
    y_sub = (x[:, :4] > 0).astype(float)  # linearly separable targets
    y_mis = y_sub.max(axis=1)
    cfg = TrainConfig(setup="B", epochs=8, batch_size=n, base_lr=0.05,
                      warmup_epochs=2, patience=8, seed=0)
    _, _, records = train_model(LinearTrainable(x), y_mis, y_sub,
                                y_mis[:4], y_sub[:4], cfg)
    losses = [r.train_loss for r in records[:5]]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(setup="C")
    with pytest.raises(ValueError):
        TrainConfig(epochs=4, warmup_epochs=4)
    with pytest.raises(ValueError):
        TrainConfig(epochs=4, warmup_epochs=0)
