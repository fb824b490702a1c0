"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with pytest -s or in failure
output) after its assertions. The heavy end-to-end criterion trains on
the seeded synthetic dataset; everything downstream of it reuses the same
run directory.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from memefuse.autodiff import Tensor, parameter, zero_grads
from memefuse.dataio import RunConfig, ingest
from memefuse.ensemble import (FoldRun, derive_taskA_labels,
                               derive_taskA_probs, hard_vote, mann_whitney_u,
                               soft_vote, taskA_macro_f1, _normal_p)
from memefuse.fusion import FusionModel
from memefuse.nn import (AttentionConfig, GcanEncoder, ImageEncoder,
                         ModelOutput, TextEncoder, classifier_head,
                         gcan_layer, linear, multi_head_attention, _init_head,
                         _init_layer)
from memefuse.pipeline import CvContext, train_model_cv
from memefuse.rundir import load_fold_runs, read_predictions
from memefuse.preprocess import build_vocabulary
from memefuse.synth import SynthSpec, gen_synth
from memefuse.textgraph import build_adjacency, count_windows, pmi, tfidf
from memefuse.training import (class_weights, combined_loss, lr_at,
                               teacher_forcing_loss)
from oracles import dense_graph, numeric_gradient, rel_error

from test_training import scripted_run


def report(criterion, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion} [{name}]: PASS{suffix}")


# 1 ---------------------------------------------------------------------------

def test_criterion_1_graph_dense_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for case in range(20):
        n_docs = int(rng.integers(1, 13))
        corpus_tokens = []
        for _ in range(n_docs):
            length = int(rng.integers(1, 31))
            corpus_tokens.append(
                [f"w{rng.integers(0, 12)}" for _ in range(length)])
        window_len = int(rng.integers(1, 8))
        vocab = build_vocabulary(corpus_tokens)
        ids = [[vocab.lookup(t) for t in doc] for doc in corpus_tokens]
        stats = count_windows(ids, window_len)
        graph = build_adjacency(ids, stats, vocab)
        a_ref, norm_ref = dense_graph(ids, window_len, vocab.n_W)
        worst = max(worst,
                    np.max(np.abs(graph.raw.toarray() - a_ref)),
                    np.max(np.abs(graph.normalized.toarray() - norm_ref)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    report(1, "graph dense oracle",
           f"max |diff| {worst:.2e}, {elapsed:.2f}s")


# 2 ---------------------------------------------------------------------------

def test_criterion_2_pmi_tfidf_spot_values():
    from collections import Counter
    from memefuse.textgraph import WindowStats
    stats = WindowStats(total=8, per_token=Counter({4: 2, 5: 4}),
                        per_pair=Counter({(4, 5): 2}), window_len=3)
    assert abs(pmi(stats, 4, 5) - math.log(2)) < 1e-12
    corpus = [[5, 5, 6], [6]]
    assert abs(tfidf(corpus, 0, 5) - 2 * math.log(2)) < 1e-12
    report(2, "PMI/TF-IDF spot values")


# 3 ---------------------------------------------------------------------------

def test_criterion_3_gradient_checks():
    start = time.perf_counter()
    cfg = AttentionConfig(d_att=4, n_heads=2, n_layers=2, dropout=0.0)
    worst_layer = 0.0
    worst_model = 0.0

    def check(build_loss, params):
        zero_grads(params)
        build_loss().backward()
        worst = 0.0
        for p in params.values():
            if not p.requires_grad or p.grad is None:
                continue
            ref = numeric_gradient(lambda: float(build_loss().data), p.data)
            worst = max(worst, rel_error(p.grad, ref))
        return worst

    for seed in range(10):
        gen = np.random.default_rng(seed)

        # linear
        x = parameter(gen.standard_normal((2, 3)))
        w = parameter(gen.standard_normal((4, 3)))
        b = parameter(gen.standard_normal(4))
        mix = Tensor(gen.standard_normal((2, 4)))
        worst_layer = max(worst_layer, check(
            lambda: (linear(x, w, b) * mix).sum(), {"x": x, "w": w, "b": b}))

        # attention and GCAN layer (both fusion rules)
        lp = {}
        _init_layer(lp, "l", cfg, gen, is_last=False)
        xa = parameter(gen.standard_normal((1, 3, cfg.d_att)))
        mixa = Tensor(gen.standard_normal((1, 3, cfg.d_att)))
        worst_layer = max(worst_layer, check(
            lambda: (multi_head_attention(xa, lp, "l", cfg) * mixa).sum(),
            {"x": xa, **lp}))
        adj = gen.random((1, 3, 3))
        mixg = Tensor(gen.standard_normal((1, 3, cfg.d_att)))
        worst_layer = max(worst_layer, check(
            lambda: (gcan_layer(xa, adj, lp, "l", cfg, False) * mixg).sum(),
            {"x": xa, **lp}))
        lp_last = {}
        _init_layer(lp_last, "l", cfg, gen, is_last=True)
        worst_layer = max(worst_layer, check(
            lambda: (gcan_layer(xa, adj, lp_last, "l", cfg, True)
                     * mixg).sum(),
            {"x": xa, **lp_last}))

        # classifier head
        hp = {}
        _init_head(hp, "h", 6, 2, gen)
        f = parameter(gen.standard_normal((2, 6)))
        worst_layer = max(worst_layer, check(
            lambda: classifier_head(f, hp, "h", 0.0, None).sum(),
            {"f": f, **hp}))

        # fusion heads
        fm = FusionModel([(2, 3), (2, 3)], 2, dropout=0.0, seed=seed)
        outs = [ModelOutput(p=Tensor(gen.random((2, 2)) * 0.9 + 0.05),
                            f=Tensor(gen.standard_normal((2, 3))))
                for _ in range(2)]
        worst_layer = max(worst_layer, check(
            lambda: fm.forward(outs).p.sum(), fm.params))

        # end-to-end encoders
        text = TextEncoder(6, 3, 2, cfg, seed=seed)
        ids = gen.integers(0, 6, size=(1, 3))
        worst_model = max(worst_model, check(
            lambda: text.forward(ids).p.sum(), text.params))
        gcan = GcanEncoder(6, 3, 2, cfg, seed=seed)
        adj_np = np.eye(3)[None] * 0.6 + 0.1
        worst_model = max(worst_model, check(
            lambda: gcan.forward(ids, adj_np).p.sum(), gcan.params))
        vit = ImageEncoder(4, 2, 2, cfg, seed=seed)
        img = gen.standard_normal((1, 3, 4, 4))
        worst_model = max(worst_model, check(
            lambda: vit.forward(img).p.sum(), vit.params))

    elapsed = time.perf_counter() - start
    assert worst_layer < 1e-4
    assert worst_model < 1e-3
    assert elapsed < 60.0
    report(3, "gradient checks",
           f"layer {worst_layer:.2e}, model {worst_model:.2e}, "
           f"{elapsed:.1f}s")


# 4 ---------------------------------------------------------------------------

def test_criterion_4_identity_adjacency_equivalence():
    cfg = AttentionConfig(d_att=8, n_heads=2, n_layers=3, dropout=0.0)
    text = TextEncoder(20, 6, 4, cfg, seed=5)
    gcan = GcanEncoder(20, 6, 4, cfg, seed=5)
    gcan.params = text.params
    gcan._inner = text
    gen = np.random.default_rng(0)
    eye = np.broadcast_to(np.eye(6), (1, 6, 6)).copy()
    for _ in range(100):
        ids = gen.integers(0, 20, size=(1, 6))
        assert np.array_equal(gcan.stack(ids, eye).data,
                              text.stack(ids).data)
    report(4, "identity-adjacency equivalence", "100 inputs bitwise")


# 5 ---------------------------------------------------------------------------

def test_criterion_5_loss_weight_reproduction():
    w = class_weights((1274, 2810, 2202, 953), 10000).w
    target = np.array([0.2969, 0.1346, 0.1717, 0.3968])
    assert np.max(np.abs(w - target)) < 5e-4
    assert abs(w.sum() - 1.0) < 1e-12
    report(5, "class-weight reproduction",
           "(" + ", ".join(f"{v:.4f}" for v in w) + ")")


# 6 ---------------------------------------------------------------------------

def test_criterion_6_teacher_forcing_and_mix():
    for combo in itertools.product((0.0, 0.5, 1.0), repeat=4):
        for y in (0.0, 1.0):
            loss = float(teacher_forcing_loss(
                Tensor(np.array([combo])), [y]).data)
            assert abs(loss - (max(combo) - y) ** 2) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(20):
        l1, l2 = rng.random(2)
        combined = float(combined_loss(Tensor(np.array(l1)),
                                       Tensor(np.array(l2))).data)
        assert abs(combined - (0.7 * l1 + 0.3 * l2)) < 1e-12
    report(6, "teacher forcing + loss mix", "81-case grid")


# 7 ---------------------------------------------------------------------------

def test_criterion_7_voting():
    rng = np.random.default_rng(2)
    probs = [rng.random((5, 4)) for _ in range(10)]
    runs = [FoldRun("m", i, 0.5, p) for i, p in enumerate(probs)]
    vote = soft_vote(runs)
    assert np.max(np.abs(vote.probabilities - np.mean(probs, axis=0))) < 1e-12

    def vote_of(ones, m):
        sets = [np.array([[1]])] * ones + [np.array([[0]])] * (m - ones)
        return hard_vote(sets)[0, 0]

    assert vote_of(3, 6) == 1
    assert vote_of(3, 7) == 0
    assert vote_of(4, 7) == 1
    for m in range(1, 8):
        for pattern in itertools.product((0, 1), repeat=m):
            expected = 1 if 2 * sum(pattern) >= m else 0
            assert hard_vote([np.array([[v]]) for v in pattern])[0, 0] \
                == expected
    report(7, "soft/hard voting", "all patterns m <= 7")


# 8 ---------------------------------------------------------------------------

def test_criterion_8_mann_whitney():
    u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert u == 0.0
    assert p == pytest.approx(1.0 / 3.0, abs=0)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8) + rng.uniform(-0.5, 0.5)
        u, p_exact = mann_whitney_u(x, y)
        p_norm = _normal_p(u, 8, 8, np.concatenate([x, y]))
        worst = max(worst, abs(p_exact - p_norm))
    assert worst < 0.05
    report(8, "Mann-Whitney U", f"max |exact - normal| {worst:.3f}")


# 9/10 -------------------------------------------------------------------------

E2E_SPEC = SynthSpec(n_train=1000, n_test=200, seed=7,
                     keyword_prob=0.65, motif_prob=0.65)

E2E_CFG = dict(setup="B", folds=10, epochs=30, warmup_epochs=2,
               base_lr=3e-3, fusion_lr=1e-2, batch_size=16,
               fusion_batch_size=32, patience=8, dropout=0.1, seq_len=12,
               resize=36, crop=32, patch=8, d_att=32, n_heads=4, n_layers=3,
               window_len=10, seed=11)


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    data_dir = os.path.join(root, "data")
    out_dir = os.path.join(root, "runs")
    start = time.perf_counter()
    gen_synth(E2E_SPEC, data_dir)
    train = ingest(os.path.join(data_dir, "train.tsv"))
    test = ingest(os.path.join(data_dir, "test.tsv"))
    ctx = CvContext(train, test, RunConfig(**E2E_CFG))
    scores = {}
    for model in ("gcan", "vit", "gcan-vit"):
        arts = train_model_cv(ctx, model, out_dir, log=None)
        vote = soft_vote([a.run for a in arts])
        scores[model] = taskA_macro_f1(
            derive_taskA_labels(vote.labels), ctx.test_y_mis)
    elapsed = time.perf_counter() - start
    return {"scores": scores, "elapsed": elapsed, "out": out_dir,
            "y_mis": ctx.test_y_mis}


def test_criterion_9_fusion_beats_unimodal(e2e_run):
    scores = e2e_run["scores"]
    assert scores["gcan"] <= 0.85
    assert scores["vit"] <= 0.85
    assert scores["gcan-vit"] >= 0.90
    assert scores["gcan-vit"] >= scores["gcan"] + 0.03
    assert scores["gcan-vit"] >= scores["vit"] + 0.03
    assert e2e_run["elapsed"] < 900.0
    report(9, "end-to-end fusion claim",
           f"gcan {scores['gcan']:.3f}, vit {scores['vit']:.3f}, "
           f"fused {scores['gcan-vit']:.3f}, {e2e_run['elapsed']:.0f}s")


def test_criterion_10_setup_b_subsumes_a(e2e_run):
    for model in ("gcan", "vit", "gcan-vit"):
        runs = load_fold_runs(e2e_run["out"], model)
        for run in runs:
            path = os.path.join(e2e_run["out"], model,
                                f"fold{run.fold}_preds.tsv")
            ids, probs, labels = read_predictions(path)
            assert len(ids) == len(e2e_run["y_mis"])
            sub_labels = labels[:, :4]
            mis_labels = labels[:, 4]
            # OR / max-threshold agreement on every test sample
            assert np.array_equal(derive_taskA_labels(sub_labels),
                                  mis_labels)
            assert np.array_equal(
                (derive_taskA_probs(probs) >= 0.5).astype(int), mis_labels)
            # the derived task-A macro F1 computes without error
            f1 = taskA_macro_f1(mis_labels, e2e_run["y_mis"])
            assert 0.0 <= f1 <= 1.0
    report(10, "setup B subsumes setup A", "3 models x 10 folds")


# 11 ---------------------------------------------------------------------------

def test_criterion_11_training_regime_mechanics(monkeypatch):
    # early stopping on a constant trace: exactly patience + 1 epochs
    _, _, records, _ = scripted_run(monkeypatch, [0.5] * 20, patience=4)
    assert len(records) == 5

    # top-2 checkpoint averaging on a scripted trace
    monkeypatch.undo()
    from memefuse.checkpoint import average_checkpoints
    trace = [0.2, 0.8, 0.9, 0.3, 0.1, 0.1] + [0.0] * 20
    best, final, records, snaps = scripted_run(monkeypatch, trace)
    assert best == 0.9
    expected = average_checkpoints(snaps[2], snaps[3])
    assert np.array_equal(final["w"], expected["w"])

    # schedule endpoints, exactly
    assert lr_at(0, 2e-5, 40, 500) == 0.0
    assert lr_at(40, 2e-5, 40, 500) == 2e-5
    assert lr_at(500, 2e-5, 40, 500) == 0.0
    report(11, "training-regime mechanics")
