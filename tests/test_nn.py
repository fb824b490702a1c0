"""Layers and encoders: values against dense oracles, exact gradients."""

import numpy as np
import pytest

from conftest import tape_nodes
from memefuse.autodiff import Tensor, parameter
from memefuse.dataio import RunConfig
from memefuse.nn import (AttentionConfig, GcanEncoder, ImageEncoder,
                         NumericError, TextEncoder, classifier_head,
                         gcan_layer, linear, multi_head_attention,
                         sinusoidal_positions, _classify, _init_head,
                         _init_layer)
from memefuse.training import (LOSS_MIX, class_weights, setup_loss,
                               teacher_forcing_loss)
from oracles import (add, getitem, layer_norm, naive_attention_layer,
                     numeric_gradient, rel_error, rows_gradient_add_at, sub,
                     unfused_classifier_head, unfused_gcan_layer,
                     unfused_image_embedding, unfused_setup_b_loss,
                     unfused_text_embedding)

CFG = AttentionConfig(d_att=8, n_heads=2, n_layers=3, dropout=0.0)

LAYER_TOL = 1e-4   # per-layer gradient tolerance
MODEL_TOL = 1e-3   # end-to-end gradient tolerance


def grads_ok(build_loss, params, tol):
    loss = build_loss()
    loss.backward()
    worst = 0.0
    for name, p in params.items():
        if not p.requires_grad:
            continue
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        ref = numeric_gradient(lambda: float(build_loss().data), p.data)
        worst = max(worst, rel_error(grad, ref))
    assert worst < tol, worst


# -------------------------------------------------------------------- linear

def test_linear_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    y = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.array_equal(y.data, x.data)


def test_linear_hand_case():
    x = Tensor(np.array([[1.0, 2.0]]))
    w = Tensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    b = Tensor(np.array([0.0, 1.0]))
    assert np.array_equal(linear(x, w, b).data, [[3.0, 3.0]])


def test_linear_gradients(rng):
    for seed in range(10):
        gen = np.random.default_rng(seed)
        x = parameter(gen.standard_normal((3, 4)))
        w = parameter(gen.standard_normal((5, 4)))
        b = parameter(gen.standard_normal(5))
        mix = Tensor(gen.standard_normal((3, 5)))
        grads_ok(lambda: (linear(x, w, b) * mix).sum(),
                 {"x": x, "w": w, "b": b}, LAYER_TOL)


# ----------------------------------------------------------------- attention

def make_layer_params(seed, cfg=CFG, is_last=False):
    params = {}
    _init_layer(params, "l", cfg, np.random.default_rng(seed), is_last)
    return params


def test_attention_zero_qk_is_uniform(rng):
    params = make_layer_params(0)
    params["l.wq"].data[:] = 0.0
    params["l.wk"].data[:] = 0.0
    x = Tensor(rng.standard_normal((1, 5, CFG.d_att)))
    merged = multi_head_attention(x, params, "l", CFG).data
    v = x.data @ params["l.wv"].data.T
    assert np.allclose(merged, np.broadcast_to(
        v.mean(axis=1, keepdims=True), merged.shape), atol=1e-12)


def test_attention_single_row(rng):
    params = make_layer_params(1)
    x = Tensor(rng.standard_normal((1, 1, CFG.d_att)))
    merged = multi_head_attention(x, params, "l", CFG).data
    assert np.allclose(merged, x.data @ params["l.wv"].data.T, atol=1e-12)


def test_attention_last_layer_averages_heads(rng):
    params = make_layer_params(4)
    x = Tensor(rng.standard_normal((2, 3, CFG.d_att)))
    concat_heads = multi_head_attention(x, params, "l", CFG).data
    mean_heads = multi_head_attention(x, params, "l", CFG, is_last=True).data
    per_head = concat_heads.reshape(2, 3, CFG.n_heads, CFG.d_k)
    assert np.allclose(mean_heads, per_head.mean(axis=2), atol=1e-12)


def test_attention_softmax_rows(rng):
    params = make_layer_params(2)
    x = rng.standard_normal((1, 3, CFG.d_att))
    q = (x @ params["l.wq"].data.T).reshape(1, 3, CFG.n_heads, CFG.d_k)
    k = (x @ params["l.wk"].data.T).reshape(1, 3, CFG.n_heads, CFG.d_k)
    logits = np.einsum("bqhd,bkhd->bhqk", q, k) / np.sqrt(CFG.d_k)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
    v = (x @ params["l.wv"].data.T).reshape(1, 3, CFG.n_heads, CFG.d_k)
    heads = np.einsum("bhqk,bkhd->bqhd", alpha, v).reshape(1, 3, CFG.d_att)
    merged = multi_head_attention(Tensor(x), params, "l", CFG).data
    assert np.allclose(merged, heads, atol=1e-12)


def test_attention_non_finite_logits_error():
    params = {}
    _init_layer(params, "layer1", CFG, np.random.default_rng(3), False)
    x = Tensor(np.full((1, 2, CFG.d_att), 1e200))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="non-finite values in layer1 attention "
                                "logits"):
        multi_head_attention(x, params, "layer1", CFG)


def test_attention_gradients():
    for seed in range(10):
        gen = np.random.default_rng(seed)
        is_last = bool(seed % 2)
        params = make_layer_params(seed, is_last=is_last)
        x = parameter(gen.standard_normal((2, 3, CFG.d_att)))
        adj = gen.random((2, 3, 3)) if seed % 3 else None
        width = CFG.d_k if is_last else CFG.d_att
        w = gen.standard_normal((2, 3, width))
        grads_ok(lambda: (multi_head_attention(x, params, "l", CFG, adj,
                                               is_last) * Tensor(w)).sum(),
                 {"x": x, **params}, LAYER_TOL)


# ---------------------------------------------------------------- gcan layer

def test_gcan_layer_identity_adjacency_matches_plain_path(rng):
    for is_last in (False, True):
        params = make_layer_params(5, is_last=is_last)
        x = Tensor(rng.standard_normal((2, 4, CFG.d_att)))
        eye = np.broadcast_to(np.eye(4), (2, 4, 4)).copy()
        with_adj = gcan_layer(x, eye, params, "l", CFG, is_last)
        without = gcan_layer(x, None, params, "l", CFG, is_last)
        assert np.array_equal(with_adj.data, without.data)  # bitwise


def test_gcan_layer_pad_rows_pass_through(rng):
    # adjacency zero except unit diagonal on the PAD rows: the adjacency
    # weighting leaves those head-output rows unchanged
    params = make_layer_params(6)
    x = Tensor(rng.standard_normal((1, 4, CFG.d_att)))
    plain = multi_head_attention(x, params, "l", CFG)
    adj = np.zeros((1, 4, 4))
    adj[0, 2, 2] = 1.0
    adj[0, 3, 3] = 1.0
    weighted = multi_head_attention(x, params, "l", CFG, adj)
    assert np.allclose(weighted.data[:, 2:], plain.data[:, 2:], atol=1e-15)
    assert np.all(weighted.data[:, :2] == 0.0)


def test_gcan_layer_matches_dense_oracle(rng):
    cfg = CFG
    x0 = rng.standard_normal((4, cfg.d_att))
    adj = rng.random((4, 4))
    adj = (adj + adj.T) / 2
    x = Tensor(x0[None])
    for layer in range(cfg.n_layers):
        is_last = layer == cfg.n_layers - 1
        params = make_layer_params(10 + layer, is_last=is_last)
        plain = {k.split(".")[1]: v.data for k, v in params.items()}
        ref = naive_attention_layer(
            np.asarray(x.data[0]), adj, plain, cfg.d_att, cfg.n_heads, is_last)
        x = gcan_layer(x, adj[None], params, "l", cfg, is_last)
        assert np.max(np.abs(x.data[0] - ref)) < 1e-10


def test_gcan_layer_rejects_size_mismatch(rng):
    params = make_layer_params(7)
    x = Tensor(rng.standard_normal((1, 4, CFG.d_att)))
    with pytest.raises(ValueError):
        gcan_layer(x, np.eye(3)[None], params, "l", CFG, False)


def test_gcan_layer_gradients():
    for seed in range(10):
        gen = np.random.default_rng(seed)
        is_last = bool(seed % 2)
        params = make_layer_params(seed, is_last=is_last)
        x = parameter(gen.standard_normal((1, 3, CFG.d_att)))
        adj = np.eye(3)[None] * 0.5 + 0.1
        w = gen.standard_normal((1, 3, CFG.d_att))
        grads_ok(lambda: (gcan_layer(x, adj, params, "l", CFG, is_last)
                          * Tensor(w)).sum(),
                 {"x": x, **params}, LAYER_TOL)


# ----------------------------------------------------------- classifier head

def test_classifier_head_zero_weights():
    params = {}
    _init_head(params, "h", 4, 3, np.random.default_rng(0))
    for p in params.values():
        p.data[:] = 0.0
    out = classifier_head(Tensor(np.ones((2, 4))), params, "h", 0.0, None)
    assert np.allclose(out.data, 0.5)


def test_classifier_head_hand_case():
    # d=2, hidden=1, n=1: p = sigmoid(w2 * relu(w1 . f + b1) + b2)
    params = {}
    _init_head(params, "h", 2, 1, np.random.default_rng(0))
    params["h.w1"].data[:] = [[1.0, -1.0]]
    params["h.b1"].data[:] = 0.5
    params["h.w2"].data[:] = [[2.0]]
    params["h.b2"].data[:] = -1.0
    out = classifier_head(Tensor(np.array([[2.0, 1.0]])), params, "h",
                          0.0, None)
    expected = 1.0 / (1.0 + np.exp(-(2.0 * 1.5 - 1.0)))
    assert abs(out.data[0, 0] - expected) < 1e-12


def test_classifier_head_dropout_modes(rng):
    params = {}
    _init_head(params, "h", 6, 2, np.random.default_rng(1))
    f = Tensor(rng.standard_normal((4, 6)))
    eval1 = classifier_head(f, params, "h", 0.5, None)
    eval2 = classifier_head(f, params, "h", 0.5, None)
    assert np.array_equal(eval1.data, eval2.data)
    tr1 = classifier_head(f, params, "h", 0.5, np.random.default_rng(7))
    tr2 = classifier_head(f, params, "h", 0.5, np.random.default_rng(7))
    assert np.array_equal(tr1.data, tr2.data)
    assert not np.array_equal(tr1.data, eval1.data)


def test_classifier_head_gradients():
    for seed in range(10):
        gen = np.random.default_rng(seed)
        params = {}
        _init_head(params, "h", 6, 2, gen)
        f = parameter(gen.standard_normal((3, 6)))
        grads_ok(lambda: classifier_head(f, params, "h", 0.0, None).sum(),
                 {"f": f, **params}, LAYER_TOL)


def test_head_non_finite_names_the_op(rng):
    params = {}
    _init_head(params, "head", 6, 2, np.random.default_rng(0))
    params["head.w2"].data[0, 0] = np.nan
    with pytest.raises(NumericError,
                       match="^non-finite values in head probabilities$"):
        classifier_head(Tensor(rng.standard_normal((3, 6))), params, "head",
                        0.0, None)
    params["head.w2"].data[0, 0] = 0.0
    with pytest.raises(NumericError,
                       match="^non-finite values in head input$"):
        classifier_head(Tensor(np.full((1, 6), np.inf)), params, "head",
                        0.0, None)


def test_encoder_non_finite_names_the_layer_and_op():
    enc = GcanEncoder(10, 4, 2, CFG, seed=0)
    ids, adj = np.array([[1, 3, 4, 0]]), np.eye(4)[None]
    enc.params["head.b2"].data[1] = np.nan
    with pytest.raises(NumericError, match="in head probabilities$"):
        enc.forward(ids, adj)
    enc.params["head.b2"].data[1] = 0.0
    enc.params["layer1.wq"].data[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="in layer1 attention logits$"):
        enc.forward(ids, adj)


# ---------------------------------------------------------------- layer norm

def test_layer_norm_statistics(rng):
    x = Tensor(rng.standard_normal((3, 5)) * 4 + 2)
    out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)


# ------------------------------------------------------------------ encoders

def test_text_encoder_pad_only_finite():
    enc = TextEncoder(10, 4, 2, CFG, seed=0)
    out = enc.forward(np.array([[1, 0, 0, 0]]))
    assert np.all(np.isfinite(out.p.data))
    assert np.all((out.p.data > 0) & (out.p.data < 1))


def test_text_encoder_positions_break_symmetry():
    enc = TextEncoder(10, 4, 2, CFG, seed=0)
    a = enc.forward(np.array([[1, 3, 4, 0]]))
    b = enc.forward(np.array([[1, 4, 3, 0]]))
    assert not np.array_equal(a.f.data, b.f.data)


def test_gcan_identity_adjacency_equals_text_encoder():
    # bitwise stack equality given shared parameters; the pooling rules
    # (row 0 vs node sum) intentionally differ downstream
    text = TextEncoder(12, 5, 2, CFG, seed=3)
    gcan = GcanEncoder(12, 5, 2, CFG, seed=3)
    gcan.params = text.params
    gcan._inner = text
    gen = np.random.default_rng(0)
    for _ in range(100):
        ids = gen.integers(0, 12, size=(1, 5))
        eye = np.broadcast_to(np.eye(5), (1, 5, 5)).copy()
        assert np.array_equal(gcan.stack(ids, eye).data,
                              text.stack(ids).data)


def test_gcan_sum_pooling():
    enc = GcanEncoder(10, 4, 2, CFG, seed=1)
    ids = np.array([[1, 3, 4, 0]])
    adj = np.eye(4)[None] * 0.7
    stack = enc.stack(ids, adj)
    out = enc.forward(ids, adj)
    assert np.max(np.abs(out.f.data - stack.data.sum(axis=1))) < 1e-12


def test_gcan_rejects_adjacency_mismatch():
    enc = GcanEncoder(10, 4, 2, CFG, seed=1)
    with pytest.raises(ValueError):
        enc.forward(np.array([[1, 3, 4, 0]]), np.eye(3)[None])


def test_image_encoder_patch_arithmetic():
    enc = ImageEncoder(32, 8, 2, CFG, seed=0)
    assert enc.n_patches == 16
    assert enc.seq_len == 17
    with pytest.raises(ValueError):
        ImageEncoder(32, 5, 2, CFG)


def test_image_encoder_zero_image():
    enc = ImageEncoder(8, 4, 2, CFG, seed=0)
    emb = linear(Tensor(enc.patchify(np.zeros((1, 3, 8, 8)))),
                 enc.params["proj_w"], enc.params["proj_b"]).data
    assert np.allclose(emb, enc.params["proj_b"].data)
    out = enc.forward(np.zeros((1, 3, 8, 8)))
    assert np.all(np.isfinite(out.p.data))


def test_image_encoder_patchify_layout():
    enc = ImageEncoder(4, 2, 2, CFG, seed=0)
    img = np.arange(48.0).reshape(1, 3, 4, 4)
    patches = enc.patchify(img)
    assert patches.shape == (1, 4, 12)
    # first patch = top-left 2x2 block of each channel
    expected = np.concatenate([img[0, c, :2, :2].ravel() for c in range(3)])
    assert np.array_equal(patches[0, 0], expected)


def test_probabilities_strictly_inside_unit_interval(rng):
    enc = TextEncoder(10, 4, 4, CFG, seed=2)
    for _ in range(5):
        ids = rng.integers(0, 10, size=(3, 4))
        p = enc.forward(ids).p.data
        assert np.all((p > 0) & (p < 1))


def test_sinusoidal_positions_shape_and_range():
    enc = sinusoidal_positions(7, 8)
    assert enc.shape == (7, 8)
    assert np.all(np.abs(enc) <= 1.0)
    assert np.allclose(enc[0, 0::2], 0.0)
    assert np.allclose(enc[0, 1::2], 1.0)


Y_SUB = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])


def setup_b_loss(out):
    return setup_loss(out.p, Y_SUB.max(axis=1), Y_SUB,
                      RunConfig(epochs=5, warmup_epochs=1),
                      class_weights([1, 1, 1, 1], 2))


def test_gcan_train_step_tape_stays_fused():
    # 26 parameter leaves (embed, 3 x 7 per layer, 4 in the head), then
    # the embedding (1: row gather and positions), three layers (3), sum
    # pooling (1), the classifier head (1) and the setup-B loss (1): a
    # layer that falls back to a chain of small ops makes this grow
    enc = GcanEncoder(10, 4, 4, CFG, seed=0)
    ids = np.array([[1, 3, 4, 0], [2, 5, 6, 7]])
    adj = np.broadcast_to(np.eye(4), (2, 4, 4)).copy()
    out = enc.forward(ids, adj, rng=np.random.default_rng(0))
    assert tape_nodes(setup_b_loss(out)) <= 33


def test_text_train_step_tape_stays_fused():
    # 26 parameter leaves, then the embedding (1), three layers whose last
    # one returns the [cls] row itself (3), the classifier head (1) and
    # the setup-B loss (1): no row-0 slice
    enc = TextEncoder(10, 4, 4, CFG, seed=0)
    out = enc.forward(np.array([[1, 3, 4, 0], [2, 5, 6, 7]]),
                      rng=np.random.default_rng(0))
    assert tape_nodes(setup_b_loss(out)) <= 32


def test_vit_train_step_tape_stays_fused():
    # 28 parameter leaves (proj_w, proj_b, cls, 3 x 7 per layer, 4 in the
    # head), then the embedding (1: patch projection, [cls] row and
    # positions), three layers (3), the classifier head (1) and the
    # setup-A loss (1)
    enc = ImageEncoder(4, 2, 1, CFG, seed=0)
    images = np.random.default_rng(0).standard_normal((2, 3, 4, 4))
    out = enc.forward(images, rng=np.random.default_rng(0))
    loss = setup_loss(out.p, np.array([1.0, 0.0]), Y_SUB,
                      RunConfig(setup="A", epochs=5, warmup_epochs=1), None)
    assert tape_nodes(loss) <= 34


# ------------------------------------------- fused nodes against the unfused

def value_and_grads(build, leaves):
    """The value of `build()` and the gradient it leaves on each leaf."""
    for leaf in leaves:
        leaf.grad = None
    out = build()
    out.backward()
    return out.data.copy(), [leaf.grad.copy() for leaf in leaves]


def assert_matches_unfused(fused_build, unfused_build, leaves):
    value, grads = value_and_grads(fused_build, leaves)
    ref_value, ref_grads = value_and_grads(unfused_build, leaves)
    assert np.max(np.abs(value - ref_value)) <= 1e-12
    for grad, ref in zip(grads, ref_grads):
        assert rel_error(grad, ref) < 1e-12


def test_fused_gcan_layer_matches_unfused_composition():
    for seed in range(12):
        gen = np.random.default_rng(seed)
        is_last = bool(seed % 2)
        params = make_layer_params(seed, is_last=is_last)
        x = parameter(gen.standard_normal((3, 5, CFG.d_att)))
        adj = (None, gen.random((3, 5, 5)),
               np.broadcast_to(np.eye(5), (3, 5, 5)).copy())[seed % 3]
        w = Tensor(gen.standard_normal((3, 5, CFG.d_att)))
        assert_matches_unfused(
            lambda: (gcan_layer(x, adj, params, "l", CFG, is_last) * w).sum(),
            lambda: (unfused_gcan_layer(x, adj, params, "l", CFG.n_heads,
                                        is_last) * w).sum(),
            [x, *params.values()])


def test_cls_only_layer_matches_full_layer_row_zero():
    for seed in range(8):
        gen = np.random.default_rng(seed)
        is_last = bool(seed % 2)
        params = make_layer_params(seed, is_last=is_last)
        x = parameter(gen.standard_normal((3, 5, CFG.d_att)))
        w = Tensor(gen.standard_normal((3, CFG.d_att)))
        assert_matches_unfused(
            lambda: (gcan_layer(x, None, params, "l", CFG, is_last,
                                cls_only=True) * w).sum(),
            lambda: (getitem(gcan_layer(x, None, params, "l", CFG, is_last),
                             np.s_[:, 0]) * w).sum(),
            [x, *params.values()])


@pytest.mark.parametrize("drop_rate", [0.0, 0.5])
def test_cls_forward_matches_full_stack(drop_rate):
    cfg = AttentionConfig(d_att=8, n_heads=2, n_layers=3, dropout=drop_rate)
    gen = np.random.default_rng(1)
    cases = [(TextEncoder(12, 5, 3, cfg, seed=1),
              gen.integers(0, 12, size=(4, 5))),
             (ImageEncoder(8, 4, 3, cfg, seed=1),
              gen.standard_normal((4, 3, 8, 8)))]
    w_p, w_f = Tensor(gen.standard_normal((4, 3))), \
        Tensor(gen.standard_normal((4, 8)))
    for enc, inputs in cases:
        assert np.max(np.abs(enc.forward(inputs).f.data
                             - enc.stack(inputs).data[:, 0, :])) <= 1e-12
        rngs = {}

        def build(key, full):
            rngs[key] = np.random.default_rng(7)
            out = _classify(enc, getitem(enc.stack(inputs), np.s_[:, 0, :]),
                            rngs[key]) \
                if full else enc.forward(inputs, rngs[key])
            return add((out.p * w_p).sum(), (out.f * w_f).sum())

        assert_matches_unfused(lambda: build("cls", False),
                               lambda: build("full", True),
                               list(enc.params.values()))
        # the head draws its dropout mask at the same point of the stream
        assert rngs["cls"].random() == rngs["full"].random()


def test_cls_layer_non_finite_names_the_layer():
    for enc, inputs in ((TextEncoder(10, 4, 2, CFG, seed=0),
                         np.array([[1, 3, 4, 0]])),
                        (ImageEncoder(4, 2, 2, CFG, seed=0),
                         np.ones((1, 3, 4, 4)))):
        enc.params["layer2.wq"].data[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match="in layer2 attention logits$"):
            enc.forward(inputs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_text_embedding_equals_unfused_composition_bitwise(dtype):
    # one node for the row gather and the positions add: the same bytes as
    # the two nodes, forward and backward, with ids repeated in a batch
    for seed in range(6):
        enc = TextEncoder(7, 5, 2, CFG, seed=seed)
        table = enc.params["embed"]
        table.data = table.data.astype(dtype)
        gen = np.random.default_rng(seed)
        ids = gen.integers(0, 7, size=(4, 5))
        w = Tensor(gen.standard_normal((4, 5, CFG.d_att)).astype(dtype))
        results = []
        for embed in (enc.embed, lambda i: unfused_text_embedding(enc, i)):
            table.grad = None
            out = embed(ids)
            (out * w).sum().backward()
            results.append((out.data, table.grad))
        (x, g), (ref_x, ref_g) = results
        assert x.dtype == ref_x.dtype == dtype and g.dtype == dtype
        assert x.tobytes() == ref_x.tobytes()
        assert g.tobytes() == ref_g.tobytes()
        scattered = rows_gradient_add_at(table.shape, ids, w.data)
        assert g.tobytes() == scattered.astype(dtype).tobytes()


def test_image_embedding_matches_unfused_composition():
    for seed in range(4):
        enc = ImageEncoder(8, 4, 2, CFG, seed=seed)
        gen = np.random.default_rng(seed)
        images = gen.standard_normal((3, 3, 8, 8))
        w = Tensor(gen.standard_normal((3, enc.seq_len, CFG.d_att)))
        assert_matches_unfused(
            lambda: (enc.embed(images) * w).sum(),
            lambda: (unfused_image_embedding(enc, images) * w).sum(),
            [enc.params[n] for n in ("proj_w", "proj_b", "cls")])


def test_image_embedding_gradients():
    for seed in range(3):
        enc = ImageEncoder(4, 2, 2, CFG, seed=seed)
        gen = np.random.default_rng(seed)
        images = gen.standard_normal((2, 3, 4, 4))
        w = Tensor(gen.standard_normal((2, enc.seq_len, CFG.d_att)))
        grads_ok(lambda: (enc.embed(images) * w).sum(),
                 {n: enc.params[n] for n in ("proj_w", "proj_b", "cls")},
                 LAYER_TOL)


def test_fused_classifier_head_matches_unfused_composition():
    for seed in range(8):
        gen = np.random.default_rng(seed)
        params = {}
        _init_head(params, "h", 6, 3, gen)
        f = parameter(gen.standard_normal((5, 6)))
        w = Tensor(gen.standard_normal((5, 3)))
        rate = (0.0, 0.5)[seed % 2]
        rngs = {}

        def build(head, key):
            rngs[key] = np.random.default_rng(seed)
            return (head(f, params, "h", rate, rngs[key]) * w).sum()

        assert_matches_unfused(
            lambda: build(classifier_head, "fused"),
            lambda: build(unfused_classifier_head, "unfused"),
            [f, *params.values()])
        # dropout draws its mask at the same point of the stream
        assert rngs["fused"].random() == rngs["unfused"].random()


def test_fused_setup_b_loss_matches_unfused_composition():
    cfg = RunConfig(epochs=5, warmup_epochs=1)
    weights = class_weights([3, 1, 2, 5], 8)
    for seed in range(8):
        gen = np.random.default_rng(seed)
        pd = gen.random((6, 4))
        pd[0] = [0.0, 1.0, 0.3, 1e-13]     # clamped from both sides
        pd[1] = [0.2, 0.7, 0.7, 0.1]       # a tie in the max
        pd[2] = [0.4, 0.4, 0.4, 0.4]
        p = parameter(pd)
        y_sub = (gen.random((6, 4)) > 0.5).astype(float)
        y_mis = y_sub.max(axis=1)
        assert_matches_unfused(
            lambda: setup_loss(p, y_mis, y_sub, cfg, weights),
            lambda: unfused_setup_b_loss(p, y_mis, y_sub, weights.w,
                                         LOSS_MIX),
            [p])
    # the teacher-forcing gradient of a tied row goes to the first argmax
    p = parameter(np.array([[0.2, 0.7, 0.7, 0.1]]))
    teacher_forcing_loss(p, np.array([0.0])).backward()
    assert np.array_equal(np.flatnonzero(p.grad), [1])


def test_setup_b_loss_gradients():
    cfg = RunConfig(epochs=5, warmup_epochs=1)
    weights = class_weights([3, 1, 2, 5], 8)
    for seed in range(5):
        gen = np.random.default_rng(seed)
        p = parameter(gen.random((4, 4)) * 0.9 + 0.05)
        y_sub = (gen.random((4, 4)) > 0.5).astype(float)
        grads_ok(lambda: setup_loss(p, y_sub.max(axis=1), y_sub, cfg,
                                    weights), {"p": p}, LAYER_TOL)


# --------------------------------------------------- end-to-end gradient checks

def small_text_encoder(seed):
    return TextEncoder(6, 3, 2, AttentionConfig(4, 2, 2, 0.0), seed=seed)


def test_text_encoder_end_to_end_gradients():
    for seed in range(10):
        enc = small_text_encoder(seed)
        ids = np.random.default_rng(seed).integers(0, 6, size=(2, 3))
        y = np.random.default_rng(seed + 1).integers(0, 2, size=(2, 2))

        def build(enc=enc, ids=ids, y=y):
            diff = sub(enc.forward(ids).p, y.astype(float))
            return (diff * diff).sum()

        grads_ok(build, enc.params, MODEL_TOL)


def test_image_encoder_end_to_end_gradients():
    for seed in range(3):
        enc = ImageEncoder(4, 2, 2, AttentionConfig(4, 2, 2, 0.0), seed=seed)
        img = np.random.default_rng(seed).standard_normal((1, 3, 4, 4))
        grads_ok(lambda: enc.forward(img).p.sum(), enc.params, MODEL_TOL)
