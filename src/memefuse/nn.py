"""Trainable encoders: text transformer, graph-attention variant, patch image.

Every encoder produces a ModelOutput with class probabilities `p` and a
classification feature vector `f`. Layers are built on the autodiff
Tensor, so exact parameter gradients are available for any scalar loss.
Array kernels over 2-D (rows, width) activations return an output and
its hand-derived backward. Each embedding, each whole graph-attention
layer and the whole classifier head is one `fused` tape node composing
kernels; the only other op is GCAN's node-sum pooling, a `Tensor.sum`.
The Tensor operator algebra is a test oracle, and no encoder uses it. The
graph-attention layer reweights the merged attention heads with a
per-document normalized adjacency block before the output projection;
with an identity block it degenerates to a plain transformer layer.
GcanEncoder is a TextEncoder whose forward passes adjacency blocks to
the shared `stack` and pools by node sum instead of the [cls] row; all
encoders share the layer and head initialisation and the head tail.
The [cls]-pooled encoders (text and image) run only the [cls] row as a
query through their last layer, with keys and values from every row;
`stack()` still computes every row of every layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, fused, parameter


class NumericError(ArithmeticError):
    """A forward or backward pass produced non-finite values."""


@dataclass
class AttentionConfig:
    d_att: int = 32
    n_heads: int = 4
    n_layers: int = 3
    dropout: float = 0.5

    @property
    def d_k(self) -> int:
        if self.d_att % self.n_heads:
            raise ValueError("head count must divide the attention dimension")
        return self.d_att // self.n_heads


@dataclass
class ModelOutput:
    p: Tensor  # (B, n) class probabilities, each strictly in (0, 1)
    f: Tensor  # (B, d) classification features


def assert_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite values in {name}")


# Kernels take 2-D arrays and return (output, backward). Row sums over the
# short feature axis are mat-vec products with a ones (or 1/n) vector:
# several times faster than a ufunc reduction at these widths.


def _linear(x, w, b):
    """y = x W^T + b."""
    def backward(g):
        return g @ w, g.T @ x, np.ones(len(g), g.dtype) @ g

    return x @ np.ascontiguousarray(w.T) + b, backward


def _layer_norm(x, gain, bias):
    avg = np.full(x.shape[1], 1.0 / x.shape[1], x.dtype)
    centered = x - (x @ avg)[:, None]
    std = np.sqrt((centered * centered) @ avg + 1e-5)[:, None]
    normed = centered / std

    def backward(g):
        gn = g * gain
        gx = (gn - (gn @ avg)[:, None]
              - normed * ((gn * normed) @ avg)[:, None]) / std
        ones = np.ones(len(g), g.dtype)
        return gx, ones @ (g * normed), ones @ g

    return normed * gain + bias, backward


def _attention(x, wq, wk, wv, seq_len, cfg, adj, is_last, name,
               cls_only=False):
    """Scaled dot-product attention with h heads over B sequences of
    seq_len rows each; the heads merge by concatenation (by averaging when
    `is_last`) and are then left-multiplied by the block `adj`, if given.
    With `cls_only` only row 0 of each sequence queries (keys and values
    still come from every row) and the output has one row per sequence."""
    n, d = x.shape
    b, h, d_k = n // seq_len, cfg.n_heads, cfg.d_k
    w = np.concatenate([wq.T, wk.T, wv.T], axis=1)          # (d, 3d)
    q, k, v = (x @ w).reshape(b, seq_len, 3, h, d_k).transpose(2, 0, 3, 1, 4)
    n_q = 1 if cls_only else seq_len
    q = q[:, :, :n_q]
    scale = float(1.0 / np.sqrt(d_k))  # a NumPy float64 would promote
    # key-major softmax: km[j, b, h, i] is query i's weight on key j, so
    # the max and the sum over keys run over the outermost axis, which is
    # far faster than reducing a short last axis (and the max is exact)
    km = np.empty((seq_len, b, h, n_q), x.dtype)
    np.matmul(k, q.swapaxes(-1, -2), out=km.transpose(1, 2, 0, 3))
    km *= scale
    assert_finite(f"{name} attention logits", km)
    km -= km.max(axis=0)
    np.exp(km, out=km)
    km /= km.sum(axis=0)
    heads = km.transpose(1, 2, 3, 0) @ v                    # (B, h, L, d_k)
    merged = heads.mean(axis=1) if is_last else \
        heads.transpose(0, 2, 1, 3).reshape(b, n_q, d)
    if adj is not None:
        merged = adj @ merged

    def backward(g):
        g = g.reshape(merged.shape)
        if adj is not None:
            g = adj.swapaxes(-1, -2) @ g
        g_heads = (g / h)[:, None] if is_last else \
            g.reshape(b, n_q, h, d_k).transpose(0, 2, 1, 3)
        g_km = np.empty_like(km)                            # key-major too
        np.matmul(v, g_heads.swapaxes(-1, -2), out=g_km.transpose(1, 2, 0, 3))
        g_km -= (g_km * km).sum(axis=0)
        g_km *= km
        g_km *= scale
        # dq, dk and dv written straight into the (B, L, 3, h, d_k) layout;
        # rows that did not query get a zero dq
        g_qkv = (np.zeros if cls_only else np.empty)((n, 3 * d), x.dtype)
        g_q, g_k, g_v = g_qkv.reshape(b, seq_len, 3, h, d_k).transpose(
            2, 0, 3, 1, 4)
        np.matmul(g_km.transpose(1, 2, 3, 0), k, out=g_q[:, :, :n_q])
        np.matmul(g_km.transpose(1, 2, 0, 3), q, out=g_k)
        np.matmul(km.transpose(1, 2, 0, 3), g_heads, out=g_v)
        g_w = g_qkv.T @ x
        return g_qkv @ w.T, g_w[:d], g_w[d:2 * d], g_w[2 * d:]

    return merged.reshape(b * n_q, -1), backward


def _gcan_layer(x, wq, wk, wv, wo, bo, ln_g, ln_b, seq_len, cfg, adj,
                is_last, name, cls_only=False):
    """Attention, output projection, residual and layer norm, over every
    row or, with `cls_only`, over row 0 of each sequence."""
    merged, att_back = _attention(x, wq, wk, wv, seq_len, cfg, adj, is_last,
                                  name, cls_only)
    branch, lin_back = _linear(merged, wo, bo)
    step = seq_len if cls_only else 1                  # the residual rows
    out, ln_back = _layer_norm(x[::step] + branch, ln_g, ln_b)

    def backward(g):
        g_pre, g_gain, g_bias = ln_back(g)
        g_merged, g_wo, g_bo = lin_back(g_pre)
        g_x, g_wq, g_wk, g_wv = att_back(g_merged)
        g_x[::step] += g_pre
        return g_x, g_wq, g_wk, g_wv, g_wo, g_bo, g_gain, g_bias

    return out, backward


_HEAD_PARAMS = ("w1", "b1", "w2", "b2")  # `_head`'s parameters, in order


def _head(f, w1, b1, w2, b2, drop_rate, rng, name):
    """Half-width hidden layer, ReLU, dropout, then a sigmoid output layer."""
    assert_finite(f"{name} input", f)
    pre, back1 = _linear(f, w1, b1)
    keep = pre > 0
    if rng is not None and drop_rate > 0.0:  # inverted dropout
        keep = keep * ((rng.random(pre.shape) >= drop_rate)
                       / pre.dtype.type(1.0 - drop_rate))
    logits, back2 = _linear(pre * keep, w2, b2)
    # stable logistic, in float64: in float32 it is 1.0 from a logit of 17.3
    p = 0.5 * (1.0 + np.tanh(0.5 * logits.astype(np.float64)))
    assert_finite(f"{name} probabilities", p)

    def backward(g):
        g_hidden, g_w2, g_b2 = back2((g * p * (1.0 - p)).astype(pre.dtype))
        g_f, g_w1, g_b1 = back1(g_hidden * keep)
        return g_f, g_w1, g_b1, g_w2, g_b2

    return p, backward


def _node(kernel, x: Tensor, params, *args, drop=1) -> Tensor:
    """One tape node running `kernel` over the rows of x's last axis; the
    output has x's axes but the last `drop`, then the kernel's width."""
    shape = x.shape
    out, backward = kernel(x.data.reshape(-1, shape[-1]),
                           *(p.data for p in params), *args)

    def node_backward(g):
        g_x, *g_params = backward(g.reshape(out.shape))
        return (g_x.reshape(shape), *g_params)

    return fused(out.reshape(*shape[:-drop], out.shape[-1]), (x, *params),
                 node_backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x W^T + b."""
    return _node(_linear, x, (weight, bias))


def multi_head_attention(x: Tensor, params: dict[str, Tensor], prefix: str,
                         cfg: AttentionConfig, adj: np.ndarray | None = None,
                         is_last: bool = False) -> Tensor:
    """`_attention` over (B, L, d_att) inputs as one tape node."""
    weights = [params[f"{prefix}.{name}"] for name in ("wq", "wk", "wv")]
    return _node(_attention, x, weights, x.shape[-2], cfg, adj, is_last,
                 prefix)


def gcan_layer(x: Tensor, adj: np.ndarray | None, params: dict[str, Tensor],
               prefix: str, cfg: AttentionConfig, is_last: bool,
               cls_only: bool = False) -> Tensor:
    """One graph-attention layer as one tape node: `_attention` (with the
    document adjacency block, when given) projected back to d_att inside
    a residual branch, then layer norm. With `cls_only` only row 0 ([cls])
    queries and the output is that row alone, (B, d_att)."""
    if adj is not None and adj.shape[-1] != x.shape[-2]:
        raise ValueError("adjacency block size does not match sequence length")
    names = ("wq", "wk", "wv", "wo", "bo", "ln_g", "ln_b")
    return _node(_gcan_layer, x, [params[f"{prefix}.{n}"] for n in names],
                 x.shape[-2], cfg, adj, is_last, prefix, cls_only,
                 drop=2 if cls_only else 1)


def classifier_head(f: Tensor, params: dict[str, Tensor], prefix: str,
                    drop_rate: float = 0.5,
                    rng: np.random.Generator | None = None) -> Tensor:
    """`_head` as one tape node; dropout only when `rng` is given."""
    return _node(_head, f, [params[f"{prefix}.{n}"] for n in _HEAD_PARAMS],
                 drop_rate, rng, prefix)


def sinusoidal_positions(seq_len: int, dim: int) -> np.ndarray:
    pos = np.arange(seq_len)[:, None]
    idx = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / dim)
    enc = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


def _init_layer(params: dict[str, Tensor], prefix: str, cfg: AttentionConfig,
                rng: np.random.Generator, is_last: bool) -> None:
    scale = 1.0 / np.sqrt(cfg.d_att)
    for name in ("wq", "wk", "wv"):
        params[f"{prefix}.{name}"] = parameter((cfg.d_att, cfg.d_att), rng, scale)
    in_dim = cfg.d_k if is_last else cfg.d_att
    params[f"{prefix}.wo"] = parameter((cfg.d_att, in_dim), rng,
                                       1.0 / np.sqrt(in_dim))
    params[f"{prefix}.bo"] = parameter(np.zeros(cfg.d_att))
    params[f"{prefix}.ln_g"] = parameter(np.ones(cfg.d_att))
    params[f"{prefix}.ln_b"] = parameter(np.zeros(cfg.d_att))


def _init_head(params: dict[str, Tensor], prefix: str, in_dim: int,
               n_classes: int, rng: np.random.Generator) -> None:
    hidden = max(1, in_dim // 2)
    params[f"{prefix}.w1"] = parameter((hidden, in_dim), rng,
                                       1.0 / np.sqrt(in_dim))
    params[f"{prefix}.b1"] = parameter(np.zeros(hidden))
    params[f"{prefix}.w2"] = parameter((n_classes, hidden), rng,
                                       1.0 / np.sqrt(hidden))
    params[f"{prefix}.b2"] = parameter(np.zeros(n_classes))


def _init_encoder(params: dict[str, Tensor], cfg: AttentionConfig,
                  n_classes: int, rng: np.random.Generator) -> None:
    """The attention layers and the classifier head of every encoder."""
    for layer in range(cfg.n_layers):
        _init_layer(params, f"layer{layer}", cfg, rng,
                    is_last=layer == cfg.n_layers - 1)
    _init_head(params, "head", cfg.d_att, n_classes, rng)


def _encoder_stack(x: Tensor, adj: np.ndarray | None,
                   params: dict[str, Tensor], cfg: AttentionConfig,
                   cls_only: bool = False) -> Tensor:
    """The layers; with `cls_only` the last returns the [cls] row alone."""
    last = cfg.n_layers - 1
    for layer in range(cfg.n_layers):
        x = gcan_layer(x, adj, params, f"layer{layer}", cfg, layer == last,
                       cls_only and layer == last)
    return x


def _classify(encoder, f: Tensor,
              rng: np.random.Generator | None) -> ModelOutput:
    """The classifier head over pooled features; the head checks both."""
    p = classifier_head(f, encoder.params, "head", encoder.cfg.dropout, rng)
    return ModelOutput(p=p, f=f)


class TextEncoder:
    """Transformer-encoder classifier; the [cls] row is the feature vector."""

    def __init__(self, vocab_size: int, seq_len: int, n_classes: int,
                 cfg: AttentionConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {
            "embed": parameter((vocab_size, cfg.d_att), rng, 0.1)}
        _init_encoder(self.params, cfg, n_classes, rng)
        self.positions = sinusoidal_positions(seq_len, cfg.d_att)

    def embed(self, ids: np.ndarray) -> Tensor:
        """Token rows plus the positions, cast to the table's dtype, as one
        tape node, (B, L, d_att)."""
        table = self.params["embed"]
        x = table.data[ids]
        np.add(x, self.positions, out=x, dtype=x.dtype)

        def backward(g):
            # one bincount over flat (row, column) slots adds each slot's
            # terms in np.add.at's order, so the sums are bitwise equal
            width = x.shape[-1]
            flat = (ids.reshape(-1, 1) * width + np.arange(width)).ravel()
            acc = np.bincount(flat, g.ravel(), table.data.size)
            return (acc.astype(x.dtype, copy=False).reshape(table.shape),)

        return fused(x, (table,), backward)

    def stack(self, ids: np.ndarray, adj: np.ndarray | None = None,
              cls_only: bool = False) -> Tensor:
        """Token embeddings through the layers, reweighted by `adj` if given;
        every row, or with `cls_only` the [cls] row alone."""
        return _encoder_stack(self.embed(ids), adj, self.params, self.cfg,
                              cls_only)

    def forward(self, ids: np.ndarray,
                rng: np.random.Generator | None = None) -> ModelOutput:
        return _classify(self, self.stack(ids, cls_only=True), rng)


class GcanEncoder(TextEncoder):
    """Graph-attention text classifier; features are the node-sum pooling."""

    def forward(self, ids: np.ndarray, adj: np.ndarray,
                rng: np.random.Generator | None = None) -> ModelOutput:
        return _classify(self, self.stack(ids, adj).sum(axis=1), rng)


class ImageEncoder:
    """Patch-embedding transformer over non-overlapping image patches."""

    def __init__(self, crop: int, patch: int, n_classes: int,
                 cfg: AttentionConfig, seed: int = 0):
        if crop % patch:
            raise ValueError(f"patch size {patch} must divide crop {crop}")
        self.cfg = cfg
        self.crop = crop
        self.patch = patch
        self.n_patches = (crop // patch) ** 2
        self.seq_len = self.n_patches + 1
        rng = np.random.default_rng(seed)
        patch_dim = 3 * patch * patch
        self.params: dict[str, Tensor] = {
            "proj_w": parameter((cfg.d_att, patch_dim), rng,
                                1.0 / np.sqrt(patch_dim)),
            "proj_b": parameter(np.zeros(cfg.d_att)),
            "cls": parameter((cfg.d_att,), rng, 0.1),
        }
        _init_encoder(self.params, cfg, n_classes, rng)
        self.positions = sinusoidal_positions(self.seq_len, cfg.d_att)

    def patchify(self, images: np.ndarray) -> np.ndarray:
        """(B, 3, C, C) -> (B, n_patches, 3 P^2), row-major patch order."""
        b = images.shape[0]
        g = self.crop // self.patch
        x = images.reshape(b, 3, g, self.patch, g, self.patch)
        x = x.transpose(0, 2, 4, 1, 3, 5)
        return x.reshape(b, self.n_patches, -1)

    def embed(self, images: np.ndarray) -> Tensor:
        """Patch projection, the [cls] row and the positions as one tape
        node, (B, seq_len, d_att); the constant patches get no gradient."""
        w, bias, cls = (self.params[n] for n in ("proj_w", "proj_b", "cls"))
        b = images.shape[0]
        patches = self.patchify(images).reshape(b * self.n_patches, -1)
        x = np.empty((b, self.seq_len, self.cfg.d_att), w.data.dtype)
        x[:, 0] = cls.data
        x[:, 1:] = _linear(patches, w.data, bias.data)[0].reshape(
            b, self.n_patches, -1)
        x += self.positions

        def backward(g):
            g_emb = g[:, 1:].reshape(len(patches), -1)
            return (g_emb.T @ patches, np.ones(len(g_emb), g.dtype) @ g_emb,
                    np.ones(b, g.dtype) @ g[:, 0])

        return fused(x, (w, bias, cls), backward)

    def stack(self, images: np.ndarray, cls_only: bool = False) -> Tensor:
        """Embedded patches through the layers, as `TextEncoder.stack`."""
        return _encoder_stack(self.embed(images), None, self.params,
                              self.cfg, cls_only)

    def forward(self, images: np.ndarray,
                rng: np.random.Generator | None = None) -> ModelOutput:
        return _classify(self, self.stack(images, cls_only=True), rng)
