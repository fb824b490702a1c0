"""Trainable encoders: text transformer, graph-attention variant, patch image.

Every encoder produces a ModelOutput with class probabilities `p` and a
classification feature vector `f`. Layers are built on the autodiff
Tensor, so exact parameter gradients are available for any scalar loss.
Attention, linear and layer-norm layers are each a single tape node with
a hand-derived gradient, which keeps the per-step tape short. The
graph-attention layer reweights each attention head output with a
per-document normalized adjacency block before the output projection;
with an identity block it degenerates to a plain transformer layer.
GcanEncoder is a TextEncoder whose forward passes adjacency blocks to
the shared `stack` and pools by node sum instead of the [cls] row; all
encoders share the layer and head initialisation and the head tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, fused, parameter, rows


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


def assert_finite(name: str, *tensors: Tensor) -> None:
    for t in tensors:
        if not np.all(np.isfinite(t.data)):
            raise NumericError(f"non-finite values in {name}")


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x W^T + b."""
    xd, w = x.data, weight.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g @ w, g2.T @ xd.reshape(-1, xd.shape[-1]),
                g2.sum(axis=0))

    return fused(xd @ w.T + bias.data, (x, weight, bias), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    xd, gd = x.data, gain.data
    centered = xd - xd.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    normed = centered / std

    def backward(g):
        gn = g * gd
        gx = (gn - gn.mean(axis=-1, keepdims=True)
              - normed * (gn * normed).mean(axis=-1, keepdims=True)) / std
        width = g.shape[-1]
        return (gx, (g * normed).reshape(-1, width).sum(axis=0),
                g.reshape(-1, width).sum(axis=0))

    return fused(normed * gd + bias.data, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rng is None (eval mode)."""
    if rng is None or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)


def multi_head_attention(x: Tensor, params: dict[str, Tensor], prefix: str,
                         cfg: AttentionConfig, adj: np.ndarray | None = None,
                         is_last: bool = False) -> Tensor:
    """Self-attention with merged heads, as one tape node.

    Queries, keys, and values are all the layer input, projected by one
    matmul with the stacked [wq; wk; wv]; logits are scaled by 1/sqrt(d_k)
    and softmaxed row-wise over the sequence. Each head output is then
    left-multiplied by the adjacency block `adj` (B, L, L), when given.
    Heads merge by concatenation to (B, L, d_att), or by averaging to
    (B, L, d_k) when `is_last`.
    """
    b, seq_len, d = x.shape
    h, d_k = cfg.n_heads, cfg.d_k
    weights = [params[f"{prefix}.{name}"] for name in ("wq", "wk", "wv")]
    w = np.concatenate([t.data for t in weights])          # (3d, d)
    xd = x.data
    qkv = (xd @ w.T).reshape(b, seq_len, 3, h, d_k)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)                 # (B, h, L, d_k)
    scale = 1.0 / np.sqrt(d_k)
    logits = (q @ k.swapaxes(-1, -2)) * scale
    if not np.all(np.isfinite(logits)):
        raise NumericError(f"non-finite values in {prefix} attention logits")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)               # (B, h, L, L)
    heads = attn @ v                                       # (B, h, L, d_k)
    if adj is not None:
        heads = adj[:, None] @ heads
    if is_last:
        out = heads.mean(axis=1)
    else:
        out = heads.transpose(0, 2, 1, 3).reshape(b, seq_len, d)

    def backward(g):
        if is_last:
            g_heads = np.broadcast_to((g / h)[:, None], heads.shape)
        else:
            g_heads = g.reshape(b, seq_len, h, d_k).transpose(0, 2, 1, 3)
        if adj is not None:
            g_heads = adj.swapaxes(-1, -2)[:, None] @ g_heads
        g_attn = g_heads @ v.swapaxes(-1, -2)
        g_v = attn.swapaxes(-1, -2) @ g_heads
        g_logits = attn * (g_attn - (g_attn * attn).sum(axis=-1,
                                                        keepdims=True))
        g_logits *= scale
        g_q = g_logits @ k
        g_k = g_logits.swapaxes(-1, -2) @ q
        g_qkv = np.stack((g_q, g_k, g_v)).transpose(1, 3, 0, 2, 4) \
            .reshape(b * seq_len, 3 * d)
        g_w = g_qkv.T @ xd.reshape(b * seq_len, d)
        return ((g_qkv @ w).reshape(xd.shape),
                g_w[:d], g_w[d:2 * d], g_w[2 * d:])

    return fused(out, (x, *weights), backward)


def gcan_layer(x: Tensor, adj: np.ndarray | None, params: dict[str, Tensor],
               prefix: str, cfg: AttentionConfig, is_last: bool) -> Tensor:
    """One graph-attention layer with residual connection and layer norm.

    Head outputs are left-multiplied by the document adjacency block (when
    given), then fused by concatenation (inner layers) or head averaging
    (last layer) and projected back to d_att inside the residual branch.
    """
    if adj is not None and adj.shape[-1] != x.shape[-2]:
        raise ValueError("adjacency block size does not match sequence length")
    merged = multi_head_attention(x, params, prefix, cfg, adj, is_last)
    branch = linear(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])
    return layer_norm(x + branch, params[f"{prefix}.ln_g"],
                      params[f"{prefix}.ln_b"])


def classifier_head(f: Tensor, params: dict[str, Tensor], prefix: str,
                    drop_rate: float = 0.5,
                    rng: np.random.Generator | None = None) -> Tensor:
    """Half-width hidden layer, ReLU, dropout, then a sigmoid output layer."""
    hidden = linear(f, params[f"{prefix}.w1"], params[f"{prefix}.b1"]).relu()
    hidden = dropout(hidden, drop_rate, rng)
    return linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"]).sigmoid()


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
                   params: dict[str, Tensor], cfg: AttentionConfig) -> Tensor:
    for layer in range(cfg.n_layers):
        x = gcan_layer(x, adj, params, f"layer{layer}", cfg,
                       is_last=layer == cfg.n_layers - 1)
    return x


def _classify(encoder, f: Tensor,
              rng: np.random.Generator | None) -> ModelOutput:
    """The classifier head over pooled features, checked to be finite."""
    p = classifier_head(f, encoder.params, "head", encoder.cfg.dropout, rng)
    assert_finite(f"{encoder.kind} encoder output", p, f)
    return ModelOutput(p=p, f=f)


class TextEncoder:
    """Transformer-encoder classifier; the [cls] row is the feature vector."""

    kind = "text"

    def __init__(self, vocab_size: int, seq_len: int, n_classes: int,
                 cfg: AttentionConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {
            "embed": parameter((vocab_size, cfg.d_att), rng, 0.1)}
        _init_encoder(self.params, cfg, n_classes, rng)
        self.positions = sinusoidal_positions(seq_len, cfg.d_att)

    def stack(self, ids: np.ndarray, adj: np.ndarray | None = None) -> Tensor:
        """Token embeddings through the layers, reweighted by `adj` if given."""
        x = rows(self.params["embed"], ids) + Tensor(self.positions)
        return _encoder_stack(x, adj, self.params, self.cfg)

    def forward(self, ids: np.ndarray,
                rng: np.random.Generator | None = None) -> ModelOutput:
        return _classify(self, self.stack(ids)[:, 0, :], rng)


class GcanEncoder(TextEncoder):
    """Graph-attention text classifier; features are the node-sum pooling."""

    kind = "gcan"

    def forward(self, ids: np.ndarray, adj: np.ndarray,
                rng: np.random.Generator | None = None) -> ModelOutput:
        return _classify(self, self.stack(ids, adj).sum(axis=1), rng)


class ImageEncoder:
    """Patch-embedding transformer over non-overlapping image patches."""

    kind = "image"

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

    def stack(self, images: np.ndarray) -> Tensor:
        b = images.shape[0]
        emb = linear(Tensor(self.patchify(images)),
                     self.params["proj_w"], self.params["proj_b"])
        cls_row = Tensor(np.zeros((b, 1, self.cfg.d_att))) + \
            self.params["cls"].reshape(1, 1, self.cfg.d_att)
        x = concat([cls_row, emb], axis=1) + Tensor(self.positions)
        return _encoder_stack(x, None, self.params, self.cfg)

    def forward(self, images: np.ndarray,
                rng: np.random.Generator | None = None) -> ModelOutput:
        return _classify(self, self.stack(images)[:, 0, :], rng)
