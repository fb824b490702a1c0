"""Bi-modal fusion network.

Member models contribute their class probabilities and feature vectors,
joined per sample as [p_1 || f_1 || ... || p_m || f_m]. Two heads run
over it: a weight predictor whose normalized outputs combine the member
probability vectors (stream weighting), and a classifier producing
probabilities directly from the joint vector (representation fusion).
The final prediction is the average of both branches. The network is
one tape node whose backward reaches only the two heads: fusion trains
on the outputs the members saved, and no member model runs.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, fused
from .nn import _HEAD_PARAMS, ModelOutput, _head, _init_head, assert_finite


def _fusion(joint, probs, wp, rf, drop_rate, rng):
    """Stream weighting and representation fusion over 2-D arrays: the
    fused probabilities and a backward mapping their gradient to the
    gradients of the `wp` then the `rf` head parameters. Every op, and
    the `wp` head drawing its dropout before `rf`, repeats the tape
    composition in the test oracles' `unfused_fusion`, bit for bit."""
    s, wp_back = _head(joint, *wp, drop_rate, rng, "wp")
    total = s.sum(axis=-1, keepdims=True)     # sigmoids: strictly positive
    w = s / total
    p_sw = probs[0] * w[:, 0:1]
    for i in range(1, len(probs)):
        p_sw = p_sw + probs[i] * w[:, i:i + 1]
    p_rf, rf_back = _head(joint, *rf, drop_rate, rng, "rf")

    def backward(g):
        g = g * 0.5                           # into both branches
        g_w = np.concatenate([(g * p).sum(axis=-1, keepdims=True)
                              for p in probs], axis=1)
        g_s = g_w / total + (-g_w * s / total ** 2).sum(axis=-1,
                                                        keepdims=True)
        return (*wp_back(g_s)[1:], *rf_back(g)[1:])

    return (p_sw + p_rf) * 0.5, backward


class FusionModel:
    """The two trainable fusion heads over the outputs of m member models."""

    def __init__(self, member_dims: list[tuple[int, int]], n_classes: int,
                 dropout: float = 0.5, seed: int = 0):
        if len(member_dims) < 2:
            raise ValueError("fusion needs at least two member models")
        widths = [n for n, _ in member_dims]
        if any(n != n_classes for n in widths):
            raise ValueError(f"member probability widths {widths} differ "
                             f"from the {n_classes} fused classes")
        self.n_members = len(member_dims)
        self.dropout = dropout
        joint_dim = sum(n + d for n, d in member_dims)
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        _init_head(self.params, "wp", joint_dim, self.n_members, rng)
        _init_head(self.params, "rf", joint_dim, n_classes, rng)

    def forward(self, outputs: list[ModelOutput],
                rng: np.random.Generator | None = None) -> ModelOutput:
        if len(outputs) != self.n_members:
            raise ValueError(
                f"expected {self.n_members} member outputs, got {len(outputs)}")
        joint = np.concatenate([a for out in outputs
                                for a in (out.p.data, out.f.data)], axis=-1)
        wp, rf = ([self.params[f"{head}.{n}"] for n in _HEAD_PARAMS]
                  for head in ("wp", "rf"))
        p, backward = _fusion(joint, [out.p.data for out in outputs],
                              [t.data for t in wp], [t.data for t in rf],
                              self.dropout, rng)
        assert_finite("fusion output probabilities", p)
        return ModelOutput(p=fused(p, (*wp, *rf), backward), f=Tensor(joint))
