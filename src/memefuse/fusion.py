"""Bi-modal fusion network.

Member models contribute their class probabilities and feature vectors.
Two branches run over the concatenated representation: a weight predictor
whose normalized outputs combine the member probability vectors
(stream weighting), and a classifier producing probabilities directly
from the joint representation (representation fusion). The final
prediction is the average of both branches. Only the two fusion heads
train, on the outputs the members saved when they were trained; no
member model runs.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat
from .nn import ModelOutput, _init_head, assert_finite, classifier_head


def fusion_input(outputs: list[ModelOutput]) -> Tensor:
    """[p_1 || f_1 || ... || p_m || f_m] per sample."""
    if len(outputs) < 2:
        raise ValueError("fusion needs at least two member models")
    parts = []
    for out in outputs:
        parts.append(out.p)
        parts.append(out.f)
    return concat(parts, axis=-1)


def weight_predictor(joint: Tensor, params: dict[str, Tensor],
                     drop_rate: float = 0.5,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Per-sample stream weights on the simplex.

    The predictor is a classifier block with sigmoid outputs; those are
    strictly positive, so normalizing by their sum is always defined.
    """
    s = classifier_head(joint, params, "wp", drop_rate, rng)
    return s / s.sum(axis=-1, keepdims=True)


def stream_weighting(p_list: list[Tensor], weights: Tensor) -> Tensor:
    """Convex combination of the member probability vectors."""
    n = p_list[0].shape[-1]
    if any(p.shape[-1] != n for p in p_list):
        raise ValueError("member probability vectors differ in length")
    total = p_list[0] * weights[:, 0:1]
    for i in range(1, len(p_list)):
        total = total + p_list[i] * weights[:, i:i + 1]
    return total


def representation_fusion(joint: Tensor, params: dict[str, Tensor],
                          drop_rate: float = 0.5,
                          rng: np.random.Generator | None = None) -> Tensor:
    return classifier_head(joint, params, "rf", drop_rate, rng)


def fuse(p_sw: Tensor, p_rf: Tensor) -> Tensor:
    if p_sw.shape != p_rf.shape:
        raise ValueError("branch probability shapes differ")
    return (p_sw + p_rf) * 0.5


class FusionModel:
    """The two trainable fusion heads over the outputs of m member models."""

    def __init__(self, member_dims: list[tuple[int, int]], n_classes: int,
                 dropout: float = 0.5, seed: int = 0):
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
        joint = fusion_input(outputs)
        w = weight_predictor(joint, self.params, self.dropout, rng)
        p_sw = stream_weighting([o.p for o in outputs], w)
        p_rf = representation_fusion(joint, self.params, self.dropout, rng)
        p = fuse(p_sw, p_rf)
        assert_finite("fusion output probabilities", p.data)
        return ModelOutput(p=p, f=joint)
