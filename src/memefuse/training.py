"""Losses, optimizer, learning-rate schedule, and the fold training loop.

Two training setups share one model topology. Setup A is binary
misogyny identification (one output, plain binary cross-entropy).
Setup B predicts the four sub-category labels with support-weighted BCE
plus a teacher-forcing term that ties the maximum sub-category
probability to the binary target; the two terms mix 0.7/0.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, fused, zero_grads
from .ensemble import task_scores
from .nn import NumericError

SUB_CLASSES = ("shm", "ste", "obj", "vio")
PROB_EPS = 1e-12


@dataclass
class LossWeights:
    """Support-derived class weights for [shm, ste, obj, vio]; sums to 1."""
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (4,) or np.any(self.w <= 0):
            raise ValueError("need four strictly positive class weights")


@dataclass
class TrainConfig:
    setup: str = "B"                 # "A" or "B"
    epochs: int = 50
    batch_size: int = 16             # 32 for fusion models
    base_lr: float = 2e-5            # 5e-6 for fusion models
    warmup_epochs: int = 4
    patience: int = 4
    mix: tuple[float, float] = (0.7, 0.3)
    seed: int = 0

    def __post_init__(self):
        if self.setup not in ("A", "B"):
            raise ValueError(f"unknown setup {self.setup!r}")
        if not 0 < self.warmup_epochs < self.epochs:
            raise ValueError("need 0 < warmup epochs < total epochs")

    @property
    def n_outputs(self) -> int:
        return 1 if self.setup == "A" else 4


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_f1: float
    lr: float


def _weighted_bce_sum(p: Tensor, y, weights) -> Tensor:
    """-sum(weights * (y log p + (1 - y) log(1 - p))) as one tape node.

    `weights` broadcasts against p. Probabilities are clamped to
    [PROB_EPS, 1 - PROB_EPS]; the gradient is zero where the clamp binds.
    """
    y = np.asarray(y, dtype=np.float64)
    pd = p.data
    pc = np.clip(pd, PROB_EPS, 1.0 - PROB_EPS)
    value = -(weights * (y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))).sum()

    def backward(g):
        inside = (pd >= PROB_EPS) & (pd <= 1.0 - PROB_EPS)
        return (-g * weights * (y / pc - (1.0 - y) / (1.0 - pc)) * inside,)

    return fused(np.asarray(value), (p,), backward)


def bce(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy; probabilities clamped away from 0 and 1."""
    return _weighted_bce_sum(p, y, 1.0 / p.data.size)


def class_weights(counts, total: int) -> LossWeights:
    """w_c proportional to total/count(c), normalized to sum to 1."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError(f"degenerate class with zero support: {counts}")
    inv = total / counts
    return LossWeights(inv / inv.sum())


def weighted_bce(p: Tensor, y: np.ndarray, weights: LossWeights) -> Tensor:
    """Sum over the four classes of w_c * BCE on that class column."""
    return _weighted_bce_sum(p, y, weights.w / p.shape[0])


def teacher_forcing_loss(p: Tensor, y_mis: np.ndarray) -> Tensor:
    """MSE between max of the sub-category probabilities and the binary target."""
    p_a = p.max(axis=-1)
    diff = p_a - Tensor(np.asarray(y_mis, dtype=np.float64))
    return (diff * diff).mean()


def combined_loss(l1: Tensor, l2: Tensor,
                  mix: tuple[float, float] = (0.7, 0.3)) -> Tensor:
    return l1 * mix[0] + l2 * mix[1]


def setup_loss(p: Tensor, y_mis: np.ndarray, y_sub: np.ndarray,
               config: TrainConfig,
               weights: LossWeights | None) -> Tensor:
    if config.setup == "A":
        return bce(p, y_mis.reshape(-1, 1))
    return combined_loss(weighted_bce(p, y_sub, weights),
                         teacher_forcing_loss(p, y_mis), config.mix)


def lr_at(step: int, base_lr: float, warmup_steps: int,
          total_steps: int) -> float:
    """Linear ramp 0 -> base over the warm-up, then linear decay to 0."""
    if step <= 0:
        return 0.0
    if step <= warmup_steps:
        return base_lr * step / warmup_steps
    if step >= total_steps:
        return 0.0
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer.

    The parameter values and both moments live in flat buffers, with a
    view per parameter name, so a step is a few vector operations over
    all parameters at once. Each parameter's `data` is the view into the
    value buffer; a step first copies back any `data` that was replaced
    since. A parameter whose `grad` is None is neither moved nor decayed,
    and its moments stay as they were.
    """

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self._bounds = np.cumsum([0] + [p.data.size for p in params.values()])
        self._theta = np.zeros(self._bounds[-1])
        self._m = np.zeros_like(self._theta)
        self._v = np.zeros_like(self._theta)
        self._views, self.m, self.v = [], {}, {}
        for (name, p), lo, hi in zip(params.items(), self._bounds,
                                     self._bounds[1:]):
            view = self._theta[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            self.m[name] = self._m[lo:hi].reshape(view.shape)
            self.v[name] = self._v[lo:hi].reshape(view.shape)

    def step(self, lr: float) -> None:
        grads, live = [], []
        for i, p in enumerate(self.params.values()):
            view = self._views[i]
            if p.data is not view:
                view[...] = p.data
                p.data = view
            if p.grad is not None:
                grads.append(p.grad.ravel())
                live.append(i)
        self.t += 1
        if not live:
            return
        g = np.concatenate(grads)
        if not np.all(np.isfinite(g)):
            names = list(self.params)
            for i, grad in zip(live, grads):
                if not np.all(np.isfinite(grad)):
                    raise NumericError(f"non-finite gradient for {names[i]}")
        if len(live) == len(self._views):
            sel = slice(None)
        else:
            sel = np.concatenate([np.arange(self._bounds[i],
                                            self._bounds[i + 1])
                                  for i in live])
        m = self.beta1 * self._m[sel] + (1 - self.beta1) * g
        v = self.beta2 * self._v[sel] + (1 - self.beta2) * g * g
        self._m[sel] = m
        self._v[sel] = v
        bc1 = 1 - self.beta1 ** self.t
        bc2 = 1 - self.beta2 ** self.t
        theta = self._theta[sel]
        self._theta[sel] = theta - lr * (
            m / bc1 / (np.sqrt(v / bc2) + self.eps)
            + self.weight_decay * theta)


def snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in params.items()}


def restore(params: dict[str, Tensor], values: dict[str, np.ndarray]) -> None:
    for k, p in params.items():
        p.data = values[k].copy()


def select_top2(records: list[EpochRecord]) -> list[int]:
    """Epochs of the two best validation scores; ties go to earlier epochs."""
    order = sorted(records, key=lambda r: (-r.val_f1, r.epoch))
    return [r.epoch for r in order[:2]]


def validation_f1(probs: np.ndarray, y_mis: np.ndarray,
                  y_sub: np.ndarray) -> float:
    """Task-A macro F1 in setup A, task-B weighted F1 in setup B; the
    width of `probs` gives the setup."""
    task_a, weighted = task_scores(probs, y_mis, y_sub)
    return task_a if weighted is None else weighted


def train_model(trainable, y_mis: np.ndarray, y_sub: np.ndarray,
                val_y_mis: np.ndarray, val_y_sub: np.ndarray,
                config: TrainConfig,
                log=None) -> tuple[float, dict[str, np.ndarray],
                                   list[EpochRecord]]:
    """Run one fold: epochs with early stopping and top-2 averaging.

    `trainable` exposes `params` (name -> Tensor), `forward_batch(indices,
    rng)` over the training split, and `eval_val()` returning eval-mode
    validation probabilities. Returns (best validation F1, final averaged
    parameters, per-epoch records).
    """
    n_train = len(y_mis)
    if n_train == 0:
        raise ValueError("empty training fold")
    weights = class_weights(np.maximum(y_sub.sum(axis=0), 1), n_train) \
        if config.setup == "B" else None

    rng = np.random.default_rng(config.seed)
    optimizer = AdamW(trainable.params)
    n_batches = max(1, int(np.ceil(n_train / config.batch_size)))
    warmup_steps = config.warmup_epochs * n_batches
    total_steps = config.epochs * n_batches

    records: list[EpochRecord] = []
    checkpoints: dict[int, dict[str, np.ndarray]] = {}
    best_f1 = -np.inf
    stale = 0
    step = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        lr = 0.0
        for b in range(n_batches):
            idx = order[b * config.batch_size:(b + 1) * config.batch_size]
            if len(idx) == 0:
                continue
            zero_grads(trainable.params)
            out = trainable.forward_batch(idx, rng)
            loss = setup_loss(out.p, y_mis[idx], y_sub[idx], config, weights)
            loss.backward()
            step += 1
            lr = lr_at(step, config.base_lr, warmup_steps, total_steps)
            optimizer.step(lr)
            epoch_loss += float(loss.data) * len(idx)
        epoch_loss /= n_train

        probs = trainable.eval_val()
        f1 = validation_f1(probs, val_y_mis, val_y_sub)
        records.append(EpochRecord(epoch, epoch_loss, f1, lr))
        checkpoints[epoch] = snapshot(trainable.params)
        if log is not None:
            log(records[-1])
        if f1 > best_f1:
            best_f1 = f1
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    top = select_top2(records)
    if len(top) == 1:
        final = checkpoints[top[0]]
    else:
        from .checkpoint import average_checkpoints
        final = average_checkpoints(checkpoints[top[0]], checkpoints[top[1]])
    restore(trainable.params, final)
    return best_f1, final, records
