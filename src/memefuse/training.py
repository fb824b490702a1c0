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
from .dataio import RunConfig
from .ensemble import task_scores
from .nn import NumericError

PROB_EPS = 1e-12
LOSS_MIX = (0.7, 0.3)  # setup B: weighted BCE, teacher forcing


@dataclass
class LossWeights:
    """Support-derived class weights for [shm, ste, obj, vio]; sums to 1."""
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (4,) or np.any(self.w <= 0):
            raise ValueError("need four strictly positive class weights")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_f1: float
    lr: float


def _bce(pd: np.ndarray, y, weights):
    """-sum(weights * (y log p + (1 - y) log(1 - p))) and its backward.

    `weights` broadcasts against p. Probabilities are clamped to
    [PROB_EPS, 1 - PROB_EPS]; the gradient is zero where the clamp binds.
    """
    y = np.asarray(y, dtype=np.float64)
    pc = np.clip(pd, PROB_EPS, 1.0 - PROB_EPS)
    value = -(weights * (y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))).sum()

    def backward(g):
        inside = (pd >= PROB_EPS) & (pd <= 1.0 - PROB_EPS)
        return -g * weights * (y / pc - (1.0 - y) / (1.0 - pc)) * inside

    return value, backward


def _teacher_forcing(pd: np.ndarray, y_mis):
    """Mean of (max_c p - y)^2 and its backward; on ties the gradient goes
    to the first argmax."""
    rows, top = np.arange(len(pd)), np.argmax(pd, axis=-1)
    diff = pd[rows, top] - np.asarray(y_mis, dtype=np.float64)
    value = (diff * diff).sum() * (1.0 / diff.size)

    def backward(g):
        half = (g * (1.0 / diff.size)) * diff
        out = np.zeros(pd.shape, pd.dtype)
        out[rows, top] = half + half
        return out

    return value, backward


def _loss_node(p: Tensor, kernel, *args) -> Tensor:
    value, backward = kernel(p.data, *args)
    return fused(np.asarray(value), (p,), lambda g: (backward(g),))


def bce(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy; probabilities clamped away from 0 and 1."""
    return _loss_node(p, _bce, y, 1.0 / p.data.size)


def class_weights(counts, total: int) -> LossWeights:
    """w_c proportional to total/count(c), normalized to sum to 1."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError(f"degenerate class with zero support: {counts}")
    inv = total / counts
    return LossWeights(inv / inv.sum())


def teacher_forcing_loss(p: Tensor, y_mis: np.ndarray) -> Tensor:
    """MSE between max of the sub-category probabilities and the binary target."""
    return _loss_node(p, _teacher_forcing, y_mis)


def combined_loss(l1: Tensor, l2: Tensor,
                  mix: tuple[float, float] = LOSS_MIX) -> Tensor:
    """l1 * mix[0] + l2 * mix[1] as one tape node."""
    w1, w2 = mix
    return fused(np.asarray(l1.data * w1 + l2.data * w2), (l1, l2),
                 lambda g: (g * w1, g * w2))


def setup_loss(p: Tensor, y_mis: np.ndarray, y_sub: np.ndarray,
               config: RunConfig,
               weights: LossWeights | None) -> Tensor:
    """The setup's training loss as one tape node."""
    if config.setup == "A":
        return bce(p, y_mis.reshape(-1, 1))
    l1, back1 = _bce(p.data, y_sub, weights.w / p.shape[0])
    l2, back2 = _teacher_forcing(p.data, y_mis)
    w1, w2 = LOSS_MIX
    return fused(np.asarray(l1 * w1 + l2 * w2), (p,),
                 lambda g: (back1(g * w1) + back2(g * w2),))


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

    The parameter values, gradients and both moments live in flat
    buffers of the parameters' dtype, with a view per parameter name, so
    a step is a few in-place vector operations over all parameters at
    once. Each parameter's `data` is its view into the value buffer for
    the optimizer's life; write new values into it in place (as `restore`
    does). Every parameter must hold a `grad` of its shape when `step` is
    called.
    """

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        bounds = np.cumsum([0] + [p.data.size for p in params.values()])
        dtype = np.result_type(*{p.data.dtype for p in params.values()})
        self._theta, self._m, self._v, self._g, self._s1, self._s2 = \
            np.zeros((6, bounds[-1]), dtype)  # s1 and s2 are scratch for `step`
        self.m, self.v = {}, {}
        for (name, p), lo, hi in zip(params.items(), bounds, bounds[1:]):
            view = self._theta[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            self.m[name] = self._m[lo:hi].reshape(view.shape)
            self.v[name] = self._v[lo:hi].reshape(view.shape)

    def step(self, lr: float) -> None:
        grads = [p.grad for p in self.params.values()]
        g = np.concatenate([grad.ravel() for grad in grads], out=self._g)
        if not np.isfinite(g).all():
            bad = next(name for name, grad in zip(self.params, grads)
                       if not np.isfinite(grad).all())
            raise NumericError(f"non-finite gradient for {bad}")
        self.t += 1
        # the textbook formula op for op, in place over every parameter
        m, v, theta, s1, s2 = self._m, self._v, self._theta, self._s1, self._s2
        m *= self.beta1
        m += np.multiply(g, 1 - self.beta1, out=s1)
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=s1)
        v += np.multiply(s1, g, out=s1)
        np.divide(v, 1 - self.beta2 ** self.t, out=s1)
        np.sqrt(s1, out=s1)
        s1 += self.eps
        np.divide(m, 1 - self.beta1 ** self.t, out=s2)
        s2 /= s1
        s2 += np.multiply(theta, self.weight_decay, out=s1)
        s2 *= lr
        theta -= s2


def snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in params.items()}


def restore(params: dict[str, Tensor], values: dict[str, np.ndarray]) -> None:
    """Write `values` into each parameter's `data` in place, so an
    optimizer's views stay the parameters' values."""
    for k, p in params.items():
        p.data[...] = values[k]


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
                config: RunConfig) -> tuple[float, dict[str, np.ndarray],
                                            list[EpochRecord]]:
    """Run one fold: epochs with early stopping and top-2 averaging.

    `trainable` exposes `params` (name -> Tensor), `forward_batch(indices,
    rng)` over the training split, and `eval_val()` returning eval-mode
    validation probabilities. `config` holds the fold's settings and is
    validated first. Returns (best validation F1, final averaged
    parameters, per-epoch records).
    """
    config.validate()
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
        top = select_top2(records)
        checkpoints = {e: checkpoints[e] for e in top}  # the two kept
        if f1 > best_f1:
            best_f1 = f1
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if len(top) == 1:
        final = checkpoints[top[0]]
    else:
        from .checkpoint import average_checkpoints
        final = average_checkpoints(checkpoints[top[0]], checkpoints[top[1]])
    restore(trainable.params, final)
    return best_f1, final, records
