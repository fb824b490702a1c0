"""Minimal reverse-mode automatic differentiation on float numpy arrays.

A Tensor wraps an ndarray. `fused` is the one kind of tape node: the new
tensor keeps the parents that lead to a trainable leaf and one backward
that maps the output gradient to a gradient per kept parent. The
package builds only kernel nodes: each embedding, encoder layer, head
and loss, and the fusion network, is one `fused` node with a
hand-derived gradient. A Tensor keeps only `*` and `.sum`: GCAN pools
with `.sum`, and gradient checks compose with both. The rest of the
operator algebra (add, matmul, indexing, reductions, nonlinearities) is
a test oracle built on `fused`, in `tests/oracles.py`. Each tensor
takes a creation number, and a node is always created after its
parents, so ``backward()`` on a scalar visits the reachable nodes
newest-first and accumulates gradients into every leaf with
``requires_grad``. Ops compute in their inputs' float dtype (float64
for other data); any NaN/Inf produced by an op is treated as a hard
error by the callers.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager

import numpy as np

# creation numbers: only their order is read, and a node always numbers
# above its parents, so graphs built side by side never interfere
_created = itertools.count()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over axes that were broadcast to reach `grad.shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_order")

    def __init__(self, data, requires_grad=False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(float)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._order = next(_created)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    def __mul__(self, other):
        """Elementwise product, broadcasting; `other` may be an array."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        return fused(self.data * other.data, (self, other),
                     lambda g: (_unbroadcast(g * other.data, self.shape),
                                _unbroadcast(g * self.data, other.shape)))

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return fused(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                     backward)

    def backward(self):
        """Accumulate d self / d leaf into every reachable trainable leaf.

        Nodes are popped newest-first, so a node runs its backward only
        after every node that consumes it has added to its gradient; the
        gradient dict doubles as the set of nodes already queued.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        grads = {self: np.ones_like(self.data)}
        queue = [(-self._order, self)]
        while queue:
            node = heapq.heappop(queue)[1]
            g = grads.pop(node)
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if not node._parents:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = pg
                    heapq.heappush(queue, (-parent._order, parent))


def fused(data, parents, backward) -> Tensor:
    """The one way to make a tape node: an op's output and its gradient.

    `backward(g)` maps the gradient of the output to a sequence with one
    gradient per parent, in order, and runs once per backward pass. Only
    parents that lead to a trainable leaf stay on the tape, so a node over
    constants (or inside `frozen`) keeps no parents and no backward.
    """
    out = Tensor(data)
    keep = [i for i, p in enumerate(parents) if p.requires_grad or p._parents]
    if not keep:
        return out
    out._parents = tuple(parents[i] for i in keep)
    if len(keep) == len(parents):
        out._backward = backward
    else:
        def narrowed(g):
            grads = backward(g)
            return [grads[i] for i in keep]

        out._backward = narrowed
    return out


def parameter(data, rng: np.random.Generator | None = None,
              scale: float | None = None) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    if rng is not None:
        data = rng.standard_normal(data) * (scale if scale is not None else 1.0)
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


@contextmanager
def frozen(params: dict[str, Tensor]):
    """Keep `params` off the tape inside the block.

    With no trainable leaf in reach, forward passes record no parents and
    no backward closures; their values are unchanged. Each parameter's
    `requires_grad` is restored on exit.
    """
    saved = [(p, p.requires_grad) for p in params.values()]
    for p, _ in saved:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in saved:
            p.requires_grad = flag


def zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
