"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the tape in reverse topological order and
accumulates gradients into every reachable leaf with ``requires_grad``.
Only the operations needed by the encoders, fusion heads, and losses are
implemented; layers that would otherwise chain many small ops are single
`fused` nodes with hand-derived gradients. All arithmetic is float64; any
NaN/Inf produced by an op is treated as a hard error by the callers.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over axes that were broadcast to reach `grad.shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad=False, parents=(), vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjps = vjps

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # -- graph construction helpers ------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _make(data, parents, vjps):
        # only parents that lead to a trainable leaf go on the tape, so
        # backward never computes gradients for constants
        tracked = [(p, f) for p, f in zip(parents, vjps)
                   if p.requires_grad or p._parents]
        if not tracked:
            return Tensor(data)
        parents, vjps = zip(*tracked)
        return Tensor(data, parents=parents, vjps=vjps)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out_data = self.data + other.data
        return self._make(
            out_data,
            (self, other),
            (lambda g: _unbroadcast(g, self.shape),
             lambda g: _unbroadcast(g, other.shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), (lambda g: -g,))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        return self._make(
            self.data * other.data,
            (self, other),
            (lambda g: _unbroadcast(g * other.data, self.shape),
             lambda g: _unbroadcast(g * self.data, other.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self._make(
            self.data / other.data,
            (self, other),
            (lambda g: _unbroadcast(g / other.data, self.shape),
             lambda g: _unbroadcast(-g * self.data / other.data ** 2,
                                    other.shape)),
        )

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data

        def vjp_a(g):
            ga = g @ np.swapaxes(b, -1, -2)
            return _unbroadcast(ga, self.shape)

        def vjp_b(g):
            gb = np.swapaxes(a, -1, -2) @ g
            return _unbroadcast(gb, other.shape)

        return self._make(a @ b, (self, other), (vjp_a, vjp_b))

    # -- shape ops --------------------------------------------------------

    def reshape(self, *shape):
        old = self.shape
        return self._make(self.data.reshape(*shape), (self,),
                          (lambda g: g.reshape(old),))

    def __getitem__(self, idx):
        def vjp(g):
            out = np.zeros(self.shape)
            np.add.at(out, idx, g)
            return out

        return self._make(self.data[idx], (self,), (vjp,))

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def vjp(g):
            if axis is None:
                return np.broadcast_to(g, self.shape).copy()
            if not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.shape).copy()

        return self._make(self.data.sum(axis=axis, keepdims=keepdims),
                          (self,), (vjp,))

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis):
        """Max along one axis; gradient flows to the first argmax on ties."""
        idx = np.argmax(self.data, axis=axis)
        out_data = np.take_along_axis(self.data, np.expand_dims(idx, axis),
                                      axis=axis).squeeze(axis)

        def vjp(g):
            out = np.zeros(self.shape)
            np.put_along_axis(out, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis=axis)
            return out

        return self._make(out_data, (self,), (vjp,))

    # -- nonlinearities ------------------------------------------------------

    def relu(self):
        mask = self.data > 0
        return self._make(self.data * mask, (self,), (lambda g: g * mask,))

    def sigmoid(self):
        s = 0.5 * (1.0 + np.tanh(0.5 * self.data))  # stable logistic
        return self._make(s, (self,), (lambda g: g * s * (1.0 - s),))

    # -- backward ----------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            for parent, vjp in zip(node._parents, node._vjps):
                pg = vjp(g)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def fused(data, parents, backward) -> Tensor:
    """One tape node for a whole layer with a hand-derived gradient.

    `backward(g)` maps the gradient of the output to a tuple with one
    gradient per parent, in order. It runs once per backward pass, however
    many of the parents need their gradient.
    """
    memo = [None, None]

    def pick(i):
        def vjp(g):
            if memo[0] is not g:
                memo[0], memo[1] = g, backward(g)
            return memo[1][i]

        return vjp

    return Tensor._make(data, tuple(parents),
                        tuple(pick(i) for i in range(len(parents))))


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]

        return vjp

    return Tensor._make(out, tuple(tensors),
                        tuple(make_vjp(i) for i in range(len(tensors))))


def rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: gather rows of `table` by an integer id array."""
    out = table.data[ids]

    def vjp(g):
        acc = np.zeros(table.shape)
        np.add.at(acc, ids, g)
        return acc

    return Tensor._make(out, (table,), (vjp,))


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
