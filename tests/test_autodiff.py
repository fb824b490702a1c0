"""Gradient correctness of the tape against central finite differences:
the engine, its `*` and `.sum`, and the operator algebra the oracles
build on it."""

import numpy as np
import pytest

from memefuse.autodiff import Tensor, frozen, fused, parameter, zero_grads
from oracles import (add, amax, concat, div, getitem, matmul, mean,
                     numeric_gradient, rel_error, relu, reshape, rows,
                     rows_gradient_add_at, sigmoid, sub)

TOL = 1e-6


def check_grads(build_loss, params):
    """Backward grads vs finite differences for every parameter."""
    loss = build_loss()
    loss.backward()
    for name, p in params.items():
        ref = numeric_gradient(lambda: float(build_loss().data), p.data)
        assert rel_error(p.grad, ref) < TOL, name


def test_add_mul_broadcast(rng):
    a = parameter(rng.standard_normal((3, 4)))
    b = parameter(rng.standard_normal((1, 4)))
    c = parameter(rng.standard_normal(()))
    check_grads(lambda: sub(add(add(a, b) * c, a * 2.0), 0.5).sum(),
                {"a": a, "b": b, "c": c})


def test_div(rng):
    a = parameter(rng.standard_normal((2, 3)))
    b = parameter(rng.standard_normal((2, 3)) + 3.0)
    check_grads(lambda: add(div(a, b), div(1.0, b)).sum(), {"a": a, "b": b})


def test_matmul_batched(rng):
    a = parameter(rng.standard_normal((2, 3, 4)))
    b = parameter(rng.standard_normal((4, 5)))
    check_grads(lambda: matmul(a, b).sum(), {"a": a, "b": b})


def test_reshape_getitem(rng):
    a = parameter(rng.standard_normal((2, 3, 4)))
    check_grads(lambda: (getitem(reshape(a, 2, 12), np.s_[:, 2:5])
                         * 3.0).sum(), {"a": a})


def test_getitem_gather_accumulates(rng):
    a = parameter(rng.standard_normal((4, 2)))
    idx = np.array([0, 0, 3])
    loss = getitem(a, idx).sum()
    loss.backward()
    assert np.allclose(a.grad[0], 2.0)
    assert np.allclose(a.grad[3], 1.0)
    assert np.allclose(a.grad[1], 0.0)


def test_sum_mean_axes(rng):
    a = parameter(rng.standard_normal((3, 4)))
    check_grads(lambda: (a.sum(axis=0) * mean(a, axis=1).sum()).sum(),
                {"a": a})


def test_max_first_argmax_on_ties():
    a = parameter(np.array([[1.0, 1.0, 0.0]]))
    amax(a, axis=-1).sum().backward()
    assert np.array_equal(a.grad, [[1.0, 0.0, 0.0]])


def test_max_gradient(rng):
    a = parameter(rng.standard_normal((4, 5)))
    check_grads(lambda: amax(a, axis=-1).sum(), {"a": a})


def test_nonlinearities(rng):
    a = parameter(rng.standard_normal((3, 4)) * 0.5)
    check_grads(lambda: add(relu(a), sigmoid(a) * a).sum(), {"a": a})


def test_sigmoid_stable_at_extremes():
    t = Tensor(np.array([-1000.0, 0.0, 1000.0]))
    s = sigmoid(t).data
    assert np.all(np.isfinite(s))
    assert s[0] >= 0.0 and s[2] <= 1.0 and abs(s[1] - 0.5) < 1e-15


def test_concat_gradient(rng):
    a = parameter(rng.standard_normal((2, 3)))
    b = parameter(rng.standard_normal((2, 4)))
    w = rng.standard_normal((2, 7))
    check_grads(lambda: (concat([a, b], axis=-1) * Tensor(w)).sum(),
                {"a": a, "b": b})


def test_rows_gradient(rng):
    table = parameter(rng.standard_normal((5, 3)))
    ids = np.array([[0, 2], [2, 4]])
    check_grads(lambda: rows(table, ids).sum(), {"table": table})


def test_rows_gradient_equals_add_at_bitwise(rng):
    # repeated ids make each row's sum order matter
    for _ in range(200):
        vocab, width = rng.integers(1, 12), rng.integers(1, 6)
        table = parameter(rng.standard_normal((vocab, width)))
        ids = rng.integers(0, vocab, size=rng.integers(1, 4, size=2))
        g = rng.standard_normal(ids.shape + (width,)) * 10.0 ** rng.integers(
            -8, 8, size=ids.shape + (width,))
        (rows(table, ids) * Tensor(g)).sum().backward()
        expected = rows_gradient_add_at(table.shape, ids, g)
        assert table.grad.tobytes() == expected.tobytes()


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        parameter(np.ones(3)).backward()


def test_grad_accumulates_on_reuse(rng):
    a = parameter(np.array(2.0))
    (a * a).backward()
    assert float(a.grad) == pytest.approx(4.0)


def test_zero_grads():
    a = parameter(np.array(1.0))
    (a * a).backward()
    zero_grads({"a": a})
    assert a.grad is None


def test_no_tape_for_constant_inputs():
    out = add(Tensor(np.ones(3)), Tensor(np.ones(3)))
    assert out._parents == ()
    a = parameter(np.ones(3))
    mixed = a * Tensor(np.ones(3))
    assert mixed._parents == (a,)  # constants never go on the tape
    b = parameter(np.ones(3))
    b.requires_grad = False
    with frozen({"a": a, "b": b}):
        assert (a * b)._parents == ()
    assert a.requires_grad and not b.requires_grad  # restored on exit


def test_fused_backward_runs_once_per_pass(rng):
    a = parameter(rng.standard_normal(3))
    b = parameter(rng.standard_normal(3))
    calls = []

    def backward(g):
        calls.append(g)
        return g * b.data, g * a.data

    out = fused(a.data * b.data, (a, b), backward)
    out.sum().backward()
    assert len(calls) == 1
    assert np.array_equal(a.grad, b.data)
    assert np.array_equal(b.grad, a.data)


def test_node_consumed_many_times(rng):
    # `h` feeds four consumers created at different points of the graph
    a = parameter(rng.standard_normal((3, 4)) * 0.5)
    b = parameter(rng.standard_normal(4))

    def loss():
        h = sigmoid(a * b)
        return add(add(h * h, relu(h) * 3.0), h.sum(axis=0) * h).sum()

    check_grads(loss, {"a": a, "b": b})


def test_diamond_with_branches_of_different_depth(rng):
    a = parameter(rng.standard_normal((2, 3)))
    w = parameter(rng.standard_normal((3, 3)))

    def loss():
        top = sigmoid(matmul(a, w))
        deep = sigmoid(matmul(sigmoid(matmul(top, w)), w))  # rejoins later
        return (concat([top, deep], axis=0) * deep.sum()).sum()

    check_grads(loss, {"a": a, "w": w})


def test_backward_on_older_graph_after_newer_one(rng):
    a = parameter(rng.standard_normal(4))
    b = parameter(rng.standard_normal(4))
    first = sigmoid(a * b).sum()
    second = (a * a * b).sum()  # built later, shares the leaves
    first.backward()
    s = 1.0 / (1.0 + np.exp(-a.data * b.data))
    assert rel_error(a.grad, s * (1 - s) * b.data) < TOL
    assert rel_error(b.grad, s * (1 - s) * a.data) < TOL
    zero_grads({"a": a, "b": b})
    second.backward()
    assert rel_error(a.grad, 2 * a.data * b.data) < TOL
    assert rel_error(b.grad, a.data * a.data) < TOL


def test_fused_inside_frozen_keeps_no_tape(rng):
    a = parameter(rng.standard_normal(3))
    with frozen({"a": a}):
        out = fused(a.data * 2.0, (a, Tensor(np.ones(3))),
                    lambda g: (g * 2.0, None))
    assert out._parents == () and out._backward is None
    kept = fused(a.data * 2.0, (Tensor(np.ones(3)), a),
                 lambda g: (None, g * 2.0))
    assert kept._parents == (a,)  # the backward narrows to the kept parent
    kept.sum().backward()
    assert np.array_equal(a.grad, np.full(3, 2.0))
