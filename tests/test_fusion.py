"""Fusion network: stream weighting, representation fusion, frozen members."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memefuse.autodiff import Tensor, parameter
from memefuse.fusion import (FusionModel, fuse, fusion_input,
                             representation_fusion, stream_weighting,
                             weight_predictor)
from memefuse.nn import ModelOutput, NumericError, _init_head
from oracles import numeric_gradient, rel_error


def make_outputs(rng, m=2, n=4, d=6, batch=3):
    outs = []
    for _ in range(m):
        p = Tensor(rng.random((batch, n)) * 0.98 + 0.01)
        f = Tensor(rng.standard_normal((batch, d)))
        outs.append(ModelOutput(p=p, f=f))
    return outs


def test_fusion_input_layout(rng):
    outs = make_outputs(rng, m=2, n=4, d=6)
    joint = fusion_input(outs).data
    assert joint.shape == (3, 20)
    assert np.array_equal(joint[:, :4], outs[0].p.data)
    assert np.array_equal(joint[:, 4:10], outs[0].f.data)
    assert np.array_equal(joint[:, 10:14], outs[1].p.data)


def test_fusion_input_needs_two_members(rng):
    with pytest.raises(ValueError):
        fusion_input(make_outputs(rng, m=1))


def test_weight_predictor_zero_params_uniform():
    params = {}
    _init_head(params, "wp", 8, 3, np.random.default_rng(0))
    for p in params.values():
        p.data[:] = 0.0
    w = weight_predictor(Tensor(np.ones((2, 8))), params, 0.0, None).data
    assert np.allclose(w, 1.0 / 3.0)


def test_weight_normalization_arithmetic():
    s = Tensor(np.array([[0.8, 0.2]]))
    w = (s / s.sum(axis=-1, keepdims=True)).data
    assert np.allclose(w, [[0.8, 0.2]])


def test_weight_predictor_simplex(rng):
    params = {}
    _init_head(params, "wp", 10, 3, np.random.default_rng(1))
    for _ in range(20):
        joint = Tensor(rng.standard_normal((4, 10)))
        w = weight_predictor(joint, params, 0.0, None).data
        assert np.all(w >= 0)
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)


def test_stream_weighting_cases():
    p = [Tensor(np.array([[0.2]])), Tensor(np.array([[0.6]]))]
    mid = stream_weighting(p, Tensor(np.array([[0.5, 0.5]]))).data
    assert np.allclose(mid, 0.4)
    vertex = stream_weighting(p, Tensor(np.array([[1.0, 0.0]]))).data
    assert np.allclose(vertex, 0.2)


def test_stream_weighting_three_member_dot_product(rng):
    probs = [Tensor(rng.random((2, 4))) for _ in range(3)]
    w = rng.random((2, 3))
    w /= w.sum(axis=1, keepdims=True)
    out = stream_weighting(probs, Tensor(w)).data
    ref = sum(w[:, i:i + 1] * probs[i].data for i in range(3))
    assert np.allclose(out, ref, atol=1e-15)


def test_stream_weighting_length_mismatch(rng):
    probs = [Tensor(rng.random((2, 4))), Tensor(rng.random((2, 3)))]
    with pytest.raises(ValueError):
        stream_weighting(probs, Tensor(np.full((2, 2), 0.5)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_stream_weighting_convex_hull(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    probs = [Tensor(rng.random((3, 4))) for _ in range(m)]
    w = rng.random((3, m))
    w /= w.sum(axis=1, keepdims=True)
    out = stream_weighting(probs, Tensor(w)).data
    stackp = np.stack([p.data for p in probs])
    assert np.all(out >= stackp.min(axis=0) - 1e-12)
    assert np.all(out <= stackp.max(axis=0) + 1e-12)


def test_fuse_cases():
    assert np.allclose(fuse(Tensor(np.array([0.3])),
                            Tensor(np.array([0.3]))).data, 0.3)
    assert np.allclose(fuse(Tensor(np.array([0.2])),
                            Tensor(np.array([0.6]))).data, 0.4)
    with pytest.raises(ValueError):
        fuse(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


def test_fuse_bounded_by_inputs(rng):
    a, b = Tensor(rng.random((5, 4))), Tensor(rng.random((5, 4)))
    out = fuse(a, b).data
    assert np.all(out >= np.minimum(a.data, b.data) - 1e-15)
    assert np.all(out <= np.maximum(a.data, b.data) + 1e-15)


def test_representation_fusion_zero_params(rng):
    params = {}
    _init_head(params, "rf", 8, 4, np.random.default_rng(0))
    for p in params.values():
        p.data[:] = 0.0
    out = representation_fusion(Tensor(rng.standard_normal((2, 8))),
                                params, 0.0, None).data
    assert np.allclose(out, 0.5)


def test_fusion_model_gradients(rng):
    model = FusionModel([(4, 6), (4, 6)], 4, dropout=0.0, seed=0)
    outs = make_outputs(rng, m=2, n=4, d=6)

    def build():
        p = model.forward(outs).p
        return (p * p).sum()

    loss = build()
    loss.backward()
    for name, p in model.params.items():
        ref = numeric_gradient(lambda: float(build().data), p.data)
        assert rel_error(p.grad, ref) < 1e-4, name


def test_fusion_member_count_checked(rng):
    model = FusionModel([(4, 6), (4, 6)], 4, dropout=0.0, seed=0)
    with pytest.raises(ValueError):
        model.forward(make_outputs(rng, m=3))


@pytest.mark.parametrize("dims", [
    [(4, 6), (4, 6)],            # text + image
    [(4, 6), (4, 6), (4, 6)],    # text + graph + image
    [(1, 8), (1, 8)],            # setup A members
])
def test_one_code_path_across_combinations(dims, rng):
    n = dims[0][0]
    model = FusionModel(dims, n, dropout=0.0, seed=1)
    outs = [ModelOutput(p=Tensor(rng.random((2, nd)) * 0.9 + 0.05),
                        f=Tensor(rng.standard_normal((2, dd))))
            for nd, dd in dims]
    out = model.forward(outs)
    assert out.p.shape == (2, n)
    assert np.all((out.p.data > 0) & (out.p.data < 1))
    assert out.f.shape == (2, sum(nd + dd for nd, dd in dims))


def test_members_frozen_during_fusion_training(rng):
    # gradients never reach member tensors marked frozen
    member_p = parameter(rng.random((3, 4)) * 0.8 + 0.1)
    member_p.requires_grad = False
    member_f = parameter(rng.standard_normal((3, 6)))
    member_f.requires_grad = False
    model = FusionModel([(4, 6), (4, 6)], 4, dropout=0.0, seed=2)
    outs = [ModelOutput(p=member_p, f=member_f),
            ModelOutput(p=Tensor(rng.random((3, 4))),
                        f=Tensor(rng.standard_normal((3, 6))))]
    model.forward(outs).p.sum().backward()
    assert member_p.grad is None
    assert member_f.grad is None
    assert all(p.grad is not None for p in model.params.values())


def test_fusion_non_finite_names_the_head(rng):
    model = FusionModel([(2, 3), (2, 3)], 2, dropout=0.0, seed=0)
    outs = [ModelOutput(p=Tensor(rng.random((2, 2))),
                        f=Tensor(rng.standard_normal((2, 3))))
            for _ in range(2)]
    model.params["rf.b1"].data[0] = np.nan
    with pytest.raises(NumericError, match="in rf probabilities$"):
        model.forward(outs)
