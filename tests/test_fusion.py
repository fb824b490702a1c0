"""Fusion network: stream weighting, representation fusion, frozen members.

The network is one tape node; its branches are observed through
`FusionModel.forward` with zeroed heads, one-hot member probabilities
and an eval-mode head computed by hand from the stated formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tape_nodes
from memefuse.autodiff import Tensor, parameter
from memefuse.dataio import RunConfig
from memefuse.fusion import FusionModel, _fusion
from memefuse.nn import _HEAD_PARAMS, ModelOutput, NumericError
from memefuse.training import class_weights, setup_loss
from oracles import div, numeric_gradient, rel_error, unfused_fusion


def make_outputs(rng, m=2, n=4, d=6, batch=3):
    outs = []
    for _ in range(m):
        p = Tensor(rng.random((batch, n)) * 0.98 + 0.01)
        f = Tensor(rng.standard_normal((batch, d)))
        outs.append(ModelOutput(p=p, f=f))
    return outs


def zeroed(model, *heads):
    """`model` with every parameter of the named heads set to zero, so a
    zeroed head outputs 1/2 everywhere."""
    for name, p in model.params.items():
        if name.split(".")[0] in heads:
            p.data[:] = 0.0
    return model


def head_by_hand(model, prefix, joint):
    """Eval-mode head: sigmoid(relu(joint W1^T + b1) W2^T + b2)."""
    w1, b1, w2, b2 = (model.params[f"{prefix}.{n}"].data
                      for n in _HEAD_PARAMS)
    hidden = np.maximum(joint @ w1.T + b1, 0.0)
    return 1.0 / (1.0 + np.exp(-(hidden @ w2.T + b2)))


def branches_by_hand(model, outs):
    """Stream-weighted member probabilities and the `rf` output."""
    joint = np.concatenate([a for o in outs for a in (o.p.data, o.f.data)],
                           axis=1)
    s = head_by_hand(model, "wp", joint)
    w = s / s.sum(axis=1, keepdims=True)
    p_sw = sum(w[:, i:i + 1] * o.p.data for i, o in enumerate(outs))
    return p_sw, head_by_hand(model, "rf", joint)


def test_fusion_input_layout(rng):
    outs = make_outputs(rng, m=2, n=4, d=6)
    model = FusionModel([(4, 6), (4, 6)], 4, dropout=0.0, seed=0)
    joint = model.forward(outs).f.data
    assert joint.shape == (3, 20)
    assert np.array_equal(joint[:, :4], outs[0].p.data)
    assert np.array_equal(joint[:, 4:10], outs[0].f.data)
    assert np.array_equal(joint[:, 10:14], outs[1].p.data)
    assert np.array_equal(joint[:, 14:], outs[1].f.data)


def test_fusion_input_needs_two_members():
    with pytest.raises(ValueError, match="at least two member"):
        FusionModel([(4, 6)], 4)


def test_weight_predictor_zero_params_uniform(rng):
    # zeroed wp: every stream weight is 1/3; zeroed rf: its output is 1/2
    model = zeroed(FusionModel([(4, 6)] * 3, 4, dropout=0.0), "wp", "rf")
    outs = make_outputs(rng, m=3)
    mean = sum(o.p.data for o in outs) / 3
    assert np.allclose(model.forward(outs).p.data, 0.5 * (mean + 0.5),
                       atol=1e-15)


def test_weight_normalization_arithmetic():
    s = Tensor(np.array([[0.8, 0.2]]))
    w = div(s, s.sum(axis=-1, keepdims=True)).data
    assert np.allclose(w, [[0.8, 0.2]])


def test_weight_predictor_simplex(rng):
    # member i's probabilities are the one-hot row e_i, so with a zeroed
    # rf head p = (w + 1/2) / 2 and the stream weights read w = 2p - 1/2
    model = zeroed(FusionModel([(3, 4)] * 3, 3, dropout=0.0, seed=1), "rf")
    for _ in range(20):
        outs = [ModelOutput(p=Tensor(np.tile(np.eye(3)[i], (4, 1))),
                            f=Tensor(rng.standard_normal((4, 4))))
                for i in range(3)]
        w = 2.0 * model.forward(outs).p.data - 0.5
        assert np.all(w >= 0)
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        assert np.ptp(w) > 0.0  # the weights depend on the input


def test_stream_weighting_cases():
    outs = [ModelOutput(p=Tensor(np.array([[p]])), f=Tensor(np.ones((1, 2))))
            for p in (0.2, 0.6)]
    model = zeroed(FusionModel([(1, 2)] * 2, 1, dropout=0.0), "wp", "rf")
    mid = model.forward(outs).p.data            # weights (1/2, 1/2)
    assert np.allclose(mid, 0.5 * (0.4 + 0.5))
    model.params["wp.b2"].data[:] = [50.0, -50.0]
    vertex = model.forward(outs).p.data         # weights (1, 0)
    assert np.allclose(vertex, 0.5 * (0.2 + 0.5))


def test_stream_weighting_three_member_dot_product(rng):
    model = FusionModel([(4, 6)] * 3, 4, dropout=0.0, seed=3)
    outs = make_outputs(rng, m=3)
    p_sw, p_rf = branches_by_hand(model, outs)
    assert np.allclose(model.forward(outs).p.data, 0.5 * (p_sw + p_rf),
                       atol=1e-15)


def test_stream_weighting_length_mismatch():
    # members that differ in width, or agree on another width
    for dims in ([(4, 6), (3, 6)], [(3, 6), (3, 6)]):
        with pytest.raises(ValueError, match="member probability widths"):
            FusionModel(dims, 4)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_stream_weighting_convex_hull(seed):
    # p lies in the convex hull of the member probabilities and the rf
    # output, element by element
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    model = FusionModel([(4, 5)] * m, 4, dropout=0.0, seed=seed)
    outs = make_outputs(rng, m=m, n=4, d=5)
    out = model.forward(outs).p.data
    _, p_rf = branches_by_hand(model, outs)
    corners = np.stack([o.p.data for o in outs] + [p_rf])
    assert np.all(out >= corners.min(axis=0) - 1e-12)
    assert np.all(out <= corners.max(axis=0) + 1e-12)


def test_fuse_cases(rng):
    # the fused output is the average of the two branches: members all at
    # 1/2 and a zeroed rf head agree on 1/2; members all at 0.3 weigh to
    # 0.3 whatever the weights, halfway to the rf head's 1/2 is 0.4
    model = zeroed(FusionModel([(4, 6)] * 2, 4, dropout=0.0), "rf")
    for value, fused in ((0.5, 0.5), (0.3, 0.4)):
        outs = [ModelOutput(p=Tensor(np.full((3, 4), value)),
                            f=Tensor(rng.standard_normal((3, 6))))
                for _ in range(2)]
        assert np.allclose(model.forward(outs).p.data, fused, atol=1e-15)


def test_fuse_bounded_by_inputs(rng):
    model = FusionModel([(4, 6)] * 2, 4, dropout=0.0, seed=4)
    outs = make_outputs(rng, m=2, batch=5)
    out = model.forward(outs).p.data
    p_sw, p_rf = branches_by_hand(model, outs)
    assert np.all(out >= np.minimum(p_sw, p_rf) - 1e-15)
    assert np.all(out <= np.maximum(p_sw, p_rf) + 1e-15)


def test_representation_fusion_zero_params(rng):
    # members share one probability matrix, so the stream branch returns
    # it whatever the weights, and the zeroed rf branch adds 1/2
    model = zeroed(FusionModel([(4, 6)] * 2, 4, dropout=0.0, seed=5), "rf")
    probs = rng.random((2, 4))
    outs = [ModelOutput(p=Tensor(probs), f=Tensor(rng.standard_normal((2, 6))))
            for _ in range(2)]
    assert np.allclose(model.forward(outs).p.data, 0.5 * (probs + 0.5),
                       atol=1e-15)


@pytest.mark.parametrize("drop_rate", [0.0, 0.1])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 4], ids=["setupA", "setupB"])
def test_fusion_kernel_matches_unfused_composition(n, m, drop_rate):
    # bitwise: the probabilities, every head gradient and the RNG state
    for seed in range(4):
        gen = np.random.default_rng(seed)
        model = FusionModel([(n, 6)] * m, n, drop_rate, seed=seed)
        outs = make_outputs(gen, m=m, n=n, d=6, batch=5)
        g = gen.standard_normal((5, n))
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed)]
        joint = np.concatenate([a for o in outs for a in (o.p.data, o.f.data)],
                               axis=1)
        wp, rf = ([model.params[f"{head}.{k}"].data for k in _HEAD_PARAMS]
                  for head in ("wp", "rf"))
        p, backward = _fusion(joint, [o.p.data for o in outs], wp, rf,
                              drop_rate, rngs[0])
        grads = backward(g)
        ref = unfused_fusion(outs, model.params, drop_rate, rngs[1])
        (ref * Tensor(g)).sum().backward()
        assert p.tobytes() == ref.data.tobytes()
        assert len(grads) == len(model.params)
        for grad, (name, param) in zip(grads, model.params.items()):
            assert grad.tobytes() == param.grad.tobytes(), name
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("m", [2, 3])
def test_fusion_train_step_tape_stays_fused(m, rng):
    # 8 head parameter leaves, the fusion node and the setup-B loss; the
    # members' saved outputs never go on the tape
    model = FusionModel([(4, 6)] * m, 4, dropout=0.1, seed=0)
    out = model.forward(make_outputs(rng, m=m, batch=2),
                        rng=np.random.default_rng(0))
    y_sub = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    loss = setup_loss(out.p, y_sub.max(axis=1), y_sub,
                      RunConfig(epochs=5, warmup_epochs=1),
                      class_weights([1, 1, 1, 1], 2))
    assert tape_nodes(loss) <= 10


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
