import math

import numpy as np
import pytest

from scenewise import autodiff as ad
from scenewise.errors import EmptySequence, ShapeMismatch


def rng(seed=0):
    return np.random.default_rng(seed)


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.constant(0.0)).item() == 0.5


def test_softmax_symmetry():
    y = ad.softmax(ad.constant([0.0, 0.0, 0.0]))
    assert np.allclose(y.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_simplex_random():
    for seed in range(5):
        x = ad.constant(rng(seed).normal(size=7) * 10)
        y = ad.softmax(x).data
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) < 1e-12


def test_shape_mismatch_messages_carry_both_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch) as err:
        ad.matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


@pytest.mark.parametrize("name", [
    "add", "sub", "mul", "matmul_mm", "matmul_mv", "matmul_vm", "dot",
    "concat", "stack", "row", "mean", "mean_rows", "total",
    "sigmoid", "tanh", "relu", "softmax", "logsigmoid", "sqrt",
    "transpose", "add_bias", "scale",
])
def test_primitive_gradients_match_finite_differences(name):
    r = rng(hash(name) % 2**32)

    def vec(n):
        # keep relu inputs away from the kink at 0
        v = r.normal(size=n)
        return np.where(np.abs(v) < 0.1, v + 0.2 * np.sign(v + 1e-12), v)

    if name in ("add", "sub", "mul"):
        a, b = ad.parameter(vec(5)), ad.parameter(vec(5))
        fn = lambda: ad.total(getattr(ad, name)(a, b))
        params = [a, b]
    elif name == "matmul_mm":
        a, b = ad.parameter(r.normal(size=(3, 4))), ad.parameter(r.normal(size=(4, 2)))
        fn = lambda: ad.total(ad.matmul(a, b))
        params = [a, b]
    elif name == "matmul_mv":
        a, b = ad.parameter(r.normal(size=(3, 4))), ad.parameter(vec(4))
        fn = lambda: ad.total(ad.matmul(a, b))
        params = [a, b]
    elif name == "matmul_vm":
        a, b = ad.parameter(vec(3)), ad.parameter(r.normal(size=(3, 4)))
        fn = lambda: ad.total(ad.matmul(a, b))
        params = [a, b]
    elif name == "dot":
        a, b = ad.parameter(vec(6)), ad.parameter(vec(6))
        fn = lambda: ad.dot(a, b)
        params = [a, b]
    elif name == "concat":
        a, b = ad.parameter(vec(3)), ad.parameter(vec(4))
        fn = lambda: ad.total(ad.mul(ad.concat([a, b]), ad.concat([a, b])))
        params = [a, b]
    elif name == "stack":
        a, b = ad.parameter(vec(4)), ad.parameter(vec(4))
        fn = lambda: ad.total(ad.mul(ad.stack([a, b]), ad.stack([a, b])))
        params = [a, b]
    elif name == "row":
        a = ad.parameter(r.normal(size=(4, 3)))
        fn = lambda: ad.total(ad.sigmoid(ad.row(a, 2)))
        params = [a]
    elif name == "mean":
        a = ad.parameter(r.normal(size=(3, 3)))
        fn = lambda: ad.mean(ad.mul(a, a))
        params = [a]
    elif name == "mean_rows":
        a = ad.parameter(r.normal(size=(5, 3)))
        fn = lambda: ad.total(ad.tanh(ad.mean_rows(a)))
        params = [a]
    elif name == "total":
        a = ad.parameter(vec(5))
        fn = lambda: ad.total(ad.mul(a, a))
        params = [a]
    elif name in ("sigmoid", "tanh", "relu", "logsigmoid"):
        a = ad.parameter(vec(6))
        fn = lambda: ad.total(getattr(ad, name)(a))
        params = [a]
    elif name == "softmax":
        a = ad.parameter(vec(5))
        w = ad.constant(r.normal(size=5))
        fn = lambda: ad.dot(ad.softmax(a), w)
        params = [a]
    elif name == "sqrt":
        a = ad.parameter(np.abs(vec(5)) + 0.5)
        fn = lambda: ad.total(ad.sqrt(a))
        params = [a]
    elif name == "transpose":
        a = ad.parameter(r.normal(size=(3, 4)))
        fn = lambda: ad.total(ad.mul(ad.transpose(a), ad.transpose(a)))
        params = [a]
    elif name == "add_bias":
        a = ad.parameter(r.normal(size=(4, 3)))
        b = ad.parameter(vec(3))
        fn = lambda: ad.total(ad.sigmoid(ad.add_bias(a, b)))
        params = [a, b]
    elif name == "scale":
        a = ad.parameter(vec(5))
        fn = lambda: ad.total(ad.scale(a, 2.5))
        params = [a]
    else:  # pragma: no cover
        raise AssertionError(name)

    assert ad.gradcheck(fn, params) < 1e-6


def test_tape_topological_and_unique():
    a = ad.parameter(np.array([1.0, 2.0]))
    b = ad.mul(a, a)
    c = ad.add(b, b)  # diamond: b used twice
    loss = ad.total(c)
    order = ad._toposort(loss)
    ids = [id(n) for n in order]
    assert len(ids) == len(set(ids))  # each node exactly once
    position = {id(n): i for i, n in enumerate(order)}
    for node in order:
        for parent in node._parents:
            if parent.requires_grad:
                assert position[id(parent)] < position[id(node)]
    # diamond gradient: d/da sum(2 a^2) = 4a
    loss.backward()
    assert np.allclose(a.grad, 4 * a.data)


def test_backward_zeroes_old_gradients():
    a = ad.parameter(np.array([1.0, 2.0]))
    loss = ad.total(ad.mul(a, a))
    loss.backward()
    first = a.grad.copy()
    loss.backward()
    assert np.array_equal(a.grad, first)


def gru_cell(x, h_prev, p):
    """One GRU step for a single input vector: the per-step oracle that the
    whole-sequence ``bi_gru`` path is checked against."""
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p.wz), ad.matmul(h_prev, p.uz)), p.bz))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p.wr), ad.matmul(h_prev, p.ur)), p.br))
    c = ad.tanh(ad.add(ad.add(ad.matmul(x, p.wh),
                              ad.matmul(ad.mul(r, h_prev), p.uh)), p.bh))
    # h' = (1 - z) * h + z * c, written as h + z * (c - h)
    return ad.add(h_prev, ad.mul(z, ad.sub(c, h_prev)))


def test_gru_cell_zero_params_zero_state():
    r = rng(3)
    p = ad.init_gru_direction(r, 4, 3)
    for t in (p.wz, p.wr, p.wh, p.uz, p.ur, p.uh, p.bz, p.br, p.bh):
        t.data[...] = 0.0
    x = ad.constant(r.normal(size=4))
    h = ad.constant(np.zeros(3))
    out = gru_cell(x, h, p)
    assert np.allclose(out.data, 0.0)


def test_gru_cell_hand_evaluated_gating():
    # scalar GRU with known weights, checked against direct arithmetic
    p = ad.GruDirection(
        wz=ad.parameter([[0.5]]), wr=ad.parameter([[-0.3]]), wh=ad.parameter([[0.8]]),
        uz=ad.parameter([[0.1]]), ur=ad.parameter([[0.2]]), uh=ad.parameter([[-0.4]]),
        bz=ad.parameter([0.05]), br=ad.parameter([-0.02]), bh=ad.parameter([0.07]),
    )
    x_val, h_val = 0.9, -0.6

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = sig(0.5 * x_val + 0.1 * h_val + 0.05)
    r_gate = sig(-0.3 * x_val + 0.2 * h_val - 0.02)
    c = math.tanh(0.8 * x_val + (-0.4) * (r_gate * h_val) + 0.07)
    expected = (1 - z) * h_val + z * c

    out = gru_cell(ad.constant([x_val]), ad.constant([h_val]), p)
    assert abs(out.item() - expected) < 1e-12


def test_bi_gru_output_dims():
    r = rng(5)
    p = ad.init_bi_gru(r, 100, 50)
    xs = ad.constant(r.normal(size=(1, 100)))
    outputs, final = ad.bi_gru(xs, p)
    assert final.data.shape == (100,)
    assert all(o.data.shape == (100,) for o in outputs)


def test_bi_gru_empty_sequence_raises():
    p = ad.init_bi_gru(rng(0), 4, 3)
    with pytest.raises(EmptySequence):
        ad.bi_gru(ad.constant(np.zeros((0, 4))), p)


def test_bi_gru_gradients_match_finite_differences():
    r = rng(7)
    p = ad.init_bi_gru(r, 3, 2)
    xs_data = r.normal(size=(4, 3))
    params = list(p.named("gru").values())

    def fn():
        outputs, _ = ad.bi_gru(ad.constant(xs_data), p)
        return ad.total(ad.stack(outputs))

    assert ad.gradcheck(fn, params) < 1e-4


def test_gru_cell_matches_sequence_path():
    # the batched sequence evaluation must agree with repeated gru_cell calls
    r = rng(11)
    p = ad.init_gru_direction(r, 3, 2)
    xs_data = r.normal(size=(5, 3))
    h = ad.constant(np.zeros(2))
    for t in range(5):
        h = gru_cell(ad.constant(xs_data[t]), h, p)
    outputs = ad._gru_direction(ad.constant(xs_data), p, reverse=False)
    assert np.allclose(h.data, outputs[-1].data, atol=1e-12)


def test_clip_grad_norm_boundary():
    a = ad.parameter(np.zeros(2))
    a.grad = np.array([3.0, 4.0])
    assert ad.clip_grad_norm([a], 5.0) == 1.0
    assert np.array_equal(a.grad, [3.0, 4.0])


def test_clip_grad_norm_halving():
    a = ad.parameter(np.zeros(2))
    a.grad = np.array([6.0, 8.0])
    factor = ad.clip_grad_norm([a], 5.0)
    assert abs(factor - 0.5) < 1e-15
    assert np.allclose(a.grad, [3.0, 4.0])


def test_clip_grad_norm_zero_grads():
    a = ad.parameter(np.zeros(3))
    a.grad = np.zeros(3)
    assert ad.clip_grad_norm([a], 5.0) == 1.0


def test_adam_first_step_magnitude():
    g = 0.37
    p = ad.parameter(np.array([1.0]))
    opt = ad.Adam({"p": p}, lr=5e-3)
    p.grad = np.array([g])
    opt.step()
    moved = 1.0 - p.data[0]
    # first Adam step has magnitude ~ lr, sign of g
    assert moved > 0
    assert abs(moved - 5e-3) < 1e-6


def test_adam_zero_gradient_fresh_state():
    p = ad.parameter(np.array([2.0, -1.0]))
    opt = ad.Adam({"p": p})
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [2.0, -1.0])
    assert opt.step_count == 1


def test_adam_deterministic():
    def run():
        p = ad.parameter(np.array([1.0, 2.0]))
        opt = ad.Adam({"p": p}, lr=1e-2)
        for _ in range(3):
            p.grad = np.array([0.5, -0.25])
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())
