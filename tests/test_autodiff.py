import functools
import math

import numpy as np
import pytest

from scenewise import autodiff as ad
from scenewise.errors import EmptySequence, ShapeMismatch


def rng(seed=0):
    return np.random.default_rng(seed)


def test_sigmoid_at_zero():
    assert sigmoid(ad.constant(0.0)).item() == 0.5


def test_softmax_symmetry():
    y = ad.softmax(ad.constant([0.0, 0.0, 0.0]))
    assert np.allclose(y.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_simplex_random():
    for seed in range(5):
        x = ad.constant(rng(seed).normal(size=7) * 10)
        y = ad.softmax(x).data
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) < 1e-12


def test_softmax_normalizes_each_row():
    a = ad.parameter(rng(3).normal(size=(4, 5)))
    y = ad.softmax(a).data
    for i in range(4):
        assert np.allclose(y[i], ad.softmax(ad.constant(a.data[i])).data,
                           rtol=0, atol=1e-15)
    probe = ad.constant(rng(4).normal(size=(4, 5)))
    assert ad.gradcheck(lambda: ad.total(ad.mul(ad.softmax(a), probe)), [a]) < 1e-6


def test_shape_mismatch_messages_carry_both_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch) as err:
        ad.matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


@pytest.mark.parametrize("name", [
    "add", "sub", "mul", "matmul_mm", "matmul_mv", "matmul_vm", "dot",
    "concat", "stack", "row", "mean_rows", "total",
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
        fn = lambda: dot(a, b)
        params = [a, b]
    elif name == "concat":
        a, b = ad.parameter(vec(3)), ad.parameter(vec(4))
        fn = lambda: ad.total(ad.mul(ad.concat([a, b]), ad.concat([a, b])))
        params = [a, b]
    elif name == "stack":
        a, b = ad.parameter(vec(4)), ad.parameter(vec(4))
        fn = lambda: ad.total(ad.mul(stack([a, b]), stack([a, b])))
        params = [a, b]
    elif name == "row":
        a = ad.parameter(r.normal(size=(4, 3)))
        fn = lambda: ad.total(sigmoid(ad.row(a, 2)))
        params = [a]
    elif name == "mean_rows":
        a = ad.parameter(r.normal(size=(5, 3)))
        fn = lambda: ad.total(tanh(ad.mean_rows(a, [5])))
        params = [a]
    elif name == "total":
        a = ad.parameter(vec(5))
        fn = lambda: ad.total(ad.mul(a, a))
        params = [a]
    elif name in ("sigmoid", "tanh", "relu", "logsigmoid"):
        a = ad.parameter(vec(6))
        op = {"sigmoid": sigmoid, "tanh": tanh, "relu": ad.relu,
              "logsigmoid": ad.logsigmoid}[name]
        fn = lambda: ad.total(op(a))
        params = [a]
    elif name == "softmax":
        a = ad.parameter(vec(5))
        w = ad.constant(r.normal(size=5))
        fn = lambda: dot(ad.softmax(a), w)
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
        fn = lambda: ad.total(sigmoid(ad.add_bias(a, b)))
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


def test_backward_gradients_own_their_arrays():
    # add hands the same array to both parents; each must get its own copy
    a = ad.parameter(np.array([1.0, 2.0]))
    b = ad.parameter(np.array([3.0, 4.0]))
    ad.total(ad.mul(ad.add(a, b), ad.constant([5.0, 7.0]))).backward()
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.array_equal(b.grad, [5.0, 7.0])


def test_unreached_parameter_keeps_no_gradient():
    a = ad.parameter(np.array([1.0, 2.0]))
    spare = ad.parameter(np.array([3.0]))
    opt = ad.Adam({"a": a, "spare": spare})
    ad.total(ad.mul(a, a)).backward()
    assert spare.grad is None and np.array_equal(a.grad, [2.0, 4.0])
    opt.zero_grad()
    assert a.grad is None and spare.grad is None


def test_row_accumulates_repeated_indices():
    a = ad.parameter(rng(31).normal(size=(4, 3)))
    index = [2, 0, 2, 2, 3]
    probe = rng(32).normal(size=(len(index), 3))
    ad.total(ad.mul(ad.row(a, index), ad.constant(probe))).backward()
    expected = np.zeros((4, 3))
    for i, k in enumerate(index):
        expected[k] += probe[i]
    assert np.array_equal(a.grad, expected)
    assert ad.gradcheck(lambda: ad.total(sigmoid(ad.row(a, index))), [a]) < 1e-6


# Tensor ops that only tests use: the oracles and gradchecks here and in
# other test files.


def dot(a, b):
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeMismatch(f"dot: {a.data.shape} vs {b.data.shape}")
    return ad._op(a.data @ b.data, (a, b), lambda g: (g * b.data, g * a.data))


def sigmoid(a):
    s = ad._sigmoid(a.data)
    return ad._op(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a):
    y = np.tanh(a.data)
    return ad._op(y, (a,), lambda g: (g * (1.0 - y * y),))


def stack(tensors):
    """Stack 1-D tensors of equal length into a matrix of rows."""
    width = tensors[0].data.shape
    for t in tensors:
        if t.data.ndim != 1 or t.data.shape != width:
            raise ShapeMismatch(f"stack: {t.data.shape} vs {width}")
    return ad._op(np.stack([t.data for t in tensors]), tuple(tensors),
                  lambda g: tuple(g))


def columns(a, k, width):
    """Block ``k`` of ``width`` columns of a matrix, or entries of a vector:
    one gate's block of a fused GRU array."""
    cols = slice(k * width, (k + 1) * width)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., cols] = g
        return (full,)

    return ad._op(a.data[..., cols].copy(), (a,), vjp)


def gates(p):
    """The per-gate blocks (wz, wr, wh, uz, ur, uh, bz, br, bh) read out of
    a direction's fused arrays, as tape nodes."""
    h = p.hidden_dim
    return (*(columns(p.w, k, h) for k in range(3)),
            columns(p.u_zr, 0, h), columns(p.u_zr, 1, h), p.u_h,
            *(columns(p.b, k, h) for k in range(3)))


def gru_cell(x, h_prev, p):
    """One GRU step for a single input vector: the per-step oracle that the
    fused ``gru_direction`` op is checked against."""
    wz, wr, wh, uz, ur, uh, bz, br, bh = gates(p)
    z = sigmoid(ad.add(ad.add(ad.matmul(x, wz), ad.matmul(h_prev, uz)), bz))
    r = sigmoid(ad.add(ad.add(ad.matmul(x, wr), ad.matmul(h_prev, ur)), br))
    c = tanh(ad.add(ad.add(ad.matmul(x, wh),
                           ad.matmul(ad.mul(r, h_prev), uh)), bh))
    # h' = (1 - z) * h + z * c, written as h + z * (c - h)
    return ad.add(h_prev, ad.mul(z, ad.sub(c, h_prev)))


def oracle_direction(xs, b, length, p, reverse=False):
    """The per-step composition: ``gru_cell`` over the first ``length`` steps
    of row ``b`` of a (B, T, D) tensor, one tape node per operation.
    Returns the (length, H) states in step order."""
    h = ad.constant(np.zeros(p.hidden_dim))
    states = []
    order = range(length - 1, -1, -1) if reverse else range(length)
    for t in order:
        h = gru_cell(ad.row(xs, (b, t)), h, p)
        states.append(h)
    if reverse:
        states.reverse()
    return stack(states)


def test_gru_cell_zero_params_zero_state():
    r = rng(3)
    p = ad.init_gru_direction(r, 4, 3)
    for t in p.named("gru").values():
        t.data[...] = 0.0
    x = ad.constant(r.normal(size=4))
    h = ad.constant(np.zeros(3))
    out = gru_cell(x, h, p)
    assert np.allclose(out.data, 0.0)


def test_gru_cell_hand_evaluated_gating():
    # scalar GRU with known weights, checked against direct arithmetic
    p = ad.GruDirection(w=ad.parameter([[0.5, -0.3, 0.8]]),
                        u_zr=ad.parameter([[0.1, 0.2]]), u_h=ad.parameter([[-0.4]]),
                        b=ad.parameter([0.05, -0.02, 0.07]))
    x_val, h_val = 0.9, -0.6

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = sig(0.5 * x_val + 0.1 * h_val + 0.05)
    r_gate = sig(-0.3 * x_val + 0.2 * h_val - 0.02)
    c = math.tanh(0.8 * x_val + (-0.4) * (r_gate * h_val) + 0.07)
    expected = (1 - z) * h_val + z * c

    out = gru_cell(ad.constant([x_val]), ad.constant([h_val]), p)
    assert abs(out.item() - expected) < 1e-12


def test_fused_init_equals_per_gate_glorot_draws():
    p = ad.init_gru_direction(rng(33), 5, 3)
    r = rng(33)
    wz, wr, wh = (ad.glorot(r, (5, 3)) for _ in range(3))
    uz, ur, uh = (ad.glorot(r, (3, 3)) for _ in range(3))
    assert np.array_equal(p.w.data, np.hstack([wz, wr, wh]))
    assert np.array_equal(p.u_zr.data, np.hstack([uz, ur]))
    assert np.array_equal(p.u_h.data, uh)
    assert np.array_equal(p.b.data, np.zeros(9))
    assert [t.data.shape for t in p.named("gru").values()] == \
        [(5, 9), (3, 6), (3, 3), (9,)]


def test_bi_gru_output_dims():
    r = rng(5)
    p = ad.init_bi_gru(r, 100, 50)
    xs = ad.constant(r.normal(size=(1, 1, 100)))
    outputs = ad.bi_gru(xs, p, [1])
    assert outputs.data.shape == (1, 1, 100)


def test_bi_gru_empty_sequence_raises():
    p = ad.init_bi_gru(rng(0), 4, 3)
    with pytest.raises(EmptySequence):
        ad.bi_gru(ad.constant(np.zeros((1, 0, 4))), p, [0])


def test_bi_gru_gradients_match_finite_differences():
    r = rng(7)
    p = ad.init_bi_gru(r, 3, 2)
    xs_data = r.normal(size=(1, 4, 3))
    params = list(p.named("gru").values())

    def fn():
        return ad.total(ad.bi_gru(ad.constant(xs_data), p, [4]))

    assert ad.gradcheck(fn, params) < 1e-4


def test_gru_cell_matches_sequence_path():
    # the batched sequence evaluation must agree with repeated gru_cell calls
    r = rng(11)
    p = ad.init_gru_direction(r, 3, 2)
    xs_data = r.normal(size=(5, 3))
    h = ad.constant(np.zeros(2))
    for t in range(5):
        h = gru_cell(ad.constant(xs_data[t]), h, p)
    outputs = ad.gru_direction(ad.constant(xs_data[None]), p, [5])
    assert np.allclose(h.data, outputs.data[0, -1], atol=1e-12)


# A ragged batch: every length from 1 to T, in mixed order, with the padded
# steps holding values the op must ignore.
RAGGED_LENGTHS = np.array([3, 1, 5, 2, 4])


def ragged_batch(seed, dim=3):
    r = rng(seed)
    return r.normal(size=(len(RAGGED_LENGTHS), RAGGED_LENGTHS.max(), dim))


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_fused_gru_forward_matches_oracle(reverse):
    p = ad.init_gru_direction(rng(21), 3, 4)
    xs = ad.constant(ragged_batch(22))
    out = ad.gru_direction(xs, p, RAGGED_LENGTHS, reverse).data
    for b, length in enumerate(RAGGED_LENGTHS):
        expected = oracle_direction(xs, b, length, p, reverse).data
        assert np.max(np.abs(out[b, :length] - expected)) < 1e-12
        # padded output positions are exactly zero
        assert np.all(out[b, length:] == 0.0)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_fused_gru_gradients_match_oracle(reverse):
    p = ad.init_gru_direction(rng(23), 3, 4)
    params = list(p.named("gru").values())
    xs = ad.parameter(ragged_batch(24))
    probe = rng(25).normal(size=(len(RAGGED_LENGTHS), RAGGED_LENGTHS.max(), 4))

    def grads(loss):
        loss.backward()
        return [t.grad.copy() for t in params + [xs]]

    fused = grads(ad.total(ad.mul(ad.gru_direction(xs, p, RAGGED_LENGTHS, reverse),
                                  ad.constant(probe))))
    oracle = grads(functools.reduce(ad.add, [
        ad.total(ad.mul(oracle_direction(xs, b, length, p, reverse),
                        ad.constant(probe[b, :length])))
        for b, length in enumerate(RAGGED_LENGTHS)]))
    for got, want in zip(fused, oracle):
        assert np.max(np.abs(got - want)) < 1e-10
    # padded inputs get exactly zero gradient
    for b, length in enumerate(RAGGED_LENGTHS):
        assert np.all(fused[-1][b, length:] == 0.0)


def test_fused_gru_gradcheck_on_ragged_batch():
    p = ad.init_bi_gru(rng(26), 3, 2)
    xs = ad.parameter(ragged_batch(27))
    probe = ad.constant(rng(28).normal(size=(len(RAGGED_LENGTHS),
                                             RAGGED_LENGTHS.max(), 4)))

    def fn():
        return ad.total(ad.mul(ad.bi_gru(xs, p, RAGGED_LENGTHS), probe))

    assert ad.gradcheck(fn, list(p.named("gru").values()) + [xs]) < 1e-4


def test_mean_rows_runs_match_each_run_alone_bitwise():
    lengths = np.array([3, 1, 40, 2, 9])
    a = ad.parameter(rng(29).normal(size=(lengths.sum(), 7)))
    runs = ad.mean_rows(a, lengths)
    starts = np.cumsum(lengths) - lengths
    for b, (start, length) in enumerate(zip(starts, lengths)):
        alone = ad.row(ad.mean_rows(ad.constant(a.data[start:start + length]),
                                    [length]), 0)
        assert np.array_equal(runs.data[b], alone.data)
        assert np.allclose(alone.data, a.data[start:start + length].mean(axis=0),
                           rtol=1e-15, atol=1e-15)
    probe = rng(30).normal(size=runs.data.shape)
    ad.total(ad.mul(runs, ad.constant(probe))).backward()
    assert np.array_equal(a.grad, np.repeat(probe / lengths[:, None], lengths, axis=0))


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
