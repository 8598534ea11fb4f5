import functools
import math
import warnings

import numpy as np
import pytest

import gru_oracle
from scenewise import autodiff as ad
from scenewise.errors import EmptySequence, NonFiniteLoss, ShapeMismatch
from tape_ops import (add_bias, columns, dot, logsigmoid, mul, relu, scale,
                      sigmoid, softmax, sqrt, stack, sub, tanh, total,
                      transpose)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_sigmoid_at_zero():
    assert sigmoid(ad.constant(0.0)).item() == 0.5


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300,
                 -1e-300, 36.8, -36.8, 709.7, -709.7, 745.2, -745.2, 1e308,
                 -1e308, np.inf, -np.inf, np.nan, -np.nan]


def where_form_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def test_sigmoid_matches_where_form_bitwise():
    # the gate sigmoid drops np.where; every bit must stay, NaN's sign too
    draws = [rng(60 + k).normal(scale=scale, size=100_000)
             for k, scale in enumerate([1e-6, 1e-3, 1.0, 10.0, 40.0, 800.0])]
    for x in [np.array(SIGMOID_EDGES)] + draws:
        got = ad._sigmoid(x)
        bits = got.view(np.uint64)
        assert np.array_equal(bits, where_form_sigmoid(x).view(np.uint64))
        assert np.array_equal(bits, gru_oracle._sigmoid(x).view(np.uint64))
        # into caller buffers, in place over the input
        buf, tmp = x.copy(), np.empty_like(x)
        assert ad._sigmoid(buf, out=buf, tmp=tmp) is buf
        assert np.array_equal(buf.view(np.uint64), bits)


def test_softmax_symmetry():
    y = softmax(ad.constant([0.0, 0.0, 0.0]))
    assert np.allclose(y.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_simplex_random():
    for seed in range(5):
        x = ad.constant(rng(seed).normal(size=7) * 10)
        y = softmax(x).data
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) < 1e-12


def test_softmax_normalizes_each_row():
    a = ad.parameter(rng(3).normal(size=(4, 5)))
    y = softmax(a).data
    for i in range(4):
        assert np.allclose(y[i], softmax(ad.constant(a.data[i])).data,
                           rtol=0, atol=1e-15)
    probe = ad.constant(rng(4).normal(size=(4, 5)))
    assert gradcheck(lambda: total(mul(softmax(a), probe)), [a]) < 1e-6


def test_shape_mismatch_messages_carry_both_shapes():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch) as err:
        ad.matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 5)" in str(err.value)


PRIMITIVE_CASES = (
    "add", "sub", "mul", "matmul_mm", "matmul_mv", "matmul_vm", "dot",
    "concat", "stack", "row", "mean_rows", "total",
    "sigmoid", "tanh", "relu", "softmax", "logsigmoid", "sqrt",
    "transpose", "add_bias", "scale", "mean_of_run_means", "logistic_loss",
)


@pytest.mark.parametrize("name", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(name):
    # seeded by the case's index, so that every run draws the same inputs
    r = rng(PRIMITIVE_CASES.index(name))

    def vec(n):
        # keep relu inputs away from the kink at 0
        v = r.normal(size=n)
        return np.where(np.abs(v) < 0.1, v + 0.2 * np.sign(v + 1e-12), v)

    if name in ("add", "sub", "mul"):
        a, b = ad.parameter(vec(5)), ad.parameter(vec(5))
        op = {"add": ad.add, "sub": sub, "mul": mul}[name]
        fn = lambda: total(op(a, b))
        params = [a, b]
    elif name == "matmul_mm":
        a, b = ad.parameter(r.normal(size=(3, 4))), ad.parameter(r.normal(size=(4, 2)))
        fn = lambda: total(ad.matmul(a, b))
        params = [a, b]
    elif name == "matmul_mv":
        a, b = ad.parameter(r.normal(size=(3, 4))), ad.parameter(vec(4))
        fn = lambda: total(ad.matmul(a, b))
        params = [a, b]
    elif name == "matmul_vm":
        a, b = ad.parameter(vec(3)), ad.parameter(r.normal(size=(3, 4)))
        fn = lambda: total(ad.matmul(a, b))
        params = [a, b]
    elif name == "dot":
        a, b = ad.parameter(vec(6)), ad.parameter(vec(6))
        fn = lambda: dot(a, b)
        params = [a, b]
    elif name == "concat":
        a, b = ad.parameter(vec(3)), ad.parameter(vec(4))
        fn = lambda: total(mul(ad.concat([a, b]), ad.concat([a, b])))
        params = [a, b]
    elif name == "stack":
        a, b = ad.parameter(vec(4)), ad.parameter(vec(4))
        fn = lambda: total(mul(stack([a, b]), stack([a, b])))
        params = [a, b]
    elif name == "row":
        a = ad.parameter(r.normal(size=(4, 3)))
        fn = lambda: total(sigmoid(ad.row(a, 2)))
        params = [a]
    elif name == "mean_rows":
        a = ad.parameter(r.normal(size=(5, 3)))
        fn = lambda: total(tanh(ad.mean_rows(a, [5])))
        params = [a]
    elif name == "total":
        a = ad.parameter(vec(5))
        fn = lambda: total(mul(a, a))
        params = [a]
    elif name in ("sigmoid", "tanh", "relu", "logsigmoid"):
        a = ad.parameter(vec(6))
        op = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu,
              "logsigmoid": logsigmoid}[name]
        fn = lambda: total(op(a))
        params = [a]
    elif name == "softmax":
        a = ad.parameter(vec(5))
        w = ad.constant(r.normal(size=5))
        fn = lambda: dot(softmax(a), w)
        params = [a]
    elif name == "sqrt":
        a = ad.parameter(np.abs(vec(5)) + 0.5)
        fn = lambda: total(sqrt(a))
        params = [a]
    elif name == "transpose":
        a = ad.parameter(r.normal(size=(3, 4)))
        fn = lambda: total(mul(transpose(a), transpose(a)))
        params = [a]
    elif name == "add_bias":
        a = ad.parameter(r.normal(size=(4, 3)))
        b = ad.parameter(vec(3))
        fn = lambda: total(sigmoid(add_bias(a, b)))
        params = [a, b]
    elif name == "scale":
        a = ad.parameter(vec(5))
        fn = lambda: total(scale(a, 2.5))
        params = [a]
    elif name == "mean_of_run_means":
        a = ad.parameter(r.normal(size=(4, 3)))
        fn = lambda: total(tanh(ad.mean_of_run_means(
            a, ad.RunLayout([2, 0, 3, 2, 1], [2, 3], [1, 3], 5))))
        params = [a]
    elif name == "logistic_loss":
        a = ad.parameter(r.normal(size=(2, 3)) * 3)
        w_pos, w_neg = r.uniform(0, 2, (2, 3)), r.uniform(0, 2, (2, 3))
        fn = lambda: ad.logistic_loss(a, w_pos, w_neg, -0.4)
        params = [a]
    else:  # pragma: no cover
        raise AssertionError(name)

    assert gradcheck(fn, params) < 1e-6


def test_tape_topological_and_unique():
    a = ad.parameter(np.array([1.0, 2.0]))
    b = mul(a, a)
    c = ad.add(b, b)  # diamond: b used twice
    loss = total(c)
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
    loss = total(mul(a, a))
    loss.backward()
    first = a.grad.copy()
    loss.backward()
    assert np.array_equal(a.grad, first)


def test_backward_gradients_own_their_arrays():
    # add hands the same array to both parents; each must get its own copy
    a = ad.parameter(np.array([1.0, 2.0]))
    b = ad.parameter(np.array([3.0, 4.0]))
    total(mul(ad.add(a, b), ad.constant([5.0, 7.0]))).backward()
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.array_equal(b.grad, [5.0, 7.0])


def test_unreached_parameter_keeps_no_gradient():
    a = ad.parameter(np.array([1.0, 2.0]))
    spare = ad.parameter(np.array([3.0]))
    opt = ad.Adam({"a": a, "spare": spare})
    total(mul(a, a)).backward()
    assert spare.grad is None and np.array_equal(a.grad, [2.0, 4.0])
    opt.zero_grad()
    assert a.grad is None and spare.grad is None


def keep_every_gradient(root):
    """The sweep with no freeing: every node reached keeps its gradient,
    each a fresh array.  Returns the graph in topological order."""
    order = ad._toposort(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        for par, contribution in zip(node._parents, node._vjp(node.grad)):
            if not par.requires_grad or contribution is None:
                continue
            if par.grad is None:
                par.grad = np.array(contribution, dtype=np.float64)
            else:
                par.grad += contribution
    return order


def assert_backward_frees_consumed_gradients(root):
    """``backward`` on ``root``, twice: every intermediate node's ``.grad``
    ends ``None``, the root's is ones, and every leaf's is bitwise what
    :func:`keep_every_gradient` gives, in its store slice when it has one."""
    order = keep_every_gradient(root)
    inner = [n for n in order if n._vjp is not None and n is not root]
    assert inner and all(n.grad is not None for n in inner)
    want = {id(n): n.grad.copy() for n in order
            if n._vjp is None and n.grad is not None}
    assert want
    for _ in range(2):
        ad.backward(root)
        assert all(n.grad is None for n in inner)
        assert np.array_equal(root.grad, np.ones_like(root.data))
        for n in order:
            if n._vjp is not None:
                continue
            if id(n) not in want:
                assert n.grad is None
                continue
            assert n.grad.shape == want[id(n)].shape
            assert n.grad.tobytes() == want[id(n)].tobytes()
            if n._grad_slice is not None:
                assert n.grad is n._grad_slice


def test_backward_frees_every_consumed_gradient():
    # leaves of every kind: store slices, parameters outside a store and a
    # GRU input that takes a gradient; summary feeds concat twice
    r = rng(7)
    xs = ad.parameter(r.normal(size=(3, 5, 4)))
    gru = ad.init_bi_gru(r, 4, 3)
    att = ad.parameter(r.normal(size=6))
    w = ad.parameter(r.normal(size=(2, 12)))
    b = ad.parameter(r.normal(size=2))
    spare = ad.parameter(r.normal(size=2))
    ad.Adam({**gru.named("gru"), "att": att, "spare": spare})
    lengths = np.array([5, 2, 4])
    pooled = ad.attention_pool(ad.bi_gru(xs, gru, lengths), att, lengths)
    summary = ad.row(ad.mean_rows(pooled, [3]), 0)
    z = ad.add(ad.matmul(w, ad.concat([summary, summary])), b)
    loss = ad.logistic_loss(z, np.array([1.0, 0.0]), np.array([0.0, 0.5]), -0.5)
    assert_backward_frees_consumed_gradients(loss)
    assert spare.grad is None


def test_row_accumulates_repeated_indices():
    a = ad.parameter(rng(31).normal(size=(4, 3)))
    index = [2, 0, 2, 2, 3]
    probe = rng(32).normal(size=(len(index), 3))
    total(mul(ad.row(a, index), ad.constant(probe))).backward()
    expected = np.zeros((4, 3))
    for i, k in enumerate(index):
        expected[k] += probe[i]
    assert np.array_equal(a.grad, expected)
    assert gradcheck(lambda: total(sigmoid(ad.row(a, index))), [a]) < 1e-6


def finite_difference_grads(loss_fn, tensors, h=1e-5):
    """Central finite differences of ``loss_fn`` w.r.t. each tensor's data.

    ``loss_fn`` must rebuild the graph from the tensors' current data on
    every call.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Worst elementwise |a - n| / max(|a|, |n|, floor) over all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def gradcheck(loss_fn, tensors, h=1e-5, floor=1e-6):
    """Max relative error between analytic and finite-difference gradients."""
    loss = loss_fn()
    ad.backward(loss)
    # parameters not reached by the graph have zero gradient
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference_grads(loss_fn, tensors, h=h)
    return max_relative_error(analytic, numeric, floor=floor)


def gates(p):
    """The per-gate blocks (wz, wr, wh, uz, ur, uh, bz, br, bh) read out of
    a direction's fused arrays, as tape nodes."""
    h = p.hidden_dim
    return (*(columns(p.w, k, h) for k in range(3)),
            columns(p.u_zr, 0, h), columns(p.u_zr, 1, h), p.u_h,
            *(columns(p.b, k, h) for k in range(3)))


def gru_cell(x, h_prev, p):
    """One GRU step for a single input vector: the per-step oracle that each
    direction of the fused ``bi_gru`` op is checked against."""
    wz, wr, wh, uz, ur, uh, bz, br, bh = gates(p)
    z = sigmoid(ad.add(ad.add(ad.matmul(x, wz), ad.matmul(h_prev, uz)), bz))
    r = sigmoid(ad.add(ad.add(ad.matmul(x, wr), ad.matmul(h_prev, ur)), br))
    c = tanh(ad.add(ad.add(ad.matmul(x, wh),
                           ad.matmul(mul(r, h_prev), uh)), bh))
    # h' = (1 - z) * h + z * c, written as h + z * (c - h)
    return ad.add(h_prev, mul(z, sub(c, h_prev)))


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


def bi_gru_half(xs, p, lengths, reverse=False):
    """The (B, T, H) half of ``bi_gru``'s output that direction ``p``
    computes, as a tape node: ``p`` runs as the backward direction with
    ``reverse`` and as the forward one otherwise, beside a fresh draw."""
    other = ad.init_gru_direction(rng(99), p.w.data.shape[0], p.hidden_dim)
    pair = ad.BiGru(fw=other, bw=p) if reverse else ad.BiGru(fw=p, bw=other)
    return columns(ad.bi_gru(xs, pair, lengths), int(reverse), p.hidden_dim)


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


# a right-padded (B, T, H) batch, its p and its lengths, each case breaking one
ATTENTION_BATCH_CASES = {
    "lengths_of_wrong_shape": ((2, 3, 4), 4, [[1, 2]], ShapeMismatch),
    "one_length_too_many": ((2, 3, 4), 4, [1, 2, 3], ShapeMismatch),
    "p_of_wrong_width": ((2, 3, 4), 5, [1, 2], ShapeMismatch),
    "batch_not_3d": ((2, 3), 3, [1, 2], ShapeMismatch),
    "zero_length": ((2, 3, 4), 4, [0, 2], EmptySequence),
    "empty_batch": ((0, 3, 4), 4, [], EmptySequence),
    "length_beyond_t": ((2, 3, 4), 4, [4, 1], ShapeMismatch),
}


@pytest.mark.parametrize("case", ATTENTION_BATCH_CASES)
def test_attention_pass_checks_its_batch(case):
    shape, width, lengths, error = ATTENTION_BATCH_CASES[case]
    o, p = rng(3).normal(size=shape), rng(4).normal(size=width)
    with pytest.raises(error):
        ad.attention_pass(o, p, np.array(lengths, dtype=np.int64))
    with pytest.raises(error):
        ad.attention_pool(ad.constant(o), ad.parameter(p), lengths)


@pytest.mark.parametrize("case", ["lengths_of_wrong_shape", "one_length_too_many",
                                  "zero_length", "empty_batch", "length_beyond_t"])
def test_bi_gru_checks_its_batch(case):
    shape, _, lengths, error = ATTENTION_BATCH_CASES[case]
    p = ad.init_bi_gru(rng(0), shape[2], 3)
    with pytest.raises(error):
        ad.bi_gru(ad.constant(np.zeros(shape)), p, lengths)


def test_bi_gru_gradients_match_finite_differences():
    r = rng(7)
    p = ad.init_bi_gru(r, 3, 2)
    xs_data = r.normal(size=(1, 4, 3))
    params = list(p.named("gru").values())

    def fn():
        return total(ad.bi_gru(ad.constant(xs_data), p, [4]))

    assert gradcheck(fn, params) < 1e-4


def test_gru_cell_matches_sequence_path():
    # the batched sequence evaluation must agree with repeated gru_cell calls
    r = rng(11)
    p = ad.init_gru_direction(r, 3, 2)
    xs_data = r.normal(size=(5, 3))
    h = ad.constant(np.zeros(2))
    for t in range(5):
        h = gru_cell(ad.constant(xs_data[t]), h, p)
    outputs = bi_gru_half(ad.constant(xs_data[None]), p, [5])
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
    out = bi_gru_half(xs, p, RAGGED_LENGTHS, reverse).data
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

    fused = grads(total(mul(bi_gru_half(xs, p, RAGGED_LENGTHS, reverse),
                            ad.constant(probe))))
    oracle = grads(functools.reduce(ad.add, [
        total(mul(oracle_direction(xs, b, length, p, reverse),
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
        return total(mul(ad.bi_gru(xs, p, RAGGED_LENGTHS), probe))

    assert gradcheck(fn, list(p.named("gru").values()) + [xs]) < 1e-4


def test_bi_gru_is_one_tape_node_over_input_and_both_directions():
    p = ad.init_bi_gru(rng(40), 3, 2)
    xs = ad.constant(ragged_batch(41))
    out = ad.bi_gru(xs, p, RAGGED_LENGTHS)
    assert len(out._parents) == 9
    assert out._parents[0] is xs
    assert list(out._parents[1:]) == list(p.named("gru").values())


# (lengths, input dim, hidden): ragged batches with length-1 rows, B = 1,
# and the pinned corpus's tier shapes at hidden 50: its script tier
# (1, 6, 210), a scene tier (6, 4, 100) and a ragged statement tier
# (15, 11, 100)
BITWISE_CASES = [([3, 1, 5, 2, 4], 3, 4), ([1], 4, 3), ([6], 5, 2),
                 ([1, 1, 1], 2, 3), ([9, 1, 4, 9, 2, 7, 1], 6, 5),
                 ([2, 17, 1, 11], 20, 8), ([6], 210, 50), ([4] * 6, 100, 50),
                 ([11, 3, 7, 1, 9, 5, 11, 2, 6, 8, 4, 10, 3, 7, 5], 100, 50)]


@pytest.mark.parametrize("trainable_input", [False, True],
                         ids=["constant_input", "trainable_input"])
@pytest.mark.parametrize("lengths,dim,hidden", BITWISE_CASES)
def test_bi_gru_matches_two_direction_oracle_bitwise(lengths, dim, hidden,
                                                     trainable_input):
    lengths = np.array(lengths)
    data = rng(42).normal(size=(len(lengths), lengths.max(), dim))
    probe = ad.constant(rng(43).normal(size=(len(lengths), lengths.max(),
                                             2 * hidden)))
    results = []
    for op in (ad.bi_gru, gru_oracle.bi_gru):
        p = ad.init_bi_gru(rng(44), dim, hidden)
        for t in p.named("gru").values():  # nonzero biases too
            t.data += rng(45).normal(scale=0.3, size=t.data.shape)
        xs = (ad.parameter if trainable_input else ad.constant)(data.copy())
        out = op(xs, p, lengths)
        total(mul(out, probe)).backward()
        results.append((out.data, xs.grad,
                        [t.grad for t in p.named("gru").values()]))
    (out, d_x, grads), (want, want_d_x, want_grads) = results
    assert np.array_equal(out, want)
    if trainable_input:
        assert np.array_equal(d_x, want_d_x)
    else:
        assert d_x is None and want_d_x is None
    assert len(grads) == len(want_grads) == 8
    for got, expected in zip(grads, want_grads):
        assert np.array_equal(got, expected)


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
    total(mul(runs, ad.constant(probe))).backward()
    assert np.array_equal(a.grad, np.repeat(probe / lengths[:, None], lengths, axis=0))


def test_clip_grad_norm_boundary():
    a = ad.parameter(np.zeros(2))
    a.grad = np.array([3.0, 4.0])
    assert ad.clip_grad_norm(ad.Adam({"a": a}), 5.0) == 1.0
    assert np.array_equal(a.grad, [3.0, 4.0])


def test_clip_grad_norm_halving():
    a = ad.parameter(np.zeros(2))
    a.grad = np.array([6.0, 8.0])
    factor = ad.clip_grad_norm(ad.Adam({"a": a}), 5.0)
    assert abs(factor - 0.5) < 1e-15
    assert np.allclose(a.grad, [3.0, 4.0])


def test_clip_grad_norm_zero_grads():
    a = ad.parameter(np.zeros(3))
    a.grad = np.zeros(3)
    assert ad.clip_grad_norm(ad.Adam({"a": a}), 5.0) == 1.0


@pytest.mark.parametrize("bad,norm", [(np.nan, "nan"), (np.inf, "inf")])
def test_clip_grad_norm_refuses_non_finite_norm(bad, norm):
    a, b = ad.parameter(np.zeros(2)), ad.parameter(np.zeros(1))
    a.grad, b.grad = np.array([30.0, 40.0]), np.array([bad])
    with pytest.raises(NonFiniteLoss, match=f"^gradient norm={norm}$"):
        ad.clip_grad_norm(ad.Adam({"a": a, "b": b}), 5.0)
    assert np.array_equal(a.grad, [30.0, 40.0])


def test_clip_grad_norm_takes_a_finite_gradient_whose_square_overflows():
    a = ad.parameter(np.zeros(1))
    a.grad = np.array([1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = ad.clip_grad_norm(ad.Adam({"a": a}), 5.0)
    assert factor == 5.0 / 1e200
    assert np.array_equal(a.grad, [1e200 * factor])


def test_clip_grad_norm_spreads_an_overflowed_norm_over_every_gradient():
    a, b = ad.parameter(np.zeros(2)), ad.parameter(np.zeros(1))
    a.grad, b.grad = np.array([3e200, -4e200]), np.array([0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = ad.clip_grad_norm(ad.Adam({"a": a, "b": b}), 5.0)
    assert factor == pytest.approx(1e-200, rel=1e-15)
    assert np.allclose(a.grad, [3.0, -4.0], rtol=1e-15)
    assert np.array_equal(b.grad, [0.0])


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


def test_adam_matches_textbook_update_bitwise():
    shapes = [(4, 3), (5,), (2, 3, 4), (), (1,), (6, 2)]
    params = {f"p{i}": ad.parameter(rng(50 + i).normal(size=shape))
              for i, shape in enumerate(shapes)}
    opt = ad.Adam(params, lr=5e-3)
    values = {k: t.data.copy() for k, t in params.items()}
    m = {k: np.zeros_like(v) for k, v in values.items()}
    v = {k: np.zeros_like(x) for k, x in values.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 5e-3
    for step in range(1, 21):
        grads = {k: rng(100 * step + i).normal(size=shape)
                 for i, (k, shape) in enumerate(zip(params, shapes))}
        if step % 3 == 0:  # a step no contribution reached this parameter
            grads["p1"] = None
        for k, t in params.items():
            t.grad = None if grads[k] is None else grads[k].copy()
        opt.step()
        for k in values:
            g = grads[k] if grads[k] is not None else np.zeros_like(values[k])
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            m_hat = m[k] / (1.0 - b1 ** step)
            v_hat = v[k] / (1.0 - b2 ** step)
            values[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(params[k].data, values[k])
            assert np.array_equal(opt.m[k], m[k])
            assert np.array_equal(opt.v[k], v[k])


def test_attention_pool_gives_constant_outputs_no_gradient():
    r = rng(61)
    lengths = np.array([3, 1, 2])
    live = (np.arange(3) < lengths[:, None])[..., None]
    rows = r.uniform(0.5, 1.5, size=(3, 3, 4)) * live
    p_data = r.uniform(0.5, 1.5, size=4)
    probe = ad.constant(r.normal(size=(3, 4)))
    d_p = {}
    for takes_grad in (True, False):
        outputs = ad.Tensor(rows, requires_grad=takes_grad)
        p = ad.parameter(p_data)
        pooled = ad.attention_pool(outputs, p, lengths)
        ad.backward(total(mul(pooled, probe)))
        d_p[takes_grad] = p.grad
        assert (outputs.grad is not None) == takes_grad
    assert np.array_equal(d_p[False], d_p[True])
