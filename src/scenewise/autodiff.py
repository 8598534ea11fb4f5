"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built eagerly: every operation returns a :class:`Tensor` holding
its forward value and, when any input participates in differentiation, a
closure mapping the output gradient to per-parent contributions.
``backward`` zeroes the gradient of every reachable node before
accumulating, so repeated backward passes never double-count.

The GRU implemented here is the gated unit with update gate ``z``, reset
gate ``r`` and candidate state, which is normative for this package::

    z = sigmoid(x Wz + h Uz + bz)
    r = sigmoid(x Wr + h Ur + br)
    c = tanh(x Wh + (r * h) Uh + bh)
    h' = (1 - z) * h + z * c

Input weights ``W`` are stored (input_dim, hidden) and recurrent weights
``U`` (hidden, hidden).  ``gru_direction`` runs one direction over a batch
of sequences as a single tape node.  The batch is right-padded to
``(B, T, D)`` and ``lengths[b]`` says how many leading steps of row ``b``
are real; every row starts from a zero state, the forward direction reads
steps ``0 .. L-1`` and the reverse direction ``L-1 .. 0``.  The gates are
fused: one ``x [Wz|Wr|Wh]`` product for all steps and one ``h [Uz|Ur]``
product per step, with the concatenated weights built from the nine stored
parameters at call time.  A padded step leaves the state unchanged, its
output is exactly zero, and its input receives exactly zero gradient.  The
VJP is hand-written backpropagation through time over the saved gate
activations; it returns the input's gradient and each parameter's.
``bi_gru`` concatenates the two directions.  ``attention_pool`` pools such
a batch with one attention vector, masking the padded steps, also as a
single node.  ``margin_hinge`` sums the max-margin hinge of every row of a
matrix against its negatives as one node, with a hand-written VJP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateNormalizer, EmptySequence, ShapeMismatch

Vjp = Callable[[np.ndarray], tuple]


class Tensor:
    """A dense float64 array plus its place on the differentiation tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Vjp | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item: expected a scalar, got {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data) -> Tensor:
    """Wrap ``data`` as a trainable leaf."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _op(data: np.ndarray, parents: Sequence[Tensor], vjp: Vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch(f"{op}: {a.data.shape} vs {b.data.shape}")


def batch_of_one(a: Tensor, lengths) -> tuple[np.ndarray, bool]:
    """``lengths`` as an array, and whether ``a`` is one (T, ...) sequence
    given without lengths, which is taken as a batch of one, ``[T]``; the
    caller then drops the batch axis from its results."""
    if lengths is None:
        return np.array([a.data.shape[0]]), True
    return np.asarray(lengths), False


def _step_mask(shape: tuple[int, ...], lengths: np.ndarray) -> np.ndarray:
    """(B, T, 1) mask, 1.0 on the real steps of a right-padded (B, T, ...)
    batch of ``shape`` whose row ``b`` holds ``lengths[b]`` steps."""
    if len(shape) != 3 or lengths.shape != shape[:1]:
        raise ShapeMismatch(f"batch {shape} vs lengths {lengths.shape}")
    if shape[0] == 0 or lengths.min() < 1:
        raise EmptySequence(f"batch {shape} holds an empty sequence: {lengths}")
    if lengths.max() > shape[1]:
        raise ShapeMismatch(f"lengths {lengths} exceed the batch's {shape[1]} steps")
    return (np.arange(shape[1]) < lengths[:, None])[:, :, None].astype(np.float64)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for par in node._parents:
            if par.requires_grad:
                stack.append((par, False))
    return order  # parents precede children


def backward(root: Tensor) -> None:
    """Populate ``.grad`` on every participating node reachable from ``root``.

    All reachable gradients are zeroed first, so calling backward twice on
    the same graph yields the same gradients as calling it once.
    """
    if not root.requires_grad:
        raise ValueError("backward() on a tensor with no graph attached")
    order = _toposort(root)
    for node in order:
        node.grad = np.zeros_like(node.data)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        vjp = node._vjp
        if vjp is None:
            continue
        for par, contribution in zip(node._parents, vjp(node.grad)):
            if par.requires_grad and contribution is not None:
                par.grad += contribution


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _op(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _op(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _op(a.data * c, (a,), lambda g: (g * c,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def add_bias(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ShapeMismatch(f"add_bias: {m.data.shape} vs {v.data.shape}")
    return _op(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim == 2 and B.ndim == 2:
        if A.shape[1] != B.shape[0]:
            raise ShapeMismatch(f"matmul: {A.shape} vs {B.shape}")
        return _op(A @ B, (a, b), lambda g: (g @ B.T, A.T @ g))
    if A.ndim == 2 and B.ndim == 1:
        if A.shape[1] != B.shape[0]:
            raise ShapeMismatch(f"matmul: {A.shape} vs {B.shape}")
        return _op(A @ B, (a, b), lambda g: (np.outer(g, B), A.T @ g))
    if A.ndim == 1 and B.ndim == 2:
        if A.shape[0] != B.shape[0]:
            raise ShapeMismatch(f"matmul: {A.shape} vs {B.shape}")
        return _op(A @ B, (a, b), lambda g: (B @ g, np.outer(A, g)))
    raise ShapeMismatch(f"matmul: unsupported ranks {A.shape} vs {B.shape}")


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate tensors along their last axis; the leading axes must match."""
    if not tensors:
        raise EmptySequence("concat of zero tensors")
    lead = tensors[0].data.shape[:-1]
    for t in tensors:
        if t.data.ndim == 0 or t.data.shape[:-1] != lead:
            raise ShapeMismatch(f"concat: {t.data.shape} vs {lead} leading axes")
    sizes = [t.data.shape[-1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: np.ndarray) -> tuple:
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _op(np.concatenate([t.data for t in tensors], axis=-1), tuple(tensors),
               vjp)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix of rows."""
    if not tensors:
        raise EmptySequence("stack of zero tensors")
    width = tensors[0].data.shape
    for t in tensors:
        if t.data.ndim != 1 or t.data.shape != width:
            raise ShapeMismatch(f"stack: {t.data.shape} vs {width}")

    def vjp(g: np.ndarray) -> tuple:
        return tuple(g[i] for i in range(len(tensors)))

    return _op(np.stack([t.data for t in tensors]), tuple(tensors), vjp)


def row(a: Tensor, index) -> Tensor:
    """``a.data[index]`` for an integer index, or a tuple of integer arrays,
    that addresses distinct rows of a matrix or batch."""
    if a.data.ndim < 2:
        raise ShapeMismatch(f"row: expected matrix or batch, got {a.data.shape}")

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _op(a.data[index].copy(), (a,), vjp)


def place(a: Tensor, index, shape: tuple[int, ...]) -> Tensor:
    """A zero tensor of ``shape`` with ``a`` written at ``index``, which
    addresses distinct positions; the transpose of :func:`row`."""
    out = np.zeros(shape)
    out[index] = a.data
    return _op(out, (a,), lambda g: (g[index],))


def mean_rows(a: Tensor, lengths=None) -> Tensor:
    """Mean of each run of ``lengths[b]`` consecutive rows, (N, D) -> (B, D);
    without ``lengths`` the column-wise mean of a matrix, (T, D) -> (D,)."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"mean_rows: expected matrix, got {a.data.shape}")
    lengths, single = batch_of_one(a, lengths)
    if lengths.ndim != 1 or lengths.sum() != a.data.shape[0]:
        raise ShapeMismatch(f"mean_rows: runs {lengths} vs {a.data.shape}")
    if lengths.size == 0 or lengths.min() < 1:
        raise EmptySequence(f"mean_rows: an empty run in {lengths}")
    counts = lengths[:, None].astype(np.float64)
    means = np.add.reduceat(a.data, np.cumsum(lengths) - lengths, axis=0) / counts

    def vjp(g: np.ndarray) -> tuple:
        return (np.repeat(g.reshape(means.shape) / counts, lengths, axis=0),)

    return _op(means[0] if single else means, (a,), vjp)


def total(a: Tensor) -> Tensor:
    def vjp(g: np.ndarray) -> tuple:
        return (np.full_like(a.data, float(g)),)

    return _op(np.asarray(a.data.sum()), (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    mask = (a.data > 0).astype(np.float64)
    return _op(y, (a,), lambda g: (g * mask,))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis: each vector along it becomes a
    probability simplex, so a (S, k) matrix gives S simplex rows."""
    if a.data.ndim == 0:
        raise ShapeMismatch("softmax: expected at least one axis, got a scalar")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    return _op(y, (a,),
               lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def logsigmoid(a: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x)) = -softplus(-x)."""
    x = a.data
    y = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                 x - np.log1p(np.exp(-np.abs(x))))

    def vjp(g: np.ndarray) -> tuple:
        sneg = np.where(x >= 0, np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
                        1.0 / (1.0 + np.exp(-np.abs(x))))
        return (g * sneg,)

    return _op(y, (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    return _op(y, (a,), lambda g: (g * 0.5 / y,))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose: expected matrix, got {a.data.shape}")
    return _op(a.data.T.copy(), (a,), lambda g: (g.T,))


# ---------------------------------------------------------------------------
# parameter initialization


def glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot/Xavier uniform init with fan sizes taken from ``shape``."""
    fan_in = shape[0]
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------------------
# GRU


@dataclass
class GruDirection:
    """Single-direction GRU parameters; see the module docstring for the gating."""

    wz: Tensor
    wr: Tensor
    wh: Tensor
    uz: Tensor
    ur: Tensor
    uh: Tensor
    bz: Tensor
    br: Tensor
    bh: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.wz.data.shape[1]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": getattr(self, k)
                for k in ("wz", "wr", "wh", "uz", "ur", "uh", "bz", "br", "bh")}


def init_gru_direction(rng: np.random.Generator, input_dim: int, hidden: int) -> GruDirection:
    def w() -> Tensor:
        return parameter(glorot(rng, (input_dim, hidden)))

    def u() -> Tensor:
        return parameter(glorot(rng, (hidden, hidden)))

    def b() -> Tensor:
        return parameter(np.zeros(hidden))

    return GruDirection(wz=w(), wr=w(), wh=w(), uz=u(), ur=u(), uh=u(),
                        bz=b(), br=b(), bh=b())


@dataclass
class BiGru:
    fw: GruDirection
    bw: GruDirection

    @property
    def output_dim(self) -> int:
        return self.fw.hidden_dim + self.bw.hidden_dim

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = self.fw.named(f"{prefix}.fw")
        out.update(self.bw.named(f"{prefix}.bw"))
        return out


def init_bi_gru(rng: np.random.Generator, input_dim: int, hidden_per_direction: int) -> BiGru:
    return BiGru(fw=init_gru_direction(rng, input_dim, hidden_per_direction),
                 bw=init_gru_direction(rng, input_dim, hidden_per_direction))


def gru_direction(xs: Tensor, p: GruDirection, lengths, reverse: bool = False
                  ) -> Tensor:
    """One GRU direction over a right-padded (B, T, D) batch, as one tape node.

    Returns the (B, T, H) hidden states, exactly zero at padded steps; see
    the module docstring for the masking and the backward pass.
    """
    mask = _step_mask(xs.data.shape, np.asarray(lengths))
    x = xs.data
    n, t_max, d = x.shape
    h_dim = p.hidden_dim
    params = (p.wz, p.wr, p.wh, p.uz, p.ur, p.uh, p.bz, p.br, p.bh)
    if d != p.wz.data.shape[0]:
        raise ShapeMismatch(f"gru_direction: input {x.shape} vs Wz {p.wz.data.shape}")
    gates_x = (x.reshape(-1, d)
               @ np.concatenate([p.wz.data, p.wr.data, p.wh.data], axis=1)
               + np.concatenate([p.bz.data, p.br.data, p.bh.data])
               ).reshape(n, t_max, 3 * h_dim)
    u_zr = np.concatenate([p.uz.data, p.ur.data], axis=1)
    uh = p.uh.data
    # per step: the state read (h_prev), the gates and the candidate
    h_prev = np.empty((n, t_max, h_dim))
    zr = np.empty((n, t_max, 2 * h_dim))
    cand = np.empty((n, t_max, h_dim))
    out = np.empty((n, t_max, h_dim))
    steps = range(t_max - 1, -1, -1) if reverse else range(t_max)
    h = np.zeros((n, h_dim))
    for t in steps:
        h_prev[:, t] = h
        zr[:, t] = gate = _sigmoid(gates_x[:, t, :2 * h_dim] + h @ u_zr)
        z, r = gate[:, :h_dim], gate[:, h_dim:]
        cand[:, t] = c = np.tanh(gates_x[:, t, 2 * h_dim:] + (r * h) @ uh)
        h = h + mask[:, t] * (z * (c - h))
        out[:, t] = h
    out *= mask

    def vjp(g: np.ndarray) -> tuple:
        z, r = zr[..., :h_dim], zr[..., h_dim:]
        d_gates = np.empty((n, t_max, 3 * h_dim))  # pre-activation grads
        # rebuilt rather than kept from the forward pass, so that a node
        # waiting for backward holds no copy of the weights
        u_zr = np.concatenate([p.uz.data, p.ur.data], axis=1)
        uh = p.uh.data
        dh = np.zeros((n, h_dim))
        for t in reversed(steps):
            m = mask[:, t]
            dh = dh + m * g[:, t]
            hp, zt, rt, ct = h_prev[:, t], z[:, t], r[:, t], cand[:, t]
            live = m * dh
            d_c = live * zt * (1.0 - ct * ct)
            d_rh = d_c @ uh.T
            d_zr = d_gates[:, t, :2 * h_dim]
            d_zr[:, :h_dim] = live * (ct - hp) * zt * (1.0 - zt)
            d_zr[:, h_dim:] = d_rh * hp * rt * (1.0 - rt)
            d_gates[:, t, 2 * h_dim:] = d_c
            dh = dh * (1.0 - m * zt) + d_rh * rt + d_zr @ u_zr.T
        flat = d_gates.reshape(-1, 3 * h_dim)
        d_w = x.reshape(-1, d).T @ flat
        d_u_zr = h_prev.reshape(-1, h_dim).T @ d_gates[..., :2 * h_dim].reshape(
            -1, 2 * h_dim)
        d_uh = (r * h_prev).reshape(-1, h_dim).T @ flat[:, 2 * h_dim:]
        d_b = flat.sum(axis=0)
        d_x = None
        if xs.requires_grad:
            w = np.concatenate([p.wz.data, p.wr.data, p.wh.data], axis=1)
            d_x = (flat @ w.T).reshape(x.shape)
        thirds = [slice(0, h_dim), slice(h_dim, 2 * h_dim),
                  slice(2 * h_dim, 3 * h_dim)]
        return (d_x, *(d_w[:, k] for k in thirds), d_u_zr[:, thirds[0]],
                d_u_zr[:, thirds[1]], d_uh, *(d_b[k] for k in thirds))

    return _op(out, (xs, *params), vjp)


def bi_gru(xs: Tensor, p: BiGru, lengths) -> Tensor:
    """Both directions over a right-padded (B, T, D) batch.

    Returns the (B, T, 2H) per-step outputs ``c_1 .. c_L`` of each sequence,
    each the concatenation of the forward and backward hidden states at
    that step, and zero at padded steps.
    """
    return concat([gru_direction(xs, p.fw, lengths),
                   gru_direction(xs, p.bw, lengths, reverse=True)])


# the smallest |sum| that linear attention divides by
_MIN_NORMALIZER = 1e-9


def attention_pool(outputs: Tensor, p: Tensor, lengths=None, linear: bool = False
                   ) -> tuple[Tensor, Tensor]:
    """Attention-weighted sum of each sequence's outputs, as one tape node.

    ``outputs`` is a right-padded (B, T, H) batch with ``lengths``, or one
    (T, H) sequence.  Scores are ``outputs @ p``; the weights are their
    softmax over each sequence's real steps or, with ``linear``, each score
    over the sum of its sequence's scores, which raises
    :class:`DegenerateNormalizer` for a sequence whose sum is below
    ``_MIN_NORMALIZER`` in magnitude.  Padded steps get weight zero.
    Returns the pooled (B, H) or (H,) tensor and the weights, (B, T) or
    (T,), as a constant: gradients flow through the pooled output only.
    """
    lengths, single = batch_of_one(outputs, lengths)
    o = outputs.data[None] if single else outputs.data
    if o.ndim != 3 or p.data.shape != o.shape[2:]:
        raise ShapeMismatch(f"attention_pool: {outputs.data.shape} vs {p.data.shape}")
    valid = _step_mask(o.shape, lengths)[..., 0] > 0
    scores = o @ p.data
    if linear:
        scores = np.where(valid, scores, 0.0)
        sums = scores.sum(axis=1, keepdims=True)
        low = np.abs(sums[:, 0]) < _MIN_NORMALIZER
        if low.any():
            raise DegenerateNormalizer(
                f"normalizer sum {float(sums[low][0, 0])!r} of sequence "
                f"{int(np.argmax(low))} below {_MIN_NORMALIZER}")
        weights = scores / sums
    else:
        shifted = np.exp(np.where(valid, scores, -np.inf)
                         - scores.max(axis=1, keepdims=True, where=valid,
                                      initial=-np.inf))
        weights = shifted / shifted.sum(axis=1, keepdims=True)
    pooled = (weights[:, None, :] @ o)[:, 0]

    def vjp(g: np.ndarray) -> tuple:
        g = g.reshape(pooled.shape)
        d_w = (o @ g[:, :, None])[:, :, 0]
        centred = d_w - (weights * d_w).sum(axis=1, keepdims=True)
        d_s = np.where(valid, centred / sums, 0.0) if linear else weights * centred
        d_o = weights[:, :, None] * g[:, None, :] + d_s[:, :, None] * p.data
        d_p = d_s.reshape(-1) @ o.reshape(-1, o.shape[2])
        return (d_o.reshape(outputs.data.shape), d_p)

    if single:
        return _op(pooled[0], (outputs, p), vjp), constant(weights[0])
    return _op(pooled, (outputs, p), vjp), constant(weights)


def margin_hinge(w: Tensor, targets: np.ndarray, neg: np.ndarray) -> Tensor:
    """sum_t sum_j max(0, 1 - w_t.u_t + w_t.u_neg[t, j]), as one tape node.

    ``w`` and the constant ``targets`` are (S, d), row ``t`` of each
    belonging to item ``t``; ``neg`` is an (S, J) array of indices into
    ``targets``, distinct within a row.  The gradient flows to ``w`` only;
    a margin of exactly zero takes none, as with :func:`relu`.
    """
    u = np.asarray(targets, dtype=np.float64)
    neg = np.asarray(neg)
    if w.data.ndim != 2 or u.shape != w.data.shape or neg.ndim != 2 \
            or neg.shape[0] != u.shape[0]:
        raise ShapeMismatch(f"margin_hinge: w {w.data.shape}, targets {u.shape}, "
                            f"negatives {neg.shape}")
    scores = w.data @ u.T  # scores[t, s] = w_t . u_s
    margins = (1.0 - np.diagonal(scores)[:, None]
               + np.take_along_axis(scores, neg, axis=1))
    active = (margins > 0).astype(np.float64)

    def vjp(g: np.ndarray) -> tuple:
        # d/dw_t = g * sum over active j of (u_neg[t, j] - u_t)
        hits = np.zeros_like(scores)
        np.put_along_axis(hits, neg, active, axis=1)
        return (float(g) * (hits @ u - active.sum(axis=1)[:, None] * u),)

    return _op(np.asarray(np.maximum(margins, 0.0).sum()), (w,), vjp)


# ---------------------------------------------------------------------------
# optimization


def clip_grad_norm(params: Iterable[Tensor], max_norm: float = 5.0) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the scaling factor applied (1.0 when no clipping was needed).
    """
    tensors = [p for p in params if p.grad is not None]
    sq = sum(float(np.sum(p.grad * p.grad)) for p in tensors)
    norm = math.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return 1.0
    factor = max_norm / norm
    for p in tensors:
        p.grad *= factor
    return factor


class Adam:
    """Adam with bias correction over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(sorted(params.items()))
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[name] / (1.0 - self.beta1 ** t)
            v_hat = self.v[name] / (1.0 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_grads(loss_fn: Callable[[], Tensor], tensors: Sequence[Tensor],
                            h: float = 1e-5) -> list[np.ndarray]:
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


def max_relative_error(analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray],
                       floor: float = 1e-6) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor) over all arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def gradcheck(loss_fn: Callable[[], Tensor], tensors: Sequence[Tensor],
              h: float = 1e-5, floor: float = 1e-6) -> float:
    """Max relative error between analytic and finite-difference gradients."""
    loss = loss_fn()
    backward(loss)
    # parameters not reached by the graph have zero gradient
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference_grads(loss_fn, tensors, h=h)
    return max_relative_error(analytic, numeric, floor=floor)
