"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built eagerly: every operation returns a :class:`Tensor` holding
its forward value and, when any input participates in differentiation, a
closure mapping the output gradient to per-parent contributions.
``backward`` assigns each reachable node's first gradient contribution and
adds later ones, so repeated backward passes never double-count; a
parameter that an ``Adam`` store holds gets it in its slice of the store's
gradient buffer.  Backward frees what it has consumed: an intermediate
node's gradient is dropped as soon as its VJP has read it, so after a pass
only the root and the leaves hold one, and a graph lives only as long as
its root is referenced (the trainers' loop drops each step's loss right
after ``backward``).  The module holds only the ops the models run: a few
fused nodes and the structural ops around them (``add``, ``matmul``,
``concat``, ``row``, ``place``, ``mean_rows``).  The elementwise and
reduction ops that only the tests' oracles and gradchecks compose live in
``tests/tape_ops.py``.

The GRU implemented here is the gated unit with update gate ``z``, reset
gate ``r`` and candidate state, which is normative for this package::

    z = sigmoid(x Wz + h Uz + bz)
    r = sigmoid(x Wr + h Ur + br)
    c = tanh(x Wh + (r * h) Uh + bh)
    h' = (1 - z) * h + z * c

A direction stores its gates fused, in the layout the op reads: the input
weights ``[Wz|Wr|Wh]`` as one (input_dim, 3 hidden) array, the recurrent
``[Uz|Ur]`` as one (hidden, 2 hidden) array beside ``Uh`` (hidden, hidden),
and the biases ``[bz|br|bh]`` as one vector.  ``bi_gru`` runs both
directions over a batch of sequences as a single tape node.  The batch is
right-padded to ``(B, T, D)`` and ``lengths[b]`` says how many leading
steps of row ``b`` are real; every row starts from a zero state, the
forward direction reads steps ``0 .. L-1`` and the reverse direction
``L-1 .. 0``.  It makes one ``x [Wz|Wr|Wh]`` product per direction for all
steps and adds the biases into one time-major buffer that holds the two
directions side by side, the reverse one's time axis flipped.  It steps
both in one loop with one stacked ``h [Uz|Ur]`` product per step; a step
allocates nothing, and writes its gates, its candidate and its new state
straight into the arrays the VJP reads, through one set of scratch buffers
per call, in the order of operations of the formulas above.  The gate
sigmoid, ``_sigmoid``, takes no per-entry branch.  A padded step leaves the
state unchanged, its output is exactly zero, and its input receives exactly
zero gradient.  The VJP is hand-written backpropagation through time over
the saved gate activations, again both directions per step; the weight
gradients sum each direction's steps in its batch order, so they are the
sums one direction at a time would give.  It drops its time-major copy of
the upstream gradient once the sweep ends, and each direction's batch-order
copies before it makes the next direction's.  It returns the input's
gradient and each stored array's.  ``attention_pool`` pools such a batch
with one attention vector, weighting each sequence's real steps by the
softmax of their scores and the padded steps by zero, also as a single
node (its forward, ``attention_pass``, is what the frozen descriptor
target calls on plain arrays), and ``mean_rows`` averages runs of consecutive rows.  Every sequence op takes
its batch's ``lengths`` and returns one tensor with a batch axis; a
single sequence is a batch of one.  ``mixture_hinge_loss`` is one
script's whole descriptor loss as one node: the predictor
(``predictor_pass``, which inference calls on plain arrays), the
reconstructions, their max-margin hinge against the negatives and the
orthogonality penalty.  So are ``logistic_loss``, the weighted
log-sigmoid sum of the reweighted tag loss, and ``mean_of_run_means``,
the BoE character block's mean over scenes of per-scene mean rows, which
reads its gather and its runs from a ``RunLayout`` built once.  Each
has a hand-written VJP and keeps the order of operations of the
primitive ops it replaces, so its value and gradient are theirs to the
bit.

``Adam`` keeps a trainer's parameters in one flat store: four aligned
float64 buffers (values, gradients, first and second moments) with each
array's slice on its own 64-byte line, in the order the trainer lists its
parameters, and each ``Tensor.data`` a view of its slice.  Its update runs
the textbook formula's operations once per block of the buffers rather
than once per array, and ``clip_grad_norm`` squares the flat gradient
once, sums each array's slice and scales the buffer with one multiply.
Elementwise arithmetic does not depend on the layout and each slice sums
as its array did, so parameters and norms are the per-array optimizer's
to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import Callable, Sequence

import numpy as np

from .errors import EmptySequence, NonFiniteLoss, ShapeMismatch

Vjp = Callable[[np.ndarray], tuple]


class Tensor:
    """A dense float64 array plus its place on the differentiation tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp",
                 "_grad_slice")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Vjp | None = None
        # the gradient slice of the Adam store that holds this parameter
        self._grad_slice: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item: expected a scalar, got {self.data.shape}")
        return float(self.data.reshape(()))

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


def _live(shape: tuple[int, ...], lengths: np.ndarray) -> np.ndarray:
    """(B, T) boolean mask, True on the real steps of a right-padded
    (B, T, ...) batch of ``shape`` whose row ``b`` holds ``lengths[b]``
    steps."""
    if len(shape) != 3 or lengths.shape != shape[:1]:
        raise ShapeMismatch(f"batch {shape} vs lengths {lengths.shape}")
    if shape[0] == 0 or lengths.min() < 1:
        raise EmptySequence(f"batch {shape} holds an empty sequence: {lengths}")
    if lengths.max() > shape[1]:
        raise ShapeMismatch(f"lengths {lengths} exceed the batch's {shape[1]} steps")
    return np.arange(shape[1]) < lengths[:, None]


def _step_mask(shape: tuple[int, ...], lengths: np.ndarray) -> np.ndarray:
    """:func:`_live` as a (B, T, 1) mask, 1.0 on the real steps."""
    return _live(shape, lengths)[:, :, None].astype(np.float64)


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
    """Populate ``.grad`` on every participating leaf reachable from ``root``.

    A node's gradient starts as a copy of its first contribution (which
    may be a view of another gradient) and later ones are added to it.
    The sweep takes each intermediate node's gradient, sets its ``.grad``
    to ``None`` and only then runs its VJP, so a gradient is freed as soon
    as it has been used.  After a pass, ``.grad`` holds a gradient on the
    leaves alone (parameters, store slices and inputs that require one)
    and on ``root``, whose gradient is ones; every other node's is
    ``None``.  The VJP closures stay, so calling backward twice on the
    same graph yields the same gradients as calling it once.  A leaf no
    contribution reaches keeps ``None``.  A parameter that an
    :class:`Adam` store holds keeps that store's gradient slice: its first
    contribution is copied into the slice and ``.grad`` is the slice
    itself, so each backward pass overwrites the last one's gradient there
    instead of allocating a new array.
    """
    if not root.requires_grad:
        raise ValueError("backward() on a tensor with no graph attached")
    order = _toposort(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        vjp, grad = node._vjp, node.grad
        if vjp is None or grad is None:
            continue
        if node is not root:
            node.grad = None
        for par, contribution in zip(node._parents, vjp(grad)):
            if not par.requires_grad or contribution is None:
                continue
            if par.grad is None:
                if par._grad_slice is None:
                    par.grad = np.array(contribution, dtype=np.float64)
                else:
                    np.copyto(par._grad_slice, contribution)
                    par.grad = par._grad_slice
            else:
                par.grad += contribution


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _op(a.data + b.data, (a, b), lambda g: (g, g))


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
    offsets = list(accumulate((t.data.shape[-1] for t in tensors), initial=0))

    def vjp(g: np.ndarray) -> tuple:
        return tuple(g[..., start:end] for start, end in pairwise(offsets))

    return _op(np.concatenate([t.data for t in tensors], axis=-1), tuple(tensors),
               vjp)


def row(a: Tensor, index) -> Tensor:
    """``a.data[index]`` for an integer index, an integer array, or a tuple
    of them, that addresses rows of a matrix or batch; a row addressed more
    than once gets the sum of its copies' gradients."""
    if a.data.ndim < 2:
        raise ShapeMismatch(f"row: expected matrix or batch, got {a.data.shape}")

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        return (full,)

    return _op(a.data[index].copy(), (a,), vjp)


def place(a: Tensor, index, shape: tuple[int, ...]) -> Tensor:
    """A zero tensor of ``shape`` with ``a`` written at ``index``, which
    addresses distinct positions; the transpose of :func:`row`."""
    out = np.zeros(shape)
    out[index] = a.data
    return _op(out, (a,), lambda g: (g[index],))


def mean_rows(a: Tensor, lengths) -> Tensor:
    """Mean of each run of ``lengths[b]`` consecutive rows, (N, D) -> (B, D)."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"mean_rows: expected matrix, got {a.data.shape}")
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or lengths.sum() != a.data.shape[0]:
        raise ShapeMismatch(f"mean_rows: runs {lengths} vs {a.data.shape}")
    if lengths.size == 0 or lengths.min() < 1:
        raise EmptySequence(f"mean_rows: an empty run in {lengths}")
    counts = lengths[:, None].astype(np.float64)
    means = np.add.reduceat(a.data, np.cumsum(lengths) - lengths, axis=0) / counts

    def vjp(g: np.ndarray) -> tuple:
        return (np.repeat(g / counts, lengths, axis=0),)

    return _op(means, (a,), vjp)


class RunLayout:
    """Where :func:`mean_of_run_means` reads and writes, as arrays built
    once: run ``j`` is ``runs[j]`` consecutive rows of the gathered rows
    ``a.data[index]``, from row ``starts[j]``, and its mean lands on row
    ``at[j]`` of an (n, D) matrix; ``counts`` is ``runs`` as a float
    column.  It holds no parameter, so a layout serves every call."""

    __slots__ = ("index", "runs", "starts", "counts", "at", "n")

    def __init__(self, index, runs, at, n: int):
        self.index = np.asarray(index)
        self.runs = np.asarray(runs)
        self.starts = np.cumsum(self.runs) - self.runs
        self.counts = self.runs[:, None].astype(np.float64)
        self.at = np.asarray(at)
        self.n = n


# np.add.reduceat's indices for one run over all the rows
_ALL_ROWS = np.zeros(1, dtype=np.intp)


def mean_of_run_means(a: Tensor, layout: RunLayout) -> Tensor:
    """(D,): the mean row of the (n, D) matrix of ``layout``, whose row
    ``at[j]`` is the mean of run ``j`` of the gathered rows
    ``a.data[index]`` and whose other rows are zero; one tape node.

    It is ``row``, ``mean_rows``, ``place``, ``mean_rows`` over all ``n``
    rows and ``row`` in one, in their order of operations, so the value
    and the gradient are that composition's to the bit.
    """
    if a.data.ndim != 2:
        raise ShapeMismatch(f"mean_of_run_means: expected matrix, got {a.data.shape}")
    index, counts, n = layout.index, layout.counts, float(layout.n)
    scenes = np.zeros((layout.n, a.data.shape[1]))
    scenes[layout.at] = np.add.reduceat(a.data[index], layout.starts,
                                        axis=0) / counts
    mean = np.add.reduceat(scenes, _ALL_ROWS, axis=0)[0] / n

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros_like(a.data)
        np.add.at(full, index, np.repeat(g / n / counts, layout.runs, axis=0))
        return (full,)

    return _op(mean, (a,), vjp)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """The logistic sigmoid ``exp(min(x, 0)) / (1 + exp(-|x|))``, written
    into ``out`` (which may be ``x``) with ``tmp`` as scratch when given.

    Neither exponent is ever positive, so nothing overflows.  It is the
    two-branch form ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)``
    below, ``e = exp(-|x|)``, to the bit, without that form's per-entry
    ``np.where``: below zero ``min(x, 0)`` and ``-|x|`` are both ``x``
    exactly, and from zero up (-0.0 included) the numerator is
    ``exp(0) = 1.0``.  ``-inf`` gives 0 and ``+inf`` 1.  The minimum is
    ``np.fmin``, which passes over a NaN, so a NaN input's numerator is
    1.0 and the quotient is the denominator's NaN, sign bit and all, as
    in the branch form.
    """
    if out is None:
        out = np.empty_like(x)
    if tmp is None:
        tmp = np.empty_like(x)
    np.abs(x, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    tmp += 1.0
    np.fmin(x, 0.0, out=out)
    np.exp(out, out=out)
    return np.divide(out, tmp, out=out)


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
    """Single-direction GRU parameters, gate blocks fused as the op reads
    them: ``w`` = [Wz|Wr|Wh] (D, 3H), ``u_zr`` = [Uz|Ur] (H, 2H), ``u_h``
    (H, H) and ``b`` = [bz|br|bh] (3H,); see the module docstring for the
    gating."""

    w: Tensor
    u_zr: Tensor
    u_h: Tensor
    b: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.u_h.data.shape[0]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.{k}": getattr(self, k) for k in ("w", "u_zr", "u_h", "b")}


def init_gru_direction(rng: np.random.Generator, input_dim: int, hidden: int) -> GruDirection:
    """Each gate block drawn with its own Glorot fan, in the order Wz, Wr,
    Wh, Uz, Ur, Uh; zero biases."""
    w = [glorot(rng, (input_dim, hidden)) for _ in range(3)]
    u = [glorot(rng, (hidden, hidden)) for _ in range(3)]
    return GruDirection(w=parameter(np.concatenate(w, axis=1)),
                        u_zr=parameter(np.concatenate(u[:2], axis=1)),
                        u_h=parameter(u[2]), b=parameter(np.zeros(3 * hidden)))


@dataclass
class BiGru:
    fw: GruDirection
    bw: GruDirection

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = self.fw.named(f"{prefix}.fw")
        out.update(self.bw.named(f"{prefix}.bw"))
        return out


def init_bi_gru(rng: np.random.Generator, input_dim: int, hidden_per_direction: int) -> BiGru:
    return BiGru(fw=init_gru_direction(rng, input_dim, hidden_per_direction),
                 bw=init_gru_direction(rng, input_dim, hidden_per_direction))


def _time_major(fw: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """(T, 2, B, F) from two (B, T, F) arrays, the second's time axis flipped,
    so step ``t`` of both directions is one contiguous slice."""
    return np.stack([fw.transpose(1, 0, 2), bw[:, ::-1].transpose(1, 0, 2)], axis=1)


def bi_gru(xs: Tensor, p: BiGru, lengths) -> Tensor:
    """Both GRU directions over a right-padded (B, T, D) batch, as one tape node.

    Returns the (B, T, 2H) per-step outputs ``c_1 .. c_L`` of each sequence,
    each the forward hidden state at that step beside the backward one, and
    exactly zero at padded steps; see the module docstring for the masking
    and the backward pass.
    """
    mask = _step_mask(xs.data.shape, np.asarray(lengths))
    x = xs.data
    n, t_max, d = x.shape
    dirs = (p.fw, p.bw)
    h_dim = p.fw.hidden_dim
    for q in dirs:
        if d != q.w.data.shape[0]:
            raise ShapeMismatch(f"bi_gru: input {x.shape} vs W {q.w.data.shape}")
    flat_x = x.reshape(-1, d)
    u_zr = np.stack([q.u_zr.data for q in dirs])
    uh = np.stack([q.u_h.data for q in dirs])
    # x W + b of both directions, time-major, the reverse one's time flipped
    gates_x = np.empty((t_max, 2, n, 3 * h_dim))
    for q, dest in zip(dirs, (gates_x[:, 0], gates_x[::-1, 1])):
        np.add((flat_x @ q.w.data).reshape(n, t_max, -1), q.b.data,
               out=dest.transpose(1, 0, 2))
    live_steps = _time_major(mask, mask)
    # states[t] is the state step t reads, states[t + 1] the one it writes
    states = np.zeros((t_max + 1, 2, n, h_dim))
    zr = np.empty((t_max, 2, n, 2 * h_dim))
    cand = np.empty((t_max, 2, n, h_dim))
    # each step's scratch; a step writes its results into zr, cand and states
    hu, tmp = np.empty((2, 2, n, 2 * h_dim))
    rh, rhu, step = np.empty((3, 2, n, h_dim))
    for t in range(t_max):
        h, gate, c = states[t], zr[t], cand[t]
        np.add(gates_x[t, ..., :2 * h_dim], np.matmul(h, u_zr, out=hu), out=gate)
        _sigmoid(gate, out=gate, tmp=tmp)
        z, r = gate[..., :h_dim], gate[..., h_dim:]
        np.matmul(np.multiply(r, h, out=rh), uh, out=rhu)
        np.tanh(np.add(gates_x[t, ..., 2 * h_dim:], rhu, out=c), out=c)
        np.multiply(z, np.subtract(c, h, out=step), out=step)
        step *= live_steps[t]
        np.add(h, step, out=states[t + 1])
    h_prev = states[:-1]
    out = np.concatenate([states[1:, 0].transpose(1, 0, 2),
                          states[:0:-1, 1].transpose(1, 0, 2)], axis=-1)
    out *= mask

    def batch_major(a: np.ndarray, k: int) -> np.ndarray:
        """Direction ``k`` of a (T, 2, B, F) array as (B * T, F) rows in the
        batch's own step order, so reductions over them sum as one
        direction at a time would."""
        a = a[:, 0] if k == 0 else a[::-1, 1]
        return np.ascontiguousarray(a.transpose(1, 0, 2)).reshape(n * t_max, -1)

    def vjp(g: np.ndarray) -> tuple:
        g = _time_major(g[..., :h_dim], g[..., h_dim:])
        z, r = zr[..., :h_dim], zr[..., h_dim:]
        u_zr_t, uh_t = u_zr.transpose(0, 2, 1), uh.transpose(0, 2, 1)
        d_gates = np.empty((t_max, 2, n, 3 * h_dim))  # pre-activation grads
        dh = np.zeros((2, n, h_dim))
        for t in range(t_max - 1, -1, -1):
            m = live_steps[t]
            dh = dh + m * g[t]
            hp, zt, rt, ct = h_prev[t], z[t], r[t], cand[t]
            live = m * dh
            d_c = live * zt * (1.0 - ct * ct)
            d_rh = d_c @ uh_t
            d_zr = d_gates[t, ..., :2 * h_dim]
            d_zr[..., :h_dim] = live * (ct - hp) * zt * (1.0 - zt)
            d_zr[..., h_dim:] = d_rh * hp * rt * (1.0 - rt)
            d_gates[t, ..., 2 * h_dim:] = d_c
            dh = dh * (1.0 - m * zt) + d_rh * rt + d_zr @ u_zr_t
        del g, dh
        grads, d_x = [], None
        for k, q in enumerate(dirs):
            flat = batch_major(d_gates, k)
            hp = batch_major(h_prev, k)
            grads += [flat_x.T @ flat, hp.T @ flat[:, :2 * h_dim],
                      (batch_major(r, k) * hp).T @ flat[:, 2 * h_dim:],
                      flat.sum(axis=0)]
            if xs.requires_grad:
                d_k = (flat @ q.w.data.T).reshape(x.shape)
                d_x = d_k if d_x is None else d_x + d_k
            del flat, hp
        return (d_x, *grads)

    return _op(out, (xs, *(t for q in dirs for t in (q.w, q.u_zr, q.u_h, q.b))),
               vjp)


def attention_pass(o: np.ndarray, p: np.ndarray, lengths
                   ) -> tuple[np.ndarray, ...]:
    """Attention pooling on plain arrays: each sequence of a right-padded
    (B, T, H) batch ``o``, row ``b`` holding ``lengths[b]`` real steps,
    pooled to its attention-weighted sum, (B, H).

    Scores are ``o @ p``; the weights are their softmax over each
    sequence's real steps, and padded steps get weight zero.  Returns the
    (B, T) weights and the (B, H) pooled vectors.
    """
    if o.ndim != 3 or p.shape != o.shape[2:]:
        raise ShapeMismatch(f"attention_pool: {o.shape} vs {p.shape}")
    valid = _live(o.shape, np.asarray(lengths))
    scores = o @ p
    shifted = np.exp(np.where(valid, scores, -np.inf)
                     - scores.max(axis=1, keepdims=True, where=valid,
                                  initial=-np.inf))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    return weights, (weights[:, None, :] @ o)[:, 0]


def attention_pool(outputs: Tensor, p: Tensor, lengths) -> Tensor:
    """:func:`attention_pass` over ``outputs`` and ``p`` as one tape node,
    (B, T, H) -> (B, H).  When ``outputs`` takes no gradient, the VJP
    computes none for it.
    """
    o = outputs.data
    weights, pooled = attention_pass(o, p.data, lengths)

    def vjp(g: np.ndarray) -> tuple:
        d_w = (o @ g[:, :, None])[:, :, 0]
        d_s = weights * (d_w - (weights * d_w).sum(axis=1, keepdims=True))
        d_p = d_s.reshape(-1) @ o.reshape(-1, o.shape[2])
        if not outputs.requires_grad:
            return (None, d_p)
        return (weights[:, :, None] * g[:, None, :] + d_s[:, :, None] * p.data, d_p)

    return _op(pooled, (outputs, p), vjp)


def predictor_pass(vs: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                   w2: np.ndarray, b2: np.ndarray, o_prev: np.ndarray | None = None,
                   alpha: float = 0.5) -> tuple[np.ndarray, ...]:
    """The descriptor predictor on plain arrays: a rectifier layer, a
    softmax over the ``k`` descriptors, and, given ``o_prev``, the mix
    ``(1 - alpha) softmax + alpha o_prev``.

    ``vs`` is (S, d); when ``o_prev`` (S, k) is given, row ``t`` of the
    input is ``vs[t]`` beside ``o_prev[t]``.  Returns the input, the
    rectifier's pre-activation and output, the softmax and the (S, k)
    weights, which are the softmax itself without ``o_prev``.
    """
    x = np.asarray(vs, dtype=np.float64)
    if o_prev is not None:
        x = np.concatenate([x, o_prev], axis=1)
    z1 = x @ w1 + b1
    h = np.maximum(z1, 0.0)
    z2 = h @ w2 + b2
    e = np.exp(z2 - z2.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    o = y if o_prev is None else y * float(1.0 - alpha) + alpha * o_prev
    return x, z1, h, y, o


def mixture_hinge_loss(params: Sequence[Tensor], targets: np.ndarray,
                       neg: np.ndarray, lam: float,
                       o_prev: np.ndarray | None = None, alpha: float = 0.5
                       ) -> tuple[Tensor, np.ndarray]:
    """One script's descriptor loss as one tape node, and its (S, k) weights.

    ``params`` are the predictor's ``w1, b1, w2, b2`` and the (k, d)
    descriptor matrix ``R``.  The weights ``o`` are :func:`predictor_pass`
    over the constant (S, d) ``targets`` ``u``; the reconstructions are
    ``w = o R``.  The loss is ``sum_t sum_j max(0, 1 - w_t.u_t +
    w_t.u_neg[t, j])`` over the (S, J) index array ``neg``, distinct
    within a row, plus ``lam * ||R R^T - I||_F``.  A margin of exactly
    zero takes no gradient, nor does a rectifier input of exactly zero.

    It keeps the order of operations of that loss built from one tape op
    per step (matrix products, bias additions, a rectifier, a softmax
    and the recurrent mix for the predictor, a hinge node, and a
    transpose, difference, square, sum, square root and scaling for the
    penalty), so the value and every gradient are that composition's to
    the bit.  ``R`` gets three contributions, summed in the order
    :func:`backward` visits them: through the reconstructions, then the
    Gram matrix's left factor, then its transpose.
    """
    w1, b1, w2, b2, r = params
    u = np.asarray(targets, dtype=np.float64)
    neg = np.asarray(neg)
    mat = r.data
    n_in = u.shape[-1] + (0 if o_prev is None else mat.shape[0])
    if u.ndim != 2 or mat.ndim != 2 or u.shape[1] != mat.shape[1] \
            or w1.data.shape != (n_in, b1.data.shape[0]) \
            or w2.data.shape != (b1.data.shape[0], mat.shape[0]) \
            or b2.data.shape != mat.shape[:1] \
            or neg.ndim != 2 or neg.shape[0] != u.shape[0] \
            or (o_prev is not None and o_prev.shape != (u.shape[0], mat.shape[0])):
        raise ShapeMismatch(
            f"mixture_hinge_loss: targets {u.shape}, R {mat.shape}, w1 "
            f"{w1.data.shape}, b1 {b1.data.shape}, w2 {w2.data.shape}, b2 "
            f"{b2.data.shape}, negatives {neg.shape}"
            + ("" if o_prev is None else f", o_prev {o_prev.shape}"))
    x, z1, h, y, o = predictor_pass(u, w1.data, b1.data, w2.data, b2.data,
                                    o_prev, alpha)
    scores = (o @ mat) @ u.T  # scores[t, s] = w_t . u_s
    margins = (1.0 - np.diagonal(scores)[:, None]
               + np.take_along_axis(scores, neg, axis=1))
    active = (margins > 0).astype(np.float64)
    mat_t = mat.T.copy()
    diff = mat @ mat_t - np.eye(mat.shape[0])
    norm = np.sqrt(np.asarray((diff * diff).sum()))
    lam = float(lam)
    loss = np.asarray(np.maximum(margins, 0.0).sum()) + norm * lam

    def vjp(g: np.ndarray) -> tuple:
        # the hinge: d/dw_t = g * sum over active j of (u_neg[t, j] - u_t)
        hits = np.zeros_like(scores)
        np.put_along_axis(hits, neg, active, axis=1)
        d_w = float(g) * (hits @ u - active.sum(axis=1)[:, None] * u)
        d_r = o.T @ d_w
        d_y = d_w @ mat.T
        if o_prev is not None:
            d_y = d_y * float(1.0 - alpha)
        d_z2 = y * (d_y - (d_y * y).sum(axis=-1, keepdims=True))
        d_z1 = (d_z2 @ w2.data.T) * (z1 > 0).astype(np.float64)
        # the penalty: d/dR of lam * sqrt(sum(D * D)), D = R R^T - I
        d_sq = np.full_like(diff, float(g * lam * 0.5 / norm))
        d_gram = d_sq * diff
        d_gram += d_sq * diff
        d_r += d_gram @ mat_t.T
        d_r += (mat.T @ d_gram).T
        return (x.T @ d_z1, d_z1.sum(axis=0), h.T @ d_z2, d_z2.sum(axis=0), d_r)

    return _op(loss, (w1, b1, w2, b2, r), vjp), o


def logistic_loss(z: Tensor, w_pos: np.ndarray, w_neg: np.ndarray, c: float
                  ) -> Tensor:
    """``c * sum(w_pos * log s(z) + w_neg * log s(-z))``, ``s`` the logistic
    sigmoid, as one tape node; the weights are constants of ``z``'s shape.

    Each log-sigmoid takes the stable form ``-softplus(-x)``.  The value
    and the gradient keep the order of operations of that sum built from
    primitive ops, so they are its to the bit.
    """
    x = z.data
    if w_pos.shape != x.shape or w_neg.shape != x.shape:
        raise ShapeMismatch(f"logistic_loss: logits {x.shape}, weights "
                            f"{w_pos.shape} and {w_neg.shape}")
    c = float(c)
    nx = x * -1.0
    e = np.exp(-np.abs(x))  # the same for x and -x
    soft = np.log1p(e)
    terms = (w_pos * np.where(x >= 0, -soft, x - soft)
             + w_neg * np.where(nx >= 0, -soft, nx - soft))

    def vjp(g: np.ndarray) -> tuple:
        # the sigmoid of minus each log-sigmoid's input, on each side of 0
        s_pos, s_neg = e / (1.0 + e), 1.0 / (1.0 + e)
        v = float(g * c)
        d_neg = v * w_neg * np.where(nx >= 0, s_pos, s_neg) * -1.0
        return (d_neg + v * w_pos * np.where(x >= 0, s_pos, s_neg),)

    return _op(np.asarray(terms.sum()) * c, (z,), vjp)


# ---------------------------------------------------------------------------
# optimization


def clip_grad_norm(opt: Adam, max_norm: float = 5.0) -> float:
    """Scale the gradients of ``opt``'s parameters in place so their global
    L2 norm is at most ``max_norm``.

    Returns the scaling factor applied (1.0 when no clipping was needed).
    Each block of the store's gradient is squared once into the block's
    scratch, and each parameter's sum of squares is the ``.sum()`` of its
    slice there; the sums are added as floats in ``opt``'s parameter
    order, so the norm is the per-array one to the bit.  A parameter whose
    ``.grad`` is ``None`` has a zeroed slice, whose sum of squares is
    +0.0: it leaves the sum unchanged and stays zero.  One multiply
    scales the whole gradient buffer.  When the sum of squares overflows
    although every entry is finite, the norm is taken again with each
    entry divided by the largest |entry|.  A NaN or infinite entry raises
    :class:`NonFiniteLoss` naming the norm, and no gradient is scaled.
    """
    opt._gather()

    def sum_of_squares(peak: float | None = None) -> float:
        total = 0
        for _, g, _, _, sq, _, members in opt._blocks:
            if peak is None:
                np.multiply(g, g, out=sq)
            else:
                np.square(np.divide(g, peak, out=sq), out=sq)
            for _, lo, hi in members:
                total += float(sq[lo:hi].sum())
        return total

    with np.errstate(over="ignore"):
        norm = math.sqrt(sum_of_squares())
    if math.isfinite(norm):
        if norm <= max_norm or norm == 0.0:
            return 1.0
        factor = max_norm / norm
    else:
        peak = float(np.max(np.abs(opt.grad)))
        if not math.isfinite(peak):
            raise NonFiniteLoss(f"gradient norm={norm!r}")
        factor = min(1.0, max_norm / peak / math.sqrt(sum_of_squares(peak)))
    opt.grad *= factor
    return factor


# float64 entries per 64-byte cache line; each parameter's slice of an Adam
# store starts on one
_LINE = 8


def _aligned_zeros(n: int) -> np.ndarray:
    """``n`` float64 zeros whose first entry starts a 64-byte line."""
    raw = np.zeros(n + _LINE)
    skip = -raw.ctypes.data % (8 * _LINE) // 8
    return raw[skip:skip + n]


class Adam:
    """Adam with bias correction over a named parameter dict, on one flat
    store.

    The store is four float64 buffers of one layout: parameters, gradients
    and the two moments.  Each parameter's slice starts on a 64-byte line,
    in the dict's order.  At construction each parameter's values are
    copied into the store and its ``Tensor.data`` becomes its reshaped
    slice; :func:`backward` writes its gradient into its gradient slice.
    A ``.grad`` assigned by hand is copied into the slice at the next
    :meth:`step` or :func:`clip_grad_norm`, and a ``.grad`` of ``None``
    steps as zero.  A tensor handed to a later ``Adam`` moves to that
    store, with its current values; this one then refuses to step or clip
    it, with a ``RuntimeError`` naming it.

    The store is cut into blocks of whole arrays of at most ``BLOCK``
    entries (an array longer than that is a block of its own), so that a
    block's buffers stay in cache.  ``step`` runs the update once per
    block, in a scratch buffer pair, in the textbook formula's order of
    operations, so the values are those of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g`` and ``p -= lr m_hat / (sqrt(v_hat) + eps)``
    to the bit, as elementwise arithmetic does not depend on the layout.
    ``m`` and ``v`` map each name to its moment slice.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8
    # the most entries of a block of several arrays: 256 KiB of each buffer
    BLOCK = 32768

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-3):
        self.params = dict(params)
        tensors = list(self.params.values())
        if len({id(t) for t in tensors}) < len(tensors):
            raise ValueError("Adam: one tensor under two names")
        self.lr = lr
        self.step_count = 0
        starts, end = [], 0
        for t in tensors:
            starts.append(end)
            end += -(-t.data.size // _LINE) * _LINE
        flat, self.grad, m, v = (_aligned_zeros(end) for _ in range(4))

        def views(buf: np.ndarray) -> list[np.ndarray]:
            return [buf[a:a + t.data.size].reshape(t.data.shape)
                    for a, t in zip(starts, tensors)]

        self.m, self.v = (dict(zip(self.params, views(buf))) for buf in (m, v))
        self._slots = list(zip(self.params, tensors, views(self.grad)))
        for (_, t, grad), data in zip(self._slots, views(flat)):
            data[...] = t.data
            t.data, t._grad_slice = data, grad
        cuts = [0]
        for a, next_start in zip(starts, starts[1:] + [end]):
            if a > cuts[-1] and next_start - cuts[-1] > self.BLOCK:
                cuts.append(a)
        cuts.append(end)
        scratch = np.empty((2, max(hi - lo for lo, hi in zip(cuts, cuts[1:]))))
        self._blocks = [
            (*(buf[lo:hi] for buf in (flat, self.grad, m, v)),
             *(row[:hi - lo] for row in scratch),
             [(k, a - lo, a - lo + t.data.size)
              for k, (a, t) in enumerate(zip(starts, tensors)) if lo <= a < hi])
            for lo, hi in zip(cuts, cuts[1:])]

    def _gather(self) -> None:
        """Copy each hand-assigned ``.grad`` into its slice and zero the
        slice of each ``None`` one."""
        for name, t, grad in self._slots:
            if t.grad is not grad:
                if t._grad_slice is not grad:
                    raise RuntimeError(f"Adam: parameter {name!r} moved to a "
                                       f"later Adam's store")
                if t.grad is None:
                    grad.fill(0.0)
                    continue
                if t.grad.shape != grad.shape:
                    raise ShapeMismatch(f"Adam: {name} gradient {t.grad.shape} "
                                        f"vs parameter {grad.shape}")
                np.copyto(grad, t.grad)
                t.grad = grad

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self) -> None:
        self._gather()
        self.step_count += 1
        t = self.step_count
        m_scale, v_scale = 1.0 - self.BETA1 ** t, 1.0 - self.BETA2 ** t
        for p, g, m, v, a, b, _ in self._blocks:
            m *= self.BETA1
            m += np.multiply(1.0 - self.BETA1, g, out=a)
            v *= self.BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.BETA2
            v += a
            np.divide(m, m_scale, out=a)
            a *= self.lr
            np.divide(v, v_scale, out=b)
            np.sqrt(b, out=b)
            b += self.EPS
            a /= b
            p -= a
