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

It is exposed only as a whole-sequence bidirectional encoder, ``bi_gru``.
Input weights ``W`` are stored (input_dim, hidden) and recurrent weights
``U`` (hidden, hidden), so each direction's input transforms batch into a
single matrix product over the (T, D) sequence.
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


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeMismatch(f"dot: {a.data.shape} vs {b.data.shape}")
    return _op(a.data @ b.data, (a, b), lambda g: (g * b.data, g * a.data))


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-D tensors."""
    if not tensors:
        raise EmptySequence("concat of zero tensors")
    for t in tensors:
        if t.data.ndim != 1:
            raise ShapeMismatch(f"concat expects vectors, got {t.data.shape}")
    sizes = [t.data.shape[0] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: np.ndarray) -> tuple:
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _op(np.concatenate([t.data for t in tensors]), tuple(tensors), vjp)


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


def row(a: Tensor, i: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"row: expected matrix, got {a.data.shape}")

    def vjp(g: np.ndarray) -> tuple:
        full = np.zeros_like(a.data)
        full[i] = g
        return (full,)

    return _op(a.data[i].copy(), (a,), vjp)


def mean(a: Tensor) -> Tensor:
    n = a.data.size

    def vjp(g: np.ndarray) -> tuple:
        return (np.full_like(a.data, float(g) / n),)

    return _op(np.asarray(a.data.mean()), (a,), vjp)


def mean_rows(a: Tensor) -> Tensor:
    """Column-wise mean of a matrix: (T, D) -> (D,)."""
    if a.data.ndim != 2:
        raise ShapeMismatch(f"mean_rows: expected matrix, got {a.data.shape}")
    t = a.data.shape[0]

    def vjp(g: np.ndarray) -> tuple:
        return (np.tile(g / t, (t, 1)),)

    return _op(a.data.mean(axis=0), (a,), vjp)


def total(a: Tensor) -> Tensor:
    def vjp(g: np.ndarray) -> tuple:
        return (np.full_like(a.data, float(g)),)

    return _op(np.asarray(a.data.sum()), (a,), vjp)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _op(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _op(y, (a,), lambda g: (g * (1.0 - y * y),))


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    mask = (a.data > 0).astype(np.float64)
    return _op(y, (a,), lambda g: (g * mask,))


def softmax(a: Tensor) -> Tensor:
    """Softmax of a vector; output is a probability simplex."""
    if a.data.ndim != 1:
        raise ShapeMismatch(f"softmax: expected vector, got {a.data.shape}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    y = e / e.sum()
    return _op(y, (a,), lambda g: (y * (g - float(g @ y)),))


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


def normalize_sum(a: Tensor, min_denominator: float = 1e-9) -> Tensor:
    """Divide a vector by the sum of its entries: a_i / sum(a).

    Raises :class:`DegenerateNormalizer` when |sum(a)| < ``min_denominator``.
    """
    if a.data.ndim != 1:
        raise ShapeMismatch(f"normalize_sum: expected vector, got {a.data.shape}")
    s = float(a.data.sum())
    if abs(s) < min_denominator:
        raise DegenerateNormalizer(f"normalizer sum {s!r} below {min_denominator}")
    y = a.data / s

    def vjp(g: np.ndarray) -> tuple:
        return (g / s - float(g @ a.data) / (s * s),)

    return _op(y, (a,), vjp)


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


def _gru_direction(xs: Tensor, p: GruDirection, reverse: bool) -> list[Tensor]:
    t_steps = xs.data.shape[0]
    az = add_bias(matmul(xs, p.wz), p.bz)
    ar = add_bias(matmul(xs, p.wr), p.br)
    ah = add_bias(matmul(xs, p.wh), p.bh)
    h = constant(np.zeros(p.hidden_dim))
    states: list[Tensor] = []
    order = range(t_steps - 1, -1, -1) if reverse else range(t_steps)
    for t in order:
        z = sigmoid(add(row(az, t), matmul(h, p.uz)))
        r = sigmoid(add(row(ar, t), matmul(h, p.ur)))
        c = tanh(add(row(ah, t), matmul(mul(r, h), p.uh)))
        h = add(h, mul(z, sub(c, h)))
        states.append(h)
    if reverse:
        states.reverse()
    return states


def bi_gru(xs: Tensor, p: BiGru) -> tuple[list[Tensor], Tensor]:
    """Run both directions over a (T, D) input matrix.

    Returns the per-step outputs ``c_1 .. c_T`` (each the concatenation of the
    forward and backward hidden states at that step) and the final output
    ``c_T``.
    """
    if xs.data.ndim != 2 or xs.data.shape[0] == 0:
        raise EmptySequence(f"bi_gru needs a non-empty (T, D) input, got {xs.data.shape}")
    fw_states = _gru_direction(xs, p.fw, reverse=False)
    bw_states = _gru_direction(xs, p.bw, reverse=True)
    outputs = [concat([f, b]) for f, b in zip(fw_states, bw_states)]
    return outputs, outputs[-1]


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
