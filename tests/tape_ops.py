"""Tape ops that only tests build graphs from.

The library's models run on a few fused nodes (``autodiff.bi_gru``,
``attention_pool``, ``mixture_hinge_loss``, ``logistic_loss``,
``mean_of_run_means``) and the structural ops around them.  The
compositions the fused nodes are checked against bit for bit
(``gru_oracle``, ``loss_oracle``, ``descriptor_oracle``), the per-step GRU
oracle and the finite-difference gradchecks are built from these
elementwise, reduction and shape ops instead.  Each keeps the arithmetic
it had in the library, so every bitwise oracle keeps its bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from scenewise.autodiff import Tensor, _check_same_shape, _op, _sigmoid
from scenewise.errors import ShapeMismatch


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _op(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def add_bias(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ShapeMismatch(f"add_bias: {m.data.shape} vs {v.data.shape}")
    return _op(m.data + v.data, (m, v), lambda g: (g, g.sum(axis=0)))


def total(a: Tensor) -> Tensor:
    def vjp(g: np.ndarray) -> tuple:
        return (np.full_like(a.data, float(g)),)

    return _op(np.asarray(a.data.sum()), (a,), vjp)


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


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    return _op(y, (a,), lambda g: (g * 0.5 / y,))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose: expected matrix, got {a.data.shape}")
    return _op(a.data.T.copy(), (a,), lambda g: (g.T,))


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ShapeMismatch(f"dot: {a.data.shape} vs {b.data.shape}")
    return _op(a.data @ b.data, (a, b), lambda g: (g * b.data, g * a.data))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    return _op(s, (a,), lambda g: (g * s * (1.0 - s),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _op(y, (a,), lambda g: (g * (1.0 - y * y),))


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)
    mask = (a.data > 0).astype(np.float64)
    return _op(y, (a,), lambda g: (g * mask,))


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


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _op(a.data * c, (a,), lambda g: (g * c,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack 1-D tensors of equal length into a matrix of rows."""
    width = tensors[0].data.shape
    for t in tensors:
        if t.data.ndim != 1 or t.data.shape != width:
            raise ShapeMismatch(f"stack: {t.data.shape} vs {width}")
    return _op(np.stack([t.data for t in tensors]), tuple(tensors),
               lambda g: tuple(g))


def columns(a: Tensor, k: int, width: int) -> Tensor:
    """Block ``k`` of ``width`` columns of a matrix, or entries of a vector:
    one gate's block of a fused GRU array."""
    cols = slice(k * width, (k + 1) * width)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[..., cols] = g
        return (full,)

    return _op(a.data[..., cols].copy(), (a,), vjp)
