"""The per-array optimizer that ``autodiff.Adam``'s flat store replaced,
kept as the tests' oracle.

``Adam`` keeps each parameter's moments in arrays of its own and makes
its update's numpy calls once per parameter array, in one scratch buffer
pair sized for the largest; a ``.grad`` of ``None`` steps as zero.
``clip_grad_norm`` squares and sums each array's gradient on its own and
scales each one in place.  Neither touches a parameter's ``data`` or
``.grad`` binding, so tensors trained with them never get a store slice.
``clip_grad_norm`` takes the oracle ``Adam`` and reads its parameters in
the caller's order, as ``classifier.optimizer_epochs`` passes the store,
so the two can be patched into ``classifier`` together.
"""

from __future__ import annotations

import math

import numpy as np

from scenewise.autodiff import Tensor
from scenewise.errors import NonFiniteLoss


def clip_grad_norm(opt: Adam, max_norm: float = 5.0) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the scaling factor applied (1.0 when no clipping was needed).
    When the sum of squares overflows although every entry is finite, the
    norm is taken again with each entry divided by the largest |entry|.
    A NaN or infinite entry raises :class:`NonFiniteLoss` naming the norm,
    and no gradient is scaled.
    """
    tensors = [p for p in opt.params.values() if p.grad is not None]
    with np.errstate(over="ignore"):
        sq = sum(float(np.sum(p.grad * p.grad)) for p in tensors)
    norm = math.sqrt(sq)
    if math.isfinite(norm):
        if norm <= max_norm or norm == 0.0:
            return 1.0
        factor = max_norm / norm
    else:
        peaks = [float(np.max(np.abs(p.grad))) for p in tensors if p.grad.size]
        if not all(map(math.isfinite, peaks)):
            raise NonFiniteLoss(f"gradient norm={norm!r}")
        peak = max(peaks)
        factor = min(1.0, max_norm / peak / math.sqrt(
            sum(float(np.sum(np.square(p.grad / peak))) for p in tensors)))
    for p in tensors:
        p.grad *= factor
    return factor


class Adam:
    """Adam with bias correction over a named parameter dict, one array at
    a time, in the textbook formula's order of operations."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 5e-3):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        scratch = np.empty(
            (2, max((t.data.size for t in self.params.values()), default=0)))
        self._slots = [(p, self.m[k], self.v[k],
                        *(buf[:p.data.size].reshape(p.data.shape) for buf in scratch))
                       for k, p in self.params.items()]

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        m_scale, v_scale = 1.0 - self.BETA1 ** t, 1.0 - self.BETA2 ** t
        for p, m, v, a, b in self._slots:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
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
            p.data -= a
