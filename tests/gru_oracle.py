"""The two-node bidirectional GRU, kept as the tests' oracle.

``gru_direction`` runs one direction over a right-padded (B, T, D) batch as
one tape node, with its own time loop and its own backpropagation through
time; ``bi_gru`` runs it once per direction and concatenates the two
(B, T, H) results.  ``_sigmoid`` is the gate sigmoid with one division
per branch.  ``scenewise.autodiff.bi_gru`` steps both directions in
one loop as one node; the tests in ``test_autodiff.py`` check that its
output and every gradient equal this composition's bit for bit.
"""

from __future__ import annotations

import numpy as np

from scenewise.autodiff import (BiGru, GruDirection, Tensor, _op, _step_mask,
                                concat)
from scenewise.errors import ShapeMismatch


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gru_direction(xs: Tensor, p: GruDirection, lengths, reverse: bool = False
                  ) -> Tensor:
    """One GRU direction over a right-padded (B, T, D) batch, as one tape node.

    Returns the (B, T, H) hidden states, exactly zero at padded steps.
    """
    mask = _step_mask(xs.data.shape, np.asarray(lengths))
    x = xs.data
    n, t_max, d = x.shape
    h_dim = p.hidden_dim
    w, u_zr, uh = p.w.data, p.u_zr.data, p.u_h.data
    if d != w.shape[0]:
        raise ShapeMismatch(f"gru_direction: input {x.shape} vs W {w.shape}")
    gates_x = (x.reshape(-1, d) @ w + p.b.data).reshape(n, t_max, 3 * h_dim)
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
        d_x = (flat @ w.T).reshape(x.shape) if xs.requires_grad else None
        return (d_x, d_w, d_u_zr, d_uh, d_b)

    return _op(out, (xs, p.w, p.u_zr, p.u_h, p.b), vjp)


def bi_gru(xs: Tensor, p: BiGru, lengths) -> Tensor:
    """Both directions over a right-padded (B, T, D) batch: (B, T, 2H), the
    forward states beside the backward ones, zero at padded steps."""
    return concat([gru_direction(xs, p.fw, lengths),
                   gru_direction(xs, p.bw, lengths, reverse=True)])
