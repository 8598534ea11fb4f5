"""The composed reweighted loss and BoE character mean, kept as the tests'
oracles.

``reweighted_loss`` builds the loss from primitive tape ops, most of them
from ``tape_ops``: two ``logsigmoid`` nodes, a ``neg``, two ``mul``, an
``add``, a ``total`` and a ``scale``.  ``characters_mean`` is the BoE
character block as ``row``, ``mean_rows``, ``place``, ``mean_rows`` and
``row``.
``scenewise.classifier.reweighted_loss`` and the BoE
``HierarchicalModel.encode_script`` each make one node instead; the tests
check that their values and gradients equal these compositions' bit for
bit.
"""

from __future__ import annotations

import numpy as np

from scenewise import autodiff as ad
from scenewise.autodiff import Tensor
from scenewise.errors import DataEmpty

from tape_ops import logsigmoid, mul, neg, scale, total


def reweighted_loss(y: np.ndarray, z: Tensor, lam: np.ndarray,
                    active: np.ndarray | None = None) -> Tensor:
    """The reweighted loss as eight primitive tape nodes."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != z.data.shape:
        raise ValueError(f"labels {y.shape} vs logits {z.data.shape}")
    lam = np.asarray(lam, dtype=np.float64)
    mask = np.ones_like(y) if active is None else \
        np.broadcast_to(np.asarray(active, dtype=np.float64), y.shape)
    denom = float(mask.sum())
    if denom == 0:
        raise DataEmpty("no active tags in the loss")
    c_pos = y * mask
    c_neg = (1.0 - y) * lam * mask
    pos = mul(ad.constant(c_pos), logsigmoid(z))
    negative = mul(ad.constant(c_neg), logsigmoid(neg(z)))
    return scale(total(ad.add(pos, negative)), -1.0 / denom)


def characters_mean(model, script) -> Tensor:
    """A BoE ``HierarchicalModel``'s character block over a compiled
    script: the mean over the scenes of each scene's mean speaker row."""
    scenes = model._encode_characters(script)
    return ad.row(ad.mean_rows(scenes, [scenes.data.shape[0]]), 0)
