"""Narrative descriptor trajectories: smoothing, per-scene rescaling, and
deterministic CSV / streamgraph-SVG export.

A script's trajectories are one record: the selected descriptor indices and
their (S, m) matrix of per-scene shares, which goes unsplit from
``build_trajectories`` to the CSV's rows and the streamgraph's layers.

Smoothing sums one strided view of the zero-padded weights, laid out as
numpy's ``sliding_window_view`` would lay it out, without building one.

The streamgraph uses a symmetric (silhouette) baseline with inside-out
layer ordering; within a scene the layer widths are the rescaled descriptor
shares, so the band has constant total thickness and the internal flows
show how descriptor weight moves across the script.  The m layers stack
between m + 1 edges.  The scenes' x positions are formatted into two
format strings, one per direction, and each edge fills them in with one
``%`` each: forwards as the bottom of the layer above it, backwards as the
top of the layer below it.  The markup that depends on no script is built
once, when the module loads.

The ``trajectories`` command reaches these functions from a raw play
through ``DescriptorModel.weights_for_script``, which compiles the play
and runs the target and the predictor on plain arrays; every step from
the play to the written bytes builds no tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DescriptorOutOfRange, UnknownFormat

PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
           "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295")


@dataclass(frozen=True)
class Trajectories:
    """The selected ``descriptors`` and their (S, m) per-scene ``shares``:
    column j holds descriptor ``descriptors[j]``, and each row sums to 1."""

    descriptors: tuple[int, ...]
    shares: np.ndarray


def smooth(values, window: int = 5) -> np.ndarray:
    """Centered moving average down the first axis, with shorter windows at
    the edges; the columns of a (S, m) array are smoothed independently.

    Each window's sum runs over the zero-padded input and is divided by the
    number of real entries in the window.  The windows are one strided
    view of the padded input, laid out as numpy's ``sliding_window_view``
    lays them out (the window axis last), so the sums add in its order.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    x = np.asarray(values, dtype=np.float64)
    half = window // 2
    n = x.shape[0]
    padded = np.zeros((n + window - 1,) + x.shape[1:])
    padded[half:half + n] = x
    windows = np.ndarray(x.shape + (window,), buffer=padded,
                         strides=padded.strides + padded.strides[:1])
    step = np.arange(n)
    counts = np.minimum(step + half + 1, n) - np.maximum(step - half, 0)
    return windows.sum(axis=-1) / counts.reshape((n,) + (1,) * (x.ndim - 1))


def rescale(rows: np.ndarray) -> np.ndarray:
    """Normalize each scene's weights over the selected descriptors.

    Rows must be nonnegative; an all-zero scene becomes uniform shares.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ValueError(f"expected (scenes, descriptors), got {rows.shape}")
    if (rows < 0).any():
        raise ValueError("rescale expects nonnegative smoothed weights")
    totals = rows.sum(axis=1, keepdims=True)
    return np.divide(rows, totals, out=np.full(rows.shape, 1.0 / rows.shape[1]),
                     where=totals > 0)


def parse_selection(selection: str) -> int | list[int]:
    """The syntax of a descriptor selection: ``top:m`` gives the integer
    ``m`` >= 1, a comma list of distinct integers gives the list; anything
    else raises ``ValueError`` naming ``selection``."""
    if selection.startswith("top:"):
        try:
            m = int(selection[4:])
        except ValueError:
            m = 0
        if m < 1:
            raise ValueError(f"top:m needs an integer m >= 1, got {selection!r}")
        return m
    items = selection.split(",")
    if not selection.strip() or any(not tok.strip() for tok in items):
        raise ValueError(f"empty item in descriptor selection {selection!r}")
    try:
        indices = [int(tok) for tok in items]
    except ValueError:
        raise ValueError(f"descriptor selection {selection!r} is neither top:m "
                         f"nor a comma list of integers") from None
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate index in descriptor selection {selection!r}")
    return indices


def select_descriptors(weights: np.ndarray, selection: str) -> list[int]:
    """The descriptors that ``selection`` (:func:`parse_selection`) picks
    from (S, k) ``weights``: the ``m`` of highest mean weight, in index
    order, or the listed indices.  Asking for more than ``k`` descriptors,
    or for an index outside ``[0, k)``, raises
    :class:`DescriptorOutOfRange`."""
    k = weights.shape[1]
    chosen = parse_selection(selection)
    if isinstance(chosen, int):
        if chosen > k:
            raise DescriptorOutOfRange(
                f"{selection!r} asks for more than the model's {k} descriptors")
        means = weights.mean(axis=0).tolist()
        order = sorted(range(k), key=lambda i: (-means[i], i))
        return sorted(order[:chosen])
    for i in chosen:
        if not 0 <= i < k:
            raise DescriptorOutOfRange(f"descriptor index {i} out of range [0, {k})")
    return chosen


def build_trajectories(weights: np.ndarray, selection: Sequence[int],
                       window: int = 5) -> Trajectories:
    """Smooth and rescale the selected descriptor columns of (S, k) weights."""
    weights = np.asarray(weights, dtype=np.float64)
    return Trajectories(tuple(selection),
                        rescale(smooth(weights[:, list(selection)], window)))


# ---------------------------------------------------------------------------
# export


def export_csv(trajectories: Trajectories) -> str:
    header = "scene," + ",".join(f"descriptor_{d}" for d in trajectories.descriptors)
    rows = [f"{s}," + ",".join(map(repr, shares))
            for s, shares in enumerate(trajectories.shares.tolist(), 1)]
    return "\n".join([header, *rows]) + "\n"


def parse_csv(text: str) -> Trajectories:
    lines = [l for l in text.splitlines() if l]
    descriptors = tuple(int(n.split("_", 1)[1]) for n in lines[0].split(",")[1:])
    rows = [[float(c) for c in line.split(",")[1:]] for line in lines[1:]]
    return Trajectories(descriptors, np.asarray(rows, dtype=np.float64)
                        .reshape(len(rows), len(descriptors)))


def _inside_out_order(shares: np.ndarray) -> np.ndarray:
    """Column indices from the bottom layer up: the largest column volume
    in the middle, the next ones alternately above and below it, ties by
    index."""
    # each column summed on its own, as a 1-D sum does, so that near-equal
    # volumes keep their order however the matrix is laid out
    volumes = np.ascontiguousarray(shares.T).sum(axis=1)
    by_volume = (-volumes).argsort(kind="stable")
    return np.concatenate([by_volume[1::2][::-1], by_volume[::2]])


# the streamgraph's geometry, and the markup that depends on nothing else
WIDTH, HEIGHT = 800.0, 360.0
MARGIN_X, MARGIN_TOP, MARGIN_BOTTOM = 50.0, 40.0, 30.0
PLOT_W = WIDTH - 2 * MARGIN_X
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
             f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">\n'
             f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>')
_SVG_TITLE = (f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
              'font-family="sans-serif" font-size="14">%s</text>')
_SVG_LAYER = ('<polygon points="%s %s" fill="%s" fill-opacity="0.85" '
              'stroke="none"><title>descriptor_%s</title></polygon>\n'
              '<text x="%s" y="%.3f" text-anchor="middle" '
              'font-family="sans-serif" font-size="11" fill="#222">d%s</text>')
_SVG_MARKER = (f'<line x1="%.3f" y1="{MARGIN_TOP:.1f}" x2="%.3f" '
               f'y2="{HEIGHT - MARGIN_BOTTOM:.1f}" stroke="#333" '
               'stroke-dasharray="4 3" stroke-width="1"/>\n'
               f'<text x="%.3f" y="{MARGIN_TOP - 6:.1f}" '
               'text-anchor="middle" font-family="sans-serif" '
               'font-size="12" font-weight="bold">%s</text>')
_AXIS_Y = HEIGHT - MARGIN_BOTTOM + 16
_SVG_FOOT = (f'<text x="{MARGIN_X:.1f}" y="{_AXIS_Y:.1f}" '
             'font-family="sans-serif" font-size="10">scene 1</text>\n'
             f'<text x="{WIDTH - MARGIN_X:.1f}" y="{_AXIS_Y:.1f}" '
             'text-anchor="end" font-family="sans-serif" font-size="10">'
             'scene %s</text>\n</svg>\n')


def _x_of(scene: int, n_scenes: int) -> float:
    if n_scenes == 1:
        return MARGIN_X + PLOT_W / 2
    return MARGIN_X + PLOT_W * scene / (n_scenes - 1)


def _y_of(value):
    # value in [-0.5, 0.5] maps into the plot box, positive up
    return MARGIN_TOP + PLOT_H * (0.5 - value)


def export_svg(trajectories: Trajectories,
               annotations: Sequence[tuple[int, str]] = (),
               title: str = "") -> str:
    """Streamgraph with symmetric baseline; byte-deterministic output."""
    shares = trajectories.shares
    n_scenes, m = shares.shape
    # the layers stack up from the silhouette baseline in inside-out order:
    # the layer at stack position p lies between edges[:, p] and
    # edges[:, p + 1], and column j sits at position order.argsort()[j]
    order = _inside_out_order(shares)
    edges = np.empty((n_scenes, m + 1))
    edges[:, 0] = -shares.sum(axis=1) / 2.0
    edges[:, 1:] = shares[:, order]
    edges = edges.cumsum(axis=1)
    widest = shares.argmax(axis=0).tolist()
    xs = [f"{_x_of(s, n_scenes):.3f}" for s in range(n_scenes)]
    # each stack edge's points come from one format string, forwards as a
    # layer's bottom and backwards as the top of the layer below it
    forwards = " ".join([f"{x},%.3f" for x in xs])
    backwards = " ".join([f"{x},%.3f" for x in reversed(xs)])
    edge_ys = _y_of(edges).T.tolist()
    edge_values = edges.T.tolist()

    parts = [_SVG_HEAD]
    if title:
        parts.append(_SVG_TITLE % _esc(title))
    for descriptor, p, x in zip(trajectories.descriptors,
                                order.argsort().tolist(), widest):
        label_y = _y_of((edge_values[p][x] + edge_values[p + 1][x]) / 2.0)
        parts.append(_SVG_LAYER % (
            forwards % tuple(edge_ys[p]), backwards % tuple(edge_ys[p + 1][::-1]),
            PALETTE[descriptor % len(PALETTE)], descriptor, xs[x], label_y,
            descriptor))
    for scene_no, label in annotations:
        x = _x_of(scene_no - 1, n_scenes)
        parts.append(_SVG_MARKER % (x, x, x, _esc(label)))
    parts.append(_SVG_FOOT % n_scenes)
    return "\n".join(parts)


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def export(trajectories: Trajectories, fmt: str,
           annotations: Sequence[tuple[int, str]] = (), title: str = "") -> str:
    if fmt == "csv":
        return export_csv(trajectories)
    if fmt == "svg":
        return export_svg(trajectories, annotations, title)
    raise UnknownFormat(f"unknown export format {fmt!r}")
