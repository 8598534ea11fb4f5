"""Narrative descriptor trajectories: smoothing, per-scene rescaling, and
deterministic CSV / streamgraph-SVG export.

The streamgraph uses a symmetric (silhouette) baseline with inside-out
layer ordering; within a scene the layer widths are the rescaled descriptor
shares, so the band has constant total thickness and the internal flows
show how descriptor weight moves across the script.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import UnknownFormat

PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
           "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#86bcb6", "#d37295")


@dataclass
class Trajectory:
    descriptor: int
    rescaled: np.ndarray


def smooth(values, window: int = 5) -> np.ndarray:
    """Centered moving average down the first axis, with shorter windows at
    the edges; the columns of a (S, m) array are smoothed independently.

    Each window's sum runs over the zero-padded input and is divided by the
    number of real entries in the window.  (One spare zero row keeps an
    empty input at least one window long.)
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    x = np.asarray(values, dtype=np.float64)
    half = window // 2
    n = x.shape[0]
    padded = np.zeros((n + window,) + x.shape[1:])
    padded[half:half + n] = x
    sums = sliding_window_view(padded, window, axis=0)[:n].sum(axis=-1)
    step = np.arange(n)
    counts = np.minimum(step + half + 1, n) - np.maximum(step - half, 0)
    return sums / counts.reshape((n,) + (1,) * (x.ndim - 1))


def rescale(rows: np.ndarray) -> np.ndarray:
    """Normalize each scene's weights over the selected descriptors.

    Rows must be nonnegative; an all-zero scene becomes uniform shares.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ValueError(f"expected (scenes, descriptors), got {rows.shape}")
    if np.any(rows < 0):
        raise ValueError("rescale expects nonnegative smoothed weights")
    totals = rows.sum(axis=1, keepdims=True)
    out = np.where(totals > 0, rows / np.where(totals == 0, 1.0, totals),
                   1.0 / rows.shape[1])
    return out


def select_descriptors(weights: np.ndarray, selection: str) -> list[int]:
    """Parse ``top:m`` (by mean weight) or a comma list of distinct
    indices."""
    k = weights.shape[1]
    if selection.startswith("top:"):
        m = int(selection.split(":", 1)[1])
        if m < 1:
            raise ValueError("top:m needs m >= 1")
        means = weights.mean(axis=0)
        order = sorted(range(k), key=lambda i: (-means[i], i))
        return sorted(order[:m])
    items = selection.split(",")
    if not selection.strip() or any(not tok.strip() for tok in items):
        raise ValueError(f"empty item in descriptor selection {selection!r}")
    indices = [int(tok) for tok in items]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate index in descriptor selection {selection!r}")
    for i in indices:
        if not 0 <= i < k:
            raise ValueError(f"descriptor index {i} out of range [0, {k})")
    return indices


def build_trajectories(weights: np.ndarray, selection: Sequence[int],
                       window: int = 5) -> list[Trajectory]:
    """Smooth and rescale the selected descriptor columns of (S, k) weights."""
    weights = np.asarray(weights, dtype=np.float64)
    shares = rescale(smooth(weights[:, list(selection)], window))
    return [Trajectory(descriptor=idx, rescaled=shares[:, j])
            for j, idx in enumerate(selection)]


# ---------------------------------------------------------------------------
# export


def export_csv(trajectories: Sequence[Trajectory]) -> str:
    header = "scene," + ",".join(f"descriptor_{t.descriptor}"
                                 for t in trajectories)
    lines = [header]
    n_scenes = trajectories[0].rescaled.size
    for s in range(n_scenes):
        cells = [str(s + 1)] + [repr(float(t.rescaled[s])) for t in trajectories]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> dict[int, np.ndarray]:
    lines = [l for l in text.splitlines() if l]
    names = lines[0].split(",")[1:]
    indices = [int(n.split("_", 1)[1]) for n in names]
    rows = [[float(c) for c in line.split(",")[1:]] for line in lines[1:]]
    data = np.asarray(rows)
    return {idx: data[:, j] for j, idx in enumerate(indices)}


def _inside_out_order(trajectories: Sequence[Trajectory]) -> list[int]:
    by_volume = sorted(range(len(trajectories)),
                       key=lambda j: (-float(trajectories[j].rescaled.sum()), j))
    order: list[int] = []
    for pos, j in enumerate(by_volume):
        if pos % 2 == 0:
            order.append(j)
        else:
            order.insert(0, j)
    return order


def export_svg(trajectories: Sequence[Trajectory],
               annotations: Sequence[tuple[int, str]] = (),
               title: str = "") -> str:
    """Streamgraph with symmetric baseline; byte-deterministic output."""
    n_scenes = trajectories[0].rescaled.size
    width, height = 800.0, 360.0
    margin_x, margin_top, margin_bottom = 50.0, 40.0, 30.0
    plot_w = width - 2 * margin_x
    plot_h = height - margin_top - margin_bottom

    def x_of(scene: int) -> float:
        if n_scenes == 1:
            return margin_x + plot_w / 2
        return margin_x + plot_w * scene / (n_scenes - 1)

    shares = np.stack([t.rescaled for t in trajectories], axis=1)
    order = _inside_out_order(trajectories)
    totals = shares.sum(axis=1)
    baseline = -totals / 2.0
    bottoms = np.empty_like(shares)
    tops = np.empty_like(shares)
    level = baseline.copy()
    for j in order:
        bottoms[:, j] = level
        level = level + shares[:, j]
        tops[:, j] = level

    def y_of(value: float) -> float:
        # value in [-0.5, 0.5] maps into the plot box, positive up
        return margin_top + plot_h * (0.5 - value)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{_esc(title)}</text>')
    for j, traj in enumerate(trajectories):
        color = PALETTE[traj.descriptor % len(PALETTE)]
        points = [f"{x_of(s):.3f},{y_of(bottoms[s, j]):.3f}" for s in range(n_scenes)]
        points += [f"{x_of(s):.3f},{y_of(tops[s, j]):.3f}"
                   for s in range(n_scenes - 1, -1, -1)]
        parts.append(f'<polygon points="{" ".join(points)}" fill="{color}" '
                     f'fill-opacity="0.85" stroke="none">'
                     f'<title>descriptor_{traj.descriptor}</title></polygon>')
        widest = int(np.argmax(shares[:, j]))
        label_y = y_of((bottoms[widest, j] + tops[widest, j]) / 2.0)
        parts.append(f'<text x="{x_of(widest):.3f}" y="{label_y:.3f}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11" fill="#222">d{traj.descriptor}</text>')
    for scene_no, label in annotations:
        x = x_of(scene_no - 1)
        parts.append(f'<line x1="{x:.3f}" y1="{margin_top:.1f}" x2="{x:.3f}" '
                     f'y2="{height - margin_bottom:.1f}" stroke="#333" '
                     'stroke-dasharray="4 3" stroke-width="1"/>')
        parts.append(f'<text x="{x:.3f}" y="{margin_top - 6:.1f}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12" font-weight="bold">{_esc(label)}</text>')
    axis_y = height - margin_bottom + 16
    parts.append(f'<text x="{margin_x:.1f}" y="{axis_y:.1f}" '
                 'font-family="sans-serif" font-size="10">scene 1</text>')
    parts.append(f'<text x="{width - margin_x:.1f}" y="{axis_y:.1f}" '
                 'text-anchor="end" font-family="sans-serif" font-size="10">'
                 f'scene {n_scenes}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def export(trajectories: Sequence[Trajectory], fmt: str,
           annotations: Sequence[tuple[int, str]] = (), title: str = "") -> str:
    if fmt == "csv":
        return export_csv(trajectories)
    if fmt == "svg":
        return export_svg(trajectories, annotations, title)
    raise UnknownFormat(f"unknown export format {fmt!r}")
