"""Self-contained SVG renderers for the pipeline's standard views.

Pure string assembly, no plotting dependency: grayscale matrix heatmaps,
2D scatters with optional enclosing-circle overlay, parallel-coordinate
line plots, and generic scatter charts. Output is standalone valid XML and
byte-identical for identical inputs. Parallel-coordinate polylines are
placed and formatted in bulk, with the same operations and the same
rounding as one point at a time, so their bytes are those of _fmt.
"""

from __future__ import annotations

import numpy as np

# Cluster palette, cycled when more groups than colors; ordered so that
# adjacent labels stay visually distinct.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#393b79", "#ad494a",
)


def group_color(label: int) -> str:
    return PALETTE[label % len(PALETTE)]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _document(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _text(x: float, y: float, content: str, size: int = 12, anchor: str = "start") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{content}</text>'
    )


class _Frame:
    """Maps data coordinates into a margined plot box, y growing upward."""

    def __init__(self, x_range, y_range, width=560, height=560, margin=50):
        self.width = width
        self.height = height
        self.margin = margin
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        self.x_lo, self.x_span = x_lo, (x_hi - x_lo) or 1.0
        self.y_lo, self.y_span = y_lo, (y_hi - y_lo) or 1.0
        self.box_w = width - 2 * margin
        self.box_h = height - 2 * margin

    def x(self, value: float) -> float:
        return self.margin + (value - self.x_lo) / self.x_span * self.box_w

    def y(self, value: float) -> float:
        return self.height - self.margin - (value - self.y_lo) / self.y_span * self.box_h

    def scale(self, value: float) -> float:
        return value / self.x_span * self.box_w

    def axes(self, x_label: str, y_label: str) -> list[str]:
        m, w, h = self.margin, self.width, self.height
        parts = [
            f'<rect x="{m}" y="{m}" width="{self.box_w}" height="{self.box_h}" '
            'fill="none" stroke="#333333" stroke-width="1"/>',
            _text(w / 2, h - 10, x_label, anchor="middle"),
            f'<text x="14" y="{_fmt(h / 2)}" font-family="sans-serif" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 14 {_fmt(h / 2)})">{y_label}</text>',
            _text(m, h - m + 16, _fmt(self.x_lo), size=10),
            _text(w - m, h - m + 16, _fmt(self.x_lo + self.x_span), size=10, anchor="end"),
            _text(m - 4, h - m, _fmt(self.y_lo), size=10, anchor="end"),
            _text(m - 4, m + 10, _fmt(self.y_lo + self.y_span), size=10, anchor="end"),
        ]
        return parts


def heatmap(matrix, title: str = "") -> str:
    """Grayscale heatmap: zero renders white, the largest entry black."""
    values = np.asarray(matrix, dtype=float)
    n_rows, n_cols = values.shape
    top = float(values.max()) if values.size else 0.0
    margin = 40
    cell = max(2, min(12, 560 // max(n_rows, n_cols)))
    width = margin * 2 + cell * n_cols
    height = margin * 2 + cell * n_rows
    body = []
    if title:
        body.append(_text(width / 2, 24, title, size=14, anchor="middle"))
    for i in range(n_rows):
        for j in range(n_cols):
            level = 255 if top == 0 else int(round(255 * (1.0 - values[i, j] / top)))
            body.append(
                f'<rect x="{margin + j * cell}" y="{margin + i * cell}" '
                f'width="{cell}" height="{cell}" fill="rgb({level},{level},{level})"/>'
            )
    body.append(
        f'<rect x="{margin}" y="{margin}" width="{cell * n_cols}" height="{cell * n_rows}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    return _document(width, height, body)


def scatter(
    points,
    labels=None,
    circles=None,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """2D scatter; labels pick palette colors, circles overlay (center, radius)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    circles = list(circles or [])
    xs, ys = pts[:, 0], pts[:, 1]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    for center, radius in circles:
        x_lo = min(x_lo, float(center[0]) - radius)
        x_hi = max(x_hi, float(center[0]) + radius)
        y_lo = min(y_lo, float(center[1]) - radius)
        y_hi = max(y_hi, float(center[1]) + radius)
    pad_x = 0.05 * ((x_hi - x_lo) or 1.0)
    pad_y = 0.05 * ((y_hi - y_lo) or 1.0)
    frame = _Frame((x_lo - pad_x, x_hi + pad_x), (y_lo - pad_y, y_hi + pad_y))

    body = frame.axes(x_label, y_label)
    if title:
        body.append(_text(frame.width / 2, 24, title, size=14, anchor="middle"))
    for center, radius in circles:
        body.append(
            f'<circle cx="{_fmt(frame.x(float(center[0])))}" cy="{_fmt(frame.y(float(center[1])))}" '
            f'r="{_fmt(frame.scale(radius))}" fill="none" stroke="#d62728" '
            'stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
    for i, (x, y) in enumerate(pts):
        color = group_color(int(labels[i])) if labels is not None else "#1f77b4"
        body.append(
            f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" r="3.5" '
            f'fill="{color}" fill-opacity="0.85"/>'
        )
    return _document(frame.width, frame.height, body)


def parallel_coordinates(rows, labels=None, title: str = "") -> str:
    """One polyline per row over evenly spaced component axes, shared y scale."""
    data = np.atleast_2d(np.asarray(rows, dtype=float))
    n_axes = data.shape[1]
    lo = min(0.0, float(data.min())) if data.size else 0.0
    hi = float(data.max()) if data.size else 1.0
    frame = _Frame((0, max(n_axes - 1, 1)), (lo, hi or 1.0), width=720, height=480)

    body = frame.axes("component", "energy")
    if title:
        body.append(_text(frame.width / 2, 24, title, size=14, anchor="middle"))
    # Every polyline crosses the same axes: format their x positions once.
    xs = [_fmt(frame.x(axis)) for axis in range(n_axes)]
    for axis, x in enumerate(xs):
        body.append(
            f'<line x1="{x}" y1="{frame.margin}" x2="{x}" '
            f'y2="{frame.height - frame.margin}" stroke="#dddddd" stroke-width="1"/>'
        )
        if axis % max(1, n_axes // 8) == 0 or axis == n_axes - 1:
            body.append(_text(frame.x(axis), frame.height - frame.margin + 16, str(axis), size=9, anchor="middle"))
    # All y positions at once, and one format per polyline: "%.2f" rounds as _fmt does.
    ys = frame.y(data)
    points = " ".join(f"{x},%.2f" for x in xs)
    for i, row in enumerate(ys.tolist()):
        color = group_color(int(labels[i])) if labels is not None else "#1f77b4"
        body.append(
            f'<polyline points="{points % tuple(row)}" fill="none" stroke="{color}" '
            'stroke-width="1" stroke-opacity="0.55"/>'
        )
    return _document(frame.width, frame.height, body)
