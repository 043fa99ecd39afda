import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from harmonode.svgplot import _document, _fmt, _Frame, _text, group_color, parallel_coordinates


def reference_parallel_coordinates(rows, labels=None, title: str = "") -> str:
    """parallel_coordinates with every point placed by _Frame.y and formatted by _fmt."""
    data = np.atleast_2d(np.asarray(rows, dtype=float))
    n_rows, n_axes = data.shape
    lo = min(0.0, float(data.min()))
    hi = float(data.max())
    frame = _Frame((0, max(n_axes - 1, 1)), (lo, hi or 1.0), width=720, height=480)
    body = frame.axes("component", "energy")
    if title:
        body.append(_text(frame.width / 2, 24, title, size=14, anchor="middle"))
    xs = [_fmt(frame.x(axis)) for axis in range(n_axes)]
    for axis, x in enumerate(xs):
        body.append(
            f'<line x1="{x}" y1="{frame.margin}" x2="{x}" '
            f'y2="{frame.height - frame.margin}" stroke="#dddddd" stroke-width="1"/>'
        )
        if axis % max(1, n_axes // 8) == 0 or axis == n_axes - 1:
            body.append(_text(frame.x(axis), frame.height - frame.margin + 16, str(axis), size=9, anchor="middle"))
    for i in range(n_rows):
        points = " ".join(f"{x},{_fmt(frame.y(value))}" for x, value in zip(xs, data[i]))
        color = group_color(int(labels[i])) if labels is not None else "#1f77b4"
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1" stroke-opacity="0.55"/>'
        )
    return _document(frame.width, frame.height, body)


class TestParallelCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(
        data=arrays(
            float,
            st.tuples(st.integers(1, 12), st.integers(1, 20)),
            elements=st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 0.005, -1.125]),
        ),
        labelled=st.booleans(),
    )
    def test_bytes_equal_one_point_at_a_time(self, data, labelled):
        labels = np.arange(len(data)) % 13 if labelled else None
        assert parallel_coordinates(data, labels, "t") == reference_parallel_coordinates(data, labels, "t")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bytes_equal_on_signature_like_rows(self, seed):
        rng = np.random.default_rng(seed)
        data = np.abs(rng.normal(size=(85, 17))) * 10.0 ** rng.uniform(0, 6, size=(85, 1))
        data[::7] = 0.0  # all-zero rows
        data[1::5] *= -1.0  # negative values
        labels = rng.integers(0, 12, size=85)
        assert parallel_coordinates(data, labels) == reference_parallel_coordinates(data, labels)

    def test_bytes_equal_on_rounding_edges(self):
        # With y_lo 0 and y_span 380, y = 430 - v, so v picks y near a .xx5 tie.
        targets = np.array([[0.005, 0.015, 0.125, 1.005, 2.675, 10.345, 100.995, 380.0]])
        data = np.vstack([targets, 380.0 - targets, np.zeros_like(targets)])
        assert parallel_coordinates(data) == reference_parallel_coordinates(data)

    def test_zero_rows_draw_the_axes_only(self):
        svg = parallel_coordinates(np.empty((0, 17)), labels=np.empty(0, dtype=int), title="none")
        root = ET.fromstring(svg)
        tags = [child.tag.rsplit("}", 1)[1] for child in root]
        assert "polyline" not in tags
        assert tags.count("line") == 17
