"""Shared fixtures: benchmark models with closed-form solutions and helpers."""

import math
from pathlib import Path

import numpy as np
import pytest

from harmonode.descriptor import ForceFunctionSpec
from harmonode.fea import COMPRESSION, TENSION, DemandEntry, NodalDemand
from harmonode.generator import GridTrussParams, generate_grid_truss
from harmonode.harmonics import QuadratureGrid, SphericalSamples
from harmonode.model import Point3, PointLoad, Support, TrussElement, TrussModel, TrussNode

DOCS = Path(__file__).resolve().parent.parent / "docs"

STEEL_E = 200e9
BAR_AREA = 1e-3


def two_bar_model(height=1.0, half_span=1.0, load=1000.0, restrain_apex_y=True):
    """Symmetric A-frame: two bars from pinned feet up to a loaded apex.

    Closed form: each bar carries N = -P / (2 cos(alpha)) in compression,
    where alpha is the bar angle from vertical. The apex is restrained out
    of plane (y) so the planar problem is well posed in 3D.
    """
    apex_fix = (False, True, False) if restrain_apex_y else (False, False, False)
    return TrussModel(
        nodes=(
            TrussNode(0, Point3(-half_span, 0.0, 0.0)),
            TrussNode(1, Point3(half_span, 0.0, 0.0)),
            TrussNode(2, Point3(0.0, 0.0, height)),
        ),
        elements=(
            TrussElement(0, 0, 2, BAR_AREA, STEEL_E),
            TrussElement(1, 1, 2, BAR_AREA, STEEL_E),
        ),
        supports=(
            Support(0, (True, True, True)),
            Support(1, (True, True, True)),
            Support(2, apex_fix),
        ),
        loads=(PointLoad(2, Point3(0.0, 0.0, -load), "default"),),
        name="two-bar",
    )


def two_bar_closed_form(height, half_span, load):
    """Axial force of each bar: -P / (2 cos(alpha)), alpha from vertical."""
    length = np.hypot(half_span, height)
    cos_alpha = height / length
    return -load / (2.0 * cos_alpha)


def single_bar_model(length=2.0, load=500.0):
    """One horizontal bar, pinned at one end, axial tip load at the other.

    Closed form: N = P exactly, tip displacement P L / (E A).
    """
    return TrussModel(
        nodes=(TrussNode(0, Point3(0.0, 0.0, 0.0)), TrussNode(1, Point3(length, 0.0, 0.0))),
        elements=(TrussElement(0, 0, 1, BAR_AREA, STEEL_E),),
        supports=(Support(0, (True, True, True)), Support(1, (False, True, True))),
        loads=(PointLoad(1, Point3(load, 0.0, 0.0), "default"),),
        name="single-bar",
    )


def flat_benchmark_params(nx=7, ny=7):
    """Flat parallel-chord space frame: 18 m square plan, 1 m deep.

    The standard double-layer grid configuration (span/depth 18); doubly
    symmetric, so mirror twins and identical corner supports exist for the
    symmetry checks. Loading is a uniform 20 kN gravity load per top node.
    """
    return GridTrussParams(
        nx=nx, ny=ny, bay=3.0, control_heights=((0.0, 0.0), (0.0, 0.0)), depth=1.0
    )


def oversampled_grid(l_max: int, oversample: float) -> QuadratureGrid:
    """The smallest grid for l_max, its node count scaled by oversample (at least 1)."""
    base = 2 * (l_max + 1)
    n_theta = max(base, math.ceil(oversample * base))
    return QuadratureGrid(n_theta, 2 * n_theta)


def grid_unit_vectors(grid: QuadratureGrid) -> np.ndarray:
    """Cartesian unit vectors of every grid point, shape (n_theta, n_phi, 3)."""
    theta, phi = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def sample_geodesic(spec: ForceFunctionSpec, grid: QuadratureGrid) -> SphericalSamples:
    """Reference geodesic force function, evaluated point by point on a grid.

    The sum over entries of amplitude_i * exp(-delta * gamma_i^2), gamma_i
    the great-circle angle to the entry's direction. Expanded on a fine
    enough grid, it is the oracle for the closed-form geodesic expansion.
    """
    mesh = grid_unit_vectors(grid)
    values = np.zeros((grid.n_theta, grid.n_phi))
    for entry, amp in zip(spec.demand.entries, spec.amplitudes()):
        gap = np.arccos(np.clip(mesh @ np.asarray(entry.direction), -1.0, 1.0))
        values += amp * np.exp(-spec.delta * gap * gap)
    return SphericalSamples(grid, values)


def random_rotation(rng) -> np.ndarray:
    """Uniform random rotation matrix from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_polar_rotation(rng) -> np.ndarray:
    """Uniform random rotation that maps the polar axis to itself or its opposite.

    Rz(alpha) with alpha ~ U[0, 2 pi), followed with probability 1/2 by the
    half-turn diag(1, -1, -1) about the x axis; together these reach every
    half-turn about a horizontal axis.
    """
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(alpha), np.sin(alpha)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if rng.random() < 0.5:
        rotation = rotation @ np.diag([1.0, -1.0, -1.0])
    return rotation


def rotate_demand(demand: NodalDemand, rotation: np.ndarray) -> NodalDemand:
    entries = []
    for entry in demand.entries:
        v = rotation @ np.asarray(entry.direction)
        v /= np.linalg.norm(v)
        entries.append(DemandEntry(tuple(float(c) for c in v), entry.magnitude, entry.sense))
    return NodalDemand(demand.node, tuple(entries))


def random_demand(rng, n_entries=None, node=0) -> NodalDemand:
    """Demand with uniformly random unit directions and mixed senses."""
    n = int(rng.integers(3, 9)) if n_entries is None else n_entries
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    magnitudes = rng.uniform(1e3, 5e4, size=n)
    entries = tuple(
        DemandEntry(
            tuple(float(c) for c in d),
            float(m),
            TENSION if rng.random() < 0.5 else COMPRESSION,
        )
        for d, m in zip(directions, magnitudes)
    )
    return NodalDemand(node, entries)


@pytest.fixture(scope="session")
def example_model_path() -> Path:
    return DOCS / "example.truss.json"


@pytest.fixture(scope="session")
def flat_model():
    return generate_grid_truss(flat_benchmark_params())
