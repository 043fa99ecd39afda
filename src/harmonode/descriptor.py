"""Spherical force functions and rotation-invariant node signatures.

A node's force demands become a scalar function on the unit sphere: one
Gaussian bump per force, centred where the force's line of action meets the
sphere, scaled by its magnitude. Expanding that function in spherical
harmonics and keeping only per-degree energies yields a fixed-length vector
that does not depend on the node's orientation, so demands at differently
rotated connections can be compared directly.

Two kernels are offered. The coordinate kernel exponent is
-delta * ((theta - theta_i)^2 + wrapped(phi - phi_i)^2); the wrap to
(-pi, pi] removes the azimuth branch cut. Its descriptors are exactly
invariant (to round-off) only under the isometries of the (theta, phi)
chart: rotations about z and half-turns about horizontal axes. Under a
general rotation they change by order one, because a bump's area on the
sphere scales with sin(theta_i): the degree-0 energy of one unit bump is
0.0438 at theta_i = pi/2, 0.0379 at pi/3 and 0.0130 at 0.3. It is sampled
on a quadrature grid and projected. The geodesic kernel, the default, uses
the great-circle angle gamma and is isotropic, so the descriptor is rotation
invariant to round-off. It needs no grid: by the Funk-Hecke theorem, the
coefficients are exactly a_lm = lambda_l * sum_i a_i Y_lm(u_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _as_points, _distance_blocks
from .fea import COMPRESSION, TENSION, DemandEntry, NodalDemand
from .harmonics import (
    DEFAULT_L_MAX,
    QuadratureGrid,
    SphericalSamples,
    _degree_order,
    _gauss_legendre,
    _harmonics,
    build_grid,
    degree_energies,
    expand,
)

KERNEL_COORDINATE = "coordinate"
KERNEL_GEODESIC = "geodesic"
AMPLITUDE_MAGNITUDE = "magnitude"
AMPLITUDE_SIGNED = "signed"

DEFAULT_DELTA = 20.0

# Nodes expanded together in closed form; bounds the per-entry harmonic scratch.
_BLOCK_NODES = 16


@dataclass(frozen=True)
class ForceFunctionSpec:
    """Recipe for one node's force function: one bump per demand entry."""

    demand: NodalDemand
    delta: float = DEFAULT_DELTA
    amplitude_mode: str = AMPLITUDE_MAGNITUDE

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.amplitude_mode not in (AMPLITUDE_MAGNITUDE, AMPLITUDE_SIGNED):
            raise ValueError(f"unknown amplitude mode {self.amplitude_mode!r}")

    def amplitudes(self) -> list[float]:
        """Bump heights in entry order: magnitudes, or magnitudes signed by sense."""
        if self.amplitude_mode == AMPLITUDE_MAGNITUDE:
            return [e.magnitude for e in self.demand.entries]
        return [e.signed_magnitude() for e in self.demand.entries]


@dataclass(frozen=True)
class FeatureVector:
    """Per-degree energies of a node's force function; length l_max + 1."""

    components: tuple[float, ...]
    node: int | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, self.components)):
            raise ValueError("feature vector components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distances between node signatures, zero diagonal."""

    node_ids: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        n = len(self.node_ids)
        if self.values.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {self.values.shape}")
        if np.abs(self.values - self.values.T).max(initial=0.0) > 1e-12:
            raise ValueError("distance matrix must be symmetric")
        if np.abs(np.diag(self.values)).max(initial=0.0) != 0.0:
            raise ValueError("distance matrix diagonal must be zero")


def direction_angles(direction) -> tuple[float, float]:
    """Spherical angles of a unit direction: polar from +z, azimuth from +x."""
    x, y, z = (float(c) for c in direction)
    return math.acos(min(1.0, max(-1.0, z))), math.atan2(y, x)


def wrap_angle(delta_phi):
    """Wrap azimuth differences into (-pi, pi]."""
    return delta_phi - 2.0 * np.pi * np.ceil((delta_phi - np.pi) / (2.0 * np.pi))


def build_force_function(spec: ForceFunctionSpec, grid: QuadratureGrid) -> SphericalSamples:
    """Sample the node's coordinate-kernel force function on a quadrature grid.

    The function is the sum over demand entries of
    amplitude_i * exp(-delta * ((theta - theta_i)^2 + wrapped(phi - phi_i)^2)).
    An empty demand yields the zero function.
    """
    values = np.zeros((grid.n_theta, grid.n_phi))
    theta_col = grid.theta[:, None]
    phi_row = grid.phi[None, :]
    for entry, amp in zip(spec.demand.entries, spec.amplitudes()):
        theta_i, phi_i = direction_angles(entry.direction)
        d_theta = theta_col - theta_i
        d_phi = wrap_angle(phi_row - phi_i)
        values += amp * np.exp(-spec.delta * (d_theta * d_theta + d_phi * d_phi))
    return SphericalSamples(grid, values)


def node_expansions(
    demands: list[NodalDemand],
    delta: float = DEFAULT_DELTA,
    l_max: int = DEFAULT_L_MAX,
    grid: QuadratureGrid | None = None,
    kernel: str = KERNEL_GEODESIC,
    amplitude_mode: str = AMPLITUDE_MAGNITUDE,
) -> np.ndarray:
    """Harmonic coefficients of the nodes' force functions, one row per demand.

    Shape (len(demands), (l_max+1)**2), each row flat degree-major as in
    HarmonicExpansion. Geodesic expansions are closed form and ignore grid.
    Coordinate force functions are sampled on grid (default build_grid(l_max))
    and projected.
    """
    if kernel not in (KERNEL_COORDINATE, KERNEL_GEODESIC):
        raise ValueError(f"unknown kernel {kernel!r}")
    if l_max < 0:
        raise ValueError(f"l_max must be non-negative, got {l_max}")
    specs = [ForceFunctionSpec(d, delta, amplitude_mode) for d in demands]
    coefficients = np.zeros((len(specs), (l_max + 1) ** 2))
    if kernel == KERNEL_COORDINATE:
        grid = build_grid(l_max) if grid is None else grid
        for row, spec in zip(coefficients, specs):
            row[:] = expand(build_force_function(spec, grid), l_max).coefficients
        return coefficients

    eigenvalues = _geodesic_eigenvalues(delta, l_max)[_degree_order(l_max)[0]]
    for first in range(0, len(specs), _BLOCK_NODES):
        block = specs[first : first + _BLOCK_NODES]
        directions = np.array([e.direction for spec in block for e in spec.demand.entries])
        x, y, z = directions.reshape(-1, 3).T
        amplitudes = np.array([a for spec in block for a in spec.amplitudes()])
        theta, phi = np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)
        # entries are in node order, so each non-empty node sums one contiguous run
        counts = np.array([len(spec.demand.entries) for spec in block])
        starts = (np.cumsum(counts) - counts)[counts > 0]
        sums = np.add.reduceat(amplitudes[:, None] * _harmonics(l_max, theta, phi), starts, axis=0)
        coefficients[first + np.flatnonzero(counts)] = eigenvalues * sums
    return coefficients


def _geodesic_eigenvalues(delta: float, l_max: int) -> np.ndarray:
    """lambda_l = 2 pi * integral over [0, pi] of exp(-delta g^2) P_l(cos g) sin(g) dg.

    Gauss-Legendre in g, not cos(g), whose arccos is ill-conditioned at the
    bump's peak g = 0. 64 nodes reach round-off up to delta = 50; four per
    degree resolve P_l at high l_max.
    """
    x, w = _gauss_legendre(max(64, 4 * (l_max + 1)))
    gamma = 0.5 * np.pi * (x + 1.0)
    weights = np.pi * np.pi * w * np.exp(-delta * gamma * gamma) * np.sin(gamma)
    return np.polynomial.legendre.legvander(np.cos(gamma), l_max).T @ weights


def energy_vectors(demands: list[NodalDemand], coefficients: np.ndarray) -> list[FeatureVector]:
    """Each node's feature vector, in demand order: the per-degree energies of its coefficient row."""
    l_max = math.isqrt(coefficients.shape[1]) - 1
    energies = degree_energies(coefficients, l_max)
    return [FeatureVector(tuple(row), d.node) for d, row in zip(demands, energies.tolist())]


def node_feature_vectors(
    demands: list[NodalDemand],
    delta: float = DEFAULT_DELTA,
    l_max: int = DEFAULT_L_MAX,
    grid: QuadratureGrid | None = None,
    kernel: str = KERNEL_GEODESIC,
    amplitude_mode: str = AMPLITUDE_MAGNITUDE,
) -> list[FeatureVector]:
    """Feature vectors of many demands: the energies of their node_expansions."""
    return energy_vectors(demands, node_expansions(demands, delta, l_max, grid, kernel, amplitude_mode))


def distance_matrix(vectors: list[FeatureVector]) -> DistanceMatrix:
    """All pairwise distances; rows follow the input vector order."""
    points, node_ids = _as_points(vectors)
    if not node_ids:
        raise ValueError("at least one feature vector is required")
    values = np.vstack(list(_distance_blocks(points)))
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(node_ids=node_ids, values=values)


def equilibrium_perturbation(
    demand: NodalDemand,
    moving_entry: int,
    t: float,
    applied,
    target_direction,
) -> NodalDemand:
    """Slide one entry along a great-circle arc, rebalancing all magnitudes.

    The moving entry's direction is interpolated along the great circle from
    its current direction to target_direction (t = 0 returns the original
    demand). All signed magnitudes are then re-solved as the minimum-norm
    change keeping the node in equilibrium with the applied force:
    sum_i c_i u_i + applied = 0. Raises ValueError when the directions cannot
    equilibrate the applied force (rank-deficient set) or when the arc is
    degenerate (antipodal endpoints).
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"arc parameter must lie in [0, 1], got {t}")
    if not 0 <= moving_entry < len(demand.entries):
        raise ValueError(
            f"moving_entry {moving_entry} out of range for {len(demand.entries)} entries"
        )
    applied_vec = np.asarray(
        applied.as_tuple() if hasattr(applied, "as_tuple") else applied, dtype=float
    )

    directions = np.array([e.direction for e in demand.entries], dtype=float)
    start = directions[moving_entry]
    moved = _slerp(start, _normalize(target_direction), t)
    directions[moving_entry] = moved

    signed = np.array([e.signed_magnitude() for e in demand.entries])
    span = directions.T  # 3 x n
    residual = -applied_vec - span @ signed
    correction, *_ = np.linalg.lstsq(span, residual, rcond=None)
    new_signed = signed + correction

    closure = float(np.linalg.norm(span @ new_signed + applied_vec))
    scale = float(np.linalg.norm(applied_vec))
    tolerance = 1e-9 * scale if scale > 0 else 1e-9 * max(1.0, float(np.linalg.norm(signed)))
    if closure > tolerance:
        raise ValueError(
            f"direction set cannot equilibrate the applied force "
            f"(residual {closure:.3e} > {tolerance:.3e}); the set is rank-deficient"
        )

    entries = []
    for i, value in enumerate(new_signed):
        direction = tuple(float(c) for c in directions[i])
        sense = TENSION if value >= 0 else COMPRESSION
        entries.append(DemandEntry(direction=direction, magnitude=abs(float(value)), sense=sense))
    return NodalDemand(node=demand.node, entries=tuple(entries))


def _normalize(direction) -> np.ndarray:
    v = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("target direction must be non-zero")
    return v / norm


def _slerp(u0: np.ndarray, u1: np.ndarray, t: float) -> np.ndarray:
    cos_omega = float(np.clip(u0 @ u1, -1.0, 1.0))
    omega = math.acos(cos_omega)
    if omega < 1e-12:
        return u0.copy()
    if math.pi - omega < 1e-9:
        raise ValueError("arc endpoints are antipodal; the great circle is not unique")
    out = (math.sin((1.0 - t) * omega) * u0 + math.sin(t * omega) * u1) / math.sin(omega)
    return out / float(np.linalg.norm(out))
