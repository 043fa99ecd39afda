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

from .fea import COMPRESSION, TENSION, DemandEntry, NodalDemand
from .harmonics import (
    DEFAULT_L_MAX,
    HarmonicExpansion,
    QuadratureGrid,
    SphericalSamples,
    _degree_order,
    _harmonics,
    build_grid,
    expand,
    frequency_energies,
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
    load_case: str | None = None

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.components):
            raise ValueError("feature vector components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(self.components)

    def __len__(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class FeatureMatrix:
    """One node's feature vectors across load cases, in a fixed case order."""

    node: int | None
    cases: tuple[str, ...]
    vectors: tuple[FeatureVector, ...]

    def __post_init__(self):
        if len(self.cases) != len(self.vectors):
            raise ValueError("one vector per case required")
        lengths = {len(v) for v in self.vectors}
        if len(lengths) > 1:
            raise ValueError(f"inconsistent vector lengths across cases: {sorted(lengths)}")

    def as_array(self) -> np.ndarray:
        return np.array([v.components for v in self.vectors])


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
) -> list[HarmonicExpansion]:
    """Harmonic expansions of the nodes' force functions, in demand order.

    Geodesic expansions are closed form and ignore grid. Coordinate force
    functions are sampled on grid (default build_grid(l_max)) and projected.
    """
    if kernel not in (KERNEL_COORDINATE, KERNEL_GEODESIC):
        raise ValueError(f"unknown kernel {kernel!r}")
    if l_max < 0:
        raise ValueError(f"l_max must be non-negative, got {l_max}")
    specs = [ForceFunctionSpec(d, delta, amplitude_mode) for d in demands]
    if kernel == KERNEL_COORDINATE:
        grid = build_grid(l_max) if grid is None else grid
        return [expand(build_force_function(spec, grid), l_max) for spec in specs]

    degree = _degree_order(l_max)[0]
    eigenvalues = _geodesic_eigenvalues(delta, l_max)[degree]
    expansions = []
    for first in range(0, len(specs), _BLOCK_NODES):
        block = specs[first : first + _BLOCK_NODES]
        directions = np.array([e.direction for spec in block for e in spec.demand.entries])
        x, y, z = directions.reshape(-1, 3).T
        amplitudes = np.array([a for spec in block for a in spec.amplitudes()])
        theta, phi = np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x)
        terms = amplitudes[:, None] * _harmonics(l_max, theta, phi)
        # entries are in node order, so each non-empty node sums one contiguous run
        counts = np.array([len(spec.demand.entries) for spec in block])
        filled = counts > 0
        sums = np.zeros((len(block), degree.size))
        sums[filled] = np.add.reduceat(terms, (np.cumsum(counts) - counts)[filled], axis=0)
        expansions += [HarmonicExpansion(l_max, eigenvalues * row) for row in sums]
    return expansions


def _geodesic_eigenvalues(delta: float, l_max: int) -> np.ndarray:
    """lambda_l = 2 pi * integral over [0, pi] of exp(-delta g^2) P_l(cos g) sin(g) dg.

    Gauss-Legendre in g, not cos(g), whose arccos is ill-conditioned at the
    bump's peak g = 0. 64 nodes reach round-off up to delta = 50; four per
    degree resolve P_l at high l_max.
    """
    x, w = np.polynomial.legendre.leggauss(max(64, 4 * (l_max + 1)))
    gamma = 0.5 * np.pi * (x + 1.0)
    weights = np.pi * np.pi * w * np.exp(-delta * gamma * gamma) * np.sin(gamma)
    return np.polynomial.legendre.legvander(np.cos(gamma), l_max).T @ weights


def energy_vector(
    expansion: HarmonicExpansion, node: int | None = None, load_case: str | None = None
) -> FeatureVector:
    """A node's feature vector: the per-degree energies of its expansion."""
    energies = frequency_energies(expansion)
    return FeatureVector(components=tuple(float(e) for e in energies), node=node, load_case=load_case)


def node_feature_vectors(
    demands: list[NodalDemand],
    delta: float = DEFAULT_DELTA,
    l_max: int = DEFAULT_L_MAX,
    grid: QuadratureGrid | None = None,
    kernel: str = KERNEL_GEODESIC,
    amplitude_mode: str = AMPLITUDE_MAGNITUDE,
    load_case: str | None = None,
) -> list[FeatureVector]:
    """Feature vectors of many demands: the energies of their node_expansions."""
    expansions = node_expansions(demands, delta, l_max, grid, kernel, amplitude_mode)
    return [energy_vector(e, d.node, load_case) for d, e in zip(demands, expansions)]


def distance(a: FeatureVector, b: FeatureVector) -> float:
    """Euclidean distance between two signatures of equal length."""
    if len(a) != len(b):
        raise ValueError(f"feature vector lengths differ: {len(a)} vs {len(b)}")
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def distance_matrix(vectors: list[FeatureVector]) -> DistanceMatrix:
    """All pairwise distances; rows follow the input vector order."""
    if not vectors:
        raise ValueError("at least one feature vector is required")
    lengths = {len(v) for v in vectors}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent feature vector lengths: {sorted(lengths)}")
    points = np.array([v.components for v in vectors])
    deltas = points[:, None, :] - points[None, :, :]
    values = np.sqrt((deltas * deltas).sum(axis=-1))
    np.fill_diagonal(values, 0.0)
    node_ids = tuple(v.node if v.node is not None else i for i, v in enumerate(vectors))
    return DistanceMatrix(node_ids=node_ids, values=values)


def feature_matrix_distance(a: FeatureMatrix, b: FeatureMatrix) -> float:
    """Euclidean distance over all concatenated per-case components."""
    if a.cases != b.cases:
        raise ValueError(f"case sets differ: {a.cases} vs {b.cases}")
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def feature_matrices(case_vectors: dict[str, list[FeatureVector]]) -> list[FeatureMatrix]:
    """Group per-case vector lists into one FeatureMatrix per node.

    Every case must cover the same node set; cases keep the mapping's order
    so matrices stay mutually comparable.
    """
    if not case_vectors:
        raise ValueError("at least one load case is required")
    cases = tuple(case_vectors)
    node_orders = [tuple(v.node for v in vectors) for vectors in case_vectors.values()]
    if any(order != node_orders[0] for order in node_orders[1:]):
        raise ValueError("load cases cover different node sets or orders")
    matrices = []
    for i, node in enumerate(node_orders[0]):
        matrices.append(
            FeatureMatrix(
                node=node,
                cases=cases,
                vectors=tuple(case_vectors[case][i] for case in cases),
            )
        )
    return matrices


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
