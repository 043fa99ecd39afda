"""Real spherical-harmonic basis, quadrature grids, expansion and energies.

The basis is the fully normalized real spherical harmonic set: orthonormal
under the surface integral over the unit sphere, with the Condon-Shortley
phase folded into the Legendre recurrence (documented so independent oracles
can reproduce signs; the per-degree energies are phase-independent).

Functions on the sphere are sampled on a product grid of Gauss-Legendre
nodes in cos(theta) times uniformly spaced phi. The product rule integrates
products of two band-limited functions exactly, so expansion coefficients of
band-limited inputs are exact up to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_L_MAX = 16
# Lands n_theta = 64 (n_phi = 128) for l_max = 16; calibrated so per-degree
# energies of force functions are stable under grid doubling.
DEFAULT_OVERSAMPLE = 1.88


class QuadratureGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta), uniform phi.

    Immutable after construction; a single grid may serve any number of
    concurrent expansions. Serves expansions up to l_max with
    n_theta >= 2 * (l_max + 1).
    """

    def __init__(self, n_theta: int, n_phi: int):
        if n_theta < 2 or n_phi < 2:
            raise ValueError(f"grid must have at least 2 nodes per axis, got {n_theta}x{n_phi}")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        x, w = _gauss_legendre(self.n_theta)
        self.weights = w
        self.theta = np.arccos(np.clip(x, -1.0, 1.0))
        self.phi = np.arange(self.n_phi) * (2.0 * np.pi / self.n_phi)
        self.delta_phi = 2.0 * np.pi / self.n_phi

    def integrate(self, values: np.ndarray) -> float:
        """Surface integral of grid samples: sum_j sum_k w_j * dphi * f[j, k]."""
        return float(self.weights @ values.sum(axis=1) * self.delta_phi)

    def norm2(self, values: np.ndarray) -> float:
        """L2 norm of grid samples under the quadrature measure."""
        return math.sqrt(max(self.integrate(values * values), 0.0))

    def __repr__(self) -> str:
        return f"QuadratureGrid({self.n_theta}x{self.n_phi})"


@dataclass(frozen=True)
class SphericalSamples:
    """Real-valued samples of a spherical function on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_theta, self.grid.n_phi)
        if self.values.shape != expected:
            raise ValueError(f"sample shape {self.values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample values must be finite")


@dataclass(frozen=True)
class HarmonicExpansion:
    """Truncated coefficients a_lm of a spherical function.

    Coefficients are stored flat, degree-major: index(l, m) = l*l + l + m,
    covering 0 <= l <= l_max and -l <= m <= l.
    """

    l_max: int
    coefficients: np.ndarray

    def __post_init__(self):
        expected = (self.l_max + 1) ** 2
        if self.coefficients.shape != (expected,):
            raise ValueError(
                f"expected {expected} coefficients for l_max={self.l_max}, "
                f"got shape {self.coefficients.shape}"
            )
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")

    def rows(self):
        """Iterate (l, m, a_lm) in storage order as Python numbers, for CSV export."""
        l, m, _ = _degree_order(self.l_max)
        return zip(l.tolist(), m.tolist(), self.coefficients.tolist())


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_table(l_max: int, x: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values, shape (l_max+1, l_max+1, len(x)).

    Entry [l, m] holds P_lm(x) normalized so the real harmonics built from it
    are orthonormal; Condon-Shortley phase included. The (l, m) recurrence
    uses only ratios of small integers, stable with no factorial overflow
    well past l = 64.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    table = np.zeros((l_max + 1, l_max + 1) + x.shape)
    table[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, l_max + 1):
        table[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * table[m - 1, m - 1]
    for m in range(l_max):
        table[m + 1, m] = math.sqrt(2.0 * m + 3.0) * x * table[m, m]
    for m in range(l_max + 1):
        for l in range(m + 2, l_max + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            table[l, m] = a * (x * table[l - 1, m] - b * table[l - 2, m])
    return table


@lru_cache(maxsize=16)
def _degree_order(l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree l, order m and basis scale of each flat index l*l + l + m.

    The scale is 1 for m = 0 and sqrt(2) otherwise; m < 0 pairs with
    sin(|m| phi) and m >= 0 with cos(m phi).
    """
    l = np.repeat(np.arange(l_max + 1), 2 * np.arange(l_max + 1) + 1)
    m = np.arange((l_max + 1) ** 2) - l * l - l
    scale = np.where(m == 0, 1.0, math.sqrt(2.0))
    for column in (l, m, scale):
        column.setflags(write=False)
    return l, m, scale


def _harmonics(l_max: int, theta, phi) -> np.ndarray:
    """Every real harmonic up to l_max at broadcast (theta, phi).

    The last axis holds the (l_max+1)**2 harmonics in storage order.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    l, m, scale = _degree_order(l_max)
    order = np.abs(m)
    plm = np.moveaxis(_legendre_table(l_max, np.cos(theta)), (0, 1), (-2, -1))[..., l, order]
    m_phi = phi[..., None] * np.arange(l_max + 1)
    trig = np.where(m < 0, np.sin(m_phi)[..., order], np.cos(m_phi)[..., order])
    return scale * plm * trig


@lru_cache(maxsize=16)
def _grid_legendre_table(n_theta: int, l_max: int) -> np.ndarray:
    table = _legendre_table(l_max, _gauss_legendre(n_theta)[0])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _grid_trig_table(n_phi: int, l_max: int) -> tuple[np.ndarray, np.ndarray]:
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    orders = np.arange(l_max + 1)[:, None]
    cos_t = np.cos(orders * phi[None, :])
    sin_t = np.sin(orders * phi[None, :])
    cos_t.setflags(write=False)
    sin_t.setflags(write=False)
    return cos_t, sin_t


def build_grid(l_max: int) -> QuadratureGrid:
    """Build a grid able to expand up to l_max: n_theta >= 2(l_max+1), n_phi = 2 n_theta.

    Force functions are not band limited, so the node count is scaled by
    DEFAULT_OVERSAMPLE for headroom above the exactness threshold; build a
    QuadratureGrid directly for any other resolution.
    """
    if l_max < 0:
        raise ValueError(f"l_max must be non-negative, got {l_max}")
    base = 2 * (l_max + 1)
    n_theta = max(base, math.ceil(DEFAULT_OVERSAMPLE * base))
    return QuadratureGrid(n_theta, 2 * n_theta)


def expand(samples: SphericalSamples, l_max: int) -> HarmonicExpansion:
    """Project grid samples onto the basis: a_lm = sum w_j dphi f(j,k) Y_lm(j,k).

    Exact to round-off for inputs band limited at or below l_max. Raises
    ValueError when the grid is too coarse for the requested degree.
    """
    grid = samples.grid
    if grid.n_theta < 2 * (l_max + 1):
        raise ValueError(
            f"grid with n_theta={grid.n_theta} is too coarse for l_max={l_max}; "
            f"need n_theta >= {2 * (l_max + 1)}"
        )
    cos_t, sin_t = _grid_trig_table(grid.n_phi, l_max)
    plm = _grid_legendre_table(grid.n_theta, l_max)

    # Separable transform: azimuthal projection first, then weighted polar sum.
    g_cos = samples.values @ cos_t.T * grid.delta_phi  # (n_theta, l_max+1)
    g_sin = samples.values @ sin_t.T * grid.delta_phi
    weighted = plm * grid.weights[None, None, :]  # (l, m, n_theta)

    a_cos = np.einsum("lmj,jm->lm", weighted, g_cos)
    a_sin = np.einsum("lmj,jm->lm", weighted, g_sin)
    l, m, scale = _degree_order(l_max)
    order = np.abs(m)
    coeffs = scale * np.where(m < 0, a_sin[l, order], a_cos[l, order])
    return HarmonicExpansion(l_max=l_max, coefficients=coeffs)


def reconstruct_on_grid(expansion: HarmonicExpansion, grid: QuadratureGrid) -> np.ndarray:
    """Synthesize the truncated series at every point of a grid."""
    l, m, scale = _degree_order(expansion.l_max)
    order = np.abs(m)
    plm = _grid_legendre_table(grid.n_theta, expansion.l_max)[l, order]
    cos_t, sin_t = _grid_trig_table(grid.n_phi, expansion.l_max)
    trig = np.where((m < 0)[:, None], sin_t[order], cos_t[order])
    return ((scale * expansion.coefficients)[:, None] * plm).T @ trig


def truncation_error(samples: SphericalSamples, expansion: HarmonicExpansion) -> float:
    """Relative L2 residual of the truncated series against the samples.

    The series is synthesized on the samples' grid and both norms use its
    quadrature. Raises ValueError for a zero input (relative error undefined).
    """
    denom = samples.grid.norm2(samples.values)
    if denom == 0.0:
        raise ValueError("relative truncation error is undefined for a zero function")
    residual = samples.values - reconstruct_on_grid(expansion, samples.grid)
    return samples.grid.norm2(residual) / denom


def degree_energies(coefficients: np.ndarray, l_max: int) -> np.ndarray:
    """Per-degree energies of every row of flat coefficients, shape (rows, l_max+1).

    Component l of a row is sqrt(sum_m a_lm^2). Each degree spans a
    rotation-closed subspace, so these are invariant to rigid rotation of the
    underlying function. One batched (1 x k)(k x 1) product per degree sums
    each row's squares with the dot kernel of block @ block, so a row's
    energies do not depend on the rows batched with it.
    """
    rows = np.asarray(coefficients, dtype=float).reshape(-1, (l_max + 1) ** 2)
    squares = np.empty((len(rows), l_max + 1))
    for l in range(l_max + 1):
        block = rows[:, l * l : (l + 1) * (l + 1)]
        squares[:, l] = (block[:, None, :] @ block[:, :, None])[:, 0, 0]
    return np.sqrt(squares)
