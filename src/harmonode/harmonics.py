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


@lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=16)
def _legendre_q_coefficients(l_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors a[l, m], b[l, m] and the diagonal Q_mm of _legendre_q, shaped to broadcast over points."""
    l = np.arange(l_max + 1.0)[:, None]
    m = np.arange(l_max + 1.0)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(m < l, np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)), 0.0)
        b = np.where(m < l - 1.0, np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)), 0.0)
    k = np.arange(1.0, l_max + 1.0)
    diagonal = np.cumprod(np.append(1.0 / math.sqrt(4.0 * math.pi), -np.sqrt((2.0 * k + 1.0) / (2.0 * k))))
    for factor in (a, b, diagonal):
        factor.setflags(write=False)
    return a[..., None], b[..., None], diagonal


def _legendre_q(l_max: int, z: np.ndarray):
    """Yield, for l = 0..l_max, Q_lm(z) = P_lm(z) / (1 - z^2)^(m/2) for m = 0..l, shape (l+1, len(z)).

    P_lm is fully normalized, so the real harmonics built from it are
    orthonormal, with the Condon-Shortley phase. Q_lm is a polynomial in z:
    Q_mm is a constant, and one degree step
    Q_lm = a_lm (z Q_l-1,m - b_lm Q_l-2,m) updates every order m < l at once
    (at m = l - 1 there is no Q_l-2,m term). The factors are ratios of small
    integers, with no factorial overflow well past l = 64.
    """
    a, b, diagonal = _legendre_q_coefficients(l_max)
    older = previous = np.empty((0, len(z)))
    for l in range(l_max + 1):
        q = np.empty((l + 1, len(z)))
        np.multiply(z, previous, out=q[:l])
        q[: len(older)] -= b[l, : len(older)] * older
        q[:l] *= a[l, :l]
        q[l] = diagonal[l]
        yield q
        older, previous = previous, q


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


def _coefficient_rows(coefficients) -> tuple[np.ndarray, int]:
    """Flat coefficient rows as an array, finite, and the l_max that their (l_max+1)**2 width fixes."""
    rows = np.atleast_1d(np.asarray(coefficients, dtype=float))
    l_max = math.isqrt(rows.shape[-1]) - 1
    if l_max < 0 or (l_max + 1) ** 2 != rows.shape[-1]:
        raise ValueError(f"expected (l_max+1)**2 coefficients per row, got {rows.shape[-1]}")
    if not np.isfinite(rows).all():
        raise ValueError("coefficients must be finite")
    return rows, l_max


def _harmonics(l_max: int, units: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights_i * Y_lm(u_i) for unit rows u_i, shape ((l_max+1)**2, n), row l*l + l + m.

    Since x + i y = sin(theta) e^(i phi), Y_lm is scale_m Q_lm(z) times the
    real part of (x + i y)^m for m >= 0 and the imaginary part of
    (x + i y)^|m| for m < 0. The powers come from the complex product
    c, s <- x c - y s, x s + y c, seeded with the weights (and the basis scale
    sqrt(2) from m = 1 on), so no angle is formed: a signed zero coordinate
    gives signed zeros, and the reflections x -> -x, y -> -y and z -> -z flip
    the signs of whole rows exactly.
    """
    x, y, z = units.T
    c = np.empty((l_max + 1, len(z)))
    s = np.empty_like(c)
    c[0], s[0] = weights, 0.0
    if l_max:
        scaled = math.sqrt(2.0) * weights
        c[1], s[1] = scaled * x, scaled * y
    for m in range(1, l_max):
        c[m + 1] = x * c[m] - y * s[m]
        s[m + 1] = x * s[m] + y * c[m]
    out = np.empty(((l_max + 1) ** 2, len(z)))
    for l, q in enumerate(_legendre_q(l_max, z)):
        np.multiply(q, c[: l + 1], out=out[l * l + l : (l + 1) ** 2])
        np.multiply(q[:0:-1], s[l:0:-1], out=out[l * l : l * l + l])
    return out


@lru_cache(maxsize=16)
def _grid_legendre_table(n_theta: int, l_max: int) -> np.ndarray:
    """Fully normalized P_lm at the Gauss nodes, shape (l_max+1, l_max+1, n_theta): Q_lm times sin^m(theta)."""
    x = _gauss_legendre(n_theta)[0]
    table = np.zeros((l_max + 1, l_max + 1, n_theta))
    for l, q in enumerate(_legendre_q(l_max, x)):
        table[l, : l + 1] = q
    table *= np.sqrt(1.0 - x * x) ** np.arange(l_max + 1.0)[:, None]
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


def expand(samples: SphericalSamples, l_max: int) -> np.ndarray:
    """Project grid samples onto the basis: a_lm = sum w_j dphi f(j,k) Y_lm(j,k).

    Returns the flat row of (l_max+1)**2 coefficients, a_lm at l*l + l + m.
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
    return scale * np.where(m < 0, a_sin[l, order], a_cos[l, order])


def reconstruct_on_grid(coefficients: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Synthesize the truncated series of one coefficient row at every point of a grid."""
    coefficients, l_max = _coefficient_rows(coefficients)
    l, m, scale = _degree_order(l_max)
    order = np.abs(m)
    plm = _grid_legendre_table(grid.n_theta, l_max)[l, order]
    cos_t, sin_t = _grid_trig_table(grid.n_phi, l_max)
    trig = np.where((m < 0)[:, None], sin_t[order], cos_t[order])
    return ((scale * coefficients)[:, None] * plm).T @ trig


def truncation_error(samples: SphericalSamples, coefficients: np.ndarray) -> float:
    """Relative L2 residual of the truncated series against the samples.

    The series is synthesized on the samples' grid and both norms use its
    quadrature. Raises ValueError for a zero input (relative error undefined).
    """
    denom = samples.grid.norm2(samples.values)
    if denom == 0.0:
        raise ValueError("relative truncation error is undefined for a zero function")
    residual = samples.values - reconstruct_on_grid(coefficients, samples.grid)
    return samples.grid.norm2(residual) / denom


def degree_energies(coefficients: np.ndarray) -> np.ndarray:
    """Per-degree energies of every row of flat coefficients, shape (rows, l_max+1).

    Component l of a row is sqrt(sum_m a_lm^2). Each degree spans a
    rotation-closed subspace, so these are invariant to rigid rotation of the
    underlying function. One batched (1 x k)(k x 1) product per degree sums
    each row's squares with the dot kernel of block @ block, so a row's
    energies do not depend on the rows batched with it. Each block is first
    scaled by the power of two that brings its largest |a_lm| into [0.5, 1),
    and its root scaled back: exact, so the squares neither underflow nor
    overflow, and where unscaled squares stay normal the energies keep their
    bits.
    """
    rows, l_max = _coefficient_rows(coefficients)
    rows = rows.reshape(-1, (l_max + 1) ** 2)
    degrees = np.arange(l_max + 1)
    _, exponents = np.frexp(np.maximum.reduceat(np.abs(rows), degrees**2, axis=1))
    rows = np.ldexp(rows, -np.repeat(exponents, 2 * degrees + 1, axis=1))
    squares = np.empty((len(rows), l_max + 1))
    for l in degrees:
        block = rows[:, l * l : (l + 1) * (l + 1)]
        squares[:, l] = (block[:, None, :] @ block[:, :, None])[:, 0, 0]
    return np.ldexp(np.sqrt(squares), exponents)
