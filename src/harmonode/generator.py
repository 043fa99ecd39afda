"""Parametric two-layer grid trusses and design-space sampling.

The family is a square-on-square offset space truss: a top chord grid whose
heights follow a smooth surface interpolated from a small control grid, a
flat bottom chord grid at the cell centres one layer below, and diagonals
from every bottom node to its four surrounding top nodes. Mirroring the
control heights mirrors the plan and the heights exactly, which downstream
symmetry checks rely on.

The control-height surface stands in for a free-form roof parameterization:
a handful of symmetric control values span a family of flat, domed and
tapered designs over a fixed plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import descriptor
from .analysis import complexity_score
from .exports import fmt_float, write_csv, write_feature_vectors_csv
from .fea import extract_demands, size_members, solve
from .harmonics import DEFAULT_L_MAX
from .model import Point3, PointLoad, Support, TrussElement, TrussModel, TrussNode, is_finite_number, validate

DEFAULT_LOAD_CASE = "gravity"


@dataclass(frozen=True)
class GridTrussParams:
    """Parameters of one design in the grid-truss family.

    control_heights is an m x n grid of top-layer z offsets (metres), row
    index along x and column index along y, interpolated smoothly over the
    plan (cubically when three or more control values span a direction,
    linearly for two).
    """

    nx: int
    ny: int
    bay: float
    control_heights: tuple[tuple[float, ...], ...]
    depth: float
    supports: tuple[int, ...] | None = None
    load_per_node: float = 20e3
    load_case: str = DEFAULT_LOAD_CASE
    initial_area: float = 1e-3
    youngs_modulus: float = 200e9

    def __post_init__(self):
        # The one check of a family's values. Each field is stored normalized
        # (frozen, hence object.__setattr__), so replace() re-checks to the same values.
        def normalize(name, ok, kind, convert):
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"field {name!r}: expected {kind}, got {value!r}")
            object.__setattr__(self, name, convert(value))

        def is_integral(value):  # 4.0 reads as 4; 4.9 is refused, not truncated.
            return is_finite_number(value) and int(value) == value

        def array_of(ok):
            return lambda value: isinstance(value, (list, tuple)) and all(map(ok, value))

        for name in ("nx", "ny"):
            normalize(name, is_integral, "an integer", int)
        for name in ("bay", "depth", "load_per_node", "initial_area", "youngs_modulus"):
            normalize(name, is_finite_number, "a finite number", float)
        normalize("load_case", lambda case: isinstance(case, str), "a string", str)
        normalize("control_heights", array_of(array_of(is_finite_number)), "a grid of finite numbers",
                  lambda rows: tuple(tuple(map(float, row)) for row in rows))
        if self.supports is not None:
            normalize("supports", array_of(is_integral), "a list of node ids", lambda ids: tuple(map(int, ids)))

        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid counts must be at least 2, got {self.nx}x{self.ny}")
        if not self.bay > 0:
            raise ValueError(f"bay must be positive, got {self.bay}")
        if not self.depth > 0:
            raise ValueError(f"depth must be positive, got {self.depth}")
        rows = self.control_heights
        if not rows or not rows[0] or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("control_heights must be a non-empty rectangular grid")
        if self.supports is not None and not self.supports:
            raise ValueError("explicit support list must be non-empty")
        if not self.initial_area > 0 or not self.youngs_modulus > 0:
            raise ValueError("section defaults must be positive")
        n_nodes = self.nx * self.ny + (self.nx - 1) * (self.ny - 1)
        for node in self.supports or ():
            if not 0 <= node < n_nodes:
                grid = f"{self.nx}x{self.ny} grid (ids 0 to {n_nodes - 1})"
                raise ValueError(f"field 'supports': node {node} is not a node of the {grid}")


@dataclass(frozen=True)
class SweepRecord:
    sample_id: int
    parameters: tuple[float, ...]
    mass_kg: float | None
    mass_per_area: float | None
    complexity_radius: float | None
    status: str


# Node ids of grid indices (i, j): Python ints, or integer arrays of indices.
def top_node_id(params: GridTrussParams, i: int, j: int) -> int:
    return i * params.ny + j

def bottom_node_id(params: GridTrussParams, i: int, j: int) -> int:
    return params.nx * params.ny + i * (params.ny - 1) + j


def _hermite_1d(values, t: float) -> float:
    """Interpolate uniformly spaced control values at t in [0, 1].

    Piecewise cubic Hermite with central-difference tangents (one-sided at
    the ends); linear for two values. Mirrored data gives mirrored results.
    """
    m = len(values)
    if m == 1:
        return float(values[0])
    if m == 2:
        return float(values[0] * (1.0 - t) + values[1] * t)
    x = t * (m - 1)
    seg = min(int(math.floor(x)), m - 2)
    s = x - seg
    p0, p1 = values[seg], values[seg + 1]
    t0 = (values[seg + 1] - values[seg - 1]) / 2.0 if seg > 0 else values[1] - values[0]
    t1 = (values[seg + 2] - values[seg]) / 2.0 if seg + 2 < m else values[m - 1] - values[m - 2]
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return float(h00 * p0 + h10 * t0 + h01 * p1 + h11 * t1)


def surface_height(control: tuple[tuple[float, ...], ...], u: float, v: float) -> float:
    """Separable interpolation of the control grid at (u, v) in [0, 1]^2."""
    column = [_hermite_1d([row[c] for row in control], u) for c in range(len(control[0]))]
    return _hermite_1d(column, v)


def default_supports(params: GridTrussParams) -> tuple[int, ...]:
    """Corner nodes of the bottom layer, pinned in all three directions."""
    corners = {
        bottom_node_id(params, i, j)
        for i in (0, params.nx - 2)
        for j in (0, params.ny - 2)
    }
    return tuple(sorted(corners))


def generate_grid_truss(params: GridTrussParams) -> TrussModel:
    """Build the design as a validated truss model.

    Top nodes sit at interpolated surface heights over an nx x ny plan grid
    (row i past mid-plan as row nx - 1 - i of the reversed control rows);
    bottom nodes sit one depth below the cell centres; every bottom node is
    tied to its four surrounding top nodes. A uniform downward load acts at
    each top node. The plan enclosure area is recorded on the model.

    Element ids count up from 0 in this order: top chords along x, top chords
    along y, bottom chords along x, bottom chords along y, then each bottom
    node's four diagonals to top nodes (i, j), (i, j+1), (i+1, j), (i+1, j+1).
    Within a group, elements follow their first end's grid in row-major order.
    """
    nx, ny, bay = params.nx, params.ny, params.bay
    top = top_node_id(params, *np.indices((nx, ny)))
    bottom = bottom_node_id(params, *np.indices((nx - 1, ny - 1)))

    top_ids = top.ravel().tolist()

    def height(i: int, j: int) -> float:
        # Past mid-plan, the reversed control rows at the mirrored index: mirror twins make one call.
        rows, i = (params.control_heights[::-1], nx - 1 - i) if 2 * i > nx - 1 else (params.control_heights, i)
        return surface_height(rows, i / (nx - 1), j / (ny - 1))

    nodes = [
        TrussNode(nid, Point3(i * bay, j * bay, height(i, j)))
        for nid, (i, j) in zip(top_ids, np.ndindex(nx, ny))
    ]
    nodes += [
        TrussNode(nid, Point3((i + 0.5) * bay, (j + 0.5) * bay, -params.depth))
        for nid, (i, j) in zip(bottom.ravel().tolist(), np.ndindex(nx - 1, ny - 1))
    ]

    # (from, to) id grids of each element group, in element-id order.
    around = np.stack([top[:-1, :-1], top[:-1, 1:], top[1:, :-1], top[1:, 1:]], -1)
    groups = (
        (top[:-1], top[1:]),
        (top[:, :-1], top[:, 1:]),
        (bottom[:-1], bottom[1:]),
        (bottom[:, :-1], bottom[:, 1:]),
        (np.repeat(bottom[..., None], 4, -1), around),
    )
    ends = np.concatenate([np.stack([a.ravel(), b.ravel()], -1) for a, b in groups]).tolist()
    elements = [
        TrussElement(eid, a, b, params.initial_area, params.youngs_modulus) for eid, (a, b) in enumerate(ends)
    ]

    support_ids = params.supports if params.supports is not None else default_supports(params)
    supports = tuple(Support(node=nid, fixed=(True, True, True)) for nid in support_ids)
    force = Point3(0.0, 0.0, -params.load_per_node)
    loads = tuple(PointLoad(node=nid, force=force, load_case=params.load_case) for nid in top_ids)

    model = TrussModel(
        nodes=tuple(nodes),
        elements=tuple(elements),
        supports=supports,
        loads=loads,
        name=f"grid-truss-{nx}x{ny}",
        enclosure_area=(nx - 1) * (ny - 1) * bay * bay,
    )
    violations = validate(model)
    if violations:
        raise ValueError("generated model is invalid: " + "; ".join(violations))
    return model


def free_control_cells(params: GridTrussParams) -> int:
    """Dimension of the symmetric design space: half the control rows."""
    m = len(params.control_heights)
    n = len(params.control_heights[0])
    return (m + 1) // 2 * n


def apply_control_sample(params: GridTrussParams, values) -> GridTrussParams:
    """Fill the control grid from a parameter vector, mirrored across x.

    The vector covers the first ceil(m/2) control rows in row-major order;
    the remaining rows mirror them, so every sampled design is bilaterally
    symmetric about the plan's mid-x plane.
    """
    m, n = len(params.control_heights), len(params.control_heights[0])
    values, expected = [float(v) for v in values], free_control_cells(params)
    if len(values) != expected:
        raise ValueError(f"expected {expected} control values, got {len(values)}")
    rows = [tuple(values[r : r + n]) for r in range(0, len(values), n)]
    return replace(params, control_heights=tuple(rows + rows[: m - len(rows)][::-1]))


def latin_hypercube(n: int, bounds, seed: int = 0) -> np.ndarray:
    """Stratified (n, d) samples: exactly one point per interval per dimension.

    Each dimension is split into n equal strata; a random permutation pairs
    strata across dimensions and a uniform draw places the point within its
    stratum. Fully determined by the seed.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    for d, (lo, hi) in enumerate(bounds):
        if not lo < hi:
            raise ValueError(f"bounds for dimension {d} must satisfy lo < hi, got ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    samples = np.empty((n, len(bounds)))
    for d, (lo, hi) in enumerate(bounds):
        strata = rng.permutation(n)
        offsets = rng.random(n)
        samples[:, d] = lo + (strata + offsets) / n * (hi - lo)
    return samples


def sweep(
    params: GridTrussParams,
    samples: np.ndarray,
    out_dir,
    delta: float = descriptor.DEFAULT_DELTA,
    l_max: int = DEFAULT_L_MAX,
    kernel: str = descriptor.KERNEL_GEODESIC,
    amplitude_mode: str = descriptor.AMPLITUDE_MAGNITUDE,
) -> list[SweepRecord]:
    """Run the full pipeline over every sampled design, in sample order.

    The signature settings are checked first, so bad ones raise ValueError
    before any design is sized and out_dir is left alone. Per sample (a row
    of samples): generate, strength-size, solve, extract demands, build
    feature vectors, and score complexity. Results land in
    out_dir as sweep.csv (one row per design) plus one feature-vector file
    per design. A sample that raises ValueError or ArithmeticError (a
    SingularStructureError is one), or whose sizing does not converge, is
    tagged "error: <message>" in the status column and the sweep continues;
    any other exception is a programming error and propagates.
    """
    descriptor.node_expansions([], delta, l_max, kernel=kernel, amplitude_mode=amplitude_mode)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = []
    for index, row in enumerate(samples):
        vector = tuple(float(v) for v in row)
        try:
            design = apply_control_sample(params, vector)
            model = generate_grid_truss(design)
            sized = size_members(model, load_case=design.load_case)
            if not sized.converged:
                raise ArithmeticError(f"member sizing did not converge in {sized.iterations} passes")
            result = solve(sized.model, design.load_case)
            demands = extract_demands(sized.model, result)
            vectors = descriptor.node_feature_vectors(
                demands,
                delta=delta,
                l_max=l_max,
                kernel=kernel,
                amplitude_mode=amplitude_mode,
            )
            radius = complexity_score(vectors)
            write_feature_vectors_csv(out / f"sample_{index:03d}_features.csv", vectors)
            outcome = (sized.total_mass, sized.mass_per_area, radius, "ok")
        except (ValueError, ArithmeticError) as exc:
            outcome = (None, None, None, f"error: {exc}")
        records.append(SweepRecord(index, vector, *outcome))

    write_sweep_csv(out / "sweep.csv", records)
    return records


def write_sweep_csv(path, records: list[SweepRecord]) -> None:
    n_params = len(records[0].parameters) if records else 0
    header = (
        ["sample_id"]
        + [f"p{i}" for i in range(n_params)]
        + ["mass_kg", "mass_per_area", "complexity_radius", "solver_status"]
    )
    rows = (
        [rec.sample_id]
        + [fmt_float(p) for p in rec.parameters]
        + [fmt_float(v) if v is not None else "" for v in (rec.mass_kg, rec.mass_per_area, rec.complexity_radius)]
        + [rec.status]
        for rec in records
    )
    write_csv(path, header, rows)
