"""Parametric two-layer grid trusses and design-space sampling.

The family is a square-on-square offset space truss: a top chord grid whose
heights follow a smooth surface interpolated from a small control grid, a
flat bottom chord grid at the cell centres one layer below, and diagonals
from every bottom node to its four surrounding top nodes. Mirroring the
control heights mirrors the generated structure exactly, which downstream
symmetry checks rely on.

The control-height surface stands in for a free-form roof parameterization:
a handful of symmetric control values span a family of flat, domed and
tapered designs over a fixed plan.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import descriptor
from .analysis import complexity_score
from .exports import fmt_float, write_feature_vectors_csv
from .fea import SingularStructureError, extract_demands, size_members, solve
from .harmonics import DEFAULT_L_MAX, DEFAULT_OVERSAMPLE, build_grid
from .model import Point3, PointLoad, Support, TrussElement, TrussModel, TrussNode, validate

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


@dataclass(frozen=True)
class SampleSet:
    """Latin-hypercube parameter samples: one per stratum per dimension."""

    n_samples: int
    samples: np.ndarray
    bounds: tuple[tuple[float, float], ...]
    seed: int


@dataclass(frozen=True)
class SweepRecord:
    sample_id: int
    parameters: tuple[float, ...]
    mass_kg: float | None
    mass_per_area: float | None
    complexity_radius: float | None
    status: str
    features_path: str | None


def top_node_id(params: GridTrussParams, i: int, j: int) -> int:
    return i * params.ny + j

def bottom_node_id(params: GridTrussParams, i: int, j: int) -> int:
    return params.nx * params.ny + i * (params.ny - 1) + j


def element_count(params: GridTrussParams) -> int:
    """Element count of the connectivity rule.

    Top chords ny(nx-1) + nx(ny-1), bottom chords (ny-1)(nx-2) + (nx-1)(ny-2),
    plus four diagonals per bottom node.
    """
    nx, ny = params.nx, params.ny
    top = ny * (nx - 1) + nx * (ny - 1)
    bottom = (ny - 1) * (nx - 2) + (nx - 1) * (ny - 2)
    return top + bottom + 4 * (nx - 1) * (ny - 1)


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

    Top nodes sit at interpolated surface heights over an nx x ny plan grid;
    bottom nodes sit one depth below the cell centres; every bottom node is
    tied to its four surrounding top nodes. A uniform downward load acts at
    each top node. The plan enclosure area is recorded on the model.
    """
    nx, ny, bay = params.nx, params.ny, params.bay

    nodes = []
    for i in range(nx):
        for j in range(ny):
            z = surface_height(params.control_heights, i / (nx - 1), j / (ny - 1))
            nodes.append(TrussNode(top_node_id(params, i, j), Point3(i * bay, j * bay, z)))
    for i in range(nx - 1):
        for j in range(ny - 1):
            nodes.append(
                TrussNode(
                    bottom_node_id(params, i, j),
                    Point3((i + 0.5) * bay, (j + 0.5) * bay, -params.depth),
                )
            )

    def make_element(eid: int, a: int, b: int) -> TrussElement:
        return TrussElement(eid, a, b, params.initial_area, params.youngs_modulus)

    elements = []
    eid = 0
    for i in range(nx - 1):
        for j in range(ny):
            elements.append(make_element(eid, top_node_id(params, i, j), top_node_id(params, i + 1, j)))
            eid += 1
    for i in range(nx):
        for j in range(ny - 1):
            elements.append(make_element(eid, top_node_id(params, i, j), top_node_id(params, i, j + 1)))
            eid += 1
    for i in range(nx - 2):
        for j in range(ny - 1):
            elements.append(make_element(eid, bottom_node_id(params, i, j), bottom_node_id(params, i + 1, j)))
            eid += 1
    for i in range(nx - 1):
        for j in range(ny - 2):
            elements.append(make_element(eid, bottom_node_id(params, i, j), bottom_node_id(params, i, j + 1)))
            eid += 1
    for i in range(nx - 1):
        for j in range(ny - 1):
            for di in (0, 1):
                for dj in (0, 1):
                    elements.append(
                        make_element(eid, bottom_node_id(params, i, j), top_node_id(params, i + di, j + dj))
                    )
                    eid += 1

    support_ids = params.supports if params.supports is not None else default_supports(params)
    supports = tuple(Support(node=nid, fixed=(True, True, True)) for nid in support_ids)
    loads = tuple(
        PointLoad(
            node=top_node_id(params, i, j),
            force=Point3(0.0, 0.0, -params.load_per_node),
            load_case=params.load_case,
        )
        for i in range(nx)
        for j in range(ny)
    )

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
    m = len(params.control_heights)
    n = len(params.control_heights[0])
    half = (m + 1) // 2
    values = [float(v) for v in values]
    if len(values) != half * n:
        raise ValueError(f"expected {half * n} control values, got {len(values)}")
    rows = [[0.0] * n for _ in range(m)]
    for r in range(half):
        for c in range(n):
            rows[r][c] = values[r * n + c]
    for r in range(half, m):
        rows[r] = list(rows[m - 1 - r])
    return replace(params, control_heights=tuple(tuple(r) for r in rows))


def latin_hypercube(n: int, bounds, seed: int = 0) -> SampleSet:
    """Stratified samples: exactly one point per interval per dimension.

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
    return SampleSet(n_samples=n, samples=samples, bounds=bounds, seed=seed)


def sweep(
    params: GridTrussParams,
    samples: SampleSet,
    out_dir,
    delta: float = descriptor.DEFAULT_DELTA,
    l_max: int = DEFAULT_L_MAX,
    kernel: str = descriptor.KERNEL_GEODESIC,
    amplitude_mode: str = descriptor.AMPLITUDE_MAGNITUDE,
    oversample: float = DEFAULT_OVERSAMPLE,
) -> list[SweepRecord]:
    """Run the full pipeline over every sampled design, in sample order.

    Per sample: generate, strength-size, solve, extract demands, build
    feature vectors, and score complexity. Results land in out_dir as
    sweep.csv (one row per design) plus one feature-vector file per design.
    A sample that raises ValueError, ArithmeticError or SingularStructureError
    is tagged "error: <message>" in the status column and the sweep
    continues; any other exception is a programming error and propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = build_grid(l_max, oversample)

    records = []
    for index in range(samples.n_samples):
        vector = tuple(float(v) for v in samples.samples[index])
        features_name = f"sample_{index:03d}_features.csv"
        try:
            design = apply_control_sample(params, vector)
            model = generate_grid_truss(design)
            sized = size_members(model, load_case=design.load_case)
            result = solve(sized.model, design.load_case)
            demands = extract_demands(sized.model, result)
            vectors = descriptor.node_feature_vectors(
                demands,
                delta=delta,
                l_max=l_max,
                grid=grid,
                kernel=kernel,
                amplitude_mode=amplitude_mode,
                load_case=design.load_case,
            )
            radius = complexity_score(vectors)
            write_feature_vectors_csv(out / features_name, vectors)
            record = SweepRecord(
                sample_id=index,
                parameters=vector,
                mass_kg=sized.total_mass,
                mass_per_area=sized.mass_per_area,
                complexity_radius=radius,
                status="ok",
                features_path=features_name,
            )
        except (ValueError, ArithmeticError, SingularStructureError) as exc:
            record = SweepRecord(
                sample_id=index,
                parameters=vector,
                mass_kg=None,
                mass_per_area=None,
                complexity_radius=None,
                status=f"error: {exc}",
                features_path=None,
            )
        records.append(record)

    write_sweep_csv(out / "sweep.csv", records)
    return records


def write_sweep_csv(path, records: list[SweepRecord]) -> None:
    n_params = len(records[0].parameters) if records else 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["sample_id"]
            + [f"p{i}" for i in range(n_params)]
            + ["mass_kg", "mass_per_area", "complexity_radius", "solver_status"]
        )
        for rec in records:
            writer.writerow(
                [rec.sample_id]
                + [fmt_float(p) for p in rec.parameters]
                + [
                    fmt_float(rec.mass_kg) if rec.mass_kg is not None else "",
                    fmt_float(rec.mass_per_area) if rec.mass_per_area is not None else "",
                    fmt_float(rec.complexity_radius) if rec.complexity_radius is not None else "",
                    rec.status,
                ]
            )
