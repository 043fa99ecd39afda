"""Linear-elastic direct-stiffness analysis of pin-jointed space trusses.

Covers the stiffness solve, per-node axial demand extraction, member mass
and the iterative strength-based member sizing loop. All three read member
geometry (end nodes, lengths, unit vectors) from one table, _members, so
they agree to the last bit. The free-DOF stiffness is factorized once, by a
dense Cholesky that serves both the pivot-magnitude singularity check
(threshold 1e-12 times the largest stiffness diagonal) and the solve, by
blocked forward and back substitution; sized for desk-scale models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Point3, TrussElement, TrussModel

TENSION = "tension"
COMPRESSION = "compression"

# The sizing rule, fixed: mild structural steel with a strength safety factor
# and a floor at the smallest standard hollow section. Passes stop once no
# area changes by more than _SIZING_RTOL relative.
STEEL_DENSITY = 7850.0
STEEL_YIELD_STRESS = 345e6
SAFETY_FACTOR = 1.67
MIN_AREA = 400e-6
_SIZING_RTOL = 1e-3

_AXES = ("x", "y", "z")
_PIVOT_RTOL = 1e-12
_EQUILIBRIUM_RTOL = 1e-8
# Rows per diagonal block of the triangular solves.
_SOLVE_BLOCK = 64


class SingularStructureError(Exception):
    """The stiffness matrix is singular: a mechanism or missing restraint."""

    def __init__(self, node: int, axis: str, pivot: float):
        self.node = node
        self.axis = axis
        self.pivot = pivot
        super().__init__(
            f"stiffness matrix is singular near node {node} direction {axis} "
            f"(pivot {pivot:.3e}); the model is under-restrained or contains a mechanism"
        )


@dataclass(frozen=True)
class AnalysisResult:
    """Solution of one load case: kinematics, member forces and reactions.

    Axial forces are positive in tension. Reactions are keyed by support
    node id.
    """

    displacements: dict[int, Point3]
    axial_forces: dict[int, float]
    reactions: dict[int, Point3]
    load_case: str


@dataclass(frozen=True)
class DemandEntry:
    """One force meeting a node: unit direction, magnitude (N) and sense."""

    direction: tuple[float, float, float]
    magnitude: float
    sense: str

    def __post_init__(self):
        norm = math.sqrt(sum(c * c for c in self.direction))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, norm was {norm!r}")
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be non-negative, got {self.magnitude}")
        if self.sense not in (TENSION, COMPRESSION):
            raise ValueError(f"sense must be {TENSION!r} or {COMPRESSION!r}, got {self.sense!r}")

    def signed_magnitude(self) -> float:
        return self.magnitude if self.sense == TENSION else -self.magnitude


@dataclass(frozen=True)
class NodalDemand:
    node: int
    entries: tuple[DemandEntry, ...]


@dataclass(frozen=True)
class SizingResult:
    model: TrussModel
    total_mass: float
    iterations: int
    converged: bool
    mass_per_area: float | None


def resolve_load_case(model: TrussModel, load_case: str | None) -> str:
    """Return the requested case, or the model's single case when unambiguous."""
    cases = model.load_cases()
    if load_case is not None:
        return load_case
    if len(cases) == 1:
        return cases[0]
    if not cases:
        raise ValueError("model defines no loads")
    raise ValueError(f"model defines several load cases {cases}; pick one explicitly")


def solve(model: TrussModel, load_case: str | None = None) -> AnalysisResult:
    """Solve K u = f at the free DOFs for one load case.

    Axial force per element is (EA/L) * (u_end - u_start) . unit(start->end),
    positive in tension. Raises SingularStructureError for mechanisms and
    ValueError when the case has no loads.
    """
    case = resolve_load_case(model, load_case)
    loads = [l for l in model.loads if l.load_case == case]
    if not loads:
        raise ValueError(f"no loads defined for case {case!r}")

    node_ids = [n.id for n in model.nodes]
    index, ends, length, unit = _members(model)
    n_dof = 3 * len(node_ids)
    stiffness = np.array([el.youngs_modulus * el.area for el in model.elements]) / length

    # Each member adds k * [[uu', -uu'], [-uu', uu']] at its two nodes' DOFs.
    grad = np.hstack([-unit, unit])
    dofs = np.hstack([3 * ends[:, :1] + np.arange(3), 3 * ends[:, 1:] + np.arange(3)])
    blocks = stiffness[:, None, None] * (grad[:, :, None] * grad[:, None, :])
    K = np.zeros((n_dof, n_dof))
    np.add.at(K, (dofs[:, :, None], dofs[:, None, :]), blocks)

    f = np.zeros(n_dof)
    for load in loads:
        f[3 * index[load.node] : 3 * index[load.node] + 3] += load.force.as_tuple()

    fixed = np.zeros(n_dof, dtype=bool)
    for sup in model.supports:
        fixed[3 * index[sup.node] : 3 * index[sup.node] + 3] |= sup.fixed
    free = np.flatnonzero(~fixed)

    u = np.zeros(n_dof)
    if free.size:
        kff = K[np.ix_(free, free)]
        u[free] = _cholesky_solve(_check_pivots(kff, free, node_ids), f[free])

    residual = K @ u - f
    f_norm = float(np.linalg.norm(f))
    res_norm = float(np.linalg.norm(residual[free])) if free.size else 0.0
    if res_norm > _EQUILIBRIUM_RTOL * f_norm:
        raise ArithmeticError(
            f"equilibrium residual {res_norm:.3e} exceeds {_EQUILIBRIUM_RTOL:.0e} x |f| "
            f"= {_EQUILIBRIUM_RTOL * f_norm:.3e}; the system is badly conditioned"
        )

    nodal = u.reshape(-1, 3)
    relative = nodal[ends[:, 1]] - nodal[ends[:, 0]]
    stretch = (relative[:, None, :] @ unit[:, :, None])[:, 0, 0]
    axial = dict(zip((el.id for el in model.elements), (stiffness * stretch).tolist()))

    displacements = {nid: Point3(*nodal[i]) for nid, i in index.items()}
    # Only restrained components carry reactions; free ones hold solver
    # round-off. The mask merges every support entry of a node.
    net = np.where(fixed, residual, 0.0).reshape(-1, 3)
    reactions = {s.node: Point3(*net[index[s.node]]) for s in model.supports}
    return AnalysisResult(
        displacements=displacements, axial_forces=axial, reactions=reactions, load_case=case
    )


def _members(model: TrussModel):
    """Member geometry: node rows by id and, per element in model order, its
    end rows (m, 2), length (m,) and start-to-end unit vector (m, 3).

    Lengths are batched (1x3)(3x1) products, which round like
    np.linalg.norm's 1-D dot.
    """
    index = {n.id: i for i, n in enumerate(model.nodes)}
    pos = np.array([n.position.as_tuple() for n in model.nodes])
    ends = np.array([(index[e.start], index[e.end]) for e in model.elements], dtype=int).reshape(-1, 2)
    span = pos[ends[:, 1]] - pos[ends[:, 0]]
    length = np.sqrt(span[:, None, :] @ span[:, :, None])[:, 0, 0]
    return index, ends, length, span / length[:, None]


def _check_pivots(kff: np.ndarray, free: np.ndarray, node_ids: list[int]) -> np.ndarray:
    """The lower Cholesky factor of kff, once no pivot vanishes."""
    threshold = _PIVOT_RTOL * float(np.max(np.diag(kff), initial=0.0))
    try:
        chol = np.linalg.cholesky(kff)
    except np.linalg.LinAlgError:
        raise _first_vanishing_pivot(kff, threshold, free, node_ids)
    pivots = np.diag(chol) ** 2
    vanishing = np.flatnonzero(pivots <= threshold)
    if vanishing.size:
        # The first vanishing pivot, as on the failure path: later ones are
        # round-off that depends on how the factorization blocks its work.
        first = vanishing[0]
        node, axis = _dof_name(free[first], node_ids)
        raise SingularStructureError(node, axis, float(pivots[first]))
    return chol


def _cholesky_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b by forward, then back substitution over row blocks.

    Each diagonal block is solved directly; the rest of a block row enters
    as one matrix-vector product, so the work stays O(n^2).
    """
    x = np.array(b, dtype=float)
    starts = range(0, x.size, _SOLVE_BLOCK)
    for lo in starts:
        hi = lo + _SOLVE_BLOCK
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], x[lo:hi] - chol[lo:hi, :lo] @ x[:lo])
    for lo in reversed(starts):
        hi = lo + _SOLVE_BLOCK
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi].T, x[lo:hi] - chol[hi:, lo:hi].T @ x[hi:])
    return x


def _first_vanishing_pivot(kff: np.ndarray, threshold: float, free, node_ids) -> SingularStructureError:
    # Unpivoted symmetric elimination locates the first vanishing pivot.
    a = kff.copy()
    n = a.shape[0]
    bad = n - 1
    pivot = a[bad, bad] if n else 0.0
    for j in range(n):
        d = a[j, j]
        if not d > threshold:
            bad, pivot = j, d
            break
        col = a[j + 1 :, j].copy()
        a[j + 1 :, j + 1 :] -= np.outer(col, col) / d
    node, axis = _dof_name(free[bad], node_ids)
    return SingularStructureError(node, axis, float(pivot))


def _dof_name(global_dof: int, node_ids: list[int]) -> tuple[int, str]:
    return node_ids[global_dof // 3], _AXES[global_dof % 3]


def extract_demands(
    model: TrussModel,
    result: AnalysisResult,
    include_applied_loads: bool = False,
    include_reactions: bool = False,
) -> list[NodalDemand]:
    """Convert an analysis into per-node force demands.

    For each node and connected element the entry direction points toward the
    element's other end, with magnitude |N| and the sense taken from the sign
    of N. Both senses share that location on the node's unit sphere: a tension
    force exits there and a compression force enters there. Near-zero forces
    are kept with magnitude ~0. Applied loads and reactions are excluded by
    default; when included, nonzero vectors are added as positive entries
    along their own direction (zero vectors have no direction and are
    skipped).

    Returns one NodalDemand per node, ordered by node id, with member entries
    ordered by element id.
    """
    _, _, _, unit = _members(model)
    # 0 - u, not -u: a zero component stays +0.0, which atan2 tells from -0.0.
    ahead, back = unit.tolist(), (0.0 - unit).tolist()
    by_node: dict[int, list[DemandEntry]] = {n.id: [] for n in model.nodes}

    for row, el in sorted(enumerate(model.elements), key=lambda item: item[1].id):
        force = result.axial_forces[el.id]
        sense = TENSION if force >= 0 else COMPRESSION
        by_node[el.start].append(DemandEntry(tuple(ahead[row]), abs(force), sense))
        by_node[el.end].append(DemandEntry(tuple(back[row]), abs(force), sense))

    if include_applied_loads:
        for load in model.loads:
            if load.load_case != result.load_case:
                continue
            entry = _vector_entry(load.force)
            if entry is not None:
                by_node[load.node].append(entry)

    if include_reactions:
        for nid in sorted(result.reactions):
            entry = _vector_entry(result.reactions[nid])
            if entry is not None:
                by_node[nid].append(entry)

    return [
        NodalDemand(node=nid, entries=tuple(by_node[nid])) for nid in sorted(by_node)
    ]


def _vector_entry(vector: Point3) -> DemandEntry | None:
    norm = math.sqrt(vector.x**2 + vector.y**2 + vector.z**2)
    if norm == 0.0:
        return None
    return DemandEntry((vector.x / norm, vector.y / norm, vector.z / norm), norm, TENSION)


def model_mass(model: TrussModel) -> float:
    """Total member mass: steel density times the sum of area * length."""
    _, _, length, _ = _members(model)
    return STEEL_DENSITY * float(np.array([el.area for el in model.elements]) @ length)


def size_members(model: TrussModel, max_iter: int = 20, load_case: str | None = None) -> SizingResult:
    """Strength-size every member, re-solving until areas stop changing.

    Each pass solves the current model and sets each area to
    max(MIN_AREA, |N| * SAFETY_FACTOR / STEEL_YIELD_STRESS); stiffness
    redistribution changes the forces, so passes repeat until the largest
    relative area change is at or below _SIZING_RTOL or max_iter is reached.
    For a statically determinate truss the forces never change, so the loop
    converges in at most two passes.

    Non-convergence is reported through the converged flag, not an error.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    current = model
    areas = np.array([el.area for el in model.elements])
    for iterations in range(1, max_iter + 1):
        axial = solve(current, load_case).axial_forces
        forces = np.array([axial[el.id] for el in current.elements])
        new_areas = np.maximum(MIN_AREA, np.abs(forces) * SAFETY_FACTOR / STEEL_YIELD_STRESS)
        worst_change = float((np.abs(new_areas - areas) / areas).max(initial=0.0))
        areas = new_areas
        elements = tuple(
            TrussElement(el.id, el.start, el.end, a, el.youngs_modulus)
            for el, a in zip(current.elements, areas.tolist())
        )
        current = replace(current, elements=elements)
        converged = worst_change <= _SIZING_RTOL
        if converged:
            break
    total_mass = model_mass(current)
    mass_per_area = (
        total_mass / current.enclosure_area if current.enclosure_area is not None else None
    )
    return SizingResult(
        model=current,
        total_mass=total_mass,
        iterations=iterations,
        converged=converged,
        mass_per_area=mass_per_area,
    )
