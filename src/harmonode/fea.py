"""Linear-elastic direct-stiffness analysis of pin-jointed space trusses.

Covers the stiffness solve, per-node axial demand extraction, member mass
and the iterative strength-based member sizing loop. All three read member
geometry (end nodes, lengths, unit vectors) from one table, _members, so
they agree to the last bit. The solve numbers the free DOFs in reverse
Cuthill-McKee node order (each node's three DOFs adjacent), which makes the
free-DOF stiffness block tridiagonal for blocks of b = max(half-bandwidth,
_SOLVE_BLOCK) rows; it stores only the diagonal and sub-diagonal blocks,
about 2 * n_free * b doubles (8.4 MB for the 25x25 study design), and
factors them by a block Cholesky. That order and the scatter index of the
assembly depend only on the member ends and the fixed DOFs, so they are
built once per topology (_band_pattern) and shared by every sizing pass and
every design of a sweep family. Equilibrium residual and reactions are
summed member by member, so no dense stiffness matrix is formed on any
path. The band factor's own pivots are the singularity test: the first
pivot at or below _PIVOT_RTOL (1e-8) times the largest stiffness diagonal
marks a mechanism, and its DOF, which moves in that mechanism mode, is
named. Sizing makes two plain passes, then mixes passes by Anderson
acceleration on log-areas; it returns the strength sizes of its last solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

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
# From the third pass, sizing mixes the last _ANDERSON_MEMORY + 1 passes.
_ANDERSON_MEMORY = 3

_AXES = ("x", "y", "z")
# A band pivot at or below this share of the largest stiffness diagonal marks
# a mechanism. Sound grid designs measured 1.7e-3 or more, singular ones
# 1.5e-11 or less in magnitude (or a failed block factor).
_PIVOT_RTOL = 1e-8
_EQUILIBRIUM_RTOL = 1e-8
# The fewest rows per block of the band factor and its substitutions.
_SOLVE_BLOCK = 64


class SingularStructureError(ArithmeticError):
    """The stiffness matrix is singular: a mechanism or missing restraint."""

    def __init__(self, node: int, axis: str, pivot: float, share: float):
        self.node = node
        self.axis = axis
        self.pivot = pivot
        self.share = share
        super().__init__(
            f"stiffness matrix is singular near node {node} direction {axis}: pivot {pivot:.2e}, "
            f"{share:.1e} of the largest diagonal (rule: at or below {_PIVOT_RTOL:.0e}); "
            "the model is under-restrained or contains a mechanism"
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

    The free DOFs are renumbered in reverse Cuthill-McKee node order and K is
    assembled straight into block-tridiagonal storage (diagonal and
    sub-diagonal blocks of b = max(half-bandwidth, _SOLVE_BLOCK) rows, about
    2 * n_free * b doubles), then factored block by block. The equilibrium
    residual and the reactions are B^T (k * B u) - f, summed member by
    member. No dense K is formed.

    Axial force per element is (EA/L) * (u_end - u_start) . unit(start->end),
    positive in tension. Raises SingularStructureError (an ArithmeticError)
    for a mechanism, naming the DOF of the first band pivot at or below 1e-8
    times the largest stiffness diagonal (a DOF that moves in a mechanism
    mode); ArithmeticError naming the node and direction of the largest
    residual when equilibrium fails its 1e-8 gate; and ValueError when the
    case has no loads.
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

    f = np.zeros(n_dof)
    for load in loads:
        f[3 * index[load.node] : 3 * index[load.node] + 3] += load.force.as_tuple()

    fixed = np.zeros(n_dof, dtype=bool)
    for sup in model.supports:
        fixed[3 * index[sup.node] : 3 * index[sup.node] + 3] |= sup.fixed
    free = np.flatnonzero(~fixed)

    u = np.zeros(n_dof)
    if free.size:
        u[free] = _free_displacements(blocks, ends, fixed, f, node_ids)

    nodal = u.reshape(-1, 3)
    relative = nodal[ends[:, 1]] - nodal[ends[:, 0]]
    stretch = (relative[:, None, :] @ unit[:, :, None])[:, 0, 0]
    axial_forces = stiffness * stretch
    axial = dict(zip((el.id for el in model.elements), axial_forces.tolist()))

    # K u = B^T (k * B u): each member pushes its force along grad onto its DOFs.
    residual = -f
    np.add.at(residual, dofs, grad * axial_forces[:, None])
    f_norm = float(np.linalg.norm(f))
    res_norm = float(np.linalg.norm(residual[free])) if free.size else 0.0
    if res_norm > _EQUILIBRIUM_RTOL * f_norm:
        node, axis = _dof_name(free[np.argmax(np.abs(residual[free]))], node_ids)
        raise ArithmeticError(
            f"equilibrium residual {res_norm:.3e} exceeds {_EQUILIBRIUM_RTOL:.0e} x |f| "
            f"= {_EQUILIBRIUM_RTOL * f_norm:.3e}, largest at node {node} direction {axis}; "
            "the system is badly conditioned"
        )

    displacements = {nid: Point3(*nodal[i]) for nid, i in index.items()}
    # Only restrained components carry reactions; free ones hold solver
    # round-off. The mask merges every support entry of a node.
    net = np.where(fixed, residual, 0.0).reshape(-1, 3)
    reactions = {s.node: Point3(*net[index[s.node]]) for s in model.supports}
    return AnalysisResult(
        displacements=displacements, axial_forces=axial, reactions=reactions, load_case=case
    )


def _free_displacements(blocks, ends, fixed, f, node_ids) -> np.ndarray:
    """u at the free DOFs, in DOF order, from the band factor in RCM order;
    SingularStructureError names the DOF of a vanishing band pivot."""
    pattern = _band_pattern(ends.tobytes(), fixed.tobytes())
    order, n = pattern.order, pattern.order.size
    diag, sub = _block_tridiagonal(blocks, pattern)
    largest = float(np.diagonal(diag, axis1=1, axis2=2).ravel()[:n].max(initial=0.0))
    vanishing = _block_cholesky(diag, sub, n, _PIVOT_RTOL * largest)
    if vanishing is not None:
        row, pivot = vanishing
        node, axis = _dof_name(order[row], node_ids)
        raise SingularStructureError(node, axis, pivot, pivot / largest if largest else float("nan"))
    u = np.empty(fixed.size)
    u[order] = _block_solve(diag, sub, f[order])
    return u[~fixed]


class _BandPattern(NamedTuple):
    """Where the entries of (m, k, k) blocks land in block-tridiagonal
    storage of nb blocks of b rows: keep selects the retained entries and
    flat gives their index into the flattened storage. order lists the free
    DOFs in storage order, and pad the rows of the last diagonal block past
    the matrix, set to identity. Every array is read-only."""

    order: np.ndarray
    b: int
    nb: int
    keep: np.ndarray
    flat: np.ndarray
    pad: np.ndarray


@lru_cache(maxsize=8)
def _band_pattern(ends: bytes, fixed: bytes) -> _BandPattern:
    """The band pattern of a topology: member end rows (m, 2) and the fixed
    DOF mask, each as its array's bytes. It depends on nothing else, so every
    sizing pass, and every design of a sweep family, shares one.

    Storage order is reverse Cuthill-McKee, and blocks have
    b = max(half-bandwidth, _SOLVE_BLOCK) rows, at most the free DOF count.
    """
    ends = np.frombuffer(ends, dtype=int).reshape(-1, 2)
    fixed = np.frombuffer(fixed, dtype=bool)
    order = _rcm_free_dofs(ends, fixed)
    n = order.size
    rank = np.full(fixed.size, -1)
    rank[order] = np.arange(n)
    rows = rank[3 * ends[:, :, None] + np.arange(3)].reshape(-1, 6)
    half_bandwidth = int((rows.max(axis=1) - np.where(rows >= 0, rows, n).min(axis=1)).max(initial=0))
    return _band_layout(order, rows, min(n, max(half_bandwidth, _SOLVE_BLOCK)))


def _rcm_free_dofs(ends: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """The free DOFs in reverse Cuthill-McKee node order, each node's together.

    Each connected part of the member graph is numbered breadth first from
    its lowest-degree node, neighbours by ascending degree (ties by row);
    the whole order is then reversed. Degree counts member ends.
    """
    n_nodes = fixed.size // 3
    source = np.concatenate([ends[:, 0], ends[:, 1]])
    target = np.concatenate([ends[:, 1], ends[:, 0]])
    degree = np.bincount(source, minlength=n_nodes)
    by_degree = np.argsort(degree, kind="stable")
    place = np.empty(n_nodes, dtype=int)
    place[by_degree] = np.arange(n_nodes)
    neighbours = target[np.lexsort((place[target], source))].tolist()
    first = np.concatenate([[0], np.cumsum(degree)]).tolist()
    seen = [False] * n_nodes
    order: list[int] = []
    for start in by_degree.tolist():
        if seen[start]:
            continue
        seen[start] = True
        head = len(order)
        order.append(start)
        while head < len(order):
            node = order[head]
            for j in neighbours[first[node] : first[node + 1]]:
                if not seen[j]:
                    seen[j] = True
                    order.append(j)
            head += 1
    node_dofs = (3 * np.array(order[::-1], dtype=int)[:, None] + np.arange(3)).ravel()
    return node_dofs[~fixed[node_dofs]]


def _band_layout(order: np.ndarray, rows: np.ndarray, b: int) -> _BandPattern:
    """The pattern of square blocks at rows (m, k) x rows (m, k) of an
    n x n matrix, n = order.size, in block-tridiagonal storage of b-row
    blocks. A negative row is dropped; every retained pair must lie within b
    of the diagonal."""
    n = order.size
    nb = -(-n // b)
    r, c = np.broadcast_arrays(rows[:, :, None], rows[:, None, :])
    keep = (r >= 0) & (c >= 0) & (r // b >= c // b)
    r, c = r[keep], c[keep]
    block = np.where(r // b == c // b, r // b, nb + c // b)
    flat = (block * b + r % b) * b + c % b
    pad = np.arange(n - (nb - 1) * b, b)
    for array in (order, keep, flat, pad):
        array.setflags(write=False)
    return _BandPattern(order, b, nb, keep, flat, pad)


def _block_tridiagonal(values: np.ndarray, pattern: _BandPattern):
    """Sum square blocks values (m, k, k) into block-tridiagonal storage.

    Returns views of one array: the diagonal blocks (nb, b, b), stored in
    full, and the sub-diagonal blocks (nb - 1, b, b), block k holding rows of
    block k + 1 against columns of block k. Rows past n pad the last diagonal
    block with an identity. One np.bincount adds every entry in block order
    from 0.0, as np.add.at does, so a single block (b = n) reproduces a dense
    assembly bit for bit.
    """
    b, nb = pattern.b, pattern.nb
    storage = np.bincount(pattern.flat, weights=values[pattern.keep], minlength=(2 * nb - 1) * b * b)
    storage = storage.reshape(2 * nb - 1, b, b)
    storage[nb - 1, pattern.pad, pattern.pad] = 1.0
    return storage[:nb], storage[nb:]


def _block_cholesky(diag: np.ndarray, sub: np.ndarray, n: int, threshold: float):
    """Factor block-tridiagonal storage in place into L L^T, checking pivots.

    Each step is one block Cholesky, one block solve for the next
    sub-diagonal block and one block product for the next diagonal block.
    Returns None when every pivot (squared diagonal of L) of the first n
    rows exceeds threshold, else (row, pivot) of the first that does not,
    row in storage order; the padding rows past n are never named. When
    np.linalg.cholesky refuses a block, unpivoted elimination finds the row.
    """
    size = diag.shape[1]
    for k in range(len(diag)):
        if k:
            diag[k] -= sub[k - 1] @ sub[k - 1].T
        real = min(size, n - k * size)
        try:
            diag[k] = np.linalg.cholesky(diag[k])
        except np.linalg.LinAlgError:
            row, pivot = _first_vanishing_pivot(diag[k, :real, :real], threshold)
            return k * size + row, pivot
        pivots = np.diagonal(diag[k])[:real] ** 2
        vanishing = np.flatnonzero(pivots <= threshold)
        if vanishing.size:  # later ones are round-off of the elimination
            return k * size + int(vanishing[0]), float(pivots[vanishing[0]])
        if k < len(sub):
            sub[k] = np.linalg.solve(diag[k], sub[k].T).T
    return None


def _block_solve(diag: np.ndarray, sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T x = rhs by forward, then back substitution over the blocks
    of a factor from _block_cholesky."""
    nb, size = diag.shape[:2]
    x = np.zeros((nb, size))
    x.reshape(-1)[: rhs.size] = rhs
    for k in range(nb):
        if k:
            x[k] -= sub[k - 1] @ x[k - 1]
        x[k] = np.linalg.solve(diag[k], x[k])
    for k in reversed(range(nb)):
        if k + 1 < nb:
            x[k] -= sub[k].T @ x[k + 1]
        x[k] = np.linalg.solve(diag[k].T, x[k])
    return x.reshape(-1)[: rhs.size]


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


def _first_vanishing_pivot(a: np.ndarray, threshold: float) -> tuple[int, float]:
    """The first (row, pivot) of unpivoted symmetric elimination of a that is
    at or below threshold; the last row when none is."""
    a = a.copy()
    n = a.shape[0]
    for j in range(n):
        d = a[j, j]
        if not d > threshold:
            return j, float(d)
        col = a[j + 1 :, j].copy()
        a[j + 1 :, j + 1 :] -= np.outer(col, col) / d
    return n - 1, float(a[n - 1, n - 1])


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


def size_members(model: TrussModel, max_iter: int = 50, load_case: str | None = None) -> SizingResult:
    """Strength-size every member, re-solving until areas stop changing.

    Each pass solves a model and takes each member's strength size
    max(MIN_AREA, |N| * SAFETY_FACTOR / STEEL_YIELD_STRESS); stiffness
    redistribution changes the forces, so passes repeat until no strength
    size differs from the area it was solved with by more than _SIZING_RTOL
    relative, or max_iter is reached. Passes 1 and 2 solve the input areas,
    then the first strength sizes. From pass 3 the areas solved are an
    Anderson mix of the last _ANDERSON_MEMORY + 1 passes on log-areas
    (Walker & Ni, SIAM J. Numer. Anal. 2011), or the last strength sizes
    when the mix holds a non-finite or zero area. For a statically
    determinate truss the forces never change, so the loop converges in at
    most two passes, before any mixing.

    The returned areas are the strength sizes of the last pass, never a mix.
    Non-convergence is reported through the converged flag, not an error.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    current = model
    areas = np.array([el.area for el in model.elements])
    log_areas = np.log(areas)
    history: list[tuple[np.ndarray, np.ndarray]] = []  # (log sizes g, g - log areas) per pass
    for iterations in range(1, max_iter + 1):
        axial = solve(current, load_case).axial_forces
        forces = np.array([axial[el.id] for el in current.elements])
        sizes = np.maximum(MIN_AREA, np.abs(forces) * SAFETY_FACTOR / STEEL_YIELD_STRESS)
        converged = float((np.abs(sizes - areas) / areas).max(initial=0.0)) <= _SIZING_RTOL
        if converged or iterations == max_iter:
            break
        log_sizes = np.log(sizes)
        history = history[-_ANDERSON_MEMORY:] + [(log_sizes, log_sizes - log_areas)]
        areas, log_areas = sizes, log_sizes
        if len(history) > 1:
            g, f = (np.array(column) for column in zip(*history))
            gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
            mixed = g[-1] - np.diff(g, axis=0).T @ gamma
            with np.errstate(over="ignore"):
                mixed_areas = np.exp(mixed)
            if ((0.0 < mixed_areas) & (mixed_areas < np.inf)).all():
                areas, log_areas = mixed_areas, mixed
        current = _with_areas(current, areas)
    sized = _with_areas(current, sizes)
    total_mass = model_mass(sized)
    mass_per_area = total_mass / sized.enclosure_area if sized.enclosure_area is not None else None
    return SizingResult(
        model=sized,
        total_mass=total_mass,
        iterations=iterations,
        converged=converged,
        mass_per_area=mass_per_area,
    )


def _with_areas(model: TrussModel, areas: np.ndarray) -> TrussModel:
    elements = tuple(
        TrussElement(el.id, el.start, el.end, a, el.youngs_modulus)
        for el, a in zip(model.elements, areas.tolist())
    )
    return replace(model, elements=elements)
