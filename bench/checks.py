"""Output checks of the benchmark, independent of the code paths they check.

Each check returns a list of failure messages; an empty list means pass.
Masses are compared with the benchmark's own fully stressed sizing, and
min-ball radii with the benchmark's own certified minimum ball, so a
different sizing path or ball algorithm that still meets its tolerance
passes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Material and sizing rule of the grid-truss family (README "Sweep family
# files"), restated here so the oracle does not read them from the program.
YIELD_STRESS = 345e6
SAFETY_FACTOR = 1.67
MIN_AREA = 400e-6
DENSITY = 7850.0

# A sweep stops sizing once no area changes by more than 1e-3 in a pass; its
# mass then sits within about 6e-5 of the fixed point on 7x7 designs. 1%
# leaves room for any other path that stops at the same tolerance.
MASS_RTOL = 1e-2
TWIN_RTOL = 1e-9
REFERENCE_RTOL = 1e-9
# The program stops its ball iteration once the radius is certified within
# 1e-7 of the optimum; the benchmark's own bounds are tighter still.
BALL_RTOL = 1e-6
ORACLE_GAP = 1e-9
ORACLE_MAX_ITER = 100_000
# The oracle sizing runs to a tighter tolerance than the sweep's 1e-3.
SIZING_TOL = 1e-9
SIZING_MAX_ITER = 500


def read_features(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Node ids and signature rows of a feature_vectors CSV."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    ids = np.array([int(r[0]) for r in rows[1:]])
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return ids, values


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_signatures(ids, values, n_nodes: int, n_components: int) -> list[str]:
    failures = []
    if values.shape != (n_nodes, n_components):
        failures.append(f"signature table is {values.shape}, expected ({n_nodes}, {n_components})")
    elif not np.isfinite(values).all():
        failures.append("non-finite signature component")
    elif (values < 0).any():
        failures.append("negative signature component")
    if sorted(ids.tolist()) != list(range(n_nodes)):
        failures.append("node ids are not 0..n-1")
    return failures


def mirror_twins(nx: int, ny: int) -> list[tuple[int, int]]:
    """Node pairs swapped by the family's mirror plane x = (nx - 1) bay / 2."""
    pairs = []
    for i in range(nx // 2):
        for j in range(ny):
            pairs.append((i * ny + j, (nx - 1 - i) * ny + j))
    base = nx * ny
    for i in range((nx - 1) // 2):
        for j in range(ny - 1):
            pairs.append((base + i * (ny - 1) + j, base + (nx - 2 - i) * (ny - 1) + j))
    return pairs


def check_twins(ids, values, pairs) -> list[str]:
    row = {int(node): k for k, node in enumerate(ids)}
    failures = []
    for a, b in pairs:
        va, vb = values[row[a]], values[row[b]]
        scale = max(np.linalg.norm(va), np.linalg.norm(vb))
        if np.linalg.norm(va - vb) > TWIN_RTOL * scale:
            failures.append(f"mirror twins {a} and {b} differ by {np.linalg.norm(va - vb):.3e} (norm {scale:.3e})")
    return failures


def min_ball_bounds(points: np.ndarray) -> tuple[float, float]:
    """Certified lower and upper bounds on the minimum enclosing ball radius.

    Away-step Frank-Wolfe on the dual (Yildirim 2008): weights w on the
    simplex give the center c = sum w_i p_i, and for any center x
    max_i |p_i - x|^2 >= sum w_i |p_i - x|^2 >= sum w_i |p_i - c|^2, so
    sqrt(sum w_i |p_i - c|^2) <= optimum <= max_i |p_i - c|. The points are
    mean-centred first, so the bounds of a cluster of nearly equal points
    far from the origin do not cancel. Stops when the bounds agree to
    ORACLE_GAP or after ORACLE_MAX_ITER steps.
    """
    pts = points - points.mean(axis=0)
    a = int(np.argmax((pts * pts).sum(axis=1)))
    b = int(np.argmax(((pts - pts[a]) ** 2).sum(axis=1)))
    weights = np.zeros(len(pts))
    weights[a] += 0.5
    weights[b] += 0.5
    center = weights @ pts
    for _ in range(ORACLE_MAX_ITER):
        dist2 = ((pts - center) ** 2).sum(axis=1)
        lower2 = float(weights @ dist2)
        far = int(np.argmax(dist2))
        upper2 = float(dist2[far])
        if upper2 <= (1.0 + ORACLE_GAP) ** 2 * lower2 or upper2 == 0.0:
            break
        active = np.flatnonzero(weights > 0)
        near = int(active[np.argmin(dist2[active])])
        if upper2 - lower2 >= lower2 - dist2[near]:
            # Toward the farthest point, with exact line search.
            step = (upper2 - lower2) / (2.0 * upper2)
            weights *= 1.0 - step
            weights[far] += step
            center = (1.0 - step) * center + step * pts[far]
        else:
            # Away from the nearest supporting point, at most dropping it.
            limit = weights[near] / (1.0 - weights[near])
            step = limit if dist2[near] == 0 else min(limit, (lower2 - dist2[near]) / (2.0 * dist2[near]))
            weights *= 1.0 + step
            weights[near] -= step
            if step == limit:
                weights[near] = 0.0
            center = (1.0 + step) * center - step * pts[near]
    return math.sqrt(max(lower2, 0.0)), math.sqrt(upper2)


def check_ball_radius(points: np.ndarray, radius: float) -> list[str]:
    """The reported radius must lie within BALL_RTOL above the optimum.

    The optimum is bracketed by ``min_ball_bounds``. A center the program
    computes from uncentred points carries an absolute round-off of about
    eps times their largest norm, so radii get that much slack: mirror twins
    1e-10 apart at norm 1e5 form clusters whose radius float64 resolves only
    to about 1e-11.
    """
    if not math.isfinite(radius) or radius < 0:
        return [f"radius {radius!r} is not a finite non-negative number"]
    lower, upper = min_ball_bounds(points)
    slack = 8.0 * np.finfo(float).eps * float(np.linalg.norm(points, axis=1).max())
    if radius < lower - slack or radius > (1.0 + BALL_RTOL) * lower + slack:
        return [f"radius {radius:.12g} outside [{lower:.12g}, {(1.0 + BALL_RTOL) * lower:.12g}]"
                f" (optimum at most {upper:.12g})"]
    return []


def check_clusters(out_dir: Path, ids, values, k: int) -> list[str]:
    """clusters.csv and cluster_summary.csv against the input signatures."""
    labels = {int(r["node_id"]): int(r["cluster"]) for r in read_rows(out_dir / "clusters.csv")}
    summary = read_rows(out_dir / "cluster_summary.csv")
    if sorted(labels) != sorted(ids.tolist()):
        return ["clusters.csv does not list every node once"]
    if len(summary) != k or sorted(set(labels.values())) != list(range(k)):
        return [f"expected {k} non-empty clusters"]
    label_of = np.array([labels[int(node)] for node in ids])
    failures = []
    radii = []
    for row in summary:
        label = int(row["cluster"])
        members = values[label_of == label]
        radius = float(row["radius"])
        radii.append(radius)
        if int(row["size"]) != len(members):
            failures.append(f"cluster {label} size {row['size']} != {len(members)}")
        failures += [f"cluster {label}: {m}" for m in check_ball_radius(members, radius)]
    if radii != sorted(radii):
        failures.append("cluster labels are not ordered by radius")
    return failures


def fully_stressed_mass(model) -> float:
    """Mass at the fully stressed fixed point, sized by the benchmark itself.

    Dense direct-stiffness statics with vectorised assembly; each pass sets
    every area to max(MIN_AREA, |N| SAFETY_FACTOR / YIELD_STRESS) and repeats
    until no area changes by more than SIZING_TOL.
    """
    index = {n.id: k for k, n in enumerate(model.nodes)}
    pos = np.array([n.position.as_tuple() for n in model.nodes])
    ends = np.array([(index[e.start], index[e.end]) for e in model.elements])
    modulus = np.array([e.youngs_modulus for e in model.elements])
    area = np.array([e.area for e in model.elements])
    span = pos[ends[:, 1]] - pos[ends[:, 0]]
    length = np.linalg.norm(span, axis=1)
    unit = span / length[:, None]
    grad = np.hstack([-unit, unit])
    dofs = np.hstack([3 * ends[:, :1] + np.arange(3), 3 * ends[:, 1:] + np.arange(3)])
    n_dof = 3 * len(model.nodes)
    force = np.zeros(n_dof)
    for load in model.loads:
        force[3 * index[load.node] : 3 * index[load.node] + 3] += load.force.as_tuple()
    fixed = np.zeros(n_dof, dtype=bool)
    for support in model.supports:
        for axis, restrained in enumerate(support.fixed):
            fixed[3 * index[support.node] + axis] = restrained
    free = np.flatnonzero(~fixed)
    for _ in range(SIZING_MAX_ITER):
        stiffness = modulus * area / length
        k_global = np.zeros((n_dof, n_dof))
        np.add.at(
            k_global,
            (dofs[:, :, None], dofs[:, None, :]),
            stiffness[:, None, None] * grad[:, :, None] * grad[:, None, :],
        )
        u = np.zeros(n_dof)
        u[free] = np.linalg.solve(k_global[np.ix_(free, free)], force[free])
        axial = stiffness * (grad * u[dofs]).sum(axis=1)
        new_area = np.maximum(MIN_AREA, np.abs(axial) * SAFETY_FACTOR / YIELD_STRESS)
        change = float((np.abs(new_area - area) / area).max())
        area = new_area
        if change <= SIZING_TOL:
            break
    return float(DENSITY * (area * length).sum())


def check_mass(mass: float, oracle: float) -> list[str]:
    if not math.isfinite(mass) or abs(mass - oracle) > MASS_RTOL * oracle:
        return [f"mass {mass!r} kg differs from the fully stressed {oracle:.6g} kg by more than {MASS_RTOL:.0%}"]
    return []


def check_reference(ids, values, radius: float, reference: dict) -> list[str]:
    """Signature norms, column sums and complexity radius against a stored run."""
    failures = []
    if len(ids) != len(reference["signature_norms"]):
        return [f"{len(ids)} signatures, the reference has {len(reference['signature_norms'])}"]
    norms = np.linalg.norm(values, axis=1)
    want = np.array(reference["signature_norms"])
    floor = 1e-12 * want.max()
    worst = float((np.abs(norms - want) / np.maximum(want, floor)).max())
    if worst > REFERENCE_RTOL:
        failures.append(f"signature norms differ from the reference by {worst:.3e} relative")
    sums = values.sum(axis=0)
    want_sums = np.array(reference["component_sums"])
    worst = float((np.abs(sums - want_sums) / np.maximum(np.abs(want_sums), floor)).max())
    if worst > REFERENCE_RTOL:
        failures.append(f"signature column sums differ from the reference by {worst:.3e} relative")
    want_radius = reference["complexity_radius"]
    if not abs(radius - want_radius) <= REFERENCE_RTOL * want_radius:
        failures.append(f"complexity radius {radius!r} differs from the reference {want_radius!r}")
    return failures
