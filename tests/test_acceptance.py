"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest
from conftest import (
    flat_benchmark_params,
    random_demand,
    random_polar_rotation,
    random_rotation,
    rotate_demand,
    single_bar_model,
    two_bar_closed_form,
    two_bar_model,
)
from test_analysis import brute_force_ball_radius

from harmonode.analysis import classical_mds, kmeans, min_enclosing_ball
from harmonode.cli import main as cli_main
from harmonode.descriptor import (
    KERNEL_COORDINATE,
    KERNEL_GEODESIC,
    ForceFunctionSpec,
    build_force_function,
    equilibrium_perturbation,
    node_feature_vectors,
)
from harmonode.fea import COMPRESSION, TENSION, DemandEntry, NodalDemand, extract_demands, size_members, solve
from harmonode.generator import GridTrussParams, generate_grid_truss
from harmonode.harmonics import (
    _grid_legendre_table,
    build_grid,
    expand,
    truncation_error,
)
from harmonode.model import Point3


def report(number: str, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {name}: {detail}")


@pytest.fixture(scope="module")
def flat_pipeline():
    """Shared flat space-frame fixture: model, solution, demands, vectors."""
    model = generate_grid_truss(flat_benchmark_params())
    result = solve(model)
    demands = extract_demands(model, result)
    grid = build_grid(16)
    vectors = node_feature_vectors(demands, delta=20.0, l_max=16, grid=grid)
    return model, result, demands, grid, vectors


def test_criterion_01_harmonic_orthonormality():
    started = time.monotonic()
    grid = build_grid(16)
    l_max = 16
    table = _grid_legendre_table(grid.n_theta, l_max)
    cos_m = np.cos(np.arange(l_max + 1)[:, None] * grid.phi[None, :])
    sin_m = np.sin(np.arange(l_max + 1)[:, None] * grid.phi[None, :])
    basis = np.empty(((l_max + 1) ** 2, grid.n_theta * grid.n_phi))
    row = 0
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            if m == 0:
                values = np.outer(table[l, 0], np.ones(grid.n_phi))
            elif m > 0:
                values = math.sqrt(2.0) * np.outer(table[l, m], cos_m[m])
            else:
                values = math.sqrt(2.0) * np.outer(table[l, -m], sin_m[-m])
            basis[row] = values.ravel()
            row += 1
    weights = (grid.weights[:, None] * np.full((1, grid.n_phi), grid.delta_phi)).ravel()
    gram = (basis * weights) @ basis.T
    deviation = float(np.abs(gram - np.eye(gram.shape[0])).max())
    elapsed = time.monotonic() - started
    ok = deviation <= 1e-8 and elapsed < 5.0
    report("01", "harmonic basis orthonormality", ok,
           f"max |G - I| = {deviation:.3e} (<= 1e-8), runtime {elapsed:.2f}s (< 5s)")
    assert deviation <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_truncation_error_reproduction(flat_pipeline):
    model, result, demands, grid, _ = flat_pipeline
    degrees = (0, 2, 4, 8, 12, 16)
    errors_at_16 = []
    monotone = True
    for demand in demands:
        spec = ForceFunctionSpec(demand, delta=20.0)
        samples = build_force_function(spec, grid)
        curve = [truncation_error(samples, expand(samples, l)) for l in degrees]
        monotone &= all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))
        errors_at_16.append(curve[-1])
    mean_error = float(np.mean(errors_at_16))
    ok = 0.001 <= mean_error <= 0.03 and monotone and len(errors_at_16) >= 20
    report("02", "truncation error at l_max=16", ok,
           f"mean over {len(errors_at_16)} nodes = {mean_error:.4f} (in [0.001, 0.03]), "
           f"per-node curves non-increasing: {monotone}")
    assert len(errors_at_16) >= 20
    assert monotone
    assert 0.001 <= mean_error <= 0.03


def _rotation_study(kernel: str, sample_rotation) -> float:
    rng = np.random.default_rng(2024)
    grid = build_grid(16)
    worst = 0.0
    for _ in range(10):
        demand = random_demand(rng)
        base = node_feature_vectors([demand], grid=grid, kernel=kernel)[0].as_array()
        for _ in range(10):
            rotated = rotate_demand(demand, sample_rotation(rng))
            moved = node_feature_vectors([rotated], grid=grid, kernel=kernel)[0].as_array()
            worst = max(worst, float((np.abs(moved - base) / np.abs(base)).max()))
    return worst


def test_criterion_03a_rotation_invariance_geodesic():
    started = time.monotonic()
    worst = _rotation_study(KERNEL_GEODESIC, random_rotation)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    report("03a", "rotation invariance (geodesic kernel)", ok,
           f"max componentwise relative change = {worst:.3e} (<= 1e-6), runtime {elapsed:.1f}s (< 60s)")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_03b_rotation_invariance_coordinate():
    # The coordinate kernel is a Gaussian in raw (theta, phi) offsets, so its
    # invariance group is the isometry group of that chart: rotations about
    # z (phi shifts) and half-turns about horizontal axes (theta -> pi - theta
    # with phi -> -phi). Both carry every bump onto the bump of the rotated
    # direction, so per-degree energies are unchanged to round-off. A general
    # rotation does not: a bump's area on the sphere scales with
    # sin(theta_i), and the energies change by order one (3.06 at this seed).
    # The bound is that of the z-rotation unit test; an azimuth difference
    # left unwrapped breaks it by orders of magnitude.
    started = time.monotonic()
    worst = _rotation_study(KERNEL_COORDINATE, random_polar_rotation)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 60.0
    report("03b", "rotation invariance (coordinate kernel, polar-axis group)", ok,
           f"max componentwise relative change = {worst:.3e} (<= 1e-9), runtime {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0
    assert worst <= 1e-9


def test_criterion_04_homogeneity_and_sense_flip():
    rng = np.random.default_rng(404)
    grid = build_grid(16)
    worst_scale = 0.0
    flips_identical = True
    for _ in range(5):
        demand = random_demand(rng)
        base = node_feature_vectors([demand], grid=grid)[0].as_array()
        for c in (0.5, 2.0, 10.0):
            scaled_demand = NodalDemand(
                demand.node,
                tuple(DemandEntry(e.direction, e.magnitude * c, e.sense) for e in demand.entries),
            )
            scaled = node_feature_vectors([scaled_demand], grid=grid)[0].as_array()
            worst_scale = max(worst_scale, float((np.abs(scaled - c * base) / np.abs(c * base)).max()))
        flipped = NodalDemand(
            demand.node,
            tuple(
                DemandEntry(e.direction, e.magnitude,
                            COMPRESSION if e.sense == TENSION else TENSION)
                for e in demand.entries
            ),
        )
        flips_identical &= node_feature_vectors([flipped], grid=grid)[0].components == tuple(base)
    ok = worst_scale <= 1e-9 and flips_identical
    report("04", "homogeneity FV(cf)=cFV(f) and sense-flip FV(f)=FV(-f)", ok,
           f"worst scaling deviation = {worst_scale:.3e} (<= 1e-9), flips identical: {flips_identical}")
    assert worst_scale <= 1e-9
    assert flips_identical


def test_criterion_05_fea_oracle():
    worst = 0.0
    for height in (0.5, 1.0, 2.0):
        load = 1000.0
        result = solve(two_bar_model(height=height, half_span=1.0, load=load))
        expected = two_bar_closed_form(height, 1.0, load)
        for force in result.axial_forces.values():
            worst = max(worst, abs(force - expected) / abs(expected))
    bar = solve(single_bar_model(2.0, 500.0))
    worst = max(worst, abs(bar.axial_forces[0] - 500.0) / 500.0)
    tip = bar.displacements[1].x
    worst = max(worst, abs(tip - 500.0 * 2.0 / (200e9 * 1e-3)) / tip)

    worst_residual = 0.0
    rng = np.random.default_rng(505)
    for trial in range(3):
        heights = tuple(
            tuple(float(rng.uniform(0.0, 1.5)) for _ in range(2)) for _ in range(2)
        )
        model = generate_grid_truss(
            GridTrussParams(nx=5, ny=5, bay=3.0, control_heights=heights, depth=1.0)
        )
        result = solve(model)
        demands = {d.node: d for d in extract_demands(model, result)}
        loads = {l.node: np.array(l.force.as_tuple()) for l in model.loads}
        reactions = {n: np.array(r.as_tuple()) for n, r in result.reactions.items()}
        f_norm = float(np.linalg.norm(np.concatenate(list(loads.values()))))
        for node in demands:
            total = np.zeros(3)
            for entry in demands[node].entries:
                total += entry.signed_magnitude() * np.asarray(entry.direction)
            total += loads.get(node, 0.0) + reactions.get(node, 0.0)
            worst_residual = max(worst_residual, float(np.abs(total).max()) / f_norm)
    ok = worst <= 1e-10 and worst_residual <= 1e-8
    report("05", "closed-form statics and equilibrium residuals", ok,
           f"worst closed-form deviation = {worst:.3e} (<= 1e-10), "
           f"worst nodal residual = {worst_residual:.3e} (<= 1e-8 x |f|)")
    assert worst <= 1e-10
    assert worst_residual <= 1e-8


def test_criterion_06_sizing_floor(flat_pipeline):
    model, _, _, _, _ = flat_pipeline
    sized = size_members(model)
    areas = np.array([e.area for e in sized.model.elements])
    final = solve(sized.model)
    floor_respected = bool(areas.min() >= 400e-6)
    floor_reached = bool(np.isclose(areas.min(), 400e-6))
    demand_consistent = True
    for el in sized.model.elements:
        required = abs(final.axial_forces[el.id]) * 1.67 / 345e6
        demand_consistent &= math.isclose(
            el.area, max(400e-6, required), rel_tol=2e-3
        )
    determinate = size_members(two_bar_model(load=1e6))
    ok = floor_respected and floor_reached and demand_consistent and determinate.iterations <= 2
    report("06", "sizing floor and determinate convergence", ok,
           f"min area = {areas.min():.6g} m^2 (floor 400e-6), demand-consistent: {demand_consistent}, "
           f"determinate iterations = {determinate.iterations} (<= 2)")
    assert floor_respected and floor_reached
    assert demand_consistent
    assert determinate.iterations <= 2


def test_criterion_07_min_ball_oracle():
    rng = np.random.default_rng(707)
    worst_r3 = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        points = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0)
        ball = min_enclosing_ball(points, tol=1e-7)
        oracle = brute_force_ball_radius(points)
        if oracle > 0:
            worst_r3 = max(worst_r3, abs(ball.radius - oracle) / oracle)
        else:
            worst_r3 = max(worst_r3, ball.radius)
    worst_r17 = 0.0
    for _ in range(200):
        points = rng.normal(size=(int(rng.integers(2, 9)), 17)) * rng.uniform(0.1, 100.0)
        loose = min_enclosing_ball(points, tol=1e-7).radius
        tight = min_enclosing_ball(points, tol=1e-8).radius
        worst_r17 = max(worst_r17, abs(loose - tight) / tight)
    ok = worst_r3 <= 1e-6 and worst_r17 <= 1e-6
    report("07", "minimal enclosing ball vs oracles", ok,
           f"worst R3 deviation vs subset enumeration = {worst_r3:.3e}, "
           f"worst R17 deviation vs tighter rerun = {worst_r17:.3e} (both <= 1e-6)")
    assert worst_r3 <= 1e-6
    assert worst_r17 <= 1e-6


def test_criterion_08_mds_round_trip():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(20):
        points = rng.normal(size=(int(rng.integers(4, 30)), 2)) * rng.uniform(0.1, 50.0)
        d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        coords = classical_mds(d, 2).coordinates
        d2 = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        mask = d > 0
        worst = max(worst, float(np.abs((d2[mask] - d[mask]) / d[mask]).max()))
    ok = worst <= 1e-8
    report("08", "classical MDS distance round trip", ok,
           f"worst relative distance deviation = {worst:.3e} (<= 1e-8)")
    assert worst <= 1e-8


def test_criterion_09_end_to_end_symmetry(flat_pipeline):
    model, _, _, _, vectors = flat_pipeline
    positions = {n.id: np.array(n.position.as_tuple()) for n in model.nodes}
    x_max = max(p[0] for p in positions.values())
    lookup = {
        (round(p[0], 9), round(p[1], 9), round(p[2], 9)): nid for nid, p in positions.items()
    }

    def mirror(nid):
        p = positions[nid]
        return lookup.get((round(x_max - p[0], 9), round(p[1], 9), round(p[2], 9)))

    by_node = {v.node: v.as_array() for v in vectors}
    matrix = np.array([v.components for v in vectors])
    max_pairwise = float(
        np.sqrt(((matrix[:, None] - matrix[None]) ** 2).sum(-1)).max()
    )
    twin_pairs = [
        (nid, mirror(nid)) for nid in by_node if mirror(nid) is not None and mirror(nid) != nid
    ]
    worst_twin = max(
        float(np.linalg.norm(by_node[a] - by_node[b])) / max_pairwise for a, b in twin_pairs
    )

    assignment = kmeans(vectors, k=10, seed=0)
    label_of = dict(zip(assignment.node_ids, assignment.labels))
    twins_clustered = all(label_of[a] == label_of[b] for a, b in twin_pairs)

    support_ids = sorted(s.node for s in model.supports)
    support_labels = {label_of[nid] for nid in support_ids}
    global_radius = min_enclosing_ball(vectors).radius
    support_radius = max(assignment.spheres[label].radius for label in support_labels)

    ok = (
        worst_twin <= 1e-6
        and twins_clustered
        and len(support_labels) == 1
        and support_radius <= 1e-9 * global_radius
    )
    report("09", "end-to-end symmetry propagation", ok,
           f"worst twin relative distance = {worst_twin:.3e} (<= 1e-6) over {len(twin_pairs)} pairs, "
           f"twins co-clustered: {twins_clustered}, support cluster radius / global = "
           f"{support_radius / global_radius:.3e} (<= 1e-9)")
    assert worst_twin <= 1e-6
    assert twins_clustered
    assert support_radius <= 1e-9 * global_radius


def test_criterion_10_smoothness_under_equilibrium_sweep(flat_pipeline):
    model, result, demands, grid, _ = flat_pipeline
    interior = {d.node: d for d in demands}[24]  # interior top node of the 7x7 grid
    applied = Point3(0.0, 0.0, -20e3)
    start = np.asarray(interior.entries[0].direction)
    target = start + np.array([0.35, 0.55, 0.45])
    target /= np.linalg.norm(target)

    def path_gaps(steps: int):
        gaps = []
        previous = None
        worst_residual = 0.0
        for i in range(steps + 1):
            moved = equilibrium_perturbation(interior, 0, i / steps, applied, tuple(target))
            total = np.zeros(3)
            for entry in moved.entries:
                total += entry.signed_magnitude() * np.asarray(entry.direction)
            worst_residual = max(
                worst_residual, float(np.linalg.norm(total + (0, 0, -20e3))) / 20e3
            )
            current = node_feature_vectors([moved], grid=grid)[0].as_array()
            if previous is not None:
                gaps.append(float(np.linalg.norm(current - previous)))
            previous = current
        return np.array(gaps), worst_residual

    gaps_20, residual_20 = path_gaps(20)
    gaps_40, residual_40 = path_gaps(40)
    worst_residual = max(residual_20, residual_40)
    ratio = float(gaps_40.mean() / gaps_20.mean())
    ok = worst_residual <= 1e-9 and 0.375 <= ratio <= 0.625
    report("10", "smooth feature path under equilibrium-preserving sweep", ok,
           f"worst equilibrium residual = {worst_residual:.3e} (<= 1e-9 x |applied|), "
           f"mean consecutive-distance ratio 40/20 steps = {ratio:.3f} (in [0.375, 0.625])")
    assert worst_residual <= 1e-9
    assert 0.375 <= ratio <= 0.625


def test_criterion_11_sweep_reproducibility(tmp_path):
    started = time.monotonic()
    params_path = tmp_path / "family.json"
    params_path.write_text(
        '{"nx": 7, "ny": 7, "bay": 3.0, "depth": 1.0,\n'
        ' "control_heights": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],\n'
        ' "load_per_node": 20000.0, "bounds": [0.0, 2.0]}\n'
    )
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    code_a = cli_main(["sweep", str(params_path), "--n", "20", "--seed", "0", "--out", str(out_a)])
    code_b = cli_main(["sweep", str(params_path), "--n", "20", "--seed", "0", "--out", str(out_b)])
    elapsed = time.monotonic() - started

    sweep_a = (out_a / "sweep.csv").read_bytes()
    identical = sweep_a == (out_b / "sweep.csv").read_bytes()
    features_identical = all(
        (out_a / f"sample_{i:03d}_features.csv").read_bytes()
        == (out_b / f"sample_{i:03d}_features.csv").read_bytes()
        for i in range(20)
    )
    rows = sweep_a.decode().strip().splitlines()
    ok = (
        code_a == 0
        and code_b == 0
        and identical
        and features_identical
        and len(rows) == 21
        and elapsed < 300.0
    )
    report("11", "sweep reproducibility and runtime", ok,
           f"byte-identical CSVs: {identical and features_identical}, rows = {len(rows) - 1} (= 20), "
           f"two runs took {elapsed:.1f}s (< 300s)")
    assert code_a == 0 and code_b == 0
    assert identical and features_identical
    assert len(rows) == 21
    assert elapsed < 300.0
