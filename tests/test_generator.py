import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from harmonode import fea
from harmonode.analysis import complexity_score
from harmonode.descriptor import AMPLITUDE_MAGNITUDE, AMPLITUDE_SIGNED, node_feature_vectors
from harmonode.fea import extract_demands, size_members, solve
from harmonode.generator import (
    GridTrussParams,
    apply_control_sample,
    bottom_node_id,
    default_supports,
    free_control_cells,
    generate_grid_truss,
    latin_hypercube,
    surface_height,
    sweep,
    top_node_id,
)
from harmonode.model import Point3, PointLoad, Support, TrussElement, TrussModel, TrussNode, validate, write_model


def small_params(**overrides):
    base = dict(
        nx=4, ny=4, bay=2.0, control_heights=((0.0, 0.4), (0.2, 0.8)), depth=1.0
    )
    base.update(overrides)
    return GridTrussParams(**base)


def element_count(params: GridTrussParams) -> int:
    """Element count of the connectivity rule.

    Top chords ny(nx-1) + nx(ny-1), bottom chords (ny-1)(nx-2) + (nx-1)(ny-2),
    plus four diagonals per bottom node.
    """
    nx, ny = params.nx, params.ny
    top = ny * (nx - 1) + nx * (ny - 1)
    bottom = (ny - 1) * (nx - 2) + (nx - 1) * (ny - 2)
    return top + bottom + 4 * (nx - 1) * (ny - 1)


def loop_built_model(params: GridTrussParams) -> TrussModel:
    """The grid truss built node by node and element by element: the reference for the generator."""
    nx, ny, bay = params.nx, params.ny, params.bay
    nodes = []
    for i in range(nx):
        for j in range(ny):
            rows, row = (params.control_heights[::-1], nx - 1 - i) if 2 * i > nx - 1 else (params.control_heights, i)
            z = surface_height(rows, row / (nx - 1), j / (ny - 1))
            nodes.append(TrussNode(top_node_id(params, i, j), Point3(i * bay, j * bay, z)))
    for i in range(nx - 1):
        for j in range(ny - 1):
            position = Point3((i + 0.5) * bay, (j + 0.5) * bay, -params.depth)
            nodes.append(TrussNode(bottom_node_id(params, i, j), position))

    ends = []
    for i in range(nx - 1):
        for j in range(ny):
            ends.append((top_node_id(params, i, j), top_node_id(params, i + 1, j)))
    for i in range(nx):
        for j in range(ny - 1):
            ends.append((top_node_id(params, i, j), top_node_id(params, i, j + 1)))
    for i in range(nx - 2):
        for j in range(ny - 1):
            ends.append((bottom_node_id(params, i, j), bottom_node_id(params, i + 1, j)))
    for i in range(nx - 1):
        for j in range(ny - 2):
            ends.append((bottom_node_id(params, i, j), bottom_node_id(params, i, j + 1)))
    for i in range(nx - 1):
        for j in range(ny - 1):
            for di in (0, 1):
                for dj in (0, 1):
                    ends.append((bottom_node_id(params, i, j), top_node_id(params, i + di, j + dj)))
    elements = [
        TrussElement(eid, a, b, params.initial_area, params.youngs_modulus) for eid, (a, b) in enumerate(ends)
    ]

    support_ids = params.supports if params.supports is not None else default_supports(params)
    loads = [
        PointLoad(top_node_id(params, i, j), Point3(0.0, 0.0, -params.load_per_node), params.load_case)
        for i in range(nx)
        for j in range(ny)
    ]
    return TrussModel(
        nodes=tuple(nodes),
        elements=tuple(elements),
        supports=tuple(Support(nid, (True, True, True)) for nid in support_ids),
        loads=tuple(loads),
        name=f"grid-truss-{nx}x{ny}",
        enclosure_area=(nx - 1) * (ny - 1) * bay * bay,
    )


def random_design(rng, nx, ny):
    """A mirrored design on an nx x ny plan, from a random control grid of random shape."""
    rows, columns = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    params = small_params(nx=nx, ny=ny, control_heights=((0.0,) * columns,) * rows)
    return apply_control_sample(params, rng.uniform(-1.0, 2.0, free_control_cells(params)))


class TestGenerateGridTruss:
    def test_smallest_instance_counts(self):
        params = GridTrussParams(nx=2, ny=2, bay=1.0, control_heights=((0.0,),), depth=0.8)
        model = generate_grid_truss(params)
        assert len(model.nodes) == 5  # 4 top + 1 bottom: pyramid module
        assert len(model.elements) == 8
        assert len(model.elements) == element_count(params)

    @pytest.mark.parametrize("nx,ny", [(3, 4), (5, 3), (6, 6)])
    def test_count_formula(self, nx, ny):
        params = small_params(nx=nx, ny=ny)
        assert len(generate_grid_truss(params).elements) == element_count(params)

    @pytest.mark.parametrize("nx,ny", [(2, 2), (2, 5), (3, 4), (5, 3), (7, 7), (25, 25)])
    def test_written_model_matches_the_loop_built_reference(self, nx, ny):
        rng = np.random.default_rng(nx * 100 + ny)
        for _ in range(3):
            design = random_design(rng, nx, ny)
            model = generate_grid_truss(design)
            assert write_model(model) == write_model(loop_built_model(design))
            assert len(model.elements) == element_count(design)

    def test_generated_models_validate(self):
        rng = np.random.default_rng(149)
        for _ in range(5):
            heights = tuple(
                tuple(float(rng.uniform(0, 2)) for _ in range(3)) for _ in range(4)
            )
            params = small_params(nx=int(rng.integers(3, 7)), ny=int(rng.integers(3, 7)),
                                  control_heights=heights)
            assert validate(generate_grid_truss(params)) == []

    def test_symmetric_heights_give_mirror_symmetric_nodes(self):
        heights = ((0.1, 0.7, 0.3), (0.9, 1.8, 1.1), (0.9, 1.8, 1.1), (0.1, 0.7, 0.3))
        params = small_params(nx=7, ny=5, control_heights=heights)
        model = generate_grid_truss(params)
        positions = {n.id: np.array(n.position.as_tuple()) for n in model.nodes}
        x_max = max(p[0] for p in positions.values())
        mirrored = {}
        for nid, p in positions.items():
            key = (round(x_max - p[0], 9), round(p[1], 9), round(p[2], 9))
            mirrored.setdefault(key, []).append(nid)
        for nid, p in positions.items():
            key = (round(p[0], 9), round(p[1], 9), round(p[2], 9))
            twins = mirrored.get(key, [])
            assert twins, f"node {nid} has no mirror twin"

    def test_desk_scale_analog_order_of_magnitude(self):
        params = GridTrussParams(
            nx=10, ny=10, bay=2.0, control_heights=((0.0, 0.0), (0.0, 0.0)), depth=1.2
        )
        model = generate_grid_truss(params)
        assert len(model.nodes) == 181
        assert len(model.elements) == 648

    def test_enclosure_area_is_plan_area(self):
        params = small_params()
        model = generate_grid_truss(params)
        assert model.enclosure_area == pytest.approx((params.nx - 1) * (params.ny - 1) * params.bay**2)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            small_params(nx=1)
        with pytest.raises(ValueError):
            small_params(bay=0.0)
        with pytest.raises(ValueError):
            small_params(depth=-1.0)
        with pytest.raises(ValueError):
            small_params(control_heights=((0.0, 0.1), (0.2,)))

    @pytest.mark.parametrize(
        "field, value",
        [("nx", 4.9), ("ny", True), ("bay", "2"), ("depth", None), ("load_per_node", float("inf")),
         ("load_case", None), ("control_heights", ((0.0, "0"), (0.0, 0.0))), ("control_heights", 3.0),
         ("supports", (999,)), ("supports", (-1,)), ("supports", (16.5,)), ("supports", 16)],
        ids=["nx-fractional", "ny-bool", "bay-string", "depth-null", "load_per_node-infinite", "load_case-null",
             "control_heights-string", "control_heights-number", "supports-beyond-grid", "supports-negative",
             "supports-fractional", "supports-number"],
    )
    def test_malformed_value_raises_value_error_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^field '{field}': "):
            small_params(**{field: value})

    def test_non_finite_geometry_caught_by_the_final_validation(self):
        # Finite controls whose Hermite tangents overflow to inf: only the
        # validation of the built model can catch the coordinates.
        params = small_params(control_heights=((-1e308, 1e308, -1e308),) * 2)
        with pytest.raises(ValueError, match=r"^generated model is invalid: node 0: non-finite coordinates"):
            generate_grid_truss(params)

    def test_values_are_stored_normalized_and_replace_keeps_them(self):
        params = small_params(
            nx=4.0, bay=2, control_heights=[[0, 0.4], [0.2, 0.8]], supports=[16.0, 24], load_per_node=20000
        )
        assert params == small_params(supports=(16, 24), load_per_node=20e3)
        assert type(params.nx) is int and type(params.bay) is float
        assert all(type(v) is float for row in params.control_heights for v in row)
        assert replace(params) == params
        assert small_params(supports=None).supports is None

    def test_flat_benchmark_solves(self, flat_model):
        result = solve(flat_model)
        assert max(abs(f) for f in result.axial_forces.values()) > 0


@pytest.mark.parametrize("nx,ny", [(2, 3), (5, 4), (7, 7), (12, 5)])
def test_mirrored_controls_mirror_the_top_grid(nx, ny):
    # The control rows, the plan and the interpolated heights all mirror bit for bit.
    rng = np.random.default_rng(nx * 10 + ny)
    for _ in range(10):
        design = random_design(rng, nx, ny)
        assert design.control_heights == design.control_heights[::-1]
        top = np.array([n.position.as_tuple() for n in generate_grid_truss(design).nodes[: nx * ny]])
        x, y, z = top.reshape(nx, ny, 3).transpose(2, 0, 1)
        assert np.array_equal(x + x[::-1], np.full_like(x, (nx - 1) * design.bay))
        assert np.array_equal(y, y[::-1])
        assert np.array_equal(z, z[::-1])


class TestSurfaceHeight:
    def test_two_point_linear(self):
        control = ((0.0,), (2.0,))
        assert surface_height(control, 0.25, 0.0) == pytest.approx(0.5)

    def test_passes_through_control_corners(self):
        control = ((0.0, 1.0), (2.0, 3.0))
        assert surface_height(control, 0.0, 0.0) == pytest.approx(0.0)
        assert surface_height(control, 1.0, 0.0) == pytest.approx(2.0)
        assert surface_height(control, 0.0, 1.0) == pytest.approx(1.0)
        assert surface_height(control, 1.0, 1.0) == pytest.approx(3.0)

    def test_mirror_symmetry_of_symmetric_data(self):
        control = ((0.0, 1.0), (2.0, 0.5), (0.0, 1.0))
        for u in (0.1, 0.3, 0.45):
            for v in (0.2, 0.8):
                a = surface_height(control, u, v)
                b = surface_height(control, 1.0 - u, v)
                assert a == pytest.approx(b, abs=1e-12)


class TestLatinHypercube:
    def test_one_sample_per_quartile(self):
        samples = latin_hypercube(4, [(0.0, 1.0)], seed=0)
        strata = sorted(int(v * 4) for v in samples[:, 0])
        assert strata == [0, 1, 2, 3]

    def test_deterministic_per_seed(self):
        a = latin_hypercube(10, [(0.0, 1.0), (-5.0, 5.0)], seed=3)
        b = latin_hypercube(10, [(0.0, 1.0), (-5.0, 5.0)], seed=3)
        assert np.array_equal(a, b)
        c = latin_hypercube(10, [(0.0, 1.0), (-5.0, 5.0)], seed=4)
        assert not np.array_equal(a, c)

    def test_stratification_holds_in_every_dimension(self):
        n, dims = 100, 6
        samples = latin_hypercube(n, [(0.0, 1.0)] * dims, seed=7)
        for d in range(dims):
            strata = sorted(int(v * n) for v in samples[:, d])
            assert strata == list(range(n))

    def test_bounds_respected(self):
        samples = latin_hypercube(50, [(-2.0, -1.0), (10.0, 20.0)], seed=1)
        assert samples[:, 0].min() >= -2.0
        assert samples[:, 0].max() <= -1.0
        assert samples[:, 1].min() >= 10.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, [(0.0, 1.0)], seed=0)
        with pytest.raises(ValueError):
            latin_hypercube(5, [(1.0, 1.0)], seed=0)


class TestControlSampling:
    def test_mirroring(self):
        params = small_params(control_heights=((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))
        assert free_control_cells(params) == 4
        design = apply_control_sample(params, [1.0, 2.0, 3.0, 4.0])
        assert design.control_heights == ((1.0, 2.0), (3.0, 4.0), (1.0, 2.0))

    def test_even_row_count(self):
        params = small_params(
            control_heights=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        )
        assert free_control_cells(params) == 6
        design = apply_control_sample(params, [1, 2, 3, 4, 5, 6])
        assert design.control_heights[0] == design.control_heights[3]
        assert design.control_heights[1] == design.control_heights[2]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="control values"):
            apply_control_sample(small_params(), [1.0])


class TestSweep:
    def test_records_and_reproducibility(self, tmp_path):
        params = small_params(nx=4, ny=4)
        samples = latin_hypercube(2, [(0.0, 1.5)] * free_control_cells(params), seed=0)
        first = sweep(params, samples, tmp_path / "a")
        assert len(first) == 2
        assert all(r.status == "ok" for r in first)
        assert (tmp_path / "a" / "sweep.csv").exists()
        assert (tmp_path / "a" / "sample_000_features.csv").exists()

        sweep(params, samples, tmp_path / "b")
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_failures_tagged_and_run_continues(self, tmp_path):
        # a single pinned node cannot restrain the structure: every design fails
        params = small_params(supports=(16,))
        samples = latin_hypercube(3, [(0.0, 1.0)] * free_control_cells(params), seed=0)
        records = sweep(params, samples, tmp_path)
        assert len(records) == 3
        assert all(r.status.startswith("error:") for r in records)
        text = (tmp_path / "sweep.csv").read_text()
        assert text.count("error:") == 3

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken sizing")

        monkeypatch.setattr("harmonode.generator.size_members", broken)
        params = small_params()
        samples = latin_hypercube(2, [(0.0, 1.0)] * free_control_cells(params), seed=0)
        with pytest.raises(TypeError, match="broken sizing"):
            sweep(params, samples, tmp_path)

    def test_unconverged_sizing_is_an_error(self, tmp_path, monkeypatch):
        params = small_params()
        samples = latin_hypercube(2, [(0.0, 1.5)] * free_control_cells(params), seed=0)
        assert all(r.status == "ok" for r in sweep(params, samples, tmp_path / "full"))

        def one_pass(model, **kwargs):
            return size_members(model, max_iter=1, **kwargs)

        monkeypatch.setattr("harmonode.generator.size_members", one_pass)
        records = sweep(params, samples, tmp_path / "capped")
        assert [r.status for r in records] == ["error: member sizing did not converge in 1 passes"] * 2
        with open(tmp_path / "capped" / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["mass_kg"] == row["complexity_radius"] == "" for row in rows)

    def test_flat_design_scores_lower_complexity_than_tapered(self):
        # same plan, same mean top height: parallel chords vs strong taper
        def score(heights):
            params = GridTrussParams(
                nx=7, ny=7, bay=3.0, control_heights=heights, depth=1.0
            )
            model = generate_grid_truss(params)
            sized = size_members(model)
            result = solve(sized.model)
            demands = extract_demands(sized.model, result)
            return complexity_score(node_feature_vectors(demands, delta=20.0, l_max=16))

        flat = score(((1.2, 1.2), (1.2, 1.2)))
        tapered = score(((0.0, 0.0), (2.4, 2.4)))
        assert flat < tapered


# The family of the README's sweep example; every sampled design is mirrored across x.
README_FAMILY = GridTrussParams(
    nx=7, ny=7, bay=3.0, depth=1.0, control_heights=((0.0, 0.0),) * 4, load_per_node=20000.0
)


def test_readme_family_sizes_at_11x11_under_the_default_cap():
    # Sample 1 of `sweep --n 4 --seed 0` converges on pass 21.
    params = replace(README_FAMILY, nx=11, ny=11)
    values = latin_hypercube(4, [(0.0, 2.0)] * free_control_cells(params), seed=0)[1]
    design = apply_control_sample(params, values)
    sized = size_members(generate_grid_truss(design), load_case=design.load_case)
    assert sized.converged
    assert sized.iterations == 21


@pytest.mark.parametrize("n", [5, 7, 9])
def test_mirror_twins_share_signatures(n):
    params = replace(README_FAMILY, nx=n, ny=n)
    twins = [
        (top_node_id(params, i, j), top_node_id(params, n - 1 - i, j)) for i in range(n) for j in range(n)
    ]
    twins += [
        (bottom_node_id(params, i, j), bottom_node_id(params, n - 2 - i, j))
        for i in range(n - 1)
        for j in range(n - 1)
    ]
    samples = latin_hypercube(2, [(0.0, 2.0)] * free_control_cells(params), seed=n)
    for values in samples:
        design = apply_control_sample(params, values)
        analysed = generate_grid_truss(design)
        for model in (analysed, size_members(analysed, load_case=design.load_case).model):
            positions = {node.id: node.position for node in model.nodes}
            assert all(
                positions[a].x + positions[b].x == pytest.approx((n - 1) * params.bay)
                and positions[a].y == positions[b].y
                for a, b in twins
            )
            demands = extract_demands(model, solve(model, design.load_case))
            signature = {v.node: v.as_array() for v in node_feature_vectors(demands)}
            largest = max(float(np.abs(v).max()) for v in signature.values())
            worst = max(float(np.abs(signature[a] - signature[b]).max()) for a, b in twins)
            assert worst <= 1e-12 * largest


def sized_readme_designs(n, seed):
    """Two LHS designs of the README family at n x n, each with its sized model."""
    params = replace(README_FAMILY, nx=n, ny=n)
    for values in latin_hypercube(2, [(0.0, 2.0)] * free_control_cells(params), seed=seed):
        design = apply_control_sample(params, values)
        yield design, size_members(generate_grid_truss(design), load_case=design.load_case).model


@pytest.mark.parametrize("n", [5, 7])
def test_sized_designs_are_in_nodal_equilibrium(n):
    # Member forces alone, with no stiffness matrix, balance the loads at every free DOF.
    for design, model in sized_readme_designs(n, seed=100 + n):
        axial = solve(model, design.load_case).axial_forces
        index = {node.id: i for i, node in enumerate(model.nodes)}
        xyz = np.array([node.position.as_tuple() for node in model.nodes])
        residual = np.zeros_like(xyz)
        for load in model.loads:
            residual[index[load.node]] += load.force.as_tuple()
        applied = np.linalg.norm(residual)
        for element in model.elements:
            a, b = index[element.start], index[element.end]
            pull = axial[element.id] * (xyz[b] - xyz[a]) / np.linalg.norm(xyz[b] - xyz[a])
            residual[a] += pull
            residual[b] -= pull
        free = np.ones_like(xyz, dtype=bool)
        for support in model.supports:
            free[index[support.node]] = np.logical_not(support.fixed)
        assert np.abs(residual[free]).max() <= 1e-10 * applied


@pytest.mark.parametrize("n", [5, 7])
def test_signatures_scale_with_the_loads_and_ignore_their_sense(n):
    for design, sized in sized_readme_designs(n, seed=200 + n):

        def signatures(factor, mode):
            loaded = generate_grid_truss(replace(design, load_per_node=factor * design.load_per_node))
            model = replace(sized, loads=loaded.loads)
            demands = extract_demands(model, solve(model, design.load_case))
            return np.array([v.components for v in node_feature_vectors(demands, amplitude_mode=mode)])

        for mode in (AMPLITUDE_MAGNITUDE, AMPLITUDE_SIGNED):
            base = signatures(1.0, mode)
            largest = np.abs(base).max(axis=1, keepdims=True)
            assert np.all(np.abs(signatures(3.7, mode) - 3.7 * base) <= 1e-12 * 3.7 * largest)
            assert np.all(np.abs(signatures(-1.0, mode) - base) <= 1e-12 * largest)


@pytest.mark.parametrize("n", [5, 7])
def test_demands_read_the_member_table(n):
    # Each element's two entries are exact negatives, and equal its member-table unit row.
    for design, model in sized_readme_designs(n, seed=200 + n):
        demands = extract_demands(model, solve(model, design.load_case))
        entries = {demand.node: iter(demand.entries) for demand in demands}
        _, _, _, unit = fea._members(model)
        for row, element in sorted(enumerate(model.elements), key=lambda item: item[1].id):
            ahead, back = next(entries[element.start]), next(entries[element.end])
            assert ahead.direction == tuple(unit[row].tolist())
            assert back.direction == tuple(-c for c in ahead.direction)
            # A zero component stays +0.0: atan2 puts -0.0 on the far side of its branch cut.
            assert all(math.copysign(1.0, c) == 1.0 for c in back.direction if c == 0.0)
            assert (back.magnitude, back.sense) == (ahead.magnitude, ahead.sense)
        assert all(next(rest, None) is None for rest in entries.values())


@pytest.mark.parametrize("n", [5, 7])
def test_sizing_solves_once_per_pass_and_prices_one_mass(n, monkeypatch):
    solved = []

    def counting_solve(model, load_case=None):
        solved.append(load_case)
        return solve(model, load_case)

    monkeypatch.setattr(fea, "solve", counting_solve)
    params = replace(README_FAMILY, nx=n, ny=n)
    for values in latin_hypercube(2, [(0.0, 2.0)] * free_control_cells(params), seed=300 + n):
        design = apply_control_sample(params, values)
        solved.clear()
        sized = size_members(generate_grid_truss(design), load_case=design.load_case)
        assert solved == [design.load_case] * sized.iterations
        assert sized.total_mass == fea.model_mass(sized.model)
        xyz = {node.id: node.position.as_tuple() for node in sized.model.nodes}
        independent = 7850.0 * math.fsum(
            el.area * math.dist(xyz[el.start], xyz[el.end]) for el in sized.model.elements
        )
        assert abs(sized.total_mass - independent) <= 1e-14 * independent
