import numpy as np
import pytest

from harmonode.analysis import complexity_score
from harmonode.descriptor import node_feature_vectors
from harmonode.fea import extract_demands, size_members, solve
from harmonode.generator import (
    GridTrussParams,
    apply_control_sample,
    element_count,
    free_control_cells,
    generate_grid_truss,
    latin_hypercube,
    surface_height,
    sweep,
)
from harmonode.model import validate


def small_params(**overrides):
    base = dict(
        nx=4, ny=4, bay=2.0, control_heights=((0.0, 0.4), (0.2, 0.8)), depth=1.0
    )
    base.update(overrides)
    return GridTrussParams(**base)


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

    def test_flat_benchmark_solves(self, flat_model):
        result = solve(flat_model)
        assert max(abs(f) for f in result.axial_forces.values()) > 0


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
        sample_set = latin_hypercube(4, [(0.0, 1.0)], seed=0)
        strata = sorted(int(v * 4) for v in sample_set.samples[:, 0])
        assert strata == [0, 1, 2, 3]

    def test_deterministic_per_seed(self):
        a = latin_hypercube(10, [(0.0, 1.0), (-5.0, 5.0)], seed=3)
        b = latin_hypercube(10, [(0.0, 1.0), (-5.0, 5.0)], seed=3)
        assert np.array_equal(a.samples, b.samples)
        c = latin_hypercube(10, [(0.0, 1.0), (-5.0, 5.0)], seed=4)
        assert not np.array_equal(a.samples, c.samples)

    def test_stratification_holds_in_every_dimension(self):
        n, dims = 100, 6
        sample_set = latin_hypercube(n, [(0.0, 1.0)] * dims, seed=7)
        for d in range(dims):
            strata = sorted(int(v * n) for v in sample_set.samples[:, d])
            assert strata == list(range(n))

    def test_bounds_respected(self):
        sample_set = latin_hypercube(50, [(-2.0, -1.0), (10.0, 20.0)], seed=1)
        assert sample_set.samples[:, 0].min() >= -2.0
        assert sample_set.samples[:, 0].max() <= -1.0
        assert sample_set.samples[:, 1].min() >= 10.0

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
