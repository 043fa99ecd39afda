import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    BAR_AREA,
    STEEL_E,
    random_rotation,
    single_bar_model,
    two_bar_closed_form,
    two_bar_model,
)

from harmonode import fea
from harmonode.fea import (
    _SIZING_RTOL,
    _SOLVE_BLOCK,
    COMPRESSION,
    MIN_AREA,
    SAFETY_FACTOR,
    STEEL_YIELD_STRESS,
    TENSION,
    DemandEntry,
    SingularStructureError,
    _band_layout,
    _band_pattern,
    _block_banded,
    _block_cholesky,
    _block_solve,
    extract_demands,
    model_mass,
    size_members,
    solve,
)
from harmonode.generator import (
    GridTrussParams,
    apply_control_sample,
    generate_grid_truss,
    latin_hypercube,
    sweep,
)
from harmonode.model import Point3, PointLoad, Support, TrussModel, TrussNode, write_model


def _grid_truss(keep_supports, grid=7):
    """The README family at controls (0.25, 1.5, 1.75, 0.5), supports edited."""
    family = GridTrussParams(nx=grid, ny=grid, bay=3.0, depth=1.0, control_heights=((0.0, 0.0),) * 4)
    model = generate_grid_truss(apply_control_sample(family, (0.25, 1.5, 1.75, 0.5)))
    return replace(model, supports=keep_supports(model.supports))


def _z_rollers(supports):
    return tuple(Support(s.node, (False, False, True)) for s in supports)


def _one_pin(supports):
    return supports[:1] + _z_rollers(supports[1:])


def _pin_at_support_3(supports):
    # One rotation about the pin stays free: a single mechanism mode.
    return _z_rollers(supports[:3]) + supports[3:4] + _z_rollers(supports[4:])


# Singular models and the DOF the band factor names: that of the first band
# pivot at or below 1e-8 x the largest diagonal, in reverse Cuthill-McKee order.
_SINGULAR = [
    pytest.param(lambda: two_bar_model(restrain_apex_y=False), 2, "y", id="two-bar"),
    # No member reaches the free DOF: every diagonal, the largest too, is zero.
    pytest.param(
        lambda: TrussModel(
            nodes=(TrussNode(0, Point3(0.0, 0.0, 0.0)),),
            elements=(),
            supports=(Support(0, (True, True, False)),),
            loads=(PointLoad(0, Point3(0.0, 0.0, 1.0), "default"),),
        ),
        0,
        "z",
        id="memberless-node",
    ),
    pytest.param(lambda: _grid_truss(lambda supports: supports[:1]), 1, "z", id="grid-one-support"),
    pytest.param(lambda: _grid_truss(_z_rollers), 1, "x", id="grid-z-rollers"),
    pytest.param(lambda: _grid_truss(lambda supports: supports[:2]), 0, "z", id="grid-two-supports"),
    pytest.param(lambda: _grid_truss(_z_rollers, grid=15), 1, "x", id="grid15-z-rollers"),
    pytest.param(lambda: _grid_truss(lambda supports: supports[:1], grid=15), 1, "z", id="grid15-one-support"),
    pytest.param(lambda: _grid_truss(lambda supports: supports[:2], grid=15), 0, "z", id="grid15-two-supports"),
    pytest.param(lambda: _grid_truss(_one_pin, grid=11), 0, "y", id="grid11-one-pin"),
    pytest.param(lambda: _grid_truss(_pin_at_support_3, grid=15), 0, "y", id="grid15-pin3"),
    pytest.param(lambda: _grid_truss(_pin_at_support_3, grid=25), 0, "y", id="grid25-pin3"),
]


class TestSolve:
    @pytest.mark.parametrize("height", [0.5, 1.0, 2.0])
    def test_two_bar_matches_closed_form(self, height):
        load = 1000.0
        model = two_bar_model(height=height, half_span=1.0, load=load)
        result = solve(model)
        expected = two_bar_closed_form(height, 1.0, load)
        for force in result.axial_forces.values():
            assert force == pytest.approx(expected, rel=1e-10)

    def test_single_bar_identity(self):
        length, load = 2.0, 500.0
        result = solve(single_bar_model(length, load))
        assert result.axial_forces[0] == pytest.approx(load, rel=1e-12)
        tip = result.displacements[1]
        assert tip.x == pytest.approx(load * length / (STEEL_E * BAR_AREA), rel=1e-12)
        assert tip.y == 0.0 and tip.z == 0.0

    def test_zero_load_vector_gives_zero_state(self):
        model = two_bar_model()
        zeroed = TrussModel(
            model.nodes,
            model.elements,
            model.supports,
            (PointLoad(2, Point3(0.0, 0.0, 0.0), "default"),),
        )
        result = solve(zeroed)
        assert all(f == 0.0 for f in result.axial_forces.values())
        assert all(d.as_tuple() == (0.0, 0.0, 0.0) for d in result.displacements.values())

    def test_no_loads_in_case_is_an_error(self):
        with pytest.raises(ValueError, match="no loads"):
            solve(two_bar_model(), "wind")

    def test_ambiguous_case_requires_choice(self):
        model = two_bar_model()
        multi = TrussModel(
            model.nodes,
            model.elements,
            model.supports,
            model.loads + (PointLoad(2, Point3(10.0, 0.0, 0.0), "wind"),),
        )
        with pytest.raises(ValueError, match="several load cases"):
            solve(multi)
        assert solve(multi, "wind").load_case == "wind"

    @pytest.mark.parametrize("make_model, node, axis", _SINGULAR)
    def test_mechanism_names_offending_dof(self, make_model, node, axis):
        with pytest.raises(SingularStructureError) as excinfo:
            solve(make_model())
        assert excinfo.value.node == node
        assert excinfo.value.axis == axis
        assert f"node {node}" in str(excinfo.value)

    @pytest.mark.parametrize("make_model, node, axis", [c for c in _SINGULAR if c.id != "grid25-pin3"])
    def test_named_dof_moves_in_a_mechanism_mode(self, make_model, node, axis):
        # If band pivot k vanishes, the leading k x k block has a null vector
        # with a nonzero k-th entry; padded with zeros it is a null vector of K.
        assert _null_space_weight(make_model(), node, axis) > 1e-6

    def test_message_reports_pivot_share_and_rule(self):
        with pytest.raises(SingularStructureError) as excinfo:
            solve(_grid_truss(_z_rollers))
        error = excinfo.value
        assert 0.0 < abs(error.share) <= fea._PIVOT_RTOL
        assert f"pivot {error.pivot:.2e}, {error.share:.1e} of the largest diagonal" in str(error)
        assert "(rule: at or below 1e-08)" in str(error)
        assert re.search(r"near node (\d+) direction (\w)", str(error)).groups() == ("1", "x")

    def test_mechanism_diagnosis_independent_of_blas_threads(self, tmp_path):
        assert _named_under_blas_threads(tmp_path, _grid_truss(_z_rollers)) == {("1", "x")}

    def test_grid15_one_support_named_independent_of_blas_threads(self, tmp_path):
        # Its band pivot at node 1 z is about 3e-13 of the largest diagonal in
        # magnitude, over four decades under the 1e-8 rule, so round-off that
        # differs with the BLAS thread count cannot move the name.
        model = _grid_truss(lambda supports: supports[:1], grid=15)
        assert _named_under_blas_threads(tmp_path, model) == {("1", "z")}

    def test_study_design_products_independent_of_blas_threads(self, tmp_path):
        # Every band factor, solve and product has 64 rows; OpenBLAS changes
        # the bits of such calls with the thread count from 128 rows up.
        path = tmp_path / "study.truss.json"
        path.write_text(write_model(_grid_truss(lambda supports: supports, grid=25)))
        names = ("forces.csv", "displacements.csv", "reactions.csv", "feature_vectors.csv")
        products = {}
        for threads in ("1", "2"):
            for command in ("analyze", "descriptors"):
                result = subprocess.run(
                    [sys.executable, "-m", "harmonode.cli", command, str(path), "--out", str(tmp_path / threads)],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                    timeout=300,
                )
                assert result.returncode == 0, result.stderr
            products[threads] = [(tmp_path / threads / name).read_bytes() for name in names]
        assert [name for name, one, two in zip(names, *products.values()) if one != two] == []

    def test_equilibrium_residual_names_its_largest_component(self, monkeypatch):
        # Free DOFs of the two-bar frame: apex x, then apex z. Pushing apex x
        # leaves a residual at apex x alone (the bars' x-z coupling cancels).
        free_displacements = fea._free_displacements

        def pushed(*args):
            u = free_displacements(*args)
            u[0] += 1e-3
            return u

        monkeypatch.setattr(fea, "_free_displacements", pushed)
        with pytest.raises(ArithmeticError, match="equilibrium residual .* largest at node 2 direction x"):
            solve(two_bar_model())

    def test_renumbering_keeps_forces(self):
        model = _grid_truss(lambda supports: supports, grid=9)
        rng = np.random.default_rng(9)
        shuffled = replace(
            model,
            nodes=tuple(model.nodes[i] for i in rng.permutation(len(model.nodes))),
            elements=tuple(model.elements[i] for i in rng.permutation(len(model.elements))),
        )
        base = solve(model).axial_forces
        forces = solve(shuffled).axial_forces
        largest = max(abs(f) for f in base.values())
        assert forces.keys() == base.keys()
        assert max(abs(forces[eid] - f) for eid, f in base.items()) <= 1e-10 * largest

    def test_study_design_solve_memory(self):
        # One dense 3603-DOF stiffness matrix alone would take 103.7 MB.
        model = _grid_truss(lambda supports: supports, grid=25)
        tracemalloc.start()
        try:
            solve(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_singular_study_design_memory(self):
        # The mechanism is named from the band factor; no dense K is built.
        model = _grid_truss(_pin_at_support_3, grid=25)
        tracemalloc.start()
        try:
            with pytest.raises(SingularStructureError):
                solve(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_study_design_equilibrium_residual(self):
        # The 25x25 study design: 3591 free DOFs, one Cholesky factor.
        model = _grid_truss(lambda supports: supports, grid=25)
        result = solve(model)
        index = {n.id: i for i, n in enumerate(model.nodes)}
        pos = np.array([n.position.as_tuple() for n in model.nodes])
        net = np.zeros_like(pos)
        for el in model.elements:
            a, b = index[el.start], index[el.end]
            pull = result.axial_forces[el.id] * (pos[b] - pos[a]) / np.linalg.norm(pos[b] - pos[a])
            net[a] += pull
            net[b] -= pull
        f = np.zeros_like(pos)
        for load in model.loads:
            f[index[load.node]] += load.force.as_tuple()
        for node, reaction in result.reactions.items():
            net[index[node]] += reaction.as_tuple()
        assert np.linalg.norm(net + f) <= 1e-10 * np.linalg.norm(f)

    def test_split_support_entries_merge_their_reactions(self):
        # Node 0's (T, T, T) support given as (T, F, F) + (F, T, T): the same structure.
        model = two_bar_model()
        split = (Support(0, (True, False, False)), Support(0, (False, True, True)))
        result = solve(replace(model, supports=split + model.supports[1:]))
        merged = solve(model)
        assert result.axial_forces == merged.axial_forces
        assert result.reactions == merged.reactions
        assert list(result.reactions) == [0, 1, 2]
        assert abs(result.reactions[0].x) == pytest.approx(500.0, rel=1e-12)

    def test_reaction_balance(self, flat_model):
        result = solve(flat_model)
        reactions = np.array([r.as_tuple() for r in result.reactions.values()]).sum(axis=0)
        applied = np.array([l.force.as_tuple() for l in flat_model.loads]).sum(axis=0)
        f_norm = np.linalg.norm([l.force.as_tuple() for l in flat_model.loads])
        assert np.abs(reactions + applied).max() <= 1e-8 * f_norm

    def test_frame_objectivity(self, flat_model):
        rng = np.random.default_rng(31)
        base = solve(flat_model)
        for _ in range(3):
            rotation = random_rotation(rng)
            rotated = _rotate_model(flat_model, rotation)
            result = solve(rotated)
            for eid, force in base.axial_forces.items():
                assert result.axial_forces[eid] == pytest.approx(
                    force, rel=1e-8, abs=1e-8 * abs(force) + 1e-6
                )
            for nid, disp in base.displacements.items():
                expected = rotation @ np.array(disp.as_tuple())
                got = np.array(result.displacements[nid].as_tuple())
                assert np.allclose(got, expected, rtol=1e-8, atol=1e-12)


def _named_under_blas_threads(tmp_path, model):
    """The (node, axis) that `harmonode analyze` names under 1 and 2 BLAS threads."""
    path = tmp_path / "model.json"
    path.write_text(write_model(model))
    named = set()
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "harmonode.cli", "analyze", str(path), "--out", str(tmp_path / threads)],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            timeout=120,
        )
        assert result.returncode == 1, result.stderr
        named.add(re.search(r"near node (\d+) direction (\w)", result.stderr).groups())
    return named


def _null_space_weight(model, node, axis):
    """Length of the named DOF's unit vector projected onto the null space of
    the dense free-DOF stiffness (eigenvalues at or below 1e-9 x the
    largest), assembled here member by member."""
    index = {n.id: i for i, n in enumerate(model.nodes)}
    pos = np.array([n.position.as_tuple() for n in model.nodes])
    stiffness = np.zeros((pos.size, pos.size))
    for el in model.elements:
        a, b = index[el.start], index[el.end]
        length = np.linalg.norm(pos[b] - pos[a])
        grad = np.concatenate([pos[a] - pos[b], pos[b] - pos[a]]) / length
        dofs = np.r_[3 * a : 3 * a + 3, 3 * b : 3 * b + 3]
        stiffness[np.ix_(dofs, dofs)] += el.youngs_modulus * el.area / length * np.outer(grad, grad)
    fixed = np.zeros(pos.size, dtype=bool)
    for sup in model.supports:
        fixed[3 * index[sup.node] : 3 * index[sup.node] + 3] |= sup.fixed
    free = np.flatnonzero(~fixed)
    values, vectors = np.linalg.eigh(stiffness[np.ix_(free, free)])
    null = vectors[:, values <= 1e-9 * values.max()]
    row = int(np.flatnonzero(free == 3 * index[node] + "xyz".index(axis))[0])
    return float(np.linalg.norm(null[row]))


def _rotate_model(model: TrussModel, rotation: np.ndarray) -> TrussModel:
    from dataclasses import replace

    nodes = tuple(
        replace(n, position=Point3(*(rotation @ np.array(n.position.as_tuple()))))
        for n in model.nodes
    )
    loads = tuple(
        replace(l, force=Point3(*(rotation @ np.array(l.force.as_tuple())))) for l in model.loads
    )
    supports = tuple(Support(s.node, (True, True, True)) for s in model.supports)
    return TrussModel(nodes, model.elements, supports, loads, model.name, model.enclosure_area)


class TestBandFactor:
    @pytest.mark.parametrize(
        "half_bandwidth",
        [0, _SOLVE_BLOCK // 2, _SOLVE_BLOCK, 2 * _SOLVE_BLOCK, 3 * _SOLVE_BLOCK, 4 * _SOLVE_BLOCK],
        ids=["diagonal", "below", "at", "two-blocks", "three-blocks", "four-blocks"],
    )
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 300])
    def test_matches_dense_solve_across_block_edges(self, n, half_bandwidth):
        rng = np.random.default_rng(n + half_bandwidth)
        w = min(half_bandwidth, n - 1)
        rows = np.arange(n)
        # L L^T with L lower triangular of bandwidth w: SPD, half-bandwidth w.
        lower = np.tril(rng.normal(size=(n, n))) * (rows[:, None] - rows[None, :] <= w)
        a = lower @ lower.T + (w + 1) * np.eye(n)
        b = rng.normal(size=n)
        band = _block_banded(*_band_values(a, w))
        assert band.shape[1] - 1 == min(-(-w // _SOLVE_BLOCK), (n - 1) // _SOLVE_BLOCK)
        assert _block_cholesky(band, n, 0.0) is None
        # The factor's diagonal blocks hold their inverses.
        pivots = np.diagonal(band[:, 0], axis1=1, axis2=2).ravel()[:n] ** -2.0
        assert np.allclose(pivots, np.diag(np.linalg.cholesky(a)) ** 2, rtol=1e-12, atol=0.0)
        x = _block_solve(band, b)
        expected = np.linalg.solve(a, b)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_every_block_is_the_dense_assembly(self):
        # np.bincount keeps np.add.at's summation order: each stored block is
        # the dense matrix's, to the bit, and the padding is an identity.
        rng = np.random.default_rng(3)
        ends = rng.integers(0, 50, size=(140, 2))
        fixed = rng.random(150) < 0.2
        pattern = _band_pattern(ends.tobytes(), fixed.tobytes())
        n = int((~fixed).sum())
        rank = np.full(150, -1)
        rank[pattern.order] = np.arange(n)
        rows = rank[np.hstack([3 * ends[:, :1] + np.arange(3), 3 * ends[:, 1:] + np.arange(3)])]
        values = rng.normal(size=(140, 6, 6))
        nb, width, size = pattern.shape[:3]
        dense = np.eye(nb * size)
        dense[:n, :n] = 0.0
        keep = (rows[:, :, None] >= 0) & (rows[:, None, :] >= 0)
        r, c = np.broadcast_arrays(rows[:, :, None], rows[:, None, :])
        np.add.at(dense, (r[keep], c[keep]), values[keep])
        band = _block_banded(values, pattern)
        assert nb > 1 and width > 1
        for i in range(nb):
            for j in range(min(width, i + 1)):
                block = dense[i * size : (i + 1) * size, (i - j) * size : (i - j + 1) * size]
                assert np.array_equal(band[i, j], block), (i, j)

    def test_first_vanishing_pivot_named_not_the_smallest(self):
        # The smallest pivot is row 3; the first at or below the rule is row 1.
        values = np.diag([1.0, 1e-20, 1.0, 1e-30, 1.0])
        band = _block_banded(values[None], _band_layout(np.arange(5), np.arange(5)[None]))
        row, pivot = _block_cholesky(band, 5, 1e-8)
        assert row == 1
        assert pivot == pytest.approx(1e-20, rel=1e-12)

    def test_failed_block_names_its_row(self, monkeypatch):
        # SPD with half-bandwidth 20, then row 128, the first row of block 2
        # (blocks of 64 rows), is given pivot -1: np.linalg.cholesky refuses
        # that block and unpivoted elimination finds the row.
        n, w = 130, 20
        rng = np.random.default_rng(130)
        rows = np.arange(n)
        lower = np.tril(rng.normal(size=(n, n))) * (rows[:, None] - rows[None, :] <= w)
        a = lower @ lower.T + (w + 1) * np.eye(n)
        a[128, 128] -= np.linalg.cholesky(a)[128, 128] ** 2 + 1.0
        eliminated = []
        first_vanishing_pivot = fea._first_vanishing_pivot

        def spy(a, threshold):
            eliminated.append(first_vanishing_pivot(a, threshold))
            return eliminated[-1]

        monkeypatch.setattr(fea, "_first_vanishing_pivot", spy)
        band = _block_banded(*_band_values(a, w))
        row, pivot = _block_cholesky(band, n, 1e-8 * a.diagonal().max())
        assert (row, len(eliminated)) == (128, 1)
        assert pivot == pytest.approx(-1.0, rel=1e-8)

    def test_padding_rows_never_named(self, monkeypatch):
        # On the 25x25 study design the rule's threshold (1e-8 x the largest
        # diagonal) exceeds the padding's identity pivots of 1.0, so a check
        # over every stored row would call this sound model singular.
        factored = []
        block_cholesky = fea._block_cholesky

        def spy(band, n, threshold):
            vanishing = block_cholesky(band, n, threshold)
            factored.append((band.shape[0] * band.shape[2] - n, threshold, vanishing))
            return vanishing

        monkeypatch.setattr(fea, "_block_cholesky", spy)
        solve(_grid_truss(lambda supports: supports, grid=25))
        [(padding, threshold, vanishing)] = factored
        assert padding == 57
        assert threshold > 1.0
        assert vanishing is None


def _band_values(a, w):
    """The entries of a, half-bandwidth w, as square blocks over windows of
    w + 1 rows, each entry in one block only, and their band pattern."""
    n = a.shape[0]
    window = np.arange(w + 1)
    rows = np.arange(n)[:, None] + window
    rows = np.where(rows < n, rows, -1)
    # Window s holds the entries whose smaller index is s: its first row and column.
    first = (np.minimum.outer(window, window) == 0) & (rows[:, :, None] >= 0) & (rows[:, None, :] >= 0)
    return np.where(first, a[rows[:, :, None], rows[:, None, :]], 0.0), _band_layout(np.arange(n), rows)


class TestBandPattern:
    @pytest.fixture()
    def patterns(self, monkeypatch):
        """Every band pattern solve uses, in call order, from a cleared cache."""
        used = []
        _band_pattern.cache_clear()

        def spy(ends, fixed):
            used.append(_band_pattern(ends, fixed))
            return used[-1]

        monkeypatch.setattr(fea, "_band_pattern", spy)
        return used

    def test_cold_and_warm_cache_agree_to_the_bit(self, patterns):
        model = _grid_truss(lambda supports: supports)
        cold = solve(model)
        warm = solve(model)
        assert cold == warm
        assert patterns[0] is patterns[1]
        _band_pattern.cache_clear()
        cold = size_members(model)
        assert size_members(model) == cold
        assert _band_pattern.cache_info().misses == 1

    def test_each_support_set_gets_its_own_pattern(self, patterns):
        three_pins = _grid_truss(lambda supports: supports[:3])
        solve(_grid_truss(lambda supports: supports))
        warm = solve(three_pins)
        assert patterns[0] is not patterns[1]
        assert patterns[0].order.size < patterns[1].order.size
        _band_pattern.cache_clear()
        assert solve(three_pins) == warm

    def test_cached_arrays_are_read_only(self, patterns):
        solve(_grid_truss(lambda supports: supports))
        [pattern] = patterns
        for array in (pattern.order, pattern.keep, pattern.flat, pattern.pad):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pattern.flat[0] = 0

    def test_a_sweep_family_shares_one_pattern(self, tmp_path):
        _band_pattern.cache_clear()
        family = GridTrussParams(nx=4, ny=4, bay=2.0, depth=1.0, control_heights=((0.0, 0.0),) * 2)
        records = sweep(family, latin_hypercube(3, [(0.0, 1.5)] * 2, seed=0), tmp_path)
        assert [r.status for r in records] == ["ok"] * 3
        assert _band_pattern.cache_info().misses == 1


class TestExtractDemands:
    def test_single_tension_member(self):
        result = solve(single_bar_model(2.0, 10000.0))
        demands = extract_demands(single_bar_model(2.0, 10000.0), result)
        entry = demands[0].entries[0]  # node 0 looks toward node 1 along +x
        assert entry.direction == pytest.approx((1.0, 0.0, 0.0))
        assert entry.magnitude == pytest.approx(10000.0, rel=1e-12)
        assert entry.sense == TENSION

    def test_compression_lands_at_same_location(self):
        model = single_bar_model(2.0, 10000.0)
        pushed = TrussModel(
            model.nodes,
            model.elements,
            model.supports,
            (PointLoad(1, Point3(-10000.0, 0.0, 0.0), "default"),),
        )
        entry = extract_demands(pushed, solve(pushed))[0].entries[0]
        assert entry.direction == pytest.approx((1.0, 0.0, 0.0))
        assert entry.magnitude == pytest.approx(10000.0, rel=1e-12)
        assert entry.sense == COMPRESSION

    def test_interior_node_balances_applied_load(self):
        model = two_bar_model(height=1.5, load=2000.0)
        result = solve(model)
        demands = {d.node: d for d in extract_demands(model, result)}
        apex = demands[2]
        total = np.zeros(3)
        for entry in apex.entries:
            total += entry.signed_magnitude() * np.asarray(entry.direction)
        applied = np.array([0.0, 0.0, -2000.0])
        assert np.abs(total + applied).max() <= 1e-8

    def test_demand_completeness(self, flat_model):
        result = solve(flat_model)
        demands = extract_demands(flat_model, result)
        degree = {n.id: 0 for n in flat_model.nodes}
        for el in flat_model.elements:
            degree[el.start] += 1
            degree[el.end] += 1
        assert [d.node for d in demands] == sorted(degree)
        for demand in demands:
            assert len(demand.entries) == degree[demand.node]

    def test_optional_entries(self):
        model = two_bar_model(load=2000.0)
        result = solve(model)
        with_loads = {d.node: d for d in extract_demands(model, result, include_applied_loads=True)}
        assert len(with_loads[2].entries) == 3
        extra = with_loads[2].entries[-1]
        assert extra.direction == pytest.approx((0.0, 0.0, -1.0))
        assert extra.magnitude == pytest.approx(2000.0)

        with_reactions = {
            d.node: d for d in extract_demands(model, result, include_reactions=True)
        }
        assert len(with_reactions[0].entries) == 2
        assert len(with_reactions[2].entries) == 2  # apex support carries ~zero reaction

    def test_applied_loads_of_the_solved_case_only(self):
        model = two_bar_model(load=2000.0)
        two_cases = replace(model, loads=model.loads + (PointLoad(2, Point3(500.0, 0.0, 0.0), "wind"),))
        for case, direction, magnitude in (("default", (0.0, 0.0, -1.0), 2000.0), ("wind", (1.0, 0.0, 0.0), 500.0)):
            result = solve(two_cases, case)
            apex = {d.node: d for d in extract_demands(two_cases, result, include_applied_loads=True)}[2]
            assert len(apex.entries) == 3
            assert apex.entries[-1].direction == pytest.approx(direction)
            assert apex.entries[-1].magnitude == pytest.approx(magnitude)

    def test_near_zero_force_still_included(self):
        model = two_bar_model()
        result = solve(model)
        zeroed = dict(result.axial_forces)
        zeroed[0] = 1e-12
        from dataclasses import replace

        patched = replace(result, axial_forces=zeroed)
        demands = {d.node: d for d in extract_demands(model, patched)}
        assert demands[0].entries[0].magnitude == pytest.approx(1e-12)


class TestDemandEntry:
    def test_nan_direction_refused(self):
        with pytest.raises(ValueError, match="^direction must be a unit vector, norm was nan$"):
            DemandEntry((math.nan, 0.0, 0.0), 1.0, TENSION)

    def test_nan_magnitude_refused(self):
        with pytest.raises(ValueError, match="^magnitude must be non-negative, got nan$"):
            DemandEntry((1.0, 0.0, 0.0), math.nan, TENSION)


class TestSizeMembers:
    def test_floor_applies(self, flat_model):
        sized = size_members(flat_model)
        areas = [e.area for e in sized.model.elements]
        assert min(areas) == pytest.approx(400e-6)
        assert sized.converged

    def test_demanded_areas_match_final_forces(self, flat_model):
        sized = size_members(flat_model)
        final = solve(sized.model)
        for el in sized.model.elements:
            required = abs(final.axial_forces[el.id]) * 1.67 / 345e6
            assert el.area == pytest.approx(max(400e-6, required), rel=2e-3)

    def test_determinate_truss_converges_in_two_passes(self):
        sized = size_members(two_bar_model(load=1e6))
        assert sized.converged
        assert sized.iterations <= 2

    def test_mass_per_area_uses_enclosure(self):
        model = two_bar_model(load=1e6)
        with_area = TrussModel(
            model.nodes, model.elements, model.supports, model.loads, enclosure_area=100.0
        )
        sized = size_members(with_area)
        assert sized.mass_per_area == pytest.approx(sized.total_mass / 100.0)
        assert sized.total_mass == pytest.approx(model_mass(sized.model))

    def test_non_convergence_reported_not_raised(self, flat_model):
        sized = size_members(flat_model, max_iter=1)
        assert not sized.converged
        assert sized.iterations == 1

    def test_mass_formula(self):
        model = single_bar_model(length=2.0)
        assert model_mass(model) == pytest.approx(7850.0 * BAR_AREA * 2.0)

    @pytest.mark.parametrize(
        "make_model",
        [lambda: _grid_truss(lambda supports: supports), lambda: two_bar_model(load=1e6)],
        ids=["grid7", "two-bar"],
    )
    def test_one_solve_per_pass(self, monkeypatch, make_model):
        # The benchmark's traced check counts on it: solves = sizing passes.
        calls = []
        counted = fea.solve

        def counting(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(fea, "solve", counting)
        sized = size_members(make_model())
        assert sized.converged
        assert len(calls) == sized.iterations

    # The README family at 7x7; at 5x5 its load leaves every member at the
    # floor, so 150 kN per node makes the sizing work there.
    @pytest.mark.parametrize("grid, load", [(5, 150e3), (7, 20e3)], ids=["5x5", "7x7"])
    def test_lhs_designs_size_to_the_plain_fixed_point(self, grid, load):
        family = GridTrussParams(
            nx=grid, ny=grid, bay=3.0, depth=1.0, control_heights=((0.0, 0.0),) * 4, load_per_node=load
        )
        passes = []
        for controls in latin_hypercube(4, [(0.0, 2.0)] * 4, seed=grid):
            model = generate_grid_truss(apply_control_sample(family, controls))
            mass, plain_passes = _plain_fixed_point(model)
            sized = size_members(model)
            assert sized.converged
            assert sized.iterations <= plain_passes
            passes.append((sized.iterations, plain_passes))
            assert abs(sized.total_mass - mass) <= 2e-4 * mass
            areas = np.array([el.area for el in sized.model.elements])
            twins = _mirror_rows(sized.model, (grid - 1) * 3.0)
            assert (np.abs(areas - areas[twins]) <= 1e-12 * areas).all()
            final = solve(sized.model).axial_forces
            strength = np.array([abs(final[el.id]) for el in sized.model.elements]) * SAFETY_FACTOR
            floored = strength <= 0.5 * MIN_AREA * STEEL_YIELD_STRESS
            assert floored.any() and (areas[floored] == MIN_AREA).all()
        mixed, plain = np.sum(passes, axis=0)
        assert mixed < plain


def _plain_fixed_point(model, rtol=1e-9):
    """Mass at plain strength-sizing iteration run to rtol through fea.solve,
    and the pass at which the sizing rule's 1e-3 first held."""
    areas = np.array([el.area for el in model.elements])
    rule_passes = None
    for passes in range(1, 1000):
        forces = solve(model).axial_forces
        strength = np.array([abs(forces[el.id]) for el in model.elements]) * SAFETY_FACTOR
        sizes = np.maximum(MIN_AREA, strength / STEEL_YIELD_STRESS)
        change = float((np.abs(sizes - areas) / areas).max())
        areas = sizes
        elements = tuple(replace(el, area=a) for el, a in zip(model.elements, areas.tolist()))
        model = replace(model, elements=elements)
        if rule_passes is None and change <= _SIZING_RTOL:
            rule_passes = passes
        if change <= rtol:
            return model_mass(model), rule_passes
    raise AssertionError("plain sizing did not reach its fixed point")


def _mirror_rows(model, span):
    """Each element's row's mirror image across the plane x = span / 2.

    Top nodes lie at whole bays and bottom nodes at half bays, so twice a
    node's plan position is a whole number on a 3.0 bay and names it.
    """
    plan = {n.id: (round(2 * n.position.x), round(2 * n.position.y)) for n in model.nodes}
    at = {xy: nid for nid, xy in plan.items()}
    twin = {nid: at[(round(2 * span) - x, y)] for nid, (x, y) in plan.items()}
    row = {frozenset((el.start, el.end)): i for i, el in enumerate(model.elements)}
    return np.array([row[frozenset((twin[el.start], twin[el.end]))] for el in model.elements])


def test_generated_models_round_trip_through_serialization(flat_model):
    from harmonode.model import read_model

    again = read_model(write_model(flat_model))
    assert again == flat_model
