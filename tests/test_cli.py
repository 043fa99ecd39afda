import csv
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import two_bar_closed_form, two_bar_model

from harmonode import cli, descriptor
from harmonode.cli import main
from harmonode.model import write_model


@pytest.fixture()
def two_bar_path(tmp_path):
    path = tmp_path / "two_bar.truss.json"
    path.write_text(write_model(two_bar_model(height=1.0, half_span=1.0, load=1000.0)))
    return path


@pytest.fixture()
def family_path(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps(
            {
                "nx": 4,
                "ny": 4,
                "bay": 2.0,
                "depth": 1.0,
                "control_heights": [[0.0, 0.0], [0.0, 0.0]],
                "load_per_node": 20000.0,
                "bounds": [0.0, 1.5],
            }
        )
    )
    return path


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def assert_valid_svg(path: Path):
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")


class TestAnalyze:
    def test_forces_match_closed_form(self, two_bar_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["analyze", str(two_bar_path), "--out", str(out)]) == 0
        rows = read_csv(out / "forces.csv")
        expected = two_bar_closed_form(1.0, 1.0, 1000.0)
        assert len(rows) == 2
        for row in rows:
            assert float(row["axial_force"]) == pytest.approx(expected, rel=1e-10)
        assert (out / "displacements.csv").exists()
        assert (out / "reactions.csv").exists()
        assert "analyzed case 'default'" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.truss.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.truss.json" in capsys.readouterr().err

    def test_malformed_model_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.truss.json"
        bad.write_text("{ not json")
        assert main(["analyze", str(bad), "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_load_case_selection(self, tmp_path):
        from harmonode.model import Point3, PointLoad, TrussModel

        model = two_bar_model()
        multi = TrussModel(
            model.nodes,
            model.elements,
            model.supports,
            model.loads + (PointLoad(2, Point3(500.0, 0.0, 0.0), "wind"),),
        )
        path = tmp_path / "multi.truss.json"
        path.write_text(write_model(multi))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", str(path), "--load-case", "default", "--out", str(out_a)]) == 0
        assert main(["analyze", str(path), "--load-case", "wind", "--out", str(out_b)]) == 0
        assert (out_a / "forces.csv").read_text() != (out_b / "forces.csv").read_text()
        # ambiguous without the flag
        assert main(["analyze", str(path), "--out", str(tmp_path / "c")]) == 1

    @pytest.mark.parametrize(
        "flag",
        [["--delta", "5"], ["--lmax", "8"], ["--kernel", "coordinate"], ["--amplitude", "signed"],
         ["--oversample", "2"], ["--include-loads"], ["--include-reactions"]],
        ids=lambda flag: flag[0],
    )
    def test_signature_flags_rejected(self, two_bar_path, tmp_path, capsys, flag):
        # analyze only solves statics, so it would silently ignore these
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(two_bar_path), *flag, "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestDescriptors:
    def test_default_emits_17_components(self, two_bar_path, tmp_path):
        out = tmp_path / "d"
        assert main(["descriptors", str(two_bar_path), "--out", str(out)]) == 0
        rows = read_csv(out / "feature_vectors.csv")
        assert len(rows) == 3
        assert [k for k in rows[0] if k.startswith("fv_")] == [f"fv_{i}" for i in range(17)]

    def test_lmax_controls_arity(self, two_bar_path, tmp_path):
        out = tmp_path / "d4"
        assert main(["descriptors", str(two_bar_path), "--lmax", "4", "--out", str(out)]) == 0
        rows = read_csv(out / "feature_vectors.csv")
        assert [k for k in rows[0] if k.startswith("fv_")] == [f"fv_{i}" for i in range(5)]

    def test_delta_changes_vectors(self, two_bar_path, tmp_path):
        out_a, out_b = tmp_path / "d5", tmp_path / "d300"
        main(["descriptors", str(two_bar_path), "--delta", "5", "--out", str(out_a)])
        main(["descriptors", str(two_bar_path), "--delta", "300", "--out", str(out_b)])
        a = (out_a / "feature_vectors.csv").read_text()
        b = (out_b / "feature_vectors.csv").read_text()
        assert a != b

    def test_expansion_files(self, two_bar_path, tmp_path):
        out = tmp_path / "exp"
        assert (
            main(
                [
                    "descriptors", str(two_bar_path), "--write-expansions",
                    "--lmax", "4", "--out", str(out),
                ]
            )
            == 0
        )
        rows = read_csv(out / "expansion_0000.csv")
        assert len(rows) == 25  # (l_max + 1)^2 coefficients
        assert list(rows[0]) == ["l", "m", "a_lm"]

    def test_expansions_build_each_force_function_once(
        self, example_model_path, tmp_path, monkeypatch
    ):
        calls = []
        original = descriptor.build_force_function

        def counting(spec, grid):
            calls.append(spec.demand.node)
            return original(spec, grid)

        # the CLI binds its own name for the function; count through both
        for module in (descriptor, cli):
            if hasattr(module, "build_force_function"):
                monkeypatch.setattr(module, "build_force_function", counting)
        argv = [
            "descriptors", str(example_model_path), "--write-expansions",
            "--kernel", "coordinate", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        nodes = [int(row["node_id"]) for row in read_csv(tmp_path / "feature_vectors.csv")]
        assert sorted(calls) == sorted(nodes)

    def test_expansions_agree_with_feature_vectors(self, example_model_path, tmp_path):
        # both products must see every flag: the energies of each node's
        # coefficient file are that node's feature vector
        out = tmp_path / "exp"
        assert (
            main(
                [
                    "descriptors", str(example_model_path), "--write-expansions",
                    "--kernel", "coordinate", "--amplitude", "signed", "--delta", "5",
                    "--out", str(out),
                ]
            )
            == 0
        )
        vectors = read_csv(out / "feature_vectors.csv")
        assert vectors
        for row in vectors:
            energies = np.zeros(len(row) - 1)
            for coeff in read_csv(out / f"expansion_{int(row['node_id']):04d}.csv"):
                energies[int(coeff["l"])] += float(coeff["a_lm"]) ** 2
            expected = [float(row[f"fv_{l}"]) for l in range(len(energies))]
            assert np.sqrt(energies) == pytest.approx(expected, rel=0, abs=1e-12)


class TestDownstreamCommands:
    def test_distances_outputs(self, two_bar_path, tmp_path):
        out = tmp_path / "dist"
        assert main(["distances", str(two_bar_path), "--out", str(out)]) == 0
        assert_valid_svg(out / "distance_matrix.svg")
        rows = read_csv(out / "distance_matrix.csv")
        assert len(rows) == 3

    def test_identical_twins_render_white_cells(self, two_bar_path, tmp_path):
        out = tmp_path / "twins"
        assert main(["distances", str(two_bar_path), "--out", str(out)]) == 0
        rows = read_csv(out / "distance_matrix.csv")
        # the two feet of the symmetric frame are twins: distance ~ 0
        d01 = float(rows[0]["1"])
        scale = max(float(v) for row in rows for k, v in row.items() if k != "node_id")
        assert d01 <= 1e-9 * scale
        svg = (out / "distance_matrix.svg").read_text()
        assert 'fill="rgb(255,255,255)"' in svg

    def test_mds_outputs(self, two_bar_path, tmp_path):
        out = tmp_path / "mds"
        assert main(["mds", str(two_bar_path), "--out", str(out)]) == 0
        assert_valid_svg(out / "mds.svg")
        rows = read_csv(out / "mds.csv")
        assert list(rows[0]) == ["node_id", "coord_0", "coord_1"]

    def test_cluster_outputs(self, two_bar_path, tmp_path):
        out = tmp_path / "clu"
        assert main(["cluster", str(two_bar_path), "--k", "2", "--out", str(out)]) == 0
        labels = read_csv(out / "clusters.csv")
        assert len(labels) == 3
        summary = read_csv(out / "cluster_summary.csv")
        radii = [float(r["radius"]) for r in summary]
        assert radii == sorted(radii)
        assert_valid_svg(out / "clusters.svg")
        assert_valid_svg(out / "parallel_coordinates.svg")

    def test_complexity_from_feature_csv(self, tmp_path, capsys):
        feature_file = tmp_path / "feature_vectors.csv"
        feature_file.write_text("node_id,fv_0,fv_1\n7,1.0,2.0\n")
        out = tmp_path / "cx"
        assert main(["complexity", str(feature_file), "--out", str(out)]) == 0
        assert "complexity_radius: 0.0" in capsys.readouterr().out
        rows = read_csv(out / "summary.csv")
        values = {r["metric"]: r["value"] for r in rows}
        assert float(values["complexity_radius"]) == 0.0

    def test_feature_csv_round_trip_between_commands(self, two_bar_path, tmp_path):
        out = tmp_path / "pipe"
        main(["descriptors", str(two_bar_path), "--out", str(out)])
        assert main(["distances", str(out / "feature_vectors.csv"), "--out", str(out)]) == 0
        assert main(["complexity", str(out / "feature_vectors.csv"), "--out", str(out)]) == 0

    def test_dimension_mismatch_exits_nonzero(self, tmp_path):
        bad = tmp_path / "feature_vectors.csv"
        bad.write_text("node_id,fv_0,fv_1\n0,1.0,2.0\n1,3.0\n")
        assert main(["distances", str(bad), "--out", str(tmp_path)]) == 1


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, two_bar_path, tmp_path):
        out_a, out_b = tmp_path / "r1", tmp_path / "r2"
        for out in (out_a, out_b):
            assert main(["descriptors", str(two_bar_path), "--out", str(out)]) == 0
            assert main(["cluster", str(out / "feature_vectors.csv"), "--k", "2",
                         "--seed", "5", "--out", str(out)]) == 0
        for name in ("feature_vectors.csv", "clusters.csv", "cluster_summary.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSweepCommand:
    def test_sweep_outputs_and_determinism(self, family_path, tmp_path):
        out_a, out_b = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", str(family_path), "--n", "4", "--seed", "0", "--out", str(out_a)]) == 0
        assert main(["sweep", str(family_path), "--n", "4", "--seed", "0", "--out", str(out_b)]) == 0
        rows = read_csv(out_a / "sweep.csv")
        assert len(rows) == 4
        assert all(r["solver_status"] == "ok" for r in rows)
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
        assert_valid_svg(out_a / "biobjective.svg")

    @pytest.mark.parametrize(
        "flag",
        [["--include-loads"], ["--include-reactions"], ["--load-case", "gravity"]],
        ids=lambda flag: flag[0],
    )
    def test_demand_flags_rejected(self, family_path, tmp_path, capsys, flag):
        # sweep sizes and scores every design from its member forces alone
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(family_path), "--n", "2", *flag, "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_missing_params_file(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2
        assert "none.json" in capsys.readouterr().err

    def test_bad_bounds_length(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(
            json.dumps(
                {
                    "nx": 4, "ny": 4, "bay": 2.0, "depth": 1.0,
                    "control_heights": [[0.0, 0.0], [0.0, 0.0]],
                    "bounds": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
                }
            )
        )
        assert main(["sweep", str(path), "--n", "2", "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "bounds",
        [5, [[0.0, 1.0], None], [[0, 1, 2], [0, 1], [0, 1], [0, 1]], "x",
         [False, True], [0.0, float("inf")], [float("nan"), 1.0], [0, 10**400]],
        ids=["number", "null-pair", "triple", "string", "booleans", "infinite", "nan", "beyond-float"],
    )
    def test_malformed_bounds_named_in_error(self, tmp_path, capsys, bounds):
        path = tmp_path / "family.json"
        path.write_text(
            json.dumps(
                {
                    "nx": 4, "ny": 4, "bay": 2.0, "depth": 1.0,
                    "control_heights": [[0.0, 0.0], [0.0, 0.0]],
                    "bounds": bounds,
                }
            )
        )
        assert main(["sweep", str(path), "--n", "2", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "bounds" in err and str(path) in err

    @pytest.mark.parametrize(
        "field, value",
        [("nx", "seven"), ("load_per_node", "heavy"), ("bay", None), ("control_heights", 3.0),
         ("supports", [1, "two"]), ("depth", -1.0), ("nx", 4.9), ("nx", float("inf")),
         ("load_per_node", "1e4"), ("bay", "2.0"), ("bay", True), ("nx", True), ("supports", [True]),
         ("control_heights", [[True, 0.0], [0.0, 0.0]]), ("load_per_node", float("inf")),
         ("control_heights", [[float("nan"), 0.0], [0.0, 0.0]]), ("load_case", None), ("load_case", 5),
         ("load_case", True)],
        ids=["nx", "load_per_node", "bay-null", "control_heights", "supports", "depth-negative",
             "nx-fractional", "nx-infinite", "load_per_node-string", "bay-string", "bay-bool", "nx-bool",
             "supports-bool", "control_heights-bool", "load_per_node-infinite", "control_heights-nan",
             "load_case-null", "load_case-number", "load_case-bool"],
    )
    def test_malformed_field_named_in_error(self, tmp_path, capsys, field, value):
        path = tmp_path / "family.json"
        family = {
            "nx": 4, "ny": 4, "bay": 2.0, "depth": 1.0,
            "control_heights": [[0.0, 0.0], [0.0, 0.0]],
        }
        family[field] = value
        path.write_text(json.dumps(family))
        assert main(["sweep", str(path), "--n", "2", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert field in err and str(path) in err


def test_console_entry_point(two_bar_path, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "harmonode.cli", "analyze", str(two_bar_path),
         "--out", str(tmp_path / "cli_out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "analyzed case" in result.stdout
