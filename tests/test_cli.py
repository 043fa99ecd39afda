import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import two_bar_closed_form, two_bar_model

from harmonode import cli, descriptor, exports
from harmonode.analysis import kmeans
from harmonode.cli import main
from harmonode.fea import SingularStructureError
from harmonode.generator import GridTrussParams, generate_grid_truss
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


README_FAMILY = {
    "nx": 7, "ny": 7, "bay": 3.0, "depth": 1.0,
    "control_heights": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    "load_per_node": 20000.0,
    "bounds": [0.0, 2.0],
}
FAMILY_4X4 = {"nx": 4, "ny": 4, "bay": 2.0, "depth": 1.0, "control_heights": [[0.0, 0.0], [0.0, 0.0]]}

SIGNATURE_FLAGS = [
    ["--delta", "5"], ["--lmax", "8"], ["--kernel", "coordinate"], ["--amplitude", "signed"],
    ["--include-loads"], ["--include-reactions"],
]
DOWNSTREAM = ["distances", "mds", "cluster", "complexity"]


@pytest.fixture()
def two_bar_features(two_bar_path, tmp_path):
    """The two-bar model's feature_vectors.csv, as descriptors writes it."""
    out = tmp_path / "signatures"
    assert main(["descriptors", str(two_bar_path), "--out", str(out)]) == 0
    return out / "feature_vectors.csv"


def bad_row(row: str) -> str:
    """A feature CSV whose line 3 is the given row."""
    return f"node_id,fv_0,fv_1\n1,1.0,2.0\n{row}\n2,4.0,5.0\n"


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

    @pytest.mark.parametrize("command", ["analyze", "descriptors"])
    def test_model_error_names_the_file(self, example_model_path, tmp_path, capsys, command):
        document = json.loads(example_model_path.read_text())
        document["nodes"][0]["x"] = "zero"
        bad = tmp_path / "bad.truss.json"
        bad.write_text(json.dumps(document))
        assert main([command, str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: nodes[0].x: expected a number\n"
        bad.write_bytes(b"\xff{}")
        assert main([command, str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: document is not UTF-8: ")

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
        "command, flag",
        # analyze only solves statics; the downstream commands read signatures
        # from a CSV, so each would silently ignore these. analyze's cases keep
        # the bare flag as their id.
        [pytest.param("analyze", flag, id=flag[0]) for flag in SIGNATURE_FLAGS]
        + [
            pytest.param(command, flag, id=f"{command} {flag[0]}")
            for command in DOWNSTREAM
            for flag in SIGNATURE_FLAGS + [["--load-case", "default"]]
        ],
    )
    def test_signature_flags_rejected(self, two_bar_path, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(two_bar_path), *flag, "--out", str(tmp_path)])
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
    def test_distances_outputs(self, two_bar_features, tmp_path):
        out = tmp_path / "dist"
        assert main(["distances", str(two_bar_features), "--out", str(out)]) == 0
        assert_valid_svg(out / "distance_matrix.svg")
        rows = read_csv(out / "distance_matrix.csv")
        assert len(rows) == 3

    def test_identical_twins_render_white_cells(self, two_bar_features, tmp_path):
        out = tmp_path / "twins"
        assert main(["distances", str(two_bar_features), "--out", str(out)]) == 0
        rows = read_csv(out / "distance_matrix.csv")
        # the two feet of the symmetric frame are twins: distance ~ 0
        d01 = float(rows[0]["1"])
        scale = max(float(v) for row in rows for k, v in row.items() if k != "node_id")
        assert d01 <= 1e-9 * scale
        svg = (out / "distance_matrix.svg").read_text()
        assert 'fill="rgb(255,255,255)"' in svg

    def test_mds_outputs(self, two_bar_features, tmp_path):
        out = tmp_path / "mds"
        assert main(["mds", str(two_bar_features), "--out", str(out)]) == 0
        assert_valid_svg(out / "mds.svg")
        rows = read_csv(out / "mds.csv")
        assert list(rows[0]) == ["node_id", "coord_0", "coord_1"]

    def test_cluster_outputs(self, two_bar_features, tmp_path):
        out = tmp_path / "clu"
        assert main(["cluster", str(two_bar_features), "--k", "2", "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("command", DOWNSTREAM)
    @pytest.mark.parametrize(
        "text, line, message",
        [
            (bad_row("1,3.0"), 3, "2 fields, but the header has 3"),
            (bad_row("1,3.0,4.0,5.0"), 3, "4 fields, but the header has 3"),
            (bad_row("1,abc,4.0"), 3, "'abc'"),
            (bad_row("1,nan,4.0"), 3, "finite"),
            (bad_row("1,3.0,4.0"), 3, "node id 1 already on line 2"),
            # a blank id is the row's position, 1, which line 2 already names
            (bad_row(",3.0,4.0"), 3, "node id 1 already on line 2"),
            # rows of zero-length signatures
            ("node_id\n1\n2\n3\n", 1, "the header names no signature component"),
        ],
        ids=[
            "short-row", "long-row", "not-a-number", "non-finite", "duplicate-id", "blank-id-duplicate",
            "no-components",
        ],
    )
    def test_malformed_feature_csv_names_the_line(self, tmp_path, capsys, command, text, line, message):
        bad = tmp_path / "feature_vectors.csv"
        bad.write_text(text)
        assert main([command, str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}, line {line}: ") and message in err

    def test_non_utf8_feature_csv_names_the_line(self, tmp_path):
        # In a child process, as a user meets it: one error line, exit 1.
        bad = tmp_path / "feature_vectors.csv"
        bad.write_bytes(b"node_id,fv_0,fv_1\n1,1.\xff0,2.0\n2,4.0,5.0\n")
        result = subprocess.run(
            [sys.executable, "-m", "harmonode.cli", "complexity", str(bad), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {bad}, line 2: not UTF-8: ")
        assert len(result.stderr.splitlines()) == 1

    def test_model_input_is_refused(self, example_model_path, tmp_path, capsys):
        assert main(["cluster", str(example_model_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {example_model_path}: ") and "harmonode descriptors" in err

    @pytest.mark.parametrize("command", DOWNSTREAM)
    def test_missing_input_exits_two(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.csv"
        assert main([command, str(missing), "--out", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_products_share_node_ids(self, tmp_path):
        # Rows without a node id are labelled by their position, everywhere.
        rng = np.random.default_rng(97)
        nodes = (10, None, 12, None, 14)
        path = tmp_path / "feature_vectors.csv"
        exports.write_feature_vectors_csv(
            path, [descriptor.FeatureVector(tuple(rng.normal(size=4)), node) for node in nodes]
        )
        vectors = exports.read_feature_vectors_csv(path)
        expected = (10, 1, 12, 3, 14)
        assert descriptor.distance_matrix(vectors).node_ids == expected
        assert kmeans(vectors, k=2).node_ids == expected
        assert main(["mds", str(path), "--out", str(tmp_path)]) == 0
        assert main(["cluster", str(path), "--k", "2", "--out", str(tmp_path)]) == 0
        for product in ("mds.csv", "clusters.csv"):
            assert tuple(int(row["node_id"]) for row in read_csv(tmp_path / product)) == expected

    def test_signature_commands_never_import_scipy(self, example_model_path, tmp_path):
        # scipy is not a dependency; importing it would cost ~26 MiB of peak RSS.
        script = (
            "import sys\n"
            "from harmonode.cli import main\n"
            f"model, out = {str(example_model_path)!r}, {str(tmp_path)!r}\n"
            "features = out + '/feature_vectors.csv'\n"
            "for argv in (['descriptors', model], ['cluster', features, '--k', '2'], ['complexity', features]):\n"
            "    assert main(argv + ['--out', out]) == 0, argv\n"
            "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


class TestOutputPath:
    @pytest.mark.parametrize("command", ["cluster", "descriptors", "sweep"])
    @pytest.mark.parametrize("under", [False, True], ids=["names-a-file", "under-a-file"])
    def test_unusable_out_exits_two_without_traceback(
        self, request, tmp_path, capsys, monkeypatch, command, under
    ):
        source, flags = {
            "cluster": ("two_bar_features", ["--k", "2"]),
            "descriptors": ("two_bar_path", []),
            "sweep": ("family_path", ["--n", "1"]),
        }[command]
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker / "sub" if under else blocker
        argv = [command, str(request.getfixturevalue(source)), *flags, "--out", str(out)]

        def refuse(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        # --out is checked before any work, not after the whole computation
        for name in ("solve", "kmeans", "sweep"):
            monkeypatch.setattr(cli, name, refuse)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err
        assert "Traceback" not in err


class TestParserReuse:
    def test_one_process_matches_fresh_processes(self, two_bar_features, tmp_path, capsys):
        runs = [
            ["cluster", str(two_bar_features), "--k", "2"],
            ["complexity", str(two_bar_features)],
        ]
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(runs[0] + ["--out", str(shared)]) == 0
        with pytest.raises(SystemExit) as usage:
            main(["cluster", str(two_bar_features), "--k", "two"])
        assert usage.value.code == 2
        assert main(runs[1] + ["--out", str(shared)]) == 0
        shared_stdout = capsys.readouterr().out
        fresh_stdout = ""
        for argv in runs:
            result = subprocess.run(
                [sys.executable, "-m", "harmonode.cli", *argv, "--out", str(fresh)],
                capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            fresh_stdout += result.stdout
        assert shared_stdout == fresh_stdout
        names = sorted(path.name for path in fresh.iterdir())
        assert names == sorted(path.name for path in shared.iterdir())
        assert "clusters.csv" in names and "summary.csv" in names
        for name in names:
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_dispatch_runs_the_handler_bound_at_call_time(self, monkeypatch, tmp_path):
        cli._build_parser()  # the parser exists before the rebinding
        seen = []
        monkeypatch.setattr(cli, "cmd_cluster", lambda args: seen.append(args.k) or 0)
        assert main(["cluster", str(tmp_path / "absent.csv"), "--k", "3"]) == 0
        assert seen == [3]
        assert cli._build_parser() is cli._build_parser()


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

    def test_readme_family_sweep_independent_of_blas_threads(self, tmp_path):
        # Sizing mixes its passes by a LAPACK least-squares solve; no product
        # may depend on the BLAS thread count.
        family = tmp_path / "family.json"
        family.write_text(json.dumps(README_FAMILY))
        products = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            result = subprocess.run(
                [sys.executable, "-m", "harmonode.cli", "sweep", str(family), "--n", "4", "--seed", "0",
                 "--out", str(out)],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            products[threads] = {path.name: path.read_bytes() for path in out.iterdir()}
        assert all(r["solver_status"] == "ok" for r in read_csv(tmp_path / "1" / "sweep.csv"))
        assert len(products["1"]) == 6
        assert products["1"] == products["2"]

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
         [False, True], [0.0, float("inf")], [float("nan"), 1.0], [0, 10**400], [2.0, 0.0], [1.0, 1.0]],
        ids=["number", "null-pair", "triple", "string", "booleans", "infinite", "nan", "beyond-float",
             "reversed", "empty"],
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


    def sweep_family(self, tmp_path, name, family):
        """Exit code of `sweep --n 2 --seed 0` on the family, and the family file's path."""
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(family))
        code = main(["sweep", str(path), "--n", "2", "--seed", "0", "--out", str(tmp_path / name)])
        return code, path

    def test_missing_required_field_named(self, tmp_path, capsys):
        family = {k: v for k, v in FAMILY_4X4.items() if k != "depth"}
        code, path = self.sweep_family(tmp_path, "no-depth", family)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: field 'depth': required field is missing\n"
        assert "__init__()" not in err

    def test_null_supports_read_as_absent(self, tmp_path):
        assert self.sweep_family(tmp_path, "null", {**FAMILY_4X4, "supports": None})[0] == 0
        assert self.sweep_family(tmp_path, "absent", FAMILY_4X4)[0] == 0
        assert (tmp_path / "null" / "sweep.csv").read_bytes() == (tmp_path / "absent" / "sweep.csv").read_bytes()

    def test_support_outside_the_grid_refused_when_read(self, tmp_path, capsys):
        code, path = self.sweep_family(tmp_path, "s999", {**FAMILY_4X4, "supports": [999]})
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and "field 'supports'" in err and "999" in err
        assert not (tmp_path / "s999" / "sweep.csv").exists()

    def test_undecodable_family_file_named(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_bytes(b"\xff{}")
        assert main(["sweep", str(path), "--n", "2", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: document is not UTF-8: ")

    def test_invalid_json_named_alike_in_family_and_model_files(self, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_text('{\n  "nx": 4,\n  oops\n}\n')
        assert main(["sweep", str(family), "--n", "2", "--out", str(tmp_path / "x")]) == 1
        message = (
            "invalid JSON at offset 15 (line 3, column 3): Expecting property name enclosed in double quotes"
        )
        assert capsys.readouterr().err == f"error: {family}: {message}\n"
        model = tmp_path / "bad.truss.json"
        model.write_bytes(family.read_bytes())
        assert main(["analyze", str(model), "--out", str(tmp_path / "y")]) == 1
        assert capsys.readouterr().err == f"error: {model}: {message}\n"

    def test_singular_design_is_a_data_error(self, tmp_path, capsys):
        # One pinned node cannot restrain the grid: sweep tags every design, analyze exits 1.
        assert issubclass(SingularStructureError, ArithmeticError)
        code, _ = self.sweep_family(tmp_path, "pinned", {**FAMILY_4X4, "supports": [16]})
        assert code == 0
        statuses = [row["solver_status"] for row in read_csv(tmp_path / "pinned" / "sweep.csv")]
        assert len(statuses) == 2
        assert all(s.startswith("error: stiffness matrix is singular near node ") for s in statuses)
        params = GridTrussParams(**{**FAMILY_4X4, "control_heights": ((0.0, 0.0),) * 2, "supports": (16,)})
        path = tmp_path / "pinned.truss.json"
        path.write_text(write_model(generate_grid_truss(params)))
        capsys.readouterr()
        assert main(["analyze", str(path), "--out", str(tmp_path / "analyze")]) == 1
        assert capsys.readouterr().err.startswith("error: stiffness matrix is singular near node ")

    def test_integral_float_count_sweeps_like_an_int(self, tmp_path):
        assert self.sweep_family(tmp_path, "int", {**FAMILY_4X4, "nx": 4})[0] == 0
        assert self.sweep_family(tmp_path, "float", {**FAMILY_4X4, "nx": 4.0})[0] == 0
        assert (tmp_path / "int" / "sweep.csv").read_bytes() == (tmp_path / "float" / "sweep.csv").read_bytes()


def test_unknown_fields_warn_alike_in_model_and_family_files(two_bar_path, family_path, tmp_path):
    # In a child process, so Python's default warning display would show if a path bypassed the CLI's.
    for command, path in (("analyze", two_bar_path), ("sweep", family_path)):
        document = json.loads(path.read_text())
        document["colour"] = 1
        path.write_text(json.dumps(document))
        result = subprocess.run(
            [sys.executable, "-m", "harmonode.cli", command, str(path), "--out", str(tmp_path / command),
             *(["--n", "1"] if command == "sweep" else [])],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == "warning: ignoring unknown field 'colour'\n"


def test_console_entry_point(two_bar_path, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "harmonode.cli", "analyze", str(two_bar_path),
         "--out", str(tmp_path / "cli_out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "analyzed case" in result.stdout
