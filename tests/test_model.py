import functools
import json
import math
import operator
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from harmonode import model as model_module
from harmonode.cli import _read_sweep_params
from harmonode.generator import GridTrussParams, generate_grid_truss
from harmonode.model import (
    ModelFormatError,
    Point3,
    PointLoad,
    Support,
    TrussElement,
    TrussModel,
    TrussNode,
    UnknownFieldWarning,
    read_model,
    validate,
    write_model,
)


DOCS = Path(__file__).resolve().parent.parent / "docs"


def minimal_model():
    return TrussModel(
        nodes=(TrussNode(0, Point3(0.0, 0.0, 0.0)), TrussNode(1, Point3(1.0, 0.0, 0.0))),
        elements=(TrussElement(0, 0, 1, 1e-3, 200e9),),
        supports=(Support(0, (True, True, True)),),
        loads=(PointLoad(1, Point3(0.0, 0.0, -1.0), "default"),),
    )


class TestValidate:
    def test_minimal_model_is_valid(self):
        assert validate(minimal_model()) == []

    def test_missing_node_reference_names_element_and_node(self):
        model = minimal_model()
        bad = model.elements + (TrussElement(1, 0, 99, 1e-3, 200e9),)
        report = validate(TrussModel(model.nodes, bad, model.supports, model.loads))
        assert len(report) == 1
        assert "element 1" in report[0] and "99" in report[0]

    def test_coincident_nodes_report_zero_length(self):
        nodes = (
            TrussNode(0, Point3(0.0, 0.0, 0.0)),
            TrussNode(1, Point3(0.0, 0.0, 0.0)),
        )
        model = TrussModel(nodes, (TrussElement(0, 0, 1, 1e-3, 200e9),))
        report = validate(model)
        assert any("zero-length element" in line for line in report)

    def test_self_loop_reports_zero_length(self):
        model = TrussModel(
            (TrussNode(0, Point3(0.0, 0.0, 0.0)),),
            (TrussElement(0, 0, 0, 1e-3, 200e9),),
        )
        assert any("zero-length element" in line for line in validate(model))

    def test_duplicate_node_id(self):
        nodes = (TrussNode(0, Point3(0, 0, 0)), TrussNode(0, Point3(1, 0, 0)))
        report = validate(TrussModel(nodes, ()))
        assert any("duplicate node id" in line for line in report)

    def test_bad_section_properties(self):
        model = minimal_model()
        bad = (TrussElement(0, 0, 1, -1.0, 0.0),)
        report = validate(TrussModel(model.nodes, bad, model.supports, model.loads))
        assert any("area" in line for line in report)
        assert any("youngs_modulus" in line for line in report)

    def test_non_finite_coordinates_and_forces(self):
        model = TrussModel(
            nodes=(TrussNode(0, Point3(0.0, 0.0, math.nan)), TrussNode(1, Point3(1, 0, 0))),
            elements=(TrussElement(0, 0, 1, 1e-3, 200e9),),
            loads=(PointLoad(1, Point3(math.inf, 0.0, 0.0)),),
        )
        report = validate(model)
        assert any("non-finite coordinates" in line for line in report)
        assert any("non-finite force" in line for line in report)

    def test_support_must_restrain_something(self):
        model = minimal_model()
        bad = (Support(0, (False, False, False)),)
        report = validate(TrussModel(model.nodes, model.elements, bad, model.loads))
        assert any("restrains no direction" in line for line in report)

    def test_disconnected_graph(self):
        nodes = tuple(TrussNode(i, Point3(float(i), 0.0, 0.0)) for i in range(4))
        elements = (TrussElement(0, 0, 1, 1e-3, 200e9), TrussElement(1, 2, 3, 1e-3, 200e9))
        report = validate(TrussModel(nodes, elements))
        assert any("not connected" in line for line in report)

    def test_enclosure_area_must_be_positive(self):
        model = minimal_model()
        bad = TrussModel(
            model.nodes, model.elements, model.supports, model.loads, enclosure_area=-5.0
        )
        assert any("enclosure_area" in line for line in validate(bad))

    def test_validate_is_pure(self):
        model = minimal_model()
        assert validate(model) == validate(model)


class TestReadModel:
    def test_example_file_counts(self, example_model_path):
        model = read_model(example_model_path.read_text())
        assert len(model.nodes) == 5
        assert len(model.elements) == 8
        assert len(model.supports) == 4
        assert len(model.loads) == 1
        assert model.enclosure_area == 9.0

    def test_truncated_document_reports_offset(self, example_model_path):
        text = example_model_path.read_text()[:40]
        with pytest.raises(ModelFormatError, match="offset"):
            read_model(text)

    def test_duplicate_node_id_names_json_path(self):
        doc = {
            "nodes": [
                {"id": 1, "x": 0.0, "y": 0.0, "z": 0.0},
                {"id": 1, "x": 1.0, "y": 0.0, "z": 0.0},
            ],
            "elements": [],
        }
        with pytest.raises(ModelFormatError, match=r"nodes\[1\]\.id"):
            read_model(json.dumps(doc))

    def test_schema_violation_names_path(self):
        doc = {"nodes": [{"id": "a", "x": 0.0, "y": 0.0, "z": 0.0}], "elements": []}
        with pytest.raises(ModelFormatError, match=r"nodes\[0\]\.id"):
            read_model(json.dumps(doc))

    def test_unknown_fields_warn_and_are_ignored(self):
        doc = json.loads(write_model(minimal_model()))
        doc["color"] = "red"
        doc["nodes"][0]["weight"] = 3
        with pytest.warns(UnknownFieldWarning):
            model = read_model(json.dumps(doc))
        assert len(model.nodes) == 2

    def test_invalid_model_rejected(self):
        doc = {
            "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "z": 0.0}],
            "elements": [{"id": 0, "start": 0, "end": 5, "area": 1e-3, "youngs_modulus": 2e11}],
        }
        with pytest.raises(ModelFormatError, match="missing node 5"):
            read_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, expected",
        [
            ("area", "element 0: area must be positive and finite, got inf"),
            ("youngs_modulus", "element 0: youngs_modulus must be positive and finite, got inf"),
            ("enclosure_area", "model: enclosure_area must be positive and finite, got inf"),
        ],
        ids=["area", "youngs_modulus", "enclosure_area"],
    )
    def test_non_finite_value_named(self, field, expected):
        doc = json.loads(write_model(minimal_model()))
        owner = doc if field == "enclosure_area" else doc["elements"][0]
        owner[field] = math.inf
        with pytest.raises(ModelFormatError, match=expected):
            read_model(json.dumps(doc))

    def test_bytes_input(self):
        model = read_model(write_model(minimal_model()).encode())
        assert len(model.nodes) == 2


class TestWriteModel:
    def test_minimal_round_trip(self):
        model = minimal_model()
        assert read_model(write_model(model)) == model

    def test_desk_scale_counts_preserved(self):
        # 10x10 analog of a 185-node / 664-element roof truss
        params = GridTrussParams(
            nx=10, ny=10, bay=2.0, control_heights=((0.0, 0.5), (0.2, 0.8)), depth=1.2
        )
        model = generate_grid_truss(params)
        assert len(model.nodes) == 181
        assert len(model.elements) == 648
        again = read_model(write_model(model))
        assert len(again.nodes) == len(model.nodes)
        assert len(again.elements) == len(model.elements)

    def test_reference_scale_counts_preserved(self):
        # 185 nodes / 664 tubular elements, the canonical roof-truss scale
        rng = np.random.default_rng(185664)
        nodes = tuple(
            TrussNode(i, Point3(float(i % 20), float(i // 20), float(rng.normal())))
            for i in range(185)
        )
        elements = [TrussElement(i, i, i + 1, 1e-3, 2e11) for i in range(184)]
        while len(elements) < 664:
            a = int(rng.integers(0, 184))
            b = int(rng.integers(a + 2, 186)) % 185
            if a == b:
                continue
            elements.append(TrussElement(len(elements), a, b, 1e-3, 2e11))
        model = TrussModel(nodes, tuple(elements), (Support(0, (True, True, True)),))
        assert validate(model) == []
        again = read_model(write_model(model))
        assert len(again.nodes) == 185
        assert len(again.elements) == 664
        assert again == model

    def test_empty_loads_round_trip(self):
        model = minimal_model()
        # keep the model solvable-free but valid: loads may be empty
        bare = TrussModel(model.nodes, model.elements, model.supports, ())
        assert read_model(write_model(bare)) == bare

    def test_key_order_is_stable(self):
        doc = json.loads(write_model(minimal_model()))
        assert list(doc) == ["name", "nodes", "elements", "supports", "loads"]

    def test_enclosure_area_omitted_when_absent(self):
        doc = json.loads(write_model(minimal_model()))
        assert "enclosure_area" not in doc


def _random_valid_model(rng) -> TrussModel:
    n_nodes = int(rng.integers(2, 9))
    ids = [int(10 * i + rng.integers(0, 9)) for i in range(n_nodes)]
    nodes = tuple(
        TrussNode(
            nid,
            Point3(
                float(i) + float(rng.normal() * 0.1),
                float(rng.normal()),
                float(rng.normal()),
            ),
        )
        for i, nid in enumerate(ids)
    )
    elements = [
        TrussElement(i, ids[i], ids[i + 1], float(rng.uniform(1e-4, 1e-2)), float(rng.uniform(1e10, 3e11)))
        for i in range(n_nodes - 1)
    ]
    for extra in range(int(rng.integers(0, 3))):
        a, b = rng.choice(n_nodes, size=2, replace=False)
        elements.append(
            TrussElement(
                len(elements), ids[int(a)], ids[int(b)], float(rng.uniform(1e-4, 1e-2)), 2e11
            )
        )
    supports = (Support(ids[0], (True, True, True)),)
    loads = tuple(
        PointLoad(
            ids[int(rng.integers(0, n_nodes))],
            Point3(float(rng.normal()), float(rng.normal()), float(rng.normal())),
            rng.choice(["dead", "live"]),
        )
        for _ in range(int(rng.integers(0, 4)))
    )
    area = float(rng.uniform(1.0, 500.0)) if rng.random() < 0.5 else None
    return TrussModel(nodes, tuple(elements), supports, loads, name="fuzz", enclosure_area=area)


def test_round_trip_is_lossless_for_random_valid_models():
    rng = np.random.default_rng(42)
    for _ in range(30):
        model = _random_valid_model(rng)
        assert validate(model) == []
        assert read_model(write_model(model)) == model


_DROP = object()


def edited(*edits) -> str:
    """The minimal model's document with each (path, value) edit applied; _DROP deletes the key."""
    doc = json.loads(write_model(minimal_model()))
    for path, value in edits:
        *parents, last = path
        owner = functools.reduce(operator.getitem, parents, doc)
        if value is _DROP:
            del owner[last]
        else:
            owner[last] = value
    return json.dumps(doc)


# Malformed documents and the exact first error each one reports. Cases with
# two bad fields in one entity pin the order in which fields are checked.
MALFORMED = [
    ("[]", "top level must be a JSON object"),
    ("{", "invalid JSON at offset 1 (line 1, column 2): Expecting property name enclosed in double quotes"),
    (edited((("nodes",), _DROP)), "nodes: required array is missing"),
    (edited((("nodes",), None)), "nodes: required array is missing"),
    (edited((("nodes",), {})), "nodes: expected an array"),
    (edited((("elements",), _DROP)), "elements: required array is missing"),
    (edited((("elements",), "none")), "elements: expected an array"),
    (edited((("supports",), 3)), "supports: expected an array"),
    (edited((("elements",), None)), "elements: required array is missing"),
    (edited((("loads",), {"node": 1})), "loads: expected an array"),
    (edited((("nodes", 0), 5)), "nodes[0]: expected a JSON object"),
    (edited((("nodes", 0, "x"), _DROP)), "nodes[0].x: required number is missing"),
    (edited((("nodes", 0, "y"), "0")), "nodes[0].y: expected a number"),
    (edited((("nodes", 1, "z"), True)), "nodes[1].z: expected a number"),
    (edited((("nodes", 0, "id"), 0.0)), "nodes[0].id: expected an integer"),
    (edited((("nodes", 0, "id"), _DROP)), "nodes[0].id: expected an integer"),
    (edited((("nodes", 1, "id"), 0)), "nodes[1].id: duplicate node id 0"),
    (edited((("nodes", 1, "id"), 0), (("nodes", 1, "x"), _DROP)), "nodes[1].id: duplicate node id 0"),
    (edited((("nodes", 0, "id"), "a"), (("nodes", 0, "x"), "b")), "nodes[0].id: expected an integer"),
    (edited((("nodes", 0, "x"), None), (("nodes", 0, "z"), _DROP)), "nodes[0].x: expected a number"),
    (edited((("nodes", 0, "z"), None), (("elements", 0, "id"), None)), "nodes[0].z: expected a number"),
    (edited((("elements", 0), [])), "elements[0]: expected a JSON object"),
    (edited((("elements", 0, "start"), "0")), "elements[0].start: expected an integer"),
    (edited((("elements", 0, "end"), False), (("elements", 0, "area"), "big")),
     "elements[0].end: expected an integer"),
    (edited((("elements", 0, "area"), _DROP), (("elements", 0, "youngs_modulus"), "x")),
     "elements[0].area: required number is missing"),
    (edited((("elements", 0, "youngs_modulus"), [2e11])), "elements[0].youngs_modulus: expected a number"),
    (edited((("elements", 0, "id"), None), (("supports", 0, "fix"), None)), "elements[0].id: expected an integer"),
    (edited((("supports", 0), "pin")), "supports[0]: expected a JSON object"),
    (edited((("supports", 0, "fix"), [1, 0, 0])), "supports[0].fix: expected an array of three booleans"),
    (edited((("supports", 0, "fix"), [True, True])), "supports[0].fix: expected an array of three booleans"),
    (edited((("supports", 0, "fix"), _DROP)), "supports[0].fix: expected an array of three booleans"),
    (edited((("supports", 0, "node"), _DROP), (("supports", 0, "fix"), "xyz")),
     "supports[0].fix: expected an array of three booleans"),
    (edited((("supports", 0, "node"), 0.5)), "supports[0].node: expected an integer"),
    (edited((("loads", 0), None)), "loads[0]: expected a JSON object"),
    (edited((("loads", 0, "force"), _DROP)), "loads[0].force: expected an array of three numbers"),
    (edited((("loads", 0, "force"), [0.0, -1.0])), "loads[0].force: expected an array of three numbers"),
    (edited((("loads", 0, "force"), [0.0, "a", None])), "loads[0].force[1]: expected a number"),
    (edited((("loads", 0, "force"), {"z": -1.0}), (("loads", 0, "case"), 1), (("loads", 0, "node"), "1")),
     "loads[0].force: expected an array of three numbers"),
    (edited((("loads", 0, "case"), 1), (("loads", 0, "node"), "1")), "loads[0].case: expected a string"),
    (edited((("loads", 0, "case"), None)), "loads[0].case: expected a string"),
    (edited((("loads", 0, "node"), _DROP)), "loads[0].node: expected an integer"),
    (edited((("name",), 3), (("loads", 0, "node"), _DROP)), "loads[0].node: expected an integer"),
    (edited((("name",), 3), (("enclosure_area",), "big")), "name: expected a string"),
    (edited((("enclosure_area",), "big")), "enclosure_area: expected a number"),
    (edited((("enclosure_area",), True)), "enclosure_area: expected a number"),
    (edited((("elements", 0, "end"), 5)), "model violates invariants: element 0: references missing node 5; "
     "model: element graph is not connected; unreachable nodes 1"),
]


@pytest.mark.parametrize("document, message", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_document_reports_its_first_error(document, message):
    with pytest.raises(ModelFormatError) as excinfo:
        read_model(document)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("key", ["supports", "loads"])
def test_null_optional_array_reads_as_absent(key):
    # docs/schema.md: both arrays are optional; an explicit null is no array at all.
    assert read_model(edited(((key,), None))) == read_model(edited(((key,), _DROP)))
    assert getattr(read_model(edited(((key,), None))), key) == ()


def test_unknown_field_warnings_point_at_the_caller():
    doc = json.loads(write_model(minimal_model()))
    doc["color"] = "red"
    doc["nodes"][1]["weight"] = 3
    doc["loads"][0]["factor"] = 1.5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read_model(json.dumps(doc))
    assert [str(w.message) for w in caught] == [
        "ignoring unknown field 'color'",
        "ignoring unknown field 'nodes[1].weight'",
        "ignoring unknown field 'loads[0].factor'",
    ]
    assert [w.filename for w in caught] == [__file__] * 3


def test_family_file_warning_points_at_the_caller(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(
        {"nx": 4, "ny": 4, "bay": 2.0, "depth": 1.0, "control_heights": [[0.0, 0.0]], "colour": "red"}
    ))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _read_sweep_params(path.read_bytes())
    assert [str(w.message) for w in caught] == ["ignoring unknown field 'colour'"]
    assert caught[0].filename == __file__


@pytest.mark.parametrize(
    "entity, table",
    [("nodes", "_NODE_FIELDS"), ("elements", "_ELEMENT_FIELDS"), ("supports", "_SUPPORT_FIELDS"),
     ("loads", "_LOAD_FIELDS")],
)
def test_field_table_keys_are_the_written_and_documented_keys(entity, table):
    fields = getattr(model_module, table)
    written = json.loads(write_model(minimal_model()))[entity][0]
    assert set(fields) == set(written)
    schema = (DOCS / "schema.md").read_text()
    documented = re.search(rf"^`{re.escape(entity)}\[i\]` — `\{{(.*?)\}}`", schema, re.MULTILINE | re.DOTALL)
    assert set(fields) == set(re.findall(r'"(\w+)":', documented.group(1)))
