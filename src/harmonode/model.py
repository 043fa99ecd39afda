"""Truss data schema, validation and JSON serialization.

Units are SI throughout: metres, newtons, pascals, kilograms. Trusses are
pin-jointed by definition; only translational degrees of freedom exist.
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass

MIN_ELEMENT_LENGTH = 1e-9

# Top-level keys, in the order write_model writes them (docs/schema.md).
_MODEL_KEYS = ("name", "enclosure_area", "nodes", "elements", "supports", "loads")


def is_finite_number(value) -> bool:
    """A finite real number, never a string or a boolean; the one rule for model and family files."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


class ModelFormatError(ValueError):
    """A document could not be parsed into a valid truss model."""


class UnknownFieldWarning(UserWarning):
    """A document carried fields the schema does not define."""


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def is_finite(self) -> bool:
        return all(is_finite_number(c) for c in self.as_tuple())


@dataclass(frozen=True)
class TrussNode:
    id: int
    position: Point3


@dataclass(frozen=True)
class TrussElement:
    id: int
    start: int
    end: int
    area: float
    youngs_modulus: float


@dataclass(frozen=True)
class Support:
    node: int
    fixed: tuple[bool, bool, bool]


@dataclass(frozen=True)
class PointLoad:
    node: int
    force: Point3
    load_case: str = "default"


@dataclass(frozen=True)
class TrussModel:
    nodes: tuple[TrussNode, ...]
    elements: tuple[TrussElement, ...]
    supports: tuple[Support, ...] = ()
    loads: tuple[PointLoad, ...] = ()
    name: str = ""
    enclosure_area: float | None = None

    def load_cases(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for load in self.loads:
            seen.setdefault(load.load_case, None)
        return tuple(seen)


def validate(model: TrussModel) -> list[str]:
    """Return every violated invariant, empty when the model is well formed.

    Violations are data, not errors: the report lists one message per broken
    invariant, naming the offending entity, ordered deterministically by
    entity id (nodes, elements, supports, loads, then model-level checks).
    """
    report: list[str] = []
    node_ids: set[int] = set()

    for node in sorted(model.nodes, key=lambda n: n.id):
        if node.id in node_ids:
            report.append(f"node {node.id}: duplicate node id")
        node_ids.add(node.id)
        if not node.position.is_finite():
            report.append(f"node {node.id}: non-finite coordinates")

    positions = {n.id: n.position for n in model.nodes}
    element_ids: set[int] = set()
    for el in sorted(model.elements, key=lambda e: e.id):
        if el.id in element_ids:
            report.append(f"element {el.id}: duplicate element id")
        element_ids.add(el.id)
        missing = [nid for nid in (el.start, el.end) if nid not in positions]
        for nid in missing:
            report.append(f"element {el.id}: references missing node {nid}")
        if el.start == el.end:
            report.append(
                f"element {el.id}: zero-length element (start and end are both node {el.start})"
            )
        elif not missing:
            length = math.dist(
                positions[el.start].as_tuple(), positions[el.end].as_tuple()
            )
            if length <= MIN_ELEMENT_LENGTH:
                report.append(
                    f"element {el.id}: zero-length element "
                    f"(nodes {el.start} and {el.end} coincide)"
                )
        for field in ("area", "youngs_modulus"):
            value = getattr(el, field)
            if not (is_finite_number(value) and value > 0):
                report.append(f"element {el.id}: {field} must be positive and finite, got {value}")

    for sup in sorted(model.supports, key=lambda s: s.node):
        if sup.node not in positions:
            report.append(f"support at node {sup.node}: references missing node {sup.node}")
        if not any(sup.fixed):
            report.append(f"support at node {sup.node}: restrains no direction")

    for idx, load in enumerate(model.loads):
        if load.node not in positions:
            report.append(f"load {idx}: references missing node {load.node}")
        if not load.force.is_finite():
            report.append(f"load {idx}: non-finite force components")

    area = model.enclosure_area
    if area is not None and not (is_finite_number(area) and area > 0):
        report.append(f"model: enclosure_area must be positive and finite, got {area}")

    unreachable = _unreachable_nodes(model)
    if unreachable:
        shown = ", ".join(str(n) for n in unreachable[:5])
        more = "" if len(unreachable) <= 5 else f" (+{len(unreachable) - 5} more)"
        report.append(f"model: element graph is not connected; unreachable nodes {shown}{more}")

    return report


def _unreachable_nodes(model: TrussModel) -> list[int]:
    if not model.nodes:
        return []
    ids = sorted({n.id for n in model.nodes})
    adjacency: dict[int, list[int]] = {nid: [] for nid in ids}
    for el in model.elements:
        if el.start in adjacency and el.end in adjacency:
            adjacency[el.start].append(el.end)
            adjacency[el.end].append(el.start)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return [nid for nid in ids if nid not in seen]


def read_model(document: str | bytes) -> TrussModel:
    """Parse a JSON document into a validated TrussModel.

    Unknown fields are ignored with an UnknownFieldWarning. Malformed JSON
    raises ModelFormatError carrying the character offset; schema violations
    raise ModelFormatError naming the offending JSON path.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"document is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"invalid JSON at offset {exc.pos} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc

    if not isinstance(raw, dict):
        raise ModelFormatError("top level must be a JSON object")
    _warn_unknown(raw, _MODEL_KEYS)

    # A node's id is checked for duplicates as it is read, before its coordinates.
    seen_node_ids: set[int] = set()

    def new_node_id(value, prefix: str, key: str) -> int:
        node_id = _integer(value, prefix, key)
        if node_id in seen_node_ids:
            raise ModelFormatError(f"{prefix}{key}: duplicate node id {node_id}")
        seen_node_ids.add(node_id)
        return node_id

    fields = {**_NODE_FIELDS, "id": new_node_id}
    nodes = tuple(TrussNode(i, Point3(x, y, z)) for i, x, y, z in _records(raw, "nodes", fields, required=True))
    elements = tuple(TrussElement(*v) for v in _records(raw, "elements", _ELEMENT_FIELDS, required=True))
    supports = tuple(Support(node, fix) for fix, node in _records(raw, "supports", _SUPPORT_FIELDS))
    loads = tuple(PointLoad(node, force, case) for force, case, node in _records(raw, "loads", _LOAD_FIELDS))

    name = raw.get("name", "")
    if not isinstance(name, str):
        raise ModelFormatError("name: expected a string")
    enclosure_area = raw.get("enclosure_area")
    if enclosure_area is not None:
        enclosure_area = _number(enclosure_area, "", "enclosure_area")

    model = TrussModel(nodes, elements, supports, loads, name, enclosure_area)
    violations = validate(model)
    if violations:
        raise ModelFormatError("model violates invariants: " + "; ".join(violations))
    return model


def write_model(model: TrussModel) -> str:
    """Serialize a model to JSON with a fixed, documented key order.

    read_model(write_model(m)) structurally equals m for every valid model.
    """
    doc: dict = {"name": model.name}
    if model.enclosure_area is not None:
        doc["enclosure_area"] = model.enclosure_area
    doc["nodes"] = [
        {"id": n.id, "x": n.position.x, "y": n.position.y, "z": n.position.z}
        for n in model.nodes
    ]
    doc["elements"] = [
        {
            "id": e.id,
            "start": e.start,
            "end": e.end,
            "area": e.area,
            "youngs_modulus": e.youngs_modulus,
        }
        for e in model.elements
    ]
    doc["supports"] = [{"node": s.node, "fix": list(s.fixed)} for s in model.supports]
    doc["loads"] = [
        {"node": l.node, "force": [l.force.x, l.force.y, l.force.z], "case": l.load_case}
        for l in model.loads
    ]
    return json.dumps(doc, indent=2) + "\n"


def _warn_unknown(obj: dict, known, prefix: str = "", stacklevel: int = 3) -> None:
    """Warn once per key of obj not in known; stacklevel 3 names the caller's caller."""
    for key in obj:
        if key not in known:
            warnings.warn(f"ignoring unknown field {prefix + key!r}", UnknownFieldWarning, stacklevel=stacklevel)


def _records(raw: dict, key: str, fields: dict, required: bool = False) -> list[list]:
    """Each object of the array raw[key] as its field values, in the order of fields."""
    items = raw.get(key)  # An absent key and a null read alike.
    if items is None:
        if required:
            raise ModelFormatError(f"{key}: required array is missing")
        items = []
    if not isinstance(items, list):
        raise ModelFormatError(f"{key}: expected an array")
    records = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ModelFormatError(f"{key}[{i}]: expected a JSON object")
        prefix = f"{key}[{i}]."
        _warn_unknown(item, fields, prefix, stacklevel=4)
        records.append([read(item.get(name, _MISSING), prefix, name) for name, read in fields.items()])
    return records


# Field readers: (value, prefix, key) -> the parsed value, or ModelFormatError
# naming prefix + key, the field's JSON path. An absent key reads as _MISSING.
_MISSING = object()


def _integer(value, prefix: str, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelFormatError(f"{prefix}{key}: expected an integer")
    return value


def _number(value, prefix: str, key: str) -> float:
    if value is _MISSING:
        raise ModelFormatError(f"{prefix}{key}: required number is missing")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{prefix}{key}: expected a number")
    return float(value)


def _fix(value, prefix: str, key: str) -> tuple[bool, bool, bool]:
    if not isinstance(value, list) or len(value) != 3 or not all(isinstance(v, bool) for v in value):
        raise ModelFormatError(f"{prefix}{key}: expected an array of three booleans")
    return tuple(value)


def _force(value, prefix: str, key: str) -> Point3:
    if not isinstance(value, list) or len(value) != 3:
        raise ModelFormatError(f"{prefix}{key}: expected an array of three numbers")
    return Point3(*(_number(v, prefix, f"{key}[{j}]") for j, v in enumerate(value)))


def _case(value, prefix: str, key: str) -> str:
    if value is _MISSING:
        return "default"
    if not isinstance(value, str):
        raise ModelFormatError(f"{prefix}{key}: expected a string")
    return value


# One field table per entity: its keys, each with its reader, in the order
# read_model checks them. write_model writes the same keys (docs/schema.md).
_NODE_FIELDS = {"id": _integer, "x": _number, "y": _number, "z": _number}
_ELEMENT_FIELDS = {"id": _integer, "start": _integer, "end": _integer, "area": _number, "youngs_modulus": _number}
_SUPPORT_FIELDS = {"fix": _fix, "node": _integer}
_LOAD_FIELDS = {"force": _force, "case": _case, "node": _integer}
