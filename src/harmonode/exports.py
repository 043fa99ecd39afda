"""CSV writers for analysis products.

Every file gets a header row and RFC-style quoting via the csv module.
Floats are written with repr (shortest round-trip form), so identical inputs
always produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from .analysis import ClusterAssignment, Embedding
from .descriptor import DistanceMatrix, FeatureVector
from .fea import AnalysisResult
from .harmonics import _coefficient_rows, _degree_order
from .model import Point3


def fmt_float(value: float) -> str:
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header row, then every row of an iterable, to a new CSV file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _point_rows(points: dict[int, Point3]):
    return ([nid, fmt_float(p.x), fmt_float(p.y), fmt_float(p.z)] for nid, p in sorted(points.items()))


def write_displacements_csv(path: Path, result: AnalysisResult) -> None:
    write_csv(path, ["node_id", "ux", "uy", "uz"], _point_rows(result.displacements))


def write_forces_csv(path: Path, result: AnalysisResult) -> None:
    rows = ([eid, fmt_float(force)] for eid, force in sorted(result.axial_forces.items()))
    write_csv(path, ["element_id", "axial_force"], rows)


def write_reactions_csv(path: Path, result: AnalysisResult) -> None:
    write_csv(path, ["node_id", "rx", "ry", "rz"], _point_rows(result.reactions))


def write_feature_vectors_csv(path: Path, vectors: list[FeatureVector]) -> None:
    if not vectors:
        raise ValueError("no feature vectors to write")
    header = ["node_id"] + [f"fv_{i}" for i in range(len(vectors[0]))]
    rows = ([v.node if v.node is not None else ""] + [fmt_float(c) for c in v.components] for v in vectors)
    write_csv(path, header, rows)


def read_feature_vectors_csv(path: Path) -> list[FeatureVector]:
    """Read a feature_vectors.csv; a bad row's error names the file and line.

    The header is node_id and at least one component column. Every row has
    the header's length, an integer or blank node id and finite numbers. A
    blank id stands for the row's position, counted from 0 as in
    analysis._as_points, and no node id appears twice. The file is UTF-8.
    """
    reader = csv.reader(io.StringIO(_utf8_text(path), newline=""))
    header = next(reader, None)
    if not header or header[0] != "node_id":
        raise ValueError(f"{path}: not a feature vector file; `harmonode descriptors` writes one from a model")
    if len(header) < 2:
        raise ValueError(f"{path}, line 1: the header names no signature component")
    vectors = []
    first_lines: dict[int, int] = {}
    for row in reader:
        where = f"{path}, line {reader.line_num}"
        if len(row) != len(header):
            raise ValueError(f"{where}: {len(row)} fields, but the header has {len(header)}")
        try:
            node = int(row[0]) if row[0] else len(vectors)
            vectors.append(FeatureVector(components=tuple(map(float, row[1:])), node=node))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if first_lines.setdefault(node, reader.line_num) != reader.line_num:
            raise ValueError(f"{where}: node id {node} already on line {first_lines[node]}")
    if not vectors:
        raise ValueError(f"{path}: contains no feature vectors")
    return vectors


def _utf8_text(path: Path) -> str:
    """The text of path; ValueError names the line of its first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: not UTF-8: {exc}") from exc


def write_expansion_csv(path: Path, coefficients) -> None:
    coefficients, l_max = _coefficient_rows(coefficients)
    l, m, _ = _degree_order(l_max)
    write_csv(path, ["l", "m", "a_lm"], zip(l.tolist(), m.tolist(), map(fmt_float, coefficients.tolist())))


def write_distance_matrix_csv(path: Path, matrix: DistanceMatrix) -> None:
    header = ["node_id"] + [str(nid) for nid in matrix.node_ids]
    rows = ([nid] + [fmt_float(v) for v in row] for nid, row in zip(matrix.node_ids, matrix.values))
    write_csv(path, header, rows)


def write_embedding_csv(path: Path, embedding: Embedding, node_ids) -> None:
    header = ["node_id"] + [f"coord_{i}" for i in range(embedding.k)]
    rows = ([nid] + [fmt_float(c) for c in row] for nid, row in zip(node_ids, embedding.coordinates))
    write_csv(path, header, rows)


def write_clusters_csv(path: Path, assignment: ClusterAssignment) -> None:
    rows = ([nid, int(label)] for nid, label in zip(assignment.node_ids, assignment.labels))
    write_csv(path, ["node_id", "cluster"], rows)


def write_cluster_summary_csv(path: Path, assignment: ClusterAssignment) -> None:
    rows = (
        [label, int(len(assignment.members(label))), fmt_float(sphere.radius)]
        for label, sphere in enumerate(assignment.spheres)
    )
    write_csv(path, ["cluster", "size", "radius"], rows)


def write_summary_csv(path: Path, entries: dict[str, float | int | str]) -> None:
    rows = ([key, fmt_float(value) if isinstance(value, float) else value] for key, value in entries.items())
    write_csv(path, ["metric", "value"], rows)
