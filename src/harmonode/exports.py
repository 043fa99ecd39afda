"""CSV writers for analysis products.

Every file gets a header row and RFC-style quoting via the csv module.
Floats are written with repr (shortest round-trip form), so identical inputs
always produce byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .analysis import ClusterAssignment, Embedding
from .descriptor import DistanceMatrix, FeatureVector
from .fea import AnalysisResult
from .harmonics import HarmonicExpansion


def fmt_float(value: float) -> str:
    return repr(float(value))


def _open_writer(path: Path):
    handle = open(path, "w", newline="")
    return handle, csv.writer(handle)


def write_displacements_csv(path: Path, result: AnalysisResult) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["node_id", "ux", "uy", "uz"])
        for nid in sorted(result.displacements):
            d = result.displacements[nid]
            writer.writerow([nid, fmt_float(d.x), fmt_float(d.y), fmt_float(d.z)])


def write_forces_csv(path: Path, result: AnalysisResult) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["element_id", "axial_force"])
        for eid in sorted(result.axial_forces):
            writer.writerow([eid, fmt_float(result.axial_forces[eid])])


def write_reactions_csv(path: Path, result: AnalysisResult) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["node_id", "rx", "ry", "rz"])
        for nid in sorted(result.reactions):
            r = result.reactions[nid]
            writer.writerow([nid, fmt_float(r.x), fmt_float(r.y), fmt_float(r.z)])


def write_feature_vectors_csv(path: Path, vectors: list[FeatureVector]) -> None:
    if not vectors:
        raise ValueError("no feature vectors to write")
    n_components = len(vectors[0])
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["node_id"] + [f"fv_{i}" for i in range(n_components)])
        for v in vectors:
            writer.writerow([v.node if v.node is not None else ""] + [fmt_float(c) for c in v.components])


def read_feature_vectors_csv(path: Path) -> list[FeatureVector]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "node_id":
            raise ValueError(f"{path}: not a feature vector file (header {header})")
        vectors = []
        for row in reader:
            node = int(row[0]) if row[0] else None
            vectors.append(FeatureVector(components=tuple(float(c) for c in row[1:]), node=node))
    if not vectors:
        raise ValueError(f"{path}: contains no feature vectors")
    return vectors


def write_expansion_csv(path: Path, expansion: HarmonicExpansion) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["l", "m", "a_lm"])
        for l, m, a in expansion.rows():
            writer.writerow([l, m, fmt_float(a)])


def write_distance_matrix_csv(path: Path, matrix: DistanceMatrix) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["node_id"] + [str(nid) for nid in matrix.node_ids])
        for i, nid in enumerate(matrix.node_ids):
            writer.writerow([nid] + [fmt_float(v) for v in matrix.values[i]])


def write_embedding_csv(path: Path, embedding: Embedding, node_ids) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["node_id"] + [f"coord_{i}" for i in range(embedding.k)])
        for nid, row in zip(node_ids, embedding.coordinates):
            writer.writerow([nid] + [fmt_float(c) for c in row])


def write_clusters_csv(path: Path, assignment: ClusterAssignment) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["node_id", "cluster"])
        for nid, label in zip(assignment.node_ids, assignment.labels):
            writer.writerow([nid, int(label)])


def write_cluster_summary_csv(path: Path, assignment: ClusterAssignment) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["cluster", "size", "radius"])
        for label, sphere in enumerate(assignment.spheres):
            writer.writerow([label, int(len(assignment.members(label))), fmt_float(sphere.radius)])


def write_summary_csv(path: Path, entries: dict[str, float | int | str]) -> None:
    handle, writer = _open_writer(path)
    with handle:
        writer.writerow(["metric", "value"])
        for key, value in entries.items():
            writer.writerow([key, fmt_float(value) if isinstance(value, float) else value])
