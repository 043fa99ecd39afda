import csv

import numpy as np
import pytest

from harmonode.descriptor import DistanceMatrix, FeatureVector, distance_matrix
from harmonode.exports import fmt_float, write_distance_matrix_csv


def write_per_cell(path, matrix: DistanceMatrix) -> None:
    """Reference: every cell of the matrix formatted on its own."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node_id"] + [str(nid) for nid in matrix.node_ids])
        writer.writerows([nid] + [fmt_float(v) for v in row] for nid, row in zip(matrix.node_ids, matrix.values))


@pytest.mark.parametrize("seed", range(5))
def test_distance_matrix_csv_matches_per_cell_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(150, 17)) * 10.0 ** rng.uniform(-3.0, 5.0)
    matrix = distance_matrix([FeatureVector(tuple(p), node=3 * i) for i, p in enumerate(points)])
    assert np.array_equal(matrix.values, matrix.values.T)
    write_distance_matrix_csv(tmp_path / "pairs.csv", matrix)
    write_per_cell(tmp_path / "cells.csv", matrix)
    assert (tmp_path / "pairs.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_asymmetric_cells_keep_their_own_digits(tmp_path):
    # DistanceMatrix admits asymmetry up to 1e-12; such cells are formatted on their own.
    points = np.random.default_rng(5).normal(size=(6, 4))
    values = distance_matrix([FeatureVector(tuple(p)) for p in points]).values.copy()
    values[4, 1] = np.nextafter(values[4, 1], np.inf)
    matrix = DistanceMatrix(node_ids=tuple(range(6)), values=values)
    write_distance_matrix_csv(tmp_path / "pairs.csv", matrix)
    write_per_cell(tmp_path / "cells.csv", matrix)
    assert (tmp_path / "pairs.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
