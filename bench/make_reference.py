#!/usr/bin/env python3
"""Record the study design's reference signatures in bench/reference.json.

Run from the repository root at the commit the reference should describe:

    python3 bench/make_reference.py

For each study grid size (full and smoke scale) it runs ``descriptors`` and
``complexity`` on the fixed study design and stores per-node signature
norms, per-component column sums and the complexity radius. The signatures
do not depend on member sizing, which the CLI never runs on a model file.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from harmonode import model  # noqa: E402


def reference(grid: int, work: Path) -> dict:
    work.mkdir(parents=True)
    path = work / "study.truss.json"
    path.write_text(model.write_model(workloads.study_model(grid)))
    for argv in (["descriptors", str(path)], ["complexity", str(work / "feature_vectors.csv")]):
        code, _, err = workloads.run_cli(argv + ["--out", str(work)])
        if code != 0:
            raise SystemExit(f"{argv[0]} failed: {err}")
    ids, values = checks.read_features(work / "feature_vectors.csv")
    summary = {r["metric"]: r["value"] for r in checks.read_rows(work / "summary.csv")}
    return {
        "signature_norms": np.linalg.norm(values, axis=1).tolist(),
        "component_sums": values.sum(axis=0).tolist(),
        "complexity_radius": float(summary["complexity_radius"]),
    }


def main() -> int:
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        grids = sorted({s["study_grid"] for s in workloads.SCALES.values()})
        designs = {str(g): reference(g, work / str(g)) for g in grids}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    document = {
        "commit": run.git_commit(),
        "study_controls": list(workloads.STUDY_CONTROLS),
        "designs": designs,
    }
    (Path(__file__).resolve().parent / "reference.json").write_text(json.dumps(document) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
