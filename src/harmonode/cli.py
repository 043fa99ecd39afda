"""Command-line pipeline over truss models and node signatures.

Subcommands mirror the analysis stages: analyze (statics), descriptors
(signatures), distances, mds, cluster, complexity, and sweep (design-space
study). Every run is deterministic for fixed inputs, flags and seed; CSV
artifacts are byte-identical across repeats.

Exit codes: 0 success, 1 pipeline or data error, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import exports, svgplot
from .analysis import classical_mds, complexity_score, kmeans, min_enclosing_ball
from .descriptor import (
    AMPLITUDE_MAGNITUDE,
    AMPLITUDE_SIGNED,
    DEFAULT_DELTA,
    KERNEL_COORDINATE,
    KERNEL_GEODESIC,
    distance_matrix,
    energy_vector,
    node_expansions,
)
from .fea import SingularStructureError, extract_demands, solve
from .generator import GridTrussParams, free_control_cells, latin_hypercube, sweep
from .harmonics import DEFAULT_L_MAX, DEFAULT_OVERSAMPLE, build_grid
from .model import ModelFormatError, TrussModel, UnknownFieldWarning, is_finite_number, read_model


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModelFormatError, SingularStructureError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonode",
        description="Quantify spatial-truss connection complexity from nodal force demands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand accepts only the flag groups it reads.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=".", help="output directory (default current)")
    statics = argparse.ArgumentParser(add_help=False)
    statics.add_argument("--load-case", default=None, help="load case to analyze")
    signature = argparse.ArgumentParser(add_help=False)
    signature.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="kernel sharpness (default 20)")
    signature.add_argument("--lmax", type=int, default=DEFAULT_L_MAX, help="max harmonic degree (default 16)")
    signature.add_argument(
        "--kernel",
        choices=(KERNEL_COORDINATE, KERNEL_GEODESIC),
        default=KERNEL_GEODESIC,
        help="force-function kernel (default geodesic)",
    )
    signature.add_argument(
        "--amplitude",
        choices=(AMPLITUDE_MAGNITUDE, AMPLITUDE_SIGNED),
        default=AMPLITUDE_MAGNITUDE,
        help="bump amplitudes: magnitudes or signed by sense (default magnitude)",
    )
    signature.add_argument(
        "--oversample", type=float, default=DEFAULT_OVERSAMPLE, help="coordinate-kernel grid oversampling"
    )
    demands = argparse.ArgumentParser(add_help=False)
    demands.add_argument("--include-loads", action="store_true", help="add applied loads to demands")
    demands.add_argument("--include-reactions", action="store_true", help="add reactions to demands")
    common = [signature, demands, statics, output]

    p = sub.add_parser("analyze", parents=[statics, output], help="solve one load case, export CSV results")
    p.add_argument("model", help="path to a .truss.json model")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("descriptors", parents=common, help="export per-node feature vectors")
    p.add_argument("model", help="path to a .truss.json model")
    p.add_argument(
        "--write-expansions", action="store_true", help="also export per-node coefficient files"
    )
    p.set_defaults(handler=cmd_descriptors)

    p = sub.add_parser("distances", parents=common, help="pairwise distance matrix + heatmap")
    p.add_argument("input", help="model file or feature_vectors.csv")
    p.set_defaults(handler=cmd_distances)

    p = sub.add_parser("mds", parents=common, help="low-dimensional embedding + scatter")
    p.add_argument("input", help="model file or feature_vectors.csv")
    p.add_argument("--dims", type=int, default=2, help="embedding dimension (default 2)")
    p.add_argument(
        "--circle",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="overlay the minimal bounding circle on the scatter",
    )
    p.set_defaults(handler=cmd_mds)

    p = sub.add_parser("cluster", parents=common, help="k-means grouping of node signatures")
    p.add_argument("input", help="model file or feature_vectors.csv")
    p.add_argument("--k", type=int, default=10, help="number of clusters (default 10)")
    p.add_argument("--seed", type=int, default=0, help="clustering seed (default 0)")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("complexity", parents=common, help="minimal enclosing sphere radius")
    p.add_argument("input", help="model file or feature_vectors.csv")
    p.set_defaults(handler=cmd_complexity)

    p = sub.add_parser("sweep", parents=[signature, output], help="design-space study over sampled variants")
    p.add_argument("params", help="JSON file describing the parametric family")
    p.add_argument("--n", type=int, default=20, help="number of sampled designs (default 20)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.set_defaults(handler=cmd_sweep)

    return parser


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(path: str) -> TrussModel:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnknownFieldWarning)
        model = read_model(p.read_text())
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    return model


def _model_signatures(args, model: TrussModel):
    """Run the pipeline on a model: its feature vectors and, by node, the expansions they come from."""
    result = solve(model, args.load_case)
    demands = extract_demands(
        model,
        result,
        include_applied_loads=args.include_loads,
        include_reactions=args.include_reactions,
    )
    grid = build_grid(args.lmax, args.oversample)
    expansions = node_expansions(demands, args.delta, args.lmax, grid, args.kernel, args.amplitude)
    vectors = [energy_vector(e, d.node, result.load_case) for d, e in zip(demands, expansions)]
    return vectors, {d.node: e for d, e in zip(demands, expansions)}


def _input_vectors(args):
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {args.input}")
    if path.suffix.lower() == ".csv":
        return exports.read_feature_vectors_csv(path)
    vectors, _ = _model_signatures(args, _load_model(args.input))
    return vectors


def cmd_analyze(args) -> int:
    model = _load_model(args.model)
    result = solve(model, args.load_case)
    out = _out_dir(args)
    exports.write_displacements_csv(out / "displacements.csv", result)
    exports.write_forces_csv(out / "forces.csv", result)
    exports.write_reactions_csv(out / "reactions.csv", result)
    peak = max(abs(f) for f in result.axial_forces.values()) if result.axial_forces else 0.0
    print(
        f"analyzed case {result.load_case!r}: {len(model.nodes)} nodes, "
        f"{len(model.elements)} elements, peak |N| = {peak:.6g} N"
    )
    return 0


def cmd_descriptors(args) -> int:
    vectors, expansions = _model_signatures(args, _load_model(args.model))
    out = _out_dir(args)
    exports.write_feature_vectors_csv(out / "feature_vectors.csv", vectors)
    if args.write_expansions:
        for node, expansion in expansions.items():
            exports.write_expansion_csv(out / f"expansion_{node:04d}.csv", expansion)
    print(f"wrote {len(vectors)} feature vectors of length {args.lmax + 1}")
    return 0


def cmd_distances(args) -> int:
    vectors = _input_vectors(args)
    matrix = distance_matrix(vectors)
    out = _out_dir(args)
    exports.write_distance_matrix_csv(out / "distance_matrix.csv", matrix)
    (out / "distance_matrix.svg").write_text(
        svgplot.heatmap(matrix.values, title="node signature distances")
    )
    print(f"distance matrix over {len(vectors)} nodes, max distance {matrix.values.max():.6g}")
    return 0


def cmd_mds(args) -> int:
    vectors = _input_vectors(args)
    matrix = distance_matrix(vectors)
    embedding = classical_mds(matrix, args.dims)
    out = _out_dir(args)
    exports.write_embedding_csv(out / "mds.csv", embedding, matrix.node_ids)
    if args.dims == 2:
        circles = []
        if args.circle:
            ball = min_enclosing_ball(embedding.coordinates)
            circles.append((ball.center, ball.radius))
        (out / "mds.svg").write_text(
            svgplot.scatter(
                embedding.coordinates,
                circles=circles,
                title="embedded node signatures",
                x_label="coord 0",
                y_label="coord 1",
            )
        )
    print(f"embedded {len(matrix.node_ids)} nodes into {args.dims}D, stress {embedding.stress:.3e}")
    return 0


def cmd_cluster(args) -> int:
    vectors = _input_vectors(args)
    assignment = kmeans(vectors, k=args.k, seed=args.seed)
    out = _out_dir(args)
    exports.write_clusters_csv(out / "clusters.csv", assignment)
    exports.write_cluster_summary_csv(out / "cluster_summary.csv", assignment)
    if len(vectors) > 2:
        embedding = classical_mds(distance_matrix(vectors), 2)
        (out / "clusters.svg").write_text(
            svgplot.scatter(
                embedding.coordinates,
                labels=assignment.labels,
                title=f"{args.k} signature clusters (label order: increasing radius)",
                x_label="coord 0",
                y_label="coord 1",
            )
        )
    rows = np.array([v.components for v in vectors])
    (out / "parallel_coordinates.svg").write_text(
        svgplot.parallel_coordinates(rows, labels=assignment.labels, title="signatures by cluster")
    )
    radii = ", ".join(f"{s.radius:.4g}" for s in assignment.spheres)
    print(f"clustered {len(vectors)} nodes into {args.k} groups; radii [{radii}]")
    return 0


def cmd_complexity(args) -> int:
    vectors = _input_vectors(args)
    radius = complexity_score(vectors)
    summary: dict[str, float | int | str] = {
        "complexity_radius": radius,
        "n_nodes": len(vectors),
        "n_components": len(vectors[0]),
    }
    if len(vectors) > 2:
        embedding = classical_mds(distance_matrix(vectors), 2)
        summary["complexity_radius_2d"] = min_enclosing_ball(embedding.coordinates).radius
    out = _out_dir(args)
    exports.write_summary_csv(out / "summary.csv", summary)
    print(f"complexity_radius: {radius!r}")
    return 0


def cmd_sweep(args) -> int:
    path = Path(args.params)
    if not path.exists():
        raise FileNotFoundError(f"params file not found: {args.params}")
    params, bounds = _read_sweep_params(path)
    samples = latin_hypercube(args.n, bounds, seed=args.seed)
    out = _out_dir(args)
    records = sweep(
        params,
        samples,
        out,
        delta=args.delta,
        l_max=args.lmax,
        kernel=args.kernel,
        amplitude_mode=args.amplitude,
        oversample=args.oversample,
    )
    solved = [r for r in records if r.status == "ok"]
    if solved:
        points = [(r.mass_per_area, r.complexity_radius) for r in solved]
        (out / "biobjective.svg").write_text(
            svgplot.scatter(
                points,
                title="design family: material use vs connection complexity",
                x_label="mass per enclosed area (kg/m^2)",
                y_label="complexity radius",
            )
        )
    failures = len(records) - len(solved)
    print(f"swept {len(records)} designs ({failures} failed); results in {out / 'sweep.csv'}")
    return 0


def _finite(value) -> float:
    if not is_finite_number(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _integral(value) -> int:
    """An integer from an integral number; 4.9 is refused, not truncated."""
    if not is_finite_number(value) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


# How a family file's JSON value becomes a GridTrussParams field, keyed by the
# field's annotation.
_FIELD_COERCIONS = {
    "int": _integral,
    "float": _finite,
    "str": _string,
    "tuple[tuple[float, ...], ...]": lambda rows: tuple(tuple(_finite(v) for v in row) for row in rows),
    "tuple[int, ...] | None": lambda ids: tuple(_integral(v) for v in ids),
}


def _read_sweep_params(path: Path) -> tuple[GridTrussParams, tuple]:
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON: {exc.msg} (offset {exc.pos})") from exc
    if not isinstance(raw, dict):
        raise ModelFormatError(f"{path}: top level must be a JSON object")
    coercions = {f.name: _FIELD_COERCIONS[f.type] for f in dataclasses.fields(GridTrussParams)}
    for key in raw:
        if key not in coercions and key != "bounds":
            warnings.warn(f"ignoring unknown field {key!r}", UnknownFieldWarning, stacklevel=2)
    values = {}
    for name, coerce in coercions.items():
        if name in raw:
            try:
                values[name] = coerce(raw[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ModelFormatError(f"{path}: field {name!r}: malformed value {raw[name]!r}") from exc
    try:
        params = GridTrussParams(**values)
    except TypeError as exc:
        raise ModelFormatError(f"{path}: missing or malformed field: {exc}") from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc

    free = free_control_cells(params)
    bounds_raw = raw.get("bounds", [0.0, 2.0])
    if _is_bound_pair(bounds_raw):
        pairs = [bounds_raw] * free
    elif isinstance(bounds_raw, list) and all(_is_bound_pair(pair) for pair in bounds_raw):
        pairs = bounds_raw
    else:
        raise ModelFormatError(
            f"{path}: bounds must be one [lo, hi] pair or a list of [lo, hi] pairs, got {bounds_raw!r}"
        )
    if len(pairs) != free:
        raise ModelFormatError(
            f"{path}: bounds: expected {free} pairs for the symmetric control grid, got {len(pairs)}"
        )
    return params, tuple((float(lo), float(hi)) for lo, hi in pairs)


def _is_bound_pair(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 2
        and all(is_finite_number(v) for v in value)
    )


if __name__ == "__main__":
    sys.exit(main())
