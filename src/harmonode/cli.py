"""Command-line pipeline over truss models and node signatures.

Subcommands mirror the analysis stages: analyze (statics), descriptors
(signatures), distances, mds, cluster, complexity, and sweep (design-space
study). descriptors and sweep write node signatures to CSV; distances, mds,
cluster and complexity read only such a file. Every run is deterministic for
fixed inputs, flags and seed; CSV artifacts are byte-identical across
repeats.

Exit codes: 0 success, 1 pipeline or data error, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import warnings
from pathlib import Path

from . import exports, svgplot
from .analysis import (
    _as_points, _principal_axes, complexity_score, kmeans, min_enclosing_ball, principal_coordinates
)
from .descriptor import (
    AMPLITUDE_MAGNITUDE,
    AMPLITUDE_SIGNED,
    DEFAULT_DELTA,
    KERNEL_COORDINATE,
    KERNEL_GEODESIC,
    distance_matrix,
    energy_vectors,
    node_expansions,
)
from .fea import extract_demands, solve
from .generator import GridTrussParams, free_control_cells, latin_hypercube, sweep
from .harmonics import DEFAULT_L_MAX, HarmonicExpansion
from .model import (
    ModelFormatError, UnknownFieldWarning, _json_object, _warn_unknown, is_finite_number, read_model
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        # By name, so a rebinding of cmd_* (a tracer, a monkeypatch) is the one that runs.
        return globals()[args.handler](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; subcommands name their handler in this module."""
    parser = argparse.ArgumentParser(
        prog="harmonode",
        description="Quantify spatial-truss connection complexity from nodal force demands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand accepts only the flag groups it reads.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, default=".", help="output directory (default current)")
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

    p = sub.add_parser("analyze", parents=[statics, output], help="solve one load case, export CSV results")
    p.add_argument("model", help="path to a .truss.json model")
    p.set_defaults(handler="cmd_analyze")

    p = sub.add_parser(
        "descriptors", parents=[signature, statics, output], help="export per-node feature vectors"
    )
    p.add_argument("model", help="path to a .truss.json model")
    p.add_argument("--include-loads", action="store_true", help="add applied loads to demands")
    p.add_argument("--include-reactions", action="store_true", help="add reactions to demands")
    p.add_argument(
        "--write-expansions", action="store_true", help="also export per-node coefficient files"
    )
    p.set_defaults(handler="cmd_descriptors")

    p = sub.add_parser("distances", parents=[output], help="pairwise distance matrix + heatmap")
    p.add_argument("input", help="feature_vectors.csv from descriptors or sweep")
    p.set_defaults(handler="cmd_distances")

    p = sub.add_parser("mds", parents=[output], help="low-dimensional embedding + scatter")
    p.add_argument("input", help="feature_vectors.csv from descriptors or sweep")
    p.add_argument("--dims", type=int, default=2, help="embedding dimension (default 2)")
    p.set_defaults(handler="cmd_mds")

    p = sub.add_parser("cluster", parents=[output], help="k-means grouping of node signatures")
    p.add_argument("input", help="feature_vectors.csv from descriptors or sweep")
    p.add_argument("--k", type=int, default=10, help="number of clusters (default 10)")
    p.add_argument("--seed", type=int, default=0, help="clustering seed (default 0)")
    p.set_defaults(handler="cmd_cluster")

    p = sub.add_parser("complexity", parents=[output], help="minimal enclosing sphere radius")
    p.add_argument("input", help="feature_vectors.csv from descriptors or sweep")
    p.set_defaults(handler="cmd_complexity")

    p = sub.add_parser("sweep", parents=[signature, output], help="design-space study over sampled variants")
    p.add_argument("params", help="JSON file describing the parametric family")
    p.add_argument("--n", type=int, default=20, help="number of sampled designs (default 20)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.set_defaults(handler="cmd_sweep")

    return parser


def _read_file(path: str, kind: str, read):
    """read(the file's bytes); each warning printed as one 'warning: ...' line, errors led by the path."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UnknownFieldWarning)
        try:
            result = read(p.read_bytes())
        except ModelFormatError as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    return result


def _input_vectors(args):
    path = Path(args.input)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {args.input}")
    return exports.read_feature_vectors_csv(path)


def cmd_analyze(args) -> int:
    model = _read_file(args.model, "model", read_model)
    result = solve(model, args.load_case)
    exports.write_displacements_csv(args.out / "displacements.csv", result)
    exports.write_forces_csv(args.out / "forces.csv", result)
    exports.write_reactions_csv(args.out / "reactions.csv", result)
    peak = max(abs(f) for f in result.axial_forces.values()) if result.axial_forces else 0.0
    print(
        f"analyzed case {result.load_case!r}: {len(model.nodes)} nodes, "
        f"{len(model.elements)} elements, peak |N| = {peak:.6g} N"
    )
    return 0


def cmd_descriptors(args) -> int:
    model = _read_file(args.model, "model", read_model)
    result = solve(model, args.load_case)
    demands = extract_demands(
        model, result, include_applied_loads=args.include_loads, include_reactions=args.include_reactions
    )
    coefficients = node_expansions(
        demands, args.delta, args.lmax, kernel=args.kernel, amplitude_mode=args.amplitude
    )
    vectors = energy_vectors(demands, coefficients)
    exports.write_feature_vectors_csv(args.out / "feature_vectors.csv", vectors)
    if args.write_expansions:
        for demand, row in zip(demands, coefficients):
            expansion = HarmonicExpansion(args.lmax, row)
            exports.write_expansion_csv(args.out / f"expansion_{demand.node:04d}.csv", expansion)
    print(f"wrote {len(vectors)} feature vectors of length {args.lmax + 1}")
    return 0


def cmd_distances(args) -> int:
    vectors = _input_vectors(args)
    matrix = distance_matrix(vectors)
    exports.write_distance_matrix_csv(args.out / "distance_matrix.csv", matrix)
    (args.out / "distance_matrix.svg").write_text(
        svgplot.heatmap(matrix.values, title="node signature distances")
    )
    print(f"distance matrix over {len(vectors)} nodes, max distance {matrix.values.max():.6g}")
    return 0


def cmd_mds(args) -> int:
    points, node_ids = _as_points(_input_vectors(args))
    embedding = principal_coordinates(points, args.dims)
    exports.write_embedding_csv(args.out / "mds.csv", embedding, node_ids)
    if args.dims == 2:
        ball = min_enclosing_ball(embedding.coordinates)
        (args.out / "mds.svg").write_text(
            svgplot.scatter(
                embedding.coordinates,
                circles=[(ball.center, ball.radius)],
                title="embedded node signatures",
                x_label="coord 0",
                y_label="coord 1",
            )
        )
    print(f"embedded {len(node_ids)} nodes into {args.dims}D, stress {embedding.stress:.3e}")
    return 0


def cmd_cluster(args) -> int:
    vectors = _input_vectors(args)
    assignment = kmeans(vectors, k=args.k, seed=args.seed)
    points, _ = _as_points(vectors)
    exports.write_clusters_csv(args.out / "clusters.csv", assignment)
    exports.write_cluster_summary_csv(args.out / "cluster_summary.csv", assignment)
    if len(vectors) > 2:
        coordinates, _ = _principal_axes(points, 2)
        (args.out / "clusters.svg").write_text(
            svgplot.scatter(
                coordinates,
                labels=assignment.labels,
                title=f"{args.k} signature clusters (label order: increasing radius)",
                x_label="coord 0",
                y_label="coord 1",
            )
        )
    (args.out / "parallel_coordinates.svg").write_text(
        svgplot.parallel_coordinates(points, labels=assignment.labels, title="signatures by cluster")
    )
    radii = ", ".join(f"{s.radius:.4g}" for s in assignment.spheres)
    print(f"clustered {len(vectors)} nodes into {args.k} groups; radii [{radii}]")
    return 0


def cmd_complexity(args) -> int:
    points, _ = _as_points(_input_vectors(args))
    radius = complexity_score(points)
    summary: dict[str, float | int | str] = {
        "complexity_radius": radius,
        "n_nodes": points.shape[0],
        "n_components": points.shape[1],
    }
    if points.shape[0] > 2:
        coordinates, _ = _principal_axes(points, 2)
        summary["complexity_radius_2d"] = min_enclosing_ball(coordinates).radius
    exports.write_summary_csv(args.out / "summary.csv", summary)
    print(f"complexity_radius: {radius!r}")
    return 0


def cmd_sweep(args) -> int:
    params, bounds = _read_file(args.params, "params", _read_sweep_params)
    samples = latin_hypercube(args.n, bounds, seed=args.seed)
    records = sweep(
        params,
        samples,
        args.out,
        delta=args.delta,
        l_max=args.lmax,
        kernel=args.kernel,
        amplitude_mode=args.amplitude,
    )
    solved = [r for r in records if r.status == "ok"]
    if solved:
        points = [(r.mass_per_area, r.complexity_radius) for r in solved]
        (args.out / "biobjective.svg").write_text(
            svgplot.scatter(
                points,
                title="design family: material use vs connection complexity",
                x_label="mass per enclosed area (kg/m^2)",
                y_label="complexity radius",
            )
        )
    failures = len(records) - len(solved)
    print(f"swept {len(records)} designs ({failures} failed); results in {args.out / 'sweep.csv'}")
    return 0


def _read_sweep_params(document: str | bytes) -> tuple[GridTrussParams, tuple]:
    """The family and bounds of a family file; GridTrussParams checks the family's values."""
    raw = _json_object(document)
    fields = dataclasses.fields(GridTrussParams)
    _warn_unknown(raw, {*(f.name for f in fields), "bounds"})
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in raw:
            raise ModelFormatError(f"field {f.name!r}: required field is missing")
    try:
        params = GridTrussParams(**{f.name: raw[f.name] for f in fields if f.name in raw})
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc

    free = free_control_cells(params)
    bounds_raw = raw.get("bounds", [0.0, 2.0])
    if _is_bound_pair(bounds_raw):
        pairs = [bounds_raw] * free
    elif isinstance(bounds_raw, list) and all(_is_bound_pair(pair) for pair in bounds_raw):
        pairs = bounds_raw
    else:
        raise ModelFormatError(
            f"bounds must be one [lo, hi] pair or a list of [lo, hi] pairs, got {bounds_raw!r}"
        )
    if len(pairs) != free:
        raise ModelFormatError(
            f"bounds: expected {free} pairs for the symmetric control grid, got {len(pairs)}"
        )
    for d, (lo, hi) in enumerate(pairs):
        if not lo < hi:
            raise ModelFormatError(f"bounds: pair {d} must satisfy lo < hi, got [{lo}, {hi}]")
    return params, tuple((float(lo), float(hi)) for lo, hi in pairs)


def _is_bound_pair(value) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 2
        and all(is_finite_number(v) for v in value)
    )


if __name__ == "__main__":
    sys.exit(main())
