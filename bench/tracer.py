"""Span tracing of harmonode's public functions, installed from outside the package.

The package binds its functions with ``from .x import f``, so wrapping the
defining module alone would miss most calls. ``Tracer.install`` therefore
wraps every public function of each layer module and rebinds the wrapper
under every name, in every harmonode module, that referred to the original.
``escaped`` lists any binding that still points at an unwrapped function.

Each call records one span ``[name_id, start, end, parent]`` (times from
``time.perf_counter``; ``parent`` is the index of the enclosing span, or -1).
Hooks attach input-size facts to some spans; ``layer_metrics`` derives the
per-layer metrics from spans and those facts alone.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time

PACKAGE = "harmonode"
LAYERS = (
    "cli", "model", "generator", "fea", "descriptor",
    "harmonics", "analysis", "exports", "svgplot",
)

SLOW_CALL_S = 1.0


def _members(obj):
    """The object and, for a module-level container, its items."""
    if isinstance(obj, dict):
        return [obj, *obj.values()]
    if isinstance(obj, (list, tuple)):
        return [obj, *obj]
    return [obj]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _solve_facts(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    n_dof = 3 * len(model.nodes)
    restrained = sum(sum(1 for fixed in s.fixed if fixed) for s in model.supports)
    return {"n_dof": n_dof, "free_dof": n_dof - restrained}


def _force_function_facts(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    grid = _arg(args, kwargs, 1, "grid")
    return {"kernel_evals": grid.n_theta * grid.n_phi * len(spec.demand.entries)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


HOOKS = {
    "fea.solve": _solve_facts,
    "fea.size_members": lambda a, k, r: {"iterations": r.iterations, "converged": r.converged},
    "descriptor.node_feature_vectors": lambda a, k, r: {
        "nodes": len(_arg(a, k, 0, "demands")),
        "entries": sum(len(d.entries) for d in _arg(a, k, 0, "demands")),
    },
    "descriptor.build_force_function": _force_function_facts,
    "analysis.classical_mds": lambda a, k, r: {
        "stress": r.stress, "negative_eigenvalue_ratio": r.negative_eigenvalue_ratio,
    },
    "analysis.kmeans": lambda a, k, r: {"lloyd_iterations": len(r.objective_history)},
    "exports.write_feature_vectors_csv": _file_bytes,
    "exports.read_feature_vectors_csv": _file_bytes,
}


class Tracer:
    """Spans of one traced pass, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.facts: dict[int, dict] = {}
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.escaped: list[str] = []

    @staticmethod
    def _modules():
        return [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    @staticmethod
    def _originals() -> dict[int, tuple[str, object]]:
        found = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    found[id(obj)] = (f"{layer}.{attr}", obj)
        return found

    def install(self) -> None:
        originals = self._originals()
        wrappers = {key: self._wrap(name, func) for key, (name, func) in originals.items()}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                key = id(obj)
                if key in originals and originals[key][1] is obj:
                    setattr(mod, attr, wrappers[key])
                    self._patched.append((mod, attr, obj))
        self.escaped = sorted(
            f"{mod.__name__}.{attr}"
            for mod in self._modules()
            for attr, obj in vars(mod).items()
            for item in _members(obj)
            if id(item) in originals and originals[id(item)][1] is item
        )

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def _wrap(self, name: str, func):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = HOOKS.get(name)
        spans, stack, facts = self.spans, self._stack, self.facts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                facts[index] = hook(args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "facts": {str(i): f for i, f in self.facts.items()},
        }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, derived from its spans.

    ``X.s`` is the summed duration of X's spans; ``X.calls`` their number.
    ``*_computed`` counts come from input sizes, not from measurement:
    one dense Cholesky plus one LU of the free-DOF stiffness matrix is about
    n_free^3 flops, the dense matrix holds 8 n_dof^2 bytes, and the force
    function evaluates one kernel per grid point and demand entry. Means and
    ratios over zero calls read 0.
    """
    names = tracer.names
    spans = tracer.spans
    durations = [end - start for _, start, end, _ in spans]
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for index, (name_id, _, _, parent) in enumerate(spans):
        by_name.setdefault(names[name_id], []).append(index)
        if parent >= 0:
            child_time[parent] += durations[index]

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(durations[i] for i in by_name.get(name, ()))

    def facts(name, key):
        return [tracer.facts[i][key] for i in by_name.get(name, ()) if i in tracer.facts]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def layer(index):
        return names[spans[index][0]].split(".", 1)[0]

    free_dof = facts("fea.solve", "free_dof")
    n_dof = facts("fea.solve", "n_dof")
    converged = facts("fea.size_members", "converged")
    ball = [durations[i] for i in by_name.get("analysis.min_enclosing_ball", ())]
    svg_roots = [
        i for i in range(len(spans))
        if layer(i) == "svgplot" and (spans[i][3] < 0 or layer(spans[i][3]) != "svgplot")
    ]
    cli_self = sum(durations[i] - child_time[i] for i in range(len(spans)) if layer(i) == "cli")

    out = {
        "fea.solve.calls": calls("fea.solve"),
        "fea.solve.s": seconds("fea.solve"),
        "fea.solve.free_dof": mean(free_dof),
        "fea.solve.flops_computed": float(sum(n**3 for n in free_dof)),
        "fea.solve.k_bytes_computed": float(sum(8 * n * n for n in n_dof)),
        "fea.size_members.calls": calls("fea.size_members"),
        "fea.size_members.s": seconds("fea.size_members"),
        "fea.size_members.iterations_mean": mean(facts("fea.size_members", "iterations")),
        "fea.size_members.converged_ratio": mean([float(c) for c in converged]),
        "fea.extract_demands.s": seconds("fea.extract_demands"),
        "generator.generate_grid_truss.s": seconds("generator.generate_grid_truss"),
        "model.read_model.s": seconds("model.read_model"),
        "descriptor.node_feature_vectors.s": seconds("descriptor.node_feature_vectors"),
        "descriptor.node_feature_vectors.nodes": sum(facts("descriptor.node_feature_vectors", "nodes")),
        "descriptor.node_feature_vectors.entries": sum(facts("descriptor.node_feature_vectors", "entries")),
        "descriptor.build_force_function.s": seconds("descriptor.build_force_function"),
        "descriptor.build_force_function.kernel_evals_computed": float(
            sum(facts("descriptor.build_force_function", "kernel_evals"))
        ),
        "harmonics.expand.calls": calls("harmonics.expand"),
        "harmonics.expand.s": seconds("harmonics.expand"),
        "descriptor.distance_matrix.calls": calls("descriptor.distance_matrix"),
        "descriptor.distance_matrix.s": seconds("descriptor.distance_matrix"),
        "analysis.classical_mds.calls": calls("analysis.classical_mds"),
        "analysis.classical_mds.s": seconds("analysis.classical_mds"),
        "analysis.classical_mds.stress": max(facts("analysis.classical_mds", "stress"), default=0.0),
        "analysis.classical_mds.negative_eigenvalue_ratio": max(
            facts("analysis.classical_mds", "negative_eigenvalue_ratio"), default=0.0
        ),
        "analysis.kmeans.calls": calls("analysis.kmeans"),
        "analysis.kmeans.s": seconds("analysis.kmeans"),
        "analysis.kmeans.lloyd_iterations_mean": mean(facts("analysis.kmeans", "lloyd_iterations")),
        "analysis.min_enclosing_ball.calls": len(ball),
        "analysis.min_enclosing_ball.s": sum(ball),
        "analysis.min_enclosing_ball.max_call_s": max(ball, default=0.0),
        "analysis.min_enclosing_ball.calls_over_1s": sum(1 for d in ball if d > SLOW_CALL_S),
        "exports.write_feature_vectors_csv.s": seconds("exports.write_feature_vectors_csv"),
        "exports.write_feature_vectors_csv.bytes": sum(facts("exports.write_feature_vectors_csv", "bytes")),
        "exports.read_feature_vectors_csv.s": seconds("exports.read_feature_vectors_csv"),
        "exports.read_feature_vectors_csv.bytes": sum(facts("exports.read_feature_vectors_csv", "bytes")),
        "svgplot.s": sum(durations[i] for i in svg_roots),
        "cli.main.self_s": cli_self,
    }
    return {name: float(value) for name, value in out.items()}
