"""The three benchmark workloads, driven through ``harmonode.cli.main``.

A workload prepares its inputs in ``setup`` and then runs passes. A pass is
a fixed list of CLI calls; only the calls are timed, and each call's outputs
are checked right after it, untimed. Outputs byte-identical to ones already
checked in this process reuse that verdict, so repeated passes cost little
beyond the calls themselves. Everything runs in this process with
one BLAS thread and without ``HARMONODE_THREADS``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from harmonode import cli, generator, model

HERE = Path(__file__).resolve().parent
N_COMPONENTS = 17  # default l_max 16

# The README's sweep family; only the grid size changes between scales.
FAMILY = {
    "nx": 7, "ny": 7, "bay": 3.0, "depth": 1.0,
    "control_heights": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    "load_per_node": 20000.0,
    "bounds": [0.0, 2.0],
}
# The fixed single-model design of study-25x25 (a mirrored, domed roof).
STUDY_CONTROLS = (0.25, 1.5, 1.75, 0.5)
STUDY_K = 10
KSCAN_SEED = 0

SCALES = {
    "full": {"sweep_grid": 7, "sweep_designs": 16, "study_grid": 25, "kscan_designs": 8, "ks": range(2, 13)},
    "smoke": {"sweep_grid": 5, "sweep_designs": 2, "study_grid": 5, "kscan_designs": 2, "ks": range(2, 5)},
}


@dataclass
class Tally:
    """Per-call timed seconds and operation counts of one pass or set-up."""

    call_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    designs_ok: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, attempted: int, failures: list[str], failed: int | None = None) -> None:
        self.attempted += attempted
        self.failed += min(attempted, len(failures) if failed is None else failed)
        self.failures += failures

    @property
    def seconds(self) -> float:
        return sum(self.call_seconds)


def run_cli(argv: list[str], tracer=None) -> tuple[int, float, str]:
    """One in-process CLI call: exit code, wall seconds and captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return code, elapsed, err.getvalue()


def write_family(path: Path, grid: int) -> dict:
    family = dict(FAMILY, nx=grid, ny=grid)
    path.write_text(json.dumps(family))
    return family


def family_params(family: dict) -> generator.GridTrussParams:
    return generator.GridTrussParams(
        nx=family["nx"], ny=family["ny"], bay=family["bay"], depth=family["depth"],
        control_heights=tuple(tuple(r) for r in family["control_heights"]),
        load_per_node=family["load_per_node"],
    )


def study_model(grid: int) -> model.TrussModel:
    """The fixed study design on a grid x grid plan."""
    params = family_params(dict(FAMILY, nx=grid, ny=grid))
    return generator.generate_grid_truss(generator.apply_control_sample(params, STUDY_CONTROLS))


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, work: Path):
        self.seed = seed
        self.size = SCALES[scale]
        self.work = work
        self._oracle: dict[tuple, float] = {}
        self._verdicts: dict[bytes, list[str]] = {}
        self.setup_tally = Tally()

    def checked(self, paths: list[Path], check, *key) -> list[str]:
        """Failures of ``check()``, reused for outputs already checked byte for byte."""
        missing = [path.name for path in paths if not path.is_file()]
        if missing:
            return [f"{', '.join(missing)} not written"]
        digest = hashlib.sha256(repr(key).encode())
        for path in paths:
            digest.update(path.read_bytes())
        verdict = digest.digest()
        if verdict not in self._verdicts:
            self._verdicts[verdict] = check()
        return self._verdicts[verdict]

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> Tally:
        raise NotImplementedError

    def check_sweep(self, out: Path, family: dict, n: int, tally: Tally) -> None:
        """Per design: status, signatures, mirror twins, radius and sized mass."""
        rows = checks.read_rows(out / "sweep.csv")
        if len(rows) != n:
            tally.add(n, [f"sweep.csv has {len(rows)} rows, expected {n}"], failed=n)
            return
        params = family_params(family)
        n_nodes = family["nx"] * family["ny"] + (family["nx"] - 1) * (family["ny"] - 1)
        twins = checks.mirror_twins(family["nx"], family["ny"])
        for row in rows:
            features = out / f"sample_{int(row['sample_id']):03d}_features.csv"
            failures = self.checked(
                [features], lambda: self._check_design(features, row, params, n_nodes, twins),
                sorted(row.items()),
            )
            tally.add(1, [f"design {row['sample_id']}: {m}" for m in failures], failed=int(bool(failures)))
            tally.designs_ok += not failures

    def _check_design(self, features, row, params, n_nodes, twins) -> list[str]:
        if row["solver_status"] != "ok":
            return [f"status {row['solver_status']!r}"]
        ids, values = checks.read_features(features)
        failures = checks.check_signatures(ids, values, n_nodes, N_COMPONENTS)
        if failures:
            return failures
        failures += checks.check_twins(ids, values, twins)
        failures += checks.check_ball_radius(values, float(row["complexity_radius"]))
        controls = tuple(float(row[f"p{i}"]) for i in range(len(row) - 5))
        if controls not in self._oracle:
            design = generator.generate_grid_truss(generator.apply_control_sample(params, controls))
            self._oracle[controls] = checks.fully_stressed_mass(design)
        failures += checks.check_mass(float(row["mass_kg"]), self._oracle[controls])
        return failures


class SweepWorkload(Workload):
    """``harmonode sweep`` of a seeded Latin hypercube of the 7x7 family."""

    name = "sweep-7x7"

    def setup(self, index: int) -> None:
        self.dir = self.fresh_dir(f"setup{index}")
        self.family = write_family(self.dir / "family.json", self.size["sweep_grid"])
        run_cli(["sweep", str(self.dir / "family.json"), "--n", "1",
                 "--seed", str(self.seed + 7919), "--out", str(self.dir / "warmup")])

    def run_pass(self, tracer=None) -> Tally:
        n = self.size["sweep_designs"]
        out = self.fresh_dir("pass")
        code, seconds, err = run_cli(
            ["sweep", str(self.dir / "family.json"), "--n", str(n),
             "--seed", str(self.seed), "--out", str(out)],
            tracer,
        )
        tally = Tally(call_seconds=[seconds])
        if code != 0:
            tally.add(n, [f"sweep exited {code}: {err.strip()}"], failed=n)
        else:
            self.check_sweep(out, self.family, n, tally)
        return tally


class StudyWorkload(Workload):
    """The single-model study of one fixed 25x25 design, written during set-up."""

    name = "study-25x25"

    def setup(self, index: int) -> None:
        grid = self.size["study_grid"]
        self.dir = self.fresh_dir(f"setup{index}")
        design = study_model(grid)
        self.model_path = self.dir / "study.truss.json"
        self.model_path.write_text(model.write_model(design))
        self.n_nodes = len(design.nodes)
        self.twins = checks.mirror_twins(grid, grid)
        self.reference = json.loads((HERE / "reference.json").read_text())["designs"][str(grid)]
        # Warm-up on the small smoke-scale design.
        warm = self.dir / "warmup"
        warm.mkdir()
        (warm / "small.truss.json").write_text(model.write_model(study_model(SCALES["smoke"]["study_grid"])))
        for argv in (["descriptors", str(warm / "small.truss.json")],
                     ["cluster", str(warm / "feature_vectors.csv"), "--k", "3"],
                     ["complexity", str(warm / "feature_vectors.csv")]):
            run_cli(argv + ["--out", str(warm)])

    def run_pass(self, tracer=None) -> Tally:
        out = self.fresh_dir("pass")
        features = out / "feature_vectors.csv"
        steps = (
            ("descriptors", ["descriptors", str(self.model_path)], []),
            ("cluster", ["cluster", str(features), "--k", str(STUDY_K), "--seed", str(self.seed)],
             ["clusters.csv", "cluster_summary.csv"]),
            ("complexity", ["complexity", str(features)], ["summary.csv"]),
        )
        tally = Tally()
        for step, argv, outputs in steps:
            code, seconds, err = run_cli(argv + ["--out", str(out)], tracer)
            tally.call_seconds.append(seconds)
            if code != 0:
                failures = [f"{step} exited {code}: {err.strip()}"]
            else:
                paths = [features, *(out / name for name in outputs)]
                failures = self.checked(paths, lambda: self._check_step(step, out), step)
            tally.add(1, [f"{step}: {m}" for m in failures], failed=int(bool(failures)))
        tally.designs_ok = int(tally.failed == 0)
        return tally

    def _check_step(self, step: str, out: Path) -> list[str]:
        ids, values = checks.read_features(out / "feature_vectors.csv")
        if step == "descriptors":
            failures = checks.check_signatures(ids, values, self.n_nodes, N_COMPONENTS)
            return failures or checks.check_twins(ids, values, self.twins)
        if step == "cluster":
            return checks.check_clusters(out, ids, values, STUDY_K)
        summary = {r["metric"]: r["value"] for r in checks.read_rows(out / "summary.csv")}
        radius = float(summary["complexity_radius"])
        return checks.check_ball_radius(values, radius) + checks.check_reference(ids, values, radius, self.reference)


class KscanWorkload(Workload):
    """``harmonode cluster --k k`` for k in a fixed range over a fixed design set.

    The designs are the 7x7 sweep set of LHS seed 0, made during set-up; the
    run seed only shuffles the order of the (design, k) calls.
    """

    name = "kscan-7x7"

    def setup(self, index: int) -> None:
        n = self.size["kscan_designs"]
        self.dir = self.fresh_dir(f"setup{index}")
        self.family = write_family(self.dir / "family.json", self.size["sweep_grid"])
        code, _, err = run_cli(["sweep", str(self.dir / "family.json"), "--n", str(n),
                                "--seed", str(KSCAN_SEED), "--out", str(self.dir)])
        self.setup_tally = Tally()
        if code != 0:
            self.setup_tally.add(n, [f"set-up sweep exited {code}: {err.strip()}"], failed=n)
        else:
            self.check_sweep(self.dir, self.family, n, self.setup_tally)
        self.features = [self.dir / f"sample_{j:03d}_features.csv" for j in range(n)]
        self.signatures = [checks.read_features(p) for p in self.features]
        order = [(j, k) for j in range(n) for k in self.size["ks"]]
        rng = np.random.default_rng(self.seed)
        self.calls = [order[i] for i in rng.permutation(len(order))]
        run_cli(["cluster", str(self.features[0]), "--k", "2", "--out", str(self.dir / "warmup")])

    def run_pass(self, tracer=None) -> Tally:
        out = self.fresh_dir("pass")
        tally = Tally()
        failed_designs = set()
        for design, k in self.calls:
            code, seconds, err = run_cli(
                ["cluster", str(self.features[design]), "--k", str(k), "--out", str(out)], tracer
            )
            tally.call_seconds.append(seconds)
            if code != 0:
                failures = [f"design {design} k={k}: cluster exited {code}: {err.strip()}"]
            else:
                ids, values = self.signatures[design]
                failures = self.checked(
                    [out / "clusters.csv", out / "cluster_summary.csv"],
                    lambda: checks.check_clusters(out, ids, values, k), design, k,
                )
                failures = [f"design {design} k={k}: {m}" for m in failures]
            tally.add(1, failures, failed=int(bool(failures)))
            if failures:
                failed_designs.add(design)
        tally.designs_ok = len(self.features) - len(failed_designs)
        return tally


WORKLOADS = {w.name: w for w in (SweepWorkload, StudyWorkload, KscanWorkload)}
