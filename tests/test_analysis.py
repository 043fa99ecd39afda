import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from harmonode import analysis
from harmonode.analysis import (
    ClusterAssignment,
    classical_mds,
    complexity_score,
    kmeans,
    min_enclosing_ball,
    principal_coordinates,
)
from harmonode.descriptor import FeatureVector, distance_matrix, node_feature_vectors
from harmonode.fea import extract_demands, solve
from harmonode.exports import read_feature_vectors_csv
from harmonode.generator import GridTrussParams, apply_control_sample, generate_grid_truss, latin_hypercube, sweep


def brute_force_ball_radius(points: np.ndarray) -> float:
    """Exhaustive oracle: smallest covering sphere determined by a subset.

    For every subset of at most d+1 points, the circumcenter constrained to
    the subset's affine hull solves a small linear system; the smallest such
    sphere that covers all points is the minimal enclosing ball.
    """
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    best = None
    for size in range(1, min(n, dim + 1) + 1):
        for idx in combinations(range(n), size):
            sub = points[list(idx)]
            if size == 1:
                center = sub[0]
            else:
                span = (sub[1:] - sub[0]).T
                gram = 2.0 * span.T @ span
                rhs = ((sub[1:] - sub[0]) ** 2).sum(axis=1)
                try:
                    lam = np.linalg.solve(gram, rhs)
                except np.linalg.LinAlgError:
                    continue
                center = sub[0] + span @ lam
            cover = math.sqrt(float(((points - center) ** 2).sum(axis=1).max()))
            on_subset = math.sqrt(float(((sub - center) ** 2).sum(axis=1).max()))
            if cover <= on_subset * (1.0 + 1e-9) and (best is None or cover < best):
                best = cover
    return best


@pytest.fixture(scope="module")
def study_signatures() -> np.ndarray:
    """The 1201 signatures of the benchmark's fixed 25x25 study design."""
    family = GridTrussParams(nx=25, ny=25, bay=3.0, depth=1.0, control_heights=((0.0, 0.0),) * 4)
    model = generate_grid_truss(apply_control_sample(family, (0.25, 1.5, 1.75, 0.5)))
    return np.array([v.components for v in node_feature_vectors(extract_demands(model, solve(model)))])


@pytest.fixture(scope="module")
def kscan_signatures(tmp_path_factory) -> list[np.ndarray]:
    """The connector-count scan's design set: the README 7x7 family, 8 LHS designs of seed 0, sized."""
    family = GridTrussParams(nx=7, ny=7, bay=3.0, depth=1.0, control_heights=((0.0, 0.0),) * 4)
    out = tmp_path_factory.mktemp("kscan")
    records = sweep(family, latin_hypercube(8, [(0.0, 2.0)] * 4, seed=0), out)
    assert [r.status for r in records] == ["ok"] * 8
    return [
        np.array([v.components for v in read_feature_vectors_csv(out / f"sample_{design:03d}_features.csv")])
        for design in range(8)
    ]


class TestClassicalMds:
    def test_planar_points_reproduce_distances(self):
        rng = np.random.default_rng(67)
        points = rng.normal(size=(15, 2)) * 3.0
        d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        embedding = classical_mds(d, 2)
        coords = embedding.coordinates
        d2 = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        mask = d > 0
        assert np.abs((d2[mask] - d[mask]) / d[mask]).max() <= 1e-8

    def test_all_equal_points_embed_to_zero(self):
        d = np.zeros((6, 6))
        embedding = classical_mds(d, 2)
        assert np.abs(embedding.coordinates).max() == 0.0
        assert embedding.stress == 0.0

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(71)
        points = rng.normal(size=(20, 17))
        d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        first = classical_mds(d, 2)
        second = classical_mds(d, 2)
        assert np.array_equal(first.coordinates, second.coordinates)
        assert first.stress < 1.0

    def test_sign_convention(self):
        rng = np.random.default_rng(73)
        points = rng.normal(size=(9, 3))
        d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        coords = classical_mds(d, 3).coordinates
        for axis in range(3):
            column = coords[:, axis]
            assert column[np.argmax(np.abs(column))] >= 0.0

    def test_eigenvalues_non_increasing(self):
        rng = np.random.default_rng(79)
        points = rng.normal(size=(10, 4))
        d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        eig = classical_mds(d, 4).eigenvalues
        assert np.all(np.diff(eig) <= 1e-12)

    def test_invalid_dimension(self):
        d = np.zeros((4, 4))
        with pytest.raises(ValueError):
            classical_mds(d, 4)
        with pytest.raises(ValueError):
            classical_mds(d, 0)

    def test_negative_eigenvalue_diagnostic(self):
        # a metric that is not Euclidean-embeddable leaves negative spectrum
        d = np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 2.9],
                [1.0, 1.0, 2.9, 0.0],
            ]
        )
        embedding = classical_mds(d, 2)
        assert embedding.negative_eigenvalue_ratio > 1e-6
        euclid = np.sqrt((((np.random.default_rng(0).normal(size=(6, 3)))[:, None]
                           - np.random.default_rng(0).normal(size=(6, 3))[None]) ** 2).sum(-1))
        assert classical_mds(euclid, 2).negative_eigenvalue_ratio <= 1e-6

    def test_embedded_radius_bounded_by_full_radius(self):
        rng = np.random.default_rng(83)
        points = rng.normal(size=(25, 17)) * 10
        full = min_enclosing_ball(points).radius
        d = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        for k in (1, 2, 5):
            embedded = min_enclosing_ball(classical_mds(d, k).coordinates).radius
            assert embedded <= full * (1.0 + 1e-6)


class TestPrincipalCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(
        lattice=st.tuples(st.integers(3, 40), st.integers(1, 17)).flatmap(
            lambda shape: arrays(np.int64, shape, elements=st.integers(-1000, 1000))
        ),
        log_scale=st.floats(-3.0, 6.0),
        data=st.data(),
    )
    def test_agrees_with_classical_mds_of_distances(self, lattice, log_scale, data):
        points = 10.0**log_scale * (1e-3 * lattice)
        n = points.shape[0]
        k = data.draw(st.integers(1, n - 1), label="k")
        fitted = principal_coordinates(points, k)
        reference = classical_mds(distance_matrix([FeatureVector(tuple(p)) for p in points]), k)

        spectrum = np.zeros(n + 1)
        singular = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
        spectrum[: singular.size] = singular**2
        top = spectrum[0]
        assert np.abs(fitted.eigenvalues - reference.eigenvalues).max() <= 1e-9 * top
        assert fitted.negative_eigenvalue_ratio == 0.0
        if spectrum[k - 1] - spectrum[k] >= 1e-6 * top:
            # A separated top-k subspace fixes the coordinates up to rotation.
            gram, gram_ref = (c @ c.T for c in (fitted.coordinates, reference.coordinates))
            largest = np.abs(reference.coordinates).max()
            assert np.abs(gram - gram_ref).max() <= 1e-9 * largest**2
            # Stress is relative to |D| already; at k = rank both are round-off.
            # Past the rank classical MDS keeps sqrt(round-off) columns, which
            # move its stress by up to ~1e-8, so only k <= rank is compared.
            assert fitted.stress == pytest.approx(reference.stress, rel=1e-9, abs=1e-9)

    def test_columns_past_the_rank_are_zero(self):
        rng = np.random.default_rng(89)
        plane = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 5))
        embedding = principal_coordinates(plane, 4)
        assert np.abs(embedding.coordinates[:, :2]).min() > 0.0
        assert np.all(embedding.coordinates[:, 2:] == 0.0)
        assert np.all(embedding.eigenvalues[2:] == 0.0)
        assert embedding.stress <= 1e-12

    def test_all_equal_points_embed_to_zero(self):
        embedding = principal_coordinates(np.full((6, 3), 2.5), 2)
        assert np.all(embedding.coordinates == 0.0)
        assert np.all(embedding.eigenvalues == 0.0)
        assert embedding.stress == 0.0

    def test_sign_convention(self):
        points = np.random.default_rng(97).normal(size=(9, 3))
        coords = principal_coordinates(points, 3).coordinates
        for axis in range(3):
            column = coords[:, axis]
            assert column[np.argmax(np.abs(column))] > 0.0

    def test_feature_vectors_and_arrays_agree(self):
        points = np.random.default_rng(101).normal(size=(7, 4))
        vectors = [FeatureVector(tuple(p), node=10 + i) for i, p in enumerate(points)]
        first, second = principal_coordinates(vectors, 2), principal_coordinates(points, 2)
        assert np.array_equal(first.coordinates, second.coordinates)

    @pytest.mark.parametrize("k", [0, 4, 5])
    def test_invalid_dimension(self, k):
        with pytest.raises(ValueError, match="1 <= k < n=4"):
            principal_coordinates(np.random.default_rng(103).normal(size=(4, 3)), k)


class TestMinEnclosingBall:
    def test_single_point(self):
        ball = min_enclosing_ball(np.array([[3.0, -1.0, 2.0]]))
        assert ball.radius == 0.0
        assert np.allclose(ball.center, [3.0, -1.0, 2.0])

    def test_two_points_exact(self):
        ball = min_enclosing_ball(np.array([[0.0, 0.0], [4.0, 0.0]]))
        assert ball.center == pytest.approx([2.0, 0.0])
        assert ball.radius == pytest.approx(2.0)

    def test_identical_points(self):
        ball = min_enclosing_ball(np.tile([1.0, 2.0, 3.0], (5, 1)))
        assert ball.radius == 0.0

    def test_matches_brute_force_in_r3(self):
        rng = np.random.default_rng(89)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            points = rng.normal(size=(n, 3)) * rng.uniform(0.1, 20.0)
            ball = min_enclosing_ball(points)
            oracle = brute_force_ball_radius(points)
            assert ball.radius == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_high_dimension_consistent_with_tight_rerun(self):
        rng = np.random.default_rng(97)
        for _ in range(40):
            points = rng.normal(size=(int(rng.integers(2, 9)), 17))
            loose = min_enclosing_ball(points, tol=1e-7).radius
            tight = min_enclosing_ball(points, tol=1e-8).radius
            assert loose == pytest.approx(tight, rel=1e-6)

    def test_every_point_covered(self):
        rng = np.random.default_rng(101)
        points = rng.normal(size=(40, 5))
        ball = min_enclosing_ball(points)
        distances = np.sqrt(((points - ball.center) ** 2).sum(axis=1))
        assert distances.max() <= ball.radius * (1.0 + 1e-12)
        assert distances.max() == pytest.approx(ball.radius)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_enclosing_ball(np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_refused_at_once(self, bad):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        points[1, 0] = bad
        started = time.perf_counter()
        for call in (min_enclosing_ball, complexity_score, lambda p: kmeans(p, k=2)):
            with pytest.raises(ValueError, match=r"^point 1 has a non-finite component"):
                call(points)
        assert time.perf_counter() - started < 0.5

    @settings(max_examples=200, deadline=None)
    @given(
        lattice=st.integers(2, 8).flatmap(
            lambda n: arrays(np.int64, (n, 17), elements=st.integers(-10**6, 10**6))
        ),
        direction=arrays(np.float64, 17, elements=st.floats(-1.0, 1.0)),
        base_norm=st.floats(0.0, 1e6),
        log_scale=st.floats(-8.0, 2.0),
    )
    def test_clusters_far_from_origin(self, lattice, direction, base_norm, log_scale):
        # Mirror twins and symmetry orbits: radii down to 1e-8 at norms up to
        # 1e6. A small iteration budget turns a stall into an error. Offsets
        # lie on a 1e-6 lattice in [-1, 1], so squared radii stay normal floats.
        length = float(np.linalg.norm(direction))
        base = direction * (base_norm / length) if length > 0 else np.zeros(17)
        points = base + 10.0**log_scale * (1e-6 * lattice)
        ball = min_enclosing_ball(points, max_iter=5_000)
        # The oracle cancels on uncentred points too, so it gets centred ones.
        oracle = brute_force_ball_radius(points - points.mean(axis=0))
        assert ball.radius == pytest.approx(oracle, rel=1e-6, abs=0.0)
        moved = min_enclosing_ball(points - base, max_iter=5_000)
        assert moved.radius == pytest.approx(ball.radius, rel=2e-7, abs=0.0)

    def test_exhausted_budget_raises(self):
        points = np.random.default_rng(107).normal(size=(30, 5))
        with pytest.raises(ArithmeticError, match="30 points"):
            min_enclosing_ball(points, max_iter=1)

    def test_tiny_scale_stays_certified(self):
        # Squared distances near 1e-320 would be subnormal and lose digits.
        ball = min_enclosing_ball(np.array([[0.0, 0.0, 0.0], [3e-160, 0.0, 0.0]]))
        assert ball.radius == pytest.approx(1.5e-160, rel=1e-12, abs=0.0)
        assert ball.center == pytest.approx([1.5e-160, 0.0, 0.0], rel=1e-12, abs=0.0)

    def test_huge_scale_stays_finite(self):
        # Squared distances near 1e320 would overflow to inf.
        ball = min_enclosing_ball(np.array([[0.0, 0.0, 0.0], [3e160, 0.0, 0.0]]))
        assert ball.radius == pytest.approx(1.5e160, rel=1e-12, abs=0.0)
        assert ball.center == pytest.approx([1.5e160, 0.0, 0.0], rel=1e-12, abs=0.0)

    def test_kscan_clusters_certify(self, kscan_signatures):
        # Each k-scan design clustered with k = 2..12. Their clusters hold
        # mirror twins next to distant points.
        for design, points in enumerate(kscan_signatures):
            for k in range(2, 13):
                labels = kmeans(points, k).labels
                for label in range(k):
                    members = points[labels == label]
                    ball = min_enclosing_ball(members, max_iter=1_000)
                    distances = np.sqrt(((members - ball.center) ** 2).sum(axis=1))
                    # Twins 1e-10 apart lie 3e4 from the origin: the stored
                    # center is exact only to its coordinates' spacing.
                    slack = np.linalg.norm(np.spacing(ball.center))
                    assert distances.max() <= ball.radius * (1.0 + 1e-12) + slack, (design, k, label)

    def test_power_of_two_scaling_is_exact(self):
        points = np.random.default_rng(109).normal(size=(40, 17))
        ball = min_enclosing_ball(points)
        scaled = min_enclosing_ball(points * 2.0**-40)
        assert scaled.radius == ball.radius * 2.0**-40
        assert np.array_equal(scaled.center, ball.center * 2.0**-40)


class TestComplexityScore:
    def test_identical_vectors_score_zero(self):
        vectors = [FeatureVector(components=(5.0, 1.0, 2.0), node=i) for i in range(4)]
        assert complexity_score(vectors) == 0.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(103)
        points = rng.normal(size=(12, 17))
        base = complexity_score(points)
        for c in (0.5, 2.0, 10.0):
            assert complexity_score(points * c) == pytest.approx(c * base, rel=1e-6)

    def test_two_vectors(self):
        a = FeatureVector(components=(0.0, 0.0), node=0)
        b = FeatureVector(components=(6.0, 8.0), node=1)
        assert complexity_score([a, b]) == pytest.approx(5.0, rel=1e-9)


class TestKmeans:
    def test_singletons_when_k_equals_distinct_count(self):
        rng = np.random.default_rng(107)
        points = rng.normal(size=(6, 4))
        assignment = kmeans(points, k=6, seed=0)
        assert sorted(assignment.labels) == list(range(6))
        assert all(s.radius == 0.0 for s in assignment.spheres)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_separated_blobs_recovered(self, seed):
        rng = np.random.default_rng(109)
        blob_a = rng.normal(size=(15, 3)) * 0.05
        blob_b = rng.normal(size=(15, 3)) * 0.05 + 50.0
        points = np.vstack([blob_a, blob_b])
        assignment = kmeans(points, k=2, seed=seed)
        first, second = set(assignment.labels[:15]), set(assignment.labels[15:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(113)
        points = rng.normal(size=(60, 5))
        assignment = kmeans(points, k=4, seed=0)
        history = assignment.objective_history
        assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))

    def test_labels_ordered_by_radius(self):
        rng = np.random.default_rng(127)
        points = np.vstack(
            [
                np.tile([0.0, 0.0], (4, 1)),  # identical group: radius 0
                rng.normal(size=(10, 2)) * 0.5 + 10.0,
                rng.normal(size=(10, 2)) * 3.0 - 10.0,
            ]
        )
        assignment = kmeans(points, k=3, seed=0)
        radii = [s.radius for s in assignment.spheres]
        assert radii == sorted(radii)
        assert radii[0] == 0.0
        assert len(set(assignment.labels[:4])) == 1

    def test_partition_is_complete(self):
        rng = np.random.default_rng(131)
        points = rng.normal(size=(30, 6))
        assignment = kmeans(points, k=5, seed=2)
        assert assignment.labels.shape == (30,)
        assert set(assignment.labels) == set(range(5))
        sizes = [len(assignment.members(label)) for label in range(5)]
        assert sum(sizes) == 30 and all(size > 0 for size in sizes)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(137)
        points = rng.normal(size=(40, 3))
        first = kmeans(points, k=4, seed=9)
        second = kmeans(points, k=4, seed=9)
        assert np.array_equal(first.labels, second.labels)
        assert first.inertia == second.inertia

    def test_k_larger_than_distinct_rejected(self):
        points = np.tile([1.0, 2.0], (5, 1))
        with pytest.raises(ValueError, match="distinct"):
            kmeans(points, k=2, seed=0)

    def test_sphere_covers_members(self):
        rng = np.random.default_rng(139)
        points = rng.normal(size=(50, 4))
        assignment = kmeans(points, k=6, seed=1)
        for label, sphere in enumerate(assignment.spheres):
            members = points[assignment.members(label)]
            gaps = np.sqrt(((members - sphere.center) ** 2).sum(axis=1))
            assert gaps.max() <= sphere.radius * (1 + 1e-9) + 1e-12


# One restart at a time, as k-means ran before its restarts were batched:
# the oracle for the batch's bits.
def oracle_kmeans(points: np.ndarray, k: int, seed: int) -> ClusterAssignment:
    best = None
    for run in range(analysis._KMEANS_RESTARTS):
        rng = np.random.default_rng((seed, run))
        labels, history = oracle_lloyd(points, k, oracle_kmeans_plus_plus(points, k, rng))
        inertia = history[-1]
        if best is None or inertia < best[0]:
            best = (inertia, labels, history)
    inertia, labels, history = best
    spheres = [min_enclosing_ball(points[labels == label]) for label in range(k)]
    first_member = [int(np.flatnonzero(labels == label)[0]) for label in range(k)]
    order = sorted(range(k), key=lambda label: (spheres[label].radius, first_member[label]))
    remap = np.empty(k, dtype=int)
    remap[order] = np.arange(k)
    spheres = tuple(spheres[label] for label in order)
    return ClusterAssignment(k, remap[labels], tuple(range(len(points))), spheres, inertia, history)


def oracle_lloyd(points: np.ndarray, k: int, centroids: np.ndarray):
    labels = np.full(points.shape[0], -1)
    history = []
    for _ in range(analysis._KMEANS_MAX_ITER):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        new_labels = np.argmin(dist2, axis=1)
        history.append(float(dist2[np.arange(points.shape[0]), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for label in range(k):
            members = points[labels == label]
            if len(members):
                centroids[label] = members.mean(axis=0)
            else:
                residual = ((points - centroids[labels]) ** 2).sum(axis=1)
                stray = int(np.argmax(residual))
                centroids[label] = points[stray]
                labels[stray] = label
    return labels, tuple(history)


def oracle_kmeans_plus_plus(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    first = int(rng.integers(n))
    centroids = [points[first]]
    dist2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = float(dist2.sum())
        target = rng.random() * total
        chosen = min(int(np.searchsorted(np.cumsum(dist2), target)), n - 1)
        centroids.append(points[chosen])
        dist2 = np.minimum(dist2, ((points - points[chosen]) ** 2).sum(axis=1))
    return np.array(centroids)


def assert_same_bits(got: ClusterAssignment, want: ClusterAssignment):
    assert np.array_equal(got.labels, want.labels)
    assert got.inertia == want.inertia
    assert got.objective_history == want.objective_history
    for mine, theirs in zip(got.spheres, want.spheres, strict=True):
        assert np.array_equal(mine.center, theirs.center) and mine.radius == theirs.radius


def assert_lloyd_equals_oracle(points: np.ndarray, starts: np.ndarray):
    """_lloyd's batch from starts, (runs, k, d), against plain Lloyd, one run at a time."""
    k = starts.shape[1]
    for (labels, history), start in zip(analysis._lloyd(points, k, starts), starts, strict=True):
        want_labels, want_history = oracle_lloyd(points, k, start.copy())
        assert np.array_equal(labels, want_labels) and history == want_history, k


def kmeans_starts(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """The k-means++ starts kmeans draws for a seed, (runs, k, d)."""
    rngs = [np.random.default_rng((seed, run)) for run in range(analysis._KMEANS_RESTARTS)]
    return analysis._kmeans_plus_plus(points, k, rngs)


@st.composite
def clustering_cases(draw):
    """Lattice points with repeated rows, scaled and shifted, and a valid k and seed."""
    dim = draw(st.integers(1, 5))
    lattice = draw(arrays(np.int64, (draw(st.integers(1, 12)), dim), elements=st.integers(-3, 3)))
    rows = draw(st.lists(st.integers(0, len(lattice) - 1), min_size=1, max_size=40))
    scale = draw(st.floats(1e-3, 1e3))
    offset = draw(st.sampled_from([0.0, 1.0 / 3.0, 1e4]))
    points = lattice[rows] * scale + offset
    k = draw(st.integers(1, np.unique(points, axis=0).shape[0]))
    return points, k, draw(st.integers(0, 2**32 - 1))


class TestBatchedKmeans:
    @settings(max_examples=300, deadline=None)
    @given(case=clustering_cases())
    def test_equals_one_restart_at_a_time(self, case):
        points, k, seed = case
        assert_same_bits(kmeans(points, k, seed), oracle_kmeans(points, k, seed))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [2, 5, 12])
    @pytest.mark.parametrize("dim", [1, 17])
    def test_equals_one_restart_at_a_time_on_noise(self, dim, k, seed):
        points = np.random.default_rng(149).normal(size=(85, dim)) * 1e6
        assert_same_bits(kmeans(points, k, seed), oracle_kmeans(points, k, seed))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_emptied_clusters_are_refilled_as_one_run_alone(self, dim):
        # Every point is nearest centre 0, so clusters 1 and 2 start empty.
        points = np.repeat(np.array([[0.0], [1.0], [2.0]]), dim, axis=1)
        start = np.repeat(np.array([[0.0], [100.0], [101.0]]), dim, axis=1)
        other = points[[2, 0, 1]]  # a run that never empties, batched alongside
        runs = analysis._lloyd(points, 3, np.stack([start, other]))
        (labels, history), (other_labels, other_history) = runs
        want_labels, want_history = oracle_lloyd(points, 3, start.copy())
        assert np.array_equal(labels, want_labels) and history == want_history
        assert sorted(labels) == [0, 1, 2]
        want_labels, want_history = oracle_lloyd(points, 3, other.copy())
        assert np.array_equal(other_labels, want_labels) and other_history == want_history

    def test_cluster_emptied_after_bounds_exist_is_refilled_as_one_run_alone(self):
        points = np.array([[0.0, 3.0], [3.0, 4.0], [3.0, 5.0], [4.0, 1.0], [5.0, 1.0]])
        start = points[[3, 0, 4]]

        def nearest(centroids):
            return np.argmin(((points[:, None, :] - centroids) ** 2).sum(axis=-1), axis=1)

        # The first assignment fills every cluster, so every point gets a
        # bound; the first means then leave cluster 0 without a point.
        first = nearest(start)
        assert sorted(set(first.tolist())) == [0, 1, 2]
        means = np.array([points[first == label].mean(axis=0) for label in range(3)])
        assert 0 not in nearest(means)
        other = points[[2, 0, 4]]  # a run that never empties, batched alongside
        assert_lloyd_equals_oracle(points, np.stack([start, other]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounded_lloyd_equals_plain_lloyd_on_the_25x25_study(self, study_signatures, seed):
        assert_lloyd_equals_oracle(study_signatures, kmeans_starts(study_signatures, 10, seed))

    def test_bounded_lloyd_equals_plain_lloyd_on_a_kscan_design(self, kscan_signatures):
        for k in range(2, 13):
            assert_lloyd_equals_oracle(kscan_signatures[0], kmeans_starts(kscan_signatures[0], k, 0))

    def test_unconverged_run_is_refused(self, monkeypatch):
        points = np.random.default_rng(113).normal(size=(60, 5))
        assert len(kmeans(points, k=4, seed=0).objective_history) > 2
        monkeypatch.setattr(analysis, "_KMEANS_MAX_ITER", 2)
        refusal = r"k=4 not converged: run \d+ still moving after 2 Lloyd iterations"
        with pytest.raises(ArithmeticError, match=refusal):
            kmeans(points, k=4, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(case=clustering_cases(), halvings=st.integers(0, 20))
    def test_best_restart_does_not_depend_on_the_scale(self, case, halvings):
        # Scaling by a power of two is exact, so every inertia scales exactly
        # and the same restart must win at both scales. The halvings reach
        # inertias far below one.
        points, k, seed = case
        points = np.ldexp(points, -halvings)
        small, large = kmeans(points * 2.0**-20, k, seed), kmeans(points * 2.0**20, k, seed)
        assert np.array_equal(small.labels, large.labels)
        assert small.inertia * 2.0**80 == large.inertia

    def test_peak_memory_on_the_25x25_study_signatures(self, study_signatures):
        points = study_signatures
        tracemalloc.start()
        try:
            kmeans(points, k=10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.shape == (1201, 17)
        assert peak < 12 * 2**20
