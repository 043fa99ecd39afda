"""Downstream analytics over node signatures.

Low-dimensional views, the minimal enclosing hypersphere whose radius
scores a design's connection complexity, and seeded k-means clustering for
connection standardization studies. Views of signatures are their principal
coordinates, from the thin SVD of the centred points: that is classical MDS
of their Euclidean distances without the n x n matrix (Gower 1966).
classical_mds embeds a given distance matrix, which need not be Euclidean.
All operations are deterministic for a fixed input order and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_K = 10
DEFAULT_BALL_TOL = 1e-7
_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300

# Rows per block of pairwise distances: the differences of a block to every
# point are a (block, n, d) temporary, never (n, n, d).
_DISTANCE_ROWS = 64


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates that best preserve pairwise distances."""

    coordinates: np.ndarray
    eigenvalues: np.ndarray
    stress: float
    negative_eigenvalue_ratio: float

    @property
    def k(self) -> int:
        return self.coordinates.shape[1]


@dataclass(frozen=True)
class BoundingSphere:
    center: np.ndarray
    radius: float


@dataclass(frozen=True)
class ClusterAssignment:
    """K-means result with clusters relabelled by increasing sphere radius."""

    k: int
    labels: np.ndarray
    node_ids: tuple[int, ...]
    spheres: tuple[BoundingSphere, ...]
    inertia: float
    objective_history: tuple[float, ...]

    def members(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


def _as_points(vectors) -> tuple[np.ndarray, tuple[int, ...]]:
    """Signatures as (points, node ids): the one rule for both.

    FeatureVectors keep their node ids, and one without an id takes its
    position; rows of a plain array are numbered. FeatureVectors of
    different lengths, and a row with a non-finite component, are refused.
    """
    seq = list(vectors)
    if not seq:
        return np.empty((0, 0)), ()
    if not hasattr(seq[0], "components"):
        points = np.atleast_2d(np.asarray(seq, dtype=float))
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"point {row} has a non-finite component: {points[row].tolist()}")
        return points, tuple(range(points.shape[0]))
    lengths = sorted({len(v) for v in seq})
    if len(lengths) > 1:
        raise ValueError(f"inconsistent feature vector lengths: {lengths}")
    points = np.array([v.components for v in seq], dtype=float)
    return points, tuple(i if v.node is None else v.node for i, v in enumerate(seq))


def classical_mds(distances, k: int) -> Embedding:
    """Embed a distance matrix into k dimensions via double centering.

    B = -1/2 J D^2 J, formed by subtracting the row and column means of D^2,
    is eigendecomposed; coordinates are the top-k eigenvectors scaled by the
    square root of their (clamped to zero) eigenvalues. Each axis is flipped
    so its largest-magnitude entry is positive, making the output
    deterministic. The stress diagnostic is the relative Frobenius error
    between the reconstructed and input distances.
    """
    d = distances.values if hasattr(distances, "values") else np.asarray(distances, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if not 1 <= k < n:
        raise ValueError(f"target dimension must satisfy 1 <= k < n={n}, got {k}")

    d2 = d * d
    b = -0.5 * (d2 - d2.mean(axis=0) - d2.mean(axis=1)[:, None] + d2.mean())
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]

    max_eig, most_negative = float(eigenvalues[0]), float(-eigenvalues[-1])
    neg_ratio = most_negative / max_eig if max_eig > 0 and most_negative > 0 else 0.0

    top = np.clip(eigenvalues[:k], 0.0, None)
    coordinates = _orient_axes(eigenvectors[:, :k] * np.sqrt(top)[None, :])

    return Embedding(
        coordinates=coordinates,
        eigenvalues=top,
        stress=_stress(coordinates, np.split(d, range(_DISTANCE_ROWS, n, _DISTANCE_ROWS))),
        negative_eigenvalue_ratio=neg_ratio,
    )


def principal_coordinates(vectors, k: int) -> Embedding:
    """Classical MDS of the points' Euclidean distances, from their thin SVD.

    For centred points X = U S V^T, the double-centred squared distances
    are B = X X^T = U S^2 U^T (Gower 1966), so the top-k coordinates are
    U[:, :k] * s[:k] and the eigenvalues s[:k]**2, with no n x n matrix.
    Columns past the rank of the points are zero. Axes follow classical_mds's
    sign convention, the stress is its relative Frobenius error, computed
    over row blocks, and the negative-eigenvalue ratio is 0: points always
    give a Euclidean metric.
    """
    points, _ = _as_points(vectors)
    coordinates, eigenvalues = _principal_axes(points, k)
    stress = _stress(coordinates, _distance_blocks(points))
    return Embedding(coordinates, eigenvalues, stress, negative_eigenvalue_ratio=0.0)


def _principal_axes(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """principal_coordinates' coordinates and eigenvalues, without its O(n^2 d) stress pass."""
    n = points.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"target dimension must satisfy 1 <= k < n={n}, got {k}")
    u, s, _ = np.linalg.svd(points - points.mean(axis=0), full_matrices=False)
    # Centring leaves round-off of order eps * |points|: no rank below that.
    rank = int(np.count_nonzero(s > max(points.shape) * np.finfo(float).eps * np.linalg.norm(points)))
    kept = min(k, rank)
    coordinates = np.zeros((n, k))
    coordinates[:, :kept] = u[:, :kept] * s[:kept]
    eigenvalues = np.zeros(k)
    eigenvalues[:kept] = s[:kept] ** 2
    return _orient_axes(coordinates), eigenvalues


def _orient_axes(coordinates: np.ndarray) -> np.ndarray:
    """Flip each axis in place so its largest-magnitude entry is positive."""
    for axis in range(coordinates.shape[1]):
        column = coordinates[:, axis]
        pivot = int(np.argmax(np.abs(column)))
        if column[pivot] < 0:
            coordinates[:, axis] = -column
    return coordinates


def _distance_blocks(points: np.ndarray):
    """Euclidean distances from each block of rows to every point, in row order."""
    for lo in range(0, points.shape[0], _DISTANCE_ROWS):
        deltas = points[lo : lo + _DISTANCE_ROWS, None, :] - points[None, :, :]
        yield np.sqrt((deltas * deltas).sum(axis=-1))


def _stress(coordinates: np.ndarray, given_rows) -> float:
    """Relative Frobenius error of the coordinates' distances against given ones.

    given_rows yields the given distances in row blocks of _DISTANCE_ROWS
    rows, as _distance_blocks does, so no n x n array is needed.
    """
    fitted2 = given2 = 0.0
    for fitted, given in zip(_distance_blocks(coordinates), given_rows):
        fitted2 += float(((fitted - given) ** 2).sum())
        given2 += float((given * given).sum())
    return math.sqrt(fitted2 / given2) if given2 > 0 else 0.0


def min_enclosing_ball(points, tol: float = DEFAULT_BALL_TOL, max_iter: int = 200_000) -> BoundingSphere:
    """Smallest sphere covering all points, certified to within tol of the optimum.

    Pairwise Frank-Wolfe on the dual (Lacoste-Julien and Jaggi, "On the
    Global Linear Convergence of Frank-Wolfe Optimization Variants", NeurIPS
    2015; the problem is Yildirim's, SIAM J. Optim. 2008). The points are
    first centred on their mean, and the mean is added back to the returned
    center, so a cluster whose radius is tiny next to its distance from the
    origin (mirror twins, symmetry orbits) keeps its digits. A convex
    weighting w of the points gives the center c = w @ p. For any center x,
    max_i |p_i - x|^2 >= w @ |p - x|^2 >= w @ |p - c|^2, so
    lower = sqrt(w @ |p - c|^2) is a certified lower bound on the optimal
    radius and upper = max_i |p_i - c| an upper one; computed from the
    distances themselves, the lower bound cannot cancel.

    Starting from two far-apart points, each step moves weight from one
    supporting point straight to the farthest point, with an exact line
    search; the supporting point is the one whose step raises the lower
    bound most. A step that moves all of its weight drops that point from
    the support.

    Iteration stops once upper - lower <= tol * upper. The reported radius
    is the exact covering radius of the final center, computed in centred
    coordinates, where every point lies inside it. Adding the mean back
    rounds the returned center, so about it the points are covered only up
    to np.linalg.norm(np.spacing(center)); for a tight cluster far from the
    origin that slack can exceed the radius. Deterministic given input
    order. Raises ArithmeticError, naming the point count, the iterations
    run and the gap reached, if the gap is still open after max_iter steps:
    no uncertified radius is returned.
    """
    pts, _ = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("at least one point is required")
    mean = pts.mean(axis=0)
    # Exact power-of-two scaling keeps squared distances from overflow and underflow.
    _, exponent = math.frexp(float(np.abs(pts - mean).max(initial=0.0)))
    pts = np.ldexp(pts - mean, -exponent)

    # Start from the midpoint of the point farthest from the mean and the
    # point farthest from that one.
    a = int(np.argmax((pts * pts).sum(axis=1)))
    from_a = ((pts - pts[a]) ** 2).sum(axis=1)
    b = int(np.argmax(from_a))
    if from_a[b] == 0.0:  # all points coincide
        return BoundingSphere(center=np.ldexp(pts[0], exponent) + mean, radius=0.0)
    weights = np.zeros(n)
    weights[a] = weights[b] = 0.5

    for iteration in range(max_iter + 1):
        center = weights @ pts
        dist2 = ((pts - center) ** 2).sum(axis=1)
        far = int(np.argmax(dist2))
        upper2 = float(dist2[far])
        lower2 = float(weights @ dist2)
        upper, lower = math.sqrt(upper2), math.sqrt(lower2)
        if upper - lower <= tol * upper:
            break
        if iteration == max_iter:
            raise ArithmeticError(
                f"minimum enclosing ball of {n} points not certified after {max_iter} "
                f"iterations: relative gap {(upper - lower) / upper:.3e} > tol {tol:g}"
            )
        support = np.flatnonzero(weights > 0)
        slope = upper2 - dist2[support]
        curvature = ((pts[support] - pts[far]) ** 2).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.fmin(weights[support], slope / (2.0 * curvature))
        best = int(np.argmax(steps * slope - steps * steps * curvature))
        step = float(steps[best])
        weights[support[best]] -= step  # exactly 0 when the step takes all of it
        weights[far] += step

    center = np.ldexp(center, exponent) + mean
    return BoundingSphere(center=center, radius=math.ldexp(upper, exponent))


def complexity_score(vectors) -> float:
    """Radius of the minimal enclosing sphere of the signatures.

    Comparative only: larger means more varied connection demands, and the
    value scales linearly with the applied loads.
    """
    return min_enclosing_ball(vectors).radius


def kmeans(vectors, k: int = DEFAULT_K, seed: int = 0) -> ClusterAssignment:
    """Seeded k-means over node signatures, best of several restarts.

    Each of _KMEANS_RESTARTS restarts draws k-means++ centers from its own
    deterministic stream, then runs Lloyd iterations to an assignment
    fixpoint; a restart still moving after _KMEANS_MAX_ITER iterations raises
    ArithmeticError. The restarts run together as one batch of array
    operations, with the same draws and the same arithmetic as one restart
    at a time. Lloyd skips all k distances of a point whose label cannot
    change, by Hamerly's lower bound on its distance to the other centres;
    the bound carries a slack for rounding, scaled by the points' magnitude,
    so labels and objective histories are plain Lloyd's bit for bit (see
    _lloyd). The run with the smallest within-cluster sum of squares wins,
    compared exactly, with no absolute tolerance that would favour early
    runs at small scales; ties keep the earliest run. Clusters are finally
    relabelled in order of increasing bounding-sphere radius (ties by
    smallest member node id), so label 0 is always the most uniform group.
    """
    points, node_ids = _as_points(vectors)
    n_distinct = np.unique(points, axis=0).shape[0]
    if not 1 <= k <= n_distinct:
        raise ValueError(f"k must satisfy 1 <= k <= {n_distinct} distinct vectors, got {k}")

    rngs = [np.random.default_rng((seed, run)) for run in range(_KMEANS_RESTARTS)]
    best: tuple[float, np.ndarray, tuple[float, ...]] | None = None
    for labels, history in _lloyd(points, k, _kmeans_plus_plus(points, k, rngs)):
        if best is None or history[-1] < best[0]:
            best = (history[-1], labels, history)
    inertia, labels, history = best

    spheres = [min_enclosing_ball(points[labels == label]) for label in range(k)]

    order = sorted(
        range(k),
        key=lambda label: (
            spheres[label].radius,
            min(node_ids[i] for i in np.flatnonzero(labels == label)),
        ),
    )
    remap = np.empty(k, dtype=int)
    remap[order] = np.arange(k)
    return ClusterAssignment(
        k=k,
        labels=remap[labels],
        node_ids=node_ids,
        spheres=tuple(spheres[label] for label in order),
        inertia=float(inertia),
        objective_history=history,
    )


def _lloyd(points: np.ndarray, k: int, centroids: np.ndarray) -> list[tuple[np.ndarray, tuple[float, ...]]]:
    """Lloyd iterations of every restart from its start in centroids, (runs, k, d).

    Returns each run's labels and objective history. A run leaves the batch
    once its labels stop changing; one still moving after _KMEANS_MAX_ITER
    iterations raises ArithmeticError, naming k, the run and the iterations.
    Distances are direct differences and centroids are sums in point order
    over counts, so every run gets the bits it would get alone.

    Each (run, point) keeps a lower bound on its distance to every centre
    but its own (Hamerly, "Making k-means even faster", SDM 2010). Every
    iteration computes each point's squared distance to its own centre, the
    value plain Lloyd's distance column holds. A point whose distance stays
    below its bound less a rounding slack keeps its label; only the others
    get all k distances, their argmin, and the second smallest as their new
    bound. When the centres move, every bound of a run drops by the run's
    largest centre shift, and a refill that empties a cluster voids the
    run's bounds. So labels and histories are plain Lloyd's, bit for bit.
    """
    n, dim = points.shape
    runs = centroids.shape[0]
    centroids = centroids.copy()
    labels = np.full((runs, n), -1)
    lower = np.full((runs, n), -np.inf)
    # The slack covers rounding, with u = eps / 2. Centres are means of points
    # or points, so every distance, shift and bound below is at most twice the
    # largest point norm; reach doubles that again for the means' rounding.
    # - A computed distance sqrt(sum((p - c)**2)) is within (d/2 + 2) u of
    #   the exact one, relative: d + 1 roundings in the sum, halved by the
    #   root, and the root's own. So a fresh bound exceeds the exact second
    #   distance by at most (d/2 + 2) u reach.
    # - An update subtracts shift + slack, where the computed shift may fall
    #   short by (d/2 + 2) u reach and the sum and difference round by
    #   u reach each: less than slack, so the excess never grows.
    # - The test's root and subtraction round by 2 u reach, and comparing the
    #   computed squares needs another (d/2 + 1) u reach of gap.
    # That totals (d + 5) u reach, below slack. A skipped point's other
    # distances thus compute strictly larger than its own, and argmin keeps
    # its label. The slack scales with the points, so ties and twins far
    # from the origin always get all k distances.
    reach = 4.0 * math.sqrt(float((points * points).sum(axis=1).max()))
    slack = (dim + 4) * np.finfo(float).eps * reach
    histories: list[list[float]] = [[] for _ in range(runs)]
    active = np.arange(runs)
    flat = centroids.reshape(runs * k, dim)  # a view: centre (run, label) is row run * k + label
    # Labels start at -1 and bounds at -inf, so the first iteration computes
    # all k distances of every point, and every run counts as moved.
    for _ in range(_KMEANS_MAX_ITER):
        own = _dist2_rows(flat[active[:, None] * k + labels[active]], points)
        batch, stale = np.nonzero(~(np.sqrt(own) < lower[active] - slack))
        run_of = active[batch]
        near = points[stale]
        dist2 = np.empty((stale.size, k))
        for label in range(k):
            dist2[:, label] = _dist2_rows(flat[run_of * k + label], near)
        nearest = np.argmin(dist2, axis=1)
        rows = np.arange(stale.size)
        own[batch, stale] = dist2[rows, nearest]
        dist2[rows, nearest] = np.inf
        lower[run_of, stale] = np.sqrt(dist2.min(axis=1))
        moved = run_of[nearest != labels[run_of, stale]]
        labels[run_of, stale] = nearest
        for run, value in zip(active, own.sum(axis=1).tolist()):
            histories[run].append(value)
        active = np.flatnonzero(np.bincount(moved, minlength=runs))
        if not active.size:
            break
        before = centroids[active]
        cluster = np.arange(active.size)[:, None] * k + labels[active]
        counts = np.bincount(cluster.ravel(), minlength=active.size * k).reshape(active.size, k)
        # Cluster sums accumulate in point order, as members.mean(axis=0) sums them.
        sums = np.empty((active.size, k, dim))
        for row, run in enumerate(active):
            cells = (labels[run, :, None] * dim + np.arange(dim)).ravel()
            sums[row] = np.bincount(cells, points.ravel(), k * dim).reshape(k, dim)
        # A run that empties a cluster is refilled on its own; so is every run
        # of one-column points, whose mean numpy sums pairwise, not in order.
        emptied = (counts == 0).any(axis=1)
        refill = emptied | (dim == 1)
        centroids[active[~refill]] = (sums / np.maximum(counts, 1)[:, :, None])[~refill]
        for run in active[refill]:
            _refill(points, labels[run], centroids[run])
        shift = np.sqrt(_dist2_rows(before, centroids[active])).max(axis=1)
        lower[active] -= (shift + slack)[:, None]
        lower[active[emptied]] = -np.inf  # the refill moved labels without distances
    else:
        raise ArithmeticError(
            f"k-means with k={k} not converged: run {active[0]} still moving "
            f"after {_KMEANS_MAX_ITER} Lloyd iterations"
        )
    return [(labels[run], tuple(histories[run])) for run in range(runs)]


def _dist2_rows(centres: np.ndarray, points: np.ndarray) -> np.ndarray:
    """((points - centres) ** 2).sum(axis=-1) to the bit, reusing centres' storage for the differences."""
    centres -= points  # the negated differences, which square to the same bits
    centres *= centres
    return centres.sum(axis=-1)


def _refill(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> None:
    """One run's centroids in place, label by label; an emptied cluster takes the worst-fit point."""
    for label in range(centroids.shape[0]):
        members = points[labels == label]
        if len(members):
            centroids[label] = members.mean(axis=0)
        else:
            residual = ((points - centroids[labels]) ** 2).sum(axis=1)
            stray = int(np.argmax(residual))
            centroids[label] = points[stray]
            labels[stray] = label


def _kmeans_plus_plus(points: np.ndarray, k: int, rngs) -> np.ndarray:
    """k-means++ starts, (len(rngs), k, d): one run per stream, each next center picked for all at once."""
    n = points.shape[0]
    chosen = np.empty((len(rngs), k), dtype=int)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    # random(k - 1) is the same stream as k - 1 calls of random().
    targets = np.array([rng.random(k - 1) for rng in rngs])
    dist2 = ((points - points[chosen[:, :1]]) ** 2).sum(axis=-1)
    for step in range(1, k):
        total = dist2.sum(axis=1)
        if (total <= 0).any():
            raise ValueError("fewer distinct vectors than requested clusters")
        # The first index whose cumulative sum reaches the target, as searchsorted finds it.
        reached = np.cumsum(dist2, axis=1) < (targets[:, step - 1] * total)[:, None]
        chosen[:, step] = np.minimum(reached.sum(axis=1), n - 1)
        dist2 = np.minimum(dist2, ((points - points[chosen[:, step : step + 1]]) ** 2).sum(axis=-1))
    return points[chosen]
