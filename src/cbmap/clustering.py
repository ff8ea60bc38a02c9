"""K-means clustering with k-means++ seeding.

Two drivers share the seeding and assignment code: a full-batch Lloyd loop
for small inputs and a mini-batch loop (per-center counts, learning rate
1/count) for large ones. Both are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg_core import as_data_matrix, check_seed, euclidean_distance_matrix, row_blocks

# kmeans_fit keeps the best of N_INIT Lloyd runs below FULL_BATCH_LIMIT rows,
# and from there on runs mini-batches of BATCH_SIZE rows.
FULL_BATCH_LIMIT = 5000
BATCH_SIZE = 1024
N_INIT = 3

# assign_labels takes its distances from one matrix product from this many
# columns on, where it was at least as fast at every size measured. Narrower
# inputs keep the exact kernel: with 2 BLAS threads, the threads the product
# wakes slowed the descent after k-means (5000-row roll fit 0.65-0.84 s against
# 0.63-0.71 s, medians of six 5-fit rounds); with 1 thread the two were even.
_EXPANDED_MIN_D = 8


@dataclass(frozen=True)
class KmeansConfig:
    """Clustering parameters; ``max_iters`` caps each Lloyd run's passes or the mini-batches."""

    k: int
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        check_seed(self.seed)


@dataclass(frozen=True)
class ClusterAssignment:
    centers: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,) ints in [0, k)
    inertia: float  # sum of squared distances to assigned centers


def assign_labels(x, centers) -> np.ndarray:
    """Index of the nearest center per row; ties go to the smallest index.

    The labels are exactly ``np.argmin(euclidean_distance_matrix(x, centers),
    axis=1)``. Below ``_EXPANDED_MIN_D`` columns they are computed that way.
    From there on the squared distances come from the expanded form
    ``s = |x|^2 - 2 x c^T + |c|^2``, one matrix product, and each row keeps
    the argmin of ``s`` when its two smallest values differ by more than

        8 (d + 4) eps (|x_i|^2 + max_j |c_j|^2 + tiny).

    With ``N = |x_i|^2 + max_j |c_j|^2``, each ``s`` is within
    ``(d + 2) eps N`` of the true squared distance and each exact squared
    distance within ``(d + 3) eps N``, and two square roots can round equal
    only when their squares differ by under ``4 eps N``; the bound is over
    twice the sum of all four errors and that gap, so a row outside it has
    the same nearest center on both paths and no tie there. ``tiny``, the
    smallest normal float64, covers underflow. Every other row, including a
    row whose ``s`` is not finite, is recomputed through
    :func:`euclidean_distance_matrix`.
    """
    if np.ndim(x) != 2 or np.shape(x)[1] < _EXPANDED_MIN_D:
        return np.argmin(euclidean_distance_matrix(x, centers), axis=1)
    # named as the exact kernel names them, so errors read alike on both paths
    x = as_data_matrix(x, "a")
    centers = as_data_matrix(centers, "b")
    d = x.shape[1]
    if centers.shape[1] != d:
        return np.argmin(euclidean_distance_matrix(x, centers), axis=1)  # raises the mismatch
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = np.einsum("ij,ij->i", x, x)
        c_sq = np.einsum("ij,ij->i", centers, centers)
        s = x @ centers.T
        s *= -2.0
        s += x_sq[:, None]
        s += c_sq
        labels = np.argmin(s, axis=1)
        rows = np.arange(x.shape[0])
        best = s[rows, labels]
        s[rows, labels] = np.inf
        gap = s.min(axis=1) - best
        bound = 8 * (d + 4) * np.finfo(np.float64).eps * (
            x_sq + c_sq.max() + np.finfo(np.float64).tiny)
        near = np.flatnonzero(~(gap > bound))
    if near.size:
        labels[near] = np.argmin(euclidean_distance_matrix(x[near], centers), axis=1)
    return labels


def kmeans_fit(x, cfg: KmeansConfig) -> ClusterAssignment:
    """Cluster ``x`` into ``cfg.k`` groups.

    Parameters
    ----------
    x : (n, d) data matrix.
    cfg : KmeansConfig with k <= n.

    Returns
    -------
    ClusterAssignment whose centers, labels and inertia are reproducible
    byte-for-byte for a fixed seed, config and input. Inputs below
    ``FULL_BATCH_LIMIT`` rows run Lloyd, larger ones the mini-batch driver.
    """
    x = as_data_matrix(x, "x")
    n = x.shape[0]
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds the number of points n={n}")
    rng = np.random.default_rng(cfg.seed)
    if n < FULL_BATCH_LIMIT:
        runs = (_lloyd_once(x, cfg.k, cfg.max_iters, rng) for _ in range(N_INIT))
        centers, labels, inertia = min(runs, key=lambda run: run[2])  # first of equals
    else:
        centers, labels, inertia = _minibatch(x, cfg.k, cfg.max_iters, rng)
    return ClusterAssignment(centers=centers, labels=labels.astype(np.int64), inertia=inertia)


def _kmeans_plusplus(x, k, rng):
    """Seed centers at data points, weighting draws by squared distance to the
    nearest center chosen so far."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    closest_sq = np.full(n, np.inf)
    for j in range(1, k):
        # only the draw of a next center needs the distance to the last one
        new_sq = euclidean_distance_matrix(x, centers[j - 1 : j])[:, 0] ** 2
        np.minimum(closest_sq, new_sq, out=closest_sq)
        total = closest_sq.sum()
        if not np.isfinite(total):
            raise ValueError("squared distances overflow float64; rescale the input")
        if total > 0:
            idx = int(rng.choice(n, p=closest_sq / total))
        else:
            # every remaining point coincides with an existing center
            idx = int(rng.integers(n))
        centers[j] = x[idx]
    return centers


def update_centers(x, labels, previous) -> np.ndarray:
    """Mean of the rows of ``x`` per label; a label with no rows keeps its ``previous`` center."""
    centers = previous.copy()
    counts = np.bincount(labels, minlength=len(previous))
    occupied = counts > 0
    if x.shape[1] > len(previous):
        # Adds each label's rows in order from 0.0, as bincount does: the same
        # bits. The rows come a block at a time, each block under the running
        # sum, which adds to 0.0 exactly, so no label's rows are copied whole.
        for j in np.flatnonzero(occupied):
            members = np.flatnonzero(labels == j)
            blocks = row_blocks(members.size, x.shape[1])
            total = x[members[next(blocks)]].sum(axis=0, initial=0.0)
            for rows in blocks:
                total = np.vstack((total, x[members[rows]])).sum(axis=0, initial=0.0)
            centers[j] = total / counts[j]
        return centers
    for col in range(x.shape[1]):
        sums = np.bincount(labels, weights=x[:, col], minlength=len(previous))
        centers[occupied, col] = sums[occupied] / counts[occupied]
    return centers


def _reseed_empty(x, centers):
    """Assign every row to its nearest center, then move each empty center
    onto the point farthest from its assigned center; returns ``(centers, labels)``.

    Reassigns after every move so at most k passes are needed; gives up when
    every point already sits exactly on a center.
    """
    k = centers.shape[0]
    labels = assign_labels(x, centers)
    for _ in range(k + 1):
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        dist_to_own = np.empty(x.shape[0])
        for rows in row_blocks(x.shape[0], x.shape[1]):
            dist_to_own[rows] = np.linalg.norm(x[rows] - centers[labels[rows]], axis=1)
        far = int(np.argmax(dist_to_own))
        if dist_to_own[far] <= 0:
            break
        centers = centers.copy()
        centers[empty[0]] = x[far]
        labels = assign_labels(x, centers)
    return centers, labels


def _inertia(x, centers, labels):
    """Sum of squared distances to the assigned centers.

    Each row's squared distance is formed in cache-sized blocks of rows, and
    the (n,) result is summed once, so the value does not depend on the
    block size."""
    per_row = np.empty(x.shape[0])
    for rows in row_blocks(x.shape[0], x.shape[1]):
        diff = centers[labels[rows]]
        diff -= x[rows]
        np.einsum("ij,ij->i", diff, diff, out=per_row[rows])
    return float(per_row.sum())


def _lloyd_once(x, k, max_iters, rng):
    centers, labels = _reseed_empty(x, _kmeans_plusplus(x, k, rng))
    for _ in range(max_iters):
        centers, new_labels = _reseed_empty(x, update_centers(x, labels, centers))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels, _inertia(x, centers, labels)


def _minibatch(x, k, max_iters, rng):
    n = x.shape[0]
    centers = _kmeans_plusplus(x, k, rng)
    counts = np.zeros(k)
    b = min(BATCH_SIZE, n)
    for _ in range(max_iters):
        batch = x[rng.choice(n, size=b, replace=False)]
        batch_labels = assign_labels(batch, centers)
        means = update_centers(batch, batch_labels, centers)
        sizes = np.bincount(batch_labels, minlength=k)
        counts += sizes
        hit = sizes > 0  # update only these: adding 0.0 would turn a -0.0 into +0.0
        eta = (sizes[hit] / counts[hit])[:, None]
        centers[hit] = (1.0 - eta) * centers[hit] + eta * means[hit]
    centers, labels = _reseed_empty(x, centers)
    return centers, labels, _inertia(x, centers, labels)
