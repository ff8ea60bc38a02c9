"""K-means clustering with k-means++ seeding.

Two drivers share the seeding and assignment code: a full-batch Lloyd loop
for small inputs and a mini-batch loop (per-center counts, learning rate
1/count) for large ones. Both are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg_core import (
    _ufunc_buffer,
    as_data_matrix,
    check_count,
    euclidean_distance_matrix,
    row_blocks,
)

# kmeans_fit keeps the best of N_INIT Lloyd runs below FULL_BATCH_LIMIT rows,
# and from there on runs mini-batches of BATCH_SIZE rows.
FULL_BATCH_LIMIT = 5000
BATCH_SIZE = 1024
N_INIT = 3

# From this many columns on, k-means' and embedder's point-to-center distances take
# matrix products (_settled_sq_distances). Narrower inputs keep the exact kernel: with
# 2 BLAS threads, the threads a product wakes slowed the descent after k-means
# (5000-row roll fit 0.65-0.84 s against 0.63-0.71 s).
_EXPANDED_MIN_D = 8
_EXPANDED_RTOL = 1e-9
# assign_labels takes this many rows at a time (a row's argmin is its own), as fit descends
_ASSIGN_ROWS = 2048


@dataclass(frozen=True)
class KmeansConfig:
    """Clustering parameters; ``max_iters`` caps each Lloyd run's passes or the mini-batches."""

    k: int
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        check_count(self.k, "k", 1)
        check_count(self.max_iters, "max_iters", 1)
        check_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class ClusterAssignment:
    centers: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,) ints in [0, k)
    inertia: float  # sum of squared distances to assigned centers


def assign_labels(x, centers) -> np.ndarray:
    """Index of the nearest center per row; ties go to the smallest index.

    The labels are exactly ``np.argmin(euclidean_distance_matrix(x, centers), axis=1)``,
    from ``_EXPANDED_MIN_D`` columns on by way of :func:`_settled_sq_distances`.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] <= _ASSIGN_ROWS:
        return _assign_block(x, centers)
    shape = np.shape(centers)
    if len(shape) == 2 and shape[1] != x.shape[1]:  # the input's shape, not a block's
        raise ValueError(f"column mismatch: a has shape {x.shape}, b has shape {shape}")
    return np.concatenate([_assign_block(x[start:start + _ASSIGN_ROWS], centers)
                           for start in range(0, x.shape[0], _ASSIGN_ROWS)])


def _assign_block(x, centers) -> np.ndarray:
    if np.ndim(x) == 2 and np.shape(x)[1] >= _EXPANDED_MIN_D:
        # checked as the exact kernel checks them, so errors read alike on both paths
        x, centers = as_data_matrix(x, "a"), as_data_matrix(centers, "b")
        if centers.shape[1] == x.shape[1]:  # else the exact kernel raises the mismatch
            return np.argmin(_settled_sq_distances(x, centers, nearest_only=True), axis=1)
    return np.argmin(euclidean_distance_matrix(x, centers), axis=1)


def _settled_sq_distances(x, centers, x_sq=None, nearest_only=False):
    """The (n, k) squared distances from the checked rows of ``x`` to ``centers``, or
    None below ``_EXPANDED_MIN_D`` columns, where the caller takes the exact kernel.

    One matrix product gives them (``x_sq`` may give the ``|x_i|^2``) within
    ``e = (d + 2) eps N``, ``N = |x_i|^2 + max_j |c_j|^2 + tiny`` (the norms and the
    product each err by at most ``(d - 1) eps N / 2``, the additions by ``2 eps N``).
    The exact kernel recomputes, a row block at a time, each row whose ``e`` exceeds
    ``_EXPANDED_RTOL`` times its smallest value, or whose smallest value is not below
    ``1 - 4 _EXPANDED_RTOL`` times the next, so the values are within ``_EXPANDED_RTOL``
    and each row's nearest center is the exact kernel's. With ``nearest_only`` only the
    argmin of each row is meant: the exact kernel recomputes each row whose two smallest
    values differ by at most ``8 (d + 4) eps N``, twice the sum of both paths' errors (the
    exact kernel's is ``(d + 3) eps N``) and of the ``4 eps N`` within which squares can
    share a square root, and its distances, not their squares, stand in those rows.
    """
    d = x.shape[1]
    if d < _EXPANDED_MIN_D:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = np.einsum("ij,ij->i", x, x) if x_sq is None else x_sq
        c_sq = np.einsum("ij,ij->i", centers, centers)
        sq = x @ centers.T
        sq *= -2.0
        sq += x_sq[:, None]
        sq += c_sq
        err = (d + 2) * np.finfo(float).eps * (x_sq + c_sq.max() + np.finfo(float).tiny)
        # a row's two smallest values; with one center nothing comes next
        first, second = (np.partition(sq, 1, axis=1)[:, :2].T if len(centers) > 1
                         else (sq[:, 0], np.inf))
        if nearest_only:
            settled = second - first > 8 * (d + 4) / (d + 2) * err
        else:
            settled = ((err <= _EXPANDED_RTOL * first)
                       & (first < (1 - 4 * _EXPANDED_RTOL) * second))
    near = np.flatnonzero(~settled)
    for rows in (near[part] for part in row_blocks(near.size, d)):  # blocks, no copy of x
        sq[rows] = euclidean_distance_matrix(x[rows], centers, squared=not nearest_only)
    return sq


@_ufunc_buffer
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
    nearest center chosen so far; wide inputs take one matrix-vector product per draw."""
    n, d = x.shape
    centers = np.empty((k, d))
    centers[0] = x[int(rng.integers(n))]
    closest_sq = np.full(n, np.inf)
    x_sq = np.einsum("ij,ij->i", x, x)
    for j in range(1, k):
        # only the draw of a next center needs the distance to the last one
        last = centers[j - 1 : j]
        new_sq = _settled_sq_distances(x, last, x_sq)
        new_sq = euclidean_distance_matrix(x, last)[:, 0] ** 2 if new_sq is None else new_sq[:, 0]
        np.minimum(closest_sq, new_sq, out=closest_sq)
        with np.errstate(over="ignore"):  # finite squares whose sum overflows
            total = closest_sq.sum()
        if not np.isfinite(total):
            raise ValueError("the input x is too large in scale: its squared distances overflow "
                             "float64; rescale it (cbmap fit --standardize does)")
        if total > 0:
            idx = int(rng.choice(n, p=closest_sq / total))
        else:
            # every remaining point coincides with an existing center
            idx = int(rng.integers(n))
        centers[j] = x[idx]
    return centers


def update_centers(x, labels, previous) -> np.ndarray:
    """Mean of the rows of ``x`` per label; a label with no rows keeps its ``previous`` center."""
    k, d = len(previous), x.shape[1]
    centers = previous.copy()
    counts = np.bincount(labels, minlength=k)
    occupied = counts > 0
    if d > k:
        # one-hot products per row block (2000 rows at once gave other bits on 2 BLAS threads)
        sums = np.zeros((k, d))
        for rows in row_blocks(*x.shape):
            sums += (np.arange(k)[:, None] == labels[rows]).astype(np.float64) @ x[rows]
        centers[occupied] = sums[occupied] / counts[occupied, None]
        return centers
    for col in range(d):
        sums = np.bincount(labels, weights=x[:, col], minlength=k)
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
