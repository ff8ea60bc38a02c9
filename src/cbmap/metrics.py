"""Embedding-quality metrics.

The global score compares how well an affine map recovers the original data
from the embedding against the same measure for a PCA embedding of equal
dimension (PCA scores exactly 1 by construction). kNN accuracy measures label
preservation with a small stratified holdout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg_core import (
    _ufunc_buffer,
    as_data_matrix,
    check_count,
    euclidean_distance_matrix,
    pca_fit,
    row_blocks,
)

# Test points per kNN block are chosen so that a block's test-by-candidate
# distances stay at most this many float64 elements (512 KB); the argmin
# passes that pick the neighbors add only per-row arrays. On 1200 training
# rows kNN accuracy took as long with 512 KB blocks as with 2 MB ones
# (medians of 41, 2.4 ms), and 12 % longer with 256 KB ones, which pay each
# block's fixed cost more often.
_KNN_BLOCK_ELEMS = 65_536
# The exact kNN search grids at most this many embedding columns, into tiles
# of about _KNN_TILE_ROWS training rows, and only with at least _KNN_MIN_TILES
# tiles per gridded column: on two columns that is 1600 training rows. Below
# that the all-pairs scan takes a few milliseconds and a grid gains little.
_KNN_GRID_COLS = 3
_KNN_TILE_ROWS = 64
_KNN_MIN_TILES = 5
# A row keeps its within-region neighbors only if its k-th distance lies below
# its distance to the region's edge shrunk by this relative margin, which
# covers the rounding of both; an edge distance below _KNN_MIN_EDGE is never
# trusted, since squares that small leave float64's normal range.
_KNN_EDGE_MARGIN = 1e-9
_KNN_MIN_EDGE = 1e-150
_FLOAT_MAX = np.finfo(np.float64).max


@dataclass(frozen=True)
class HoldoutSpec:
    """Stratified train/test split parameters for the kNN metric."""

    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        check_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class MetricReport:
    global_score: float
    knn_accuracy: float | None


def _column_basis(a) -> np.ndarray:
    """Orthonormal basis of the column space of ``a``, from its thin SVD.

    Singular values at or below ``lstsq``'s default cutoff are dropped, so a
    rank-deficient embedding loses its null directions as ``lstsq`` does.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > np.finfo(np.float64).eps * max(a.shape) * s[0]]


def _reconstruction_errors(x, mean, bases) -> list:
    """Per (n, r) orthonormal basis ``u``, the Frobenius norm of the residual
    ``xc - u uᵀxc`` of the centred data ``xc = x - mean``.

    One pass over cache-sized blocks of rows sums every ``uᵀxc``, a second
    forms each block's residuals explicitly and sums their squares: subtracting
    ``|uᵀxc|²`` from ``|xc|²`` would cancel for data the basis nearly spans.
    """
    projections = [np.zeros((u.shape[1], x.shape[1])) for u in bases]
    for rows in row_blocks(*x.shape):
        xc = x[rows] - mean
        for u, p in zip(bases, projections):
            p += u[rows].T @ xc
    squares = [0.0] * len(bases)
    for rows in row_blocks(*x.shape):
        xc = x[rows] - mean
        for i, (u, p) in enumerate(zip(bases, projections)):
            residual = u[rows] @ p
            np.subtract(xc, residual, out=residual)
            squares[i] += np.einsum("ij,ij->", residual, residual)
    return [float(np.sqrt(sq)) for sq in squares]


@_ufunc_buffer
def global_score(x, y) -> float:
    """How much global structure the embedding keeps, relative to PCA.

    Both matrices are column-centered; the score is
    exp(-(mre(y) - mre_pca) / mre_pca) where mre is the minimum Frobenius
    reconstruction error over affine maps from the embedding back to the
    data. A PCA embedding of the same width scores exactly 1, and no
    embedding can beat it, so scores lie in (0, 1].

    The centred data is formed only in cache-sized blocks of rows, in three
    passes: one for the PCA scores, one for both projections and one for
    both residuals.
    """
    x = as_data_matrix(x, "x")
    y = as_data_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: x has {x.shape[0]} rows, y has {y.shape[0]}")
    if y.shape[1] >= x.shape[1]:
        raise ValueError(
            f"embedding width {y.shape[1]} must be smaller than the data width {x.shape[1]}"
        )
    pca = pca_fit(x, y.shape[1])
    scores = np.empty(y.shape)
    x_sq = 0.0
    for rows in row_blocks(*x.shape):
        xc = x[rows] - pca.mean
        np.matmul(xc, pca.components.T, out=scores[rows])
        x_sq += np.einsum("ij,ij->", xc, xc)
    mre_pca, mre_y = _reconstruction_errors(
        x, pca.mean, [_column_basis(scores - scores.mean(axis=0)),
                      _column_basis(y - y.mean(axis=0))])
    # rank-deficient data leaves only rounding residue, never an exact zero
    if mre_pca <= 1e-12 * max(np.sqrt(x_sq), 1.0):
        raise ValueError(
            "data is perfectly reconstructed by PCA at this width (rank <= embedding "
            "dimension); reduce the embedding dimension to get a meaningful score"
        )
    return float(np.exp(-(mre_y - mre_pca) / mre_pca))


def _stratified_split(labels, split: HoldoutSpec):
    """Train and test positions, each sorted, drawn per class in label order.

    One stable argsort of the labels lists every class's members in
    ascending position, as a scan for each class would."""
    rng = np.random.default_rng(split.seed)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    train, test = [], []
    for idx in np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1):
        if idx.size < 2:
            raise ValueError(
                f"class {labels[idx[0]]} has only {idx.size} member(s); "
                "need at least 2 for a stratified split"
            )
        perm = rng.permutation(idx)
        n_test = int(round(split.test_fraction * idx.size))
        n_test = min(max(n_test, 1), idx.size - 1)
        test.append(perm[:n_test])
        train.append(perm[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def _nearest_neighbors(dist, k: int):
    """Column indices of the ``k`` smallest entries of each row of ``dist``
    (which it overwrites), as the first ``k`` columns of a stable argsort, and
    the ``k``-th of those entries. Each argmin pass takes a row's first
    smallest entry and masks it with +inf, above the largest float to which
    overflowed distances are clamped first (a finite one is at most its root).
    """
    np.minimum(dist, _FLOAT_MAX, out=dist)
    rows = np.arange(dist.shape[0])
    nearest = np.empty((dist.shape[0], k), dtype=np.intp)
    for j in range(k):
        nearest[:, j] = col = dist.argmin(axis=1)
        kth = dist[rows, col]
        dist[rows, col] = np.inf
    return nearest, kth


def _majority_vote(neighbor_labels) -> np.ndarray:
    """Per row, the label most of the neighbors carry; on a vote tie, the nearest one's."""
    # tally[i, j]: how many of row i's neighbors share neighbor j's label
    tally = np.count_nonzero(neighbor_labels[:, :, None] == neighbor_labels[:, None, :], axis=2)
    top = tally.max(axis=1)
    n_winners = np.count_nonzero(tally == top[:, None], axis=1) // top
    rows = np.arange(neighbor_labels.shape[0])
    return np.where(n_winners == 1, neighbor_labels[rows, tally.argmax(axis=1)],
                    neighbor_labels[:, 0])


def _tiles_per_column(n_train: int, cols: int) -> int:
    """Grid tiles along each gridded column for ``n_train`` training rows.

    A query row searches its own tile and the adjacent ones, so a grid of few
    tiles per column would scan most rows anyway and pay a loop pass per tile:
    below ``_KNN_MIN_TILES`` the grid is one tile, the all-pairs scan.
    """
    g = int((n_train / _KNN_TILE_ROWS) ** (1.0 / cols))
    return g if g >= _KNN_MIN_TILES else 1


def _slab_bounds(coords, slabs, g: int):
    """Per slab index s = 0..g, the smallest coordinate in slabs >= s and the
    largest in slabs < s; infinite where those slabs hold no row."""
    above = np.full(g + 1, np.inf)
    np.minimum.at(above, slabs, coords)
    below = np.full(g + 1, -np.inf)
    np.maximum.at(below[1:], slabs, coords)
    return np.minimum.accumulate(above[::-1])[::-1], np.maximum.accumulate(below)


def _neighbor_blocks(train, queries, k: int):
    """Yield ``(rows, nearest)`` blocks that together cover every row of ``queries``.

    ``nearest`` holds the positions in ``train`` of the ``k`` nearest training
    rows of each query row in ``rows``, exactly as :func:`_nearest_neighbors`
    orders them over the distances to all of ``train``.

    The training rows are binned into a uniform grid over their first
    ``_KNN_GRID_COLS`` columns. Each tile of query rows is compared only with
    the training rows of that tile and the adjacent ones, taken in training
    order, so ties still go to the lower index. A query row keeps that result
    when its k-th distance lies below its distance to the nearest edge of the
    gathered region that has training rows beyond it, shrunk by a relative
    rounding margin. Every other row, and every row when the grid is one tile,
    is compared with all of ``train``. The distance kernel works entrywise, and
    sums one column at a time whenever there are more candidate rows than
    columns, so every distance is bit-identical to the all-pairs one; a tile
    with too few candidates for that goes to the whole set too. Each block
    stays within ``_KNN_BLOCK_ELEMS`` distances.
    """
    n, m = train.shape
    cols = min(m, _KNN_GRID_COLS)
    g = _tiles_per_column(n, cols)
    rest = ((yield from _grid_blocks(train, queries, k, (g,) * cols)) if g > 1
            else np.arange(queries.shape[0]))
    step = max(1, _KNN_BLOCK_ELEMS // n)
    for start in range(0, rest.size, step):
        block = rest[start:start + step]
        yield block, _nearest_neighbors(euclidean_distance_matrix(queries[block], train), k)[0]


def _grid_blocks(train, queries, k: int, shape: tuple):
    """The grid pass of :func:`_neighbor_blocks` over tiles of the given shape.

    Yields ``(rows, nearest)`` for the query rows whose neighbors lie within
    their region, and returns the positions of all other query rows.
    """
    cols, g = len(shape), shape[0]
    lo, hi = train[:, :cols].min(axis=0), train[:, :cols].max(axis=0)
    frac = np.arange(1, g) / g
    edges = lo[:, None] * (1 - frac) + hi[:, None] * frac  # (cols, g - 1), cannot overflow
    train_slabs = np.stack([np.searchsorted(edges[c], train[:, c], side="right")
                            for c in range(cols)])
    query_slabs = np.stack([np.searchsorted(edges[c], queries[:, c], side="right")
                            for c in range(cols)])
    # training positions ordered by tile, then by position; tile t holds
    # order[tile_start[t]:tile_start[t + 1]]
    train_tile = np.ravel_multi_index(train_slabs, shape)
    order = np.argsort(train_tile, kind="stable")
    tile_start = np.searchsorted(train_tile[order], np.arange(g ** cols + 1))

    # a query row's region spans slabs first..last in each column; no training
    # row outside it is nearer than the region's nearest edge with rows beyond,
    # and an overflowed (clamped) k-th distance never lies below that edge
    first = np.maximum(query_slabs - 1, 0)
    last = np.minimum(query_slabs + 1, g - 1)
    edge = np.full(queries.shape[0], _FLOAT_MAX)
    with np.errstate(over="ignore"):
        for c in range(cols):
            above, below = _slab_bounds(train[:, c], train_slabs[c], g)
            np.minimum(edge, above[last[c] + 1] - queries[:, c], out=edge)
            np.minimum(edge, queries[:, c] - below[first[c]], out=edge)
    edge *= 1 - _KNN_EDGE_MARGIN

    query_tile = np.ravel_multi_index(query_slabs, shape)
    query_order = np.argsort(query_tile, kind="stable")
    rest = []
    for rows in np.split(query_order, np.flatnonzero(np.diff(query_tile[query_order])) + 1):
        lo_t, hi_t = first[:, rows[0]], last[:, rows[0]]
        # the region's tiles form one run along the last column per slab of the others
        runs = [np.ravel_multi_index(lead + (lo_t[-1],), shape) for lead in
                itertools.product(*(range(a, b + 1) for a, b in zip(lo_t[:-1], hi_t[:-1])))]
        width = hi_t[-1] - lo_t[-1] + 1
        cand = np.sort(np.concatenate([order[tile_start[r]:tile_start[r + width]] for r in runs]))
        if cand.size < k or cand.size <= train.shape[1]:
            rest.append(rows)
            continue
        points = train[cand]
        step = max(1, _KNN_BLOCK_ELEMS // cand.size)
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            nearest, kth = _nearest_neighbors(euclidean_distance_matrix(queries[block], points), k)
            kept = np.maximum(kth, _KNN_MIN_EDGE) < edge[block]
            if kept.any():
                yield block[kept], cand[nearest[kept]]
            rest.append(block[~kept])
    return np.concatenate(rest)


@_ufunc_buffer
def knn_accuracy(y, labels, k: int = 3, split: HoldoutSpec | None = None) -> float:
    """Label accuracy of a k-nearest-neighbor vote on a stratified holdout.

    The embedding is split per class (default 80/20, fixed seed); each test
    point is classified by majority vote over its k nearest training points
    (ordered by distance, then by training index), with vote ties broken by
    the single nearest neighbor's label. The neighbors are found exactly, by
    a grid search over the embedding's columns (see :func:`_neighbor_blocks`),
    in blocks, so memory stays bounded whatever the number of test points.
    """
    y = as_data_matrix(y, "y")
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.shape[0] != y.shape[0]:
        raise ValueError(f"labels length {labels.shape[0]} does not match {y.shape[0]} rows")
    if labels.dtype.kind in "fcO" and np.any(labels != labels):
        raise ValueError("labels contain NaN")
    check_count(k, "k", 1)
    if y.shape[0] < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, got {y.shape[0]}")
    split = split or HoldoutSpec()
    train_idx, test_idx = _stratified_split(labels, split)
    train_labels, test_labels = labels[train_idx], labels[test_idx]
    correct = 0
    for rows, nearest in _neighbor_blocks(y[train_idx], y[test_idx], min(k, train_idx.size)):
        correct += int(np.count_nonzero(_majority_vote(train_labels[nearest]) == test_labels[rows]))
    return correct / test_idx.size


@_ufunc_buffer
def evaluate(x, y, labels=None) -> MetricReport:
    """Bundle the global score (always) and kNN accuracy (when labels exist)."""
    acc = None if labels is None else knn_accuracy(y, labels)
    return MetricReport(global_score=global_score(x, y), knn_accuracy=acc)
