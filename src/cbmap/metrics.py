"""Embedding-quality metrics.

The global score compares how well an affine map recovers the original data
from the embedding against the same measure for a PCA embedding of equal
dimension (PCA scores exactly 1 by construction). kNN accuracy measures label
preservation with a small stratified holdout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg_core import (as_data_matrix, check_seed, euclidean_distance_matrix, pca_fit,
                          pca_transform)

# Test points per kNN block are chosen so that a block's test-by-train
# distances stay at most this many float64 elements (2 MB).
_KNN_BLOCK_ELEMS = 262_144


@dataclass(frozen=True)
class HoldoutSpec:
    """Stratified train/test split parameters for the kNN metric."""

    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        check_seed(self.seed)


@dataclass(frozen=True)
class MetricReport:
    global_score: float
    knn_accuracy: float | None


def _min_reconstruction_error(x_centered, y_centered) -> float:
    """Frobenius norm of the least-squares residual mapping y back onto x."""
    coeffs, *_ = np.linalg.lstsq(y_centered, x_centered, rcond=None)
    residual = x_centered - y_centered @ coeffs
    return float(np.sqrt(np.sum(residual * residual)))


def global_score(x, y) -> float:
    """How much global structure the embedding keeps, relative to PCA.

    Both matrices are column-centered; the score is
    exp(-(mre(y) - mre_pca) / mre_pca) where mre is the minimum Frobenius
    reconstruction error over affine maps from the embedding back to the
    data. A PCA embedding of the same width scores exactly 1, and no
    embedding can beat it, so scores lie in (0, 1].
    """
    x = as_data_matrix(x, "x")
    y = as_data_matrix(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: x has {x.shape[0]} rows, y has {y.shape[0]}")
    if y.shape[1] >= x.shape[1]:
        raise ValueError(
            f"embedding width {y.shape[1]} must be smaller than the data width {x.shape[1]}"
        )
    x_centered = x - x.mean(axis=0)
    pca_embedding = pca_transform(pca_fit(x, y.shape[1]), x)
    mre_pca = _min_reconstruction_error(x_centered, pca_embedding - pca_embedding.mean(axis=0))
    # rank-deficient data leaves only rounding residue, never an exact zero
    if mre_pca <= 1e-12 * max(np.linalg.norm(x_centered), 1.0):
        raise ValueError(
            "data is perfectly reconstructed by PCA at this width (rank <= embedding "
            "dimension); reduce the embedding dimension to get a meaningful score"
        )
    mre_y = _min_reconstruction_error(x_centered, y - y.mean(axis=0))
    return float(np.exp(-(mre_y - mre_pca) / mre_pca))


def _stratified_split(labels, split: HoldoutSpec):
    rng = np.random.default_rng(split.seed)
    train, test = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            raise ValueError(
                f"class {c} has only {idx.size} member(s); need at least 2 for a stratified split"
            )
        perm = rng.permutation(idx)
        n_test = int(round(split.test_fraction * idx.size))
        n_test = min(max(n_test, 1), idx.size - 1)
        test.append(perm[:n_test])
        train.append(perm[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def _nearest_neighbors(dist, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest entries of each row of ``dist``.

    They are ordered by distance and then by index, exactly as the first
    ``k`` columns of a stable argsort. ``argpartition`` picks them; a row
    whose k-th distance is tied with a further column falls back to the
    stable argsort, since the partition may keep any of the tied columns.
    """
    part = np.argpartition(dist, k - 1, axis=1)[:, :k]
    part_dist = np.take_along_axis(dist, part, axis=1)
    nearest = np.take_along_axis(part, np.lexsort((part, part_dist), axis=1), axis=1)
    tied = np.count_nonzero(dist <= part_dist.max(axis=1)[:, None], axis=1) > k
    if tied.any():
        nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k]
    return nearest


def _majority_vote(neighbor_labels) -> np.ndarray:
    """Per row, the label most of the neighbors carry; on a vote tie, the nearest one's."""
    # tally[i, j]: how many of row i's neighbors share neighbor j's label
    tally = np.count_nonzero(neighbor_labels[:, :, None] == neighbor_labels[:, None, :], axis=2)
    top = tally.max(axis=1)
    n_winners = np.count_nonzero(tally == top[:, None], axis=1) // top
    rows = np.arange(neighbor_labels.shape[0])
    return np.where(n_winners == 1, neighbor_labels[rows, tally.argmax(axis=1)],
                    neighbor_labels[:, 0])


def knn_accuracy(y, labels, k: int = 3, split: HoldoutSpec | None = None) -> float:
    """Label accuracy of a k-nearest-neighbor vote on a stratified holdout.

    The embedding is split per class (default 80/20, fixed seed); each test
    point is classified by majority vote over its k nearest training points
    (ordered by distance, then by training index), with vote ties broken by
    the single nearest neighbor's label. Test points are taken in blocks, so
    memory stays bounded whatever the number of test points.
    """
    y = as_data_matrix(y, "y")
    labels = np.asarray(labels)
    if labels.shape[0] != y.shape[0]:
        raise ValueError(f"labels length {labels.shape[0]} does not match {y.shape[0]} rows")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if y.shape[0] < k + 1:
        raise ValueError(f"need at least k+1={k + 1} points, got {y.shape[0]}")
    split = split or HoldoutSpec()
    train_idx, test_idx = _stratified_split(labels, split)
    train, train_labels = y[train_idx], labels[train_idx]
    k_eff = min(k, train_idx.size)
    step = max(1, _KNN_BLOCK_ELEMS // train_idx.size)
    correct = 0
    for start in range(0, test_idx.size, step):
        block = test_idx[start:start + step]
        nearest = _nearest_neighbors(euclidean_distance_matrix(y[block], train), k_eff)
        correct += int(np.count_nonzero(_majority_vote(train_labels[nearest]) == labels[block]))
    return correct / test_idx.size


def evaluate(x, y, labels=None) -> MetricReport:
    """Bundle the global score (always) and kNN accuracy (when labels exist)."""
    acc = None if labels is None else knn_accuracy(y, labels)
    return MetricReport(global_score=global_score(x, y), knn_accuracy=acc)
