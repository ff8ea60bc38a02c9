"""Synthetic data shared by several test modules."""

import numpy as np

from cbmap.datasets import make_swiss_roll


def two_blobs(n_per=100, seed=10):
    """Two well-separated anisotropic 3-D Gaussian blobs.

    Each blob is stretched along x (std 2.5 vs 0.6 elsewhere) while the blobs
    are offset along y, so within-blob structure and between-blob separation
    live on different axes. Returns (data, blob_id).
    """
    rng = np.random.default_rng(seed)
    scale = np.array([2.5, 0.6, 0.6])
    a = rng.normal(0.0, 1.0, (n_per, 3)) * scale
    b = rng.normal(0.0, 1.0, (n_per, 3)) * scale + np.array([0.0, 4.5, 0.0])
    return np.vstack([a, b]), np.repeat(np.arange(2), n_per)


def disk_blobs(centers, n_per=50, radius=0.5, seed=0):
    """Uniform disks of the given radius around each 2-D center."""
    rng = np.random.default_rng(seed)
    points, ids = [], []
    for i, c in enumerate(np.asarray(centers, dtype=np.float64)):
        angle = rng.uniform(0.0, 2.0 * np.pi, n_per)
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, n_per))
        points.append(np.column_stack([r * np.cos(angle), r * np.sin(angle)]) + c)
        ids.append(np.full(n_per, i))
    return np.vstack(points), np.concatenate(ids)


def lifted_roll(n, d, seed):
    """A swiss roll mapped into ``d`` columns by a seeded orthonormal map, plus noise."""
    roll = make_swiss_roll(n, seed=seed).data
    rng = np.random.default_rng(seed + 1)
    basis, _ = np.linalg.qr(rng.standard_normal((d, 3)))
    return roll @ basis.T + rng.normal(0.0, 0.3, (n, d))
