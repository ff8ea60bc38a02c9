"""Gaussian membership machinery shared by the fit and transform loops.

Memberships score every point against every cluster center with a Gaussian
kernel; the embedding is driven by matching the low-dimensional membership
matrix to the high-dimensional one under a Frobenius loss.
"""

from __future__ import annotations

import numpy as np

from .linalg_core import (
    as_data_matrix,
    euclidean_distance_matrix,
    max_block_rows,
    row_blocks,
)

# Below this loss the gradient is defined as exactly zero (the analytic
# expression divides by the loss).
GRADIENT_LOSS_FLOOR = 1e-12


def sigma_high(distances) -> float:
    """Bandwidth for the original space.

    For each center, take the median of its distances to every point (median
    of an even-length list is the mean of the two central values), then
    average those medians over the centers. The medians come from one column
    at a time, so the memory used beyond ``distances`` is one column's copy;
    they are bit for bit ``np.median(distances, axis=0)``.
    """
    d = as_data_matrix(distances, "distances")
    if d.min() < 0:
        raise ValueError("distances must be nonnegative")
    if d.max() == 0:
        raise ValueError("all point-to-center distances are zero; cannot estimate a bandwidth")
    medians = np.array([_median(d[:, j]) for j in range(d.shape[1])])
    return float(medians.mean())


def sigma_low(centers) -> float:
    """Bandwidth for the embedded space.

    For each center, take the median of its distances to the other k-1
    centers (bit for bit ``np.median`` of each row of the off-diagonal
    distances), then average those medians over the centers.
    """
    c = as_data_matrix(centers, "centers")
    k = c.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 centers to estimate a bandwidth, got {k}")
    return _sigma_low(c)


def _sigma_low(c) -> float:
    """:func:`sigma_low` of a finite float64 (k, m) array with k >= 2, unchecked:
    the fit loop's own centers."""
    k = c.shape[0]
    d = euclidean_distance_matrix(c, c)
    off_diagonal = d[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    value = float(_median(off_diagonal).mean())
    if value <= 0.0:
        raise ValueError("all centers are identical; bandwidth would be zero")
    return value


def _median(a) -> np.ndarray:
    """``np.median(a, axis=-1)`` of a finite float64 array, from one partition.

    Both take the central value, or the two central values ``lo`` and ``hi``
    of an even count and return ``(lo + hi) / 2.0``, so the bits agree;
    ``np.median`` itself would import ``numpy.ma`` for its NaN check.
    """
    half = a.shape[-1] // 2
    if a.shape[-1] % 2:
        return np.partition(a, half, axis=-1)[..., half]
    part = np.partition(a, (half - 1, half), axis=-1)
    return (part[..., half - 1] + part[..., half]) / 2.0


def membership_matrix(distances, sigma: float) -> np.ndarray:
    """Gaussian membership exp(-dist^2 / (2 sigma^2)) for every pair of ``distances``.

    The result is a new C-contiguous array whatever the memory order of
    ``distances``, so the transpose of (points, centers) distances gives
    contiguous (centers, points) memberships, bit for bit the transpose of
    the memberships of the distances themselves.
    """
    d = as_data_matrix(distances, "distances")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    out = np.empty(d.shape)
    # a distance far beyond a tiny sigma overflows to -inf, whose membership is 0
    with np.errstate(over="ignore"):
        np.multiply(d, d, out=out)
        out /= -(2.0 * sigma * sigma)
    np.exp(out, out=out)
    return out


def frobenius_loss(u_low, u_high) -> float:
    """Frobenius norm of the difference between two membership matrices of equal shape.

    The norm ignores orientation, so the pair may be points x centers or
    centers x points. Squared differences are summed over cache-sized blocks
    of rows (at least one row each), formed in one buffer that every block
    reuses, so no full-size difference matrix is formed.
    """
    a = np.asarray(u_low, dtype=np.float64)
    b = np.asarray(u_high, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"membership shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"memberships must be 2-D (points x centers), got shape {a.shape}")
    total = 0.0
    buf = np.empty(max_block_rows(*a.shape) * a.shape[1])
    for rows in row_blocks(*a.shape):
        block = a[rows]
        diff = np.subtract(block, b[rows], out=buf[:block.size].reshape(block.shape))
        total += np.einsum("ij,ij->", diff, diff)
    return float(np.sqrt(total))


def loss_gradient(y, c_low, sigma: float, u_low, u_high, loss: float) -> np.ndarray:
    """Analytic gradient of the Frobenius loss with respect to the embedding rows.

    Each center j contributes, to point i and coordinate l,

        -((uL[j,i] - uH[j,i]) / loss) * uL[j,i] * (y[i,l] - c_low[j,l]) / sigma**2

    and contributions are summed over j. The point-to-center distance cancels
    between the kernel derivative and the distance derivative, so points that
    sit exactly on a center are well defined. At (numerically) zero loss the
    gradient is the zero matrix.

    The memberships are centers x points, (k, n), as the descent step holds
    them. Points are taken in cache-sized blocks of columns, which run along
    the points when the memberships are C-contiguous: each block forms its
    (k, B) weights ``(uL - uH) * uL`` once, in one buffer that every block
    reuses, and the common factor
    ``-1 / (loss * sigma**2)`` is applied to the whole gradient at the end.
    """
    y = as_data_matrix(y, "y")
    c = as_data_matrix(c_low, "c_low")
    if y.shape[1] != c.shape[1]:
        raise ValueError(f"column mismatch: y has shape {y.shape}, c_low has shape {c.shape}")
    ul = np.asarray(u_low, dtype=np.float64)
    uh = np.asarray(u_high, dtype=np.float64)
    if ul.shape != uh.shape or ul.shape != (c.shape[0], y.shape[0]):
        raise ValueError(
            f"membership shapes {ul.shape} and {uh.shape} do not match "
            f"{(c.shape[0], y.shape[0])} centers x points"
        )
    if loss <= GRADIENT_LOSS_FLOOR:
        return np.zeros_like(y)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    grad = np.empty_like(y)
    buf = np.empty(max_block_rows(y.shape[0], c.shape[0]) * c.shape[0])
    for pts in row_blocks(y.shape[0], c.shape[0]):
        block = ul[:, pts]
        w = buf[:block.size].reshape(block.shape)
        # a plain copy reads the strided slice of u_high without a ufunc's
        # buffer, so the two passes below read one strided slice each
        w[...] = uh[:, pts]
        np.subtract(block, w, out=w)
        w *= block
        np.multiply(y[pts], w.sum(axis=0)[:, None], out=grad[pts])
        grad[pts] -= (c.T @ w).T
    grad *= -1.0 / (loss * sigma * sigma)
    return grad
