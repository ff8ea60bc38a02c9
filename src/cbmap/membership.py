"""Gaussian membership machinery shared by the fit and transform loops.

Memberships score every point against every cluster center with a Gaussian
kernel; the embedding is driven by matching the low-dimensional membership
matrix to the high-dimensional one under a Frobenius loss.

The module is the descent's internal machinery, not part of the public API.
It takes the float64 arrays that :func:`cbmap.fit` and :func:`cbmap.transform`
hold, whose shapes, finiteness and bandwidths those entry points have
settled, and does not check them again.
"""

from __future__ import annotations

import numpy as np

from .linalg_core import block_rows, euclidean_distance_matrix, row_blocks

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
    if distances.max() == 0:
        raise ValueError("all point-to-center distances are zero; cannot estimate a bandwidth")
    medians = np.array([_median(distances[:, j]) for j in range(distances.shape[1])])
    return float(medians.mean())


def sigma_low(centers) -> float:
    """Bandwidth for the embedded space, of (k, m) ``centers`` with k >= 2.

    For each center, take the median of its distances to the other k-1
    centers (bit for bit ``np.median`` of each row of the off-diagonal
    distances), then average those medians over the centers.
    """
    k = centers.shape[0]
    d = euclidean_distance_matrix(centers, centers)
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
    out = np.empty(distances.shape)
    # a distance far beyond a tiny sigma overflows to -inf, whose membership is 0
    with np.errstate(over="ignore"):
        np.multiply(distances, distances, out=out)
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
    total = 0.0
    buf = np.empty(min(u_low.shape[0], block_rows(u_low.shape[1])) * u_low.shape[1])
    for rows in row_blocks(*u_low.shape):
        block = u_low[rows]
        diff = np.subtract(block, u_high[rows], out=buf[:block.size].reshape(block.shape))
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
    if loss <= GRADIENT_LOSS_FLOOR:
        return np.zeros_like(y)
    k = c_low.shape[0]
    grad = np.empty_like(y)
    buf = np.empty(min(y.shape[0], block_rows(k)) * k)
    for pts in row_blocks(y.shape[0], k):
        block = u_low[:, pts]
        w = buf[:block.size].reshape(block.shape)
        # a plain copy reads the strided slice of u_high without a ufunc's
        # buffer, so the two passes below read one strided slice each
        w[...] = u_high[:, pts]
        np.subtract(block, w, out=w)
        w *= block
        np.multiply(y[pts], w.sum(axis=0)[:, None], out=grad[pts])
        grad[pts] -= (c_low.T @ w).T
    grad *= -1.0 / (loss * sigma * sigma)
    return grad
