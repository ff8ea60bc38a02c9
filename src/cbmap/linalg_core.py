"""Dense-matrix primitives (pairwise distances, z-scoring, PCA) and the shared input checks."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Rows per block are chosen so that rows * k * d stays at most this many
# float64 elements (256 KB): a block's difference tensor, or its (rows, k)
# output when columns are summed one at a time, then stays in cache. The
# membership loss takes blocks of rows, and the gradient (k, points) blocks of
# centers-by-points memberships, of the same budget.
_CHUNK_ELEMS = 32_768
# pca_fit sums its Gram matrix over blocks of rows of this many chunks
# (512 KB). On 1500 x 256 data (medians of 15) the whole-matrix product took
# 10.3 ms, blocks of one chunk 10.2 ms, of two 9.2 ms, and of four 8.3 ms
# while holding 1 MB more.
_PCA_CHUNKS = 2
# as_data_matrix checks a larger array over blocks of rows of this many chunks
# (512 KB of mask). On 5000 x 256 inputs (medians of 25) they took 0.68 ms,
# the whole array 0.70 ms and blocks of one chunk 0.80 ms.
_CHECK_CHUNKS = 16
# numpy's ufunc buffer, in elements, while the pipeline's entry points run
# (see _ufunc_buffer)
_UFUNC_BUFSIZE = 1024


def _ufunc_buffer(fn):
    """Run ``fn`` with numpy's ufunc buffer at ``_UFUNC_BUFSIZE`` elements, read
    at call time, and give the caller's size back afterwards, on an exception too.

    The buffer size changes only how numpy copies operands, not what it
    computes. A broadcast such as the descent's ``(k, 1) - (n,)`` is copied
    through the buffer while n is below numpy's default 8,192 elements over its
    three operands (2,731): with numpy 2.4.6 on a 2-core Xeon that cost 1.05 ns
    per element, against 0.22 ns with a 1,024-element buffer. Every descent
    block and fit sample is that short. Scopes nest, and each costs about
    2.3 us, so it wraps the public entry points, not the per-step helpers. The
    size is set and restored by hand: ``np.errstate`` carries it only from
    numpy 2.0 on.
    """

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        previous = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            return fn(*args, **kwargs)
        finally:
            np.setbufsize(previous)

    return scoped


def as_data_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} needs at least one row and one column, got shape {m.shape}")
    # the method skips np.all's Python wrapper, a third of this check on the
    # small arrays that each descent step validates; a larger array is checked a
    # block of rows at a time, with no mask of its size
    finite = (np.isfinite(m).all() if m.size <= _CHECK_CHUNKS * _CHUNK_ELEMS else all(
        np.isfinite(m[rows]).all() for rows in row_blocks(*m.shape, _CHECK_CHUNKS)))
    if not finite:
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_count(value, name, least) -> None:
    """Reject a count or seed that is not a whole number of at least ``least``,
    by name: numpy names no setting, takes True as 1 and None as a fresh seed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class PcaModel:
    """Principal-component basis fitted to a data matrix.

    Attributes
    ----------
    mean : (d,) column means of the training data.
    components : (m, d) orthonormal rows sorted by explained variance.
    """

    mean: np.ndarray
    components: np.ndarray


def block_rows(row_elems: int, chunks: int = 1) -> int:
    """Rows in each block of ``row_blocks(n, row_elems, chunks)``, the last excepted."""
    return chunks * max(1, _CHUNK_ELEMS // max(1, row_elems))


def row_blocks(n: int, row_elems: int, chunks: int = 1):
    """Slices that cover ``range(n)`` in blocks of rows holding at most
    ``chunks * _CHUNK_ELEMS`` elements in all, for rows of ``row_elems`` elements.

    Each block is ``chunks`` whole blocks of ``chunks=1``, so a loop over a
    block's own ``chunks=1`` blocks meets the same row boundaries as a loop
    over the whole range."""
    step = block_rows(row_elems, chunks)
    for start in range(0, n, step):
        yield slice(start, start + step)


def max_block_rows(n: int, row_elems: int) -> int:
    """Rows in the first, and largest, of ``row_blocks(n, row_elems)``: a
    buffer of this many rows holds any of them."""
    return min(n, block_rows(row_elems))


def euclidean_distance_matrix(a, b, squared: bool = False) -> np.ndarray:
    """All-pairs Euclidean distances between rows of ``a`` (n, d) and ``b`` (k, d).

    Computed from explicit coordinate differences (not the expanded quadratic
    form), so small distances do not lose precision to cancellation. Wide
    inputs' k-means, ``fit`` and ``transform`` take the expanded form
    (``clustering._settled_sq_distances``), and here the rows it does not settle.

    Rows of ``a`` are taken in cache-sized blocks. When there are fewer
    columns than centers (``d < k``) each block sums its squared differences
    one column at a time; otherwise it reduces a (rows, k, d) difference
    block. Squared distances beyond the float64 range become ``inf`` without
    a warning.

    With ``squared=True`` the squared distances are returned, skipping the
    final square root; the default output is exactly their square root.
    """
    a = as_data_matrix(a, "a")
    b = as_data_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column mismatch: a has shape {a.shape}, b has shape {b.shape}")
    n, d = a.shape
    k = b.shape[0]
    out = np.empty((n, k))
    if d < k:
        b_cols = b.T.copy()  # each column of b contiguous
    with np.errstate(over="ignore"):
        for block_rows in row_blocks(n, k * d):
            rows = a[block_rows]
            block = out[block_rows]
            if d < k:
                np.subtract(rows[:, 0, None], b_cols[0], out=block)
                np.square(block, out=block)
                for col in range(1, d):
                    diff = rows[:, col, None] - b_cols[col]
                    np.square(diff, out=diff)
                    block += diff
            else:
                diff = rows[:, None, :] - b
                np.einsum("ijl,ijl->ij", diff, diff, out=block)
            if not squared:
                np.sqrt(block, out=block)
    return out


def zscore_normalize(m) -> np.ndarray:
    """Column-wise z-score using the population standard deviation.

    Columns whose entries are all equal map to all-zeros instead of dividing
    by zero.
    """
    m = as_data_matrix(m, "matrix")
    return apply_scaler(m, *fit_scaler(m))


def fit_scaler(m) -> tuple[np.ndarray, np.ndarray]:
    """Column means and population standard deviations of ``m``, for :func:`apply_scaler`.

    A column whose entries are all equal gets a standard deviation of exactly
    zero. Computed, it can be rounding residue instead (1.4e-17 for three
    entries of 0.1), and dividing by that would scale the column to +-1.

    Each column is first divided by the power of two at or above its largest
    magnitude, which is exact, so its squares neither overflow nor vanish at
    any magnitude, and the mean and deviation are scaled back at the end.
    The sums run a block of rows at a time, each block summed below the
    running sum, so the additions run row by row as in ``m.mean(axis=0)`` and
    ``m.std(axis=0)``, whose bits they keep for two or more columns of normal
    floats. numpy sums a single column pairwise instead, so one column longer
    than a block can differ from it in the last place.
    """
    n = m.shape[0]
    hi, lo = m.max(axis=0), m.min(axis=0)
    exp = np.frexp(np.maximum(hi, -lo))[1]
    mean = _scaled_column_sums(m, -exp) / n
    std = np.sqrt(_scaled_column_sums(m, -exp, mean) / n)
    std[hi == lo] = 0.0
    return np.ldexp(mean, exp), np.ldexp(std, exp)


def _scaled_column_sums(m, exp, mean=None) -> np.ndarray:
    """Column sums of ``m * 2**exp``, or with ``mean`` of its squared deviations
    from ``mean``, summed row by row over blocks of rows."""
    n, d = m.shape
    # row 0 holds the running sum, the rows below it one block's terms
    buf = np.empty((max_block_rows(n, d) + 1, d))
    total = None
    for rows in row_blocks(n, d):
        block = m[rows]
        terms = np.ldexp(block, exp, out=buf[1:1 + len(block)])
        if mean is not None:
            np.square(np.subtract(terms, mean, out=terms), out=terms)
        if total is not None:
            buf[0] = total
            terms = buf[:1 + len(block)]
        total = np.add.reduce(terms, axis=0)
    return total


def apply_scaler(m, mean, std) -> np.ndarray:
    """Column-wise ``(m - mean) / std``; columns whose ``std`` is zero map to all-zeros.

    Written into the output in place, with no temporary of ``m``'s size."""
    out = np.zeros_like(m)
    nz = std > 0.0
    np.subtract(m, mean, out=out, where=nz)
    np.divide(out, std, out=out, where=nz)
    return out


def pca_fit(x, m: int) -> PcaModel:
    """Fit the top ``m`` principal directions of ``x``.

    They are the top eigenvectors of the smaller Gram matrix of the centered
    matrix ``xc``: ``xcᵀxc`` for n >= d, summed over blocks of
    ``_PCA_CHUNKS`` cache-sized blocks of rows, else ``xc·xcᵀ``, whose
    eigenvectors map back through ``xcᵀ`` and are orthonormalized (completing
    zero-variance ones). An input that fits in one block, such as a few
    low-dimensional centers, gets the Gram matrix of a single product.
    Component signs are fixed so that each row's largest-magnitude entry is
    positive, which makes results reproducible across equivalent inputs.
    """
    x = as_data_matrix(x, "x")
    n, d = x.shape
    limit = min(n, d)
    if not 1 <= m <= limit:
        raise ValueError(f"m must be in [1, {limit}] for a {n}x{d} matrix, got {m}")
    mean = x.mean(axis=0)
    if n >= d:
        # xcᵀxc summed over blocks of centred rows, so xc is never held whole
        blocks = row_blocks(n, d, _PCA_CHUNKS)
        xc = x[next(blocks)] - mean
        gram = xc.T @ xc
        for rows in blocks:
            xc = x[rows] - mean
            gram += xc.T @ xc
        components = np.linalg.eigh(gram)[1][:, :-m - 1:-1].T.copy()
    else:
        xc = x - mean
        top = np.linalg.eigh(xc @ xc.T)[1][:, :-m - 1:-1]
        components = np.linalg.qr(xc.T @ top)[0].T.copy()
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components)


def pca_transform(model: PcaModel, x) -> np.ndarray:
    """Project rows of ``x`` onto the fitted components after centering."""
    x = as_data_matrix(x, "x")
    d = model.components.shape[1]
    if x.shape[1] != d:
        raise ValueError(f"x has {x.shape[1]} columns, model expects {d}")
    return (x - model.mean) @ model.components.T
