"""Fitting and applying the embedding.

The pipeline clusters the input, converts point-to-center distances into a
Gaussian membership matrix, and then moves low-dimensional point positions by
Adam so that the low-dimensional membership matrix matches the high-dimensional
one. Low-dimensional centers track the moving points (using the original
cluster labels) and are re-normalized every iteration.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import membership as mb
from .clustering import KmeansConfig, _settled_sq_distances, kmeans_fit, update_centers
from .datasets import _utf8_error
from .linalg_core import (
    _ufunc_buffer,
    apply_scaler,
    as_data_matrix,
    block_rows,
    check_count,
    euclidean_distance_matrix,
    fit_scaler,
    pca_fit,
    pca_transform,
    row_blocks,
    zscore_normalize,
)

MODEL_FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_LEARNING_RATE = 0.1  # the step size of every fit and transform

# positions this far out keep every square below 1e301, so the distances and
# the centers' variance stay finite for up to 1e7 dimensions or clusters
_MAX_POSITION = 1e150
# the smallest bandwidth whose square is a normal float64, so that the
# descent's 1 / (2 sigma^2) and 1 / sigma^2 stay finite
_MIN_BANDWIDTH = 2.0**-511
INIT_NOISE_STD = 0.1  # of the Gaussian noise fit adds to each point's start
# fit descends at most about this many rows (see _fit_sample) and places the
# others as transform places new rows. At 2,048 every fit the acceptance
# tests and the benchmark's `highdim` and `oos` make keeps its bits.
FIT_SAMPLE_ROWS = 2048
# Adam steps that place each row fit leaves out of its descent. On 5,000-row
# swiss rolls at k = 40 and 200 fit steps (means of 8 seeds, 2 shared Xeon
# cores), fit took 0.45 s descending every row, 0.28 s with 50 steps here and
# 0.31 s with 100, at the same global score (0.977) and kNN accuracies of
# 0.986, 0.983 and 0.984; 25 steps saved 0.04 s more, at 0.976 and 0.982.
FIT_REST_ITERS = 50


@dataclass(frozen=True)
class CbmapConfig:
    """Embedding parameters.

    ``clustering`` defaults to a KmeansConfig built from ``n_clusters`` and
    ``seed`` at fit time.
    """

    n_clusters: int
    out_dim: int = 2
    max_iter: int = 500
    clustering: KmeansConfig | None = None
    seed: int = 0

    def __post_init__(self):
        check_count(self.n_clusters, "n_clusters", 2)
        check_count(self.out_dim, "out_dim", 1)
        check_count(self.max_iter, "max_iter", 1)
        check_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class CbmapModel:
    """Everything :func:`transform` reads to embed new points with a frozen fit."""

    centers_high: np.ndarray  # (k, d)
    centers_low: np.ndarray  # (k, m)
    sigma_high: float  # from the distances of the rows fit descended (FitResult.sample)
    sigma_low: float
    feature_scaler: tuple[np.ndarray, np.ndarray] | None = None  # (mean, std) of the raw input


@dataclass(frozen=True)
class FitResult:
    """What :func:`fit` returns. ``loss_history`` and ``model.sigma_high`` come
    from the rows the descent moved, ``sample``: every row up to
    ``FIT_SAMPLE_ROWS`` rows, else about that many, and the others were placed
    against the fitted model by the loop that places :func:`transform`'s rows."""

    embedding: np.ndarray  # (n, m)
    loss_history: np.ndarray  # (max_iter,)
    model: CbmapModel
    labels: np.ndarray  # (n,) cluster labels from the high-dimensional fit
    sample: np.ndarray  # (s,) sorted indices of the descended rows


def adam_update(y, grad, moments, step_index: int) -> None:
    """One bias-corrected Adam step of size ``ADAM_LEARNING_RATE``, written into
    the positions ``y`` and the stacked (2, n, m) first and second ``moments`` in
    place. ``step_index`` counts from 1."""
    # the textbook update below, one operation at a time in its own order, so
    # to its bits, with one new array (the step) and one scratch array in
    # place of a temporary per operation:
    #   mean = b1 m + (1 - b1) g,  variance = b2 v + (1 - b2) g g,
    #   y - lr (mean / c1) / (sqrt(variance / c2) + eps)
    mean, variance = moments
    mean *= ADAM_BETA1
    scratch = grad * (1.0 - ADAM_BETA1)
    mean += scratch
    variance *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grad
    variance += scratch
    step = mean / (1.0 - ADAM_BETA1**step_index)
    np.divide(variance, 1.0 - ADAM_BETA2**step_index, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step *= ADAM_LEARNING_RATE
    step /= scratch
    y -= step


def init_embedding(labels, centers_low, seed) -> np.ndarray:
    """Start every point at its cluster's low-dimensional center plus Gaussian
    noise of std ``INIT_NOISE_STD``; :func:`fit` makes both inputs, unchecked."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((labels.shape[0], centers_low.shape[1])) * INIT_NOISE_STD
    return centers_low[labels] + noise


def _descent_step(y, centers_low, sigma, u_high, moments, step_index, loss=None) -> float:
    """One Adam step of the points ``y`` toward the high-dimensional memberships.

    Shared by the fit and transform loops; moves ``y`` and its Adam
    ``moments`` in place and returns the loss at the positions before the
    step. ``u_high`` is the C-contiguous (k, n) centers-by-points membership
    matrix, so the step's elementwise passes and reductions run along the
    points. A given ``loss`` scales the gradient in place of the computed one.
    The entry points start positions and centers within +-_MAX_POSITION, so
    every squared distance is finite, and a step that moves a position beyond
    it raises ValueError.
    """
    # the (k, n) memberships exp(-dist^2 / (2 sigma^2)), formed in place from
    # the squared center-to-point distances; a product that overflows to -inf
    # for a bandwidth near the floor is a membership of 0, as it should be
    u_low = euclidean_distance_matrix(centers_low, y, squared=True)
    with np.errstate(over="ignore"):
        u_low *= -0.5 / (sigma * sigma)
    np.exp(u_low, out=u_low)
    if loss is None:
        loss = mb.frobenius_loss(u_low, u_high)
    grad = mb.loss_gradient(y, centers_low, sigma, u_low, u_high, loss)
    del u_low  # so the Adam step's (n, m) temporaries do not sit beside it
    # an overflowing step is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        adam_update(y, grad, moments, step_index)
    if not np.abs(y).max() <= _MAX_POSITION:
        raise ValueError(f"the points lie beyond +-{_MAX_POSITION:g} after descent step "
                         f"{step_index}")
    return loss


def _row_distances(x, rows, centers, scaler=None, name="x") -> np.ndarray:
    """The distances from ``x[rows]`` (an index array or a range), scaled by
    ``scaler`` if given, to ``centers``, a row block at a time: no copy of ``x``.
    Wide rows' are the square roots of :func:`clustering._settled_sq_distances`;
    one beyond float64 is a ValueError that names the input ``name``."""
    dist = np.empty((len(rows), centers.shape[0]))
    for part in row_blocks(len(rows), x.shape[1]):
        block = x[rows[part]]
        if scaler is not None:
            block = as_data_matrix(apply_scaler(block, *scaler), f"scaled {name}")
        sq = _settled_sq_distances(block, centers)
        dist[part] = euclidean_distance_matrix(block, centers) if sq is None else np.sqrt(sq)
    if not np.isfinite(dist).all():
        raise ValueError(f"{name} has rows that lie too far from the model's centers for "
                         "float64 distances")
    return dist


def _fit_sample(labels, seed) -> np.ndarray:
    """The sorted rows :func:`fit` descends: of each label's c rows, the first
    max(1, FIT_SAMPLE_ROWS * c // n) in an order drawn from ``seed``, so no
    cluster loses all its rows and every row is kept when n <= FIT_SAMPLE_ROWS."""
    n = labels.shape[0]
    order = np.random.default_rng(seed).permutation(n)
    grouped = order[np.argsort(labels[order], kind="stable")]  # by label, seeded order within
    counts = np.bincount(labels)
    take = np.minimum(counts, np.maximum(1, FIT_SAMPLE_ROWS * counts // n))
    rank = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.sort(grouped[rank < np.repeat(take, counts)])


@_ufunc_buffer
def fit(x, cfg: CbmapConfig) -> FitResult:
    """Embed ``x`` into ``cfg.out_dim`` dimensions.

    Steps: cluster every row, then draw the rows to descend (all of them up
    to ``FIT_SAMPLE_ROWS``, else about that many, a share of each cluster;
    see :func:`_fit_sample`), estimate the high-dimensional bandwidth from
    their distances to the centers and form their membership matrix once,
    start the low-dimensional centers at the z-scored PCA projection of the
    high-dimensional ones (or, when ``n_clusters <= out_dim`` leaves too few
    to span it, at a z-scored seeded Gaussian draw, with a warning) and the
    descended points around them, then iterate: recompute the
    low-dimensional membership matrix, take an Adam step on the point
    positions along the loss gradient, recompute centers from the original
    cluster labels, z-score them, and refresh the low bandwidth. The Adam
    moments are carried across iterations, not reset. The rows left out of the
    descent, none up to ``FIT_SAMPLE_ROWS``, are then placed against the fitted
    model as :func:`transform` places its rows, with ``FIT_REST_ITERS`` steps.
    """
    x = as_data_matrix(x, "x")
    n, d = x.shape
    if cfg.out_dim >= d:
        raise ValueError(f"out_dim={cfg.out_dim} must be smaller than the input dimension {d}")
    if cfg.n_clusters > n:
        raise ValueError(f"n_clusters={cfg.n_clusters} exceeds the number of points n={n}")
    kcfg = cfg.clustering
    if kcfg is None:
        kcfg = KmeansConfig(k=cfg.n_clusters, seed=cfg.seed)
    elif kcfg.k != cfg.n_clusters:
        raise ValueError(f"clustering.k={kcfg.k} disagrees with n_clusters={cfg.n_clusters}")

    assignment = kmeans_fit(x, kcfg)
    labels = assignment.labels
    centers_high = assignment.centers

    # Independent streams for the center draw, the point-noise draw and the sample.
    seed_centers, seed_points, seed_sample = np.random.SeedSequence(cfg.seed).spawn(3)
    sample = _fit_sample(labels, seed_sample)
    dist_high = _row_distances(x, sample, centers_high)
    # distances that all underflow to 0 between rows that differ are a matter of scale
    s_high = 0.0 if dist_high.max() == 0 and np.ptp(x, axis=0).any() else mb.sigma_high(dist_high)
    if s_high < _MIN_BANDWIDTH:
        raise ValueError(f"the input x is too small in scale: its points lie about "
                         f"{s_high:.4g} from their centers, below the {_MIN_BANDWIDTH:.4g} "
                         "the descent can resolve; rescale it (cbmap fit --standardize does)")
    sample_labels = labels[sample]
    # the transpose of the (s, k) distances gives the (k, s) memberships directly
    u_high = mb.membership_matrix(dist_high.T, s_high)
    del dist_high
    if cfg.n_clusters > cfg.out_dim:
        centers_low = pca_transform(pca_fit(centers_high, cfg.out_dim), centers_high)
    else:
        warnings.warn(f"n_clusters={cfg.n_clusters} <= out_dim={cfg.out_dim}; "
                      "falling back to random center initialization")
        centers_low = np.random.default_rng(seed_centers).standard_normal(
            (cfg.n_clusters, cfg.out_dim))
    centers_low = zscore_normalize(centers_low)
    s_low = mb.sigma_low(centers_low)

    y = init_embedding(sample_labels, centers_low, seed_points)
    moments = np.zeros((2,) + y.shape)
    history = np.empty(cfg.max_iter)
    for it in range(cfg.max_iter):
        history[it] = _descent_step(y, centers_low, s_low, u_high, moments, it + 1)
        # the loop's own centers are finite, so they skip zscore_normalize's check
        centers_low = update_centers(y, sample_labels, centers_low)
        centers_low = apply_scaler(centers_low, *fit_scaler(centers_low))
        s_low = mb.sigma_low(centers_low)
    del u_high, moments  # so they do not sit beside each placement block

    model = CbmapModel(centers_high, centers_low, s_high, s_low)
    embedding = np.empty((n, cfg.out_dim))
    embedding[sample] = y
    _place(model, x, np.delete(np.arange(n), sample), FIT_REST_ITERS, embedding)
    return FitResult(embedding=embedding, loss_history=history, model=model, labels=labels,
                     sample=sample)


@_ufunc_buffer
def transform(model: CbmapModel, x_new, iters: int = 300) -> np.ndarray:
    """Embed new points with a frozen model, each row on its own.

    The rows are first scaled by the model's ``feature_scaler``, if it has
    one. Memberships of the new points use the stored high-dimensional centers
    and bandwidth; each point starts at the low-dimensional center it is most
    strongly a member of and is refined by Adam while the centers and low
    bandwidth stay fixed. A row's result does not depend on the other rows,
    so the rows are descended in blocks of a bounded size, and the memory
    used beyond the input and the output does not grow with their number.
    The model must pass :func:`load_model`'s range checks, and the rows must
    lie within float64 distances of its centers.
    """
    x = as_data_matrix(x_new, "x_new")
    _check_ranges(model)
    d = model.centers_high.shape[1]
    if x.shape[1] != d:
        raise ValueError(f"x_new has {x.shape[1]} columns, model expects {d}")
    check_count(iters, "iters", 1)
    y = np.empty((x.shape[0], model.centers_low.shape[1]))
    _place(model, x, range(x.shape[0]), iters, y, "x_new")
    return y


def transform_block_rows(model: CbmapModel) -> int:
    """Rows per block that :func:`transform` descends at once, one gradient block
    (32,768 values of each (k, rows) array); the last block may hold fewer, or
    up to half again as many. Each row's result is bit for bit the same in a
    call on the whole set as in a call on its own block of this size."""
    return block_rows(model.centers_high.shape[0])


def _place(model: CbmapModel, x, rows, iters: int, out, name="x") -> None:
    """Descend ``x[rows]`` (as in :func:`_row_distances`) against the frozen
    ``model`` into ``out[rows]``, one :func:`transform_block_rows` block at a
    time, each row from the ``centers_low`` row of its nearest high-dimensional center.
    A last block of fewer than half that many rows joins the block before it,
    which then holds up to half again as many: each step's fixed cost is paid
    once for both, and the distances and the gradient still split them where
    they meet, so each row keeps the bits it has in its own block."""
    start, step = 0, transform_block_rows(model)
    while start < len(rows):
        stop = start + step if len(rows) - start - step >= step // 2 else len(rows)
        block, start = rows[start:stop], stop
        # a wide row's distance comes from a matrix product, whose rounding
        # can depend on the rows it is taken with
        dist_high = np.vstack([
            _row_distances(x, block[i:i + step], model.centers_high, model.feature_scaler, name)
            for i in range(0, len(block), step)])
        u_high = mb.membership_matrix(dist_high.T, model.sigma_high)
        # argmax membership == argmin distance, and stays well defined when every
        # membership in a row underflows to zero; a hand-built model's centers
        # may be of another dtype, and the descent takes float64 positions
        y = model.centers_low[np.argmin(dist_high, axis=1)].astype(np.float64, copy=False)
        del dist_high
        moments = np.zeros((2,) + y.shape)
        for it in range(iters):
            # loss=1 makes loss_gradient the gradient of 1/2 ||U_low - U_high||^2,
            # which has no whole-set factor, so each row descends on its own
            _descent_step(y, model.centers_low, model.sigma_low, u_high, moments, it + 1,
                          loss=1.0)
        del u_high  # so it does not sit beside the next block's distances
        out[block] = y


def save_model(model: CbmapModel, path) -> None:
    """Write the model as JSON.

    The document is built, and passes every check :func:`load_model` applies
    to shapes, centers, bandwidths and scaler, before the file is opened;
    a model the reader would reject fails here and leaves an existing file
    untouched.
    Floats are written in shortest round-trip form, so reloading reproduces
    every value bit-for-bit.
    """
    k, d = model.centers_high.shape
    config = {"feature_scaler": None}
    if model.feature_scaler is not None:
        mean, std = model.feature_scaler
        config["feature_scaler"] = {"mean": list(map(float, mean)), "std": list(map(float, std))}
    # center arrays are flattened row-major
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "k": k,
        "d": d,
        "m": model.centers_low.shape[1],
        "centers_high": [float(v) for v in model.centers_high.ravel()],
        "centers_low": [float(v) for v in model.centers_low.ravel()],
        "sigma_high": _typed(vars(model), "sigma_high", float),
        "sigma_low": _typed(vars(model), "sigma_low", float),
        "config": config,
    }
    _model_from_doc(doc)
    text = json.dumps(doc, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _reshape(values, shape, what):
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise ValueError(f"model field {what!r} must be a list of finite numbers") from None
    if arr.ndim != 1:
        raise ValueError(f"model field {what!r} must be a flat list of numbers")
    expected = math.prod(shape)
    if arr.shape[0] != expected:
        raise ValueError(f"model field {what!r} has {arr.size} values, expected {expected}")
    return arr.reshape(shape)  # _check_ranges checks the values


def _typed(doc, key, kind):
    """``doc[key]`` as ``kind`` (int or float), or a ValueError naming the field."""
    value = doc[key]
    try:
        # bool is an int subclass, and int() and float() would parse strings
        if isinstance(value, (bool, np.bool_, str)):
            raise TypeError
        typed = kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"model field {key!r} must be {kind.__name__}: {value!r}") from None
    except OverflowError:  # int(inf) and float(10**400)
        raise ValueError(f"model field {key!r} must be finite: {value!r}") from None
    # json reads the NaN and Infinity literals, which pass every range check
    if kind is float and not np.isfinite(typed):
        raise ValueError(f"model field {key!r} must be finite: {value!r}")
    if kind is int and typed != value:  # int() would truncate a fraction
        raise ValueError(f"model field {key!r} must be int: {value!r}")
    return typed


def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"model field {what!r} must be an object, got {value!r}")
    return value


def load_model(path) -> CbmapModel:
    """Read a model written by :func:`save_model`, validating version, types and shapes.

    Keys the format does not define (such as the fit-only settings, the
    ``center_pca`` basis and the ``config.learning_rate`` older writers
    stored) are ignored.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:  # arrays or objects nested deeper than the decoder recurses
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path}: " + _utf8_error(path, newline="\n")[1]) from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file must contain a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported model version {version!r}; expected {MODEL_FORMAT_VERSION}"
        )
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: model file is missing field {exc}") from None


def _model_from_doc(doc) -> CbmapModel:
    """The model a version-1 document describes, with every field's type,
    shape and range checked; raises ValueError, or KeyError for a missing key."""
    k, d, m = (_typed(doc, key, int) for key in ("k", "d", "m"))
    cfg = _object(doc["config"], "config")
    for key, value, least in (("k", k, 2), ("d", d, 1), ("m", m, 1)):
        if value < least:
            raise ValueError(f"model field {key!r} must be at least {least}, got {value}")
    scaler = None
    if cfg.get("feature_scaler") is not None:
        sc = _object(cfg["feature_scaler"], "config.feature_scaler")
        scaler = (
            _reshape(sc["mean"], (d,), "feature_scaler.mean"),
            _reshape(sc["std"], (d,), "feature_scaler.std"),
        )
    sigma_high = _typed(doc, "sigma_high", float)
    sigma_low = _typed(doc, "sigma_low", float)
    centers_high = _reshape(doc["centers_high"], (k, d), "centers_high")
    centers_low = _reshape(doc["centers_low"], (k, m), "centers_low")
    return _check_ranges(
        CbmapModel(centers_high, centers_low, sigma_high, sigma_low, scaler))


def _check_ranges(model: CbmapModel) -> CbmapModel:
    """``model``, if its arrays have the shapes (k, d), (k, m) and (d,) and finite
    entries, and its bandwidths and ``centers_low`` (where transform starts its
    points) lie in the ranges the descent relies on; else a ValueError naming the field."""
    high, low = np.shape(model.centers_high), np.shape(model.centers_low)
    k, d = high if len(high) == 2 else ("k", "d")  # names: centers_high fails first
    arrays = [("centers_high", model.centers_high, len(high) == 2, "(k, d)"),
              ("centers_low", model.centers_low, len(low) == 2 and low[0] == k, f"({k}, m)")]
    for part, values in zip(("mean", "std"), model.feature_scaler or ()):
        arrays.append((f"feature_scaler.{part}", values, np.shape(values) == (d,), f"({d},)"))
    for name, values, fits, want in arrays:
        if not fits:
            raise ValueError(f"model field {name!r} has shape {np.shape(values)}, expected {want}")
        if not np.isfinite(values).all():
            raise ValueError(f"model field {name!r} contains non-finite values")
    for name in ("sigma_high", "sigma_low"):
        sigma = getattr(model, name)
        if not _MIN_BANDWIDTH <= sigma < math.inf:  # NaN fails it too
            raise ValueError(f"model field {name!r} must be at least {_MIN_BANDWIDTH:.4g} and "
                             f"finite, got {sigma}")
    # as a float64: beside a float32 array, 1e150 would be cast to float32 and overflow
    if float(np.abs(model.centers_low).max()) > _MAX_POSITION:
        raise ValueError(f"model field 'centers_low' has entries beyond +-{_MAX_POSITION:g}")
    return model
