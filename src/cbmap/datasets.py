"""Toy-data generators and CSV ingestion.

The generators follow the usual manifold-learning parametrizations (S-curve,
swiss roll, severed sphere) plus a configurable four-cuboid benchmark whose
inter-cluster gap can be swept.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg_core import as_data_matrix, check_seed

# Severed-sphere cut: drop the polar cap above this colatitude boundary and
# the longitudinal wedge beyond this fraction of a full turn.
SPHERE_CAP_COLATITUDE = np.pi / 8.0
SPHERE_WEDGE_FRACTION = 0.94

_CUBOID_EDGES = np.array([2.0, 1.0, 1.0])


@dataclass(frozen=True)
class LabeledDataset:
    """A data matrix with optional integer labels and a human-readable name."""

    data: np.ndarray
    labels: np.ndarray | None
    name: str


def _quantize(values, lo, hi, bins=4):
    """Equal-width bin index in [0, bins) for each value in (lo, hi)."""
    edges = np.linspace(lo, hi, bins + 1)[1:-1]
    return np.digitize(values, edges).astype(np.int64)


def make_s_curve(n: int, noise_std: float = 0.0, seed: int = 0) -> LabeledDataset:
    """S-shaped 2-D sheet embedded in 3-D.

    Parameter t is uniform on (-1.5*pi, 1.5*pi); coordinates are
    (sin t, 2*uniform, sign(t)*(cos t - 1)) with optional additive Gaussian
    noise on all coordinates. Labels quantize t into 4 equal-width bins.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.5 * np.pi, 1.5 * np.pi, size=n)
    x = np.sin(t)
    y = 2.0 * rng.uniform(0.0, 1.0, size=n)
    z = np.sign(t) * (np.cos(t) - 1.0)
    data = np.column_stack([x, y, z])
    if noise_std > 0:
        data = data + rng.normal(0.0, noise_std, size=data.shape)
    return LabeledDataset(data=data, labels=_quantize(t, -1.5 * np.pi, 1.5 * np.pi), name="s_curve")


def make_swiss_roll(n: int, noise_std: float = 0.0, seed: int = 0) -> LabeledDataset:
    """Rolled-up 2-D sheet: radius grows linearly with the roll angle t.

    t is uniform on (1.5*pi, 4.5*pi); coordinates are (t*cos t, 21*uniform,
    t*sin t) with optional additive Gaussian noise. Labels quantize t into 4
    equal-width bins.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    t = 1.5 * np.pi * (1.0 + 2.0 * rng.uniform(0.0, 1.0, size=n))
    x = t * np.cos(t)
    y = 21.0 * rng.uniform(0.0, 1.0, size=n)
    z = t * np.sin(t)
    data = np.column_stack([x, y, z])
    if noise_std > 0:
        data = data + rng.normal(0.0, noise_std, size=data.shape)
    return LabeledDataset(data=data, labels=_quantize(t, 1.5 * np.pi, 4.5 * np.pi), name="swiss_roll")


def make_severed_sphere(n: int, seed: int = 0) -> LabeledDataset:
    """Unit sphere sampled uniformly in angle space, with an opening cut out.

    Longitude is uniform on (0, 2*pi) and colatitude uniform on (0, pi); the
    polar cap (colatitude < pi/8) and the longitudinal wedge (longitude >
    0.94 * 2*pi) are discarded, so fewer than ``n`` points survive.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    longitude = rng.uniform(0.0, 2.0 * np.pi, size=n)
    colatitude = rng.uniform(0.0, np.pi, size=n)
    keep = (colatitude >= SPHERE_CAP_COLATITUDE) & (
        longitude <= 2.0 * np.pi * SPHERE_WEDGE_FRACTION
    )
    if not keep.any():
        raise ValueError("every sampled point fell inside the severed region; increase n")
    longitude = longitude[keep]
    colatitude = colatitude[keep]
    data = np.column_stack(
        [
            np.sin(colatitude) * np.cos(longitude),
            np.sin(colatitude) * np.sin(longitude),
            np.cos(colatitude),
        ]
    )
    return LabeledDataset(data=data, labels=None, name="sphere")


def make_cuboids(n_per_cluster: int = 1000, gap: float = 2.0, seed: int = 0) -> LabeledDataset:
    """Four axis-aligned cuboids with edge lengths (2, 1, 1) on a 2x2 grid.

    The grid lies in the x-y plane and nearest faces of adjacent cuboids are
    ``gap`` apart along both grid axes. Points fill each cuboid uniformly;
    labels 0..3 mark the cuboid, ordered row-major over the grid.
    """
    if n_per_cluster < 1:
        raise ValueError(f"n_per_cluster must be at least 1, got {n_per_cluster}")
    if not 0 <= gap < np.inf:
        raise ValueError(f"gap must be finite and nonnegative, got {gap}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    blocks = []
    for label in range(4):
        gx, gy = label % 2, label // 2
        origin = np.array([gx * (_CUBOID_EDGES[0] + gap), gy * (_CUBOID_EDGES[1] + gap), 0.0])
        blocks.append(rng.uniform(0.0, 1.0, size=(n_per_cluster, 3)) * _CUBOID_EDGES + origin)
    data = np.vstack(blocks)
    labels = np.repeat(np.arange(4, dtype=np.int64), n_per_cluster)
    return LabeledDataset(data=data, labels=labels, name="cuboids")


def load_csv(path, has_header: bool = True, label_column=None) -> LabeledDataset:
    """Read a numeric CSV, optionally splitting off one label column.

    ``label_column`` may be a column name (requires a header) or a 0-based
    index. Label values are treated as categorical strings and encoded as
    integers in first-seen order. Malformed input raises ValueError with the
    offending line and column (both 1-based).
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            # a quoted field may span lines, so number each row by where it ends
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}: {_utf8_error(path)}") from None
    if not rows:
        raise ValueError(f"{path}: file is empty")

    header = None
    if has_header:
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: file has a header but no data rows")

    width = len(rows[0][1])
    label_idx = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise ValueError(f"label column {label_column!r} needs a header row")
            if label_column not in header:
                raise ValueError(f"label column {label_column!r} not found in header {header}")
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise ValueError(f"label column index {label_idx} out of range for {width} columns")

    data_rows = []
    raw_labels = []
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        values = []
        for col, cell in enumerate(row):
            if col == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}, column {col + 1}: not numeric: {cell.strip()!r}"
                ) from None
        data_rows.append(values)

    if width - (0 if label_idx is None else 1) < 1:
        raise ValueError(f"{path}: no feature columns left after removing the label column")

    labels = None
    if label_idx is not None:
        seen: dict[str, int] = {}
        labels = np.array([seen.setdefault(v, len(seen)) for v in raw_labels], dtype=np.int64)
    return LabeledDataset(data=np.asarray(data_rows, dtype=np.float64), labels=labels, name=path.stem)


def _utf8_error(path) -> str:
    """Where ``path`` first breaks UTF-8, as "line N: ...".

    The text reader decodes ahead of the CSV parser, so its error names
    neither the line nor the file; every line is decoded on its own instead,
    which is exact because no multi-byte UTF-8 sequence contains a newline.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return (f"line {lineno}: not valid UTF-8: byte 0x{raw[exc.start]:02x} "
                        f"at position {exc.start + 1}; save the file as UTF-8")
    return "not valid UTF-8; save the file as UTF-8"


def write_csv(path, data, labels=None, header=None) -> None:
    """Write a data matrix (and optional labels) as CSV.

    Floats are written with Python's shortest round-trip representation, so a
    load/write cycle preserves every value exactly.
    """
    data = as_data_matrix(data, "data")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != data.shape[0]:
            raise ValueError(
                f"labels length {labels.shape[0]} does not match {data.shape[0]} rows"
            )
    if header is None:
        header = [f"x{i}" for i in range(data.shape[1])]
        if labels is not None:
            header = header + ["label"]
    expected = data.shape[1] + (0 if labels is None else 1)
    if len(header) != expected:
        raise ValueError(f"header has {len(header)} names, expected {expected}")
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(data):
            cells = [repr(float(v)) for v in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            fh.write(",".join(cells) + "\n")
