"""Toy-data generators and CSV ingestion.

The generators follow the usual manifold-learning parametrizations (S-curve,
swiss roll, severed sphere) plus a configurable four-cuboid benchmark whose
inter-cluster gap can be swept.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg_core import as_data_matrix, check_count

# Severed-sphere cut: drop the polar cap above this colatitude boundary and
# the longitudinal wedge beyond this fraction of a full turn.
SPHERE_CAP_COLATITUDE = np.pi / 8.0
SPHERE_WEDGE_FRACTION = 0.94

_CUBOID_EDGES = np.array([2.0, 1.0, 1.0])
# write_csv formats and writes this many rows at a time
_WRITE_ROWS = 1024


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
    check_count(n, "n", 1)
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    check_count(seed, "seed", 0)
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
    check_count(n, "n", 1)
    if not 0 <= noise_std < np.inf:
        raise ValueError(f"noise_std must be finite and nonnegative, got {noise_std}")
    check_count(seed, "seed", 0)
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
    check_count(n, "n", 1)
    check_count(seed, "seed", 0)
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
    check_count(n_per_cluster, "n_per_cluster", 1)
    if not 0 <= gap < np.inf:
        raise ValueError(f"gap must be finite and nonnegative, got {gap}")
    check_count(seed, "seed", 0)
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
    integers in first-seen order. Malformed input, such as a feature cell
    that is not a number or that reads as NaN or infinite, raises ValueError
    with the offending line and column (both 1-based); a file with several
    faults is reported by the first one from the top.
    """
    (dataset,) = load_csv_blocks(path, None, has_header, label_column)
    return dataset


def load_csv_blocks(path, block_rows, has_header: bool = True, label_column=None):
    """:func:`load_csv` a block of rows at a time.

    Yields datasets of ``block_rows`` rows each, the last one possibly
    shorter; ``None`` yields every row in one block. Label codes keep their
    first-seen order across blocks. A malformed row raises its ValueError
    when the reader reaches it, and a non-finite cell when the reader ends
    its block, after the blocks before it were yielded; a file without data
    rows raises before the first block.
    """
    path = Path(path)
    header = None
    width = label_idx = None
    rows = 0
    values = array("d")  # the features, row after row
    codes = array("q")
    seen: dict[str, int] = {}
    fault = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if not row:
                    continue
                if has_header and header is None:
                    header = [cell.strip() for cell in row]
                    continue
                # a quoted field may span lines, so a row is numbered by where it ends
                lineno = reader.line_num
                if width is None:
                    width = len(row)
                    label_idx = _label_index(path, label_column, header, width)
                if len(row) != width:
                    raise ValueError(
                        f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
                if label_idx is not None:
                    codes.append(seen.setdefault(row.pop(label_idx).strip(), len(seen)))
                try:
                    values.extend(map(float, row))
                except ValueError:
                    raise _bad_cell(path, lineno, row, label_idx) from None
                rows += 1
                if rows == block_rows:
                    if not np.isfinite(np.frombuffer(values)).all():
                        break  # named below
                    yield _dataset(path, values, codes, width, label_idx)
                    # the block yielded shares these buffers, so fresh ones follow
                    rows, values, codes = 0, array("d"), array("q")
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            fault = ValueError(f"{path}: line {reader.line_num}: {exc}")
        except UnicodeDecodeError:
            fault = ValueError(f"{path}: {_utf8_error(path)}")
        except ValueError as exc:
            fault = exc
    # float() reads NaN and infinity, which lie above any fault met after them;
    # the blocks are checked whole, and reading a row at a time names the line
    if not np.isfinite(np.frombuffer(values)).all():
        if block_rows == 1:
            raise _bad_cell(path, lineno, row, label_idx)
        for _ in load_csv_blocks(path, 1, has_header, label_column):
            pass
    if fault is not None:
        raise fault
    if width is None:
        raise ValueError(f"{path}: file has a header but no data rows" if header is not None
                         else f"{path}: file is empty")
    if rows:
        yield _dataset(path, values, codes, width, label_idx)


def _dataset(path, values, codes, width, label_idx) -> LabeledDataset:
    """The rows read into ``values`` and ``codes``, as arrays that share their buffers."""
    n_features = width if label_idx is None else width - 1
    data = np.frombuffer(values, dtype=np.float64).reshape(-1, n_features)
    labels = None if label_idx is None else np.frombuffer(codes, dtype=np.int64)
    return LabeledDataset(data=data, labels=labels, name=path.stem)


def _label_index(path, label_column, header, width):
    """The 0-based index of ``label_column`` among ``width`` columns, or None."""
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
        # a header may be wider than the rows
        if not 0 <= label_idx < width:
            raise ValueError(f"label column index {label_idx} out of range for {width} columns")
    if label_idx is not None and width < 2:
        raise ValueError(f"{path}: no feature columns left after removing the label column")
    return label_idx


def _bad_cell(path, lineno, features, label_idx) -> ValueError:
    """The error naming the first of a row's ``features`` (its cells without
    the label at ``label_idx``) that float() rejects or reads as NaN or infinite."""
    for col, cell in enumerate(features):
        try:
            problem = None if math.isfinite(float(cell)) else "not finite"
        except ValueError:
            problem = "not numeric"
        if problem is not None:
            if label_idx is not None and col >= label_idx:
                col += 1
            return ValueError(f"{path}: line {lineno}, column {col + 1}: "
                              f"{problem}: {cell.strip()!r}")


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
    load/write cycle preserves every value exactly. Labels must be whole
    numbers and are written as integers; every check runs before the file is
    opened.
    """
    data = as_data_matrix(data, "data")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (data.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {data.shape[0]} rows")
        labels = _whole_labels(labels.tolist())
    if header is None:
        header = [f"x{i}" for i in range(data.shape[1])]
        if labels is not None:
            header = header + ["label"]
    expected = data.shape[1] + (0 if labels is None else 1)
    if len(header) != expected:
        raise ValueError(f"header has {len(header)} names, expected {expected}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, data, labels)


def _write_rows(fh, data, labels=None) -> None:
    """Append the rows of a checked float64 matrix to the open file ``fh``,
    each followed by its label from the list of ints ``labels``, if given."""
    for start in range(0, data.shape[0], _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        lines = [",".join(map(repr, row)) for row in data[rows].tolist()]
        if labels is not None:
            lines = [f"{line},{label}" for line, label in zip(lines, labels[rows])]
        fh.write("\n".join(lines) + "\n")


def _whole_labels(values) -> list[int]:
    """Each label as an int; a label that is not a whole number is a
    ValueError naming its row, where int() would truncate it or fail unnamed."""
    cells = []
    for row, value in enumerate(values):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        # bool is an int subclass, written as 0 or 1
        if not isinstance(value, int):
            raise ValueError(f"labels must be whole numbers; row {row} holds {value!r}")
        cells.append(int(value))
    return cells
