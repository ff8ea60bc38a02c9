"""Command-line interface: generate | fit | transform | benchmark | plot.

Each command returns its settings and output paths, and ``main`` writes them
to a JSON run manifest next to the first output. Outputs are reproducible
byte-for-byte for a fixed seed (manifest and benchmark wall-clock fields
excepted). Exit codes: 0 success, 1 runtime or data errors,
2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
import time
import warnings
from contextlib import closing, contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .datasets import (
    _write_rows,
    load_csv,
    load_csv_blocks,
    make_cuboids,
    make_s_curve,
    make_severed_sphere,
    make_swiss_roll,
    write_csv,
)
from .embedder import (
    CbmapConfig,
    fit,
    load_model,
    save_model,
    transform,
    transform_block_rows,
)
from .linalg_core import apply_scaler, as_data_matrix, fit_scaler
from .metrics import evaluate

DATASET_NAMES = ("s_curve", "swiss_roll", "sphere", "cuboids")

AUTO_K_SMALL = 20
AUTO_K_LARGE = 40
AUTO_K_THRESHOLD = 5000

# Colorblind-safe 10-color cycle (Tableau's "Color Blind 10").
PALETTE = (
    "#006ba4", "#ff800e", "#ababab", "#595959", "#5f9ed1",
    "#c85200", "#898989", "#a2c8ec", "#ffbc79", "#cfcfcf",
)


def _k_arg(value):
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {value!r}")


def _seed_arg(value):
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value!r}")
    return seed


def _resolve_k(k, n_rows: int) -> int:
    if k == "auto":
        return AUTO_K_SMALL if n_rows < AUTO_K_THRESHOLD else AUTO_K_LARGE
    return int(k)


def _parse_int_list(text, what):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")
    if min(values) < 0:
        raise ValueError(f"{what} entries must be nonnegative, got {text!r}")
    return values


def _input_args(args, default_label=None):
    """``load_csv``'s keyword arguments for ``args.input`` as --label-col and
    --no-header ask, and the manifest's input fields.

    An integer --label-col is a 0-based column index, anything else a column
    name.
    """
    label = args.label_col
    if label is None:
        label = default_label
    else:
        try:
            label = int(label)
        except ValueError:
            pass
    return ({"has_header": not args.no_header, "label_column": label},
            {"input": str(args.input), "label_column": args.label_col,
             "has_header": not args.no_header})


def _read_input(args, default_label=None):
    """Load ``args.input``; returns the dataset and the manifest's input fields."""
    kwargs, source = _input_args(args, default_label)
    return load_csv(args.input, **kwargs), source


def _config(args, k, seed) -> CbmapConfig:
    return CbmapConfig(n_clusters=k, out_dim=args.dim, max_iter=args.max_iter, seed=seed)


def _embedding_header(dim, labeled) -> list:
    return [f"e{i}" for i in range(dim)] + (["label"] if labeled else [])


@contextmanager
def _replacing(*paths: Path):
    """Temporary paths beside ``paths``, one each, that replace them when the
    block ends, or are removed if the block raises; either way an incomplete
    output never takes the place of one of ``paths``. A path that names a
    directory is an error before the block runs, so it leaves no output."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmps = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def render_scatter_svg(points, labels=None) -> str:
    """Self-contained SVG scatter plot of a 2-D embedding.

    The viewBox equals the data range padded by 5% per axis, and points with
    the same label share one fill color from a colorblind-safe 10-color cycle.
    """
    pts = as_data_matrix(points, "points")
    if pts.shape[1] != 2:
        raise ValueError(
            f"scatter plots need a 2-column embedding, got {pts.shape[1]} columns; "
            "re-run fit with --dim 2"
        )
    xmin, ymin = (float(v) for v in pts.min(axis=0))
    xmax, ymax = (float(v) for v in pts.max(axis=0))
    # zero-extent axes still need a visible box
    xpad = 0.05 * (xmax - xmin) or 0.5
    ypad = 0.05 * (ymax - ymin) or 0.5
    x0, y0 = xmin - xpad, ymin - ypad
    width = (xmax - xmin) + 2.0 * xpad
    height = (ymax - ymin) + 2.0 * ypad
    radius = 0.008 * max(width, height)

    if labels is None:
        groups = [(None, np.arange(pts.shape[0]))]
    else:
        labels = np.asarray(labels)
        groups = [(int(c), np.flatnonzero(labels == c)) for c in np.unique(labels)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
        f'height="{max(1, round(640 * height / width))}" '
        f'viewBox="{x0} {y0} {width} {height}">',
        # flip the y axis so larger values render higher
        f'<g transform="matrix(1 0 0 -1 0 {2.0 * y0 + height})">',
    ]
    for slot, (_, idx) in enumerate(groups):
        parts.append(f'<g fill="{PALETTE[slot % len(PALETTE)]}">')
        for i in idx:
            parts.append(f'<circle cx="{pts[i, 0]:.6g}" cy="{pts[i, 1]:.6g}" r="{radius:.6g}"/>')
        parts.append("</g>")
    parts.extend(["</g>", "</svg>"])
    return "\n".join(parts) + "\n"


def cmd_generate(args):
    name = args.dataset
    if name in ("cuboids", "sphere") and args.noise != 0:
        raise ValueError(f"the {name} generator does not support --noise")
    if name == "cuboids":
        settings = {"n_per": args.n_per, "gap": args.gap}
        ds = make_cuboids(args.n_per, args.gap, args.seed)
    elif name == "sphere":
        settings = {"n": args.n}
        ds = make_severed_sphere(args.n, args.seed)
    else:
        settings = {"n": args.n, "noise": args.noise}
        make = make_s_curve if name == "s_curve" else make_swiss_roll
        ds = make(args.n, args.noise, args.seed)
    out = Path(args.out)
    write_csv(out, ds.data, ds.labels)
    if args.verbose:
        print(f"generate: wrote {ds.data.shape[0]} rows to {out}", file=sys.stderr)
    return {"dataset": name, **settings}, [out]


def cmd_fit(args):
    ds, source = _read_input(args)
    x = ds.data
    scaler = None
    if args.standardize:
        scaler = fit_scaler(x)
        x = apply_scaler(x, *scaler)
    k = _resolve_k(args.k, x.shape[0])
    result = fit(x, _config(args, k, args.seed))

    out = Path(args.out)
    model_path = out.with_suffix(".model.json")
    loss_path = out.with_suffix(".loss.csv")
    # all three outputs are written, or none: a model save_model rejects, or an
    # output path that names a directory, leaves none of them
    with _replacing(out, model_path, loss_path) as (out_tmp, model_tmp, loss_tmp):
        save_model(replace(result.model, feature_scaler=scaler), model_tmp)
        write_csv(out_tmp, result.embedding, ds.labels,
                  header=_embedding_header(args.dim, ds.labels is not None))
        with open(loss_tmp, "w", encoding="utf-8") as fh:
            fh.write("iteration,loss\n")
            for i, v in enumerate(result.loss_history):
                fh.write(f"{i},{float(v)!r}\n")
    descended = int(result.sample.size)
    if args.verbose:
        print(f"fit: k={k}, descended {descended} of {x.shape[0]} rows, loss "
              f"{result.loss_history[0]:.4f} -> {result.loss_history[-1]:.4f}, wrote {out}",
              file=sys.stderr)
    config = {**source, "k": k, "dim": args.dim, "max_iter": args.max_iter,
              "standardize": args.standardize, "descended_rows": descended}
    return config, [out, model_path, loss_path]


def cmd_transform(args):
    model = load_model(args.model)
    kwargs, source = _input_args(args)
    out = Path(args.out)
    # blocks of transform's own size keep every row's bits as in one whole-file call
    blocks = load_csv_blocks(args.input, transform_block_rows(model), **kwargs)
    written = 0
    with (closing(blocks), _replacing(out) as (tmp,),
          open(tmp, "w", newline="", encoding="utf-8") as fh):
        header = _embedding_header(model.centers_low.shape[1], kwargs["label_column"] is not None)
        fh.write(",".join(header) + "\n")
        for block in blocks:
            y = transform(model, block.data, iters=args.iters)
            _write_rows(fh, y, None if block.labels is None else block.labels.tolist())
            written += y.shape[0]
            if args.verbose:
                print(f"transform: {written} rows written", file=sys.stderr)
    if args.verbose:
        print(f"transform: embedded {written} rows to {out}", file=sys.stderr)
    return {**source, "model": str(args.model), "iters": args.iters}, [out]


def cmd_benchmark(args):
    ds, source = _read_input(args)
    if args.k_list == "auto":
        ks = [_resolve_k("auto", ds.data.shape[0])]
    else:
        ks = _parse_int_list(args.k_list, "--k-list")
    seeds = _parse_int_list(args.seeds, "--seeds")
    entries = []
    for k in ks:
        for seed in seeds:
            start = time.perf_counter()
            result = fit(ds.data, _config(args, k, seed))
            runtime = time.perf_counter() - start
            report = evaluate(ds.data, result.embedding, ds.labels)
            entries.append({"k": k, "seed": seed, "gs": report.global_score,
                            "acc": report.knn_accuracy, "runtime_seconds": runtime})
            if args.verbose:
                print(f"benchmark: k={k} seed={seed} gs={report.global_score:.4f}", file=sys.stderr)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
    config = {**source, "k_list": args.k_list, "seeds": args.seeds, "dim": args.dim,
              "max_iter": args.max_iter}
    return config, [out]


def cmd_plot(args):
    header = []
    if args.label_col is None and not args.no_header:
        # undecodable bytes and csv errors are left for load_csv to report with their line
        with open(args.input, newline="", encoding="utf-8", errors="replace") as fh:
            try:
                header = next((row for row in csv.reader(fh) if row), [])
            except csv.Error:
                pass
    ds, source = _read_input(args, "label" if "label" in map(str.strip, header) else None)
    out = Path(args.out)
    out.write_text(render_scatter_svg(ds.data, ds.labels), encoding="utf-8")
    if args.verbose:
        print(f"plot: wrote {out}", file=sys.stderr)
    return source, [out]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbmap",
        description="Cluster-anchored dimensionality reduction: generate toy data, "
        "fit embeddings, transform new points, benchmark, and plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--out", required=True, help="output path")
    output.add_argument("-v", "--verbose", action="store_true")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--label-col", default=None, help="label column name or 0-based index")
    table.add_argument("--no-header", action="store_true")
    descent = argparse.ArgumentParser(add_help=False)
    descent.add_argument("--dim", type=int, default=2, help="embedding dimension")
    descent.add_argument("--max-iter", type=int, default=500)

    p = sub.add_parser("generate", parents=[output], help="write a toy dataset as CSV")
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("--n", type=int, default=1000, help="points to sample (non-cuboid datasets)")
    p.add_argument("--n-per", type=int, default=1000, help="points per cuboid")
    p.add_argument("--gap", type=float, default=2.0, help="face-to-face cuboid spacing")
    p.add_argument("--noise", type=float, default=0.0,
                   help="coordinate noise std (s_curve and swiss_roll only)")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", parents=[output, table, descent],
                       help="embed a CSV and save the model")
    p.add_argument("input")
    p.add_argument("--k", type=_k_arg, required=True, help="number of clusters, or 'auto'")
    p.add_argument("--standardize", action="store_true", help="z-score features before fitting")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", parents=[output, table],
                       help="embed new rows with a saved model")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("--iters", type=int, default=300)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("benchmark", parents=[output, table, descent],
                       help="fit over a (k, seed) grid and report metrics")
    p.add_argument("input")
    p.add_argument("--k-list", default="auto", help="comma-separated cluster counts, or 'auto'")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("plot", parents=[output, table], help="render a 2-D embedding CSV as SVG",
                       description="Render a 2-D embedding CSV as SVG. Without --label-col, "
                       "a column headed 'label' colors the points.")
    p.add_argument("input")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    """Run one command and write its manifest next to its first output."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # one line per warning, in the style of the error lines
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            config, outputs = args.func(args)
            doc = {"command": args.command, "argv": list(argv), "config": config,
                   "seed": getattr(args, "seed", None), "outputs": [str(p) for p in outputs],
                   "elapsed_s": time.perf_counter() - t0}
            with open(f"{outputs[0]}.manifest.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
