"""Command-line interface: generate | fit | transform | benchmark | plot.

Every command honors --seed, writes a JSON run manifest next to its outputs,
and is reproducible byte-for-byte for a fixed seed (manifest and benchmark
wall-clock fields excepted). Exit codes: 0 success, 1 runtime or data errors,
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .datasets import (
    load_csv,
    make_cuboids,
    make_s_curve,
    make_severed_sphere,
    make_swiss_roll,
    write_csv,
)
from .embedder import CbmapConfig, fit, load_model, save_model, transform
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


def _parse_label_column(value):
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _k_arg(value):
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {value!r}")


def _resolve_k(k, n_rows: int) -> int:
    if k == "auto":
        return AUTO_K_SMALL if n_rows < AUTO_K_THRESHOLD else AUTO_K_LARGE
    return int(k)


def _parse_int_list(text, what):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _peek_header(path):
    with open(path, encoding="utf-8") as fh:
        line = fh.readline().strip()
    return [cell.strip() for cell in line.split(",")] if line else []


def _write_manifest(out: Path, command: str, argv, config: dict, seed, outputs, elapsed: float):
    doc = {
        "command": command,
        "argv": list(argv),
        "config": config,
        "seed": seed,
        "outputs": [str(p) for p in outputs],
        "elapsed_s": elapsed,
    }
    path = out.with_name(out.name + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def render_scatter_svg(points, labels=None, size: int = 640) -> str:
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
    xpad = 0.05 * (xmax - xmin)
    ypad = 0.05 * (ymax - ymin)
    # zero-extent axes still need a visible box
    if xpad == 0.0:
        xpad = 0.5
    if ypad == 0.0:
        ypad = 0.5
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{max(1, round(size * height / width))}" '
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


def cmd_generate(args, argv) -> None:
    t0 = time.perf_counter()
    name = args.dataset
    if name == "cuboids":
        ds = make_cuboids(args.n_per, args.gap, args.seed)
    elif name == "sphere":
        if args.noise > 0:
            raise ValueError("the sphere generator does not support --noise")
        ds = make_severed_sphere(args.n, args.seed)
    elif name == "s_curve":
        ds = make_s_curve(args.n, args.noise, args.seed)
    else:
        ds = make_swiss_roll(args.n, args.noise, args.seed)
    out = Path(args.out)
    write_csv(out, ds.data, ds.labels)
    config = {
        "dataset": name,
        "n": args.n,
        "n_per": args.n_per,
        "gap": args.gap,
        "noise": args.noise,
    }
    _write_manifest(out, "generate", argv, config, args.seed, [out], time.perf_counter() - t0)
    if args.verbose:
        print(f"generate: wrote {ds.data.shape[0]} rows to {out}", file=sys.stderr)


def cmd_fit(args, argv) -> None:
    t0 = time.perf_counter()
    label_column = _parse_label_column(args.label_col)
    ds = load_csv(args.input, has_header=not args.no_header, label_column=label_column)
    x = ds.data
    scaler = None
    if args.standardize:
        scaler = fit_scaler(x)
        x = apply_scaler(x, *scaler)
    k = _resolve_k(args.k, x.shape[0])
    cfg = CbmapConfig(
        n_clusters=k,
        out_dim=args.dim,
        max_iter=args.max_iter,
        learning_rate=args.lr,
        center_init=args.init,
        seed=args.seed,
    )
    result = fit(x, cfg)

    out = Path(args.out)
    header = [f"e{i}" for i in range(args.dim)]
    if ds.labels is not None:
        header.append("label")
    write_csv(out, result.embedding, ds.labels, header=header)

    model_path = out.with_suffix(".model.json")
    save_model(replace(result.model, feature_scaler=scaler), model_path)

    loss_path = out.with_suffix(".loss.csv")
    with open(loss_path, "w", encoding="utf-8") as fh:
        fh.write("iteration,loss\n")
        for i, v in enumerate(result.loss_history):
            fh.write(f"{i},{float(v)!r}\n")

    config = {
        "input": str(args.input),
        "k": k,
        "dim": args.dim,
        "max_iter": args.max_iter,
        "lr": args.lr,
        "init": args.init,
        "standardize": args.standardize,
        "label_column": args.label_col,
        "has_header": not args.no_header,
    }
    _write_manifest(out, "fit", argv, config, args.seed,
                    [out, model_path, loss_path], time.perf_counter() - t0)
    if args.verbose:
        print(
            f"fit: k={k}, loss {result.loss_history[0]:.4f} -> {result.loss_history[-1]:.4f}, "
            f"wrote {out}",
            file=sys.stderr,
        )


def cmd_transform(args, argv) -> None:
    t0 = time.perf_counter()
    model = load_model(args.model)
    label_column = _parse_label_column(args.label_col)
    ds = load_csv(args.input, has_header=not args.no_header, label_column=label_column)
    x = ds.data
    if model.feature_scaler is not None:
        x = apply_scaler(x, *model.feature_scaler)
    y = transform(model, x, iters=args.iters, seed=args.seed)

    out = Path(args.out)
    header = [f"e{i}" for i in range(y.shape[1])]
    if ds.labels is not None:
        header.append("label")
    write_csv(out, y, ds.labels, header=header)
    config = {
        "model": str(args.model),
        "input": str(args.input),
        "iters": args.iters,
        "label_column": args.label_col,
        "has_header": not args.no_header,
    }
    _write_manifest(out, "transform", argv, config, args.seed, [out], time.perf_counter() - t0)
    if args.verbose:
        print(f"transform: embedded {y.shape[0]} rows to {out}", file=sys.stderr)


def cmd_benchmark(args, argv) -> None:
    t0 = time.perf_counter()
    label_column = _parse_label_column(args.label_col)
    ds = load_csv(args.input, has_header=not args.no_header, label_column=label_column)
    if args.k_list == "auto":
        ks = [_resolve_k("auto", ds.data.shape[0])]
    else:
        ks = _parse_int_list(args.k_list, "--k-list")
    seeds = _parse_int_list(args.seeds, "--seeds")
    entries = []
    for k in ks:
        for seed in seeds:
            cfg = CbmapConfig(
                n_clusters=k,
                out_dim=args.dim,
                max_iter=args.max_iter,
                learning_rate=args.lr,
                center_init=args.init,
                seed=seed,
            )
            start = time.perf_counter()
            result = fit(ds.data, cfg)
            runtime = time.perf_counter() - start
            report = evaluate(ds.data, result.embedding, ds.labels, runtime_seconds=runtime)
            entries.append({"k": k, "seed": seed, **report.to_dict()})
            if args.verbose:
                print(f"benchmark: k={k} seed={seed} gs={report.global_score:.4f}", file=sys.stderr)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
    config = {
        "input": str(args.input),
        "k_list": args.k_list,
        "seeds": args.seeds,
        "dim": args.dim,
        "max_iter": args.max_iter,
        "lr": args.lr,
        "init": args.init,
        "label_column": args.label_col,
        "has_header": not args.no_header,
    }
    _write_manifest(out, "benchmark", argv, config, None, [out], time.perf_counter() - t0)


def cmd_plot(args, argv) -> None:
    t0 = time.perf_counter()
    has_header = not args.no_header
    label_column = _parse_label_column(args.label_col)
    if label_column is None and has_header and "label" in _peek_header(args.input):
        label_column = "label"
    ds = load_csv(args.input, has_header=has_header, label_column=label_column)
    svg = render_scatter_svg(ds.data, ds.labels)
    out = Path(args.out)
    out.write_text(svg, encoding="utf-8")
    config = {"input": str(args.input), "label_column": args.label_col, "has_header": has_header}
    _write_manifest(out, "plot", argv, config, None, [out], time.perf_counter() - t0)
    if args.verbose:
        print(f"plot: wrote {out}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbmap",
        description="Cluster-anchored dimensionality reduction: generate toy data, "
        "fit embeddings, transform new points, benchmark, and plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--out", required=True, help="output path")
        p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("generate", help="write a toy dataset as CSV")
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("--n", type=int, default=1000, help="points to sample (non-cuboid datasets)")
    p.add_argument("--n-per", type=int, default=1000, help="points per cuboid")
    p.add_argument("--gap", type=float, default=2.0, help="face-to-face cuboid spacing")
    p.add_argument("--noise", type=float, default=0.0, help="coordinate noise std")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="embed a CSV and save the model")
    p.add_argument("input")
    p.add_argument("--k", type=_k_arg, required=True, help="number of clusters, or 'auto'")
    p.add_argument("--dim", type=int, default=2, help="embedding dimension")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--init", choices=("pca", "random"), default="pca")
    p.add_argument("--standardize", action="store_true", help="z-score features before fitting")
    p.add_argument("--label-col", default=None, help="label column name or 0-based index")
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="embed new rows with a saved model")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--label-col", default=None)
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--seed", type=int, default=None, help="defaults to the model's seed")
    common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("benchmark", help="fit over a (k, seed) grid and report metrics")
    p.add_argument("input")
    p.add_argument("--k-list", default="auto", help="comma-separated cluster counts, or 'auto'")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--init", choices=("pca", "random"), default="pca")
    p.add_argument("--label-col", default=None)
    p.add_argument("--no-header", action="store_true")
    common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("plot", help="render a 2-D embedding CSV as SVG")
    p.add_argument("input")
    p.add_argument("--label-col", default=None,
                   help="label column; defaults to 'label' when the header has one")
    p.add_argument("--no-header", action="store_true")
    common(p)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
