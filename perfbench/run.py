"""cbmap benchmark: one closed-loop client runs setup -> fit -> transform -> evaluate.

Run from the repository root:

    python3 perfbench/run.py --workload roll --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

A run makes its inputs from ``--seed``. One untimed pass warms caches and,
without ``--trace``, measures peak traced memory. Timed passes follow, back
to back in this one thread, until ``--seconds`` is used up, and each stage
time is the median over them. The inputs are set up again before every
timed pass; ``setup_s`` is the median of these set-ups. Every output is
checked; a failed check counts as a failed operation and the run goes on.
With ``--trace 1`` every other timed pass runs under the span tracer and the
run reports per-layer metrics instead. The last line of stdout is the JSON
result; the full record, including the host, is appended to ``--out`` for
``--compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
STAGES = ("fit_s", "transform_s", "evaluate_s")

END_TO_END_UNITS = {
    "setup_s": "s", "fit_s": "s", "transform_s": "s", "evaluate_s": "s", "pipeline_s": "s",
    "peak_mb": "MB", "global_score": "1", "knn_acc": "1", "oos_knn_acc": "1",
    "success_rate": "1",
}
_IMPORT_PROBE = "import time; t = time.perf_counter(); import cbmap; print(time.perf_counter() - t)"


def _cap_blas_threads() -> None:
    """Let BLAS use at most one thread per available core; must precede importing numpy."""
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            value = 0
        if not 1 <= value <= NPROC:
            os.environ[var] = str(NPROC)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _import_seconds() -> float:
    """Time ``import cbmap`` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=SRC,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload and return (metrics, record) for the result line and file."""
    from tracing import Tracer
    from workloads import run_pass

    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"work-{workload.name}-") as tmp:
        workdir = Path(tmp)
        setup_times = []

        def set_up():
            imported = _import_seconds()
            start = time.perf_counter()
            inputs = workload.setup(seed, workdir)
            setup_times.append(imported + time.perf_counter() - start)
            return inputs

        inputs = set_up()
        passes = [run_pass(workload, inputs, seed, workdir, measure_memory=not trace)]
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            if trace and len(traced) <= len(plain):
                with Tracer() as tracer:
                    workload.setup(seed, workdir)
                    res = run_pass(workload, inputs, seed, workdir)
                traced.append((res, tracer))
            else:
                # set-up is sampled between passes, so that its median spans the
                # same stretch of host load as the stage medians
                set_up()
                plain.append(run_pass(workload, inputs, seed, workdir))
            done = len(plain) + len(traced)
            elapsed = time.perf_counter() - start
            if (done >= MIN_PASSES and plain and (traced or not trace)
                    and elapsed + elapsed / done > seconds):
                break
    passes += plain + [res for res, _ in traced]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "passes": {"timed": len(plain), "traced": len(traced)},
        "attempted": attempted, "failed": failed,
        "errors": sorted({e for p in passes for e in p.errors}),
    }
    if trace:
        metrics, record["oos_only"], record["absent"], record["notes"] = _per_layer(
            workload, plain, traced)
        spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
        spans_path.write_text(json.dumps({
            "workload": workload.name, "seed": seed,
            "fields": ["name", "start", "end", "parent", "computed_mb"],
            "passes": [tracer.spans for _, tracer in traced]}))
        record["spans_file"] = str(spans_path)
    else:
        metrics = {"setup_s": _median(setup_times)}
        for stage in STAGES:
            metrics[stage] = _median([p.wall[stage] for p in plain if stage in p.wall])
        metrics["pipeline_s"] = _median([p.pipeline_s for p in plain])
        metrics["peak_mb"] = passes[0].peak_mb or 0.0
        for name in ("global_score", "knn_acc", "oos_knn_acc"):
            metrics[name] = _median([p.quality[name] for p in plain if name in p.quality])
        metrics["success_rate"] = 1.0 - failed / attempted
        record["samples"] = {"setup_s": setup_times,
                             **{stage: [p.wall.get(stage) for p in plain] for stage in STAGES}}
    return metrics, record


def _per_layer(workload, plain, traced):
    """Per-layer medians over the traced passes, oos-only extras, absent names and notes."""
    from tracing import LAYER_METRICS, OOS_ONLY_METRICS, SPLIT_BY_CALLER, layer_metrics

    per_pass = []
    for res, tracer in traced:
        values = layer_metrics(tracer.spans, workload.fit_iters, workload.transform_iters)
        if res.loss_ratio is not None:
            values["embedder.fit.loss_ratio"] = res.loss_ratio
        per_pass.append(values)
    medians = {name: _median([v[name] for v in per_pass if name in v])
               for name in set().union(*per_pass)}
    wall = sum(p.pipeline_s for p in plain)
    cpu = sum(sum(p.cpu.values()) for p in plain)
    medians["process.cpu_per_wall"] = cpu / wall if wall else 0.0
    medians["trace.overhead_s"] = (_median([res.pipeline_s for res, _ in traced])
                                   - _median([p.pipeline_s for p in plain]))

    metrics = {name: medians[name] for name, *_ in LAYER_METRICS if name in medians}
    extra = {name: medians[name] for name, *_ in OOS_ONLY_METRICS if name in medians}
    absent = sorted({name for _, tracer in traced for name in tracer.absent}
                    | {name for name, *_ in LAYER_METRICS if name not in medians})
    top = sorted((v, k) for k, v in medians.items()
                 if k.endswith(".self_s") and k[:-len(".self_s")] not in SPLIT_BY_CALLER)[-3:]
    notes = ["largest self times: " + ", ".join(f"{k} {v:.4g} s" for v, k in reversed(top))]
    if medians.get("embedder.fit.total_s") and "clustering.kmeans_fit.total_s" in medians:
        share = medians["clustering.kmeans_fit.total_s"] / medians["embedder.fit.total_s"]
        notes.append(f"k-means share of traced fit time: {share:.1%}")
    notes.append("untraced stage medians: " + ", ".join(
        f"{stage} {_median([p.wall[stage] for p in plain if stage in p.wall]):.4g} s"
        for stage in STAGES))
    return metrics, extra, absent, notes


def _openblas_runtime():
    """OpenBLAS build string and thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(errors="replace"), int(get_threads())
    return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_record(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    runtime, threads = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "runtime": runtime, "threads_used": threads},
        "nproc": NPROC,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def _quartiles(values):
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _load_results(path) -> dict:
    """{workload: {metric: [value per run]}} from a results file."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                into = runs.setdefault(rec["workload"], {})
                for name, metric in rec["metrics"].items():
                    into.setdefault(name, []).append(metric["value"])
    return runs


def compare(base_path, new_path) -> int:
    """Print each metric's median and quartiles per workload against BENCHMARK.json.

    A change counts as worse when the new median is worse than the base
    median by more than the metric's bound, and as unresolved when the base
    runs spread wider than the bound and not every new run reads better than
    every base run. Exits 1 when any end-to-end metric got worse.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    base, new = _load_results(base_path), _load_results(new_path)
    any_worse = False
    for workload in sorted(set(base) | set(new)):
        print(f"== {workload}")
        print(f"{'metric':62} {'unit':>5} {'base median [q1, q3]':>32} "
              f"{'new median [q1, q3]':>32} {'worse by':>9} {'bound':>6}  verdict")
        for m in metrics:
            b = base.get(workload, {}).get(m["name"])
            n = new.get(workload, {}).get(m["name"])
            if not b or not n:
                continue
            bm, bq1, bq3 = _quartiles(b)
            nm, nq1, nq3 = _quartiles(n)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (nm - bm) / abs(bm) if bm else 0.0
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                all_better = all(sign * (x - y) < 0 for x in n for y in b)
                if worse > bound:
                    verdict = "WORSE"
                    any_worse = True
                elif bm and (bq3 - bq1) / abs(bm) > bound and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print(f"{m['name']:62} {m['unit']:>5} "
                  f"{f'{bm:.5g} [{bq1:.5g}, {bq3:.5g}]':>32} "
                  f"{f'{nm:.5g} [{nq1:.5g}, {nq3:.5g}]':>32} {worse:>+9.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}  {verdict}")
    return 1 if any_worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.jsonl",
                        help="results file the run's full record is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two results files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "cbmap" / "__init__.py").is_file():
        print(f"error: cbmap sources not found under {SRC}", file=sys.stderr)
        return 2

    _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from tracing import LAYER_METRICS, OOS_ONLY_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    host = host_record(args.workload, args.seed)
    metrics, record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), OUT_DIR)
    units = {name: unit for name, unit, *_ in LAYER_METRICS + OOS_ONLY_METRICS}
    units.update(END_TO_END_UNITS)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(host=host, correct=result["correct"], metrics=result["metrics"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} (+1 untimed warm-up pass)")
    print("host " + json.dumps(host))
    for name, metric in result["metrics"].items():
        print(f"  {name:62} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in record.get("oos_only", {}).items():
        print(f"  {name:62} {value:>14.6g} {units[name]}  (oos only)")
    for name in record.get("absent", []):
        print(f"  {name:62} {'absent':>14}")
    print(f"operations: attempted {record['attempted']}, failed {record['failed']}, "
          f"error_rate {record['failed'] / record['attempted']:.6g}")
    for error in record["errors"][:20]:
        print(f"  error: {error}")
    for note in record.get("notes", []):
        print(note)
    if "spans_file" in record:
        print(f"spans: {record['spans_file']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
