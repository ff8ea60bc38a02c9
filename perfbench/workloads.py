"""Benchmark workloads: input generation, the staged pipeline and its output checks.

Every workload runs the same four stages, ``setup -> fit -> transform ->
evaluate``. The benchmark makes the inputs from the seed and hands the program
only arrays (``roll``, ``highdim``) or CSV files (``oos``). Each stage method
times only the call into cbmap; reading outputs back and checking them happen
outside the timed region.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cbmap
from cbmap import cli

# The C9 acceptance rule: a fit must cut its loss to at most this share of
# the first iteration's loss.
LOSS_DROP_LIMIT = 0.9
# Standard deviation of the isotropic noise added to a lifted roll.
LIFT_NOISE = 0.3
# Distances per block when voting neighbours for ``oos_knn_acc``; keeps the
# checker's scratch near 16 MB whatever the sizes.
_VOTE_ELEMS = 2_000_000


@dataclass
class Inputs:
    x_train: np.ndarray
    labels_train: np.ndarray
    x_new: np.ndarray
    labels_new: np.ndarray


@dataclass
class FitOutput:
    embedding: np.ndarray
    loss_history: np.ndarray


@dataclass
class PassResult:
    """One run of fit, transform and evaluate, with its checks applied."""

    wall: dict = field(default_factory=dict)  # stage name -> seconds
    cpu: dict = field(default_factory=dict)  # stage name -> process CPU seconds
    quality: dict = field(default_factory=dict)
    loss_ratio: float | None = None
    peak_mb: float | None = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall.values())


def _timed(fn, *args):
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args)
    return out, time.perf_counter() - wall, time.process_time() - cpu


def _split(data, labels, n_train: int) -> Inputs:
    return Inputs(data[:n_train], labels[:n_train], data[n_train:], labels[n_train:])


@dataclass(frozen=True)
class LibraryWorkload:
    """The library path: ``cbmap.fit`` on arrays, then ``cbmap.transform``.

    The fitted model goes through ``save_model``/``load_model`` between the
    two stages, as it does when a fit and a later projection run apart.
    ``lift_dim`` maps the 3-D roll into that many dimensions by a seeded
    orthonormal map plus ``LIFT_NOISE``; ``kmeans_max_iters`` caps the Lloyd
    passes so that every seed does the same clustering work.
    """

    name: str
    n_train: int
    n_new: int
    k: int
    fit_iters: int = 200
    transform_iters: int = 100
    lift_dim: int | None = None
    kmeans_max_iters: int | None = None

    def setup(self, seed: int, workdir: Path) -> Inputs:
        roll = cbmap.make_swiss_roll(self.n_train + self.n_new, seed=seed)
        data = roll.data
        if self.lift_dim is not None:
            rng = np.random.default_rng([seed, self.lift_dim])
            basis, _ = np.linalg.qr(rng.standard_normal((self.lift_dim, data.shape[1])))
            data = data @ basis.T + rng.normal(0.0, LIFT_NOISE, (data.shape[0], self.lift_dim))
        return _split(data, roll.labels, self.n_train)

    def _config(self, seed: int) -> cbmap.CbmapConfig:
        clustering = None
        if self.kmeans_max_iters is not None:
            clustering = cbmap.KmeansConfig(k=self.k, seed=seed, max_iters=self.kmeans_max_iters)
        return cbmap.CbmapConfig(n_clusters=self.k, max_iter=self.fit_iters, seed=seed,
                                 clustering=clustering)

    def fit(self, inputs: Inputs, seed: int, workdir: Path):
        def run():
            result = cbmap.fit(inputs.x_train, self._config(seed))
            cbmap.save_model(result.model, workdir / "model.json")
            return result

        result, wall, cpu = _timed(run)
        return FitOutput(result.embedding, result.loss_history), wall, cpu

    def transform(self, inputs: Inputs, seed: int, workdir: Path):
        def run():
            model = cbmap.load_model(workdir / "model.json")
            return cbmap.transform(model, inputs.x_new, iters=self.transform_iters)

        return _timed(run)


@dataclass(frozen=True)
class CliWorkload:
    """The CLI path, called in-process: ``cbmap fit`` then ``cbmap transform`` on CSVs."""

    name: str
    n_train: int
    n_new: int
    fit_iters: int = 200
    transform_iters: int = 100

    def setup(self, seed: int, workdir: Path) -> Inputs:
        roll = cbmap.make_swiss_roll(self.n_train + self.n_new, seed=seed)
        inputs = _split(roll.data, roll.labels, self.n_train)
        cbmap.write_csv(workdir / "train.csv", inputs.x_train, inputs.labels_train)
        cbmap.write_csv(workdir / "new.csv", inputs.x_new, inputs.labels_new)
        return inputs

    @staticmethod
    def _main(argv):
        rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"cbmap {argv[0]} exited with code {rc}")

    def fit(self, inputs: Inputs, seed: int, workdir: Path):
        _, wall, cpu = _timed(self._main, [
            "fit", workdir / "train.csv", "--k", "auto", "--label-col", "label",
            "--max-iter", self.fit_iters, "--seed", seed, "-o", workdir / "emb.csv"])
        out = FitOutput(_read_embedding(workdir / "emb.csv"),
                        np.loadtxt(workdir / "emb.loss.csv", delimiter=",", skiprows=1,
                                   usecols=1, ndmin=1))
        return out, wall, cpu

    def transform(self, inputs: Inputs, seed: int, workdir: Path):
        _, wall, cpu = _timed(self._main, [
            "transform", workdir / "emb.model.json", workdir / "new.csv", "--label-col", "label",
            "--iters", self.transform_iters, "-o", workdir / "proj.csv"])
        return _read_embedding(workdir / "proj.csv"), wall, cpu


def _read_embedding(path: Path) -> np.ndarray:
    """The ``e0, e1`` columns of a CLI output CSV (its last column is the label)."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1]


# Sizes keep one pass to a few seconds: on a shared 2-core host the time of
# identical work drifts by 10-20 %, so a run needs many short passes for a
# steady median.
WORKLOADS = {
    # 5000 rows is the smallest size at which the CLI's auto rule picks k=40
    # and k-means switches to its mini-batch driver.
    "roll": LibraryWorkload("roll", n_train=5000, n_new=1000, k=40),
    # Lloyd k-means (n < FULL_BATCH_LIMIT) capped at 10 passes per restart:
    # uncapped, the pass count swings 2x between seeds.
    "highdim": LibraryWorkload("highdim", n_train=1500, n_new=500, k=20, lift_dim=256,
                               kmeans_max_iters=10),
    # 8x as many rows projected as fitted.
    "oos": CliWorkload("oos", n_train=1000, n_new=8000),
}


def evaluate(inputs: Inputs, fitted: FitOutput):
    return _timed(cbmap.evaluate, inputs.x_train, fitted.embedding, inputs.labels_train)


def knn_vote_accuracy(query, query_labels, reference, reference_labels) -> float:
    """Share of query rows whose 3 nearest reference rows vote for their label.

    The vote follows acceptance criterion C6: neighbours ordered by distance
    and then by index, a majority over the 3 nearest labels, and a three-way
    tie broken by the nearest one. With three votes the second and third
    neighbours outvote the first only when they agree with each other.
    """
    block = max(1, _VOTE_ELEMS // reference.shape[0])
    correct = 0
    for start in range(0, query.shape[0], block):
        rows = query[start:start + block]
        dist = np.zeros((rows.shape[0], reference.shape[0]))
        for col in range(reference.shape[1]):
            dist += (rows[:, col, None] - reference[None, :, col]) ** 2
        nearest = np.argpartition(dist, 2, axis=1)[:, :3]
        order = np.lexsort((nearest, np.take_along_axis(dist, nearest, axis=1)))
        votes = reference_labels[np.take_along_axis(nearest, order, axis=1)]
        predicted = np.where(votes[:, 1] == votes[:, 2], votes[:, 1], votes[:, 0])
        correct += int(np.sum(predicted == query_labels[start:start + block]))
    return correct / query.shape[0]


def _embedding_problems(what, y, rows) -> list:
    y = np.asarray(y)
    if y.shape != (rows, 2):
        return [f"{what} has shape {y.shape}, expected {(rows, 2)}"]
    if not np.all(np.isfinite(y)):
        return [f"{what} has non-finite entries"]
    return []


def check_fit(workload, inputs: Inputs, fitted: FitOutput) -> list:
    problems = _embedding_problems("fit embedding", fitted.embedding, inputs.x_train.shape[0])
    history = np.asarray(fitted.loss_history)
    if history.shape != (workload.fit_iters,):
        problems.append(f"loss_history has shape {history.shape}, expected ({workload.fit_iters},)")
    elif not np.all(np.isfinite(history)):
        problems.append("loss_history has non-finite entries")
    elif not history[-1] <= LOSS_DROP_LIMIT * history[0]:
        problems.append(f"final loss {history[-1]:.4g} is above {LOSS_DROP_LIMIT} x "
                        f"initial loss {history[0]:.4g}")
    return problems


def check_transform(inputs: Inputs, projected) -> list:
    return _embedding_problems("projection", projected, inputs.x_new.shape[0])


def check_accuracy(name, value) -> list:
    return [] if 0.0 <= value <= 1.0 else [f"{name}={value} is outside [0, 1]"]


def check_report(report) -> list:
    problems = []
    if not 0.0 < report.global_score <= 1.0:
        problems.append(f"global_score={report.global_score} is outside (0, 1]")
    if report.knn_accuracy is None:
        problems.append("knn_accuracy is missing")
    else:
        problems += check_accuracy("knn_acc", report.knn_accuracy)
    return problems


def _stage(res: PassResult, name: str, fn, *args):
    res.attempted += 1
    try:
        out, wall, cpu = fn(*args)
    except Exception as exc:  # a failed operation is counted and the run goes on
        res.failed += 1
        res.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return None
    res.wall[f"{name}_s"] = wall
    res.cpu[f"{name}_s"] = cpu
    return out


def _judge(res: PassResult, name: str, problems: list) -> None:
    if problems:
        res.failed += 1
        res.errors += [f"{name}: {p}" for p in problems]


def run_pass(workload, inputs: Inputs, seed: int, workdir: Path,
             measure_memory: bool = False) -> PassResult:
    """Fit, transform and evaluate once, then check every output.

    With ``measure_memory`` the three stages run under ``tracemalloc`` and the
    pass records their peak traced allocation; its timings are then not
    representative and the caller does not report them.
    """
    res = PassResult()
    fitted = projected = report = None
    if measure_memory:
        tracemalloc.start()
    try:
        fitted = _stage(res, "fit", workload.fit, inputs, seed, workdir)
        if fitted is not None:
            projected = _stage(res, "transform", workload.transform, inputs, seed, workdir)
            report = _stage(res, "evaluate", evaluate, inputs, fitted)
        if measure_memory:
            res.peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        if measure_memory:
            tracemalloc.stop()
    if fitted is None:
        res.attempted += 2
        res.failed += 2
        res.errors.append("transform, evaluate: skipped because the fit failed")
        return res

    _judge(res, "fit", check_fit(workload, inputs, fitted))
    history = np.asarray(fitted.loss_history)
    if history.size:
        res.loss_ratio = float(history[-1] / history[0])
    if projected is not None:
        problems = check_transform(inputs, projected)
        if not problems:
            acc = knn_vote_accuracy(projected, inputs.labels_new, fitted.embedding,
                                    inputs.labels_train)
            res.quality["oos_knn_acc"] = acc
            problems = check_accuracy("oos_knn_acc", acc)
        _judge(res, "transform", problems)
    if report is not None:
        problems = check_report(report)
        if not problems:
            res.quality["global_score"] = report.global_score
            res.quality["knn_acc"] = float(report.knn_accuracy)
        _judge(res, "evaluate", problems)
    return res
