"""Acceptance suite: ten criteria, one test per criterion.

The criteria keep their numbers C1-C6 and C8-C11; C7 compared the two
center starts that fit once offered, and fit now has only one.

Each test prints a single "[acceptance] C<i> ...: PASS/FAIL" line and then
asserts. Expensive fits are shared through module-scoped fixtures so the suite
stays within its runtime budgets.
"""

import json
import time

import numpy as np
import pytest

import cbmap
from cbmap import embedder
from cbmap.cli import main
from cbmap.linalg_core import (
    euclidean_distance_matrix,
    pca_fit,
    pca_transform,
    zscore_normalize,
)
from cbmap.membership import frobenius_loss, loss_gradient, membership_matrix
from cbmap.metrics import global_score, knn_accuracy


def _check(cid, description, ok):
    print(f"[acceptance] {cid} {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{cid} {description}"


def _timed_fit(x, cfg):
    start = time.perf_counter()
    result = cbmap.fit(x, cfg)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def toy_datasets():
    return {
        "s_curve": cbmap.make_s_curve(1000, seed=0),
        "swiss_roll": cbmap.make_swiss_roll(1000, seed=0),
        "sphere": cbmap.make_severed_sphere(1000, seed=0),
        "cuboids": cbmap.make_cuboids(1000, gap=2.0, seed=0),
    }


@pytest.fixture(scope="module")
def s_curve_fits(toy_datasets):
    x = toy_datasets["s_curve"].data
    k5 = _timed_fit(x, cbmap.CbmapConfig(n_clusters=5, seed=0))
    k20 = _timed_fit(x, cbmap.CbmapConfig(n_clusters=20, seed=0))
    return k5, k20


@pytest.fixture(scope="module")
def cuboid_fit(toy_datasets):
    return _timed_fit(toy_datasets["cuboids"].data, cbmap.CbmapConfig(n_clusters=20, seed=0))


@pytest.fixture(scope="module")
def k20_fits(toy_datasets):
    """The swiss roll and the sphere fitted with k=20 and the default settings."""
    return {name: cbmap.fit(toy_datasets[name].data, cbmap.CbmapConfig(n_clusters=20, seed=0))
            for name in ("swiss_roll", "sphere")}


def test_c01_pca_global_score_anchor(toy_datasets):
    worst = 0.0
    for ds in toy_datasets.values():
        start = time.perf_counter()
        embedding = pca_transform(pca_fit(ds.data, 2), ds.data)
        gs = global_score(ds.data, embedding)
        elapsed = time.perf_counter() - start
        worst = max(worst, abs(gs - 1.0))
        assert elapsed < 1.0, f"{ds.name} took {elapsed:.2f}s"
    _check("C1", "PCA embedding scores exactly 1 on every toy dataset", worst <= 1e-9)


def test_c02_s_curve_scores(s_curve_fits, toy_datasets):
    (fit5, time5), (fit20, time20) = s_curve_fits
    x = toy_datasets["s_curve"].data
    gs5 = global_score(x, fit5.embedding)
    gs20 = global_score(x, fit20.embedding)
    assert time5 < 30.0 and time20 < 30.0
    _check("C2", f"s_curve gs(k=5)={gs5:.4f} >= 0.90 and gs(k=20)={gs20:.4f} "
           "within 0.02 below it or better",
           gs5 >= 0.90 and gs20 >= gs5 - 0.02)


def test_c03_cuboids_scores(cuboid_fit, toy_datasets):
    result, elapsed = cuboid_fit
    ds = toy_datasets["cuboids"]
    acc = knn_accuracy(result.embedding, ds.labels)
    gs = global_score(ds.data, result.embedding)
    assert elapsed < 60.0
    _check("C3", f"cuboids acc={acc:.4f} >= 0.99 and gs={gs:.4f} >= 0.95",
           acc >= 0.99 and gs >= 0.95)


def test_c04_gap_tracking():
    # the embedding is z-scored before measuring: per-iteration center
    # normalization makes the raw embedding scale arbitrary, so only the
    # normalized frame can be compared across runs
    means = []
    for gap in (4.0, 2.0, 1.0, 0.25):
        ds = cbmap.make_cuboids(1000, gap=gap, seed=0)
        result = cbmap.fit(ds.data, cbmap.CbmapConfig(n_clusters=20, seed=0))
        embedding = zscore_normalize(result.embedding)
        centroids = np.array([embedding[ds.labels == j].mean(axis=0) for j in range(4)])
        dists = [np.linalg.norm(centroids[a] - centroids[b])
                 for a in range(4) for b in range(a + 1, 4)]
        means.append(np.mean(dists))
    _check("C4", "embedded centroid spacing decreases with the cuboid gap "
           + "(" + " > ".join(f"{v:.3f}" for v in means) + ")",
           bool(np.all(np.diff(means) < 0.0)))


def test_c05_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 50:
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 5))
        y = rng.normal(size=(n, 2))
        c = rng.normal(size=(k, 2))
        sigma = float(rng.uniform(0.5, 2.0))
        u_high = rng.uniform(0.05, 1.0, size=(n, k))

        def loss_at(points):
            d = euclidean_distance_matrix(points, c)
            return frobenius_loss(membership_matrix(d, sigma), u_high)

        loss = loss_at(y)
        if loss <= 0.01:
            continue
        u_low = membership_matrix(euclidean_distance_matrix(y, c), sigma)
        grad = loss_gradient(y, c, sigma, u_low.T, u_high.T, loss)
        h = 1e-5
        for i in range(n):
            for l in range(2):
                up = y.copy()
                up[i, l] += h
                down = y.copy()
                down[i, l] -= h
                fd = (loss_at(up) - loss_at(down)) / (2.0 * h)
                scale = max(abs(fd), 1e-8 / 1e-4)
                worst = max(worst, abs(grad[i, l] - fd) / scale)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"gradient check took {elapsed:.2f}s"
    _check("C5", f"analytic gradient matches finite differences at 50 random "
           f"configurations (worst rel err {worst:.2e})", worst <= 1e-4)


def test_c06_out_of_sample_consistency():
    roll = cbmap.make_swiss_roll(1000, seed=0)
    order = np.random.default_rng(0).permutation(1000)
    test_idx, train_idx = order[:200], order[200:]

    result = cbmap.fit(roll.data[train_idx], cbmap.CbmapConfig(n_clusters=20, seed=0))
    projected = cbmap.transform(result.model, roll.data[test_idx])

    train_labels = roll.labels[train_idx]
    acc_train = knn_accuracy(result.embedding, train_labels)

    dist = euclidean_distance_matrix(projected, result.embedding)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :3]
    correct = 0
    for row, want in zip(nearest, roll.labels[test_idx]):
        neighbors = train_labels[row]
        values, counts = np.unique(neighbors, return_counts=True)
        winners = values[counts == counts.max()]
        predicted = int(winners[0]) if winners.size == 1 else int(neighbors[0])
        correct += predicted == want
    acc_test = correct / len(test_idx)
    _check("C6", f"swiss-roll holdout accuracy {acc_test:.4f} within 0.05 of "
           f"train accuracy {acc_train:.4f}", abs(acc_train - acc_test) <= 0.05)


def test_c08_fit_time_scales_linearly_in_n():
    cfg = cbmap.CbmapConfig(n_clusters=20, seed=0)
    times = {}
    for n in (1000, 2000):
        x = cbmap.make_swiss_roll(n, seed=0).data
        times[n] = min(_timed_fit(x, cfg)[1] for _ in range(3))
    ratio = times[2000] / times[1000]
    _check("C8", f"doubling n multiplies fit time by {ratio:.2f} (expected 1.2..4.0)",
           1.2 <= ratio <= 4.0)


def test_c09_loss_descends_on_every_toy(s_curve_fits, cuboid_fit, k20_fits):
    runs = {
        "s_curve(k=5)": s_curve_fits[0][0],
        "s_curve(k=20)": s_curve_fits[1][0],
        "cuboids(k=20)": cuboid_fit[0],
        "swiss_roll(k=20)": k20_fits["swiss_roll"],
        "sphere(k=20)": k20_fits["sphere"],
    }
    ok = True
    for name, result in runs.items():
        history = result.loss_history
        final_ratio = history[-1] / history[0]
        window_drop = history[-50:].mean() <= history[:50].mean()
        if final_ratio > 0.9 or not window_drop:
            ok = False
        print(f"[acceptance]   C9 {name}: final/initial={final_ratio:.3f}, "
              f"tail<=head={window_drop}")
    _check("C9", "final loss <= 0.9x initial and tail mean <= head mean on "
           "every toy fit", ok)


def test_c10_commands_are_reproducible(tmp_path):
    def run_all(base):
        base.mkdir()
        data_csv = base / "data.csv"
        emb_csv = base / "emb.csv"
        proj_csv = base / "proj.csv"
        bench_json = base / "bench.json"
        plot_svg = base / "plot.svg"
        assert main(["generate", "s_curve", "--n", "400", "--seed", "3",
                     "-o", str(data_csv)]) == 0
        assert main(["fit", str(data_csv), "--k", "10", "--label-col", "label",
                     "--seed", "5", "-o", str(emb_csv)]) == 0
        assert main(["transform", str(base / "emb.model.json"), str(data_csv),
                     "--label-col", "label", "-o", str(proj_csv)]) == 0
        assert main(["benchmark", str(data_csv), "--k-list", "5", "--seeds", "0",
                     "--label-col", "label", "-o", str(bench_json)]) == 0
        assert main(["plot", str(emb_csv), "-o", str(plot_svg)]) == 0
        return data_csv, emb_csv, base / "emb.model.json", base / "emb.loss.csv", \
            proj_csv, bench_json, plot_svg

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")

    ok = True
    for a, b in zip(first, second):
        if a.suffix == ".json" and a.name == "bench.json":
            # wall-clock field aside, benchmark reports must agree exactly
            ea = json.loads(a.read_text())
            eb = json.loads(b.read_text())
            for entry in ea + eb:
                entry.pop("runtime_seconds")
            ok = ok and ea == eb
        else:
            ok = ok and a.read_bytes() == b.read_bytes()
    _check("C10", "both runs of every command produced byte-identical outputs "
           "(timing fields aside)", ok)


# (k, learning_rate) settings for C11: k from 10 to 80 and Adam's learning
# rate, the constant embedder.ADAM_LEARNING_RATE, from half to twice its
# value, with the default (20, 0.1) and the two
# settings where a 2000-row sweep of k in {10, 20, 40, 80} x learning_rate in
# {0.05, 0.1, 0.2} found the lowest gs, (10, 0.2) and (80, 0.2).
C11_GRID = ((10, 0.2), (20, 0.1), (40, 0.05), (80, 0.2))
# Bounds on max - min over C11_GRID, per dataset, as (gs, kNN accuracy): 1.5
# times the largest spread in a sweep of seeds 0-7 (data and fit seed alike),
# and for kNN at least 0.01, two of the 200 holdout points. The cuboids' gs
# bound is the widest because learning_rate=0.2 with k=10 ends seed 0 at gs
# 0.875, against 0.996-0.999 for the other settings.
C11_SPREAD_BOUNDS = {
    "s_curve": (0.017, 0.038),
    "swiss_roll": (0.017, 0.045),
    "sphere": (0.076, None),
    "cuboids": (0.19, 0.01),
}


def test_c11_scores_barely_depend_on_k_and_learning_rate(toy_datasets, s_curve_fits,
                                                          k20_fits, monkeypatch):
    datasets = {name: toy_datasets[name] for name in ("s_curve", "swiss_roll", "sphere")}
    datasets["cuboids"] = cbmap.make_cuboids(250, gap=2.0, seed=0)  # 1000 rows, as the others
    default_fits = {"s_curve": s_curve_fits[1][0], **k20_fits}
    ok = True
    for name, ds in datasets.items():
        gs, acc = [], []
        for k, lr in C11_GRID:
            if (k, lr) == (20, 0.1) and name in default_fits:
                result = default_fits[name]
            else:
                monkeypatch.setattr(embedder, "ADAM_LEARNING_RATE", lr)
                result = cbmap.fit(ds.data, cbmap.CbmapConfig(n_clusters=k, seed=0))
            gs.append(global_score(ds.data, result.embedding))
            if ds.labels is not None:
                acc.append(knn_accuracy(result.embedding, ds.labels))
        gs_bound, acc_bound = C11_SPREAD_BOUNDS[name]
        line = f"gs {min(gs):.4f}..{max(gs):.4f} (spread bound {gs_bound})"
        ok = ok and max(gs) - min(gs) <= gs_bound
        if acc:
            line += f", kNN {min(acc):.4f}..{max(acc):.4f} (spread bound {acc_bound})"
            ok = ok and max(acc) - min(acc) <= acc_bound
        print(f"[acceptance]   C11 {name}: {line}")
    _check("C11", f"gs and kNN spreads over {len(C11_GRID)} (k, learning_rate) settings stay "
           "within their seed-sweep bounds on every toy dataset", ok)
