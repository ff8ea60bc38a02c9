"""The package's public names: exactly these, each one importable, and none
writing into the arrays a caller passes it."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

import cbmap
from _util import lifted_roll

PUBLIC = {
    "CbmapConfig", "CbmapModel", "ClusterAssignment", "FitResult", "HoldoutSpec",
    "KmeansConfig", "LabeledDataset", "MetricReport", "PcaModel", "__version__",
    "assign_labels", "euclidean_distance_matrix", "evaluate", "fit", "global_score",
    "kmeans_fit", "knn_accuracy", "load_csv", "load_model", "make_cuboids", "make_s_curve",
    "make_severed_sphere", "make_swiss_roll", "pca_fit", "pca_transform", "save_model",
    "transform", "write_csv", "zscore_normalize",
}
# the descent's unchecked machinery, reached through cbmap.membership only
MEMBERSHIP = ("frobenius_loss", "loss_gradient", "membership_matrix", "sigma_high", "sigma_low")


def test_all_is_exactly_the_public_names():
    assert len(cbmap.__all__) == len(set(cbmap.__all__))
    assert set(cbmap.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in cbmap.__all__ if not hasattr(cbmap, name)] == []
    scope = {}
    exec("from cbmap import *", scope)
    assert set(scope) - {"__builtins__"} == PUBLIC


def test_membership_helpers_live_in_their_module_only():
    membership = importlib.import_module("cbmap.membership")
    assert [name for name in MEMBERSHIP if hasattr(cbmap, name)] == []
    assert all(callable(getattr(membership, name)) for name in MEMBERSHIP)


def _read_only(*arrays):
    out = [np.array(a) for a in arrays]
    for a in out:
        a.setflags(write=False)
    return out


@pytest.mark.parametrize("d", [3, 16])
def test_entry_points_take_read_only_arrays_and_give_the_same_bytes(d):
    # an in-place write into a caller's array, or into a model's, raises on a
    # read-only one; 2,500 rows descend a sample and place the rest, and 16
    # columns take the matrix-product distances
    roll = cbmap.make_swiss_roll(2500, seed=0)
    x = roll.data if d == 3 else lifted_roll(2500, d, seed=0)
    cfg = cbmap.CbmapConfig(n_clusters=10, max_iter=20)

    def outputs(x, model, labels, y):
        fitted = cbmap.fit(x, cfg)
        clusters = cbmap.kmeans_fit(x, cbmap.KmeansConfig(k=10))
        report = cbmap.evaluate(x, y, labels)
        return [fitted.embedding, fitted.loss_history, fitted.labels, fitted.sample,
                fitted.model.centers_high, fitted.model.centers_low,
                cbmap.transform(model, x[::7], iters=20), clusters.centers, clusters.labels,
                np.array([clusters.inertia, report.global_score, report.knn_accuracy])]

    fitted = cbmap.fit(x, cfg)
    model = replace(fitted.model, feature_scaler=(x.mean(axis=0), x.std(axis=0)))
    want = outputs(x, model, roll.labels, fitted.embedding)
    frozen_x, high, low, mean, std, labels, y = _read_only(
        x, model.centers_high, model.centers_low, *model.feature_scaler, roll.labels,
        fitted.embedding)
    frozen = replace(model, centers_high=high, centers_low=low, feature_scaler=(mean, std))
    got = outputs(frozen_x, frozen, labels, y)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
