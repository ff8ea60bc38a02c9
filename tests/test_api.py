"""The package's public names: exactly these, each one importable."""

import importlib

import cbmap

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
