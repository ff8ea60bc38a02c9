"""The entry points' ufunc-buffer scope: the caller's size comes back, and the
outputs do not depend on the size."""

from dataclasses import replace

import numpy as np
import pytest

import cbmap
from cbmap import clustering, embedder, linalg_core, metrics
from cbmap.clustering import KmeansConfig, kmeans_fit
from cbmap.linalg_core import apply_scaler, fit_scaler

from _util import lifted_roll, two_blobs

X, LABELS = two_blobs(n_per=30)


@pytest.fixture(scope="module")
def model():
    return cbmap.fit(X, cbmap.CbmapConfig(n_clusters=4, max_iter=5)).model


# each entry point, with the module whose as_data_matrix it calls
ENTRY_POINTS = {
    "fit": (embedder, lambda model: cbmap.fit(X, cbmap.CbmapConfig(n_clusters=4, max_iter=5))),
    "transform": (embedder, lambda model: cbmap.transform(model, X, iters=3)),
    "kmeans_fit": (clustering, lambda model: kmeans_fit(X, KmeansConfig(k=4))),
    "evaluate": (metrics, lambda model: cbmap.evaluate(X, X[:, :2], LABELS)),
    "global_score": (metrics, lambda model: cbmap.global_score(X, X[:, :2])),
    "knn_accuracy": (metrics, lambda model: cbmap.knn_accuracy(X[:, :2], LABELS)),
}


@pytest.fixture(params=[None, 4096], ids=["numpy_default", "caller_4096"])
def caller_bufsize(request):
    before = np.getbufsize()
    if request.param is not None:
        np.setbufsize(request.param)
    try:
        yield np.getbufsize()
    finally:
        np.setbufsize(before)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_callers_size_comes_back(name, model, caller_bufsize):
    ENTRY_POINTS[name][1](model)
    assert np.getbufsize() == caller_bufsize


@pytest.mark.parametrize("call", [
    lambda model: cbmap.fit(X, cbmap.CbmapConfig(n_clusters=4, out_dim=3)),
    lambda model: cbmap.transform(model, X[:, :2]),
], ids=["fit_out_dim", "transform_columns"])
def test_the_callers_size_comes_back_after_an_error(call, model, caller_bufsize):
    with pytest.raises(ValueError):
        call(model)
    assert np.getbufsize() == caller_bufsize


@pytest.mark.parametrize("size", [None, 2048], ids=["1024", "patched_2048"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_the_scope_is_in_force_inside_the_call(name, size, model, caller_bufsize, monkeypatch):
    if size is not None:
        monkeypatch.setattr(linalg_core, "_UFUNC_BUFSIZE", size)
    module, call = ENTRY_POINTS[name]
    seen = []

    def recording(*args, **kwargs):
        seen.append(np.getbufsize())
        return linalg_core.as_data_matrix(*args, **kwargs)

    monkeypatch.setattr(module, "as_data_matrix", recording)
    call(model)
    assert seen and set(seen) == {size or 1024}
    assert np.getbufsize() == caller_bufsize


def _model_bytes(model):
    return [model.centers_high, model.centers_low, np.array([model.sigma_high, model.sigma_low])]


def _fit_outputs(x, k, max_iter):
    result = cbmap.fit(x, cbmap.CbmapConfig(n_clusters=k, max_iter=max_iter, seed=2))
    return [result.embedding, result.loss_history, result.sample, result.labels,
            *_model_bytes(result.model)]


def _roll(n):
    return cbmap.make_swiss_roll(n, seed=5)


def _transforms():
    roll = _roll(5000)
    train, new = roll.data[:1500], roll.data[1500:]
    model = cbmap.fit(train, cbmap.CbmapConfig(n_clusters=20, max_iter=20, seed=1)).model
    scaler = fit_scaler(train)
    scaled = cbmap.fit(apply_scaler(train, *scaler),
                       cbmap.CbmapConfig(n_clusters=20, max_iter=20, seed=1)).model
    scaled = replace(scaled, feature_scaler=scaler)
    # 3,500 rows are more than one transform block at k = 20
    return [cbmap.transform(model, new, iters=20), cbmap.transform(scaled, new, iters=20)]


def _kmeans():
    outputs = []
    for x, k in ((_roll(5000).data, 40), (lifted_roll(1500, 16, seed=3), 20)):
        assignment = kmeans_fit(x, KmeansConfig(k=k, max_iters=20, seed=4))
        outputs += [assignment.centers, assignment.labels, np.array(assignment.inertia)]
    return outputs


def _evaluate():
    roll = _roll(1500)
    embedding = cbmap.fit(roll.data, cbmap.CbmapConfig(n_clusters=20, max_iter=20)).embedding
    report = cbmap.evaluate(roll.data, embedding, roll.labels)
    return [embedding, np.array([report.global_score, report.knn_accuracy])]


# the 5,000-row roll places the rows left out of the descent and runs
# mini-batch k-means; the 16-column roll takes the matrix-product distances
CASES = {
    "fit_roll_1500": lambda: _fit_outputs(_roll(1500).data, 20, 30),
    "fit_roll_5000": lambda: _fit_outputs(_roll(5000).data, 40, 10),
    "fit_lifted_16": lambda: _fit_outputs(lifted_roll(1500, 16, seed=3), 20, 30),
    "transform": _transforms,
    "kmeans_fit": _kmeans,
    "evaluate": _evaluate,
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_do_not_depend_on_the_buffer_size(case, monkeypatch):
    scoped = CASES[case]()
    monkeypatch.setattr(linalg_core, "_UFUNC_BUFSIZE", 8192)
    default = CASES[case]()
    assert len(scoped) == len(default)
    for a, b in zip(scoped, default):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
