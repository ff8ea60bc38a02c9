"""Tests for the fit/transform loop, Adam, and model serialization."""

import copy
import json
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cbmap
from cbmap import embedder as em
from cbmap import membership as mb
from cbmap.clustering import KmeansConfig, assign_labels
from cbmap.linalg_core import euclidean_distance_matrix, row_blocks, zscore_normalize
from cbmap.metrics import global_score, knn_accuracy
from _util import two_blobs


@pytest.fixture(scope="module")
def blob_fit():
    data, _ = two_blobs(100, seed=10)
    return data, cbmap.fit(data, cbmap.CbmapConfig(n_clusters=4, seed=0))


class TestAdamUpdate:
    def test_zero_gradient_leaves_positions_unchanged(self):
        y = np.array([[1.0, -2.0], [0.5, 3.0]])
        out, state = em.adam_update(y, np.zeros_like(y), em.AdamState.zeros(y.shape), 1)
        np.testing.assert_array_equal(out, y)
        np.testing.assert_array_equal(state.mean, np.zeros_like(y))

    def test_first_step_magnitude_is_learning_rate(self):
        # with bias correction the first step is lr * g / (|g| + eps)
        y = np.array([[1.0]])
        out, _ = em.adam_update(y, np.array([[2.0]]), em.AdamState.zeros((1, 1)), 1)
        assert out[0, 0] == pytest.approx(1.0 - em.ADAM_LEARNING_RATE, abs=1e-6)

    def test_first_step_follows_gradient_sign(self):
        y = np.zeros((1, 2))
        grad = np.array([[3.0, -0.01]])
        out, _ = em.adam_update(y, grad, em.AdamState.zeros((1, 2)), 1)
        lr = em.ADAM_LEARNING_RATE
        np.testing.assert_allclose(out, [[-lr, lr]], atol=1e-6)

    def test_scalar_quadratic_descends(self):
        y = np.array([[1.0]])
        state = em.AdamState.zeros((1, 1))
        seen = [1.0]
        for step in range(1, 11):
            y, state = em.adam_update(y, 2.0 * y, state, step)
            seen.append(abs(y[0, 0]))
        assert np.all(np.diff(seen) < 0.0)

    def test_matches_the_textbook_formula_bit_for_bit(self):
        rng = np.random.default_rng(5)
        y, grad = rng.normal(size=(2, 500, 2))
        state = em.AdamState(rng.normal(size=(500, 2)), rng.uniform(size=(500, 2)))
        before = (state.mean.copy(), state.variance.copy())
        b1, b2 = em.ADAM_BETA1, em.ADAM_BETA2
        for t in (1, 2, 50, 1000):
            out, new = em.adam_update(y, grad, state, t)
            mean = b1 * state.mean + (1.0 - b1) * grad
            variance = b2 * state.variance + (1.0 - b2) * grad * grad
            expected = y - em.ADAM_LEARNING_RATE * (mean / (1.0 - b1**t)) / (
                np.sqrt(variance / (1.0 - b2**t)) + em.ADAM_EPS)
            for got, want in ((out, expected), (new.mean, mean), (new.variance, variance)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # the state passed in is left as it was
        np.testing.assert_array_equal(state.mean, before[0])
        np.testing.assert_array_equal(state.variance, before[1])

    def test_step_index_validated(self):
        with pytest.raises(ValueError, match="step_index"):
            em.adam_update(np.zeros((1, 1)), np.zeros((1, 1)),
                           em.AdamState.zeros((1, 1)), 0)


def _reference_step(y, centers_low, sigma, u_high, state, step_index):
    """The descent step composed from the public routines, distances first."""
    u_low = mb.membership_matrix(euclidean_distance_matrix(y, centers_low), sigma)
    loss = mb.frobenius_loss(u_low, u_high)
    grad = mb.loss_gradient(y, centers_low, sigma, u_low.T, u_high.T, loss)
    y, state = em.adam_update(y, grad, state, step_index)
    return y, state, loss


class TestDescentStep:
    def test_matches_the_composed_reference_over_50_steps(self):
        rng = np.random.default_rng(61)
        centers = zscore_normalize(rng.normal(size=(40, 2)))
        sigma = mb.sigma_low(centers)
        # enough rows for several distance and membership row blocks
        target = rng.normal(size=(3000, 2))
        u_high = mb.membership_matrix(euclidean_distance_matrix(target, centers), sigma)
        # the step takes its memberships centers x points
        u_high_cm = np.ascontiguousarray(u_high.T)
        y = ref = target + rng.normal(scale=0.5, size=target.shape)
        state = ref_state = em.AdamState.zeros(y.shape)
        losses = []
        for it in range(1, 51):
            y, state, loss = em._descent_step(y, centers, sigma, u_high_cm, state, it)
            ref, ref_state, ref_loss = _reference_step(ref, centers, sigma, u_high, ref_state,
                                                       it)
            assert abs(loss - ref_loss) <= 1e-12
            losses.append(loss)
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-10)
        assert losses[-1] < 0.5 * losses[0]


class TestInitEmbedding:
    def test_offsets_from_the_centers_have_the_start_noise_std(self):
        centers = np.array([[0.0, 0.0], [4.0, 1.0], [-3.0, 2.0]])
        labels = np.repeat([0, 1, 2], 300)
        offsets = em.init_embedding(labels, centers, seed=0) - centers[labels]
        # 1800 draws put the sample std within 5% of the std with room to spare
        assert abs(offsets.std() - em.INIT_NOISE_STD) <= 0.05 * em.INIT_NOISE_STD

    def test_cluster_means_stay_near_centers(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.repeat([0, 1], 200)
        y = em.init_embedding(labels, centers, seed=1)
        for j in (0, 1):
            mean = y[labels == j].mean(axis=0)
            assert (np.linalg.norm(mean - centers[j], ord=np.inf)
                    <= 3.0 * em.INIT_NOISE_STD / np.sqrt(200))

    def test_same_seed_reproduces(self):
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1])
        a = em.init_embedding(labels, centers, seed=5)
        b = em.init_embedding(labels, centers, seed=5)
        np.testing.assert_array_equal(a, b)


class TestFit:
    def test_blobs_loss_decreases_and_centers_track_clusters(self, blob_fit):
        data, result = blob_fit
        assert result.loss_history[-1] < result.loss_history[0]
        nearest = assign_labels(result.embedding, result.model.centers_low)
        agreement = np.mean(nearest == result.labels)
        assert agreement >= 0.95

    @pytest.mark.parametrize("seed", [1, 2])
    def test_blob_center_agreement_across_seeds(self, seed):
        data, _ = two_blobs(100, seed=10 + seed)
        result = cbmap.fit(data, cbmap.CbmapConfig(n_clusters=4, seed=seed))
        nearest = assign_labels(result.embedding, result.model.centers_low)
        assert np.mean(nearest == result.labels) >= 0.95

    def test_s_curve_global_score(self):
        data = cbmap.make_s_curve(1000, seed=0).data
        result = cbmap.fit(data, cbmap.CbmapConfig(n_clusters=5, seed=0))
        assert global_score(data, result.embedding) >= 0.90

    def test_cuboids_metrics(self):
        out = cbmap.make_cuboids(1000, gap=2.0, seed=0)
        result = cbmap.fit(out.data, cbmap.CbmapConfig(n_clusters=20, seed=0))
        assert knn_accuracy(result.embedding, out.labels) >= 0.99
        assert global_score(out.data, result.embedding) >= 0.95

    def test_result_shapes_and_finiteness(self, blob_fit):
        data, result = blob_fit
        assert result.embedding.shape == (data.shape[0], 2)
        assert result.loss_history.shape == (500,)
        assert np.all(np.isfinite(result.loss_history))
        assert np.all(result.loss_history >= 0.0)
        assert np.all(np.isfinite(result.model.centers_low))
        assert result.model.sigma_low > 0.0
        assert result.model.sigma_high > 0.0

    def test_labels_come_from_high_dim_clustering(self, blob_fit):
        data, result = blob_fit
        km = cbmap.kmeans_fit(data, KmeansConfig(k=4, seed=0))
        np.testing.assert_array_equal(result.labels, km.labels)
        np.testing.assert_array_equal(result.model.centers_high, km.centers)

    def test_uniform_rescaling_leaves_memberships_unchanged(self, blob_fit):
        data, base = blob_fit
        scaled = cbmap.fit(2.0 * data, cbmap.CbmapConfig(n_clusters=4, seed=0))

        def high_memberships(x, model):
            d = euclidean_distance_matrix(x, model.centers_high)
            return mb.membership_matrix(d, model.sigma_high)

        np.testing.assert_allclose(
            high_memberships(2.0 * data, scaled.model),
            high_memberships(data, base.model),
            atol=1e-10,
        )
        np.testing.assert_allclose(scaled.loss_history, base.loss_history, atol=1e-8)

    def test_deterministic_for_fixed_seed(self):
        data, _ = two_blobs(60, seed=12)
        cfg = cbmap.CbmapConfig(n_clusters=3, max_iter=120, seed=4)
        a = cbmap.fit(data, cfg)
        b = cbmap.fit(data, cfg)
        assert a.embedding.tobytes() == b.embedding.tobytes()
        assert a.loss_history.tobytes() == b.loss_history.tobytes()

    def test_pca_init_falls_back_when_k_too_small(self):
        data, _ = two_blobs(30, seed=14)
        with pytest.warns(UserWarning, match="falling back to random"):
            cbmap.fit(data, cbmap.CbmapConfig(n_clusters=2, max_iter=30, seed=0))

    def test_overflowing_input_is_a_named_error(self):
        data, _ = two_blobs(30, seed=15)
        cfg = cbmap.CbmapConfig(n_clusters=3, max_iter=20, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(cbmap.fit(data * 1e150, cfg).embedding))
            with pytest.raises(ValueError, match="squared distances overflow float64"):
                cbmap.fit(data * 1e160, cfg)

    @pytest.mark.parametrize("start, fails", [
        (1e150, False), (np.nextafter(1e150, np.inf), True), (-2e150, True),
    ], ids=["at-the-bound", "just-beyond", "beyond"])
    def test_step_that_leaves_positions_beyond_the_bound_is_named(self, start, fails):
        # the bound is the one the model reader puts on centers_low: a point
        # far out has memberships of 0 and a zero gradient, so it stays put
        centers = zscore_normalize(np.random.default_rng(3).normal(size=(4, 2)))
        sigma = mb.sigma_low(centers)
        y = np.array([[0.5, -0.5], [start, 1.0]])
        u_high = np.ascontiguousarray(
            mb.membership_matrix(euclidean_distance_matrix(y[:1], centers), sigma).T)
        u_high = np.hstack([u_high, np.zeros((4, 1))])
        state = em.AdamState.zeros(y.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not fails:
                out, _, _ = em._descent_step(y, centers, sigma, u_high, state, 1)
                assert out[1, 0] == start
                return
            with pytest.raises(ValueError, match=re.escape(
                    "the points lie beyond +-1e+150 after descent step 1")):
                em._descent_step(y, centers, sigma, u_high, state, 1)

    def test_memory_holds_about_two_membership_arrays(self):
        # the (k, n) high- and low-dimensional memberships, and beside them
        # only the descent's (n, 2) arrays and blocks of bounded size
        x = cbmap.make_swiss_roll(20_000, seed=0).data
        k, n = 40, x.shape[0]
        cbmap.fit(x[:500], cbmap.CbmapConfig(n_clusters=5, max_iter=2))  # one-time set-up
        tracemalloc.start()
        try:
            cbmap.fit(x, cbmap.CbmapConfig(n_clusters=k, max_iter=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.4 * k * n * 8

    def test_loop_checks_only_the_arrays_the_step_is_given(self, monkeypatch):
        # per iteration: the step's distance call (2) and loss_gradient (2),
        # and the bandwidth's distance call (2); the loop's own centers are
        # not checked again. The public z-score and bandwidth run once, at the start
        calls = {"check": 0, "zscore": 0, "sigma_low": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        check = counted("check", cbmap.linalg_core.as_data_matrix)
        for module in (cbmap.linalg_core, mb, em, cbmap.clustering):
            monkeypatch.setattr(module, "as_data_matrix", check)
        monkeypatch.setattr(em, "zscore_normalize", counted("zscore", zscore_normalize))
        monkeypatch.setattr(mb, "sigma_low", counted("sigma_low", mb.sigma_low))
        data, _ = two_blobs(60, seed=13)
        per_run = []
        for max_iter in (1, 3):
            calls.update(check=0, zscore=0, sigma_low=0)
            cbmap.fit(data, cbmap.CbmapConfig(n_clusters=4, max_iter=max_iter))
            per_run.append(dict(calls))
        assert (per_run[1]["check"] - per_run[0]["check"]) / 2 == 6
        assert all(run["zscore"] == 1 and run["sigma_low"] == 1 for run in per_run)

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            cbmap.fit(np.random.default_rng(0).normal(size=(5, 3)),
                      cbmap.CbmapConfig(n_clusters=6, seed=0))

    def test_out_dim_must_shrink(self):
        with pytest.raises(ValueError, match="out_dim"):
            cbmap.fit(np.random.default_rng(0).normal(size=(10, 2)),
                      cbmap.CbmapConfig(n_clusters=2, out_dim=2, seed=0))

    def test_clustering_k_must_agree(self):
        with pytest.raises(ValueError, match="disagrees"):
            cbmap.fit(np.random.default_rng(0).normal(size=(10, 3)),
                      cbmap.CbmapConfig(n_clusters=3, clustering=KmeansConfig(k=4)))


class TestCbmapConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_clusters": 1},
            {"n_clusters": 4, "out_dim": 0},
            {"n_clusters": 4, "max_iter": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            cbmap.CbmapConfig(**kwargs)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=f"^{_NEGATIVE_SEED}$"):
            cbmap.CbmapConfig(n_clusters=4, seed=-1)

    def test_center_init_is_not_a_setting(self):
        # fit starts from the PCA of the centers whenever n_clusters > out_dim
        with pytest.raises(TypeError, match="center_init"):
            cbmap.CbmapConfig(n_clusters=4, center_init="pca")


_NEGATIVE_SEED = "seed must be at least 0, got -1"
_FRACTION = r"test_fraction must lie in \(0, 1\), got "


@pytest.mark.parametrize("call, message", [
    (lambda: cbmap.make_s_curve(10, seed=-1), _NEGATIVE_SEED),
    (lambda: cbmap.make_swiss_roll(10, seed=-1), _NEGATIVE_SEED),
    (lambda: cbmap.make_severed_sphere(10, seed=-1), _NEGATIVE_SEED),
    (lambda: cbmap.make_cuboids(5, seed=-1), _NEGATIVE_SEED),
    (lambda: KmeansConfig(k=2, seed=-1), _NEGATIVE_SEED),
    (lambda: cbmap.HoldoutSpec(seed=-1), _NEGATIVE_SEED),
    (lambda: cbmap.HoldoutSpec(test_fraction=0.0), _FRACTION + "0.0"),
    (lambda: cbmap.HoldoutSpec(test_fraction=1), _FRACTION + "1"),
    (lambda: cbmap.HoldoutSpec(test_fraction=1.5), _FRACTION + "1.5"),
    (lambda: cbmap.HoldoutSpec(test_fraction=float("nan")), _FRACTION + "nan"),
], ids=["s_curve", "swiss_roll", "sphere", "cuboids", "kmeans", "holdout-seed",
        "fraction-0", "fraction-1", "fraction-1.5", "fraction-nan"])
def test_negative_seed_or_holdout_fraction_outside_0_1_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None, np.float64(2.0)])
@pytest.mark.parametrize("call, name", [
    (lambda v: cbmap.CbmapConfig(n_clusters=v), "n_clusters"),
    (lambda v: cbmap.CbmapConfig(n_clusters=4, out_dim=v), "out_dim"),
    (lambda v: cbmap.CbmapConfig(n_clusters=4, max_iter=v), "max_iter"),
    (lambda v: KmeansConfig(k=v), "k"),
    (lambda v: KmeansConfig(k=2, max_iters=v), "max_iters"),
    (lambda v: cbmap.transform(_golden_model(), np.zeros((2, 4)), iters=v), "iters"),
    (lambda v: knn_accuracy(np.zeros((10, 2)), np.arange(10) % 2, k=v), "k"),
    (lambda v: cbmap.make_s_curve(v), "n"),
    (lambda v: cbmap.make_swiss_roll(v), "n"),
    (lambda v: cbmap.make_severed_sphere(v), "n"),
    (lambda v: cbmap.make_cuboids(v), "n_per_cluster"),
    (lambda v: cbmap.CbmapConfig(n_clusters=4, seed=v), "seed"),
    (lambda v: KmeansConfig(k=2, seed=v), "seed"),
    (lambda v: cbmap.HoldoutSpec(seed=v), "seed"),
    (lambda v: cbmap.make_s_curve(10, seed=v), "seed"),
    (lambda v: cbmap.make_swiss_roll(10, seed=v), "seed"),
    (lambda v: cbmap.make_severed_sphere(10, seed=v), "seed"),
    (lambda v: cbmap.make_cuboids(5, seed=v), "seed"),
], ids=["n_clusters", "out_dim", "max_iter", "kmeans-k", "max_iters", "iters", "knn-k",
        "s_curve-n", "swiss_roll-n", "sphere-n", "cuboids-n", "config-seed", "kmeans-seed",
        "holdout-seed", "s_curve-seed", "swiss_roll-seed", "sphere-seed", "cuboids-seed"])
def test_count_that_is_not_a_whole_number_is_named(call, name, value):
    # numpy's own errors for these name no setting, True would count as 1,
    # and a None seed would draw a different seed from the OS on every run
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


class TestTransform:
    def test_training_data_maps_near_fit_embedding(self, blob_fit):
        data, result = blob_fit
        projected = cbmap.transform(result.model, data)
        fit_nearest = assign_labels(result.embedding, result.model.centers_low)
        new_nearest = assign_labels(projected, result.model.centers_low)
        assert np.mean(fit_nearest == new_nearest) >= 0.90

    def test_center_point_is_a_fixed_point(self, blob_fit):
        _, result = blob_fit
        model = result.model
        j = 2
        x_new = model.centers_high[j : j + 1]
        d = euclidean_distance_matrix(x_new, model.centers_high)
        u = mb.membership_matrix(d, model.sigma_high)
        assert int(np.argmax(u[0])) == j
        y = cbmap.transform(model, x_new)
        assert int(assign_labels(y, model.centers_low)[0]) == j

    def test_dimension_mismatch_names_both_widths(self, blob_fit):
        _, result = blob_fit
        with pytest.raises(ValueError, match="2 columns.*3"):
            cbmap.transform(result.model, np.zeros((4, 2)))

    @pytest.mark.parametrize("make", [cbmap.make_swiss_roll, cbmap.make_s_curve],
                             ids=["swiss_roll", "s_curve"])
    def test_each_row_lands_where_it_would_alone(self, make):
        data = make(700, seed=5).data
        model = cbmap.fit(data[:500], cbmap.CbmapConfig(n_clusters=20, max_iter=100,
                                                        seed=0)).model
        x = data[500:]
        whole = cbmap.transform(model, x)
        # matrix products may round differently for different row counts, so
        # the rows agree to rounding rather than bit for bit
        for i in range(0, len(x), 8):
            np.testing.assert_allclose(cbmap.transform(model, x[i:i + 1]), whole[i:i + 1],
                                       rtol=0.0, atol=1e-12)
        blocks = np.vstack([cbmap.transform(model, x[i:i + 37]) for i in range(0, len(x), 37)])
        np.testing.assert_allclose(blocks, whole, rtol=0.0, atol=1e-12)
        order = np.random.default_rng(0).permutation(len(x))
        np.testing.assert_allclose(cbmap.transform(model, x[order]), whole[order],
                                   rtol=0.0, atol=1e-12)

    def test_rows_across_block_boundaries_land_where_they_would_alone(self):
        roll = cbmap.make_swiss_roll(7500, seed=3)
        model = cbmap.fit(roll.data[:2000], cbmap.CbmapConfig(n_clusters=40, max_iter=30,
                                                              seed=0)).model
        x = roll.data[2000:]
        blocks = list(row_blocks(len(x), 40, em._TRANSFORM_CHUNKS))
        assert len(blocks) == 4
        whole = cbmap.transform(model, x, iters=20)
        # the rows on either side of each block boundary, and a sample of the rest
        edges = [b.start + i for b in blocks[1:] for i in (-2, -1, 0, 1)]
        for i in sorted({*edges, *range(0, len(x), 101)}):
            np.testing.assert_allclose(cbmap.transform(model, x[i:i + 1], iters=20),
                                       whole[i:i + 1], rtol=0.0, atol=1e-12)
        # blocks of another size cut every row from different neighbours
        parts = np.vstack([cbmap.transform(model, x[i:i + 1000], iters=20)
                           for i in range(0, len(x), 1000)])
        np.testing.assert_allclose(parts, whole, rtol=0.0, atol=1e-12)

    def test_iters_validated(self, blob_fit):
        _, result = blob_fit
        with pytest.raises(ValueError, match="iters"):
            cbmap.transform(result.model, np.zeros((2, 3)), iters=0)

    @pytest.mark.parametrize("field, scale, message", [
        ("sigma_low", 0.0, "bandwidths must be positive"),
        ("sigma_low", -1.0, "bandwidths must be positive"),
        ("centers_low", 1e200, "model field 'centers_low' has entries beyond +-1e+150"),
        ("sigma_low", 1e-200, "model field 'sigma_low' must be at least 1.492e-154"),
        ("sigma_high", 1e-200, "model field 'sigma_high' must be at least 1.492e-154"),
    ], ids=["zero-sigma-low", "negative-sigma-low", "centers-low-1e200", "tiny-sigma-low",
            "tiny-sigma-high"])
    def test_model_outside_the_reader_ranges_is_named(self, blob_fit, field, scale, message):
        # transform applies the model reader's range checks to a hand-built model
        data, result = blob_fit
        model = replace(result.model, **{field: getattr(result.model, field) * scale})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                cbmap.transform(model, data[:5])


class TestDegenerateData:
    """Inputs at the edge of the memberships' range still embed to finite points."""

    def test_transform_far_from_every_center(self, blob_fit):
        data, result = blob_fit
        model = result.model
        far = data[:20] + 1e4
        dist = euclidean_distance_matrix(far, model.centers_high)
        assert not np.any(mb.membership_matrix(dist, model.sigma_high))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(cbmap.transform(model, far)))

    def test_fit_on_duplicated_rows(self):
        data, _ = two_blobs(40, seed=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cbmap.fit(np.vstack([data, data]),
                               cbmap.CbmapConfig(n_clusters=4, max_iter=60, seed=0))
        assert np.all(np.isfinite(result.embedding))

    def test_fit_with_one_point_per_cluster(self):
        data, _ = two_blobs(10, seed=17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cbmap.fit(data, cbmap.CbmapConfig(n_clusters=len(data), max_iter=100,
                                                       seed=0))
        assert np.all(np.isfinite(result.embedding))
        assert result.loss_history[-1] < result.loss_history[0]


def _predict_knn(train_emb, train_labels, queries, k=3):
    """Brute-force majority vote with the nearest neighbor breaking ties."""
    dist = euclidean_distance_matrix(queries, train_emb)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    out = []
    for row in order:
        neighbors = train_labels[row]
        values, counts = np.unique(neighbors, return_counts=True)
        winners = values[counts == counts.max()]
        out.append(int(winners[0]) if winners.size == 1 else int(neighbors[0]))
    return np.array(out)


def test_swiss_roll_split_transform_matches_train_accuracy():
    roll = cbmap.make_swiss_roll(1000, seed=0)
    order = np.random.default_rng(0).permutation(1000)
    test_idx, train_idx = order[:200], order[200:]

    result = cbmap.fit(roll.data[train_idx], cbmap.CbmapConfig(n_clusters=20, seed=0))
    projected = cbmap.transform(result.model, roll.data[test_idx])

    train_labels = roll.labels[train_idx]
    acc_train = knn_accuracy(result.embedding, train_labels)
    predictions = _predict_knn(result.embedding, train_labels, projected)
    acc_test = np.mean(predictions == roll.labels[test_idx])
    assert abs(acc_train - acc_test) <= 0.05


class TestModelSerialization:
    def test_round_trip_is_exact(self, blob_fit, tmp_path):
        _, result = blob_fit
        path = tmp_path / "model.json"
        cbmap.save_model(result.model, path)
        loaded = cbmap.load_model(path)
        np.testing.assert_array_equal(loaded.centers_high, result.model.centers_high)
        np.testing.assert_array_equal(loaded.centers_low, result.model.centers_low)
        assert loaded.sigma_high == result.model.sigma_high
        assert loaded.sigma_low == result.model.sigma_low
        assert loaded.feature_scaler is None

    def test_file_with_center_pca_basis_still_loads(self, blob_fit, tmp_path):
        # earlier writers stored the PCA basis of the high-dimensional centers
        data, result = blob_fit
        path = tmp_path / "model.json"
        cbmap.save_model(result.model, path)
        doc = json.loads(path.read_text())
        assert "center_pca" not in doc
        basis = cbmap.pca_fit(result.model.centers_high, 2)
        doc["center_pca"] = {"mean": basis.mean.tolist(),
                             "components": basis.components.ravel().tolist()}
        old = tmp_path / "old.model.json"
        old.write_text(json.dumps(doc))
        np.testing.assert_array_equal(
            cbmap.transform(cbmap.load_model(old), data[:10]),
            cbmap.transform(cbmap.load_model(path), data[:10]),
        )

    def test_reloaded_model_transforms_identically(self, blob_fit, tmp_path):
        data, result = blob_fit
        path = tmp_path / "model.json"
        cbmap.save_model(result.model, path)
        loaded = cbmap.load_model(path)
        np.testing.assert_array_equal(
            cbmap.transform(loaded, data[:10]), cbmap.transform(result.model, data[:10])
        )

    def test_version_mismatch_names_expected_version(self, blob_fit, tmp_path):
        _, result = blob_fit
        path = tmp_path / "model.json"
        cbmap.save_model(result.model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected 1"):
            cbmap.load_model(path)

    def test_corrupt_array_length_rejected(self, blob_fit, tmp_path):
        _, result = blob_fit
        path = tmp_path / "model.json"
        cbmap.save_model(result.model, path)
        doc = json.loads(path.read_text())
        doc["centers_high"] = doc["centers_high"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="centers_high"):
            cbmap.load_model(path)

    def test_missing_field_rejected(self, blob_fit, tmp_path):
        _, result = blob_fit
        path = tmp_path / "model.json"
        cbmap.save_model(result.model, path)
        doc = json.loads(path.read_text())
        del doc["sigma_high"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing field"):
            cbmap.load_model(path)

    def test_scaler_round_trips(self, blob_fit, tmp_path):
        _, result = blob_fit
        scaler = (np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, 2.5]))
        model = replace(result.model, feature_scaler=scaler)
        path = tmp_path / "model.json"
        cbmap.save_model(model, path)
        loaded = cbmap.load_model(path)
        np.testing.assert_array_equal(loaded.feature_scaler[0], scaler[0])
        np.testing.assert_array_equal(loaded.feature_scaler[1], scaler[1])


DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.model.json"
# The golden model as written with the whole fit config under "config": the
# CbmapConfig fields and, under "clustering", those of KmeansConfig, once while
# KmeansConfig still had mode, batch_size and n_init ("full", 64 and 2); and as
# written while transform still read init_noise_std and seed (0.25 and 11); and
# as written while the step size was the setting config.learning_rate (0.05).
OLD_GOLDENS = [DATA / "full_config.model.json", DATA / "old_clustering_keys.model.json",
               DATA / "noise_and_seed.model.json", DATA / "learning_rate.model.json"]


def _golden_model():
    """A small hand-built model whose file is pinned in ``tests/data``."""
    centers_high = np.array([[0.1, -2.5, 1.0 / 3.0, 1e-300],
                             [123456.789, -0.0, 5e-324, 2.0],
                             [-1.5e10, 0.7, 3.0, -4.25]])
    centers_low = np.array([[-1.224744871391589, 0.5], [0.0, -1.0], [1.224744871391589, 0.5]])
    scaler = (np.array([0.5, -1.0, 2.0, 1e10]), np.array([1.5, 0.0, 0.25, 3.0]))
    return cbmap.CbmapModel(centers_high=centers_high, centers_low=centers_low,
                            sigma_high=0.7071067811865476, sigma_low=1.25,
                            feature_scaler=scaler)


class TestModelFormat:
    def test_golden_file_is_reproduced(self, tmp_path):
        path = tmp_path / "model.json"
        cbmap.save_model(_golden_model(), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_golden_file_loads_and_saves_unchanged(self, tmp_path):
        expected = _golden_model()
        loaded = cbmap.load_model(GOLDEN)
        np.testing.assert_array_equal(loaded.centers_high, expected.centers_high)
        np.testing.assert_array_equal(loaded.centers_low, expected.centers_low)
        assert (loaded.sigma_high, loaded.sigma_low) == (expected.sigma_high, expected.sigma_low)
        for got, want in zip(loaded.feature_scaler, expected.feature_scaler):
            np.testing.assert_array_equal(got, want)
        path = tmp_path / "model.json"
        cbmap.save_model(loaded, path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("old", OLD_GOLDENS, ids=lambda path: path.name)
    def test_file_with_the_whole_fit_config_loads_transforms_and_saves_new(self, tmp_path, old):
        expected = _golden_model()
        loaded = cbmap.load_model(old)
        for got, want in zip(loaded.feature_scaler, expected.feature_scaler):
            np.testing.assert_array_equal(got, want)
        x = np.random.default_rng(0).normal(size=(20, 4)) * [1.0, 1.0, 1.0, 1e10]
        assert (cbmap.transform(loaded, x, iters=30).tobytes()
                == cbmap.transform(expected, x, iters=30).tobytes())
        path = tmp_path / "model.json"
        cbmap.save_model(loaded, path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("value", [1.25, 1, np.float32(1.25), np.int64(1)],
                             ids=["float", "int", "float32", "int64"])
    def test_numbers_of_any_type_save_as_plain_floats(self, tmp_path, value):
        path = tmp_path / "model.json"
        cbmap.save_model(replace(_golden_model(), sigma_low=value), path)
        assert f'"sigma_low": {float(value)!r},' in path.read_text()
        loaded = cbmap.load_model(path)
        assert loaded.sigma_low == float(value)
        again = tmp_path / "again.json"
        cbmap.save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("value", [0.05, -1, "x", True, float("nan")],
                             ids=["0.05", "negative", "string", "true", "nan"])
    def test_file_with_any_learning_rate_loads_and_transforms_as_without_it(self, tmp_path,
                                                                           value):
        # the step is fixed; the setting older writers stored is ignored
        doc = json.loads(GOLDEN.read_text())
        assert "learning_rate" not in doc["config"]
        doc["config"]["learning_rate"] = value
        old = tmp_path / "old.model.json"
        old.write_text(json.dumps(doc))  # a NaN is written as the bare literal
        x = np.random.default_rng(1).normal(size=(20, 4)) * [1.0, 1.0, 1.0, 1e10]
        assert (cbmap.transform(cbmap.load_model(old), x, iters=30).tobytes()
                == cbmap.transform(cbmap.load_model(GOLDEN), x, iters=30).tobytes())

    def test_cluster_count_from_a_numpy_sweep_saves_and_loads(self, tmp_path):
        data, _ = two_blobs(40, seed=3)
        for k in np.arange(3, 5):
            result = cbmap.fit(data, cbmap.CbmapConfig(n_clusters=k, max_iter=5, seed=0))
            path = tmp_path / f"k{k}.model.json"
            cbmap.save_model(result.model, path)
            doc = json.loads(path.read_text())
            assert type(doc["k"]) is int and doc["k"] == k
            assert cbmap.load_model(path).centers_high.shape[0] == k

    @pytest.mark.parametrize("changes, message", [
        ({"sigma_low": float("nan")}, "model field 'sigma_low' must be finite"),
        # a JSON true, null, list or string is not a number to the reader
        ({"sigma_low": True}, "model field 'sigma_low' must be float: True"),
        ({"sigma_low": np.True_}, "model field 'sigma_low' must be float: "),
        ({"sigma_high": None}, "model field 'sigma_high' must be float: None"),
        ({"sigma_high": [0.5]}, r"model field 'sigma_high' must be float: \[0.5\]"),
        ({"sigma_low": "1.25"}, "model field 'sigma_low' must be float: '1.25'"),
        ({"sigma_high": 0.0}, "bandwidths must be positive"),
        # what a fit of input scaled below 1e-154 makes
        ({"sigma_high": 1e-160}, "model field 'sigma_high' must be at least 1.492e-154"),
        ({"centers_high": np.where(np.eye(3, 4) > 0, np.nan, _golden_model().centers_high)},
         "model field 'centers_high' contains non-finite values"),
        ({"centers_low": _golden_model().centers_low[:2]},
         "model field 'centers_low' has 4 values, expected 6"),
        ({"feature_scaler": (np.zeros(3), np.ones(4))},
         "model field 'feature_scaler.mean' has 3 values, expected 4"),
    ], ids=["nan-sigma-low", "true-sigma-low", "numpy-true-sigma-low", "none-sigma-high",
            "list-sigma-high", "string-sigma-low", "zero-sigma-high", "tiny-sigma-high", "nan-center",
            "short-centers-low", "short-scaler"])
    def test_array_or_bandwidth_the_reader_rejects_fails_to_save(self, tmp_path, changes,
                                                                  message):
        path = tmp_path / "model.json"
        path.write_bytes(GOLDEN.read_bytes())
        with pytest.raises(ValueError, match=message):
            cbmap.save_model(replace(_golden_model(), **changes), path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    @pytest.mark.parametrize("path, value, message", [
        (("k",), 1, "model field 'k' must be at least 2, got 1"),
        (("d",), 0, "model field 'd' must be at least 1, got 0"),
        (("m",), 0, "model field 'm' must be at least 1, got 0"),
    ], ids=["k-1", "d-0", "m-0"])
    def test_setting_in_a_file_the_reader_rejects_is_named(self, tmp_path, path, value, message):
        # the ranges CbmapConfig enforces on the settings these fields come from
        doc = json.loads(GOLDEN.read_text())
        *parents, key = path
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{message}$"):
            cbmap.load_model(model_path)


def _paths(node, prefix=()):
    """The path of every key and list item in a JSON document, depth first."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_GOLDEN_DOC = json.loads(GOLDEN.read_text())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=8,
)
_HUGE = 10**400


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


class TestModelFileFuzz:
    @given(path=st.sampled_from(list(_paths(_GOLDEN_DOC))),
           action=st.sampled_from(("replace", "delete", "rename")), value=_JSON_VALUES)
    @example(path=("k",), action="replace", value=float("inf"))
    @example(path=("sigma_high",), action="replace", value=_HUGE)
    @example(path=("centers_low", 0), action="replace", value=_HUGE)
    @example(path=("k",), action="replace", value=5.7)
    # a key the format no longer defines, as older writers stored it
    @example(path=("config", "learning_rate"), action="replace", value=True)
    @example(path=("centers_high",), action="replace",
             value=np.reshape(_GOLDEN_DOC["centers_high"], (3, 4)).tolist())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_mutated_document_loads_or_is_rejected(self, model_file, path, action, value):
        doc = copy.deepcopy(_GOLDEN_DOC)
        *parents, key = path
        node = doc
        for name in parents:
            node = node[name]
        if action == "delete":
            del node[key]
        elif action == "rename" and isinstance(node, dict):
            node[key + "_"] = node.pop(key)
        else:
            node[key] = value
        model_file.write_text(json.dumps(doc))
        try:
            model = cbmap.load_model(model_file)
        except ValueError:
            return
        k, d = model.centers_high.shape
        assert model.centers_low.ndim == 2 and model.centers_low.shape[0] == k
        assert k >= 2 and d >= 1 and model.centers_low.shape[1] >= 1
        assert np.all(np.isfinite(model.centers_high)) and np.all(np.isfinite(model.centers_low))
        assert model.sigma_high > 0 and model.sigma_low > 0
        assert np.isfinite(model.sigma_high) and np.isfinite(model.sigma_low)
