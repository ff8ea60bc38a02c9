"""Tests for k-means clustering and label assignment."""

import numpy as np
import pytest

from cbmap import clustering as cl
from _util import disk_blobs


@pytest.fixture(scope="module")
def blob_data():
    return disk_blobs([(0.0, 0.0), (10.0, 10.0)], n_per=50, radius=0.5, seed=1)


class TestAssignLabels:
    def test_point_on_center(self):
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 3.0]])
        assert cl.assign_labels([[9.0, 3.0]], centers)[0] == 2

    def test_tie_goes_to_smallest_index(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert cl.assign_labels([[0.0, 0.0]], centers)[0] == 0

    def test_matches_brute_force_argmin(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(10, 3))
        centers = rng.normal(size=(3, 3))
        expected = [
            min(range(3), key=lambda j: np.linalg.norm(x[i] - centers[j]))
            for i in range(10)
        ]
        np.testing.assert_array_equal(cl.assign_labels(x, centers), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cl.assign_labels(np.zeros((2, 3)), np.zeros((2, 2)))


class TestKmeansFit:
    def test_k_equals_n(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(8, 2))
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=8, mode="full"))
        assert out.inertia == pytest.approx(0.0, abs=1e-20)
        # every point is its own center, in some order
        assert sorted(map(tuple, out.centers)) == sorted(map(tuple, x))

    def test_k_one_gives_column_mean(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(20, 3))
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=1))
        np.testing.assert_allclose(out.centers, x.mean(axis=0, keepdims=True), atol=1e-12)
        assert np.all(out.labels == 0)

    def test_recovers_separated_blobs(self, blob_data):
        x, blob_id = blob_data
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=2, mode="full", seed=0))
        true_means = [x[blob_id == b].mean(axis=0) for b in (0, 1)]
        for center in out.centers:
            assert min(np.linalg.norm(center - tm) for tm in true_means) < 0.2
        # labels split exactly along the blobs, up to cluster renaming
        same_as_first = out.labels == out.labels[0]
        np.testing.assert_array_equal(same_as_first, blob_id == blob_id[0])

    def test_full_batch_centers_are_group_means(self, blob_data):
        x, _ = blob_data
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=2, mode="full", seed=0))
        for j in range(2):
            np.testing.assert_allclose(out.centers[j], x[out.labels == j].mean(axis=0),
                                       atol=1e-8)

    def test_lloyd_inertia_non_increasing(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(60, 2))
        trace = []
        cl._lloyd_once(x, 3, 50, np.random.default_rng(0), trace=trace)
        assert len(trace) >= 1
        assert np.all(np.diff(trace) <= 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_minibatch_agrees_with_full_on_blobs(self, blob_data, seed):
        x, _ = blob_data
        full = cl.kmeans_fit(x, cl.KmeansConfig(k=2, mode="full", seed=seed))
        mini = cl.kmeans_fit(x, cl.KmeansConfig(k=2, mode="minibatch", batch_size=32,
                                                seed=seed))
        np.testing.assert_array_equal(full.labels == full.labels[0],
                                      mini.labels == mini.labels[0])

    def test_minibatch_covers_every_cluster(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(400, 3))
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=10, mode="minibatch", batch_size=64, seed=2))
        assert set(np.unique(out.labels)) == set(range(10))

    def test_auto_mode_matches_full_batch_below_limit(self, blob_data):
        x, _ = blob_data
        auto = cl.kmeans_fit(x, cl.KmeansConfig(k=2, mode="auto", seed=3))
        full = cl.kmeans_fit(x, cl.KmeansConfig(k=2, mode="full", seed=3))
        np.testing.assert_array_equal(auto.labels, full.labels)
        np.testing.assert_array_equal(auto.centers, full.centers)

    def test_deterministic_for_fixed_seed(self, blob_data):
        x, _ = blob_data
        cfg = cl.KmeansConfig(k=4, seed=7)
        a = cl.kmeans_fit(x, cfg)
        b = cl.kmeans_fit(x, cfg)
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.inertia == b.inertia

    def test_labels_index_existing_centers(self, blob_data):
        x, _ = blob_data
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=5, seed=4))
        assert out.labels.min() >= 0
        assert out.labels.max() < out.centers.shape[0]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            cl.kmeans_fit(np.zeros((3, 2)), cl.KmeansConfig(k=4))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            cl.kmeans_fit(np.empty((0, 2)), cl.KmeansConfig(k=1))

    def test_more_clusters_than_distinct_points(self):
        # seeding falls back to uniform draws once every point sits on a
        # chosen center; the fit must still terminate with zero inertia
        x = np.array([[1.0, 1.0]] * 6 + [[4.0, 4.0]] * 6)
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=3, mode="full", seed=0))
        assert out.inertia == pytest.approx(0.0, abs=1e-20)


class TestUpdateCenters:
    def test_singleton_clusters_return_points(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = cl.update_centers(y, np.array([0, 1, 2]), np.zeros((3, 2)))
        np.testing.assert_array_equal(out, y)

    def test_two_point_cluster_mean(self):
        y = np.array([[0.0, 0.0], [2.0, 2.0]])
        out = cl.update_centers(y, np.array([0, 0]), np.zeros((1, 2)))
        np.testing.assert_array_equal(out, [[1.0, 1.0]])

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(41)
        y = rng.normal(size=(12, 2))
        labels = rng.integers(0, 4, size=12)
        labels[:4] = [0, 1, 2, 3]  # keep every cluster occupied
        out = cl.update_centers(y, labels, np.zeros((4, 2)))
        for j in range(4):
            np.testing.assert_allclose(out[j], y[labels == j].mean(axis=0), atol=1e-12)

    def test_absent_label_keeps_previous_center(self):
        y = np.array([[1.0, 1.0], [3.0, 3.0]])
        previous = np.array([[0.0, 0.0], [9.0, 9.0], [-5.0, -5.0]])
        out = cl.update_centers(y, np.array([0, 1]), previous)
        np.testing.assert_array_equal(out[2], previous[2])
        np.testing.assert_array_equal(out[0], y[0])


class TestKmeansConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "mode": "bogus"},
            {"k": 2, "batch_size": 0},
            {"k": 2, "max_iters": 0},
            {"k": 2, "n_init": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            cl.KmeansConfig(**kwargs)
