"""Tests for k-means clustering and label assignment."""

import tracemalloc

import numpy as np
import pytest

from cbmap import clustering as cl
from cbmap.datasets import make_swiss_roll
from cbmap.linalg_core import _CHUNK_ELEMS, euclidean_distance_matrix
from _util import disk_blobs


@pytest.fixture(scope="module")
def blob_data():
    return disk_blobs([(0.0, 0.0), (10.0, 10.0)], n_per=50, radius=0.5, seed=1)


class TestAssignLabels:
    def test_point_on_center(self):
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 3.0]])
        assert cl.assign_labels([[9.0, 3.0]], centers)[0] == 2

    @pytest.mark.parametrize("d", [2, 16])
    def test_tie_goes_to_smallest_index(self, d):
        centers = np.zeros((3, d))
        centers[:, 0] = [2.0, 1.0, -1.0]
        assert cl.assign_labels(np.zeros((1, d)), centers)[0] == 1

    @pytest.mark.parametrize("d", [3, 16])
    def test_matches_brute_force_argmin(self, d):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(10, d))
        centers = rng.normal(size=(3, d))
        expected = [
            min(range(3), key=lambda j: np.linalg.norm(x[i] - centers[j]))
            for i in range(10)
        ]
        np.testing.assert_array_equal(cl.assign_labels(x, centers), expected)

    @pytest.mark.parametrize("d", [3, 16])
    def test_dimension_mismatch(self, d):
        with pytest.raises(ValueError, match="mismatch"):
            cl.assign_labels(np.zeros((2, d)), np.zeros((2, d - 1)))


def _tie_grid(d, offset, seed):
    """Integer rows and centers, half-integer centers, and rows exactly midway
    between two centers, all shifted by ``offset``.

    A whole-number offset of 1e6 keeps every product exact; 1e6 + 0.1 rounds
    the shifted values, so the expanded form carries real rounding error."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(-2, 3, size=(12, d)).astype(np.float64)
    centers[6:] /= 2.0
    pairs = rng.integers(0, 12, size=(60, 2))
    midway = (centers[pairs[:, 0]] + centers[pairs[:, 1]]) / 2.0
    grid = rng.integers(-2, 3, size=(140, d)).astype(np.float64)
    return np.vstack([grid, midway, centers]) + offset, centers + offset


class TestExpandedAssignment:
    """Above ``_EXPANDED_MIN_D`` columns labels come from a matrix product and
    must still be exactly the exact kernel's argmin, ties included."""

    @pytest.mark.parametrize("d", [16, 64, 256])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e6 + 0.1])
    @pytest.mark.parametrize("seed", range(3))
    def test_labels_equal_the_exact_kernel_on_tie_grids(self, monkeypatch, d, offset, seed):
        assert d >= cl._EXPANDED_MIN_D
        x, centers = _tie_grid(d, offset, seed)
        dist = euclidean_distance_matrix(x, centers)
        expected = np.argmin(dist, axis=1)
        nearest_two = np.sort(dist, axis=1)[:, :2]
        ties = int(np.sum(nearest_two[:, 0] == nearest_two[:, 1]))
        rechecked = []

        def exact(a, b):
            rechecked.append(len(a))
            return euclidean_distance_matrix(a, b)

        monkeypatch.setattr(cl, "euclidean_distance_matrix", exact)
        got = cl.assign_labels(x, centers)
        np.testing.assert_array_equal(got, expected)
        # every exactly tied row is rechecked; where the product is exact it
        # alone decides the rest
        assert 0 < ties <= sum(rechecked)
        assert offset % 1 or sum(rechecked) < len(x)

    @pytest.mark.parametrize("scale", [1e-160, 1e150, 1e200])
    def test_extreme_magnitudes_match_the_exact_kernel(self, scale):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(50, 16)) * scale
        centers = rng.normal(size=(7, 16)) * scale
        expected = np.argmin(euclidean_distance_matrix(x, centers), axis=1)
        np.testing.assert_array_equal(cl.assign_labels(x, centers), expected)

    def test_kmeans_fit_on_a_lifted_roll_is_bit_equal_to_the_exact_path(self, monkeypatch):
        roll = make_swiss_roll(600, seed=5).data
        rng = np.random.default_rng(6)
        basis, _ = np.linalg.qr(rng.standard_normal((32, 3)))
        x = roll @ basis.T + rng.normal(0.0, 0.3, (600, 32))
        cfg = cl.KmeansConfig(k=12, max_iters=20, seed=1)
        for limit in (601, 0):  # Lloyd on the 600 rows, then the mini-batch driver
            monkeypatch.setattr(cl, "FULL_BATCH_LIMIT", limit)
            monkeypatch.setattr(cl, "BATCH_SIZE", 128)
            fast = cl.kmeans_fit(x, cfg)
            monkeypatch.setattr(cl, "_EXPANDED_MIN_D", x.shape[1] + 1)
            exact = cl.kmeans_fit(x, cfg)
            monkeypatch.undo()
            assert fast.labels.tobytes() == exact.labels.tobytes()
            assert fast.centers.tobytes() == exact.centers.tobytes()
            assert fast.inertia == exact.inertia


class TestKmeansFit:
    def test_k_equals_n(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(8, 2))
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=8))
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
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=2, seed=0))
        true_means = [x[blob_id == b].mean(axis=0) for b in (0, 1)]
        for center in out.centers:
            assert min(np.linalg.norm(center - tm) for tm in true_means) < 0.2
        # labels split exactly along the blobs, up to cluster renaming
        same_as_first = out.labels == out.labels[0]
        np.testing.assert_array_equal(same_as_first, blob_id == blob_id[0])

    def test_full_batch_centers_are_group_means(self, blob_data):
        x, _ = blob_data
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=2, seed=0))
        for j in range(2):
            np.testing.assert_allclose(out.centers[j], x[out.labels == j].mean(axis=0),
                                       atol=1e-8)

    def test_lloyd_inertia_non_increasing(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(60, 2))
        # the same seeding each time, stopped after 0, 1, ... passes
        trace = [cl._lloyd_once(x, 3, passes, np.random.default_rng(0))[2]
                 for passes in range(12)]
        assert trace[-1] < trace[0]
        assert np.all(np.diff(trace) <= 1e-9)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 513])
    def test_blocked_inertia_is_bit_equal_to_the_whole_array_formula(self, extra):
        # 64 columns make blocks of 512 rows; the sizes straddle block edges
        d = 64
        n = 2 * (_CHUNK_ELEMS // d) + extra
        rng = np.random.default_rng(35)
        x = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        centers = rng.normal(size=(7, d))
        labels = rng.integers(0, 7, size=n)
        diff = centers[labels] - x
        assert cl._inertia(x, centers, labels) == float(np.einsum("ij,ij->i", diff, diff).sum())

    def test_reseeding_moves_centers_onto_the_whole_array_farthest_points(self):
        # three centers far from every row stay empty; each is moved in turn
        # onto the row farthest from its own center, over 2.5 blocks of rows
        d = 64
        n = 5 * (_CHUNK_ELEMS // d) // 2
        rng = np.random.default_rng(37)
        x = rng.normal(size=(n, d))
        centers = np.vstack([rng.normal(size=(2, d)), np.full((3, d), 1e3)])
        expected = centers.copy()
        for j in (2, 3, 4):
            labels = np.argmin(euclidean_distance_matrix(x, expected), axis=1)
            far = int(np.argmax(np.linalg.norm(x - expected[labels], axis=1)))
            expected[j] = x[far]
        got, labels = cl._reseed_empty(x, centers)
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(
            labels, np.argmin(euclidean_distance_matrix(x, expected), axis=1))

    def test_lloyd_memory_stays_below_half_the_input(self):
        # a centers[labels] copy, or a second (n, d) array of any kind, would
        # take the input's whole size
        x = np.random.default_rng(36).normal(size=(4000, 256))
        assert 4000 < cl.FULL_BATCH_LIMIT
        tracemalloc.start()
        try:
            cl.kmeans_fit(x, cl.KmeansConfig(k=8, max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2

    @pytest.mark.parametrize("seed", range(5))
    def test_minibatch_agrees_with_full_on_blobs(self, blob_data, seed, monkeypatch):
        x, _ = blob_data
        full = cl.kmeans_fit(x, cl.KmeansConfig(k=2, seed=seed))
        monkeypatch.setattr(cl, "FULL_BATCH_LIMIT", 0)
        monkeypatch.setattr(cl, "BATCH_SIZE", 32)
        mini = cl.kmeans_fit(x, cl.KmeansConfig(k=2, seed=seed))
        np.testing.assert_array_equal(full.labels == full.labels[0],
                                      mini.labels == mini.labels[0])

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_minibatch_equals_the_per_label_update(self, d, monkeypatch):
        def per_label(x, k, max_iters, rng):
            centers = cl._kmeans_plusplus(x, k, rng)
            counts = np.zeros(k)
            for _ in range(max_iters):
                batch = x[rng.choice(x.shape[0], size=cl.BATCH_SIZE, replace=False)]
                batch_labels = cl.assign_labels(batch, centers)
                for j in np.unique(batch_labels):
                    members = batch[batch_labels == j]
                    counts[j] += members.shape[0]
                    eta = members.shape[0] / counts[j]
                    centers[j] = (1.0 - eta) * centers[j] + eta * members.mean(axis=0)
            return cl._reseed_empty(x, centers)

        x = np.random.default_rng(d).normal(size=(300, d)) * [10.0**-i for i in range(d)]
        # a batch of 8 rows misses at least 4 of the 12 centers
        monkeypatch.setattr(cl, "BATCH_SIZE", 8)
        centers, labels, _ = cl._minibatch(x, 12, 40, np.random.default_rng(d))
        ref_centers, ref_labels = per_label(x, 12, 40, np.random.default_rng(d))
        assert centers.tobytes() == ref_centers.tobytes()
        assert labels.tobytes() == ref_labels.tobytes()

    def test_minibatch_covers_every_cluster(self, monkeypatch):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(400, 3))
        monkeypatch.setattr(cl, "FULL_BATCH_LIMIT", 0)
        monkeypatch.setattr(cl, "BATCH_SIZE", 64)
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=10, seed=2))
        assert set(np.unique(out.labels)) == set(range(10))

    @pytest.mark.parametrize("n", [cl.FULL_BATCH_LIMIT - 1, cl.FULL_BATCH_LIMIT])
    def test_the_row_count_picks_the_driver(self, n):
        x = np.random.default_rng(38).normal(size=(n, 2))
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=3, max_iters=5, seed=3))
        rng = np.random.default_rng(3)
        if n < cl.FULL_BATCH_LIMIT:
            runs = [cl._lloyd_once(x, 3, 5, rng) for _ in range(cl.N_INIT)]
            centers, labels, _ = min(runs, key=lambda run: run[2])
        else:
            centers, labels, _ = cl._minibatch(x, 3, 5, rng)
        assert out.centers.tobytes() == centers.tobytes()
        assert out.labels.tobytes() == labels.astype(np.int64).tobytes()

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

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_seeding_makes_one_distance_call_per_drawn_center(self, monkeypatch, k):
        calls = []

        def counted(a, b):
            calls.append(len(b))
            return euclidean_distance_matrix(a, b)

        monkeypatch.setattr(cl, "euclidean_distance_matrix", counted)
        x = np.random.default_rng(36).normal(size=(50, 3))
        cl._kmeans_plusplus(x, k, np.random.default_rng(0))
        assert calls == [1] * (k - 1)

    def test_more_clusters_than_distinct_points(self):
        # seeding falls back to uniform draws once every point sits on a
        # chosen center; the fit must still terminate with zero inertia
        x = np.array([[1.0, 1.0]] * 6 + [[4.0, 4.0]] * 6)
        out = cl.kmeans_fit(x, cl.KmeansConfig(k=3, seed=0))
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

    @pytest.mark.parametrize("n, d, k", [(200, 40, 6), (200, 3, 6), (50, 6, 6), (3000, 64, 3)])
    def test_bit_equal_to_a_per_column_bincount(self, n, d, k):
        # 3000 rows of 64 columns sum each label's rows over several blocks
        rng = np.random.default_rng(d)
        y = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=d)
        y[:, 0] = -0.0  # an all -0.0 column sums to +0.0 from bincount's zero start
        labels = rng.integers(0, k - 1, size=n)  # label k - 1 stays empty
        previous = rng.normal(size=(k, d))
        counts = np.bincount(labels, minlength=k)
        expected = previous.copy()
        for col in range(d):
            sums = np.bincount(labels, weights=y[:, col], minlength=k)
            expected[counts > 0, col] = sums[counts > 0] / counts[counts > 0]
        out = cl.update_centers(y, labels, previous)
        assert out.tobytes() == expected.tobytes()

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
            {"k": 2, "max_iters": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            cl.KmeansConfig(**kwargs)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            cl.KmeansConfig(k=2, seed=-1)
