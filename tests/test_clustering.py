"""Tests for k-means clustering and label assignment."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cbmap import clustering as cl
from cbmap.datasets import make_swiss_roll
from cbmap.linalg_core import _CHUNK_ELEMS, euclidean_distance_matrix
from _util import disk_blobs, lifted_roll


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

    @pytest.mark.parametrize("d", [3, 16])
    def test_dimension_mismatch_above_one_block_names_the_whole_input(self, d):
        message = f"column mismatch: a has shape (5000, {d}), b has shape (4, {d - 1})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cl.assign_labels(np.zeros((5000, d)), np.zeros((4, d - 1)))


class _RecordingRng:
    """A seeded generator that keeps the weights of every weighted draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.weights = []

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def choice(self, n, p):
        self.weights.append(p.copy())
        return self._rng.choice(n, p=p)


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

        def exact(a, b, squared=False):
            rechecked.append(len(a))
            return euclidean_distance_matrix(a, b, squared=squared)

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
        # both paths sum the centers alike, and the seeding draws the same rows
        x = lifted_roll(600, 32, seed=5)
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


class TestBlockedAssignment:
    """Above ``_ASSIGN_ROWS`` rows the labels are taken a block of rows at a
    time, and each row's is still the whole-matrix argmin's."""

    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("data", ["roll", "lifted-roll", "highdim-plus-1e6"])
    def test_labels_equal_the_whole_matrix_argmin(self, monkeypatch, data, duplicated):
        n = 2 * cl._ASSIGN_ROWS + 7  # two whole blocks and part of a third
        if data == "roll":
            x = make_swiss_roll(n, seed=4).data
        elif data == "lifted-roll":
            x = lifted_roll(n, 32, seed=4)
        else:  # perfbench's highdim width, where the product settles no row
            x = lifted_roll(n, 256, seed=4) + 1e6
        centers = x[np.random.default_rng(42).choice(n, 20, replace=False)]
        if duplicated:
            centers = np.vstack([centers, centers])  # every row ties; the lower index wins
        expected = np.argmin(euclidean_distance_matrix(x, centers), axis=1)
        rows = []

        def recorded(kernel):
            def wrapper(a, b, *args, **kwargs):
                rows.append(len(a))
                return kernel(a, b, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(cl, "euclidean_distance_matrix", recorded(euclidean_distance_matrix))
        monkeypatch.setattr(cl, "_settled_sq_distances", recorded(cl._settled_sq_distances))
        got = cl.assign_labels(x, centers)
        assert got.tobytes() == expected.tobytes()
        assert 0 < max(rows) <= cl._ASSIGN_ROWS
        if duplicated:
            assert got.max() < 20


def _hard_cases():
    """Rows and centers on which the matrix product is hard, by name."""
    rng = np.random.default_rng(41)
    rows, centers = rng.normal(size=(12, 16)), rng.normal(size=(5, 16))
    return {
        "offset-1e6": (rows + 1e6, centers + 1e6),
        "spread-1e-8": (1.0 + 1e-8 * rows, 1.0 + 1e-8 * centers),
        "scale-1e-160": (rows * 1e-160, centers * 1e-160),
        "scale-1e150": (rows * 1e150, centers * 1e150),
        "scale-1e200": (rows * 1e200, centers * 1e200),
        # rows repeated, and rows that are the centers themselves
        "duplicated-rows": (np.vstack([rows, rows[:4], centers[::-1]]), centers),
    }


def _exact_sq(a, b):
    """The true squared distances between the rows of ``a`` and ``b``, as Fractions."""
    fa = [[Fraction(v) for v in row] for row in a.tolist()]
    fb = [[Fraction(v) for v in row] for row in b.tolist()]
    return [[sum((p - q) ** 2 for p, q in zip(ra, rb)) for rb in fb] for ra in fa]


def _record_exact(monkeypatch):
    """Route clustering's exact-kernel calls through a recorder; returns the list
    of the row blocks it was given."""
    blocks = []

    def exact(a, b, squared=False):
        blocks.append(np.array(a))
        return euclidean_distance_matrix(a, b, squared=squared)

    monkeypatch.setattr(cl, "euclidean_distance_matrix", exact)
    return blocks


class TestSettledSqDistances:
    """From ``_EXPANDED_MIN_D`` columns on, point-to-center distances come from one
    matrix product, and the exact kernel recomputes the rows it does not settle."""

    @pytest.mark.parametrize("case", sorted(_hard_cases()))
    def test_every_value_is_the_exact_kernels_or_within_the_tolerance_of_the_true_one(
            self, case):
        a, b = _hard_cases()[case]
        sq = cl._settled_sq_distances(a, b)
        assert sq.shape == (len(a), len(b))
        exact = euclidean_distance_matrix(a, b, squared=True)
        truth = _exact_sq(a, b)
        rtol = Fraction(cl._EXPANDED_RTOL)
        for i in range(len(a)):
            if sq[i].tobytes() == exact[i].tobytes():
                continue  # recomputed, or the product agrees to the bit
            for j in range(len(b)):
                assert np.isfinite(sq[i, j])
                assert abs(Fraction(sq[i, j]) - truth[i][j]) <= rtol * Fraction(sq[i, j])

    @pytest.mark.parametrize("case", sorted(_hard_cases()))
    def test_rows_it_settles_agree_with_the_exact_kernel(self, monkeypatch, case):
        # the exact kernel is itself within (d + 3) eps of the true value
        a, b = _hard_cases()[case]
        exact = euclidean_distance_matrix(a, b, squared=True)
        blocks = _record_exact(monkeypatch)
        sq = cl._settled_sq_distances(a, b)
        np.testing.assert_allclose(sq, exact, rtol=2e-9, atol=0.0)
        recomputed = sorted(map(tuple, np.vstack([np.empty((0, a.shape[1]))] + blocks)))
        # on spread-out data with no offset every row but a coincident one is
        # settled; an offset, a tiny spread, or squares beyond the float64 range
        # or below its normal numbers leave the rows to the exact kernel
        if case == "duplicated-rows":
            assert recomputed == sorted(map(tuple, a[exact.min(axis=1) == 0]))
        else:
            assert len(recomputed) == {"scale-1e150": 0}.get(case, len(a))

    def test_given_row_norms_are_used_as_they_are(self):
        a, b = _hard_cases()["duplicated-rows"]
        a_sq = np.einsum("ij,ij->i", a, a)
        for nearest_only in (False, True):
            whole = cl._settled_sq_distances(a, b, nearest_only=nearest_only)
            given_norms = cl._settled_sq_distances(a, b, a_sq, nearest_only=nearest_only)
            assert given_norms.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("d", [3, 7])
    def test_narrow_rows_are_left_to_the_callers_exact_kernel(self, d):
        rows = np.random.default_rng(d).normal(size=(50, d))
        assert cl._settled_sq_distances(rows, rows[:6]) is None
        assert cl.assign_labels(rows, rows[:6]).tobytes() == np.argmin(
            euclidean_distance_matrix(rows, rows[:6]), axis=1).tobytes()

    @pytest.mark.parametrize("nearest_only", [False, True])
    def test_rows_it_recomputes_are_the_exact_kernels_bit_for_bit(self, monkeypatch, nearest_only):
        x, centers = _tie_grid(16, 1e6 + 0.1, seed=0)
        blocks = _record_exact(monkeypatch)
        sq = cl._settled_sq_distances(x, centers, nearest_only=nearest_only)
        recomputed = set(map(tuple, np.vstack(blocks)))
        assert 0 < len(recomputed)
        # for the argmin alone, the distances stand, not their squares
        exact = euclidean_distance_matrix(x, centers, squared=not nearest_only)
        for i in range(len(x)):
            if tuple(x[i]) in recomputed:
                assert sq[i].tobytes() == exact[i].tobytes()

    @pytest.mark.parametrize("nearest_only", [False, True])
    @pytest.mark.parametrize("d", [16, 64])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6 + 0.1])
    def test_argmin_is_the_exact_kernels_on_near_ties(self, d, offset, nearest_only):
        x, centers = _tie_grid(d, offset, seed=d)
        sq = cl._settled_sq_distances(x, centers, nearest_only=nearest_only)
        expected = np.argmin(euclidean_distance_matrix(x, centers), axis=1)
        got = np.argmin(sq if nearest_only else np.sqrt(sq), axis=1)
        assert got.tobytes() == expected.tobytes()

    def test_values_within_the_tolerance_and_a_coincident_row_at_zero(self):
        x = lifted_roll(300, 32, seed=2)
        centers = x[::25]  # rows 0, 25, ... lie on a center
        sq = cl._settled_sq_distances(x, centers)
        exact = euclidean_distance_matrix(x, centers, squared=True)
        np.testing.assert_allclose(sq, exact, rtol=cl._EXPANDED_RTOL, atol=0.0)
        np.testing.assert_array_equal(sq == 0.0, exact == 0.0)
        assert (sq[::25][np.arange(len(centers)), np.arange(len(centers))] == 0.0).all()

    def test_the_argmin_test_settles_highdim_rows_offset_by_1e3(self, monkeypatch):
        # perfbench's highdim width and noise; the value test would settle none
        x = lifted_roll(1500, 256, seed=0) + 1e3
        centers = x[np.random.default_rng(0).choice(1500, 20, replace=False)]
        expected = np.argmin(euclidean_distance_matrix(x, centers), axis=1)
        blocks = _record_exact(monkeypatch)
        sq = cl._settled_sq_distances(x, centers, nearest_only=True)
        assert blocks == []
        assert np.argmin(sq, axis=1).tobytes() == expected.tobytes()
        assert cl.assign_labels(x, centers).tobytes() == expected.tobytes()


class TestWideSeeding:
    """From ``_EXPANDED_MIN_D`` columns on, k-means++ takes its squared
    distances from one matrix-vector product per drawn center."""

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_one_matrix_vector_product_per_drawn_center(self, monkeypatch, k):
        x = lifted_roll(200, 16, seed=3)
        products, rechecks = [], []
        settled = cl._settled_sq_distances

        def product(a, b, a_sq=None):
            products.append((a is x, b.shape, a_sq))
            return settled(a, b, a_sq)

        def exact(a, b, squared=False):
            rechecks.append(a.copy())
            return euclidean_distance_matrix(a, b, squared=squared)

        monkeypatch.setattr(cl, "_settled_sq_distances", product)
        monkeypatch.setattr(cl, "euclidean_distance_matrix", exact)
        centers = cl._kmeans_plusplus(x, k, np.random.default_rng(0))
        assert [(same, shape) for same, shape, _ in products] == [(True, (1, 16))] * (k - 1)
        # the row norms are taken once per seeding
        assert all(a_sq is products[0][2] for _, _, a_sq in products)
        # each drawn center's own row is rechecked by the exact kernel
        assert len(rechecks) == k - 1
        for center, rows in zip(centers, rechecks):
            assert (rows == center).all(axis=1).any()

    @pytest.mark.parametrize("seed", range(10))
    def test_picks_and_weights_match_the_exact_path(self, monkeypatch, seed):
        x = lifted_roll(400, 32, seed=seed)
        x = np.vstack([x, x[::7]])  # points that coincide with others
        wide = _RecordingRng(seed)
        centers = cl._kmeans_plusplus(x, 15, wide)
        monkeypatch.setattr(cl, "_EXPANDED_MIN_D", x.shape[1] + 1)
        exact = _RecordingRng(seed)
        assert centers.tobytes() == cl._kmeans_plusplus(x, 15, exact).tobytes()
        for p, ref in zip(wide.weights, exact.weights, strict=True):
            # a point on a drawn center weighs exactly 0, on both paths
            np.testing.assert_array_equal(p == 0.0, ref == 0.0)
            np.testing.assert_allclose(p, ref, rtol=1e-9, atol=0.0)

    def test_coincident_points_get_no_weight(self):
        # six distinct points, five copies each: the six draws take all six
        base = lifted_roll(6, 16, seed=8)
        x = np.repeat(base, 5, axis=0)
        for seed in range(10):
            centers = cl._kmeans_plusplus(x, 6, np.random.default_rng(seed))
            assert len(np.unique(centers, axis=0)) == 6

    @pytest.mark.parametrize("case", ["squares", "sum"])
    def test_overflow_is_named(self, case):
        if case == "squares":
            x = np.random.default_rng(9).normal(size=(20, 16)) * 1e200
        else:  # every square is finite, but not their sum
            x = np.vstack([np.zeros(3), np.eye(3)]) * 1.2e154
        # and with no warning, which pytest turns into an error
        with pytest.raises(ValueError, match="overflow float64; rescale it"):
            cl._kmeans_plusplus(x, 3, np.random.default_rng(0))


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
        whole = np.einsum("ij,ij->i", diff, diff)
        # so the drivers' inertia, their sum, is the whole array's too
        assert cl._own_sq_distances(x, centers, labels).tobytes() == whole.tobytes()

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

    @pytest.mark.parametrize("d", [3, 16])
    def test_memory_holds_no_distances_of_every_row(self, d):
        # 20,000 rows run the mini-batch driver, whose last assignment takes
        # every row; (n, k) distances would be 20,000 * k * 8 bytes
        n, k = 20_000, 40
        x = make_swiss_roll(n, seed=0).data if d == 3 else lifted_roll(n, d, seed=0)
        assert n >= cl.FULL_BATCH_LIMIT
        cl.kmeans_fit(x[:100], cl.KmeansConfig(k=5))  # one-time set-up
        tracemalloc.start()
        try:
            cl.kmeans_fit(x, cl.KmeansConfig(k=k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * k * cl._ASSIGN_ROWS * 8 + 48 * n

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
        assert labels.tobytes() == ref_labels.tobytes()
        if d <= 12:  # per-column bincount sums, in the reference's order
            assert centers.tobytes() == ref_centers.tobytes()
        else:  # one-hot matrix products, in the BLAS's order
            assert (np.abs(centers - ref_centers) <= 1e-12 * np.abs(x).max(axis=0)).all()

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

        def counted(a, b, squared=False):
            calls.append((len(b), squared))
            return euclidean_distance_matrix(a, b, squared)

        monkeypatch.setattr(cl, "euclidean_distance_matrix", counted)
        x = np.random.default_rng(36).normal(size=(50, 3))
        cl._kmeans_plusplus(x, k, np.random.default_rng(0))
        # the draws weigh squared distances, taken as such
        assert calls == [(1, True)] * (k - 1)

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

    @staticmethod
    def _bincount_case(n, d, k):
        """Rows, labels (label k - 1 empty), previous centers, and the
        per-column bincount means."""
        rng = np.random.default_rng(d)
        y = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=d)
        y[:, 0] = -0.0  # an all -0.0 column sums to +0.0 from bincount's zero start
        labels = rng.integers(0, k - 1, size=n)
        previous = rng.normal(size=(k, d))
        counts = np.bincount(labels, minlength=k)
        expected = previous.copy()
        for col in range(d):
            sums = np.bincount(labels, weights=y[:, col], minlength=k)
            expected[counts > 0, col] = sums[counts > 0] / counts[counts > 0]
        return y, labels, previous, expected

    @pytest.mark.parametrize("n, d, k", [(200, 3, 6), (50, 6, 6), (3000, 2, 40)])
    def test_bit_equal_to_a_per_column_bincount(self, n, d, k):
        # no more columns than labels: the fit loop's low-dimensional centers
        y, labels, previous, expected = self._bincount_case(n, d, k)
        out = cl.update_centers(y, labels, previous)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, d, k", [(200, 40, 6), (3000, 64, 3), (1500, 256, 20),
                                         (5000, 9, 8)])
    def test_one_hot_sums_match_a_per_column_bincount(self, n, d, k):
        # more columns than labels: one-hot products over several blocks of rows
        y, labels, previous, expected = self._bincount_case(n, d, k)
        out = cl.update_centers(y, labels, previous)
        np.testing.assert_array_equal(out[k - 1], previous[k - 1])
        np.testing.assert_array_equal(out[:k - 1, 0], 0.0)
        # within 1e-12 of each label's mean magnitude, column by column
        scale = np.array([np.abs(y[labels == j]).mean(axis=0) for j in range(k - 1)])
        assert (np.abs(out[:k - 1] - expected[:k - 1]) <= 1e-12 * scale).all()

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
