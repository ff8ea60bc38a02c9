"""Tests for the global score and kNN accuracy metrics."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmap import metrics as mx
from cbmap.datasets import make_s_curve, make_swiss_roll
from cbmap.linalg_core import euclidean_distance_matrix, pca_fit, pca_transform
from _util import disk_blobs


@pytest.fixture(scope="module")
def s_curve_data():
    return make_s_curve(400, seed=0).data


def _pca_embedding(x, m=2):
    return pca_transform(pca_fit(x, m), x)


def _gs_oracle(x, y):
    """Global score from an explicit pseudoinverse least-squares fit."""
    xc = x - x.mean(axis=0)

    def mre(embedding):
        ec = embedding - embedding.mean(axis=0)
        coeffs = np.linalg.pinv(ec) @ xc
        return np.linalg.norm(xc - ec @ coeffs)

    baseline = mre(_pca_embedding(x, y.shape[1]))
    return np.exp(-(mre(y) - baseline) / baseline)


class TestGlobalScore:
    def test_pca_embedding_scores_one(self, s_curve_data):
        gs = mx.global_score(s_curve_data, _pca_embedding(s_curve_data))
        assert gs == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_invertible_affine_maps(self, s_curve_data):
        y = _pca_embedding(s_curve_data)
        r = np.array([[1.2, -0.7], [0.4, 0.9]])
        shifted = y @ r + np.array([3.0, -5.0])
        assert mx.global_score(s_curve_data, shifted) == pytest.approx(1.0, abs=1e-8)

    def test_random_embedding_scores_poorly(self, s_curve_data):
        y = np.random.default_rng(0).normal(size=(s_curve_data.shape[0], 2))
        gs = mx.global_score(s_curve_data, y)
        assert gs <= 1.0 + 1e-9
        assert gs < 0.9

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(50, 4))
        y = rng.normal(size=(50, 2))
        assert mx.global_score(x, y) == pytest.approx(_gs_oracle(x, y), abs=1e-10)

    @pytest.mark.parametrize("make_y", [
        lambda t: np.column_stack([t, np.full_like(t, 5.0)]),
        lambda t: np.full((t.size, 2), 1.5),
        lambda t: np.column_stack([t, 1.0 - 2.0 * t]),
    ], ids=["constant-column", "all-rows-equal", "collinear-columns"])
    def test_rank_deficient_embedding_matches_pseudoinverse_oracle(self, s_curve_data, make_y):
        # the embedding's null directions must add nothing to the reconstruction
        y = make_y(s_curve_data[:, 0] + 0.1 * s_curve_data[:, 2])
        assert mx.global_score(s_curve_data, y) == pytest.approx(_gs_oracle(s_curve_data, y),
                                                                 abs=1e-10)

    def test_never_beats_pca(self, s_curve_data):
        rng = np.random.default_rng(43)
        for _ in range(5):
            y = rng.normal(size=(s_curve_data.shape[0], 2))
            assert mx.global_score(s_curve_data, y) <= 1.0 + 1e-9

    @pytest.mark.parametrize("top_scale", [1.0, 1e3, 1e6])
    def test_rank_deficient_data_rejected(self, top_scale):
        # column scales from 1 to top_scale: PCA works from a Gram matrix,
        # which squares the data's condition number
        rng = np.random.default_rng(44)
        factors = rng.normal(size=(30, 2))
        scales = np.geomspace(1.0, top_scale, 3)
        x = factors @ rng.normal(size=(2, 3)) * scales  # rank 2 in 3 columns
        with pytest.raises(ValueError, match="reduce the embedding dimension"):
            mx.global_score(x, factors)
        # a little noise in every column gives full rank and a score
        x_full = x + 1e-3 * rng.normal(size=x.shape) * scales
        assert mx.global_score(x_full, _pca_embedding(x_full)) == pytest.approx(1.0, abs=1e-9)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row mismatch"):
            mx.global_score(np.zeros((5, 3)), np.zeros((4, 2)))

    def test_wide_embedding_rejected(self):
        with pytest.raises(ValueError, match="smaller than"):
            mx.global_score(np.zeros((5, 2)), np.zeros((5, 2)))


def _peak_bytes(fn, *args):
    """The tracemalloc peak of one call, after a first call has done any
    one-time set-up."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _whole_matrix_score(x, y):
    """The global score with the centred data and both residuals held whole."""
    pca = pca_fit(x, y.shape[1])
    xc = x - pca.mean
    scores = xc @ pca.components.T

    def mre(embedding):
        ec = embedding - embedding.mean(axis=0)
        u, s, _ = np.linalg.svd(ec, full_matrices=False)
        u = u[:, s > np.finfo(np.float64).eps * max(ec.shape) * s[0]]
        return np.linalg.norm(xc - u @ (u.T @ xc))

    baseline = mre(scores)
    return np.exp(-(mre(y) - baseline) / baseline)


class TestGlobalScoreMemory:
    def test_peak_stays_below_half_the_input(self):
        # the centred data, its PCA residual or a second copy of either would
        # each take the input's whole size
        rng = np.random.default_rng(37)
        x = rng.normal(size=(4000, 256)) * np.geomspace(1.0, 10.0, 256) + 3.0
        y = x[:, :2] + 0.1 * rng.normal(size=(4000, 2))
        assert _peak_bytes(mx.global_score, x, y) < x.nbytes / 2

    def test_blocked_score_matches_the_whole_matrix_formula(self):
        # 4000 rows of 64 columns span several blocks of every pass
        rng = np.random.default_rng(38)
        x = rng.normal(size=(4000, 64)) * np.geomspace(1.0, 10.0, 64)
        y = x[:, -2:] + rng.normal(size=(4000, 2))
        assert mx.global_score(x, y) == pytest.approx(_whole_matrix_score(x, y), rel=1e-13)


def _knn_oracle(y, labels, k, split):
    """kNN accuracy by sorting (distance, training position) pairs in Python;
    a distance whose square overflows is +inf."""
    train_idx, test_idx = mx._stratified_split(labels, split)
    correct = 0
    for t in test_idx:
        with np.errstate(over="ignore"):
            dists = sorted((np.linalg.norm(y[t] - y[i]), pos) for pos, i in enumerate(train_idx))
        nearest = [labels[train_idx[pos]] for _, pos in dists[:k]]
        tally = {}
        for lab in nearest:
            tally[lab] = tally.get(lab, 0) + 1
        top = max(tally.values())
        winners = [lab for lab, count in tally.items() if count == top]
        predicted = winners[0] if len(winners) == 1 else nearest[0]
        correct += predicted == labels[t]
    return correct / len(test_idx)


class TestKnnAccuracy:
    @pytest.mark.parametrize("split_seed", [0, 1, 2])
    def test_perfectly_separated_clusters(self, split_seed):
        y, labels = disk_blobs([(0.0, 0.0), (50.0, 50.0)], n_per=20, seed=5)
        acc = mx.knn_accuracy(y, labels, split=mx.HoldoutSpec(seed=split_seed))
        assert acc == 1.0

    def test_single_shared_label(self):
        y = np.random.default_rng(45).normal(size=(20, 2))
        assert mx.knn_accuracy(y, np.zeros(20, dtype=int)) == 1.0

    def test_matches_brute_force_oracle(self):
        # 3 classes so vote ties are possible; one point of each class is
        # planted inside another class's cluster to create ambiguity
        y, labels = disk_blobs([(0.0, 0.0), (3.0, 0.0), (1.5, 2.5)], n_per=4,
                               radius=1.2, seed=6)
        split = mx.HoldoutSpec(test_fraction=0.25, seed=3)
        result = mx.knn_accuracy(y, labels, k=3, split=split)

        train_idx, test_idx = mx._stratified_split(labels, split)
        correct = 0
        for t in test_idx:
            dists = sorted((np.linalg.norm(y[t] - y[i]), pos)
                           for pos, i in enumerate(train_idx))
            nearest3 = [labels[train_idx[pos]] for _, pos in dists[:3]]
            tally = {}
            for lab in nearest3:
                tally[lab] = tally.get(lab, 0) + 1
            top = max(tally.values())
            winners = [lab for lab, count in tally.items() if count == top]
            predicted = winners[0] if len(winners) == 1 else nearest3[0]
            correct += predicted == labels[t]
        assert result == pytest.approx(correct / len(test_idx))

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_oracle_with_ties(self, k, seed):
        # duplicate points on a 4x4 integer grid: many neighbors sit at equal
        # distances, so the k-th nearest is usually tied and index order decides
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 4, size=(120, 2)).astype(np.float64)
        labels = rng.integers(0, 3, size=120)
        split = mx.HoldoutSpec(test_fraction=0.3, seed=seed)
        assert mx.knn_accuracy(y, labels, k=k, split=split) == pytest.approx(
            _knn_oracle(y, labels, k, split), abs=1e-12)

    def test_invariant_under_rigid_motion(self):
        y, labels = disk_blobs([(0.0, 0.0), (2.0, 1.0)], n_per=15, radius=1.0, seed=7)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = y @ rot.T + np.array([10.0, -4.0])
        assert mx.knn_accuracy(moved, labels) == mx.knn_accuracy(y, labels)

    def test_deterministic(self):
        y, labels = disk_blobs([(0.0, 0.0), (1.0, 0.0)], n_per=25, radius=0.8, seed=8)
        assert mx.knn_accuracy(y, labels) == mx.knn_accuracy(y, labels)

    def test_tiny_class_named_in_error(self):
        y = np.random.default_rng(46).normal(size=(10, 2))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 2])
        with pytest.raises(ValueError, match="class 2"):
            mx.knn_accuracy(y, labels)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="k\\+1"):
            mx.knn_accuracy(np.zeros((3, 2)), np.array([0, 0, 1]), k=3)

    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="labels length"):
            mx.knn_accuracy(np.zeros((5, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("shape", [(20, 1), (20, 2), ()])
    def test_labels_must_be_one_dimensional(self, shape):
        y = np.random.default_rng(47).normal(size=(20, 2))
        labels = np.arange(int(np.prod(shape))).reshape(shape) % 2
        with pytest.raises(ValueError, match=r"labels must be 1-D, got shape"):
            mx.knn_accuracy(y, labels)

    def test_nan_labels_rejected(self):
        y = np.random.default_rng(48).normal(size=(10, 2))
        labels = np.array([0.0, 1.0] * 4 + [np.nan, np.nan])
        with pytest.raises(ValueError, match="labels contain NaN"):
            mx.knn_accuracy(y, labels)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, True])
    def test_non_integer_k_rejected(self, k):
        y = np.random.default_rng(49).normal(size=(10, 2))
        with pytest.raises(ValueError, match="k must be an integer"):
            mx.knn_accuracy(y, np.arange(10) % 2, k=k)

    def test_numpy_integer_k_accepted(self):
        y, labels = disk_blobs([(0.0, 0.0), (50.0, 50.0)], n_per=20, seed=5)
        assert mx.knn_accuracy(y, labels, k=np.int64(3)) == 1.0


def _scanned_split(labels, split):
    """The stratified split with one ``labels == c`` scan per class."""
    rng = np.random.default_rng(split.seed)
    train, test = [], []
    for c in np.unique(labels):
        perm = rng.permutation(np.flatnonzero(labels == c))
        n_test = min(max(int(round(split.test_fraction * perm.size)), 1), perm.size - 1)
        test.append(perm[:n_test])
        train.append(perm[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


class TestStratifiedSplit:
    @pytest.mark.parametrize("kind", ["int", "str", "float", "5000 classes"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_a_scan_per_class(self, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "5000 classes":  # 2 to 7 members each
            codes = rng.permutation(np.repeat(np.arange(5000), rng.integers(2, 8, size=5000)))
        else:
            codes = rng.integers(0, 6, size=20_000)
        labels = {"int": codes - 3, "str": np.array([f"c{c}" for c in codes]),
                  "float": codes * 0.1 - 0.25, "5000 classes": codes}[kind]
        if kind == "float":  # -0.0 and +0.0 are one class
            labels[codes == 0] = -0.0
            labels[:2] = 0.0
        split = mx.HoldoutSpec(test_fraction=0.3, seed=seed)
        for got, expected in zip(mx._stratified_split(labels, split),
                                 _scanned_split(labels, split)):
            np.testing.assert_array_equal(got, expected)


class TestKnnMemory:
    @pytest.mark.parametrize("all_pairs", [False, True], ids=["grid", "all-pairs"])
    def test_peak_beyond_per_row_arrays_does_not_grow_with_n(self, all_pairs, monkeypatch):
        # the split, the copies of the embedding and the grid's indices take
        # under 200 bytes a row; distances come in blocks of _KNN_BLOCK_ELEMS,
        # whatever the row count, and picking neighbors adds O(block rows)
        if all_pairs:
            monkeypatch.setattr(mx, "_KNN_MIN_TILES", 10**9)
        rng = np.random.default_rng(39)
        peaks = {}
        for n in (3000, 12_000):
            y = rng.uniform(size=(n, 2))
            peaks[n] = _peak_bytes(mx.knn_accuracy, y, np.arange(n) % 4)
        assert peaks[12_000] - peaks[3000] < 200 * 9000
        assert peaks[3000] < 200 * 3000 + 3 * 8 * mx._KNN_BLOCK_ELEMS


def _training_rows(kind, rng, n, m):
    """``n`` rows of ``m`` columns of one of the layouts the grid search must handle."""
    if kind == "integer-grid":  # most distances tie, many at a tile's edge
        return rng.integers(0, rng.integers(2, 12), size=(n, m)).astype(np.float64)
    if kind == "duplicates":
        return rng.normal(size=(6, m))[rng.integers(0, 6, size=n)]
    if kind == "zero-width":
        rows = rng.normal(size=(n, m))
        rows[:, 0] = 2.5
        return rows
    if kind == "clustered":  # two tight clusters, empty tiles between them
        return rng.normal(scale=0.1, size=(n, m)) + 50.0 * rng.choice([-1.0, 1.0], size=(n, 1))
    if kind == "huge":
        return rng.normal(size=(n, m)) * 1e150
    if kind == "overflow":  # near 0 or +-1e200: squared distances across groups overflow
        return rng.choice([-1e200, 0.0, 1e200], size=(n, m)) + rng.normal(size=(n, m)) * 1e150
    if kind == "tiny":  # squared distances underflow to zero
        return rng.normal(size=(n, m)) * 1e-170
    return rng.uniform(size=(n, m))


def _brute_force_neighbors(train, queries, k):
    """The first ``k`` columns of a stable argsort of all query-to-train distances."""
    return np.argsort(euclidean_distance_matrix(queries, train), axis=1, kind="stable")[:, :k]


def _tiled_neighbors(train, queries, k):
    """Every query row's neighbors from the grid search, checking each row comes once."""
    nearest = np.full((queries.shape[0], k), -1)
    for rows, block in mx._neighbor_blocks(train, queries, k):
        assert np.all(nearest[rows] == -1)
        nearest[rows] = block
    assert np.all(nearest >= 0)
    return nearest


class TestNearestNeighbors:
    """The k argmin passes give the first k columns of a stable argsort."""

    @pytest.mark.parametrize("kind", ["integer-grid", "huge", "overflow", "tiny"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_equals_the_stable_argsort(self, kind, k):
        rng = np.random.default_rng(k)
        dist = euclidean_distance_matrix(_training_rows(kind, rng, 40, 2),
                                         _training_rows(kind, rng, 12, 2))
        expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
        nearest, kth = mx._nearest_neighbors(dist.copy(), k)
        np.testing.assert_array_equal(nearest, expected)
        np.testing.assert_array_equal(kth, np.minimum(dist[np.arange(40), expected[:, -1]],
                                                      np.finfo(np.float64).max))

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_overflowed_distances_keep_index_order(self, k):
        # +inf, equal and finite distances; in an all-inf row an argmin that
        # masked with +inf alone would take the first column k times
        dist = np.array([[np.inf] * 6,
                         [np.inf, 2.0, np.inf, 2.0, 1e154, np.inf],
                         [1.0, np.inf, 1.0, np.inf, 1.0, 0.0]])
        nearest, _ = mx._nearest_neighbors(dist.copy(), k)
        np.testing.assert_array_equal(nearest, np.argsort(dist, axis=1, kind="stable")[:, :k])


class TestTiledNeighborSearch:
    """The grid search gives the all-pairs scan's neighbors, order and accuracy."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["integer-grid", "duplicates", "zero-width", "clustered",
                                 "huge", "overflow", "tiny", "uniform"]),
           m=st.sampled_from([1, 2, 3]), k=st.sampled_from([1, 3, 5]),
           n_train=st.integers(8, 150), n_queries=st.integers(1, 60),
           outside=st.booleans(), tile_rows=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_all_pairs_scan(self, kind, m, k, n_train, n_queries, outside, tile_rows,
                                    seed):
        # tiles of a few rows, at least 2 per column, put small inputs on a grid
        rng = np.random.default_rng(seed)
        train = _training_rows(kind, rng, n_train, m)
        queries = _training_rows(kind, rng, n_queries, m)
        if outside:  # every other query row beyond the training rows' bounding box
            queries[::2] = 3.0 * queries[::2] + 2.0 * np.abs(train).max()
        y = np.vstack([train, queries])
        labels = rng.permutation(np.arange(y.shape[0]) % 3)
        split = mx.HoldoutSpec(seed=seed % 1000)
        with mock.patch.object(mx, "_KNN_TILE_ROWS", tile_rows), \
                mock.patch.object(mx, "_KNN_MIN_TILES", 2):
            np.testing.assert_array_equal(_tiled_neighbors(train, queries, k),
                                          _brute_force_neighbors(train, queries, k))
            acc = mx.knn_accuracy(y, labels, k=k, split=split)
        assert acc == pytest.approx(_knn_oracle(y, labels, k, split), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rows_near_region_edges_fall_back_to_the_whole_set(self, m, monkeypatch):
        # tiles of one row leave many rows' 5th neighbor beyond the gathered
        # region: those rows must go to the whole set, the rest stay in tiles
        rng = np.random.default_rng(51)
        train, queries = rng.uniform(size=(400, m)), rng.uniform(size=(200, m))
        searched = []

        def recording(a, b, squared=False):
            searched.append(b.shape[0])
            return euclidean_distance_matrix(a, b, squared)

        monkeypatch.setattr(mx, "_KNN_TILE_ROWS", 1)
        monkeypatch.setattr(mx, "euclidean_distance_matrix", recording)
        nearest = _tiled_neighbors(train, queries, 5)
        assert 400 in searched and min(searched) < 400
        np.testing.assert_array_equal(nearest, _brute_force_neighbors(train, queries, 5))

    def test_tie_at_the_region_edge_goes_to_the_lower_index(self, monkeypatch):
        # one row per integer 0..19, in tiles about two wide: from 10, the
        # gathered region holds 8..13, and rows 7 and 13 tie for the 6th
        # neighbor at 3, exactly the distance to the region's lower edge. Row 7
        # lies outside the region but comes first
        monkeypatch.setattr(mx, "_KNN_TILE_ROWS", 2)
        nearest = _tiled_neighbors(np.arange(20.0)[:, None], np.array([[10.0]]), 6)
        assert nearest[0].tolist() == [10, 9, 11, 8, 12, 7]

    def test_overflowed_kth_distance_goes_to_the_whole_set(self, monkeypatch):
        # five tiles over [-1e308, 1e308]: from -1e308 the region holds rows 3
        # and 4, and row 4's distance overflows, as do the distance to the
        # region's edge and to rows 0-2 beyond it. Row 0 comes first of those ties
        monkeypatch.setattr(mx, "_KNN_TILE_ROWS", 1)
        train = np.array([[1e308], [1e308], [1e308], [-1e308], [-7e307]])
        assert _tiled_neighbors(train, np.array([[-1e308]]), 2).tolist() == [[3, 0]]

    def test_roll_embedding_scans_a_small_share_of_pairs(self, monkeypatch):
        # an unrolled 20,000-row swiss roll: radius and height, as a good
        # embedding lays it out. The all-pairs scan would compute 4000 x 16000
        # distances; the grid search computes under 5% of them
        ds = make_swiss_roll(20_000, seed=0)
        y = np.column_stack([np.hypot(ds.data[:, 0], ds.data[:, 2]), ds.data[:, 1]])
        computed = []

        def counting(a, b, squared=False):
            out = euclidean_distance_matrix(a, b, squared)
            computed.append(out.size)
            return out

        monkeypatch.setattr(mx, "euclidean_distance_matrix", counting)
        acc = mx.knn_accuracy(y, ds.labels)
        train_idx, test_idx = mx._stratified_split(ds.labels, mx.HoldoutSpec())
        assert sum(computed) < 0.05 * train_idx.size * test_idx.size
        # the same neighbors as the all-pairs scan, on every 10th test row
        train, queries = y[train_idx], y[test_idx]
        monkeypatch.setattr(mx, "euclidean_distance_matrix", euclidean_distance_matrix)
        np.testing.assert_array_equal(_tiled_neighbors(train, queries, 3)[::10],
                                      _brute_force_neighbors(train, queries[::10], 3))
        assert 0.95 < acc <= 1.0

    def test_small_inputs_stay_on_one_tile(self, monkeypatch):
        # below a few thousand training rows the all-pairs scan is as fast
        # as the grid, so the search is exactly that scan
        y = np.random.default_rng(50).uniform(size=(1500, 2))
        labels = np.arange(1500) % 4
        computed = []

        def counting(a, b, squared=False):
            out = euclidean_distance_matrix(a, b, squared)
            computed.append(out.shape)
            return out

        monkeypatch.setattr(mx, "euclidean_distance_matrix", counting)
        mx.knn_accuracy(y, labels)
        assert {cols for _, cols in computed} == {1200}
        assert sum(rows for rows, _ in computed) == 300


class TestEvaluate:
    def test_bundles_both_metrics(self, s_curve_data):
        labels = make_s_curve(400, seed=0).labels
        report = mx.evaluate(s_curve_data, _pca_embedding(s_curve_data), labels)
        assert report.global_score == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= report.knn_accuracy <= 1.0

    def test_accuracy_absent_without_labels(self, s_curve_data):
        report = mx.evaluate(s_curve_data, _pca_embedding(s_curve_data))
        assert report.knn_accuracy is None
