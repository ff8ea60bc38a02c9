"""Tests for the global score and kNN accuracy metrics."""

import numpy as np
import pytest

from cbmap import metrics as mx
from cbmap.datasets import make_s_curve
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


def _knn_oracle(y, labels, k, split):
    """kNN accuracy by sorting (distance, training position) pairs in Python."""
    train_idx, test_idx = mx._stratified_split(labels, split)
    correct = 0
    for t in test_idx:
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


class TestEvaluate:
    def test_bundles_both_metrics(self, s_curve_data):
        labels = make_s_curve(400, seed=0).labels
        report = mx.evaluate(s_curve_data, _pca_embedding(s_curve_data), labels)
        assert report.global_score == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= report.knn_accuracy <= 1.0

    def test_accuracy_absent_without_labels(self, s_curve_data):
        report = mx.evaluate(s_curve_data, _pca_embedding(s_curve_data))
        assert report.knn_accuracy is None
