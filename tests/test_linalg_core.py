"""Tests for the dense-matrix primitives."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cbmap import linalg_core as lc

# Grid-valued entries keep hypothesis away from subnormals and overflow while
# still exercising negative, zero and repeated values.
_elements = st.integers(-500, 500).map(lambda v: v / 10.0)
_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=_elements,
)


class TestEuclideanDistanceMatrix:
    def test_identical_single_rows(self):
        out = lc.euclidean_distance_matrix([[1.0, 2.0]], [[1.0, 2.0]])
        assert out[0, 0] == pytest.approx(0.0)

    def test_three_four_five_triangle(self):
        out = lc.euclidean_distance_matrix([[0.0, 0.0]], [[3.0, 4.0]])
        assert out[0, 0] == pytest.approx(5.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(2, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                expected[i, j] = np.sqrt(((a[i] - b[j]) ** 2).sum())
        np.testing.assert_allclose(lc.euclidean_distance_matrix(a, b), expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            lc.euclidean_distance_matrix(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="non-finite"):
            lc.euclidean_distance_matrix([[np.nan, 0.0]], [[0.0, 0.0]])

    def test_chunked_path_matches_single_pass(self, monkeypatch):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(37, 5))
        b = rng.normal(size=(11, 5))
        whole = lc.euclidean_distance_matrix(a, b)
        monkeypatch.setattr(lc, "_CHUNK_ELEMS", 64)  # force many small row chunks
        np.testing.assert_array_equal(lc.euclidean_distance_matrix(a, b), whole)

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 256])
    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_agrees_with_einsum_oracle_across_blocks(self, d, k):
        # both the column-by-column (d < k) and the difference-block path,
        # with enough rows for two full blocks and a partial one
        rows_per_block = max(1, lc._CHUNK_ELEMS // (k * d))
        rng = np.random.default_rng(d * 1000 + k)
        a = rng.normal(size=(2 * rows_per_block + 3, d))
        b = rng.normal(size=(k, d))
        diff = a[:, None, :] - b[None, :, :]
        expected = np.sqrt(np.einsum("ijl,ijl->ij", diff, diff))
        np.testing.assert_allclose(lc.euclidean_distance_matrix(a, b), expected,
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("k", [3, 40])
    def test_two_columns_equal_the_explicit_formula(self, k):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(1000, 2))
        b = rng.normal(size=(k, 2))
        expected = np.sqrt((a[:, 0, None] - b[:, 0]) ** 2 + (a[:, 1, None] - b[:, 1]) ** 2)
        np.testing.assert_array_equal(lc.euclidean_distance_matrix(a, b), expected)

    @pytest.mark.parametrize("k", [1, 8])
    def test_overflow_is_inf_without_warning(self, k):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 4)) * 1e160
        b = rng.normal(size=(k, 4)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lc.euclidean_distance_matrix(a, b)
        assert np.all(np.isposinf(out))

    @pytest.mark.parametrize("d, k", [(2, 40), (3, 300), (5, 5), (17, 3)])
    def test_squared_output_is_the_default_before_its_square_root(self, d, k):
        # both kernel paths, over two full row blocks and a partial one
        rows_per_block = max(1, lc._CHUNK_ELEMS // (k * d))
        rng = np.random.default_rng(d * 1000 + k)
        a = rng.normal(size=(2 * rows_per_block + 3, d))
        b = rng.normal(size=(k, d))
        squared = lc.euclidean_distance_matrix(a, b, squared=True)
        np.testing.assert_array_equal(np.sqrt(squared), lc.euclidean_distance_matrix(a, b))
        diff = a[:, None, :] - b[None, :, :]
        np.testing.assert_allclose(squared, np.einsum("ijl,ijl->ij", diff, diff),
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("k", [1, 8])
    def test_squared_overflow_is_inf_without_warning(self, k):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 4)) * 1e160
        b = rng.normal(size=(k, 4)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lc.euclidean_distance_matrix(a, b, squared=True)
        assert np.all(np.isposinf(out))

    # (n, k, d): d below both row counts takes the column-by-column path both
    # ways, d at or above both the difference-block path
    @pytest.mark.parametrize("n, k, d", [(3000, 40, 2), (500, 300, 3), (200, 100, 256),
                                         (70, 256, 300)])
    @pytest.mark.parametrize("squared", [False, True])
    def test_swapping_the_arguments_transposes_the_result_exactly(self, n, k, d, squared):
        rng = np.random.default_rng(n + k + d)
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(k, d))
        for rows, cols in ((n, k), (k, n)):  # several row blocks in both calls
            assert rows > 2 * max(1, lc._CHUNK_ELEMS // (cols * d))
        ab = lc.euclidean_distance_matrix(a, b, squared=squared)
        np.testing.assert_array_equal(lc.euclidean_distance_matrix(b, a, squared=squared), ab.T)

    @given(m=_matrices)
    @settings(max_examples=40, deadline=None)
    def test_self_distance_symmetric_with_zero_diagonal(self, m):
        d = lc.euclidean_distance_matrix(m, m)
        np.testing.assert_allclose(d, d.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-12)

    def test_triangle_inequality_on_sampled_triples(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 3))
        d = lc.euclidean_distance_matrix(pts, pts)
        for i, j, k in rng.integers(0, 12, size=(200, 3)):
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestZscoreNormalize:
    def test_constant_column_maps_to_zeros(self):
        np.testing.assert_array_equal(
            lc.zscore_normalize([[5.0], [5.0], [5.0]]), np.zeros((3, 1))
        )

    def test_column_with_rounding_residue_in_its_std_maps_to_zeros(self):
        # np.std of three 0.1 entries is 1.4e-17, not 0
        m = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]])
        out = lc.zscore_normalize(m)
        np.testing.assert_array_equal(out[:, 0], np.zeros(3))
        root = 1.0 / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out[:, 1], [-root, 0.0, root], atol=1e-12)

    def test_symmetric_pair_is_already_normalized(self):
        np.testing.assert_allclose(
            lc.zscore_normalize([[-1.0], [1.0]]), [[-1.0], [1.0]], atol=1e-12
        )

    def test_hand_computed_column(self):
        # mean 2, population std sqrt(2/3)
        out = lc.zscore_normalize([[1.0], [2.0], [3.0]])
        root = 1.0 / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out[:, 0], [-root, 0.0, root], atol=1e-12)

    def test_output_columns_standardized(self):
        rng = np.random.default_rng(8)
        out = lc.zscore_normalize(rng.normal(3.0, 7.0, size=(40, 3)))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    @given(m=_matrices)
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, m):
        once = lc.zscore_normalize(m)
        np.testing.assert_allclose(lc.zscore_normalize(once), once, atol=1e-10)

    @staticmethod
    def _whole_matrix_scaling(m):
        """zscore_normalize's formula on whole-matrix temporaries."""
        std = m.std(axis=0)
        std[m.max(axis=0) == m.min(axis=0)] = 0.0
        nz = std > 0.0
        out = np.zeros_like(m)
        out[:, nz] = (m[:, nz] - m.mean(axis=0)[nz]) / std[nz]
        return out

    @pytest.mark.parametrize("shape", [(1, 3), (7, 2), (3, 1), (4000, 256),
                                       (2 * lc._CHUNK_ELEMS // 3 + 5, 3)])
    def test_blocked_scaling_is_bit_equal_to_the_whole_matrix_formula(self, shape):
        # the last shape spans three row blocks; a constant column maps to zeros
        m = np.random.default_rng(9).normal(3.0, 7.0, size=shape)
        m[:, 0] = 0.1
        expected = self._whole_matrix_scaling(m)
        np.testing.assert_array_equal(lc.zscore_normalize(m), expected)
        mean, std = lc.fit_scaler(m)
        np.testing.assert_array_equal(mean, m.mean(axis=0))
        np.testing.assert_array_equal(std[1:], m[:, 1:].std(axis=0))

    def test_one_column_beyond_a_block_agrees_within_a_unit_in_the_last_place(self):
        # numpy sums one long column pairwise, the blocks row by row
        m = np.random.default_rng(10).normal(3.0, 7.0, size=(lc._CHUNK_ELEMS + 100, 1))
        np.testing.assert_allclose(lc.fit_scaler(m)[1], m.std(axis=0), rtol=4e-16, atol=0.0)

    def test_peak_memory_stays_near_the_output(self):
        # m.std(axis=0) and the column-selected copies held 3x the input beside it
        m = np.random.default_rng(11).normal(size=(4000, 256))
        tracemalloc.start()
        try:
            lc.zscore_normalize(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m.nbytes


def _whole_matrix_components(x, m):
    """pca_fit's components from the Gram matrix of the whole centred matrix,
    formed in one product."""
    n, d = x.shape
    xc = x - x.mean(axis=0)
    top = np.linalg.eigh(xc.T @ xc if n >= d else xc @ xc.T)[1][:, :-m - 1:-1]
    components = (top if n >= d else np.linalg.qr(xc.T @ top)[0]).T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return components


class TestPcaFit:
    def test_axis_aligned_line(self):
        x = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        model = lc.pca_fit(x, 1)
        np.testing.assert_allclose(model.components, [[1.0, 0.0]], atol=1e-12)

    def test_matches_covariance_eigendecomposition(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(200, 2)) @ np.array([[2.0, 0.3], [1.2, 0.4]])
        model = lc.pca_fit(x, 2)

        # independent oracle: eigen-decomposition of the sample covariance
        eigvals, eigvecs = np.linalg.eigh(np.cov(x, rowvar=False))
        order = np.argsort(eigvals)[::-1]
        expected = eigvecs[:, order].T.copy()
        for row in expected:
            j = int(np.argmax(np.abs(row)))
            if row[j] < 0:
                row *= -1.0
        np.testing.assert_allclose(model.components, expected, atol=1e-8)
        np.testing.assert_allclose(lc.pca_transform(model, x).var(axis=0, ddof=1),
                                   eigvals[order], atol=1e-8)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(15, 4))
        model = lc.pca_fit(x, 4)
        recovered = lc.pca_transform(model, x) @ model.components
        np.testing.assert_allclose(recovered, x - model.mean, atol=1e-8)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(13)
        model = lc.pca_fit(rng.normal(size=(30, 5)), 3)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_components_come_in_order_of_variance(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(25, 6))
        variances = lc.pca_transform(lc.pca_fit(x, 5), x).var(axis=0)
        assert np.all(np.diff(variances) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(15)
        model = lc.pca_fit(rng.normal(size=(20, 4)), 3)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    @pytest.mark.parametrize("n, d, m", [(200, 6, 3), (8, 30, 3), (5, 12, 5)],
                             ids=["tall", "wide", "wide-all-components"])
    @pytest.mark.parametrize("top_scale", [1.0, 1e6])
    def test_matches_svd_oracle(self, n, d, m, top_scale):
        # column scales from 1 to top_scale; the Gram matrix squares that spread
        rng = np.random.default_rng(17)
        x = rng.normal(size=(n, d)) * np.geomspace(1.0, top_scale, d) + 3.0
        model = lc.pca_fit(x, m)
        _, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
        expected_var = s[:m] ** 2 / (n - 1)
        np.testing.assert_allclose(lc.pca_transform(model, x).var(axis=0, ddof=1), expected_var,
                                   rtol=1e-9, atol=1e-12 * expected_var[0])
        np.testing.assert_allclose(model.components @ model.components.T, np.eye(m), atol=1e-10)
        # the same subspace: equal projectors onto the spans with nonzero variance
        kept = s[:m] > 1e-12 * s[0]
        np.testing.assert_allclose(model.components[kept].T @ model.components[kept],
                                   vt[:m][kept].T @ vt[:m][kept], atol=1e-9)

    @pytest.mark.parametrize("n, d", [(20, 256), (40, 3), (1024, 64)],
                             ids=["wide-centers", "roll-centers", "one-full-block"])
    def test_one_block_is_bit_equal_to_the_whole_matrix_product(self, n, d):
        # fit's center PCA, of k centers, is a wide matrix or fits in one block
        assert n < d or n <= lc._PCA_CHUNKS * (lc._CHUNK_ELEMS // d)
        x = np.random.default_rng(18).normal(size=(n, d)) * np.geomspace(1.0, 10.0, d)
        model = lc.pca_fit(x, 2)
        np.testing.assert_array_equal(model.components, _whole_matrix_components(x, 2))

    @pytest.mark.parametrize("n", [1024, 1025, 3000])
    def test_blocked_gram_matches_the_whole_matrix_product(self, n):
        # 1024 rows of 64 columns make one block; more rows sum several
        d = 64
        x = np.random.default_rng(19).normal(size=(n, d)) * np.geomspace(1.0, 10.0, d) + 5.0
        model = lc.pca_fit(x, 3)
        np.testing.assert_allclose(model.components, _whole_matrix_components(x, 3),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [0, 5])
    def test_m_out_of_range(self, m):
        with pytest.raises(ValueError, match="m must be in"):
            lc.pca_fit(np.random.default_rng(0).normal(size=(10, 4)), m)

    def test_beats_random_projections(self):
        # optimality at desk scale: no random 2-D orthonormal projection of a
        # 20x5 matrix reconstructs it better than PCA
        rng = np.random.default_rng(16)
        x = rng.normal(size=(20, 5))
        xc = x - x.mean(axis=0)
        model = lc.pca_fit(x, 2)
        proj = xc @ model.components.T
        pca_err = np.linalg.norm(xc - proj @ model.components)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
            rand_err = np.linalg.norm(xc - (xc @ q) @ q.T)
            assert pca_err <= rand_err + 1e-9


class TestPcaTransform:
    def test_row_at_mean_maps_to_zero(self):
        rng = np.random.default_rng(17)
        model = lc.pca_fit(rng.normal(size=(12, 3)), 2)
        out = lc.pca_transform(model, model.mean[None, :])
        np.testing.assert_allclose(out, np.zeros((1, 2)), atol=1e-12)

    def test_identity_components_subtract_mean(self):
        model = lc.PcaModel(mean=np.array([1.0, -2.0]), components=np.eye(2))
        out = lc.pca_transform(model, [[3.0, 4.0]])
        np.testing.assert_allclose(out, [[2.0, 6.0]], atol=1e-12)

    def test_matches_explicit_product(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(7, 4))
        model = lc.pca_fit(rng.normal(size=(9, 4)), 2)
        expected = np.zeros((7, 2))
        for i in range(7):
            for j in range(2):
                expected[i, j] = sum(
                    (x[i, l] - model.mean[l]) * model.components[j, l] for l in range(4)
                )
        np.testing.assert_allclose(lc.pca_transform(model, x), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = lc.pca_fit(np.random.default_rng(0).normal(size=(6, 3)), 2)
        with pytest.raises(ValueError, match="columns"):
            lc.pca_transform(model, np.zeros((2, 4)))


class TestAsDataMatrix:
    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            lc.as_data_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one row"):
            lc.as_data_matrix(np.empty((0, 2)))

    def test_error_uses_given_name(self):
        with pytest.raises(ValueError, match="embedding"):
            lc.as_data_matrix([[np.inf]], "embedding")

    def test_a_large_input_is_checked_a_block_of_rows_at_a_time(self):
        # a one-byte mask per entry of this 8,000 x 256 input would be 2 MB
        x = np.random.default_rng(0).normal(size=(8000, 256))
        lc.as_data_matrix(x[:10])  # one-time set-up
        tracemalloc.start()
        try:
            assert lc.as_data_matrix(x) is x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.size / 2
        x[-1, -1] = np.nan  # in the last block
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            lc.as_data_matrix(x, "x")
