"""Tests for the membership math: bandwidths, kernels, loss, gradient."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmap import linalg_core as lc
from cbmap import membership as mb


def _half_squared_loss(u_low, u_high):
    """Transform's objective 1/2 ||U_low - U_high||^2."""
    return 0.5 * mb.frobenius_loss(u_low, u_high) ** 2


def _fd_gradient(y, c, sigma, u_high, h=1e-5, objective=mb.frobenius_loss):
    """Central finite differences of ``objective`` as a function of the embedding."""

    def loss_at(points):
        d = lc.euclidean_distance_matrix(points, c)
        return objective(mb.membership_matrix(d, sigma), u_high)

    grad = np.zeros_like(y)
    for i in range(y.shape[0]):
        for l in range(y.shape[1]):
            up = y.copy()
            up[i, l] += h
            down = y.copy()
            down[i, l] -= h
            grad[i, l] = (loss_at(up) - loss_at(down)) / (2.0 * h)
    return grad


def _analytic_gradient(y, c, sigma, u_high):
    d = lc.euclidean_distance_matrix(y, c)
    u_low = mb.membership_matrix(d, sigma)
    loss = mb.frobenius_loss(u_low, u_high)
    return mb.loss_gradient(y, c, sigma, u_low.T, u_high.T, loss), loss


def _unblocked_loss_and_gradient(y, c, sigma, u_low, u_high):
    """The loss and gradient formulas on whole matrices, scaling the weights first."""
    diff = u_low - u_high
    loss = np.sqrt(np.sum(diff * diff))
    w = -diff * u_low / (loss * sigma * sigma)
    return loss, y * w.sum(axis=1, keepdims=True) - w @ c


def _rows_over_blocks(k):
    """Row count for (n, k) memberships: two full row blocks and a partial one."""
    return 2 * max(1, lc._CHUNK_ELEMS // k) + 3


def _median_cases():
    """Arrays of odd and even lengths, with ties, of length 1 and 2, and at
    magnitudes of 1e-150 and 1e150, keyed by name."""
    rng = np.random.default_rng(20)
    cases = {}
    for scale in (1.0, 1e-150, 1e150):
        for n in (1, 2, 3, 4, 7, 10, 999, 1000):
            cases[f"uniform-{n}-{scale:g}"] = scale * rng.uniform(0.1, 5.0, size=(n, 6))
            # a handful of values, so the central ones tie
            cases[f"ties-{n}-{scale:g}"] = scale * rng.integers(1, 4, size=(n, 6)).astype(float)
    return cases


_MEDIAN_CASES = _median_cases()


class TestMedian:
    """The bandwidths take their medians from ``np.partition``; each keeps
    ``np.median``'s bits."""

    @pytest.mark.parametrize("name", _MEDIAN_CASES)
    def test_helper_is_bit_equal_to_numpy_median(self, name):
        a = _MEDIAN_CASES[name]
        for values in (a, a.T, a[:, 0]):
            np.testing.assert_array_equal(mb._median(values), np.median(values, axis=-1))

    @pytest.mark.parametrize("name", _MEDIAN_CASES)
    def test_sigma_high_is_bit_equal_to_numpy_median(self, name):
        d = _MEDIAN_CASES[name]
        assert mb.sigma_high(d) == float(np.median(d, axis=0).mean())

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 21, 40])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_sigma_low_is_bit_equal_to_numpy_median(self, k, scale):
        rng = np.random.default_rng(k)
        # grid centers tie; the far first one keeps them from all coinciding
        grid = rng.integers(0, 3, size=(k, 2)).astype(float)
        grid[0] = 7.0
        for centers in (scale * rng.normal(size=(k, 2)), scale * grid):
            d = lc.euclidean_distance_matrix(centers, centers)
            off_diagonal = d[~np.eye(k, dtype=bool)].reshape(k, k - 1)
            assert mb.sigma_low(centers) == float(np.median(off_diagonal, axis=1).mean())

    def test_sigma_high_holds_one_column_beyond_its_input(self):
        # np.median(d, axis=0) copied all of d
        d = np.random.default_rng(21).uniform(0.0, 5.0, size=(20_000, 40))
        tracemalloc.start()
        try:
            mb.sigma_high(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d.nbytes / 4


class TestSigmaHigh:
    def test_constant_matrix(self):
        assert mb.sigma_high(np.full((5, 3), 2.7)) == pytest.approx(2.7)

    def test_hand_computed_column_medians(self):
        d = np.array([[1.0, 3.0], [2.0, 4.0], [3.0, 5.0], [4.0, 6.0]])
        # column medians (2.5, 4.5), averaged
        assert mb.sigma_high(d) == pytest.approx(3.5)

    def test_single_center(self):
        assert mb.sigma_high(np.array([[0.0], [2.0], [4.0]])) == pytest.approx(2.0)

    def test_all_zero_distances_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            mb.sigma_high(np.zeros((4, 2)))

    @given(s=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, s):
        rng = np.random.default_rng(21)
        d = rng.uniform(0.1, 5.0, size=(6, 4))
        base = mb.sigma_high(d)
        assert mb.sigma_high(s * d) == pytest.approx(s * base, rel=1e-12)


class TestSigmaLow:
    def test_two_centers(self):
        assert mb.sigma_low(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)

    def test_equilateral_triangle(self):
        side = 2.0
        centers = np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, side * np.sqrt(3.0) / 2.0]])
        assert mb.sigma_low(centers) == pytest.approx(side)

    def test_matches_per_center_median_oracle(self):
        rng = np.random.default_rng(22)
        centers = rng.normal(size=(4, 2))
        medians = []
        for j in range(4):
            dists = [np.linalg.norm(centers[j] - centers[i]) for i in range(4) if i != j]
            medians.append(np.median(dists))
        assert mb.sigma_low(centers) == pytest.approx(np.mean(medians), rel=1e-12)

    def test_identical_centers_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            mb.sigma_low(np.ones((3, 2)))


class TestMembershipMatrix:
    def test_zero_distance_gives_one(self):
        out = mb.membership_matrix(np.zeros((1, 1)), 1.7)
        assert out[0, 0] == pytest.approx(1.0)

    def test_half_membership_distance(self):
        # exp(-d^2 / (2 sigma^2)) = 1/2 at d = sigma * sqrt(2 ln 2)
        sigma = 0.8
        d = sigma * np.sqrt(2.0 * np.log(2.0))
        out = mb.membership_matrix(np.array([[d]]), sigma)
        assert out[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(23)
        d = rng.uniform(0.0, 4.0, size=(5, 3))
        out = mb.membership_matrix(d, 1.3)
        for i in range(5):
            for j in range(3):
                expected = np.exp(-(d[i, j] ** 2) / (2.0 * 1.3**2))
                assert out[i, j] == pytest.approx(expected, abs=1e-14)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(24)
        out = mb.membership_matrix(rng.uniform(0.0, 10.0, size=(8, 4)), 0.9)
        assert np.all(out > 0.0) and np.all(out <= 1.0)

    def test_monotone_in_distance(self):
        d = np.linspace(0.0, 5.0, 50)[None, :]
        vals = mb.membership_matrix(d, 1.1)[0]
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize("sigma", [0.37, 1.3, 2e-154])
    def test_transposed_distances_give_the_transpose_contiguous(self, sigma):
        # fit and transform build (k, n) memberships from (n, k) distances this
        # way; the tiny bandwidth sends most entries through overflow to zero
        d = np.random.default_rng(27).uniform(0.0, 4.0, size=(1000, 7))
        u = mb.membership_matrix(d, sigma)
        u_t = mb.membership_matrix(d.T, sigma)
        assert u.flags.c_contiguous and u_t.flags.c_contiguous
        np.testing.assert_array_equal(u_t, u.T)
        # and the bits of the whole-array formula
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(u, np.exp(-(d * d) / (2.0 * sigma * sigma)))

    @given(s=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_joint_rescaling(self, s):
        rng = np.random.default_rng(25)
        d = rng.uniform(0.0, 5.0, size=(6, 3))
        sigma = 1.4
        base = mb.membership_matrix(d, sigma)
        scaled = mb.membership_matrix(s * d, s * sigma)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)


class TestFrobeniusLoss:
    def test_equal_matrices(self):
        u = np.random.default_rng(26).uniform(size=(4, 3))
        assert mb.frobenius_loss(u, u) == 0.0

    def test_single_unit_difference(self):
        a = np.full((3, 3), 0.5)
        b = a.copy()
        b[1, 2] += 1.0
        assert mb.frobenius_loss(a, b) == pytest.approx(1.0)

    def test_matches_scalar_accumulation(self):
        rng = np.random.default_rng(27)
        a = rng.uniform(size=(5, 3))
        b = rng.uniform(size=(5, 3))
        total = 0.0
        for i in range(5):
            for j in range(3):
                total += (a[i, j] - b[i, j]) ** 2
        assert mb.frobenius_loss(a, b) == pytest.approx(np.sqrt(total), abs=1e-12)

    def test_accepts_membership_wrappers(self):
        u = mb.membership_matrix(np.array([[1.0, 2.0]]), 1.0)
        assert mb.frobenius_loss(u, u) == 0.0

    # grid-valued entries: differences below ~1e-162 square-underflow to 0
    _unit_grid = st.integers(0, 1000).map(lambda v: v / 1000.0)

    @given(
        a=st.lists(_unit_grid, min_size=6, max_size=6),
        b=st.lists(_unit_grid, min_size=6, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetric_nonnegative_definite(self, a, b):
        a = np.array(a).reshape(2, 3)
        b = np.array(b).reshape(2, 3)
        f = mb.frobenius_loss(a, b)
        assert f >= 0.0
        assert f == mb.frobenius_loss(b, a)
        if not np.array_equal(a, b):
            assert f > 0.0


    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_blocked_sum_matches_unblocked(self, k):
        rng = np.random.default_rng(31 + k)
        n = _rows_over_blocks(k)
        u_low = rng.uniform(size=(n, k))
        u_high = rng.uniform(size=(n, k))
        expected = np.sqrt(np.sum((u_low - u_high) ** 2))
        assert mb.frobenius_loss(u_low, u_high) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1, 5, 40, 300])
    def test_either_orientation_gives_the_same_norm(self, k):
        # the descent step passes its memberships centers x points
        rng = np.random.default_rng(35 + k)
        n = _rows_over_blocks(k)
        u_low = rng.uniform(size=(n, k))
        u_high = rng.uniform(size=(n, k))
        assert mb.frobenius_loss(u_low.T, u_high.T) == pytest.approx(
            mb.frobenius_loss(u_low, u_high), rel=1e-15, abs=0.0)


class TestLossGradient:
    def test_zero_when_memberships_match(self):
        rng = np.random.default_rng(28)
        y = rng.normal(size=(4, 2))
        c = rng.normal(size=(3, 2))
        grad, loss = _analytic_gradient(y, c, 1.0, mb.membership_matrix(
            lc.euclidean_distance_matrix(y, c), 1.0))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(y))

    def test_single_point_single_center_matches_fd(self):
        y = np.array([[0.7]])
        c = np.array([[0.0]])
        sigma = 0.9
        u_high = np.array([[0.3]])
        grad, loss = _analytic_gradient(y, c, sigma, u_high)
        assert loss > 0.01
        np.testing.assert_allclose(grad, _fd_gradient(y, c, sigma, u_high), rtol=1e-4)

    def test_random_instance_matches_fd_entrywise(self):
        rng = np.random.default_rng(29)
        y = rng.normal(size=(6, 2))
        c = rng.normal(size=(3, 2))
        sigma = 1.2
        u_high = rng.uniform(0.05, 1.0, size=(6, 3))
        grad, loss = _analytic_gradient(y, c, sigma, u_high)
        assert loss > 0.01
        np.testing.assert_allclose(
            grad, _fd_gradient(y, c, sigma, u_high), rtol=1e-4, atol=1e-8
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_configurations_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        k = int(rng.integers(2, 5))
        y = rng.normal(size=(n, 2))
        c = rng.normal(size=(k, 2))
        sigma = float(rng.uniform(0.5, 2.0))
        u_high = rng.uniform(0.05, 1.0, size=(n, k))
        grad, loss = _analytic_gradient(y, c, sigma, u_high)
        assert loss > 0.01
        np.testing.assert_allclose(
            grad, _fd_gradient(y, c, sigma, u_high), rtol=1e-4, atol=1e-8
        )
        # loss=1 turns the gradient into that of transform's objective
        u_low = mb.membership_matrix(lc.euclidean_distance_matrix(y, c), sigma)
        np.testing.assert_allclose(
            mb.loss_gradient(y, c, sigma, u_low.T, u_high.T, 1.0),
            _fd_gradient(y, c, sigma, u_high, objective=_half_squared_loss),
            rtol=1e-4, atol=1e-8,
        )

    def test_negative_gradient_is_descent_direction(self):
        rng = np.random.default_rng(30)
        y = rng.normal(size=(5, 2))
        c = rng.normal(size=(3, 2))
        sigma = 1.0
        u_high = rng.uniform(0.1, 1.0, size=(5, 3))
        grad, loss = _analytic_gradient(y, c, sigma, u_high)
        assert loss > 0.01
        stepped = y - 1e-4 * grad
        d = lc.euclidean_distance_matrix(stepped, c)
        new_loss = mb.frobenius_loss(mb.membership_matrix(d, sigma), u_high)
        assert new_loss < loss

    def test_zero_matrix_below_loss_floor(self):
        y = np.array([[1.0, 2.0]])
        c = np.array([[0.0, 0.0]])
        u = np.array([[0.5]])
        out = mb.loss_gradient(y, c, 1.0, u, u, mb.GRADIENT_LOSS_FLOOR / 2.0)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_blocked_gradient_matches_unblocked(self, k):
        rng = np.random.default_rng(41 + k)
        n = _rows_over_blocks(k)
        y = rng.normal(size=(n, 2))
        c = rng.normal(size=(k, 2))
        sigma = 0.8
        u_low = mb.membership_matrix(lc.euclidean_distance_matrix(y, c), sigma)
        u_high = rng.uniform(size=(n, k))
        loss, expected = _unblocked_loss_and_gradient(y, c, sigma, u_low, u_high)
        grad = mb.loss_gradient(y, c, sigma, u_low.T, u_high.T, loss)
        # relative to the largest entry: an entry can be the difference of two
        # nearly equal terms, so its own relative error is unbounded
        np.testing.assert_allclose(grad, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("k", [1, 5, 40, 300])
    def test_memory_order_of_the_memberships_keeps_the_gradient(self, k):
        # the descent step passes C-contiguous (k, n) memberships; the tests
        # above pass transposes of (n, k) arrays, which are Fortran-ordered
        rng = np.random.default_rng(45 + k)
        n = _rows_over_blocks(k)
        y = rng.normal(size=(n, 2))
        c = rng.normal(size=(k, 2))
        u_low = mb.membership_matrix(lc.euclidean_distance_matrix(y, c), 0.8)
        u_high = rng.uniform(size=(n, k))
        loss = mb.frobenius_loss(u_low, u_high)
        expected = mb.loss_gradient(y, c, 0.8, np.ascontiguousarray(u_low.T),
                                    np.ascontiguousarray(u_high.T), loss)
        grad = mb.loss_gradient(y, c, 0.8, u_low.T, u_high.T, loss)
        np.testing.assert_allclose(grad, expected, rtol=1e-15,
                                   atol=1e-15 * np.abs(expected).max())

    def test_equal_memberships_give_exact_zeros_across_blocks(self):
        rng = np.random.default_rng(51)
        n = _rows_over_blocks(5)
        y = rng.normal(size=(n, 2))
        c = rng.normal(size=(5, 2))
        u = rng.uniform(size=(5, n))
        loss = mb.frobenius_loss(u, u)
        assert loss == 0.0
        np.testing.assert_array_equal(mb.loss_gradient(y, c, 1.0, u, u, loss), np.zeros_like(y))
        # the floor itself is still below it
        np.testing.assert_array_equal(
            mb.loss_gradient(y, c, 1.0, u, rng.uniform(size=(5, n)), mb.GRADIENT_LOSS_FLOOR),
            np.zeros_like(y))


class TestBlockMemory:
    """The loss and the gradient form every block in one reused buffer."""

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    @pytest.mark.parametrize("k", [5, 40])
    def test_loss_holds_one_block(self, k):
        rng = np.random.default_rng(61 + k)
        n = _rows_over_blocks(k)
        u_low = rng.uniform(size=(k, n))
        u_high = rng.uniform(size=(k, n))
        _, peak = self._peak(mb.frobenius_loss, u_low, u_high)
        # the old loop's second block alone was a full one
        assert peak < 1.25 * lc._CHUNK_ELEMS * 8

    @pytest.mark.parametrize("k", [20, 40])
    def test_gradient_holds_one_block_beyond_its_output(self, k):
        rng = np.random.default_rng(65 + k)
        n = _rows_over_blocks(k)
        y = rng.normal(size=(n, 2))
        c = rng.normal(size=(k, 2))
        u_low = np.ascontiguousarray(
            mb.membership_matrix(lc.euclidean_distance_matrix(y, c), 0.8).T)
        u_high = rng.uniform(size=(k, n))
        grad, peak = self._peak(mb.loss_gradient, y, c, 0.8, u_low, u_high, 1.0)
        # beside the block, numpy buffers the two strided (k, B) membership
        # slices a ufunc reads, getbufsize() values each; the old loop's
        # second block alone was a full one
        ufunc_buffers = 2 * np.getbufsize() * 8
        assert peak < grad.nbytes + lc._CHUNK_ELEMS * 8 + ufunc_buffers + 32_768
