"""Tests for the toy-data generators and CSV round trips."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbmap import datasets as ds


def _recover_s_curve_parameter(x, z):
    """Invert (sin t, sign(t)(cos t - 1)) back to t in (-1.5pi, 1.5pi)."""
    sign = -1.0 if z > 0 else 1.0
    base = np.arccos(np.clip(sign * z + 1.0, -1.0, 1.0))
    if sign * x < 0:  # |t| beyond pi wraps the arccos branch
        base = 2.0 * np.pi - base
    return sign * base


class TestSCurve:
    def test_points_lie_on_the_manifold(self):
        data = ds.make_s_curve(500, seed=0).data
        for x, _, z in data:
            t = _recover_s_curve_parameter(x, z)
            assert abs(x - np.sin(t)) + abs(z - np.sign(t) * (np.cos(t) - 1.0)) < 1e-9
            assert -1.5 * np.pi < t < 1.5 * np.pi

    def test_y_range(self):
        data = ds.make_s_curve(500, seed=1).data
        assert data[:, 1].min() >= 0.0
        assert data[:, 1].max() <= 2.0

    def test_y_mean_moment_bound(self):
        n = 2000
        data = ds.make_s_curve(n, seed=2).data
        # y is 2*Uniform(0,1): mean 1, std 2/sqrt(12)
        assert abs(data[:, 1].mean() - 1.0) <= 3.0 * (2.0 / np.sqrt(12.0)) / np.sqrt(n)

    def test_labels_quantize_the_parameter(self):
        out = ds.make_s_curve(300, seed=3)
        t = np.array([_recover_s_curve_parameter(x, z) for x, _, z in out.data])
        edges = np.linspace(-1.5 * np.pi, 1.5 * np.pi, 5)[1:-1]
        np.testing.assert_array_equal(out.labels, np.digitize(t, edges))
        assert set(np.unique(out.labels)) == {0, 1, 2, 3}

    def test_noise_perturbs_off_the_manifold(self):
        noisy = ds.make_s_curve(200, noise_std=0.05, seed=4).data
        clean = ds.make_s_curve(200, noise_std=0.0, seed=4).data
        assert not np.allclose(noisy, clean)
        assert np.abs(noisy - clean).max() < 0.05 * 6  # a few noise stds


class TestSwissRoll:
    def test_radius_identity(self):
        data = ds.make_swiss_roll(500, seed=0).data
        r = np.hypot(data[:, 0], data[:, 2])
        assert r.min() >= 1.5 * np.pi - 1e-9
        assert r.max() <= 4.5 * np.pi + 1e-9

    def test_y_range(self):
        data = ds.make_swiss_roll(500, seed=1).data
        assert data[:, 1].min() >= 0.0
        assert data[:, 1].max() <= 21.0

    def test_radius_coverage(self):
        data = ds.make_swiss_roll(1000, seed=2).data
        r = np.hypot(data[:, 0], data[:, 2])
        counts, _ = np.histogram(r, bins=np.linspace(1.5 * np.pi, 4.5 * np.pi, 11))
        assert np.all(counts > 0)

    def test_labels_quantize_the_roll_angle(self):
        out = ds.make_swiss_roll(300, seed=3)
        r = np.hypot(out.data[:, 0], out.data[:, 2])  # equals t when noise-free
        edges = np.linspace(1.5 * np.pi, 4.5 * np.pi, 5)[1:-1]
        np.testing.assert_array_equal(out.labels, np.digitize(r, edges))


class TestSeveredSphere:
    def test_unit_norm(self):
        data = ds.make_severed_sphere(1000, seed=0).data
        np.testing.assert_allclose(np.linalg.norm(data, axis=1), 1.0, atol=1e-12)

    def test_cut_region_is_empty(self):
        data = ds.make_severed_sphere(1000, seed=1).data
        colatitude = np.arccos(np.clip(data[:, 2], -1.0, 1.0))
        longitude = np.mod(np.arctan2(data[:, 1], data[:, 0]), 2.0 * np.pi)
        assert np.all(colatitude >= ds.SPHERE_CAP_COLATITUDE - 1e-9)
        assert np.all(longitude <= 2.0 * np.pi * ds.SPHERE_WEDGE_FRACTION + 1e-9)

    def test_surviving_fraction_matches_cut_area(self):
        n = 2000
        kept = ds.make_severed_sphere(n, seed=2).data.shape[0]
        # independent cuts: colatitude keeps 7/8 of its range, longitude 0.94
        p = (1.0 - 1.0 / 8.0) * ds.SPHERE_WEDGE_FRACTION
        assert abs(kept - n * p) <= 3.0 * np.sqrt(n * p * (1.0 - p))

    def test_no_labels(self):
        assert ds.make_severed_sphere(50, seed=3).labels is None


class TestCuboids:
    def test_points_stay_inside_their_cuboid(self):
        gap = 2.0
        out = ds.make_cuboids(200, gap=gap, seed=0)
        edges = np.array([2.0, 1.0, 1.0])
        for label in range(4):
            origin = np.array([(label % 2) * (edges[0] + gap),
                               (label // 2) * (edges[1] + gap), 0.0])
            pts = out.data[out.labels == label]
            assert np.all(pts >= origin)
            assert np.all(pts <= origin + edges)

    def test_min_inter_cluster_distance(self):
        gap = 2.0
        out = ds.make_cuboids(1000, gap=gap, seed=1)
        smallest = np.inf
        for a in range(4):
            for b in range(a + 1, 4):
                from cbmap.linalg_core import euclidean_distance_matrix

                d = euclidean_distance_matrix(out.data[out.labels == a],
                                              out.data[out.labels == b])
                smallest = min(smallest, d.min())
        assert smallest >= 0.9 * gap

    def test_row_count_and_labels(self):
        out = ds.make_cuboids(250, gap=1.0, seed=2)
        assert out.data.shape == (1000, 3)
        np.testing.assert_array_equal(np.bincount(out.labels), [250] * 4)

    def test_centroids_close_in_monotonically_with_gap(self):
        def mean_centroid_distance(gap):
            out = ds.make_cuboids(500, gap=gap, seed=3)
            centroids = np.array([out.data[out.labels == j].mean(axis=0) for j in range(4)])
            dists = [np.linalg.norm(centroids[a] - centroids[b])
                     for a in range(4) for b in range(a + 1, 4)]
            return np.mean(dists)

        values = [mean_centroid_distance(g) for g in (4.0, 2.0, 1.0, 0.25)]
        assert np.all(np.diff(values) < 0.0)

    def test_all_pairwise_centroids_shrink_with_gap(self):
        def centroids(gap):
            out = ds.make_cuboids(400, gap=gap, seed=4)
            return np.array([out.data[out.labels == j].mean(axis=0) for j in range(4)])

        wide, narrow = centroids(3.0), centroids(1.5)
        for a in range(4):
            for b in range(a + 1, 4):
                assert (np.linalg.norm(narrow[a] - narrow[b])
                        < np.linalg.norm(wide[a] - wide[b]))


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("make", [ds.make_s_curve, ds.make_swiss_roll,
                                      ds.make_severed_sphere])
    def test_same_seed_same_data(self, make):
        a = make(200, seed=9)
        b = make(200, seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("make", [ds.make_s_curve, ds.make_swiss_roll,
                                      ds.make_severed_sphere])
    def test_different_seeds_differ(self, make):
        a = make(200, seed=9)
        b = make(200, seed=10)
        assert a.data.shape != b.data.shape or not np.array_equal(a.data, b.data)

    def test_cuboids_deterministic(self):
        a = ds.make_cuboids(100, gap=2.0, seed=5)
        b = ds.make_cuboids(100, gap=2.0, seed=5)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("make", [ds.make_s_curve, ds.make_swiss_roll])
    @pytest.mark.parametrize("noise_std", [-0.1, float("nan"), float("inf")])
    def test_rejects_noise_that_is_negative_or_not_finite(self, make, noise_std):
        with pytest.raises(ValueError, match="^noise_std must be finite and nonnegative"):
            make(10, noise_std=noise_std)

    @pytest.mark.parametrize("gap", [-1.0, float("nan"), float("inf")])
    def test_cuboids_reject_a_gap_that_is_negative_or_not_finite(self, gap):
        with pytest.raises(ValueError, match="^gap must be finite and nonnegative"):
            ds.make_cuboids(10, gap=gap)

    @pytest.mark.parametrize("make", [ds.make_s_curve, ds.make_swiss_roll,
                                      ds.make_severed_sphere])
    def test_rejects_nonpositive_n(self, make):
        with pytest.raises(ValueError, match="at least 1"):
            make(0)


class TestLoadCsv:
    def test_small_file_with_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n3,4\n5,6\n")
        out = ds.load_csv(f)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert out.labels is None

    def test_label_column_by_name_first_seen_encoding(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("x,class\n0.5,a\n1.5,b\n2.5,a\n")
        out = ds.load_csv(f, label_column="class")
        np.testing.assert_array_equal(out.labels, [0, 1, 0])
        np.testing.assert_array_equal(out.data, [[0.5], [1.5], [2.5]])

    def test_label_column_by_index_without_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1,2,red\n3,4,blue\n")
        out = ds.load_csv(f, has_header=False, label_column=2)
        np.testing.assert_array_equal(out.labels, [0, 1])
        assert out.data.shape == (2, 2)

    def test_ragged_row_reports_line_number(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="line 3"):
            ds.load_csv(f)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 3, column 2"):
            ds.load_csv(f)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_reports_position(self, tmp_path, cell):
        # float() reads each of these as NaN or infinite
        f = tmp_path / "t.csv"
        f.write_text(f"a,b\n1,2\n3,{cell}\n")
        message = f"{f}: line 3, column 2: not finite: '{cell}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ds.load_csv(f)

    def test_non_finite_label_cells_are_labels(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,class\n1,nan\n2,inf\n3,nan\n")
        out = ds.load_csv(f, label_column="class")
        np.testing.assert_array_equal(out.labels, [0, 1, 0])

    @pytest.mark.parametrize("content, label_column, where", [
        (b"a,b\n1,nan\n2,oops\n", None, "line 2, column 2: not finite: 'nan'"),
        (b"a,b\n1,oops\n2,nan\n", None, "line 2, column 2: not numeric: 'oops'"),
        (b"a,b\nnan,oops\n", None, "line 2, column 1: not finite: 'nan'"),
        (b"a,b\noops,nan\n", None, "line 2, column 1: not numeric: 'oops'"),
        (b"a,b\n1,inf\n2\n", None, "line 2, column 2: not finite: 'inf'"),
        (b"a,b\n1,2\n\n\"3\n\",nan\n", None, "line 5, column 2: not finite: 'nan'"),
        (b"c,a,b\nx,1,2\ny,3,nan\nz,oops,1\n", "c", "line 3, column 3: not finite: 'nan'"),
        (b"a,c,b\n1,x,2\n-inf,y,3\n", 1, "line 3, column 1: not finite: '-inf'"),
    ], ids=["nan-above-text", "text-above-nan", "nan-left-of-text", "text-left-of-nan",
            "inf-above-ragged", "after-multi-line-field", "label-first",
            "label-between"])
    def test_first_fault_from_the_top_is_reported(self, tmp_path, content, label_column,
                                                  where):
        f = tmp_path / "t.csv"
        f.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{f}: {where}')}$"):
            ds.load_csv(f, label_column=label_column)

    def test_non_finite_cell_in_a_late_block_follows_the_blocks_above_it(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n" + "".join(f"{i},{i}\n" for i in range(5)) + "5,nan\n6,6\n")
        blocks = ds.load_csv_blocks(f, 2)
        assert [next(blocks).data[0, 0] for _ in range(2)] == [0.0, 2.0]
        with pytest.raises(ValueError, match="line 7, column 2: not finite: 'nan'$"):
            next(blocks)

    def test_rows_after_a_multi_line_field_keep_their_line_numbers(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text('a,b\n"1\n",2\n3,x\n')
        with pytest.raises(ValueError, match="line 4, column 2: not numeric: 'x'"):
            ds.load_csv(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ds.load_csv(f)

    def test_header_only_rejected(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            ds.load_csv(f)

    def test_unknown_label_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not found"):
            ds.load_csv(f, label_column="missing")

    def test_label_name_requires_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="needs a header"):
            ds.load_csv(f, has_header=False, label_column="class")

    def test_label_index_out_of_range(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="out of range"):
            ds.load_csv(f, label_column=5)

    def test_label_name_beyond_the_rows_is_out_of_range(self, tmp_path):
        # the header is wider than the rows, so the named column holds no values
        f = tmp_path / "t.csv"
        f.write_text("a,b,class\n1,2\n")
        with pytest.raises(ValueError, match="^label column index 2 out of range for 2 columns$"):
            ds.load_csv(f, label_column="class")

    def test_round_trip_preserves_values_exactly(self, tmp_path):
        rng = np.random.default_rng(40)
        data = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        ds.write_csv(first, data, labels)
        loaded = ds.load_csv(first, label_column="label")
        ds.write_csv(second, loaded.data, loaded.labels)
        reloaded = ds.load_csv(second, label_column="label")
        np.testing.assert_array_equal(reloaded.data, data)
        np.testing.assert_array_equal(reloaded.labels, labels)

    def test_oversized_field_reports_line_number(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n3," + "4" * 140000 + "\n")
        with pytest.raises(ValueError, match="line 3: field larger than field limit"):
            ds.load_csv(f)

    @pytest.mark.parametrize("content, where", [
        (b"\xff\xfea,b\n1,2\n", "line 1: not valid UTF-8: byte 0xff at position 1"),
        (b"a,b\n1,2\n3,\xe9\n", "line 3: not valid UTF-8: byte 0xe9 at position 3"),
        # a two-byte sequence cut short at the end of its line
        (b"a,b\n1,\xc3\n", "line 2: not valid UTF-8: byte 0xc3 at position 3"),
    ], ids=["utf16-mark", "latin1-byte", "cut-sequence"])
    def test_invalid_utf8_reports_file_and_line(self, tmp_path, content, where):
        f = tmp_path / "t.csv"
        f.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: {where};"):
            ds.load_csv(f)


def test_load_csv_memory_does_not_hold_the_rows_twice(tmp_path):
    roll = ds.make_swiss_roll(20_000, seed=0)
    f = tmp_path / "roll.csv"
    ds.write_csv(f, roll.data, roll.labels)
    tracemalloc.start()
    try:
        loaded = ds.load_csv(f, label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.data, roll.data)
    seen = {}
    first_seen = [seen.setdefault(label, len(seen)) for label in roll.labels.tolist()]
    np.testing.assert_array_equal(loaded.labels, first_seen)
    # the 640 KB of parsed values and labels, not a list of every row's cells (12 MB)
    assert peak < 2.5e6


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "t.csv"


# mostly characters a numeric CSV is made of, so that files get past the first cell
_CSV_TEXT = st.text(alphabet=st.sampled_from("0123456789.-+eEinfa,\"\n\r \t"), max_size=60)


class TestLoadCsvFuzz:
    @given(content=_CSV_TEXT | st.text(max_size=40).map(str.encode) | st.binary(max_size=40),
           has_header=st.booleans())
    @example(content=b"a,b\n1," + b"2" * 140000 + b"\n", has_header=True)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_any_file_is_a_dataset_or_a_value_error(self, csv_file, content, has_header):
        csv_file.write_bytes(content.encode() if isinstance(content, str) else content)
        try:
            dataset = ds.load_csv(csv_file, has_header=has_header)
        except ValueError:
            return
        assert dataset.data.ndim == 2 and dataset.data.dtype == np.float64
        assert np.isfinite(dataset.data).all()
        assert dataset.data.shape[0] >= 1 and dataset.data.shape[1] >= 1


class TestWriteCsv:
    def test_default_header(self, tmp_path):
        f = tmp_path / "t.csv"
        ds.write_csv(f, [[1.0, 2.0]], [7])
        assert f.read_text().splitlines()[0] == "x0,x1,label"

    def test_writes_shortest_round_trip_floats_and_integer_labels(self, tmp_path):
        f = tmp_path / "t.csv"
        ds.write_csv(f, [[-0.0, 1e-320], [0.1, 2.0]], [3.0, -2])
        assert f.read_bytes() == b"x0,x1,label\n-0.0,1e-320,3\n0.1,2.0,-2\n"

    @pytest.mark.parametrize("labels, row", [
        ([1.5, 2.7], 0), ([1.0, float("nan")], 1), (["a", "b"], 0), ([1, float("inf")], 1)])
    def test_labels_that_are_not_whole_numbers_are_rejected_before_writing(
            self, tmp_path, labels, row):
        f = tmp_path / "t.csv"
        f.write_text("kept\n")
        with pytest.raises(ValueError, match=f"^labels must be whole numbers; row {row} "):
            ds.write_csv(f, np.ones((2, 2)), labels)
        assert f.read_text() == "kept\n"

    def test_rows_beyond_one_chunk_are_written_as_one_text(self, tmp_path):
        rng = np.random.default_rng(41)
        data = rng.normal(size=(2 * ds._WRITE_ROWS + 5, 2))
        labels = rng.integers(-3, 3, size=len(data))
        f = tmp_path / "t.csv"
        ds.write_csv(f, data, labels)
        lines = [f"{x!r},{y!r},{label}" for (x, y), label in zip(data.tolist(), labels.tolist())]
        assert f.read_bytes() == "\n".join(["x0,x1,label", *lines, ""]).encode()

    def test_labels_length_checked(self, tmp_path):
        with pytest.raises(ValueError, match="does not match"):
            ds.write_csv(tmp_path / "t.csv", [[1.0], [2.0]], [0])

    def test_header_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            ds.write_csv(tmp_path / "t.csv", [[1.0, 2.0]], header=["only"])
