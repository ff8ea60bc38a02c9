"""End-to-end tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cbmap
from cbmap.cli import main, render_scatter_svg
from cbmap.clustering import assign_labels
from cbmap.datasets import load_csv, write_csv
from cbmap.embedder import transform_block_rows
from cbmap.linalg_core import euclidean_distance_matrix
from cbmap.metrics import knn_accuracy
from _util import two_blobs


def _spearman(a, b):
    # no ties expected: plain rank correlation
    ra = np.argsort(np.argsort(a)).astype(np.float64)
    rb = np.argsort(np.argsort(b)).astype(np.float64)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


def _iris_like_csv(path, n_per=50, seed=0):
    """150x4 three-class table in the spirit of the classic flower data."""
    rng = np.random.default_rng(seed)
    names = ("setosa", "versicolor", "virginica")
    blocks, labels = [], []
    for i, center in enumerate(([5.0, 3.4, 1.5, 0.2], [5.9, 2.8, 4.3, 1.3],
                                [6.6, 3.0, 5.6, 2.0])):
        blocks.append(rng.normal(center, 0.3, size=(n_per, 4)))
        labels.extend([names[i]] * n_per)
    rows = ["sl,sw,pl,pw,species"]
    for row, lab in zip(np.vstack(blocks), labels):
        rows.append(",".join(repr(float(v)) for v in row) + f",{lab}")
    path.write_text("\n".join(rows) + "\n")


class TestGenerate:
    def test_cuboids_row_count_and_label_column(self, tmp_path):
        out = tmp_path / "cuboids.csv"
        code = main(["generate", "cuboids", "--n-per", "1000", "--gap", "2.0",
                     "--seed", "7", "-o", str(out)])
        assert code == 0
        loaded = load_csv(out, label_column="label")
        assert loaded.data.shape == (4000, 3)
        assert set(np.unique(loaded.labels)) == {0, 1, 2, 3}
        assert (tmp_path / "cuboids.csv.manifest.json").exists()

    def test_manifest_is_strict_json_when_an_unused_flag_is_nan(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["generate", "s_curve", "--n", "50", "--gap", "nan", "-o", str(out)]) == 0

        def reject(literal):
            raise ValueError(f"not strict JSON: {literal}")

        doc = json.loads(Path(f"{out}.manifest.json").read_text(), parse_constant=reject)
        assert doc["config"] == {"dataset": "s_curve", "n": 50, "noise": 0.0}

    def test_same_seed_gives_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "s_curve", "--n", "1000", "--seed", "1", "-o", str(a)]) == 0
        assert main(["generate", "s_curve", "--n", "1000", "--seed", "1", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_swiss_roll_round_trip_keeps_manifold(self, tmp_path):
        out = tmp_path / "roll.csv"
        assert main(["generate", "swiss_roll", "--n", "400", "-o", str(out)]) == 0
        loaded = load_csv(out, label_column="label")
        r = np.hypot(loaded.data[:, 0], loaded.data[:, 2])
        assert r.min() >= 1.5 * np.pi - 1e-9
        assert r.max() <= 4.5 * np.pi + 1e-9

    def test_sphere_rejects_noise(self, tmp_path, capsys):
        out = tmp_path / "sphere.csv"
        code = main(["generate", "sphere", "--noise", "0.1", "-o", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_cuboids_reject_noise(self, tmp_path, capsys):
        out = tmp_path / "cuboids.csv"
        code = main(["generate", "cuboids", "--n-per", "20", "--noise", "0.5", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: the cuboids generator does not support --noise"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, setting", [
        (["s_curve", "--noise", "nan"], "noise_std"),
        (["s_curve", "--noise", "inf"], "noise_std"),
        (["swiss_roll", "--noise", "nan"], "noise_std"),
        (["cuboids", "--gap", "nan"], "gap"),
        (["cuboids", "--gap", "inf"], "gap"),
    ])
    def test_non_finite_noise_or_gap_is_a_one_line_error(self, tmp_path, capsys, argv,
                                                         setting):
        out = tmp_path / "data.csv"
        code = main(["generate", *argv, "--n", "20", "--n-per", "5", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {setting} must be finite and nonnegative")
        assert not out.exists()

    @pytest.mark.parametrize("dataset", ["sphere", "cuboids"])
    @pytest.mark.parametrize("noise", ["nan", "-0.5"])
    def test_any_nonzero_noise_is_rejected_without_a_noise_model(self, tmp_path, capsys,
                                                                 dataset, noise):
        out = tmp_path / "data.csv"
        code = main(["generate", dataset, "--n-per", "5", "--noise", noise, "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: the {dataset} generator does not support --noise"]
        assert not out.exists()

    def test_unknown_dataset_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "klein_bottle", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestFit:
    def test_iris_like_fit_writes_outputs_with_good_accuracy(self, tmp_path):
        table = tmp_path / "iris.csv"
        _iris_like_csv(table)
        out = tmp_path / "emb.csv"
        code = main(["fit", str(table), "--k", "20", "--label-col", "species",
                     "--seed", "0", "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "emb.model.json").exists()
        assert (tmp_path / "emb.loss.csv").exists()
        assert (tmp_path / "emb.csv.manifest.json").exists()

        emb = load_csv(out, label_column="label")
        assert emb.data.shape == (150, 2)
        assert knn_accuracy(emb.data, emb.labels) >= 0.90

    def test_missing_k_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(tmp_path / "x.csv"), "-o", str(tmp_path / "y.csv")])
        assert exc.value.code == 2

    def test_non_integer_k_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(tmp_path / "x.csv"), "--k", "many",
                  "-o", str(tmp_path / "y.csv")])
        assert exc.value.code == 2

    def test_auto_k_resolves_from_row_count(self, tmp_path):
        table = tmp_path / "iris.csv"
        _iris_like_csv(table)
        out = tmp_path / "emb.csv"
        code = main(["fit", str(table), "--k", "auto", "--label-col", "species",
                     "--max-iter", "50", "-o", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "emb.csv.manifest.json").read_text())
        assert manifest["config"]["k"] == 20  # 150 rows < 5000

    def test_same_seed_gives_identical_outputs(self, tmp_path):
        table = tmp_path / "iris.csv"
        _iris_like_csv(table)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert main(["fit", str(table), "--k", "10", "--label-col", "species",
                         "--max-iter", "120", "--seed", "3", "-o", str(out)]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "r1.loss.csv").read_bytes() == (tmp_path / "r2.loss.csv").read_bytes()

    def test_loss_history_csv_schema(self, tmp_path):
        table = tmp_path / "iris.csv"
        _iris_like_csv(table)
        out = tmp_path / "emb.csv"
        assert main(["fit", str(table), "--k", "5", "--max-iter", "40",
                     "--label-col", "species", "-o", str(out)]) == 0
        lines = (tmp_path / "emb.loss.csv").read_text().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 41

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv"), "--k", "5",
                     "-o", str(tmp_path / "y.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_input_that_is_not_utf8_is_a_one_line_error(self, tmp_path, capsys):
        table = tmp_path / "utf16.csv"
        table.write_bytes(b"\xff\xfe" + "a,b\n1,2\n".encode("utf-16-le"))
        code = main(["fit", str(table), "--k", "2", "-o", str(tmp_path / "emb.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {table}: line 1: not valid UTF-8")

    def test_overflowing_input_is_a_one_line_error(self, tmp_path, capsys):
        data, _ = two_blobs(30, seed=15)
        table = tmp_path / "huge.csv"
        write_csv(table, data * 1e200)
        code = main(["fit", str(table), "--k", "3", "-o", str(tmp_path / "emb.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: squared distances overflow float64; rescale the input"]

    def test_fit_whose_model_fails_to_save_leaves_no_output(self, tmp_path, capsys):
        # input scaled below 1e-154 fits, but to a sigma_high the model reader rejects
        curve = cbmap.make_s_curve(200, seed=0)
        table = tmp_path / "tiny.csv"
        write_csv(table, curve.data * 1e-160, curve.labels)
        code = main(["fit", str(table), "--k", "5", "--label-col", "label",
                     "-o", str(tmp_path / "te.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: model field 'sigma_high' must be at least 1.492e-154")
        # no embedding, model, loss or manifest file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.csv"]

    def test_standardize_is_recorded_and_applied(self, tmp_path):
        data, _ = two_blobs(50, seed=20)
        table = tmp_path / "blobs.csv"
        write_csv(table, data)
        out = tmp_path / "emb.csv"
        assert main(["fit", str(table), "--k", "4", "--max-iter", "60",
                     "--standardize", "-o", str(out)]) == 0
        model = json.loads((tmp_path / "emb.model.json").read_text())
        scaler = model["config"]["feature_scaler"]
        np.testing.assert_allclose(scaler["mean"], data.mean(axis=0))
        np.testing.assert_allclose(scaler["std"], data.std(axis=0))

    def test_standardize_maps_a_constant_column_to_zeros(self, tmp_path):
        # np.std of a column of 0.1 is rounding residue (2.8e-17), not 0
        data, _ = two_blobs(50, seed=20)
        data = np.column_stack([data, np.full(data.shape[0], 0.1)])
        table = tmp_path / "blobs.csv"
        write_csv(table, data)
        out = tmp_path / "emb.csv"
        assert main(["fit", str(table), "--k", "4", "--max-iter", "60",
                     "--standardize", "-o", str(out)]) == 0
        model = json.loads((tmp_path / "emb.model.json").read_text())
        std = model["config"]["feature_scaler"]["std"]
        assert std[3] == 0.0
        np.testing.assert_allclose(std[:3], data[:, :3].std(axis=0))
        # the column is ignored: moving it elsewhere leaves the projection unchanged
        moved = tmp_path / "moved.csv"
        write_csv(moved, np.column_stack([data[:, :3], np.full(data.shape[0], 5.0)]))
        projected = [tmp_path / "p_same.csv", tmp_path / "p_moved.csv"]
        for src, dst in zip((table, moved), projected):
            assert main(["transform", str(tmp_path / "emb.model.json"), str(src),
                         "-o", str(dst)]) == 0
        assert projected[0].read_bytes() == projected[1].read_bytes()

    def test_library_transform_of_a_standardized_model_matches_the_cli(self, tmp_path):
        # a second column 100 times wider, so that leaving it unscaled shows
        data, _ = two_blobs(50, seed=20)
        data[:, 1] *= 100.0
        table = tmp_path / "blobs.csv"
        write_csv(table, data)
        assert main(["fit", str(table), "--k", "4", "--max-iter", "60", "--standardize",
                     "-o", str(tmp_path / "emb.csv")]) == 0
        model_path = tmp_path / "emb.model.json"
        projected = tmp_path / "proj.csv"
        assert main(["transform", str(model_path), str(table), "-o", str(projected)]) == 0
        library = cbmap.transform(cbmap.load_model(model_path), data)
        assert load_csv(projected).data.tobytes() == library.tobytes()

    def test_center_init_fallback_is_one_warning_line(self, tmp_path, capsys):
        cuboids = cbmap.make_cuboids(1, seed=0)
        table = tmp_path / "c.csv"
        write_csv(table, cuboids.data, cuboids.labels)
        code = main(["fit", str(table), "--k", "2", "--label-col", "label",
                     "-o", str(tmp_path / "emb.csv")])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: n_clusters=2 <= out_dim=2; falling back to random center initialization"]


@pytest.mark.parametrize("top", [1e150, 9.99e149])
def test_model_at_the_reader_bounds_transforms_silently(tmp_path, capsys, top):
    # sigma_low at its floor makes -dist^2 / (2 sigma^2) overflow to -inf, a
    # membership of 0; centers_low at the reader's bound start the points there
    curve = cbmap.make_s_curve(300, seed=0)
    table = tmp_path / "s.csv"
    write_csv(table, curve.data, curve.labels)
    assert main(["fit", str(table), "--k", "5", "--max-iter", "20", "--label-col", "label",
                 "-o", str(tmp_path / "e.csv")]) == 0
    model_path = tmp_path / "e.model.json"
    doc = json.loads(model_path.read_text())
    doc["sigma_low"] = 2.0**-511
    centers = np.array(doc["centers_low"])
    doc["centers_low"] = (centers / np.abs(centers).max() * top).tolist()
    assert np.abs(doc["centers_low"]).max() == top
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    projected = tmp_path / "p.csv"
    assert main(["transform", str(model_path), str(table), "--label-col", "label",
                 "-o", str(projected)]) == 0
    assert capsys.readouterr().err == ""
    # every membership is 0, so the gradient is too, and no point leaves its center
    y = load_csv(projected, label_column="label").data
    nearest = np.argmin(euclidean_distance_matrix(curve.data, cbmap.load_model(model_path)
                                                  .centers_high), axis=1)
    assert y.tobytes() == np.array(doc["centers_low"]).reshape(5, 2)[nearest].tobytes()


@pytest.mark.parametrize("command, retired", [
    ("fit", ["--lr", "0.1"]),
    ("benchmark", ["--lr", "0.1"]),
    ("fit", ["--init", "pca"]),
    ("benchmark", ["--init", "random"]),
], ids=["fit-lr", "benchmark-lr", "fit-init", "benchmark-init"])
def test_retired_flag_is_an_unrecognized_argument(tmp_path, capsys, command, retired):
    # the step size is fixed, and the centers start from their PCA when k > dim
    table = tmp_path / "t.csv"
    write_csv(table, np.random.default_rng(0).normal(size=(30, 3)))
    out = tmp_path / "out.csv"
    argv = [command, str(table), *retired, "-o", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--k", "5"] if command == "fit" else ["--k-list", "5"]))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(retired)}" in capsys.readouterr().err
    assert not out.exists()


def _write_table(path, data, labels, label_at, header):
    """Write ``data`` as CSV with the string ``labels`` as column ``label_at``
    (None: no label column), under a header row if ``header``."""
    names = [f"x{i}" for i in range(data.shape[1])]
    rows = [list(map(repr, row)) for row in data.tolist()]
    if label_at is not None:
        names.insert(label_at, "label")
        for row, label in zip(rows, labels):
            row.insert(label_at, label)
    lines = ([",".join(names)] if header else []) + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    work = tmp_path_factory.mktemp("fitted")
    data, _ = two_blobs(100, seed=10)
    table = work / "blobs.csv"
    write_csv(table, data)
    out = work / "emb.csv"
    assert main(["fit", str(table), "--k", "4", "--seed", "0", "-o", str(out)]) == 0
    return table, out, work / "emb.model.json"


@pytest.fixture(scope="module")
def roll_k40(tmp_path_factory):
    """A k=40 model file and a 20,000-row swiss-roll CSV, which transform takes
    in several blocks of rows."""
    work = tmp_path_factory.mktemp("roll_k40")
    train = cbmap.make_swiss_roll(2000, seed=1)
    model = cbmap.fit(train.data, cbmap.CbmapConfig(n_clusters=40, max_iter=20, seed=0)).model
    cbmap.save_model(model, work / "roll.model.json")
    new = cbmap.make_swiss_roll(20_000, seed=2)
    write_csv(work / "new.csv", new.data, new.labels)
    return work / "roll.model.json", work / "new.csv"


class TestTransform:
    def test_training_data_agreement(self, fitted):
        table, emb_path, model_path = fitted
        projected_path = emb_path.parent / "proj.csv"
        assert main(["transform", str(model_path), str(table),
                     "-o", str(projected_path)]) == 0

        model = cbmap.load_model(model_path)
        fit_emb = load_csv(emb_path).data
        projected = load_csv(projected_path).data
        agreement = np.mean(
            assign_labels(fit_emb, model.centers_low)
            == assign_labels(projected, model.centers_low)
        )
        assert agreement >= 0.90

    def test_wrong_width_input_names_both_widths(self, fitted, tmp_path, capsys):
        _, _, model_path = fitted
        narrow = tmp_path / "narrow.csv"
        write_csv(narrow, np.zeros((4, 2)))
        code = main(["transform", str(model_path), str(narrow),
                     "-o", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "2 columns" in err and "3" in err

    def test_version_mismatch_reported(self, fitted, tmp_path, capsys):
        table, _, model_path = fitted
        doc = json.loads(model_path.read_text())
        doc["version"] = 99
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))
        code = main(["transform", str(bad), str(table), "-o", str(tmp_path / "out.csv")])
        assert code == 1
        assert "expected 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("config", None),
        ("config", []),
        ("k", None),
        ("sigma_high", None),
        ("config.feature_scaler", 3),
    ])
    def test_mistyped_model_field_is_a_one_line_error(self, fitted, tmp_path, capsys,
                                                      field, value):
        table, _, model_path = fitted
        doc = json.loads(model_path.read_text())
        *parents, key = field.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[key] = value
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))
        code = main(["transform", str(bad), str(table), "-o", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and f"model field '{field}'" in err[0]

    @pytest.mark.parametrize("field", ["sigma_high", "sigma_low"])
    def test_non_finite_model_field_is_a_one_line_error(self, fitted, tmp_path, capsys, field):
        table, _, model_path = fitted
        doc = json.loads(model_path.read_text())
        *parents, key = field.split(".")
        section = doc
        for name in parents:
            section = section[name]
        section[key] = float("nan")
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc))  # writes the bare NaN literal
        code = main(["transform", str(bad), str(table), "-o", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and f"model field '{field}' must be finite" in err[0]

    @pytest.mark.parametrize("field, raw, message", [
        pytest.param("k", "1e400", "model field 'k' must be finite", id="k-1e400"),
        pytest.param("sigma_high", "1" + "0" * 400, "model field 'sigma_high' must be finite",
                     id="sigma_high-400-digits"),
        pytest.param("centers_low.0", "1" + "0" * 400,
                     "model field 'centers_low' must be a list of finite", id="center-400-digits"),
        # finite, but the descent's squared distances would overflow
        pytest.param("centers_low.0", "1e200",
                     "model field 'centers_low' has entries beyond +-1e+150", id="center-1e200"),
        # finite, but the descent's 1 / (2 sigma^2) would overflow or divide by zero
        *(pytest.param(field, raw, f"model field '{field}' must be at least 1.492e-154",
                       id=f"{field}-{raw}")
          for field, raw in (("sigma_low", "1e-200"), ("sigma_low", "1e-160"),
                             ("sigma_low", "1e-155"), ("sigma_high", "1e-200"))),
        pytest.param("k", "5.7", "model field 'k' must be int", id="k-fraction"),
        pytest.param("centers_high", "[[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]",
                     "model field 'centers_high' must be a flat list", id="nested-centers"),
        pytest.param("input", "9" * 140000, "line 2: field larger than field limit",
                     id="csv-field-over-limit"),
    ])
    def test_overflowing_or_misshapen_input_is_a_one_line_error(self, fitted, tmp_path, capsys,
                                                                 field, raw, message):
        table, _, model_path = fitted
        doc = json.loads(model_path.read_text())
        if field == "input":
            table = tmp_path / "wide.csv"
            table.write_text(f"x0,x1,x2\n1,2,{raw}\n")
        else:
            *parents, key = field.split(".")
            section = doc
            for name in parents:
                section = section[name]
            section[int(key) if isinstance(section, list) else key] = "@raw@"
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(doc).replace('"@raw@"', raw))
        code = main(["transform", str(bad), str(table), "-o", str(tmp_path / "out.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and message in err[0]

    @pytest.mark.parametrize("content, message", [
        (b"not json\n", "line 1, column 1: Expecting value"),
        (b"", "line 1, column 1: Expecting value"),
        (b'{\n  "version": 1,\n  "k": ', "line 3, column 8: Expecting value"),
        (b"\xff\xfe{}", "line 1: not valid UTF-8: byte 0xff at position 1; save the file as UTF-8"),
        (b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply to read"),
    ], ids=["text", "empty", "truncated", "utf16-bom", "deeply-nested"])
    def test_malformed_model_file_is_named(self, fitted, tmp_path, capsys, content, message):
        table = fitted[0]
        bad = tmp_path / "bad.model.json"
        bad.write_bytes(content)
        out = tmp_path / "out.csv"
        code = main(["transform", str(bad), str(table), "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
        assert not out.exists()

    def test_output_is_the_library_result_as_write_csv_writes_it(self, roll_k40, tmp_path):
        model_path, table = roll_k40
        out = tmp_path / "proj.csv"
        assert main(["transform", str(model_path), str(table), "--label-col", "label",
                     "--iters", "5", "-o", str(out)]) == 0
        ds = load_csv(table, label_column="label")
        expected = tmp_path / "expected.csv"
        write_csv(expected, cbmap.transform(cbmap.load_model(model_path), ds.data, iters=5),
                  ds.labels, header=["e0", "e1", "label"])
        assert out.read_bytes() == expected.read_bytes()

    def test_memory_is_bounded_by_a_block_of_rows(self, roll_k40, tmp_path):
        model_path, table = roll_k40
        tracemalloc.start()
        try:
            code = main(["transform", str(model_path), str(table), "--label-col", "label",
                         "--iters", "2", "-o", str(tmp_path / "proj.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        # descending all 20,000 rows at once, after reading every row's cells
        # into lists and before writing the output as one string, took 20 MB
        assert peak < 6e6

    # label column: where it sits among the features, load_csv's label_column
    # (and --label-col's text) and whether the file has a header
    LAYOUTS = {
        "by-name": (3, "label", True),
        "by-index": (1, 1, True),
        "no-header": (0, 0, False),
        "unlabeled": (None, None, False),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2B+3"])
    def test_streamed_output_is_the_library_result(self, roll_k40, tmp_path, layout, extra):
        model_path, _ = roll_k40
        model = cbmap.load_model(model_path)
        block = transform_block_rows(model)
        n = 2 * block + 3 if extra == "2B+3" else block + extra
        label_at, label_col, header = self.LAYOUTS[layout]
        # label names first seen in later blocks must keep the codes that one
        # pass over the whole file gives them
        names = [("z", "y", "x", "w", "v")[i * 5 // (2 * block + 3)] for i in range(n)]
        table = _write_table(tmp_path / "new.csv", cbmap.make_swiss_roll(n, seed=4).data,
                             names, label_at, header)
        flags = ([] if label_col is None else ["--label-col", str(label_col)]) + (
            [] if header else ["--no-header"])
        out = tmp_path / "proj.csv"
        assert main(["transform", str(model_path), str(table), *flags, "--iters", "3",
                     "-o", str(out)]) == 0
        ds = load_csv(table, has_header=header, label_column=label_col)
        if layout != "unlabeled" and extra == "2B+3":
            assert ds.labels.max() == 4
        expected = tmp_path / "expected.csv"
        write_csv(expected, cbmap.transform(model, ds.data, iters=3), ds.labels,
                  header=["e0", "e1"] + ([] if ds.labels is None else ["label"]))
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("fault, message", [
        ("oops", "column 2: not numeric: 'oops'"),
        ("1.0,2.0", "expected 4 fields, got 2"),
    ], ids=["not-numeric", "ragged"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new-output", "existing-output"])
    def test_bad_row_in_a_late_block_leaves_no_output(self, roll_k40, tmp_path, capsys, fault,
                                                      message, existing):
        model_path, _ = roll_k40
        block = transform_block_rows(cbmap.load_model(model_path))
        roll = cbmap.make_swiss_roll(2 * block + 3, seed=4)
        table = tmp_path / "new.csv"
        write_csv(table, roll.data, roll.labels)
        lines = table.read_text().splitlines()
        bad_line = block + 8  # 1-based, in the second block of rows
        label = lines[bad_line - 1].rsplit(",", 1)[1]
        lines[bad_line - 1] = ("0.5,oops,0.5," + label) if fault == "oops" else fault
        table.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "proj.csv"
        if existing:
            out.write_text("an earlier output\n")
        code = main(["transform", str(model_path), str(table), "--label-col", "label",
                     "--iters", "2", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {table}: line {bad_line}" + ("," if fault == "oops" else ":") +
            f" {message}"]
        # neither the output, a temporary file nor a manifest is left
        assert [p.name for p in out_dir.iterdir()] == (["proj.csv"] if existing else [])
        if existing:
            assert out.read_text() == "an earlier output\n"

    def test_verbose_prints_the_rows_written_after_each_block(self, roll_k40, tmp_path, capsys):
        model_path, _ = roll_k40
        block = transform_block_rows(cbmap.load_model(model_path))
        roll = cbmap.make_swiss_roll(2 * block + 3, seed=4)
        table = tmp_path / "new.csv"
        write_csv(table, roll.data, roll.labels)
        out = tmp_path / "proj.csv"
        assert main(["transform", str(model_path), str(table), "--label-col", "label",
                     "--iters", "2", "-v", "-o", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            *(f"transform: {rows} rows written" for rows in (block, 2 * block, 2 * block + 3)),
            f"transform: embedded {2 * block + 3} rows to {out}"]

    def test_memory_does_not_grow_with_the_row_count(self, roll_k40, tmp_path):
        model_path, table = roll_k40

        def peak(rows):
            if rows:
                roll = cbmap.make_swiss_roll(rows, seed=6)
                write_csv(tmp_path / "big.csv", roll.data, roll.labels)
            tracemalloc.start()
            try:
                code = main(["transform", str(model_path),
                             str(tmp_path / "big.csv" if rows else table), "--label-col",
                             "label", "--iters", "1", "-o", str(tmp_path / "proj.csv")])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert code == 0

        peak(None)  # a first run holds one-off allocations, such as caches
        small, large = peak(8_000), peak(128_000)
        # the whole-file parent read 2.8 MB at 8,000 rows and 8.6 MB at 128,000
        assert abs(large / small - 1.0) <= 0.05

    def test_bandwidth_near_the_floor_embeds_without_a_warning(self, fitted, tmp_path, capsys):
        # every membership of a far point underflows to zero; the overflow on
        # the way there is expected
        table, _, model_path = fitted
        doc = json.loads(model_path.read_text())
        doc["sigma_high"] = 2e-154
        tiny = tmp_path / "tiny.model.json"
        tiny.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["transform", str(tiny), str(table), "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert np.all(np.isfinite(load_csv(out).data))

    def test_reruns_give_identical_outputs_and_take_no_seed(self, fitted, tmp_path, capsys):
        table, _, model_path = fitted
        a, b = tmp_path / "ta.csv", tmp_path / "tb.csv"
        for path in (a, b):
            assert main(["transform", str(model_path), str(table), "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        out = tmp_path / "tc.csv"
        with pytest.raises(SystemExit) as exc:
            main(["transform", str(model_path), str(table), "--seed", "5", "-o", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()


def test_swiss_roll_split_pipeline_tracks_radius(tmp_path):
    roll = cbmap.make_swiss_roll(1000, seed=0)
    order = np.random.default_rng(0).permutation(1000)
    test_idx, train_idx = order[:200], order[200:]
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    write_csv(train_csv, roll.data[train_idx])
    write_csv(test_csv, roll.data[test_idx])

    emb_path = tmp_path / "train_emb.csv"
    assert main(["fit", str(train_csv), "--k", "auto", "--seed", "0",
                 "-o", str(emb_path)]) == 0
    proj_path = tmp_path / "test_emb.csv"
    assert main(["transform", str(tmp_path / "train_emb.model.json"), str(test_csv),
                 "-o", str(proj_path)]) == 0

    train_emb = load_csv(emb_path).data
    test_emb = load_csv(proj_path).data

    # map the roll's central axis point into the embedding with the affine
    # least-squares map fitted on the training pairs, then compare test radii
    # against distance from that mapped center by rank correlation
    x_train = roll.data[train_idx]
    design = np.column_stack([x_train, np.ones(len(x_train))])
    coeffs, *_ = np.linalg.lstsq(design, train_emb, rcond=None)
    axis_point = np.array([0.0, x_train[:, 1].mean(), 0.0, 1.0])
    center = axis_point @ coeffs

    radii = np.hypot(roll.data[test_idx][:, 0], roll.data[test_idx][:, 2])
    spread = np.linalg.norm(test_emb - center, axis=1)
    assert abs(_spearman(radii, spread)) >= 0.8


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["generate", "fit", "transform"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_seed_flag_is_a_usage_error(self, fitted, tmp_path, capsys, command, seed):
        table, _, model_path = fitted
        inputs = {"generate": ["s_curve"], "fit": [str(table), "--k", "4"],
                  "transform": [str(model_path), str(table)]}[command]
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs, "--seed", seed, "-o", str(out)])
        assert exc.value.code == 2
        # transform takes no seed at all
        message = (f"unrecognized arguments: --seed {seed}" if command == "transform" else
                   f"argument --seed: expected a nonnegative integer, got '{seed}'")
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seeds_entry_is_a_data_error(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        write_csv(table, np.random.default_rng(0).normal(size=(30, 3)))
        out = tmp_path / "b.json"
        code = main(["benchmark", str(table), "--seeds", "0,-1", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --seeds entries must be nonnegative, got '0,-1'"]
        assert not out.exists()

    def test_seed_noise_and_learning_rate_in_an_older_model_file_are_ignored(self, fitted,
                                                                            tmp_path):
        # older writers stored transform's seed, start noise and step size;
        # values that their reader rejected no longer matter
        table, _, model_path = fitted
        doc = json.loads(model_path.read_text())
        doc["config"].update(seed=-1, init_noise_std=1e200, learning_rate=-1)
        old = tmp_path / "old.model.json"
        old.write_text(json.dumps(doc))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["transform", str(model_path), str(table), "-o", str(a)]) == 0
        assert main(["transform", str(old), str(table), "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBenchmark:
    def test_k_sweep_schema_and_trend(self, tmp_path):
        curve = cbmap.make_s_curve(1000, seed=0)
        table = tmp_path / "curve.csv"
        write_csv(table, curve.data, curve.labels)
        out = tmp_path / "bench.json"
        code = main(["benchmark", str(table), "--k-list", "5,20", "--seeds", "0",
                     "--label-col", "label", "-o", str(out)])
        assert code == 0
        entries = json.loads(out.read_text())
        assert [e["k"] for e in entries] == [5, 20]
        for e in entries:
            assert set(e) == {"k", "seed", "gs", "acc", "runtime_seconds"}
            assert e["runtime_seconds"] > 0.0
            assert e["gs"] <= 1.0 + 1e-9
            assert 0.0 <= e["acc"] <= 1.0
        by_k = {e["k"]: e["gs"] for e in entries}
        assert by_k[20] >= by_k[5] - 0.02

    def test_bad_k_list_is_a_data_error(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        write_csv(table, np.random.default_rng(0).normal(size=(30, 3)))
        code = main(["benchmark", str(table), "--k-list", "5,x", "-o",
                     str(tmp_path / "b.json")])
        assert code == 1
        assert "--k-list" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seeds", ","), ("--k-list", " ")])
    def test_empty_list_is_a_data_error(self, tmp_path, capsys, flag, value):
        table = tmp_path / "t.csv"
        write_csv(table, np.random.default_rng(0).normal(size=(30, 3)))
        out = tmp_path / "b.json"
        code = main(["benchmark", str(table), flag, value, "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {flag} must be")
        assert not out.exists()


class TestPlot:
    @pytest.fixture()
    def embedding_csv(self, tmp_path):
        rng = np.random.default_rng(50)
        offsets = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
        pts = rng.normal(size=(80, 2)) + np.repeat(offsets, 20, axis=0)
        labels = np.repeat(np.arange(4), 20)
        path = tmp_path / "emb.csv"
        write_csv(path, pts, labels)
        return path, pts

    def test_four_labels_get_four_fill_colors(self, embedding_csv, tmp_path):
        path, _ = embedding_csv
        out = tmp_path / "plot.svg"
        assert main(["plot", str(path), "-o", str(out)]) == 0
        fills = set(re.findall(r'fill="(#[0-9a-f]{6})"', out.read_text()))
        assert len(fills) == 4

    def test_viewbox_padding_is_five_percent(self, embedding_csv, tmp_path):
        path, pts = embedding_csv
        out = tmp_path / "plot.svg"
        assert main(["plot", str(path), "-o", str(out)]) == 0
        match = re.search(r'viewBox="([^"]+)"', out.read_text())
        x0, y0, width, height = map(float, match.group(1).split())
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
        assert x0 == pytest.approx(xmin - 0.05 * (xmax - xmin))
        assert y0 == pytest.approx(ymin - 0.05 * (ymax - ymin))
        assert width == pytest.approx(1.1 * (xmax - xmin))
        assert height == pytest.approx(1.1 * (ymax - ymin))

    def test_circle_count_matches_rows(self, embedding_csv, tmp_path):
        path, pts = embedding_csv
        out = tmp_path / "plot.svg"
        assert main(["plot", str(path), "-o", str(out)]) == 0
        assert out.read_text().count("<circle") == len(pts)

    def test_empty_input_writes_nothing(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "plot.svg"
        assert main(["plot", str(empty), "-o", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_three_column_embedding_rejected(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        write_csv(path, np.zeros((4, 3)))
        assert main(["plot", str(path), "-o", str(tmp_path / "plot.svg")]) == 1
        assert "2-column" in capsys.readouterr().err

    def test_unlabeled_data_renders_single_color(self, tmp_path):
        path = tmp_path / "plain.csv"
        write_csv(path, np.random.default_rng(51).normal(size=(10, 2)))
        out = tmp_path / "plot.svg"
        assert main(["plot", str(path), "-o", str(out)]) == 0
        fills = set(re.findall(r'fill="(#[0-9a-f]{6})"', out.read_text()))
        assert len(fills) == 1

    def test_quoted_label_header_is_detected(self, embedding_csv, tmp_path):
        path, _ = embedding_csv
        quoted = tmp_path / "quoted.csv"
        lines = path.read_text().splitlines(keepends=True)
        quoted.write_text('"e0","e1","label"\n' + "".join(lines[1:]))
        auto, named = tmp_path / "auto.svg", tmp_path / "named.svg"
        assert main(["plot", str(quoted), "-o", str(auto)]) == 0
        assert main(["plot", str(quoted), "--label-col", "label", "-o", str(named)]) == 0
        assert auto.read_bytes() == named.read_bytes()

    def test_input_that_is_not_utf8_is_a_one_line_error(self, tmp_path, capsys):
        table = tmp_path / "utf16.csv"
        table.write_bytes(b"\xff\xfe" + "e0,e1\n1,2\n".encode("utf-16-le"))
        assert main(["plot", str(table), "-o", str(tmp_path / "plot.svg")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {table}: line 1: not valid UTF-8")

    def test_render_rejects_non_planar_points(self):
        with pytest.raises(ValueError, match="--dim 2"):
            render_scatter_svg(np.zeros((3, 4)))


@pytest.mark.parametrize("cell", ["nan", "1e400"])
@pytest.mark.parametrize("command", ["fit", "transform", "benchmark", "plot"])
def test_non_finite_cell_is_named_by_every_reading_command(roll_k40, tmp_path, capsys,
                                                           command, cell):
    # float() reads these cells as NaN and infinity; a label cell may hold them
    roll = cbmap.make_swiss_roll(300, seed=5)
    table = tmp_path / "t.csv"
    write_csv(table, roll.data[:, :2] if command == "plot" else roll.data, roll.labels)
    lines = table.read_text().splitlines()
    lines[9] = lines[9].rsplit(",", 1)[0] + ",nan"
    lines[249] = cell + "," + lines[249].split(",", 1)[1]
    table.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {"fit": ["fit", str(table), "--k", "5", "--max-iter", "5"],
            "transform": ["transform", str(roll_k40[0]), str(table)],
            "benchmark": ["benchmark", str(table), "--k-list", "5", "--max-iter", "5"],
            "plot": ["plot", str(table)]}[command]
    assert main(argv + ["--label-col", "label", "-o", str(out_dir / "out.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {table}: line 250, column 1: not finite: '{cell}'"]
    assert not any(out_dir.iterdir())


class TestManifest:
    def test_replaying_the_manifest_reproduces_outputs(self, tmp_path):
        table = tmp_path / "iris.csv"
        _iris_like_csv(table)
        first = tmp_path / "emb.csv"
        assert main(["fit", str(table), "--k", "8", "--max-iter", "100",
                     "--seed", "2", "--label-col", "species", "-o", str(first)]) == 0
        manifest = json.loads((tmp_path / "emb.csv.manifest.json").read_text())

        replay_out = tmp_path / "replay.csv"
        argv = list(manifest["argv"])
        argv[argv.index("-o") + 1] = str(replay_out)
        assert main(argv) == 0

        assert first.read_bytes() == replay_out.read_bytes()
        assert ((tmp_path / "emb.model.json").read_bytes()
                == (tmp_path / "replay.model.json").read_bytes())
        assert ((tmp_path / "emb.loss.csv").read_bytes()
                == (tmp_path / "replay.loss.csv").read_bytes())

    def test_manifest_fields(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["generate", "s_curve", "--n", "50", "--seed", "4",
                     "-o", str(out)]) == 0
        doc = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert doc["command"] == "generate"
        assert doc["seed"] == 4
        assert doc["outputs"] == [str(out)]
        assert doc["elapsed_s"] >= 0.0
        assert "--seed" in doc["argv"]

    def test_outputs_sharing_a_stem_keep_their_own_manifests(self, tmp_path):
        table, emb, plot = tmp_path / "roll.csv", tmp_path / "emb.csv", tmp_path / "roll.svg"
        assert main(["generate", "swiss_roll", "--n", "50", "-o", str(table)]) == 0
        write_csv(emb, np.random.default_rng(0).normal(size=(50, 2)))
        assert main(["plot", str(emb), "-o", str(plot)]) == 0
        for out, command in ((table, "generate"), (plot, "plot")):
            doc = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            assert (doc["command"], doc["outputs"]) == (command, [str(out)])
        assert not (tmp_path / "roll.manifest.json").exists()


    def test_every_command_records_its_settings(self, tmp_path):
        table, emb = tmp_path / "s.csv", tmp_path / "emb.csv"
        runs = [
            (["generate", "s_curve", "--n", "60", "-o", str(table)], {"dataset", "n", "noise"}),
            (["generate", "sphere", "--n", "60", "-o", str(tmp_path / "sphere.csv")],
             {"dataset", "n"}),
            (["generate", "cuboids", "--n-per", "5", "-o", str(tmp_path / "cuboids.csv")],
             {"dataset", "n_per", "gap"}),
            (["fit", str(table), "--k", "4", "--max-iter", "20", "--label-col", "label",
              "-o", str(emb)],
             {"k", "dim", "max_iter", "standardize"}),
            (["transform", str(tmp_path / "emb.model.json"), str(table), "--label-col", "3",
              "--iters", "10", "-o", str(tmp_path / "proj.csv")],
             {"model", "iters"}),
            (["benchmark", str(table), "--k-list", "3", "--max-iter", "10",
              "-o", str(tmp_path / "bench.json")],
             {"k_list", "seeds", "dim", "max_iter"}),
            (["plot", str(emb), "-o", str(tmp_path / "emb.svg")], set()),
        ]
        source = {"input", "label_column", "has_header"}
        for argv, settings in runs:
            assert main(argv) == 0
            doc = json.loads(Path(argv[-1] + ".manifest.json").read_text())
            assert set(doc) == {"command", "argv", "config", "seed", "outputs", "elapsed_s"}
            assert (doc["command"], doc["argv"], doc["outputs"][0]) == (argv[0], argv, argv[-1])
            expected = settings if argv[0] == "generate" else settings | source
            assert set(doc["config"]) == expected
            assert doc["seed"] == (0 if argv[0] in ("generate", "fit") else None)


SHARED_FLAGS = {
    "generate": ("--out", "--verbose"),
    "fit": ("--out", "--verbose", "--label-col", "--no-header", "--dim", "--max-iter"),
    "transform": ("--out", "--verbose", "--label-col", "--no-header"),
    "benchmark": ("--out", "--verbose", "--label-col", "--no-header", "--dim", "--max-iter"),
    "plot": ("--out", "--verbose", "--label-col", "--no-header"),
}


@pytest.mark.parametrize("command", sorted(SHARED_FLAGS))
def test_help_lists_the_shared_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in SHARED_FLAGS["fit"]:  # fit takes every shared group
        assert (flag in text) == (flag in SHARED_FLAGS[command]), flag


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "tiny.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "cbmap.cli", "generate", "s_curve", "--n", "30",
         "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("width", [3, 32], ids=["roll", "32-columns"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, width):
    # k-means, the center init and the descent use matrix products, which a
    # BLAS may split across threads; no output may depend on how it splits them
    roll = cbmap.make_swiss_roll(2000, seed=3)
    data = roll.data
    if width > 3:
        basis, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(width, 3)))
        data = data @ basis.T + np.random.default_rng(5).normal(0.0, 0.3, (2000, width))
    table = tmp_path / "roll.csv"
    write_csv(table, data, roll.labels)
    outputs = {}
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        for argv in (["fit", table, "--k", "20", "--label-col", "label", "--max-iter", "50",
                      "-o", run / "emb.csv"],
                     ["transform", run / "emb.model.json", table, "--label-col", "label",
                      "--iters", "50", "-o", run / "proj.csv"]):
            proc = subprocess.run([sys.executable, "-m", "cbmap.cli", *map(str, argv)],
                                  env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                                  capture_output=True, text=True)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        # manifests hold wall-clock times
        outputs[threads] = {path.name: path.read_bytes() for path in run.iterdir()
                            if not path.name.endswith(".manifest.json")}
    assert sorted(outputs["1"]) == ["emb.csv", "emb.loss.csv", "emb.model.json", "proj.csv"]
    assert outputs["1"] == outputs["2"]


def test_no_stage_imports_numpy_ma(tmp_path):
    # np.median imports numpy.ma for its NaN check, about 14 ms and 1 MB
    script = """
import sys
import cbmap
from cbmap import cli

roll = cbmap.make_swiss_roll(400, seed=0)
result = cbmap.fit(roll.data[:300], cbmap.CbmapConfig(n_clusters=10, max_iter=10, seed=0))
cbmap.transform(result.model, roll.data[300:], iters=5)
cbmap.evaluate(roll.data[:300], result.embedding, roll.labels[:300])
table = sys.argv[1] + "/roll.csv"
cbmap.write_csv(table, roll.data, roll.labels)
for argv in (["fit", table, "--k", "auto", "--label-col", "label", "--standardize",
              "--max-iter", "10", "-o", sys.argv[1] + "/emb.csv"],
             ["transform", sys.argv[1] + "/emb.model.json", table, "--label-col", "label",
              "--iters", "5", "-o", sys.argv[1] + "/proj.csv"]):
    assert cli.main(argv) == 0
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "proj.csv").exists()
