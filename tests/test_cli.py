"""End-to-end command-line pipeline and exit-code contract."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import smnn
from smnn.cli import main
from smnn.embedding import embed_batch

from conftest import UNDECODABLE


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _last_json(out):
    return json.loads(out.strip().splitlines()[-1])


class TestGen:
    def test_spiral_with_split(self, tmp_path, capsys):
        out = tmp_path / "spiral.csv"
        code, stdout, _ = _run(
            capsys, "gen", "--kind", "spiral", "--n", "200", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        summary = _last_json(stdout)
        assert summary["rows"] == 150
        assert summary["test_rows"] == 50
        assert summary["test_written"] == str(tmp_path / "spiral_test.csv")
        train = smnn.load_csv(out)
        test = smnn.load_csv(tmp_path / "spiral_test.csv")
        assert train.size == 150 and test.size == 50

    def test_no_split(self, tmp_path, capsys):
        out = tmp_path / "all.csv"
        code, stdout, _ = _run(
            capsys, "gen", "--kind", "spiral", "--n", "100", "--out", str(out),
            "--train-fraction", "1",
        )
        assert code == 0
        assert _last_json(stdout)["rows"] == 100
        assert not (tmp_path / "all_test.csv").exists()

    def test_clusters_kind(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, stdout, _ = _run(
            capsys, "gen", "--kind", "clusters", "--n", "80", "--features", "3",
            "--class-sep", "2.0", "--flip-fraction", "0", "--out", str(out),
        )
        assert code == 0
        data = smnn.load_csv(out)
        assert data.dim == 3
        assert _last_json(stdout)["rows"] == data.size

    def test_deterministic_files(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            _run(capsys, "gen", "--kind", "spiral", "--n", "60", "--seed", "9",
                 "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_kind_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            _run(capsys, "gen", "--kind", "moons", "--n", "10", "--out",
                 str(tmp_path / "x.csv"))
        assert err.value.code == 1

    @pytest.mark.parametrize("fraction", ["1.5", "inf", "0"])
    def test_train_fraction_outside_zero_one_is_data_error(self, tmp_path, capsys, fraction):
        # Only 1 disables the split; a value above it is refused as 0 is.
        out = tmp_path / "x.csv"
        code, stdout, stderr = _run(
            capsys, "gen", "--kind", "spiral", "--n", "40", "--out", str(out),
            "--train-fraction", fraction,
        )
        assert code == 2 and stdout == ""
        assert "train_fraction" in stderr
        assert not out.exists()

    def test_invalid_count_is_data_error(self, tmp_path, capsys):
        code, _, stderr = _run(
            capsys, "gen", "--kind", "spiral", "--n", "3", "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "InvalidCount" in stderr


class TestSubsample:
    def test_epsilon_selection(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "200", "--seed", "2",
             "--out", str(data), "--train-fraction", "1")
        support = tmp_path / "support.json"
        code, stdout, _ = _run(
            capsys, "subsample", "--in", str(data), "--epsilon", "0.25",
            "--out", str(support),
        )
        assert code == 0
        indices = json.loads(support.read_text())
        assert len(set(indices)) == len(indices)
        assert _last_json(stdout)["size"] == len(indices)
        pts = smnn.load_csv(data).points.points
        gaps = np.linalg.norm(pts[:, None, :] - pts[indices][None, :, :], axis=2).min(axis=1)
        assert gaps.max() < 0.25

    def test_kappa_selection(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "100", "--seed", "3",
             "--out", str(data), "--train-fraction", "1")
        support = tmp_path / "s.json"
        code, stdout, _ = _run(
            capsys, "subsample", "--in", str(data), "--kappa", "5", "--out", str(support),
        )
        assert code == 0
        assert _last_json(stdout)["epsilon"] > 0.0

    def test_requires_exactly_one_rule(self, tmp_path, capsys):
        # argparse's either-or group reports both errors, exiting 1.
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        for rule, message in (([], "one of the arguments --epsilon --kappa is required"),
                              (["--epsilon", "0.2", "--kappa", "5"], "not allowed with argument")):
            with pytest.raises(SystemExit) as err:
                main(["subsample", "--in", str(data), *rule, "--out", str(tmp_path / "s.json")])
            assert err.value.code == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()


class TestTrainEvalPredictExplain:
    @pytest.fixture()
    def pipeline(self, tmp_path, capsys):
        data = tmp_path / "spiral.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "240", "--seed", "7",
             "--out", str(data))
        support = tmp_path / "support.json"
        _run(capsys, "subsample", "--in", str(data), "--epsilon", "0.08",
             "--out", str(support))
        model = tmp_path / "model.json"
        code, stdout, _ = _run(
            capsys, "train", "--data", str(data), "--support", str(support),
            "--epochs", "200", "--lr", "0.3", "--seed", "7", "--out", str(model),
        )
        assert code == 0
        return tmp_path, _last_json(stdout)

    def test_train_writes_model(self, pipeline):
        tmp_path, summary = pipeline
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["schema_version"] == 2
        assert summary["support_size"] == len(doc["support_points"])
        assert doc["provenance"]["epochs"] == 200
        assert doc["provenance"]["seed"] == 7
        assert summary["n_steps"] == 200 * doc["provenance"]["n_train"]
        assert summary["us_per_step"] > 0.0
        # Both figures are rounded in the JSON: wall_time to 1 ms, the
        # step time to 1 ns.
        expected = summary["wall_time"] / summary["n_steps"] * 1e6
        assert abs(summary["us_per_step"] - expected) <= 500.0 / summary["n_steps"] + 5e-4

    def test_train_reports_triangulation_health(self, pipeline):
        tmp_path, summary = pipeline
        tri = smnn.load_model(tmp_path / "model.json")[0].space.tri
        assert summary["triangulation"] == {
            "cells": tri.simplices.shape[0],
            "hull_facets": tri.facets.shape[0],
            "flat_cells": 0,
            "locator": "index",
            "worst_condition": tri.cond,
            "reach": tri.reach,
        }
        _assert_condition_and_reach(tri, summary["triangulation"])

    def test_train_reports_exterior_rows(self, pipeline):
        tmp_path, summary = pipeline
        model, _ = smnn.load_model(tmp_path / "model.json")
        data = smnn.load_csv(tmp_path / "spiral.csv")
        batch = embed_batch(model.space, data.points.points)
        mass = batch.sphere_mass[batch.facet[:, 0] >= 0]
        assert summary["n_exterior"] == mass.size > 0
        assert summary["sphere_mass_max"] == float(mass.max())
        assert summary["sphere_mass_mean"] == pytest.approx(float(mass.mean()), rel=1e-12)

    def test_eval_report(self, pipeline, tmp_path, capsys):
        tmp_dir, _ = pipeline
        report_path = tmp_dir / "report.json"
        code, stdout, _ = _run(
            capsys, "eval", "--model", str(tmp_dir / "model.json"),
            "--data", str(tmp_dir / "spiral_test.csv"), "--out", str(report_path),
        )
        assert code == 0
        doc = json.loads(stdout)
        assert set(doc) >= {
            "accuracy", "mean_loss", "confusion", "n_out_of_hull", "n_outside_ball", "labels",
        }
        assert doc["n_outside_ball"] == 0
        assert np.array(doc["confusion"]).sum() == 60
        assert json.loads(report_path.read_text()) == doc

    def test_predict_single_point(self, pipeline, capsys):
        tmp_dir, _ = pipeline
        code, stdout, _ = _run(
            capsys, "predict", "--model", str(tmp_dir / "model.json"),
            "--point", "0.05,-0.02",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["label"] in ("0", "1")
        assert abs(sum(doc["probabilities"].values()) - 1.0) < 1e-9

    def test_explain_with_svg(self, pipeline, capsys):
        tmp_dir, _ = pipeline
        svg_path = tmp_dir / "explanation.svg"
        code, stdout, _ = _run(
            capsys, "explain", "--model", str(tmp_dir / "model.json"),
            "--point", "0.1,0.1", "--svg", str(svg_path),
        )
        assert code == 0
        doc = json.loads(stdout)
        assert set(doc) >= {"query", "predicted_label", "probabilities", "contributors"}
        assert 1 <= len(doc["contributors"]) <= 3
        root = ET.fromstring(svg_path.read_text())
        bars = [el for el in root.iter() if el.get("class") == "bar"]
        assert len(bars) == 2 * len(doc["contributors"])

    def test_kappa_train_records_provenance(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "160", "--seed", "4",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        code, _, _ = _run(
            capsys, "train", "--data", str(data), "--kappa", "10",
            "--epochs", "20", "--seed", "4", "--out", str(model),
        )
        assert code == 0
        sampler = json.loads(model.read_text())["provenance"]["sampler"]
        pts = smnn.load_csv(data).points.points
        assert list(sampler.items()) == [
            ("mode", "kappa"),
            ("epsilon", None),
            ("kappa", 10.0),
            ("seed", 4),
            ("epsilon_effective", smnn.epsilon_from_kappa(pts - pts.mean(axis=0), 10.0)),
        ]

    def test_epsilon_train_records_provenance(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "160", "--seed", "4",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        code, _, _ = _run(
            capsys, "train", "--data", str(data), "--epsilon", "0.15",
            "--epochs", "20", "--seed", "3", "--out", str(model),
        )
        assert code == 0
        doc = json.loads(model.read_text())
        assert list(doc["provenance"]["sampler"].items()) == [
            ("mode", "epsilon"),
            ("epsilon", 0.15),
            ("kappa", None),
            ("seed", 3),
            ("epsilon_effective", 0.15),
        ]
        pts = smnn.load_csv(data).points.points
        assert doc["provenance"]["support_size"] == len(smnn.epsilon_representative(pts, 0.15, seed=3))

    def test_default_support_dedups(self, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        ds = smnn.gen_spiral(40, seed=5)
        rows = np.vstack([ds.points.points, ds.points.points[:3]])
        labels = ds.labels + ds.labels[:3]
        smnn.save_csv(smnn.LabeledDataset(points=rows, labels=labels), data)
        model = tmp_path / "m.json"
        with pytest.warns(UserWarning):
            code, stdout, _ = _run(
                capsys, "train", "--data", str(data), "--epochs", "5",
                "--out", str(model),
            )
        assert code == 0
        assert _last_json(stdout)["support_size"] == 40

    @pytest.mark.parametrize("support, batches_per_epoch", [(None, 1), ([0, 10, 20, 30, 40, 50], 60)])
    def test_train_reports_batches(self, tmp_path, capsys, support, batches_per_epoch):
        # The full support gives every row a column of its own, so each
        # epoch is one level batch; six support points make the schedule
        # narrow, and each step is a kernel call.
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "60", "--seed", "2",
             "--out", str(data), "--train-fraction", "1")
        argv = ["train", "--data", str(data), "--epochs", "7", "--out", str(tmp_path / "m.json")]
        if support is not None:
            (tmp_path / "s.json").write_text(json.dumps(support))
            argv += ["--support", str(tmp_path / "s.json")]
        code, stdout, _ = _run(capsys, *argv)
        assert code == 0
        summary = _last_json(stdout)
        assert summary["n_steps"] == 7 * 60
        assert summary["n_batches"] == 7 * batches_per_epoch

    def test_support_and_epsilon_conflict(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data), "--support", "s.json",
                  "--epsilon", "0.5", "--out", str(tmp_path / "m.json")])
        assert err.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_train_deterministic_bytes(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "80", "--seed", "1",
             "--out", str(data), "--train-fraction", "1")
        outs = []
        for name in ("m1.json", "m2.json"):
            model = tmp_path / name
            code, _, _ = _run(
                capsys, "train", "--data", str(data), "--epsilon", "0.2",
                "--epochs", "30", "--seed", "2", "--out", str(model),
            )
            assert code == 0
            outs.append(model.read_bytes())
        assert outs[0] == outs[1]

    def test_one_hot_init(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "60", "--seed", "2",
             "--out", str(data), "--train-fraction", "1")
        code, _, _ = _run(
            capsys, "train", "--data", str(data), "--epochs", "5",
            "--init", "one_hot", "--out", str(tmp_path / "m.json"),
        )
        assert code == 0

    def test_iris_full_support_reports_the_lift_screen(self, tmp_path, capsys):
        # The bundled Iris at full support is a 4-D complex of about 1,800
        # cells, some of them flat: it locates through the lift screen.
        data = tmp_path / "iris.csv"
        smnn.save_csv(smnn.load_iris(), data)
        with pytest.warns(UserWarning, match="dropped 1 duplicate rows"):
            code, stdout, _ = _run(
                capsys, "train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "m.json"),
            )
        assert code == 0
        tri = smnn.load_model(tmp_path / "m.json")[0].space.tri
        health = _last_json(stdout)["triangulation"]
        assert health == {
            "cells": tri.simplices.shape[0],
            "hull_facets": tri.facets.shape[0],
            "flat_cells": int(np.isnan(tri.inverses).all(axis=(1, 2)).sum()),
            "locator": "lift",
            "worst_condition": tri.cond,
            "reach": tri.reach,
        }
        assert health["cells"] >= smnn.geometry.INDEX_MIN_CELLS and health["flat_cells"] > 0
        _assert_condition_and_reach(tri, health)


def _assert_condition_and_reach(tri, health):
    """The reported worst condition number bounds the largest condition
    number of the usable cells' vertex matrices from above, and by at most
    the factor n+1 of |T|_F |T^-1|_F over cond_2(T); the reach lies just
    past the largest support norm, by the coordinate slack of those cells."""
    pts = tri.cloud.points
    usable = ~np.isnan(tri.inverses[:, 0, 0])
    tmat = np.concatenate([np.transpose(pts[tri.simplices[usable]], (0, 2, 1)), np.ones((usable.sum(), 1, pts.shape[1] + 1))], axis=1)
    worst = np.linalg.cond(tmat).max()
    assert worst <= health["worst_condition"] <= (pts.shape[1] + 1) * worst
    rho = np.linalg.norm(pts, axis=1).max()
    assert rho < health["reach"] < rho * (1 + 1e-4)
    json.dumps(health, allow_nan=False)


class TestErrorPaths:
    def test_missing_data_file(self, tmp_path, capsys):
        code, _, stderr = _run(
            capsys, "train", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "No such file" in stderr or "nope.csv" in stderr

    def test_malformed_csv_location_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2,label\n0.1,0.2,a\nx,0.4,b\n")
        code, _, stderr = _run(
            capsys, "train", "--data", str(bad), "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "ParseError" in stderr
        assert "row 3" in stderr

    @pytest.mark.parametrize("support", [[True, False, 2, 3, 4, 5], [0, 1, 2.0, 3, 4, 5]])
    def test_non_integer_support_file(self, tmp_path, capsys, support):
        # JSON true is a Python bool, and bool is a subclass of int.
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        support_file = tmp_path / "s.json"
        support_file.write_text(json.dumps(support))
        model = tmp_path / "m.json"
        code, _, stderr = _run(
            capsys, "train", "--data", str(data), "--support", str(support_file),
            "--epochs", "5", "--out", str(model),
        )
        assert code == 2
        assert "ParseError" in stderr and "integers" in stderr
        assert not model.exists()

    def test_long_header_error_is_short(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"x" * 100_000 + b"\n")
        model = tmp_path / "m.json"
        code, stdout, stderr = _run(capsys, "train", "--data", str(data), "--out", str(model))
        assert code == 2 and stdout == "" and not model.exists()
        assert stderr.startswith("ParseError: header must be") and len(stderr) < 300

    @pytest.mark.parametrize("content", sorted(UNDECODABLE))
    def test_undecodable_files(self, tmp_path, capsys, content):
        # A model file that is no JSON document raises ModelFileError, and
        # a support or data file ParseError; each exits 2 with the name.
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        bad = tmp_path / "bad.json"
        bad.write_bytes(UNDECODABLE[content])
        model = tmp_path / "m.json"
        for argv, error in ((("predict", "--model", str(bad), "--point", "0.1,0.2"), "ModelFileError"),
                            (("train", "--data", str(data), "--support", str(bad), "--out", str(model)),
                             "ParseError"),
                            (("train", "--data", str(bad), "--out", str(model)), "ParseError")):
            code, stdout, stderr = _run(capsys, *argv)
            assert code == 2 and stdout == ""
            assert stderr.startswith(error + ": ")
        assert not model.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate(self, tmp_path, capsys, rate):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        code, stdout, stderr = _run(
            capsys, "train", "--data", str(data), "--epochs", "5", "--lr=" + rate,
            "--out", str(model),
        )
        assert code == 2
        assert "ValueError" in stderr and "learning rate" in stderr
        assert stdout == ""
        assert not model.exists()

    def test_diverging_learning_rate(self, tmp_path, capsys):
        # A finite rate so large that the weights overflow to NaN: the fit
        # raises NonFiniteWeights, and no model file is written.
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code, stdout, stderr = _run(
                capsys, "train", "--data", str(data), "--epsilon", "0.3", "--epochs", "3",
                "--lr", "1.7e308", "--out", str(model),
            )
        assert code == 2
        assert "NonFiniteWeights" in stderr and "non-finite" in stderr
        assert stdout == ""
        assert not model.exists()

    def test_bad_point_text(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        _run(capsys, "train", "--data", str(data), "--epochs", "5",
             "--out", str(model))
        code, _, stderr = _run(
            capsys, "predict", "--model", str(model), "--point", "1.0,fish",
        )
        assert code == 2
        assert "ParseError" in stderr

    @staticmethod
    def _eval_two_blob_model(tmp_path, capsys, offset):
        """smnn eval of a one-hot model over blob a of a two-blob cloud,
        whose centroid lies outside that hull, on a row of blob a and the
        row at `offset` from the centroid."""
        rng = np.random.default_rng(2)
        pts = np.vstack([rng.random((10, 2)) + 10.0, rng.random((10, 2)) - 10.0])
        with pytest.warns(UserWarning):
            space = smnn.fit_space(pts, list(range(10)), radius_margin=1.0)
        y = np.zeros(10, dtype=np.int64)
        model = smnn.SmnnModel(
            space=space, encoding=smnn.LabelEncoding.from_labels(["a", "b"]),
            weights=smnn.init_weights("one_hot", 0, 2, 10, y), support_labels=y,
        )
        smnn.save_model(model, tmp_path / "m.json")
        x, y = space.centroid + np.array(offset)
        data = tmp_path / "d.csv"
        data.write_text("f1,f2,label\n%.17g,%.17g,a\n%.17g,%.17g,b\n" % (*pts[0], x, y))
        return _run(capsys, "eval", "--model", str(tmp_path / "m.json"), "--data", str(data))

    def test_eval_row_behind_a_hull_that_misses_the_centroid(self, tmp_path, capsys):
        code, stdout, _ = self._eval_two_blob_model(tmp_path, capsys, [10.0, -10.0])
        assert code == 0
        report = json.loads(stdout)
        assert report["n_no_virtual_simplex"] == 1
        assert report["accuracy"] == 0.5
        assert report["confusion"] == [[1, 0], [0, 0]]

    def test_eval_row_at_a_centroid_outside_the_hull(self, tmp_path, capsys):
        # The centroid has no sphere projection, so no virtual simplex.
        code, stdout, stderr = self._eval_two_blob_model(tmp_path, capsys, [0.0, 0.0])
        assert code == 0, stderr
        report = json.loads(stdout)
        assert report["n_no_virtual_simplex"] == 1
        assert report["accuracy"] == 0.5
        assert report["confusion"] == [[1, 0], [0, 0]]

    @pytest.mark.parametrize("argv", [
        ("train", "--radius-margin", "inf"),
        ("train", "--radius-margin", "nan"),
        ("train", "--epsilon", "nan"),
        ("train", "--epsilon", "inf"),
        ("train", "--kappa", "nan"),
        ("subsample", "--epsilon", "nan"),
        ("subsample", "--epsilon", "inf"),
        ("subsample", "--kappa", "nan"),
    ], ids=" ".join)
    def test_non_finite_geometry_parameter(self, tmp_path, capsys, argv):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        command, flag, value = argv
        out = tmp_path / "out.json"
        source = "--data" if command == "train" else "--in"
        code, stdout, stderr = _run(
            capsys, command, source, str(data), flag + "=" + value, "--out", str(out),
        )
        assert code == 2
        assert "finite" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_unknown_label_on_eval(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        _run(capsys, "train", "--data", str(data), "--epochs", "5", "--out", str(model))
        odd = tmp_path / "odd.csv"
        odd.write_text("f1,f2,label\n0.1,0.2,0\n0.2,0.1,seven\n")
        code, stdout, stderr = _run(capsys, "eval", "--model", str(model), "--data", str(odd))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("UnknownLabel: unknown label 'seven'")

    def test_point_outside_ball(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        _run(capsys, "train", "--data", str(data), "--epochs", "5",
             "--out", str(model))
        code, _, stderr = _run(
            capsys, "predict", "--model", str(model), "--point", "500,500",
        )
        assert code == 2
        assert "OutsideBall" in stderr

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_malformed_points(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        _run(capsys, "train", "--data", str(data), "--epochs", "5",
             "--out", str(model))
        for point, error in (("nan,0", "NonFiniteQuery"), ("0.1", "DimensionMismatch"),
                             ("0.1,0.2,0.3", "DimensionMismatch")):
            code, stdout, stderr = _run(
                capsys, command, "--model", str(model), "--point=" + point,
            )
            assert code == 2
            assert stdout == ""
            assert error in stderr

    @pytest.mark.parametrize("command", ["predict", "explain", "eval"])
    @pytest.mark.parametrize("defect", ["simplex-id-out-of-range", "missing-weights"])
    def test_bad_model_file(self, tmp_path, capsys, command, defect):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        _run(capsys, "train", "--data", str(data), "--epochs", "5", "--out", str(model))
        doc = json.loads(model.read_text())
        if defect == "missing-weights":
            del doc["weights"]
        else:
            doc["simplices"][0][-1] = len(doc["support_points"])
        model.write_text(json.dumps(doc))
        if command == "eval":
            args = ("--data", str(data))
        else:
            args = ("--point", "0.1,0.2")
        code, stdout, stderr = _run(capsys, command, "--model", str(model), *args)
        assert code == 2
        assert stdout == ""
        assert "ModelFileError" in stderr

    def test_dimension_mismatch_on_eval(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        _run(capsys, "gen", "--kind", "spiral", "--n", "40", "--seed", "0",
             "--out", str(data), "--train-fraction", "1")
        model = tmp_path / "m.json"
        _run(capsys, "train", "--data", str(data), "--epochs", "5", "--out", str(model))
        wide = tmp_path / "wide.csv"
        wide.write_text("f1,f2,f3,label\n0.1,0.2,0.3,a\n0.2,0.1,0.0,b\n")
        code, _, stderr = _run(capsys, "eval", "--model", str(model), "--data", str(wide))
        assert code == 2
        assert "dimension" in stderr

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--kind", "spiral", "--n", "10", "--out", "x.csv", "--frobnicate"])
        assert err.value.code == 1
