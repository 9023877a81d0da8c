"""Model serialization: schema, round trips and bit-exact inference."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import smnn

from conftest import SQUARE_LABELS, SQUARE_MARGIN, SQUARE_POINTS, random_cloud


def _train_square():
    cfg = smnn.TrainConfig(epochs=25, seed=3)
    return smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN)


class TestModelDict:
    def test_field_layout(self):
        model, _ = _train_square()
        doc = smnn.model_to_dict(model, provenance={"seed": 3})
        assert doc["schema_version"] == 1
        assert doc["dim"] == 2
        assert doc["n_classes"] == 2
        assert doc["labels"] == ["0", "1"]
        assert len(doc["support_points"]) == 4
        assert doc["support_labels"] == [0, 0, 1, 1]
        assert sorted(doc["simplices"]) == [[0, 1, 2], [1, 2, 3]]
        assert len(doc["boundary_facets"]) == 4
        assert doc["provenance"] == {"seed": 3}
        assert np.array(doc["weights"]).shape == (2, 4)

    def test_json_serializable(self):
        model, _ = _train_square()
        json.dumps(smnn.model_to_dict(model))

    def test_facet_fields(self):
        model, _ = _train_square()
        facet = smnn.model_to_dict(model)["boundary_facets"][0]
        assert set(facet) == {"facet_ids", "opposite_id", "normal", "offset"}


class TestRoundTrip:
    def test_bit_identical_forward(self, tmp_path):
        model, _ = _train_square()
        path = tmp_path / "model.json"
        smnn.save_model(model, path, provenance={"epochs": 25})
        back, provenance = smnn.load_model(path)
        assert provenance == {"epochs": 25}

        rng = np.random.default_rng(0)
        for _ in range(100):
            angle = rng.random() * 2.0 * np.pi
            x = model.space.centroid + rng.random() * np.array(
                [np.cos(angle), np.sin(angle)]
            )
            assert np.array_equal(model.forward(x), back.forward(x))
            assert model.predict(x) == back.predict(x)

    def test_high_dimensional_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = random_cloud(rng, 40, 4, spread=2.0)
        labels = [str(int(v)) for v in rng.integers(0, 3, size=40)]
        model, _ = smnn.train(pts, labels, list(range(0, 40, 2)), smnn.TrainConfig(epochs=10))
        path = tmp_path / "m.json"
        smnn.save_model(model, path)
        back, _ = smnn.load_model(path)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.space.support.points, model.space.support.points)
        assert back.space.radius == model.space.radius
        for _ in range(50):
            x = pts[rng.integers(0, 40)] + 0.1 * rng.standard_normal(4)
            assert np.array_equal(model.forward(x), back.forward(x))

    def test_reloaded_model_evaluates(self, tmp_path):
        model, _ = _train_square()
        path = tmp_path / "model.json"
        smnn.save_model(model, path)
        back, _ = smnn.load_model(path)
        a = smnn.evaluate(model, SQUARE_POINTS, SQUARE_LABELS)
        b = smnn.evaluate(back, SQUARE_POINTS, SQUARE_LABELS)
        assert a.accuracy == b.accuracy
        assert a.mean_loss == b.mean_loss

    def test_missing_provenance_defaults_empty(self, tmp_path):
        model, _ = _train_square()
        doc = smnn.model_to_dict(model)
        doc.pop("provenance")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        _, provenance = smnn.load_model(path)
        assert provenance == {}


class TestInferenceImports:
    def test_load_and_forward_need_no_scipy(self, tmp_path):
        model, _ = _train_square()
        path = tmp_path / "model.json"
        smnn.save_model(model, path)
        code = (
            "import sys, smnn\n"
            "model, _ = smnn.load_model(sys.argv[1])\n"
            "smnn.forward(model, [0.75, 0.6])\n"
            "smnn.forward(model, [0.75, 1.25])\n"
            "smnn.explain(model, [0.75, 0.6])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(smnn.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestSchemaChecks:
    def test_wrong_version(self):
        model, _ = _train_square()
        doc = smnn.model_to_dict(model)
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            smnn.model_from_dict(doc)

    def test_version_required(self):
        model, _ = _train_square()
        doc = smnn.model_to_dict(model)
        doc.pop("schema_version")
        with pytest.raises(ValueError):
            smnn.model_from_dict(doc)

    def test_dimension_mismatch_detected(self):
        model, _ = _train_square()
        doc = smnn.model_to_dict(model)
        doc["dim"] = 3
        with pytest.raises(ValueError):
            smnn.model_from_dict(doc)
