"""Model serialization: schema, round trips and bit-exact inference."""

import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import smnn

from conftest import SQUARE_LABELS, SQUARE_MARGIN, SQUARE_POINTS, UNDECODABLE, random_cloud


def _train_square():
    cfg = smnn.TrainConfig(epochs=25, seed=3)
    return smnn.train(SQUARE_POINTS, SQUARE_LABELS, [0, 1, 2, 3], cfg, SQUARE_MARGIN)


class TestModelDict:
    def test_field_layout(self):
        model, _ = _train_square()
        doc = smnn.model_to_dict(model, provenance={"seed": 3})
        assert doc["schema_version"] == 2
        assert doc["dim"] == 2
        assert doc["n_classes"] == 2
        assert doc["labels"] == ["0", "1"]
        assert len(doc["support_points"]) == 4
        assert doc["support_labels"] == [0, 0, 1, 1]
        assert sorted(doc["simplices"]) == [[0, 1, 2], [1, 2, 3]]
        assert "boundary_facets" not in doc
        assert doc["provenance"] == {"seed": 3}
        assert np.array(doc["weights"]).shape == (2, 4)

    def test_json_serializable(self):
        model, _ = _train_square()
        json.dumps(smnn.model_to_dict(model))

    def test_facet_fields(self):
        # The file holds no facets; loading rebuilds every field of each.
        model, _ = _train_square()
        back, _ = smnn.model_from_dict(smnn.model_to_dict(model))
        assert len(back.space.tri.boundary) == 4
        for a, b in zip(model.space.tri.boundary, back.space.tri.boundary):
            assert (a.facet_ids, a.opposite_id) == (b.facet_ids, b.opposite_id)
            assert a.normal.tobytes() == b.normal.tobytes() and a.offset == b.offset


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
            assert np.array_equal(smnn.forward(model, x), smnn.forward(back, x))
            assert smnn.predict(model, x) == smnn.predict(back, x)

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
            assert np.array_equal(smnn.forward(model, x), smnn.forward(back, x))

    @staticmethod
    def _assert_locator_rebuilt(pts, version, locator, rng):
        """A model over pts, saved in the given schema version and loaded,
        rebuilds the point locator of its complex field for field, and
        forward keeps its bits."""
        m, n = pts.shape
        space = smnn.fit_space(pts, list(range(m)))
        assert space.tri.locator == locator
        y = rng.integers(0, 2, size=m)
        model = smnn.SmnnModel(
            space=space,
            encoding=smnn.LabelEncoding.from_labels(["0", "1"]),
            weights=smnn.init_weights("one_hot", 0, 2, m, y),
            support_labels=y,
        )
        doc = smnn.model_to_dict(model)
        if version == 1:
            doc["schema_version"] = 1
            doc["boundary_facets"] = [
                {
                    "facet_ids": list(f.facet_ids),
                    "opposite_id": f.opposite_id,
                    "normal": f.normal.tolist(),
                    "offset": f.offset,
                }
                for f in space.tri.boundary
            ]
        back, _ = smnn.model_from_dict(json.loads(json.dumps(doc)))
        built, loaded = space.tri.index, back.space.tri.index
        assert loaded.kind == locator
        for name in built.__dataclass_fields__:
            a, b = np.asarray(getattr(built, name)), np.asarray(getattr(loaded, name))
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        queries = pts[:50] + 0.01 * rng.standard_normal((50, n))
        for x in queries:
            assert smnn.forward(model, x).tobytes() == smnn.forward(back, x).tobytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_cell_index_rebuilt_bit_identical(self, version):
        # A 3-D complex above the index crossover: loading rebuilds its
        # cell index from the stored simplices.
        rng = np.random.default_rng(6)
        self._assert_locator_rebuilt(random_cloud(rng, 250, 3), version, "index", rng)

    @pytest.mark.parametrize("version", [1, 2])
    def test_lift_screen_rebuilt_bit_identical(self, version):
        # A 4-D complex above the crossover: loading rebuilds its lift
        # screen from the stored simplices.
        rng = np.random.default_rng(6)
        self._assert_locator_rebuilt(random_cloud(rng, 90, 4), version, "lift", rng)

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


def _drop_column(doc):
    for row in doc["weights"]:
        row.pop()


def _three_cells_on_one_face(doc):
    # A fifth support point at the square's centre, and three cells on (0, 1).
    doc["support_points"].append([0.0, 0.0])
    doc["support_labels"].append(0)
    for row in doc["weights"]:
        row.append(0.0)
    doc["simplices"] = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]


BAD_DOCUMENTS = {
    "simplex-id-out-of-range": lambda doc: doc["simplices"][0].__setitem__(2, 9),
    "simplex-id-negative": lambda doc: doc["simplices"][1].__setitem__(0, -1),
    "simplex-row-unsorted": lambda doc: doc["simplices"][0].reverse(),
    "simplex-row-too-short": lambda doc: doc["simplices"][0].pop(),
    "simplex-id-float": lambda doc: doc["simplices"][0].__setitem__(0, 0.5),
    "face-of-three-cells": _three_cells_on_one_face,
    "missing-weights": lambda doc: doc.pop("weights"),
    "missing-simplices": lambda doc: doc.pop("simplices"),
    "missing-radius": lambda doc: doc.pop("radius"),
    "nan-weight": lambda doc: doc["weights"][0].__setitem__(0, float("nan")),
    "weights-wrong-shape": _drop_column,
    "nan-support-point": lambda doc: doc["support_points"][2].__setitem__(1, float("nan")),
    "labels-below-2": lambda doc: doc.update(labels=["0"], n_classes=1),
    "labels-not-strings": lambda doc: doc.update(labels=[0, 1]),
    "n-classes-mismatch": lambda doc: doc.update(n_classes=3),
    "dim-not-an-integer": lambda doc: doc.update(dim="2"),
    "centroid-wrong-dimension": lambda doc: doc["centroid"].append(0.0),
    "radius-negative": lambda doc: doc.update(radius=-1),
    "radius-inside-support": lambda doc: doc.update(radius=0.3),
    "radius-huge-int": lambda doc: doc.update(radius=10**400),
    "radius-string": lambda doc: doc.update(radius="1.0"),
    "support-label-7": lambda doc: doc["support_labels"].__setitem__(0, 7),
    "support-labels-short": lambda doc: doc["support_labels"].pop(),
    "provenance-not-an-object": lambda doc: doc.update(provenance=[1]),
}


class TestLoaderValidation:
    @pytest.mark.parametrize("defect", sorted(BAD_DOCUMENTS))
    def test_bad_document_raises(self, defect):
        model, _ = _train_square()
        doc = smnn.model_to_dict(model)
        BAD_DOCUMENTS[defect](doc)
        with pytest.raises(smnn.ModelFileError):
            smnn.model_from_dict(doc)

    def test_document_must_be_an_object(self):
        model, _ = _train_square()
        with pytest.raises(smnn.ModelFileError):
            smnn.model_from_dict([smnn.model_to_dict(model)])

    @pytest.mark.parametrize(
        "edit",
        [
            lambda facets: facets[0].update(normal=[-v for v in facets[0]["normal"]]),
            lambda facets: facets.clear(),
            lambda facets: facets[1].update(opposite_id=99, offset=float("nan")),
        ],
        ids=["flipped-normal", "no-facets", "nonsense-facet"],
    )
    def test_v1_facets_are_rebuilt(self, edit):
        # Version 1 files also listed the hull facets; loading ignores them.
        model, _ = _train_square()
        doc = smnn.model_to_dict(model)
        doc["schema_version"] = 1
        doc["boundary_facets"] = [
            {
                "facet_ids": list(f.facet_ids),
                "opposite_id": f.opposite_id,
                "normal": f.normal.tolist(),
                "offset": f.offset,
            }
            for f in model.space.tri.boundary
        ]
        edit(doc["boundary_facets"])
        back, _ = smnn.model_from_dict(json.loads(json.dumps(doc)))
        for x in ([0.75, 0.6], [0.75, 1.25], [1.2, 0.3], [0.3, 0.9]):
            assert smnn.forward(model, x).tobytes() == smnn.forward(back, x).tobytes()
        for a, b in zip(model.space.tri.boundary, back.space.tri.boundary):
            assert a.normal.tobytes() == b.normal.tobytes() and a.offset == b.offset


def _fuzz_model():
    rng = np.random.default_rng(8)
    pts = random_cloud(rng, 14, 2)
    labels = [str(v) for v in rng.integers(0, 3, size=14)]
    model, _ = smnn.train(pts, labels, list(range(10)), smnn.TrainConfig(epochs=5, seed=8))
    return model, pts


_FUZZ_MODEL, _FUZZ_ROWS = _fuzz_model()
_FUZZ_DOC = smnn.model_to_dict(_FUZZ_MODEL, provenance={"seed": 8, "note": "fuzz"})


def _nodes(node, path=()):
    """Paths to every value below node, each with whether it is a leaf."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,), not isinstance(child, (dict, list))
        yield from _nodes(child, path + (key,))


_FUZZ_NODES = list(_nodes(_FUZZ_DOC))
_FUZZ_LEAVES = [path for path, leaf in _FUZZ_NODES if leaf]
_DROP = object()


@pytest.mark.parametrize("content", sorted(UNDECODABLE))
def test_undecodable_file_raises_the_readers_error(tmp_path, content):
    # A model file is read as JSON and a data file as UTF-8 CSV text; bytes
    # that are neither raise each reader's typed error.
    path = tmp_path / "file"
    path.write_bytes(UNDECODABLE[content])
    with pytest.raises(smnn.ModelFileError, match="not a JSON document"):
        smnn.load_model(path)
    with pytest.raises(smnn.ParseError):
        smnn.load_csv(path)


class TestLoaderFuzz:
    @given(st.data())
    def test_mutated_document_is_rejected_or_answers(self, data):
        doc = copy.deepcopy(_FUZZ_DOC)
        if data.draw(st.booleans(), label="replace"):
            path = data.draw(st.sampled_from(_FUZZ_LEAVES), label="leaf")
            value = data.draw(st.sampled_from([float("nan"), -1, 10**400, "x", None]), label="value")
        else:
            path = data.draw(st.sampled_from([p for p, _ in _FUZZ_NODES]), label="dropped")
            value = _DROP
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            parent.pop(path[-1])
        else:
            parent[path[-1]] = value
        try:
            model, _ = smnn.model_from_dict(doc)
        except smnn.ModelFileError:
            return
        for row in _FUZZ_ROWS:
            try:
                probs = smnn.forward(model, row)
            except smnn.SmnnError:
                continue
            assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-9

