"""Per-vertex prediction explanations and their SVG rendering."""

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import smnn
from smnn.explain import Contributor, Explanation

from conftest import SQUARE_POINTS, random_cloud


class TestExplain:
    def test_interior_square_query(self, square_model):
        exp = smnn.explain(square_model, [0.75, 0.6])
        assert exp.predicted_label == "0"
        assert not exp.out_of_hull
        assert exp.sphere_mass == 0.0
        assert [c.support_index for c in exp.contributors] == [0, 1, 2]
        assert np.abs(np.array([c.xi_value for c in exp.contributors]) - [0.3, 0.2, 0.5]).max() < 1e-12
        for c in exp.contributors:
            assert np.array_equal(c.coordinates, SQUARE_POINTS[c.support_index])
            assert c.label == ("0" if c.support_index < 2 else "1")

    def test_sphere_route_query(self, square_model):
        exp = smnn.explain(square_model, [0.75, 1.25])
        assert exp.out_of_hull
        assert abs(exp.sphere_mass - 1.0 / 3.0) < 1e-12
        assert [c.support_index for c in exp.contributors] == [1, 3]

    def test_logit_decomposition(self, square_model):
        rng = np.random.default_rng(0)
        square_model.weights[:] = rng.standard_normal((2, 4))
        for _ in range(40):
            angle = rng.random() * 2.0 * np.pi
            x = square_model.space.centroid + rng.random() * np.array(
                [np.cos(angle), np.sin(angle)]
            )
            exp = smnn.explain(square_model, x)
            xi = smnn.xi(square_model.space, x)
            z = smnn.logits(square_model, xi)
            total = np.sum([c.contributions for c in exp.contributors], axis=0)
            assert np.abs(total - z).max() < 1e-9
            assert np.abs(smnn.softmax(z) - exp.probabilities).max() < 1e-9

    def test_coordinates_have_the_bits_of_the_translated_support(self):
        # A contributor's coordinates are its support row plus the
        # centroid, with the bits of moving every support row back.
        rng = np.random.default_rng(3)
        pts = random_cloud(rng, 40, 3, spread=2.0)
        labels = [str(int(v)) for v in rng.integers(0, 2, size=40)]
        model, _ = smnn.train(pts, labels, list(range(0, 40, 2)), smnn.TrainConfig(epochs=2))
        raw = model.space.support.points + model.space.centroid
        routes = set()
        for x in np.vstack([pts, pts.mean(axis=0) + 1.2 * rng.standard_normal((20, 3))]):
            try:
                exp = smnn.explain(model, x)
            except (smnn.OutsideBall, smnn.NoContainingVirtualSimplex):
                continue
            routes.add(exp.out_of_hull)
            whole = dataclasses.replace(
                exp,
                contributors=[
                    dataclasses.replace(c, coordinates=raw[c.support_index].copy())
                    for c in exp.contributors
                ],
            )
            assert exp.to_json().encode() == whole.to_json().encode()
        assert routes == {False, True}

    def test_contributor_locality(self):
        rng = np.random.default_rng(1)
        pts = random_cloud(rng, 25, 3, spread=2.0)
        labels = [str(int(v)) for v in rng.integers(0, 2, size=25)]
        model, _ = smnn.train(pts, labels, list(range(25)), smnn.TrainConfig(epochs=3))
        for _ in range(60):
            x = pts.mean(axis=0) + 0.4 * rng.standard_normal(3)
            exp = smnn.explain(model, x)
            assert len(exp.contributors) <= 4
            for c in exp.contributors:
                assert c.xi_value > 0.0

    def test_support_query_single_onehot_contribution(self, square_model):
        exp = smnn.explain(square_model, SQUARE_POINTS[2])
        assert len(exp.contributors) == 1
        c = exp.contributors[0]
        assert c.support_index == 2
        assert c.xi_value == 1.0
        assert np.array_equal(c.contributions, [0.0, 1.0])
        assert exp.predicted_label == "1"

    def test_equal_weight_unequal_columns(self, square_model):
        square_model.weights[:] = np.array([[0.0, 4.0, 0.0, 1.0], [0.0, 0.0, 0.0, 2.0]])
        exp = smnn.explain(square_model, [0.75, 1.25])
        by_index = {c.support_index: c for c in exp.contributors}
        assert abs(by_index[1].xi_value - by_index[3].xi_value) < 1e-12
        assert not np.allclose(by_index[1].contributions, by_index[3].contributions)

    def test_outside_ball_propagates(self, square_model):
        with pytest.raises(smnn.OutsideBall):
            smnn.explain(square_model, [0.75, 40.0])

    def test_to_dict_layout(self, square_model):
        exp = smnn.explain(square_model, [0.75, 1.25])
        payload = exp.to_dict()
        assert payload["query"] == [0.75, 1.25]
        assert set(payload["probabilities"]) == {"0", "1"}
        assert payload["out_of_hull"] is True
        assert abs(payload["sphere_mass"] - 1.0 / 3.0) < 1e-12
        first = payload["contributors"][0]
        assert set(first) == {"support_index", "coordinates", "label", "xi_value", "contributions"}
        assert set(first["contributions"]) == {"0", "1"}

    def test_json_round_trip(self, square_model):
        exp = smnn.explain(square_model, [0.75, 0.6])
        assert json.loads(exp.to_json()) == exp.to_dict()


def _bars(svg):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == "bar"]


class TestRenderSvg:
    def test_bar_and_swatch_counts(self, square_model):
        svg = smnn.render_explanation_svg(smnn.explain(square_model, [0.75, 0.6]))
        root = ET.fromstring(svg)
        assert len(_bars(svg)) == 2 * 3
        swatches = [el for el in root.iter() if el.get("class") == "swatch"]
        assert len(swatches) == 2

    def test_single_contributor(self, square_model):
        svg = smnn.render_explanation_svg(smnn.explain(square_model, SQUARE_POINTS[0]))
        assert len(_bars(svg)) == 2

    def test_negative_bars_below_axis(self):
        exp = Explanation(
            query=np.array([0.0, 0.0]),
            predicted_label="a",
            probabilities=np.array([0.6, 0.4]),
            contributors=[
                Contributor(
                    support_index=0,
                    coordinates=np.array([1.0, 2.0]),
                    label="a",
                    xi_value=1.0,
                    contributions=np.array([0.75, -0.5]),
                )
            ],
            sphere_mass=0.0,
            out_of_hull=False,
            class_labels=("a", "b"),
        )
        bars = _bars(smnn.render_explanation_svg(exp))
        tops = [float(b.get("y")) for b in bars]
        heights = [float(b.get("height")) for b in bars]
        axis_y = tops[0] + heights[0]
        assert tops[1] == axis_y
        assert abs(heights[0] - 1.5 * heights[1]) < 0.02

    def test_deterministic_bytes(self, square_model):
        exp = smnn.explain(square_model, [0.75, 1.25])
        assert smnn.render_explanation_svg(exp) == smnn.render_explanation_svg(exp)

    def test_sphere_mass_note_only_when_outside(self, square_model):
        inside = smnn.render_explanation_svg(smnn.explain(square_model, [0.75, 0.6]))
        outside = smnn.render_explanation_svg(smnn.explain(square_model, [0.75, 1.25]))
        assert "sphere mass" not in inside
        assert "sphere mass" in outside

    def test_label_escaping(self):
        exp = Explanation(
            query=np.array([0.0]),
            predicted_label="a<b&c",
            probabilities=np.array([0.5, 0.5]),
            contributors=[
                Contributor(
                    support_index=3,
                    coordinates=np.array([0.0]),
                    label="a<b&c",
                    xi_value=1.0,
                    contributions=np.array([1.0, -1.0]),
                )
            ],
            sphere_mass=0.0,
            out_of_hull=False,
            class_labels=("a<b&c", "plain"),
        )
        svg = smnn.render_explanation_svg(exp)
        root = ET.fromstring(svg)
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert any(t == "a<b&c" for t in texts)
        # &, < and > are escaped in that order; quotes are left as they are.
        assert "a&lt;b&amp;c" in svg and "&amp;lt;" not in svg

    def test_quotes_are_left_unescaped(self):
        exp = Explanation(
            query=np.array([0.0]), predicted_label='say "hi"', probabilities=np.array([0.5, 0.5]),
            contributors=[], sphere_mass=0.0, out_of_hull=False, class_labels=('say "hi"', "it's"),
        )
        svg = smnn.render_explanation_svg(exp)
        assert '>say "hi"</text>' in svg and ">it's</text>" in svg

    def test_import_does_not_load_html(self):
        # render_explanation_svg imports html.escape on its first call.
        src = os.path.dirname(os.path.dirname(os.path.abspath(smnn.__file__)))
        code = "import sys; sys.path.insert(0, %r); import smnn; print('html' in sys.modules)" % src
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_group_labels_name_vertices(self, square_model):
        svg = smnn.render_explanation_svg(smnn.explain(square_model, [0.75, 1.25]))
        assert "u1 (0)" in svg
        assert "u3 (1)" in svg


@pytest.fixture(scope="module")
def iris_model():
    data = smnn.load_iris()
    train_ds, test_ds = smnn.split(data, 0.75, seed=0)
    pts = train_ds.points.points
    support = np.sort(np.unique(pts, axis=0, return_index=True)[1])
    cfg = smnn.TrainConfig(learning_rate=0.5, epochs=1000, seed=0)
    model, _ = smnn.train(pts, train_ds.labels, support, cfg)
    return model, test_ds


class TestIrisWorkedExample:
    """A held-out iris flower explained by the five vertices around it."""

    def test_point_is_held_out(self, iris_model):
        model, test_ds = iris_model
        gaps = np.abs(test_ds.points.points - [5.5, 2.4, 3.8, 1.1]).max(axis=1)
        assert gaps.min() < 1e-12

    def test_five_contributors_predicting_versicolor(self, iris_model):
        model, _ = iris_model
        exp = smnn.explain(model, [5.5, 2.4, 3.8, 1.1])
        assert exp.predicted_label == "versicolor"
        assert not exp.out_of_hull
        assert len(exp.contributors) == 5
        assert exp.sphere_mass == 0.0
        total = sum(c.xi_value for c in exp.contributors)
        assert abs(total - 1.0) < 1e-9

    def test_contribution_sums_match_probabilities(self, iris_model):
        model, _ = iris_model
        exp = smnn.explain(model, [5.5, 2.4, 3.8, 1.1])
        z = np.sum([c.contributions for c in exp.contributors], axis=0)
        probs = np.exp(z - z.max())
        probs /= probs.sum()
        assert np.abs(probs - exp.probabilities).max() < 1e-9
