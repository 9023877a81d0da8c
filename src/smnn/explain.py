"""Instance-based explanations: which support points drive a prediction.

A prediction is a convex combination of at most n+1 trained weight
columns, so the logit of class j decomposes exactly into per-vertex
terms p_j^t * xi_t.  The explanation lists each active support point
with its original coordinates, label, weight xi_t and signed per-class
contributions, and can be rendered as a grouped bar chart in SVG.
"""

import json
from dataclasses import dataclass

import numpy as np

from .embedding import xi as _xi
from .model import logits, softmax


@dataclass
class Contributor:
    """One active support point of a prediction."""

    support_index: int
    coordinates: np.ndarray
    label: str
    xi_value: float
    contributions: np.ndarray


@dataclass
class Explanation:
    query: np.ndarray
    predicted_label: str
    probabilities: np.ndarray
    contributors: list
    sphere_mass: float
    out_of_hull: bool
    class_labels: tuple

    def to_dict(self):
        return {
            "query": [float(v) for v in self.query],
            "predicted_label": self.predicted_label,
            "probabilities": {
                name: float(p) for name, p in zip(self.class_labels, self.probabilities)
            },
            "contributors": [
                {
                    "support_index": int(c.support_index),
                    "coordinates": [float(v) for v in c.coordinates],
                    "label": c.label,
                    "xi_value": float(c.xi_value),
                    "contributions": {
                        name: float(v) for name, v in zip(self.class_labels, c.contributions)
                    },
                }
                for c in self.contributors
            ],
            "sphere_mass": float(self.sphere_mass),
            "out_of_hull": bool(self.out_of_hull),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def explain(model, x_raw):
    """Explanation of the model's prediction at one query point, read as xi reads it."""
    sparse = _xi(model.space, x_raw)
    z = logits(model, sparse)
    probs = softmax(z)
    predicted = model.encoding.labels[int(np.argmax(probs))]

    contributors = [
        Contributor(
            support_index=t,
            coordinates=model.space.support.points[t] + model.space.centroid,
            label=model.encoding.labels[int(model.support_labels[t])],
            xi_value=value,
            contributions=model.weights[:, t] * value,
        )
        for t, value in zip(sparse.indices.tolist(), sparse.values.tolist())
    ]
    return Explanation(
        query=np.asarray(x_raw, dtype=np.float64),
        predicted_label=predicted,
        probabilities=probs,
        contributors=contributors,
        sphere_mass=float(sparse.sphere_mass),
        out_of_hull=sparse.facet_used is not None,
        class_labels=model.encoding.labels,
    )


# Fixed palette, cycled when there are more classes than colors.
_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
)

_BAR_W = 22
_BAR_GAP = 4
_GROUP_GAP = 30
_PLOT_H = 220
_MARGIN = 40
_LEGEND_H = 28


def _fmt(v):
    return "%.2f" % v


def render_explanation_svg(explanation):
    """Grouped bar chart of per-class contributions, one group per vertex.

    Bars carry class="bar"; negative contributions hang below the axis.
    Output bytes depend only on the explanation contents.
    """
    # Imported here: import smnn does not load html.
    from html import escape

    k = len(explanation.class_labels)
    groups = explanation.contributors
    n_groups = max(len(groups), 1)

    group_w = k * _BAR_W + (k - 1) * _BAR_GAP
    width = 2 * _MARGIN + n_groups * group_w + (n_groups - 1) * _GROUP_GAP
    height = 2 * _MARGIN + _PLOT_H + _LEGEND_H
    axis_y = _MARGIN + _LEGEND_H + _PLOT_H / 2.0

    peak = max(
        (abs(float(v)) for c in groups for v in c.contributions),
        default=0.0,
    )
    scale = (_PLOT_H / 2.0 - 8.0) / peak if peak > 0.0 else 0.0

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'font-family="sans-serif" font-size="11">' % (width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]
    for j, name in enumerate(explanation.class_labels):
        x = _MARGIN + j * 90
        color = _PALETTE[j % len(_PALETTE)]
        parts.append(
            '<rect class="swatch" x="%d" y="%d" width="10" height="10" fill="%s"/>'
            % (x, _MARGIN - 10, color)
        )
        parts.append(
            '<text x="%d" y="%d">%s</text>' % (x + 14, _MARGIN, escape(str(name), quote=False))
        )
    parts.append(
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" stroke-width="1"/>'
        % (_fmt(_MARGIN - 8), _fmt(axis_y), _fmt(width - _MARGIN + 8), _fmt(axis_y))
    )

    for g, contrib in enumerate(groups):
        gx = _MARGIN + g * (group_w + _GROUP_GAP)
        for j in range(k):
            value = float(contrib.contributions[j])
            bar_h = abs(value) * scale
            bx = gx + j * (_BAR_W + _BAR_GAP)
            by = axis_y - bar_h if value >= 0.0 else axis_y
            color = _PALETTE[j % len(_PALETTE)]
            parts.append(
                '<rect class="bar" x="%s" y="%s" width="%d" height="%s" fill="%s">'
                "<title>%s: %s</title></rect>"
                % (
                    _fmt(bx),
                    _fmt(by),
                    _BAR_W,
                    _fmt(bar_h),
                    color,
                    escape(str(explanation.class_labels[j]), quote=False),
                    "%.6g" % value,
                )
            )
        parts.append(
            '<text x="%s" y="%s" text-anchor="middle">u%d (%s)</text>'
            % (
                _fmt(gx + group_w / 2.0),
                _fmt(_MARGIN + _LEGEND_H + _PLOT_H + 16),
                contrib.support_index,
                escape(str(contrib.label), quote=False),
            )
        )
    if explanation.out_of_hull:
        parts.append(
            '<text x="%d" y="%d">sphere mass: %s</text>'
            % (_MARGIN, height - 8, "%.6g" % explanation.sphere_mass)
        )
    parts.append("</svg>")
    return "\n".join(parts)
