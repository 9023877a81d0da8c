"""Correctness checks computed apart from the program under test.

Every check recomputes what it needs with its own NumPy code or tests a
property the method must have; none compares against a stored copy of an
earlier output.  A failed check raises CheckFailed with a message that
names the quantity and the size of the error.
"""

import json

import numpy as np

# Relative slack for "strictly inside a circumsphere" on the original
# (unperturbed) coordinates, matching the program's own co-sphericity rule.
EMPTY_BALL_TOL = 1e-7

# Interior coordinates are clamped below 1e-9 and renormalized by the
# program, so an independent solve agrees only to about (n + 1) * 1e-9.
COORD_TOL = 1e-8


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def _fail(message, *args):
    raise CheckFailed(message % args)


def check_support(points, support, size, epsilon):
    """The support has `size` distinct rows and covers every row within epsilon."""
    support = np.asarray(support, dtype=np.int64)
    if support.size != size or np.unique(support).size != size:
        _fail("support has %d rows (%d distinct), expected %d",
              support.size, np.unique(support).size, size)
    centers = points[support]
    worst = 0.0
    for start in range(0, points.shape[0], 256):
        block = points[start:start + 256]
        d2 = ((block[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
    if not worst < epsilon:
        _fail("a training row lies %.6g from the support, epsilon is %.6g", worst, epsilon)


def circumsphere(vertices):
    """Circumcenter and squared radius of one simplex, or None when flat."""
    amat = 2.0 * (vertices[1:] - vertices[0])
    if np.linalg.cond(amat) > 1e12:
        return None
    rhs = (vertices[1:] ** 2).sum(axis=1) - vertices[0] @ vertices[0]
    center = np.linalg.solve(amat, rhs)
    return center, float(((vertices[0] - center) ** 2).sum())


def check_empty_circumspheres(support_points, cells):
    """No support point lies strictly inside the circumsphere of any given cell.

    Returns the number of flat cells skipped (they have no circumsphere).
    """
    flat = 0
    for ids in cells:
        sphere = circumsphere(support_points[list(ids)])
        if sphere is None:
            flat += 1
            continue
        center, r2 = sphere
        d2 = ((support_points - center) ** 2).sum(axis=1)
        inside = np.nonzero(d2 < r2 * (1.0 - EMPTY_BALL_TOL))[0]
        if inside.size:
            _fail("support point %d lies inside the circumsphere of cell %s",
                  int(inside[0]), tuple(ids))
    return flat


def check_embedding(support_points, radius, t, sparse, cell=None):
    """Partition of unity, nonnegativity and reconstruction of one embedding.

    t is the translated query.  When `cell` (the vertex ids of the cell
    that contains t) is given, the query is interior: its sphere mass
    must be 0 and its coordinates must match a direct solve on the cell.
    """
    values = np.asarray(sparse.values, dtype=np.float64)
    idx = np.asarray(sparse.indices, dtype=np.int64)
    mass = float(sparse.sphere_mass)
    if (values.size and values.min() < 0.0) or mass < 0.0:
        _fail("negative embedding weight (min %.3g, sphere mass %.3g)",
              values.min() if values.size else 0.0, mass)
    total = float(values.sum()) + mass
    if not abs(total - 1.0) <= 1e-7:
        _fail("embedding weights sum to %.17g, not 1", total)
    recon = values @ support_points[idx]
    if mass > 0.0:
        recon = recon + mass * (radius * t / np.linalg.norm(t))
    err = float(np.abs(recon - t).max())
    if not err <= 1e-6:
        _fail("embedding reconstructs the query with error %.3g", err)
    if cell is None:
        return
    if mass != 0.0:
        _fail("interior query has sphere mass %.3g", mass)
    cell = np.asarray(cell, dtype=np.int64)
    if not np.isin(idx, cell).all():
        _fail("embedding indices %s are not vertices of cell %s", idx.tolist(), cell.tolist())
    n = t.size
    tmat = np.vstack([support_points[cell].T, np.ones(n + 1)])
    coords = np.linalg.solve(tmat, np.append(t, 1.0))
    dense = np.zeros(n + 1)
    dense[np.searchsorted(cell, idx)] = values
    err = float(np.abs(dense - coords).max())
    if not err <= COORD_TOL:
        _fail("interior coordinates differ from a direct solve by %.3g", err)


def own_logits(weights, sparse):
    return weights[:, np.asarray(sparse.indices, dtype=np.int64)] @ np.asarray(sparse.values)


def own_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def check_forward(weights, sparse, probs):
    """forward equals the benchmark's own softmax of W[:, idx] @ vals."""
    err = float(np.abs(np.asarray(probs) - own_softmax(own_logits(weights, sparse))).max())
    if not err <= 1e-12:
        _fail("forward differs from softmax(W[:, idx] @ vals) by %.3g", err)


def check_explanation(weights, sparse, labels, probs, explanation):
    """Contributions sum to the logits; probabilities and label match forward."""
    z = own_logits(weights, sparse)
    parts = [np.asarray(c.contributions) for c in explanation.contributors]
    total = np.sum(parts, axis=0) if parts else np.zeros_like(z)
    err = float(np.abs(total - z).max())
    if not err <= 1e-12:
        _fail("explanation contributions miss the logits by %.3g", err)
    if not np.array_equal(explanation.probabilities, probs):
        _fail("explanation probabilities are not bit-identical to forward")
    if explanation.predicted_label != labels[int(np.argmax(probs))]:
        _fail("explanation label %r is not the argmax %r",
              explanation.predicted_label, labels[int(np.argmax(probs))])


def check_training(history, weights, previous_weights):
    """Loss falls over training; a repeated fit gives bit-identical weights."""
    first, last = history[0][0], history[-1][0]
    if not last < first:
        _fail("last epoch mean loss %.6g is not below the first %.6g", last, first)
    if previous_weights is not None and not np.array_equal(weights, previous_weights):
        _fail("a repeated fit of one config gave different weights")


def check_accuracy_floor(accuracy, floor, n_rows, what):
    """Held-out accuracy reaches the acceptance suite's floor for the same data."""
    if not accuracy >= floor:
        _fail("%s held-out accuracy %.4f is below the floor %.2f (%d rows)",
              what, accuracy, floor, n_rows)


def check_evaluation(report, n_rows, recount):
    """evaluate's accuracy equals a recount from forward; confusion sums to n."""
    if int(np.asarray(report.confusion).sum()) != n_rows:
        _fail("confusion matrix sums to %d, expected %d", int(report.confusion.sum()), n_rows)
    if report.accuracy != recount / n_rows:
        _fail("evaluate accuracy %.6g differs from the forward recount %d/%d",
              report.accuracy, recount, n_rows)


def check_cli_output(returncode, stdout, labels, probs):
    """smnn predict exited 0 and printed the in-process forward bit for bit."""
    if returncode != 0:
        _fail("smnn predict exited with %d", returncode)
    doc = json.loads(stdout)
    printed = np.array([doc["probabilities"][name] for name in labels])
    if not np.array_equal(printed, probs):
        _fail("smnn predict printed %s, in-process forward gives %s",
              printed.tolist(), np.asarray(probs).tolist())
    if doc["label"] != labels[int(np.argmax(probs))]:
        _fail("smnn predict label %r is not the argmax", doc["label"])
