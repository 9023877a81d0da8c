"""Shared fixtures: the worked square example, random-cloud helpers and the
geometric oracles (circumspheres, normalized volumes) that tests check the
triangulation against.  The suite runs with one BLAS thread, as
bench/run.py and scripts/sweep.py do, so that its timed gates read the
machine's load less; the variables act only when NumPy first loads."""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("NumPy was imported before tests/conftest.py could pin one BLAS thread")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

import smnn  # noqa: E402
from smnn.embedding import EmbeddingBatch, translate_queries  # noqa: E402
from smnn.errors import InvalidCount  # noqa: E402
from smnn.geometry import COND_LIMIT, TAU  # noqa: E402
from smnn.model import LOSS_FLOOR, init_weights, logits  # noqa: E402
from smnn.training import EvalReport  # noqa: E402

# Property tests draw the same examples on every run; hypothesis's own
# --hypothesis-profile option selects another registered profile.
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")

# The four raw square points used across modules, in fixed row order, with
# binary labels; queries (0.75, 0.6) and (0.75, 1.25) have hand-derived
# embeddings (0.3/0.2/0.5 interior scatter; 1/3+1/3 plus 1/3 sphere mass).
SQUARE_POINTS = np.array([[0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [1.0, 1.0]])
SQUARE_LABELS = ["0", "0", "1", "1"]

# Margin that makes the bounding radius exactly 1 for the square.
SQUARE_MARGIN = 1.0 - float(np.sqrt(0.125))

# File contents that decode as no JSON document: a lone brace, bytes that
# are not UTF-8 (a UTF-16 byte-order mark), nesting deeper than the JSON
# parser recurses, and a cell longer than the csv module's field limit.
# The second and the last are not UTF-8 CSV text either.
UNDECODABLE = {
    "brace": b"{", "not-utf-8": b"\xff\xfe\x00", "deep": b"[" * 100_000, "long-cell": b"x" * 200_000,
}


@pytest.fixture
def square_space():
    return smnn.fit_space(SQUARE_POINTS, [0, 1, 2, 3], radius_margin=SQUARE_MARGIN)


@pytest.fixture
def square_model(square_space):
    encoding = smnn.LabelEncoding.from_labels(SQUARE_LABELS)
    y = np.array([encoding.index(v) for v in SQUARE_LABELS])
    weights = smnn.init_weights("one_hot", 0, 2, 4, y)
    return smnn.SmnnModel(
        space=square_space, encoding=encoding, weights=weights, support_labels=y
    )


def random_cloud(rng, m, n, spread=1.0):
    """Generic position cloud; uniform box keeps conditioning reasonable."""
    return spread * rng.random((m, n))


def jittered_grid(rng, per_side, n, jitter=0.05):
    """Grid plus small jitter: well-conditioned simplices for continuity tests."""
    axes = [np.arange(per_side, dtype=float) for _ in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    return grid + jitter * (rng.random(grid.shape) - 0.5)


def simplex_volume_normalized(vertices):
    """Volume of the simplex after scaling its edge matrix to unit size.

    Zero for affinely dependent vertices.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    edges = verts[1:] - verts[0]
    scale = np.abs(edges).max()
    if scale == 0.0:
        return 0.0
    det = np.linalg.det(edges / scale)
    return abs(det) / math.factorial(edges.shape[0])


def circumsphere(vertices):
    """Circumcenter and squared radius of a full-dimensional simplex.

    Solves the linear system equating squared distances to all vertices.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    n = verts.shape[1]
    if verts.shape[0] != n + 1:
        raise ValueError("expected n+1 vertices, got shape %s" % (verts.shape,))
    amat = 2.0 * (verts[1:] - verts[0])
    if np.linalg.cond(amat) > COND_LIMIT:
        raise smnn.SingularSimplex("circumsphere system condition number exceeds %g" % COND_LIMIT)
    rhs = np.einsum("ij,ij->i", verts[1:], verts[1:]) - verts[0] @ verts[0]
    center = np.linalg.solve(amat, rhs)
    radius_sq = float(np.sum((verts[0] - center) ** 2))
    return center, radius_sq


def circumsphere_contains(vertices, q, tol=1e-7):
    """True when q lies strictly inside the circumsphere of the simplex.

    The comparison is relative: containment requires the squared distance
    to fall below (1 - tol) times the squared circumradius.
    """
    center, radius_sq = circumsphere(vertices)
    dist_sq = float(np.sum((np.asarray(q, dtype=np.float64) - center) ** 2))
    return dist_sq < radius_sq * (1.0 - tol)


# The row-major farthest-point traversal that the coordinate-major step of
# sampling._farthest_points must reproduce bit for bit.


def _reference_tie_argmax(values, rng):
    """Index of the maximum; exact ties are broken by the seeded rng."""
    ties = np.nonzero(values == values.max())[0]
    if ties.size == 1:
        return int(ties[0])
    return int(rng.choice(ties))


def reference_order(points, seed=0):
    """(order, radii) of the greedy traversal, one row-major norm per step."""
    pts = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    start = _reference_tie_argmax(-np.linalg.norm(pts - pts.mean(axis=0), axis=1), rng)
    dists = np.linalg.norm(pts - pts[start], axis=1)
    order, radii = [start], [float(dists.max())]
    for _ in range(pts.shape[0] - 1):
        nxt = _reference_tie_argmax(dists, rng)
        np.minimum(dists, np.linalg.norm(pts - pts[nxt], axis=1), out=dists)
        order.append(nxt)
        radii.append(float(dists.max()))
    return np.array(order, dtype=np.int64), np.array(radii)


# The one-vector softmax, the NumPy SGD step that the training kernel must
# reproduce bit for bit, the training loop of train_cached around it, and
# the per-row evaluate that the array scoring of evaluate must reproduce.


def reference_softmax(z):
    """Softmax of one logit vector, shifted by its max."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _residual(weights, cols, vals, y_index):
    """Probabilities s of one sample and the logit gradient s - e_y."""
    s = reference_softmax(weights[:, cols] @ vals)
    g = s.copy()
    g[y_index] -= 1.0
    return s, g


def numpy_step(weights, cols, vals, y_index, eta):
    """One in-place SGD update; returns the pre-update loss and hit flag."""
    s, g = _residual(weights, cols, vals, y_index)
    step_loss = -np.log(max(s[y_index], LOSS_FLOOR))
    hit = s.argmax() == y_index
    weights[:, cols] -= eta * (g[:, None] * vals)
    return float(step_loss), hit


def numpy_train(space, cached, support_labels, encoding, config):
    """Weights and history of train_cached, computed with numpy_step."""
    k = encoding.k
    m = space.support.size
    rng = np.random.default_rng(config.seed)
    weights = init_weights(config.init_mode, rng, k, m, support_labels)

    cols_list = [np.asarray(x.indices, dtype=np.int64) for x in cached.xis]
    vals_list = [np.asarray(x.values, dtype=np.float64) for x in cached.xis]
    y = cached.y
    n_rows = len(cached)
    eta = config.learning_rate

    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n_rows) if config.shuffle else np.arange(n_rows)
        total = 0.0
        hits = 0
        for i in order:
            step_loss, hit = numpy_step(weights, cols_list[i], vals_list[i], y[i], eta)
            total += step_loss
            hits += hit
        history.append((total / n_rows, hits / n_rows))
    return weights, history


def batch_of(xis):
    """The EmbeddingBatch of a list of SparseXi rows, facets left at -1:
    the record that _pack and _level_rows read."""
    return EmbeddingBatch(
        indptr=np.concatenate([[0], np.cumsum([len(x.indices) for x in xis])]).astype(np.int64),
        indices=np.concatenate([np.asarray(x.indices, dtype=np.int64) for x in xis]),
        values=np.concatenate([np.asarray(x.values, dtype=np.float64) for x in xis]),
        sphere_mass=np.array([x.sphere_mass for x in xis], dtype=np.float64),
        facet=np.full((len(xis), 1), -1),
    )


def same_bits(a, b):
    """Whether two SparseXi have the same field bits."""
    return (
        np.asarray(a.indices).tobytes() == np.asarray(b.indices).tobytes()
        and np.asarray(a.values).tobytes() == np.asarray(b.values).tobytes()
        and np.float64(a.sphere_mass).tobytes() == np.float64(b.sphere_mass).tobytes()
        and a.facet_used == b.facet_used
    )


def reference_evaluate(model, points, labels):
    """EvalReport of evaluate, scoring one row at a time.  Each row in the
    ball is embedded by xi, which builds no EmbeddingBatch; a row that no
    virtual simplex contains is a miss."""
    pts = np.asarray(
        points.points if hasattr(points, "points") else points, dtype=np.float64
    )
    translated, in_ball = translate_queries(model.space, pts)
    if not in_ball.size:
        raise InvalidCount("cannot evaluate a set with no rows")
    inside = np.nonzero(in_ball)[0]
    labels = [str(v) for v in labels]
    if len(labels) != pts.shape[0]:
        raise ValueError("labels and points disagree")
    y = np.array([model.encoding.index(v) for v in labels], dtype=np.int64)
    k = model.encoding.k

    confusion = np.zeros((k, k), dtype=np.int64)
    total_loss = 0.0
    hits = 0
    n_virtual = 0
    n_missing = 0
    for row in inside:
        try:
            x = smnn.xi(model.space, pts[row])
        except smnn.NoContainingVirtualSimplex:
            n_missing += 1
            continue
        probs = reference_softmax(logits(model, x))
        pred = int(np.argmax(probs))
        confusion[y[row], pred] += 1
        hits += pred == y[row]
        total_loss += -np.log(max(probs[y[row]], LOSS_FLOOR))
        n_virtual += x.facet_used is not None
    n_rows = pts.shape[0]
    n_outside = n_rows - inside.size
    total_loss += (n_outside + n_missing) * np.log(k)

    return EvalReport(
        accuracy=hits / n_rows,
        mean_loss=float(total_loss / n_rows),
        confusion=confusion,
        n_out_of_hull=n_virtual,
        n_outside_ball=n_outside,
        n_no_virtual_simplex=n_missing,
    )


# The one-row exterior route that embedding._virtual_simplices replaced: a
# solve for every visible facet, with the winner and tie rules spelled out.


def reference_xi_outside(space, x):
    """Raw coordinates on (w, facet vertices) and the facet ids of the
    virtual simplex of a translated point x outside the hull, or None when
    none contains x within TAU or x has no sphere point.  Every facet with
    N.x + c > 0 is solved; the largest minimum coordinate wins, ties going
    to the lowest facet."""
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:
        return None
    w = space.radius * x / norm
    visible = np.nonzero(space.tri.normals @ x + space.tri.offsets > 0.0)[0]
    ids = space.tri.facets[visible]
    n = x.size
    tmat = np.ones((visible.size, n + 1, n + 1))
    tmat[:, :n, 0] = w
    tmat[:, :n, 1:] = np.transpose(space.support.points[ids], (0, 2, 1))
    rhs = np.broadcast_to(np.append(x, 1.0), (visible.size, n + 1))
    coords = np.linalg.solve(tmat, rhs[..., None])[..., 0]
    low = coords.min(axis=1, initial=np.inf)
    if not (low >= -TAU).any():
        return None
    best = int(np.argmax(low))
    return coords[best], ids[best]


def _acceptance_lines():
    return _ACCEPTANCE_LINES


_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_record():
    def record(line):
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
