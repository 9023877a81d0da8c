"""Shared fixtures: the worked square example and random-cloud helpers."""

import numpy as np
import pytest
from hypothesis import settings

import smnn

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
