"""Smoke test of scripts/sweep.py, the harness behind the library's cuts.

One repeat on spiral supports 9 and 95 (and 15 for the set-up and stage
timers) runs the body of each sweep: the set-up timer, the stage timer,
the per-row location timing of the three searches, the epoch-path ratio
and the one-row query timing.
The harness reads private names of smnn.geometry and smnn.training, so
renaming one fails here rather than in the next re-run.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import smnn
from smnn import geometry, training

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "sweep.py")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BEFORE = {var: os.environ.get(var) for var in PINNED}
CUTS = {module: {name: getattr(module, name) for name in names} for module, names in (
    (geometry, ("INDEX_MIN_CELLS", "LOCATOR_MIN_CELLS", "SCREEN_MIN_DIM")), (training, ("BATCH_MIN_WIDTH",)))}


@pytest.fixture(scope="module")
def sweep():
    """The harness as a module, with the variables it pins and the path it
    adds restored, so later tests run in the environment they had."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def assert_cuts_restored():
    for module, values in CUTS.items():
        assert {name: getattr(module, name) for name in values} == values


def test_pins_one_blas_thread_before_numpy_loads():
    # A fresh interpreter records the variables at NumPy's first import.
    probe = "\n".join([
        "import json, os, sys",
        "seen = {}",
        "class Watch:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name == 'numpy' and not seen:",
        "            seen.update((var, os.environ.get(var)) for var in %r)" % (PINNED,),
        "sys.meta_path.insert(0, Watch())",
        "sys.path.insert(0, %r)" % os.path.dirname(SCRIPT),
        "import sweep",
        "print(json.dumps(seen))",
    ])
    env = dict(os.environ, **{var: "4" for var in PINNED})
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {var: "1" for var in PINNED}


def test_leaves_the_environment_as_it_was(sweep):
    assert {var: os.environ.get(var) for var in PINNED} == BEFORE


def test_reads_only_names_that_exist(sweep):
    # The smoke runs below take the 2-D branches; this covers the others.
    with open(SCRIPT) as f:
        source = f.read()
    for module in (geometry, training):
        names = set(re.findall(r"\b%s\.(\w+)" % module.__name__.rsplit(".", 1)[-1], source))
        assert names and [name for name in sorted(names) if not hasattr(module, name)] == []


@pytest.mark.parametrize("size", [9, 15, 95])
def test_stage_timer(sweep, size):
    # The rows are the stages the build ran: the 8 and 18 cells of spiral
    # supports 9 and 15 are below LOCATOR_MIN_CELLS and carry no locator.
    stage_functions = {name: getattr(geometry, name) for name in sweep.STAGES}
    tri = sweep.pick(sweep.spiral, size)[3].tri
    rows = sweep.stages(tri, 1)
    locator = {9: [], 15: [], 95: ["locator (index)"]}[size]
    assert (tri.index is not None) == bool(locator)
    assert [name for name, _, _ in rows] == [
        "faces", "facet planes", "cell systems", "conditioning", *locator, "build_triangulation"]
    assert all(0 < first < np.inf and 0 < warm < np.inf for _, first, warm in rows)
    assert {name: getattr(geometry, name) for name in sweep.STAGES} == stage_functions


def test_setup_timer(sweep, monkeypatch):
    # The set-up calls run in the benchmark's order, and the space they
    # build is the one pick builds; the pair walks once a repeat.
    walks = []
    farthest = smnn.sampling._farthest_points
    monkeypatch.setattr(smnn.sampling, "_farthest_points", lambda *args: walks.append(1) or farthest(*args))
    space, rows = sweep.setup(sweep.spiral, 15, 1)
    assert [name for name, _, _ in rows] == list(sweep.SETUP)
    assert all(0 < first < np.inf and 0 < warm < np.inf for _, first, warm in rows)
    assert walks == [1, 1]
    assert space.tri.simplices.tobytes() == sweep.pick(sweep.spiral, 15)[3].tri.simplices.tobytes()


@pytest.mark.parametrize("size", [9, 95])
def test_location_timing(sweep, size):
    tri, lines = sweep.locate_rows(sweep.spiral, size, 1)
    assert [rows for rows, _, _ in lines] == list(sweep.ROWS)
    assert all(len(costs) == 3 and 0 < min(costs) and max(costs) < np.inf for _, costs, _ in lines)
    assert [picks for _, _, picks in lines] == [tri.search(rows) for rows in sweep.ROWS]
    assert_cuts_restored()


@pytest.mark.parametrize("size", [9, 95])
def test_epoch_path_ratio(sweep, size):
    support, rows, busiest, low, high, ratio, picks = sweep.epoch_row(sweep.spiral, size, 1)
    assert (support, rows) == (size, 300)
    # The rows on the busiest column bound every order's mean level width.
    assert 1 <= low <= high <= busiest
    assert 0 < ratio < np.inf
    assert picks == ("level" if busiest >= training.BATCH_MIN_WIDTH else "kernel")
    assert_cuts_restored()


def test_query_timing(sweep):
    times = sweep.query_row(sweep.spiral, 95, 1)
    assert len(times) == 3 and all(0 < t < np.inf for t in times)


def test_a_locator_that_disagrees_stops_the_sweep(sweep, monkeypatch):
    pairs = geometry.CellIndex.pairs
    monkeypatch.setattr(geometry.CellIndex, "pairs", lambda self, h: tuple(a[:0] for a in pairs(self, h)))
    with pytest.raises(SystemExit, match="forced index locates otherwise"):
        sweep.locate_rows(sweep.spiral, 9, 1)
    assert_cuts_restored()


def test_epoch_paths_that_disagree_stop_the_sweep(sweep, monkeypatch):
    kernel = training._kernel

    def nudged(flat, fidx, *rest):
        probs = kernel(flat, fidx, *rest)
        flat[fidx[0, 0]] += 1e-3
        return probs

    monkeypatch.setattr(training, "_kernel", nudged)
    with pytest.raises(SystemExit, match="different weights"):
        sweep.epoch_row(lambda: smnn.gen_spiral(40, seed=0), 5, 1)
    assert_cuts_restored()
