"""Sweep behind geometry.INDEX_MIN_CELLS, LOCATOR_MIN_CELLS and
SCREEN_MIN_DIM: which point location path is faster at which rows per
call.

    PYTHONPATH=src python3 scripts/locator_sweep.py [--repeats 25]

For each benchmark support (picked as the benchmark picks them at seed 0)
and spiral supports 15 and 25, whose 18 and 35 cells bracket
LOCATOR_MIN_CELLS, it builds the complex once and each of the three
search paths on it: the all-cells kernel (index None), a
CellIndex and a LiftScreen, the last two built by build_triangulation
with the rules forced and swapped in with dataclasses.replace(tri,
index=...).  Queries are the held-out rows inside the hull.  For each
call size in ROWS it prints the cost in us per row of a locate_batch call
through each path (per batch of that many rows cycled from the queries,
the fastest of up to --repeats calls; the median over up to 30 batches),
then the path that tri.search picks for that many rows.  The all-cells
kernel holds (rows, cells, n+1) coordinates at once, about 100 MB for
512 rows on clusters 1,000.  Re-run it before moving any of the cuts.
"""

import argparse
import contextlib
import dataclasses
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import smnn  # noqa: E402
from smnn import geometry  # noqa: E402

ROWS = (1, 8, 32, 100, 512)

CASES = (
    ("spiral 5", lambda: smnn.gen_spiral(400, seed=0), 5),
    ("spiral 9", lambda: smnn.gen_spiral(400, seed=0), 9),
    ("spiral 15", lambda: smnn.gen_spiral(400, seed=0), 15),
    ("spiral 25", lambda: smnn.gen_spiral(400, seed=0), 25),
    ("spiral 95", lambda: smnn.gen_spiral(400, seed=0), 95),
    ("clusters 1,000", lambda: smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), 1000),
    ("Iris full", smnn.load_iris, None),
)


@contextlib.contextmanager
def patched(**values):
    """Module constants of geometry set to values for the duration."""
    kept = {name: getattr(geometry, name) for name in values}
    for name, value in values.items():
        setattr(geometry, name, value)
    try:
        yield
    finally:
        for name, value in kept.items():
            setattr(geometry, name, value)


def forced(tri, min_dim):
    """The locator build_triangulation makes for tri at any cell count: a
    CellIndex below min_dim dimensions, a LiftScreen from there on."""
    with patched(LOCATOR_MIN_CELLS=0, SCREEN_MIN_DIM=min_dim):
        return geometry.build_triangulation(tri.cloud, tri.simplices).index


def fastest(call, repeats):
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def per_row(tri, queries, rows, repeats):
    """Median over batches of rows queries of each batch's fastest call, in
    us per row.  Every call searches through tri.index (the all-cells
    kernel when it is None), whatever the rule would pick."""
    batches = max(3, min(30, 240 // rows))
    calls = max(3, repeats // (1 + rows // 32))
    at = np.arange(batches * rows) % len(queries)
    with patched(INDEX_MIN_CELLS=0):
        best = [fastest(lambda b=b: geometry.locate_batch(tri, queries[b]), calls) for b in at.reshape(batches, rows)]
    return 1e6 * float(np.median(best)) / rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=25, help="calls per one-row batch (default 25)")
    args = parser.parse_args(argv)

    print("%-15s %6s %2s %4s | %-32s | %5s" % (
        "complex", "cells", "n", "rows", "us per row: cells / index / lift", "picks"))
    for name, make, size in CASES:
        train, test = smnn.split(make(), 0.75, seed=0)
        pts = train.points.points
        size = size or len(np.unique(pts, axis=0))
        support = smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, size, 0), 0)
        space = smnn.fit_space(pts, support)
        tri = space.tri
        held = test.points.points - space.centroid
        queries = np.array([x for x in held if smnn.locate(tri, x) is not None])
        cells, n = tri.simplices.shape[0], tri.cloud.dim
        paths = (
            dataclasses.replace(tri, index=None),
            dataclasses.replace(tri, index=forced(tri, n + 1)),
            dataclasses.replace(tri, index=forced(tri, 0)),
        )
        for rows in ROWS:
            costs = ["%9.2f" % per_row(path, queries, rows, args.repeats) for path in paths]
            print("%-15s %6d %2d %4d | %s | %5s" % (
                name, cells, n, rows, " / ".join(costs), tri.search(rows)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
