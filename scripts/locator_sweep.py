"""Sweep behind geometry.INDEX_MIN_CELLS and SCREEN_MIN_DIM: which point
locator is faster where.

    PYTHONPATH=src python3 scripts/locator_sweep.py [--repeats 25]

For each benchmark support (picked as the benchmark picks them at seed 0)
and the 6-D probe of the ROADMAP, it builds the complex once and each of
the three locators on it: the all-cells kernel (index None), a CellIndex
and a LiftScreen, the last two built by build_triangulation with the rule
forced and swapped in with dataclasses.replace(tri, index=...).  Queries
are the held-out rows inside the hull.  It prints the complex's cells and
dimension, then per locator the cost in us of a one-row locate_batch call
(the median over up to 30 rows of each row's fastest of --repeats calls)
and per row of a 512-row call (the fastest of --repeats // 5 calls), and
the locator the rule picks.  The all-cells kernel holds (rows, cells,
n+1) coordinates at once, so its batch shrinks to stay near 2**24 of
them; the row count is printed.  Re-run it before moving either cut.
"""

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import smnn  # noqa: E402
from smnn import geometry  # noqa: E402

BATCH = 512

CASES = (
    ("spiral 5", lambda: smnn.gen_spiral(400, seed=0), 5),
    ("spiral 9", lambda: smnn.gen_spiral(400, seed=0), 9),
    ("spiral 95", lambda: smnn.gen_spiral(400, seed=0), 95),
    ("clusters 1,000", lambda: smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), 1000),
    ("Iris full", smnn.load_iris, None),
    ("6-D probe", lambda: smnn.gen_clusters(2000, n_features=6, class_sep=1.5, seed=0), 200),
)


def forced(tri, min_dim):
    """The locator build_triangulation makes for tri at any cell count: a
    CellIndex below min_dim dimensions, a LiftScreen from there on."""
    kept = geometry.INDEX_MIN_CELLS, geometry.SCREEN_MIN_DIM
    geometry.INDEX_MIN_CELLS, geometry.SCREEN_MIN_DIM = 0, min_dim
    try:
        return geometry.build_triangulation(tri.cloud, tri.simplices).index
    finally:
        geometry.INDEX_MIN_CELLS, geometry.SCREEN_MIN_DIM = kept


def fastest(call, repeats):
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=25, help="calls per one-row timing (default 25)")
    args = parser.parse_args(argv)

    print("%-15s %6s %2s | %-25s | %-33s | %5s" % (
        "complex", "cells", "n", "one row: cells/index/lift", "per row in a batch: cells/index/lift", "picks"))
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
        locators = {
            "cells": dataclasses.replace(tri, index=None),
            "index": dataclasses.replace(tri, index=forced(tri, n + 1)),
            "lift": dataclasses.replace(tri, index=forced(tri, 0)),
        }
        one, per_row, rows = [], [], {}
        for kind, located in locators.items():
            single = [fastest(lambda x=x: geometry.locate_batch(located, x[None]), args.repeats)
                      for x in queries[:30]]
            one.append(1e6 * float(np.median(single)))
            rows[kind] = BATCH if kind != "cells" else max(1, min(BATCH, (1 << 24) // (cells * (n + 1))))
            batch = queries[np.arange(rows[kind]) % len(queries)]
            per_row.append(1e6 * fastest(lambda: geometry.locate_batch(located, batch),
                                         max(1, args.repeats // 5)) / rows[kind])
        note = "" if rows["cells"] == BATCH else "  (cells batch: %d rows)" % rows["cells"]
        print("%-15s %6d %2d | %7.1f / %7.1f / %7.1f | %9.1f / %9.1f / %9.1f | %5s%s" % (
            name, cells, n, *one, *per_row, tri.locator, note), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
