"""Where geometry.build_triangulation spends its time, stage by stage.

    PYTHONPATH=src python3 scripts/complex_build_sweep.py [--repeats 5]

For each complex (the seed-0 benchmark supports spiral 95, clusters 1,000
and Iris full, and the 200-point seed-0 supports of 4- and 6-D
gen_clusters probes), it builds the embedding space once as the benchmark
does and then times each stage of build_triangulation on that complex's
cloud and cells, in the order the function runs them: hull faces, facet
planes, cell systems, conditioning (the inverses, by slogdet and inv,
and the bound on each condition number) and the locator (a CellIndex or
a LiftScreen).  The first column is each stage's first call on the
complex, the second the fastest of --repeats warm calls, in ms; the last
row is the whole build_triangulation call, timed the same way, and each
complex's header gives its cell count.  The 6-D complex has about 55k
cells; a run with --repeats 1 peaked at about 290 MB.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import smnn  # noqa: E402
from smnn import geometry  # noqa: E402

CASES = (
    ("spiral 95", lambda: smnn.gen_spiral(400, seed=0), 95),
    ("clusters 1,000", lambda: smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), 1000),
    ("Iris full", smnn.load_iris, None),
    ("4-D probe", lambda: smnn.gen_clusters(2000, n_features=4, class_sep=1.5, seed=0), 200),
    ("6-D probe", lambda: smnn.gen_clusters(2000, n_features=6, class_sep=1.5, seed=0), 200),
)


def complex_of(data, size):
    """The complex of the seed-0 support of `size` points (all distinct
    points when None), built as fit_space builds it."""
    pts = smnn.split(data, 0.75, seed=0)[0].points.points
    size = size or len(np.unique(pts, axis=0))
    eps = smnn.epsilon_for_size(pts, size, 0)
    return smnn.fit_space(pts, smnn.epsilon_representative(pts, eps, 0)).tri


def timed(call, repeats):
    """The result of call, its first time and its fastest warm time, in ms."""
    started = time.perf_counter()
    out = call()
    first = time.perf_counter() - started
    warm = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        warm = min(warm, time.perf_counter() - started)
    return out, 1e3 * first, 1e3 * warm


def stages(tri, repeats):
    """(stage, first ms, warm ms) rows of one complex."""
    points, simp = tri.cloud.points, tri.simplices
    n = points.shape[1]
    rows = []

    def run(name, call):
        out, first, warm = timed(call, repeats)
        rows.append((name, first, warm))
        return out

    facets, opposite = run("faces", lambda: geometry._hull_facets(simp, n))
    run("facet planes", lambda: geometry._facet_planes(points, facets, opposite))
    tmat = run("cell systems", lambda: geometry._cell_systems(points, simp))
    inverses, kappa = run("conditioning", lambda: geometry._condition(tmat))
    usable = kappa < geometry.COND_LIMIT
    inverses[~usable] = np.nan
    delta = geometry._coordinate_slack(kappa, n)
    if n < geometry.SCREEN_MIN_DIM:
        run("locator (index)", lambda: geometry._cell_index(points, simp, delta, usable))
    else:
        run("locator (screen)", lambda: geometry._lift_screen(points, simp, delta, inverses, usable))
    run("build_triangulation", lambda: geometry.build_triangulation(tri.cloud, simp))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    for name, data, size in CASES:
        tri = complex_of(data(), size)
        rows = stages(tri, args.repeats)
        print("%s: %d-D, %d cells" % (name, tri.cloud.dim, tri.simplices.shape[0]))
        print("  %-20s %10s %10s" % ("stage", "first ms", "warm ms"))
        for stage, first, warm in rows:
            print("  %-20s %10.2f %10.2f" % (stage, first, warm))


if __name__ == "__main__":
    main()
