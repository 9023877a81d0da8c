"""Sweeps behind the library's cuts, timed as the benchmark runs.

    PYTHONPATH=src python3 scripts/sweep.py build [--repeats 5]
    PYTHONPATH=src python3 scripts/sweep.py locate [--repeats 25]
    PYTHONPATH=src python3 scripts/sweep.py epochs [--repeats 2]
    PYTHONPATH=src python3 scripts/sweep.py query [--repeats 7]

Each sweep runs one BLAS thread, as bench/run.py does, and picks each
support as the benchmark does: the seed-0 farthest-point support of that
many rows of the seed-0 0.75 training split (all distinct rows for None).
A timing is a first call, then the fastest of --repeats warm calls.
Re-run the sweep behind a cut before moving it.

build   set-up as the benchmark calls it (epsilon_for_size, then
        epsilon_representative with its epsilon, fit_space and
        precompute_embeddings), then geometry.build_triangulation stage by
        stage (hull faces, facet planes, cell systems, conditioning, the
        locator), each timed inside the build's own calls, so only the
        stages it ran appear, and whole, first and warm, in ms, on spiral
        15 (no locator) and 95, clusters 1,000, Iris full and the 200-point
        4- and 6-D probes (about 55k cells; --repeats 1 peaks near 290 MB).
locate  INDEX_MIN_CELLS, LOCATOR_MIN_CELLS and SCREEN_MIN_DIM: per call
        size, the us per row of locate_batch through every cell, a forced
        CellIndex and a forced LiftScreen (per batch of queries, the
        held-out rows inside the hull, the fastest warm call; the median
        over up to 30 batches), and the search tri.search picks.  Spiral
        15 and 25 bracket LOCATOR_MIN_CELLS.  Each forced locator must
        first give every query the all-cells cell and coordinate bits.
epochs  training.BATCH_MIN_WIDTH: the cache's rows per row on its busiest
        weight column, which picks the path; the mean level width of the
        first epoch's order at seeds 0-4; the level path's warm fit time
        over the kernel path's (4-100 epochs, both forced, which must train
        the same weights bit for bit); and the path an unforced fit ran.
query   the entry checks of one-row queries: us per call of forward, xi and
        explain on the first held-out row inside the hull of spiral 95,
        clusters 1,000 and Iris full (one-epoch model), the fastest of
        --repeats rounds of 2,000 calls; then load_model of that model's
        saved file, first and warm, in ms.
"""

import os

# One BLAS thread, set before NumPy loads its BLAS.  Unpinned, OpenBLAS
# may start workers for small products whose cost moves with the
# machine's load, and the sweep would time another program than the
# benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import smnn  # noqa: E402
from smnn import geometry, training  # noqa: E402

ROWS = (1, 8, 32, 100, 512)


def spiral():
    return smnn.gen_spiral(400, seed=0)


def clusters(n, rows=2000):
    return lambda: smnn.gen_clusters(rows, n_features=n, class_sep=1.5, seed=0)


BUILD = (("spiral 15", spiral, 15), ("spiral 95", spiral, 95), ("clusters 1,000", clusters(3, 4000), 1000),
         ("Iris full", smnn.load_iris, None), ("4-D probe", clusters(4), 200), ("6-D probe", clusters(6), 200))
LOCATE = tuple(("spiral %d" % size, spiral, size) for size in (5, 9, 15, 25, 95)) + BUILD[2:4]
EPOCHS = (("spiral", spiral, (5, 40, 60, 95, 150)), ("2-D clusters", clusters(2), (50, 75, 100)),
          ("3-D clusters", clusters(3, 4000), (100, 200, 300, 1000)),
          ("4-D clusters", clusters(4), (100, 200)), ("Iris", smnn.load_iris, (60, 80, 112)))


def pick(make, size):
    """The train and test halves of make(), the seed-0 support of `size`
    training points (all distinct ones when None) and its embedding space."""
    train, test = smnn.split(make(), 0.75, seed=0)
    pts = train.points.points
    size = size or len(np.unique(pts, axis=0))
    support = smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, size, 0), 0)
    return train, test, support, smnn.fit_space(pts, support)


SETUP = ("epsilon_for_size", "epsilon_representative", "fit_space", "precompute_embeddings")


def setup(make, size, repeats):
    """The space of pick(make, size) and (call, first s, warm s) rows of
    the set-up calls that built it, made in the benchmark's order once and
    then `repeats` times more."""
    train = smnn.split(make(), 0.75, seed=0)[0]
    pts = train.points.points
    size = size or len(np.unique(pts, axis=0))
    y = smnn.LabelEncoding.from_labels(train.labels).encode(train.labels, len(pts))
    runs = []
    for _ in range(repeats + 1):
        spent = []

        def clocked(call, *args):
            started = time.perf_counter()
            out = call(*args)
            spent.append(time.perf_counter() - started)
            return out

        eps = clocked(smnn.epsilon_for_size, pts, size, 0)
        support = clocked(smnn.epsilon_representative, pts, eps, 0)
        space = clocked(smnn.fit_space, pts, support)
        clocked(smnn.precompute_embeddings, space, pts, y)
        runs.append(spent)
    return space, [(name, first, min(warm, default=np.inf)) for name, first, *warm in zip(SETUP, *runs)]


def timed(call, repeats):
    """call's result, the time of that first call and the fastest of
    `repeats` warm calls after it, in seconds."""
    started = time.perf_counter()
    out = call()
    first, warm = time.perf_counter() - started, np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        warm = min(warm, time.perf_counter() - started)
    return out, first, warm


@contextlib.contextmanager
def patched(module, **values):
    """Constants of module set to values for the duration."""
    kept = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in kept.items():
            setattr(module, name, value)


STAGES = {"_hull_facets": "faces", "_facet_planes": "facet planes", "_cell_systems": "cell systems",
          "_condition": "conditioning", "_cell_index": "locator (index)", "_lift_screen": "locator (screen)"}


def stages(tri, repeats):
    """(stage, first s, warm s) rows of the stages that build_triangulation
    ran on tri's complex, in the order it ran them, then the whole build."""
    spent = {}

    def clocked(name, stage):
        def call(*args):
            started = time.perf_counter()
            out = stage(*args)
            spent.setdefault(name, []).append(time.perf_counter() - started)
            return out
        return call

    with patched(geometry, **{f: clocked(name, getattr(geometry, f)) for f, name in STAGES.items()}):
        _, first, warm = timed(lambda: geometry.build_triangulation(tri.cloud, tri.simplices), repeats)
    return [(name, t[0], min(t[1:], default=np.inf)) for name, t in spent.items()] + [
        ("build_triangulation", first, warm)]


def located(tri, queries):
    """The cells of all queries and the bytes of their coordinates, located
    ROWS[-1] rows a call through tri.index, whatever the rule would pick."""
    with patched(geometry, INDEX_MIN_CELLS=0):
        calls = [geometry.locate_batch(tri, queries[a:a + ROWS[-1]])
                 for a in range(0, len(queries), ROWS[-1])]
    return [s for cells, _ in calls for s in cells], b"".join(np.asarray(c).tobytes() for _, c in calls)


def per_row(tri, queries, rows, repeats):
    """Median over batches of `rows` queries of each batch's fastest warm
    call through tri.index, in us per row."""
    batches = max(3, min(30, 240 // rows))
    calls = max(3, repeats // (1 + rows // 32))
    at = (np.arange(batches * rows) % len(queries)).reshape(batches, rows)
    with patched(geometry, INDEX_MIN_CELLS=0):
        best = [timed(lambda b=b: geometry.locate_batch(tri, queries[b]), calls)[2] for b in at]
    return 1e6 * float(np.median(best)) / rows


def locate_rows(make, size, repeats):
    """The complex of one support, and per call size in ROWS the us per row
    through every cell, a CellIndex and a LiftScreen, and tri.search's pick."""
    _, test, _, space = pick(make, size)
    tri = space.tri
    held = test.points.points - space.centroid
    queries = np.array([x for x in held if smnn.locate(tri, x) is not None])
    paths = [dataclasses.replace(tri, index=None)]
    for min_dim in (tri.cloud.dim + 1, 0):
        with patched(geometry, LOCATOR_MIN_CELLS=0, SCREEN_MIN_DIM=min_dim):
            index = geometry.build_triangulation(tri.cloud, tri.simplices).index
        paths.append(dataclasses.replace(tri, index=index))
    want = located(paths[0], queries)
    for path in paths[1:]:
        if located(path, queries) != want:
            sys.exit("sweep: a forced %s locates otherwise than every cell" % path.locator)
    return tri, [(rows, [per_row(path, queries, rows, repeats) for path in paths], tri.search(rows))
                 for rows in ROWS]


def epoch_row(make, size, repeats):
    """(support, rows, rows per busiest column, least and largest mean level
    width at seeds 0-4, level / kernel fit time, the path the cut picks)."""
    train, _, support, space = pick(make, size)
    pts = train.points.points
    encoding = smnn.LabelEncoding.from_labels(train.labels)
    y = encoding.encode(train.labels, len(pts))
    cached = smnn.precompute_embeddings(space, pts, y)
    n_rows, k, m = len(pts), encoding.k, space.support.size
    uses = np.bincount(cached.batch.indices, minlength=m)
    rows = training._level_rows(cached.batch, y, k, m, uses)
    widths = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        # train_cached draws the initial weights before the first order.
        smnn.init_weights("uniform01", rng, k, m)
        widths.append(n_rows / training._levels(rng.permutation(n_rows), rows)[1].max(initial=1))
    inputs = (space, cached, y[np.asarray(support)], encoding)
    config = smnn.TrainConfig(epochs=int(np.clip(30000 // n_rows, 4, 100)))
    fits = []
    for min_width in (0, n_rows + 1):
        with patched(training, BATCH_MIN_WIDTH=min_width):
            fits.append(timed(lambda: smnn.train_cached(*inputs, config), repeats))
    (level, _, level_s), (kernel, _, kernel_s) = fits
    if level[0].weights.tobytes() != kernel[0].weights.tobytes():
        sys.exit("sweep: the level and kernel paths train different weights")
    ran = smnn.train_cached(*inputs, dataclasses.replace(config, epochs=1))[1]
    return (len(support), n_rows, n_rows / uses.max(), min(widths), max(widths), level_s / kernel_s,
            "level" if ran.n_batches < ran.n_steps else "kernel")


def query_row(make, size, repeats):
    """us per call of forward, xi and explain on the first held-out row
    inside the hull, each the fastest of `repeats` rounds of 2,000 calls,
    then the first and fastest warm load_model of the saved model, in ms."""
    train, test, support, _ = pick(make, size)
    model = smnn.train(train.points.points, train.labels, support, smnn.TrainConfig(epochs=1))[0]
    space = model.space
    x = next(x for x in test.points.points if smnn.locate(space.tri, x - space.centroid) is not None)
    runs = (lambda: smnn.forward(model, x), lambda: smnn.xi(space, x), lambda: smnn.explain(model, x))
    calls = [1e6 * min(timeit.repeat(run, number=2000, repeat=repeats)) / 2000 for run in runs]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        smnn.save_model(model, path)
        _, first, warm = timed(lambda: smnn.load_model(path), repeats)
    return calls + [1e3 * first, 1e3 * warm]


def build(repeats):
    for name, make, size in BUILD:
        space, calls = setup(make, size, repeats)
        tri = space.tri
        print("%s: %d-D, %d cells" % (name, tri.cloud.dim, tri.simplices.shape[0]))
        print("  %-22s %10s %10s" % ("call or stage", "first ms", "warm ms"))
        for stage, first, warm in calls + stages(tri, repeats):
            print("  %-22s %10.2f %10.2f" % (stage, 1e3 * first, 1e3 * warm), flush=True)


def locate(repeats):
    print("%-15s %6s %2s %4s | %-32s | %5s" % (
        "complex", "cells", "n", "rows", "us per row: cells / index / lift", "picks"))
    for name, make, size in LOCATE:
        tri, lines = locate_rows(make, size, repeats)
        for rows, costs, picks in lines:
            print("%-15s %6d %2d %4d | %s | %5s" % (
                name, tri.simplices.shape[0], tri.cloud.dim, rows,
                " / ".join("%9.2f" % c for c in costs), picks), flush=True)


def epochs(repeats):
    print("%-13s %7s %5s %13s %12s %13s %6s" % (
        "data", "support", "rows", "rows/busiest", "level width", "level/kernel", "picks"))
    for name, make, sizes in EPOCHS:
        for size in sizes:
            row = (name,) + epoch_row(make, size, repeats)
            print("%-13s %7d %5d %13.1f %5.1f-%-6.1f %13.2f %6s" % row, flush=True)


def query(repeats):
    print("%-15s %10s %10s %10s %13s %12s" % (
        "support", "forward us", "xi us", "explain us", "load first ms", "load warm ms"))
    for name, make, size in BUILD[1:4]:
        print("%-15s %10.2f %10.2f %10.2f %13.2f %12.2f" % (name, *query_row(make, size, repeats)), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sweeps = parser.add_subparsers(dest="sweep", required=True)
    for sweep, repeats in ((build, 5), (locate, 25), (epochs, 2), (query, 7)):
        sub = sweeps.add_parser(sweep.__name__)
        sub.add_argument("--repeats", type=int, default=repeats, help="default %d" % repeats)
        sub.set_defaults(run=sweep)
    args = parser.parse_args(argv)
    args.run(args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
