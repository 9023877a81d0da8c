"""Sweep behind training.BATCH_MIN_WIDTH: which epoch path is faster where.

    PYTHONPATH=src python3 scripts/epoch_path_sweep.py [--repeats 2]

For each case (data set and support size, supports picked as the
benchmark picks them at seed 0) it prints the cache's rows per row on its
busiest weight column, the number train_cached picks its path by; the
range of the mean level width (rows over levels) of the first epoch's
order at training seeds 0-4; the ratio of the level path's fit time to
the kernel path's, each the minimum of --repeats in-process train_cached
calls with the path forced through BATCH_MIN_WIDTH; and the path the
current cut picks.  A ratio below 1 means the level path is faster.
Re-run it before moving the cut.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import smnn  # noqa: E402
from smnn import training  # noqa: E402

CASES = (
    ("spiral", lambda: smnn.gen_spiral(400, seed=0), (5, 40, 60, 95, 150)),
    ("2-D clusters", lambda: smnn.gen_clusters(2000, n_features=2, class_sep=1.5, seed=0), (50, 75, 100)),
    ("3-D clusters", lambda: smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), (100, 200, 300, 1000)),
    ("4-D clusters", lambda: smnn.gen_clusters(2000, n_features=4, class_sep=1.5, seed=0), (100, 200)),
    ("Iris", smnn.load_iris, (60, 80, 112)),
)


def fit_time(inputs, config, min_width, repeats):
    """Least wall time of train_cached with BATCH_MIN_WIDTH set to min_width."""
    kept = training.BATCH_MIN_WIDTH
    training.BATCH_MIN_WIDTH = min_width
    try:
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            smnn.train_cached(*inputs, config)
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        training.BATCH_MIN_WIDTH = kept


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=2, help="in-process fits per path (default 2)")
    args = parser.parse_args(argv)

    print("%-13s %7s %5s %13s %12s %13s %6s" % (
        "data", "support", "rows", "rows/busiest", "level width", "level/kernel", "picks"))
    for name, make, sizes in CASES:
        train = smnn.split(make(), 0.75, seed=0)[0]
        pts = train.points.points
        encoding = smnn.LabelEncoding.from_labels(train.labels)
        y = encoding.encode(train.labels, len(pts))
        n_rows = len(pts)
        epochs = int(np.clip(30000 // n_rows, 4, 100))
        for size in sizes:
            support = smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, size, 0), 0)
            space = smnn.fit_space(pts, support)
            cached = smnn.precompute_embeddings(space, pts, y)
            inputs = (space, cached, y[np.asarray(support)], encoding)
            k, m = encoding.k, space.support.size
            uses = np.bincount(cached.batch.indices, minlength=m)
            rows = training._level_rows(cached.batch, y, k, m, uses)
            widths = []
            for seed in range(5):
                rng = np.random.default_rng(seed)
                # train_cached draws the initial weights before the first order.
                smnn.init_weights("uniform01", rng, k, m)
                levels = training._levels(rng.permutation(n_rows), rows)[1]
                widths.append(n_rows / levels.max(initial=1))
            config = smnn.TrainConfig(epochs=epochs)
            level = fit_time(inputs, config, 0, args.repeats)
            kernel = fit_time(inputs, config, n_rows + 1, args.repeats)
            ratio = n_rows / uses.max()
            print("%-13s %7d %5d %13.1f %5.1f-%-6.1f %13.2f %6s" % (
                name, len(support), n_rows, ratio, min(widths), max(widths), level / kernel,
                "level" if ratio >= training.BATCH_MIN_WIDTH else "kernel"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
