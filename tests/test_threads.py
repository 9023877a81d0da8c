"""Results do not depend on the BLAS thread count.

One digest of the library's numbers is computed in two child processes,
with one and with two BLAS threads, and the two must be equal byte for
byte.  It covers the cell inverses, the weights after 5 epochs, the
embedding batch of the held-out rows in the ball and the evaluate
report, on spiral support 95, clusters support 1,000 (3-D) and the full
Iris support, each picked as the benchmark picks it.
"""

import os
import subprocess
import sys

import pytest

import smnn

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(smnn.__file__)))

DIGEST = """
import hashlib, json, sys
sys.path.insert(0, %r)
import numpy as np
import smnn
from smnn.embedding import embed_translated, translate_queries

digest = hashlib.sha256()
cases = ((lambda: smnn.gen_spiral(400, seed=0), 95),
         (lambda: smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=0), 1000),
         (smnn.load_iris, None))
for make, size in cases:
    train, test = smnn.split(make(), 0.75, seed=0)
    pts = train.points.points
    size = size or len(np.unique(pts, axis=0))
    support = smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, size, 0), 0)
    model, _ = smnn.train(pts, train.labels, support, smnn.TrainConfig(epochs=5))
    translated, inside = translate_queries(model.space, test.points)
    batch, found = embed_translated(model.space, translated[inside])
    report = smnn.evaluate(model, test.points, test.labels).to_dict()
    for arr in (model.space.tri.inverses, model.weights, batch.indptr, batch.indices, batch.values,
                batch.sphere_mass, batch.facet, inside, found):
        digest.update(arr.tobytes())
    digest.update(json.dumps(report, sort_keys=True).encode())
print(digest.hexdigest())
""" % SRC


def test_tier1_runs_one_blas_thread():
    # tests/conftest.py sets these before NumPy loads.
    assert {var: os.environ.get(var) for var in PINNED} == {var: "1" for var in PINNED}


def test_same_bits_at_one_and_two_threads():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("two BLAS threads need two cores")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, **{var: threads for var in PINNED})
        proc = subprocess.run([sys.executable, "-c", DIGEST], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(proc.stdout.split()[-1])
    assert digests[0] == digests[1]
