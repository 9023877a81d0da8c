"""The three workloads and the round loop that drives smnn through them.

One run is a fixed number of rounds.  Each round cycles through every
phase of its workload (set-up, one training call, evaluate, single
queries, a save/load and a cold CLI predict, the malformed queries), so
the samples of every metric are spread evenly over the whole run instead
of being timed in one contiguous block.  The number of rounds depends on
--seconds only, never on elapsed time, so every run of a workload
attempts the same operations.  Next to each half-round of queries the run
times reference_kernel, which runs no smnn code; its median over
REFERENCE_NOMINAL_S is the run's speed factor, by which every reported
time is divided, so that a machine that is slower for the whole run does
not read as a slower program.
"""

import os
import resource
import subprocess
import sys
import warnings
from dataclasses import dataclass

import numpy as np

import smnn

import checks
from spans import Recorder, median, tail


# Median time of reference_kernel on the 2-core virtual machine of the reference
# figures; a run whose kernel takes longer ran on a slower machine state.
REFERENCE_NOMINAL_S = 0.013

_REF_A = np.eye(5) * 4.0 + np.arange(25.0).reshape(5, 5) / 25.0
_REF_B = np.arange(5.0)
_REF_STACK = np.tile(_REF_A, (2000, 1, 1))


def reference_kernel():
    """Fixed work that calls nothing in smnn: tiny NumPy solves, a stacked
    small matmul over 2000 cells and a plain Python loop."""
    total = 0.0
    for i in range(400):
        total += float(np.linalg.solve(_REF_A, _REF_B)[0]) * i
    for _ in range(20):
        total += float((_REF_STACK @ _REF_B)[-1, 0])
    for i in range(80000):
        total += i * 0.5
    return total


# Rows per slice of the evaluate batch in the traced run's evaluate/xi_batch
# pairs (Run.evaluate_pairs).
PAIR_ROWS = 50


def _cycle(rows, count):
    """`count` rows taken from `rows` in order, wrapping around."""
    return [rows[i % len(rows)] for i in range(count)]


@dataclass(frozen=True)
class Workload:
    """Inputs and per-round operation counts of one workload.

    sizes      : support size of each space; None means every distinct
                 training row, selected through the same exact-size route.
    fits       : (space index, learning rate, epochs) of each train_cached
                 call; together they are one complete training job.
    query_fit  : the fit whose model serves evaluate, queries and the CLI.
    floor_fits : fits whose best held-out accuracy must reach `floor`.
    """

    name: str
    data: object
    sizes: tuple
    fits: tuple
    query_fit: int
    floor_fits: tuple
    floor: float
    round_seconds: float
    setup_repeats: int
    eval_repeats: int
    n_interior: int
    n_exterior: int
    eval_exterior: int

    def rounds(self, seconds):
        """Whole cycles over the fits, as many as fit in `seconds` nominally."""
        cycle = len(self.fits)
        return cycle * max(1, round(seconds / (cycle * self.round_seconds)))


def _spiral(seed):
    return smnn.split(smnn.gen_spiral(400, seed=seed), 0.75, seed=seed)


def _clusters3d(seed):
    data = smnn.gen_clusters(4000, n_features=3, class_sep=1.5, seed=seed)
    return smnn.split(data, 0.75, seed=seed)


def _iris(seed):
    """The bundled Iris rows, split as in split seed 0 whatever the run's seed.

    The split alone moves the full-support hull between 140 and 207 facets
    over seeds 0-9, and the exterior query cost with it by about 20%; Iris
    is one fixed dataset, so the run's seed drives the training (weight
    initialisation, sample order, sampling ties) and not the split.
    """
    return smnn.split(smnn.load_iris(), 0.75, seed=0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spiral-train",
            data=_spiral,
            sizes=(95, 5, 9),
            fits=((0, 0.1, 500), (1, 0.1, 500), (2, 0.1, 500)),
            query_fit=0,
            floor_fits=(0,),
            floor=0.95,
            round_seconds=5.3,
            setup_repeats=2,
            eval_repeats=6,
            n_interior=60,
            n_exterior=30,
            eval_exterior=8,
        ),
        Workload(
            name="clusters3d-serve",
            data=_clusters3d,
            sizes=(1000,),
            fits=((0, 0.1, 10),),
            query_fit=0,
            floor_fits=(0,),
            floor=0.80,
            round_seconds=6.0,
            setup_repeats=1,
            eval_repeats=1,
            n_interior=80,
            n_exterior=40,
            eval_exterior=18,
        ),
        Workload(
            name="iris-sweep",
            data=_iris,
            sizes=(None,),
            fits=((0, 0.1, 1000), (0, 0.01, 1000), (0, 0.5, 1000)),
            query_fit=0,
            floor_fits=(0, 1, 2),
            floor=0.87,
            round_seconds=4.3,
            setup_repeats=3,
            eval_repeats=4,
            n_interior=30,
            n_exterior=20,
            eval_exterior=13,
        ),
    )
}


@dataclass
class Space:
    """One set-up support: its epsilon, indices, embedding space and cache."""

    size: int
    epsilon: float
    support: list
    space: object
    cached: object


class Run:
    """One run of one workload: inputs, recorder, counters and check log."""

    def __init__(self, workload, seed, seconds, traced, root, out_dir):
        self.w = workload
        self.seed = seed
        self.rounds = workload.rounds(seconds)
        self.rec = Recorder(traced)
        self.root = root
        self.model_path = os.path.join(out_dir, "%s-%d.model.json" % (workload.name, os.getpid()))
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.attempted = 0
        self.failed = 0
        self.malformed = {}
        self.check_failures = []
        self.counts = {}
        self.flat_cells = 0

        train, test = workload.data(seed)
        self.pts = train.points.points
        self.encoding = smnn.LabelEncoding.from_labels(train.labels)
        self.y = np.array([self.encoding.index(v) for v in train.labels], dtype=np.int64)
        self.test_pts = test.points.points
        self.test_labels = test.labels
        self.test_y = np.array([self.encoding.index(v) for v in test.labels], dtype=np.int64)
        self.n_distinct = len(np.unique(self.pts, axis=0))

        self.first_setup = None
        self.last_weights = {}
        self.recount = {}
        self.accuracy = {}
        self.interior = None
        self.exterior = None
        self.eval_pts = None
        self.eval_labels = None
        self.eval_recount = None
        self.pair_rows = None

    # -- bookkeeping -------------------------------------------------------

    def check(self, fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.check_failures.append("%s: %s" % (fn.__name__, exc))
            return None

    def op(self, name, fn, *args, trace=None):
        """One end-to-end operation: counted as attempted and always timed."""
        self.attempted += 1
        return self.rec.call(name, fn, *args, trace=trace)

    def child(self, argv):
        return subprocess.run(
            argv, capture_output=True, text=True, env=self.child_env, cwd=self.root, timeout=120
        )

    # -- phases ------------------------------------------------------------

    def setup(self):
        """Generated arrays to spaces ready to train, for every support size."""
        rec = self.rec
        built = []
        self.attempted += 1
        with rec.span("bench.setup"):
            for size in self.w.sizes:
                size = self.n_distinct if size is None else size
                eps = rec.call("sampling.epsilon_for_size", smnn.epsilon_for_size,
                               self.pts, size, self.seed, layer=True)
                support = rec.call("sampling.epsilon_representative", smnn.epsilon_representative,
                                   self.pts, eps, self.seed, layer=True)
                space = rec.call("embedding.fit_space", smnn.fit_space, self.pts, support, layer=True)
                cached = rec.call("training.precompute_embeddings", smnn.precompute_embeddings,
                                  space, self.pts, self.y, layer=True)
                built.append(Space(size, eps, support, space, cached))
        if self.first_setup is None:
            self.first_setup = built
            self.check_setup(built)
        elif any(
            b.support != a.support or b.space.tri.maximal != a.space.tri.maximal
            for a, b in zip(self.first_setup, built)
        ):
            self.check_failures.append("setup: a repeated set-up gave another support or triangulation")
        return built

    def check_setup(self, built):
        rng = np.random.default_rng(self.seed)
        for b in built:
            self.check(checks.check_support, self.pts, b.support, b.size, b.epsilon)
            cells = b.space.tri.maximal
            pick = rng.choice(len(cells), size=min(300, len(cells)), replace=False)
            self.flat_cells += self.check(
                checks.check_empty_circumspheres,
                b.space.support.points,
                [cells[i].vertex_ids for i in sorted(pick)],
            ) or 0
        self.counts["geometry.cells"] = sum(len(b.space.tri.maximal) for b in built)
        self.counts["geometry.hull_facets"] = sum(len(b.space.tri.boundary) for b in built)
        self.counts["embedding.train_rows_exterior"] = sum(
            sum(x.facet_used is not None for x in b.cached.xis) for b in built
        )

    def fit(self, spaces, f):
        """One training call, then an untimed evaluate on the real held-out
        split for the accuracy floor."""
        space_idx, rate, epochs = self.w.fits[f]
        b = spaces[space_idx]
        config = smnn.TrainConfig(learning_rate=rate, epochs=epochs, seed=self.seed)
        model, report = self.op(
            "training.train_cached", smnn.train_cached, b.space, b.cached,
            self.y[b.support], self.encoding, config, trace="fit%d" % f,
        )
        self.check(checks.check_training, report.history, model.weights, self.last_weights.get(f))
        self.last_weights[f] = model.weights
        if f not in self.recount:
            self.recount[f] = sum(
                int(np.argmax(smnn.forward(model, x))) == y
                for x, y in zip(self.test_pts, self.test_y)
            )
        self.attempted += 1
        report = smnn.evaluate(model, self.test_pts, self.test_labels)
        self.check(checks.check_evaluation, report, len(self.test_y), self.recount[f])
        self.accuracy[f] = report.accuracy
        return model

    def split_queries(self, model):
        """Query pools and the evaluate batch, fixed once per run.

        Interior queries are the held-out rows inside the hull.  Exterior
        queries are all held-out rows pushed radially to halfway between
        the largest support norm and the ball radius: past every support
        point, so outside the hull, but inside the ball.  The held-out rows
        that happen to fall outside the hull are few (4 to 14 of the spiral's
        100 over seeds 0-19) and unlike one another in cost, so the median
        of their cost moves from seed to seed about twice as much as that of
        the pushed rows.  The evaluate batch has as many rows as the held-out
        split, a fixed number of them exterior, so that its mix of the two
        routes does not move with the seed either.
        """
        space = model.space
        rows = list(zip(self.test_pts, self.test_labels))
        interior = [(x, label) for x, label in rows
                    if smnn.locate(space.tri, x - space.centroid) is not None]
        reach = 0.5 * (np.linalg.norm(space.support.points, axis=1).max() + space.radius)
        exterior = []
        for x, label in rows:
            t = x - space.centroid
            exterior.append((space.centroid + t * (reach / np.linalg.norm(t)), label))
        self.interior, self.exterior = interior, exterior
        n_out = self.w.eval_exterior
        batch = _cycle(interior, len(rows) - n_out) + _cycle(exterior, n_out)
        self.eval_pts = np.array([x for x, _ in batch])
        self.eval_labels = [label for _, label in batch]
        self.pair_rows = min(PAIR_ROWS, len(batch))
        self.eval_recount = sum(
            self.encoding.labels[int(np.argmax(smnn.forward(model, x)))] == label
            for x, label in batch
        )

    def evaluate(self, model, r, j):
        tid = "eval-%d-%d" % (r, j)
        report = self.op("training.evaluate", smnn.evaluate, model,
                         self.eval_pts, self.eval_labels, trace=tid)
        self.check(checks.check_evaluation, report, len(self.eval_labels), self.eval_recount)
        if self.rec.traced:
            self.rec.call("embedding.xi_batch", smnn.xi_batch, model.space,
                          self.eval_pts, trace=tid)
            self.evaluate_pairs(model, "pair-%d-%d" % (r, j))

    def evaluate_pairs(self, model, tid):
        """evaluate and xi_batch on the same slices of the evaluate batch,
        in alternating order, for the self time of evaluate.

        That self part is about 20 us a row: 4% of a 1000-row call on
        clusters3d-serve, less than the noise between two neighbouring
        half-second calls.  Many short neighbouring pairs resolve it in
        their median difference.
        """
        n = self.pair_rows
        for k, s in enumerate(range(0, len(self.eval_labels) - n + 1, n)):
            pts, labels = self.eval_pts[s:s + n], self.eval_labels[s:s + n]
            calls = [("embedding.xi_batch", smnn.xi_batch, model.space, pts),
                     ("training.evaluate", smnn.evaluate, model, pts, labels)]
            for name, fn, *args in calls[::1 if k % 2 else -1]:
                self.rec.call(name, fn, *args, trace="%s-%d" % (tid, k))

    def query(self, model, q, tid, interior):
        rec, space = self.rec, model.space
        with rec.span("bench.query", trace=tid, layer=True):
            probs = self.op("model.forward", smnn.forward, model, q, trace=tid)
            if interior:
                expl = self.op("explain.explain", smnn.explain, model, q, trace=tid)
            sparse = rec.call("embedding.xi", smnn.xi, space, q, trace=tid, layer=True)
            t = q - space.centroid
            hit = rec.call("geometry.locate", smnn.locate, space.tri, t, trace=tid, layer=True)
            z = rec.call("model.logits", smnn.logits, model, sparse, trace=tid, layer=True)
            rec.call("model.softmax", smnn.softmax, z, trace=tid, layer=True)
        pts, w = space.support.points, model.weights
        if interior:
            if hit is None:
                self.check_failures.append("query: an interior query was not located")
                return
            self.check(checks.check_embedding, pts, space.radius, t, sparse, hit[0].vertex_ids)
            self.check(checks.check_explanation, w, sparse, model.encoding.labels, probs, expl)
        else:
            if hit is not None or sparse.facet_used is None:
                self.check_failures.append("query: an exterior query did not take the virtual route")
            self.check(checks.check_embedding, pts, space.radius, t, sparse)
        self.check(checks.check_forward, w, sparse, probs)

    def serve(self, model, r, half):
        """Half of the round's queries and evaluate calls.

        A round serves one half before its training call and one after, so
        these short samples come from two moments of every round.
        """
        w = self.w
        ni, ne = w.n_interior // 2, w.n_exterior // 2
        for k in range(half * ni, (half + 1) * ni):
            q, _ = self.interior[(r * w.n_interior + k) % len(self.interior)]
            self.query(model, q, "interior-%d-%d" % (r, k), True)
        for k in range(half * ne, (half + 1) * ne):
            q, _ = self.exterior[(r * w.n_exterior + k) % len(self.exterior)]
            self.query(model, q, "exterior-%d-%d" % (r, k), False)
        for j in range(half, w.eval_repeats, 2):
            self.evaluate(model, r, j)
        for _ in range(2):
            self.rec.call("bench.reference", reference_kernel)

    def persist_and_cli(self, model, r):
        rec = self.rec
        rec.call("persist.save_model", smnn.save_model, model, self.model_path, layer=True)
        loaded, _ = rec.call("persist.load_model", smnn.load_model, self.model_path, layer=True)
        self.counts["persist.model_bytes"] = os.path.getsize(self.model_path)

        point = ",".join(repr(float(v)) for v in self.test_pts[r % len(self.test_pts)])
        x = np.array([float(v) for v in point.split(",")])  # exactly as the CLI parses it
        argv = [sys.executable, "-m", "smnn.cli", "predict",
                "--model", self.model_path, "--point=" + point]
        proc = self.op("cli.predict", self.child, argv)
        probs = smnn.forward(loaded, x)
        if not np.array_equal(probs, smnn.forward(model, x)):
            self.check_failures.append("persist: the reloaded model's forward differs")
        self.check(checks.check_cli_output, proc.returncode, proc.stdout,
                   model.encoding.labels, probs)
        if rec.traced:
            for name, code in (("cli.import", "import smnn"), ("cli.interpreter", "pass")):
                proc = rec.call(name, self.child, [sys.executable, "-c", code])
                if proc.returncode != 0:
                    self.check_failures.append("%s: exited with %d" % (name, proc.returncode))

    def malformed_queries(self, model):
        """Queries with no correct answer; anything but a typed SmnnError fails."""
        space = model.space
        n = space.dim
        bad = {
            "nan": np.array([np.nan] + [0.0] * (n - 1)),
            "short": np.zeros(n - 1),
            "long": np.zeros(n + 1),
            "beyond_ball": space.centroid + np.eye(n)[0] * (2.0 * space.radius),
        }
        for fname, fn in (("forward", smnn.forward), ("explain", smnn.explain)):
            for kind, q in bad.items():
                self.attempted += 1
                raised = None
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore")
                    try:
                        fn(model, q)
                    except Exception as exc:  # bare NumPy errors are among the faults counted
                        raised = exc
                wanted = smnn.OutsideBall if kind == "beyond_ball" else smnn.SmnnError
                if not isinstance(raised, wanted):
                    self.failed += 1
                self.malformed["%s(%s)" % (fname, kind)] = (
                    "returned an answer" if raised is None else "raised " + type(raised).__name__
                )

    def traced_delaunay(self, spaces):
        with self.rec.span("bench.delaunay"):
            for b in spaces:
                self.rec.call("geometry.build_delaunay", smnn.build_delaunay, b.space.support)

    # -- round loop --------------------------------------------------------

    def execute(self):
        w = self.w
        query_model = None
        for r in range(self.rounds):
            with self.rec.span("bench.round", trace="round-%d" % r, layer=True):
                for _ in range(w.setup_repeats):
                    spaces = self.setup()
                if self.rec.traced:
                    self.traced_delaunay(spaces)
                served_early = query_model is not None
                if served_early:
                    self.serve(query_model, r, 0)
                f = (w.query_fit + r) % len(w.fits)
                model = self.fit(spaces, f)
                if f == w.query_fit:
                    query_model = model
                if self.interior is None:
                    self.split_queries(query_model)
                if not served_early:
                    self.serve(query_model, r, 0)
                self.serve(query_model, r, 1)
                self.persist_and_cli(query_model, r)
                self.malformed_queries(query_model)
        best = max(self.accuracy[f] for f in w.floor_fits)
        self.check(checks.check_accuracy_floor, best, w.floor, len(self.test_y), w.name)
        if os.path.exists(self.model_path):
            os.remove(self.model_path)

    # -- metrics -----------------------------------------------------------

    def latencies(self):
        """End-to-end latency samples in the unit of their metric."""
        rec = self.rec
        return {
            "query_interior_us": [d * 1e6 for d in rec.durations("model.forward", "interior")],
            "query_exterior_us": [d * 1e6 for d in rec.durations("model.forward", "exterior")],
            "explain_us": [d * 1e6 for d in rec.durations("explain.explain", "interior")],
            "cli_predict_ms": [d * 1e3 for d in rec.durations("cli.predict")],
        }

    def speed(self):
        """This run's reference-kernel median over its nominal time."""
        return median(self.rec.durations("bench.reference")) / REFERENCE_NOMINAL_S

    def scaled(self, metrics):
        """Times divided, and rates multiplied, by the run's speed factor."""
        speed = self.speed()
        factor = {"s": 1.0 / speed, "ms": 1.0 / speed, "us": 1.0 / speed, "rows/s": speed}
        return {name: (value * factor[unit] if unit in factor else value, unit)
                for name, (value, unit) in metrics.items()}

    def end_to_end(self):
        return self.scaled(self.raw_end_to_end())

    def per_layer(self):
        return self.scaled(self.raw_per_layer())

    def raw_end_to_end(self):
        rec = self.rec
        n_eval = len(self.eval_labels)
        fit_s = sum(
            median(rec.durations("training.train_cached", "fit%d" % f))
            for f in range(len(self.w.fits))
        )
        out = {
            "setup_s": (median(rec.durations("bench.setup")), "s"),
            "fit_s": (fit_s, "s"),
            "eval_rows_per_s": (
                median([n_eval / d for d in rec.durations("training.evaluate", "eval")]),
                "rows/s"),
        }
        units = {"query_interior_us": "us", "query_exterior_us": "us",
                 "explain_us": "us", "cli_predict_ms": "ms"}
        for name, samples in self.latencies().items():
            out[name] = (median(samples), units[name])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        return out

    def raw_per_layer(self):
        rec = self.rec
        n_eval = len(self.eval_labels)
        rows = len(self.pts)
        steps = [epochs * rows for _, _, epochs in self.w.fits]
        us = 1e6

        def med(samples, scale=1.0):
            return median([s * scale for s in samples])

        sgd = [
            d / steps[f] * us
            for f in range(len(self.w.fits))
            for d in rec.durations("training.train_cached", "fit%d" % f)
        ]
        out = {
            "sampling.select_s": (med(rec.sums_by_parent(
                ("sampling.epsilon_for_size", "sampling.epsilon_representative"))), "s"),
            "geometry.delaunay_s": (med(rec.sums_by_parent(("geometry.build_delaunay",))), "s"),
            "geometry.locate_us": (med(rec.durations("geometry.locate", "interior"), us), "us"),
            "geometry.cells": (self.counts["geometry.cells"], "count"),
            "geometry.hull_facets": (self.counts["geometry.hull_facets"], "count"),
            "embedding.fit_space_s": (med(rec.sums_by_parent(("embedding.fit_space",))), "s"),
            "embedding.xi_interior_us": (med(rec.durations("embedding.xi", "interior"), us), "us"),
            "embedding.xi_exterior_us": (med(rec.durations("embedding.xi", "exterior"), us), "us"),
            "embedding.xi_batch_us_per_row": (
                med(rec.durations("embedding.xi_batch", "eval"), us / n_eval), "us"),
            "embedding.train_rows_exterior": (self.counts["embedding.train_rows_exterior"], "count"),
            "embedding.queries_interior": (len(rec.durations("model.forward", "interior")), "count"),
            "embedding.queries_exterior": (len(rec.durations("model.forward", "exterior")), "count"),
            "training.precompute_s": (
                med(rec.sums_by_parent(("training.precompute_embeddings",))), "s"),
            "training.sgd_us_per_step": (median(sgd), "us"),
            "training.sgd_steps": (sum(steps), "count"),
            "training.evaluate_self_us_per_row": (
                med(rec.differences("training.evaluate", "embedding.xi_batch", "pair"),
                    us / self.pair_rows), "us"),
            "model.logits_us": (med(rec.durations("model.logits"), us), "us"),
            "model.softmax_us": (med(rec.durations("model.softmax"), us), "us"),
            "explain.self_us": (
                med(rec.differences("explain.explain", "embedding.xi", "interior"), us), "us"),
            "persist.save_model_ms": (med(rec.durations("persist.save_model"), 1e3), "ms"),
            "persist.load_model_ms": (med(rec.durations("persist.load_model"), 1e3), "ms"),
            "persist.model_bytes": (self.counts["persist.model_bytes"], "bytes"),
            "cli.import_ms": (med(rec.durations("cli.import"), 1e3), "ms"),
            "cli.interpreter_ms": (med(rec.durations("cli.interpreter"), 1e3), "ms"),
        }
        return out

    def tails(self):
        return {name: tail(samples) for name, samples in self.latencies().items()}
