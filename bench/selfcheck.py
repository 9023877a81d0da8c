"""Quick self-check of the benchmark harness, in well under a minute.

    python3 bench/selfcheck.py

1. Runs every workload, traced, at reduced size (fewer rows, epochs and
   queries; one cycle of rounds) and requires all checks to pass and the
   malformed-query failures to be the only failures.
2. Hands each correctness check a deliberately wrong answer (perturbed
   probabilities, a dropped contributor, a non-Delaunay cell, ...) and
   requires the check to reject it.  The program itself is not changed:
   the wrong answers are built from its real outputs.

Exits 0 when everything holds, 1 otherwise.
"""

import copy
import json
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import smnn  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

# Malformed queries that fail today, per round: nan, short and long,
# each through forward and explain.
FAILING_MALFORMED_PER_ROUND = 6


def _small_spiral(seed):
    return smnn.split(smnn.gen_spiral(120, seed=seed), 0.75, seed=seed)


def _small_clusters(seed):
    data = smnn.gen_clusters(600, n_features=3, class_sep=1.5, seed=seed)
    return smnn.split(data, 0.75, seed=seed)


QUICK = (
    replace(WORKLOADS["spiral-train"], data=_small_spiral, sizes=(30, 5, 9),
            fits=((0, 0.1, 40), (1, 0.1, 40), (2, 0.1, 40)), floor=0.7,
            setup_repeats=1, eval_repeats=1, n_interior=8, n_exterior=4),
    replace(WORKLOADS["clusters3d-serve"], data=_small_clusters, sizes=(150,),
            setup_repeats=1, n_interior=8, n_exterior=4),
    replace(WORKLOADS["iris-sweep"], fits=((0, 0.1, 60), (0, 0.01, 60), (0, 0.5, 60)),
            floor=0.6, setup_repeats=1, eval_repeats=1, n_interior=8, n_exterior=4),
)


def run_reduced(problems):
    root = os.path.dirname(HERE)
    with tempfile.TemporaryDirectory(dir=HERE) as out_dir:
        for workload in QUICK:
            run = Run(workload, seed=0, seconds=0, traced=True, root=root, out_dir=out_dir)
            run.execute()
            run.end_to_end()
            run.per_layer()
            expected = FAILING_MALFORMED_PER_ROUND * run.rounds
            status = "ok"
            if run.check_failures:
                status = "checks failed: %s" % run.check_failures[:3]
            elif run.failed != expected:
                status = "failed %d operations, expected %d" % (run.failed, expected)
            if status != "ok":
                problems.append("%s: %s" % (workload.name, status))
            print("reduced %-18s rounds %d attempted %d failed %d: %s"
                  % (workload.name, run.rounds, run.attempted, run.failed, status))


def _spiral_model():
    data = smnn.gen_spiral(120, seed=3)
    pts = data.points.points
    support = smnn.epsilon_representative(pts, smnn.epsilon_for_size(pts, 20, seed=3), seed=3)
    model, report = smnn.train(pts, data.labels, support, smnn.TrainConfig(0.1, 30, seed=3))
    return model, report


def wrong_answers(model, report):
    """(name, check, args) triples, each holding one deliberately wrong answer."""
    space = model.space
    pts, w, labels = space.support.points, model.weights, model.encoding.labels
    cell = space.tri.maximal[0].vertex_ids
    t_in = np.array([0.5, 0.3, 0.2]) @ pts[list(cell)]
    q_in = space.centroid + t_in
    xi_in = smnn.xi(space, q_in)
    shifted = xi_in.values + np.array([5e-8, -5e-8, 0.0])
    q_out = space.centroid + pts[np.argmax(np.linalg.norm(pts, axis=1))] * 1.2
    t_out = q_out - space.centroid
    xi_out = smnn.xi(space, q_out)
    probs = smnn.forward(model, q_in)
    expl = smnn.explain(model, q_in)

    def edited(sparse, **fields):
        out = copy.copy(sparse)
        for key, value in fields.items():
            setattr(out, key, value)
        return out

    dropped = copy.copy(expl)
    dropped.contributors = expl.contributors[1:]
    relabelled = copy.copy(expl)
    relabelled.predicted_label = labels[1 - labels.index(expl.predicted_label)]
    nudged = np.nextafter(probs, 2.0)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.9]])
    evaluation = smnn.evaluate(model, pts[:10] + space.centroid, [labels[0]] * 10)
    hits = int(round(evaluation.accuracy * 10))
    short_confusion = copy.copy(evaluation)
    short_confusion.confusion = evaluation.confusion.copy()
    short_confusion.confusion[np.unravel_index(np.argmax(evaluation.confusion),
                                               evaluation.confusion.shape)] -= 1
    cli_doc = json.dumps({"label": expl.predicted_label,
                          "probabilities": dict(zip(labels, nudged.tolist()))})
    cli_label = json.dumps({"label": relabelled.predicted_label,
                            "probabilities": dict(zip(labels, probs.tolist()))})
    support = list(range(pts.shape[0]))
    return [
        ("support one row short", checks.check_support, (pts, support[:-1], len(support), 1.0)),
        ("support epsilon too small", checks.check_support, (pts, support[:5], 5, 1e-6)),
        ("non-Delaunay cell", checks.check_empty_circumspheres, (square, [(0, 1, 2)])),
        ("negative embedding weight", checks.check_embedding,
         (pts, space.radius, t_in, edited(xi_in, values=xi_in.values * -1.0))),
        ("weights not summing to 1", checks.check_embedding,
         (pts, space.radius, t_in, edited(xi_in, values=xi_in.values * 1.01))),
        ("wrong reconstruction", checks.check_embedding,
         (pts, space.radius, t_in, edited(xi_in, values=xi_in.values[::-1]))),
        ("exterior sphere mass dropped", checks.check_embedding,
         (pts, space.radius, t_out, edited(xi_out, sphere_mass=0.0,
                                           values=xi_out.values / xi_out.values.sum()))),
        ("interior coordinates off a direct solve", checks.check_embedding,
         (pts, space.radius, t_in, edited(xi_in, values=shifted), cell)),
        ("perturbed probabilities", checks.check_forward, (w, xi_in, probs + 1e-9)),
        ("dropped contributor", checks.check_explanation, (w, xi_in, labels, probs, dropped)),
        ("explanation probabilities one ulp off", checks.check_explanation,
         (w, xi_in, labels, nudged, expl)),
        ("explanation label not the argmax", checks.check_explanation,
         (w, xi_in, labels, probs, relabelled)),
        ("loss not falling", checks.check_training,
         (report.history[::-1], model.weights, None)),
        ("repeated fit one ulp off", checks.check_training,
         (report.history, model.weights, np.nextafter(model.weights, 2.0))),
        ("accuracy below floor", checks.check_accuracy_floor, (0.8, 0.9, 100, "spiral")),
        ("evaluate accuracy off by one row", checks.check_evaluation, (evaluation, 10, hits - 1)),
        ("confusion missing a row", checks.check_evaluation, (short_confusion, 10, hits)),
        ("cli exit code 2", checks.check_cli_output, (2, "", labels, probs)),
        ("cli probabilities one ulp off", checks.check_cli_output, (0, cli_doc, labels, probs)),
        ("cli label not the argmax", checks.check_cli_output, (0, cli_label, labels, probs)),
    ]


def reject_wrong_answers(problems):
    model, report = _spiral_model()
    for name, check, args in wrong_answers(model, report):
        try:
            check(*args)
        except checks.CheckFailed as exc:
            print("rejected %-40s %s" % (name, exc))
        else:
            problems.append("accepted a wrong answer: %s" % name)
            print("ACCEPTED %s" % name)


def main():
    problems = []
    run_reduced(problems)
    reject_wrong_answers(problems)
    for problem in problems:
        print("SELF-CHECK FAILED %s" % problem)
    print("self-check: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
