"""Benchmark of smnn: set-up, training, batch scoring, single queries and a cold CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload spiral-train --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

One workload runs in this process and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  `all` runs
every workload in its own child process, one after another; with
--trace 1 it runs each workload untraced and then traced and prints the
tracing overhead.  Result and span files go to bench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread: load comes from this one process (and at most one CLI
# child), and a 2-core machine has no spare core for BLAS workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("spiral-train", "clusters3d-serve", "iris-sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _import_program():
    """Import smnn from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "smnn", "__init__.py")):
        sys.exit("bench: no smnn sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import smnn

    if os.path.dirname(os.path.dirname(os.path.abspath(smnn.__file__))) != SRC:
        sys.exit("bench: imported smnn from %s, not from %s" % (smnn.__file__, SRC))


def _fmt(value):
    return str(value) if isinstance(value, int) else "%.6g" % value


def run_one(args):
    _import_program()
    from workloads import WORKLOADS, Run

    os.makedirs(OUT, exist_ok=True)
    started = time.perf_counter()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT, OUT)
    print("workload %s  seed %d  rounds %d  traced %s"
          % (args.workload, args.seed, run.rounds, bool(args.trace)), flush=True)
    run.execute()

    e2e, raw = run.end_to_end(), run.raw_end_to_end()
    print("speed factor %.4f (reference kernel median over its nominal time)" % run.speed())
    print("end-to-end (median, at nominal speed; raw wall-time median):")
    for name, (value, unit) in e2e.items():
        print("  %-26s %12s %-6s %12s" % (name, _fmt(value), unit, _fmt(raw[name][0])))
    tails = run.tails()
    counts = {name: len(samples) for name, samples in run.latencies().items()}
    print("tails, raw wall time (highest percentile with at least ten samples beyond it):")
    for name, t in tails.items():
        print("  %-26s %s" % (name, "p%g %s (n=%d)" % (t[0], _fmt(t[1]), t[2]) if t
                              else "none (n=%d, fewer than 40 samples)" % counts[name]))
    layers = None
    if args.trace:
        layers = run.per_layer()
        print("per-layer:")
        for name, (value, unit) in layers.items():
            print("  %-34s %12s %s" % (name, _fmt(value), unit))
        print("span self time (s):")
        for name, (total, own) in sorted(run.rec.self_times().items()):
            print("  %-34s total %9.4f  self %9.4f" % (name, total, own))
        run.rec.write(os.path.join(OUT, "%s-s%d.spans.json" % (args.workload, args.seed)))
    print("malformed queries (correct outcome: a typed SmnnError; beyond_ball: OutsideBall):")
    for name, outcome in run.malformed.items():
        print("  %-24s %s" % (name, outcome))
    print("operations: attempted %d, failed %d" % (run.attempted, run.failed))
    for failure in run.check_failures[:10]:
        print("CHECK FAILED %s" % failure)
    if len(run.check_failures) > 10:
        print("CHECK FAILED ... %d more" % (len(run.check_failures) - 10))
    print("checks: %s (flat cells skipped in the circumsphere check: %d)"
          % ("all passed" if not run.check_failures else "%d failed" % len(run.check_failures),
             run.flat_cells))
    print("elapsed %.1f s" % (time.perf_counter() - started))

    shown = layers if args.trace else e2e
    result = {
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    detail = dict(
        result,
        elapsed_s=time.perf_counter() - started,
        speed_factor=run.speed(),
        raw_end_to_end={k: v for k, (v, _) in raw.items()},
        end_to_end={k: v for k, (v, _) in e2e.items()},
        tails={k: list(t) if t else None for k, t in tails.items()},
        malformed=run.malformed,
        check_failures=run.check_failures,
    )
    path = os.path.join(OUT, "%s-s%d-t%d.result.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result), flush=True)


def run_child(workload, args, trace):
    """Run one workload in a child process; returns its result detail."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.exit("bench: workload %s exited with %d" % (workload, proc.returncode))
    path = os.path.join(OUT, "%s-s%d-t%d.result.json" % (workload, args.seed, trace))
    with open(path) as fh:
        return json.load(fh)


def run_all(args):
    if not os.path.isfile(os.path.join(SRC, "smnn", "__init__.py")):
        sys.exit("bench: no smnn sources under %s" % SRC)
    summary = {}
    for workload in WORKLOAD_NAMES:
        plain = run_child(workload, args, 0)
        summary[workload] = {"untraced": plain}
        if args.trace:
            traced = run_child(workload, args, 1)
            summary[workload]["traced"] = traced
            print("tracing overhead on %s (traced / untraced - 1):" % workload)
            for name, value in plain["end_to_end"].items():
                print("  %-26s %+7.1f%%" % (name, 100.0 * (traced["end_to_end"][name] / value - 1.0)))
    print("summary:")
    for workload, runs in summary.items():
        plain = runs["untraced"]
        print("  %-18s correct %s  attempted %d  failed %d" % (
            workload, plain["correct"], plain["attempted"], plain["failed"]))
    print(json.dumps({
        "correct": all(r["untraced"]["correct"] and r.get("traced", r["untraced"])["correct"]
                       for r in summary.values()),
        "attempted": sum(r["untraced"]["attempted"] for r in summary.values()),
        "failed": sum(r["untraced"]["failed"] for r in summary.values()),
        "workloads": {w: r["untraced"]["metrics"] for w, r in summary.items()},
    }))


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
