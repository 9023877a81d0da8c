"""Steadiness runs and the reference figures recorded in bench/README.md.

    python3 bench/steady.py --seeds 0-9 --label a
    python3 bench/steady.py --seeds 10-19 --label b --compare bench/out/steady-a.json

Runs bench/run.py once per workload and seed, one run at a time, untraced,
then once traced per workload on the first seed.  For every end-to-end
metric it prints the median, the quartiles and their distance as a share
of the median (the spread), against the metric's bound in BENCHMARK.json;
the share of failed operations per workload, which must be the same in
every run; the tails; and the tracing overhead (the traced run's value
over the untraced run's on the same seed, minus one).  With --compare it also prints how far each
median moved from an earlier set, in the metric's worse direction.
The summary is written to bench/out/steady-<label>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(spec, workload, seed, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(argv), proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(OUT, "%s-s%d-t%d.result.json" % (workload, seed, trace))
    with open(path) as fh:
        return result, json.load(fh)


def _worse(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old` (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description="steadiness runs of the benchmark")
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--label", default="a")
    parser.add_argument("--compare", help="summary JSON of an earlier set")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)

    summary = {}
    for workload in workloads:
        values = {name: [] for name in metrics}
        tails = {}
        shares = set()
        correct = True
        for seed in seeds:
            result, detail = _run(spec, workload, seed, 0)
            correct = correct and result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            for name, t in detail["tails"].items():
                if t:
                    tails.setdefault(name, []).append(t)
            print("  %s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        traced, traced_detail = _run(spec, workload, seeds[0], 1)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(vals), "values": vals}
        summary[workload] = {
            "correct": correct,
            "failed_attempted": sorted(shares),
            "metrics": rows,
            "tails": {name: {"level": ts[0][0], "median_value": statistics.median(t[1] for t in ts),
                             "samples": ts[0][2]} for name, ts in tails.items()},
            "traced_e2e": traced_detail["end_to_end"],
            "untraced_first_seed": {name: vals[0] for name, vals in values.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    for workload, s in summary.items():
        print("\n%s  (seeds %s, correct %s, failed/attempted %s)"
              % (workload, args.seeds, s["correct"],
                 ", ".join("%d/%d" % fa for fa in s["failed_attempted"])))
        print("  %-18s %12s %12s %12s %7s %6s %9s %8s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "overhead", "vs-prev"))
        for name, row in s["metrics"].items():
            bound = metrics[name]["bound"]
            overhead = s["traced_e2e"][name] / s["untraced_first_seed"][name] - 1.0
            moved = ""
            if earlier and workload in earlier:
                old = earlier[workload]["metrics"][name]["median"]
                moved = "%+7.1f%%" % (100.0 * _worse(metrics[name], old, row["median"]))
            flag = "" if row["spread"] <= bound / 3 else "  <- above bound/3"
            print("  %-18s %12.6g %12.6g %12.6g %6.1f%% %5.0f%% %+8.1f%% %8s%s"
                  % (name, row["median"], row["q1"], row["q3"], 100 * row["spread"],
                     100 * bound, 100 * overhead, moved, flag))
        for name, t in s["tails"].items():
            print("  tail %-18s p%g %.6g (n=%d per run, median over runs)"
                  % (name, t["level"], t["median_value"], t["samples"]))
        if len(s["failed_attempted"]) != 1:
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steady-%s.json" % args.label), "w") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
