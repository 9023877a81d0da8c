"""Command-line pipeline: gen, subsample, train, eval, predict, explain.

Every command reads and writes only the files named by its flags and
draws all randomness from --seed.  Exit codes: 0 success, 1 usage error,
2 data or geometry error.
"""

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import datagen, persist, sampling
from .errors import ParseError, SmnnError, indices
from .explain import explain as _explain
from .explain import render_explanation_svg
from .model import forward as _forward
from .training import TrainConfig, evaluate, train as _train


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="smnn", description="Simplicial-map neural network pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset", parents=[])
    p.add_argument("--kind", choices=("spiral", "clusters"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--noise", type=float, default=0.02, help="spiral noise sd")
    p.add_argument("--turns", type=float, default=0.65, help="spiral turn count")
    p.add_argument("--features", type=int, default=2, help="cluster feature count")
    p.add_argument("--clusters-per-class", type=int, default=2)
    p.add_argument("--class-sep", type=float, default=1.0)
    p.add_argument("--flip-fraction", type=float, default=0.02)
    p.add_argument(
        "--train-fraction",
        type=float,
        default=0.75,
        help="write this fraction to --out and the rest to a sibling _test file; 1 disables the split",
    )

    p = sub.add_parser("subsample", help="select an epsilon-representative support set")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--support", help="JSON file with support indices")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("uniform01", "one_hot"), default="uniform01")
    p.add_argument("--radius-margin", type=float, default=1.0)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a model on a labelled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="also write the report JSON here")

    p = sub.add_parser("predict", help="classify a single point")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")

    p = sub.add_parser("explain", help="explain a single prediction")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--svg", help="write a bar-chart SVG here")

    return parser


def _parse_point(text):
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=np.float64)
    except ValueError:
        raise ParseError("--point must be comma-separated numbers, got %r" % text) from None


def _test_path(out_path):
    stem, ext = os.path.splitext(out_path)
    return "%s_test%s" % (stem, ext or ".csv")


def _cmd_gen(args):
    if args.kind == "spiral":
        data = datagen.gen_spiral(args.n, noise_sd=args.noise, turns=args.turns, seed=args.seed)
    else:
        data = datagen.gen_clusters(
            args.n,
            n_features=args.features,
            clusters_per_class=args.clusters_per_class,
            class_sep=args.class_sep,
            flip_fraction=args.flip_fraction,
            seed=args.seed,
        )
    if args.train_fraction >= 1.0:
        datagen.save_csv(data, args.out)
        print(json.dumps({"written": args.out, "rows": data.size}))
        return 0
    train_part, test_part = datagen.split(data, args.train_fraction, seed=args.seed)
    datagen.save_csv(train_part, args.out)
    test_out = _test_path(args.out)
    datagen.save_csv(test_part, test_out)
    print(
        json.dumps(
            {
                "written": args.out,
                "rows": train_part.size,
                "test_written": test_out,
                "test_rows": test_part.size,
            }
        )
    )
    return 0


def _select_support(points, epsilon, kappa, seed):
    """Support indices plus the sampler record for provenance."""
    if epsilon is not None:
        config = sampling.SamplerConfig(mode="epsilon", epsilon=epsilon, seed=seed)
        eps = epsilon
    else:
        config = sampling.SamplerConfig(mode="kappa", kappa=kappa, seed=seed)
        eps = sampling.epsilon_from_kappa(points - points.mean(axis=0), kappa)
    indices = sampling.epsilon_representative(points, eps, seed=seed)
    record = config.to_dict()
    record["epsilon_effective"] = eps
    return indices, record


def _cmd_subsample(args):
    if (args.epsilon is None) == (args.kappa is None):
        return _usage("subsample needs exactly one of --epsilon / --kappa")
    data = datagen.load_csv(args.in_path)
    indices, record = _select_support(data.points.points, args.epsilon, args.kappa, args.seed)
    with open(args.out, "w") as fh:
        json.dump(indices, fh)
        fh.write("\n")
    print(json.dumps({"written": args.out, "size": len(indices), "epsilon": record["epsilon_effective"]}))
    return 0


def _usage(message):
    print("smnn: error: %s" % message, file=sys.stderr)
    return 1


def _dedup_rows(points):
    """Indices of the first occurrence of each distinct row, ascending."""
    _, first = np.unique(points, axis=0, return_index=True)
    return np.sort(first)


def _cmd_train(args):
    if sum(x is not None for x in (args.support, args.epsilon, args.kappa)) > 1:
        return _usage("train accepts at most one of --support / --epsilon / --kappa")
    data = datagen.load_csv(args.data)
    pts = data.points.points

    sampler_record = None
    if args.support is not None:
        with open(args.support) as fh:
            support = json.load(fh)
        what = "support file %s" % args.support
        if not isinstance(support, list) or indices(support, what, error=ParseError).ndim != 1:
            raise ParseError("%s must be a JSON array of integers" % what)
    elif args.epsilon is not None or args.kappa is not None:
        support, sampler_record = _select_support(pts, args.epsilon, args.kappa, args.seed)
    else:
        support = _dedup_rows(pts).tolist()
        if len(support) < pts.shape[0]:
            warnings.warn(
                "dropped %d duplicate rows from the default full support"
                % (pts.shape[0] - len(support)),
                stacklevel=1,
            )

    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        init_mode=args.init,
        shuffle=not args.no_shuffle,
    )
    model, report = _train(pts, data.labels, support, config, radius_margin=args.radius_margin)
    provenance = {
        "seed": args.seed,
        "epochs": args.epochs,
        "learning_rate": args.lr,
        "init_mode": args.init,
        "shuffle": not args.no_shuffle,
        "radius_margin": args.radius_margin,
        "sampler": sampler_record,
        "support_size": len(support),
        "n_train": int(pts.shape[0]),
    }
    persist.save_model(model, args.out, provenance=provenance)
    print(
        json.dumps(
            {
                "written": args.out,
                "support_size": len(support),
                "final_train_loss": report.final_loss,
                "final_train_accuracy": report.final_accuracy,
                "wall_time": round(report.wall_time, 3),
                "n_steps": report.n_steps,
                "n_batches": report.n_batches,
                "us_per_step": round(report.us_per_step, 3),
            }
        )
    )
    return 0


def _cmd_eval(args):
    model, _ = persist.load_model(args.model)
    data = datagen.load_csv(args.data)
    report = evaluate(model, data.points, data.labels)
    doc = report.to_dict(model.encoding)
    text = json.dumps(doc, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_predict(args):
    model, _ = persist.load_model(args.model)
    x = _parse_point(args.point)
    probs = _forward(model, x)
    idx = int(np.argmax(probs))
    print(
        json.dumps(
            {
                "label": model.encoding.labels[idx],
                "probabilities": {
                    name: float(p) for name, p in zip(model.encoding.labels, probs)
                },
            },
            indent=2,
        )
    )
    return 0


def _cmd_explain(args):
    model, _ = persist.load_model(args.model)
    x = _parse_point(args.point)
    explanation = _explain(model, x)
    print(explanation.to_json())
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_explanation_svg(explanation) + "\n")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "subsample": _cmd_subsample,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "explain": _cmd_explain,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SmnnError as exc:
        location = ""
        if isinstance(exc, ParseError) and exc.row is not None:
            location = " (row %s, column %s)" % (exc.row, exc.column)
        print("%s: %s%s" % (type(exc).__name__, exc, location), file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
