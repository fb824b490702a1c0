"""Command-line entry points wiring the pipeline end to end.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .dataio import MODEL_MEMBERS, RunConfig, ingest, load_config
from .ensemble import hard_vote, mann_whitney_u, significance_stars, \
    soft_vote, task_scores
from .nn import NumericError
from .pipeline import CvContext, train_model_cv
from .preprocess import DataError
from .rundir import DependencyError, fold_file, load_fold_runs, read_scores, \
    setup_of, write_manifest, write_predictions
from .synth import SynthSpec, gen_synth


def cmd_gen_synth(args) -> int:
    spec = load_config(args.spec, SynthSpec) if args.spec else SynthSpec()
    if args.seed is not None:
        spec.seed = args.seed
    spec.validate()
    train_path, test_path = gen_synth(spec, args.out)
    write_manifest(args.out, [(os.path.basename(train_path), "train"),
                              (os.path.basename(test_path), "test")])
    print(f"wrote {train_path} and {test_path}")
    return 0


def _run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for key in ("model", "setup", "folds", "seed", "jobs"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if args.data:
        if not os.path.isdir(args.data):
            raise DataError(f"--data {args.data} is not a directory")
        cfg.dataset = os.path.join(args.data, "train.tsv")
        cfg.image_dir = os.path.join(args.data, "images")
    if args.out:
        cfg.out_dir = args.out
    cfg.validate()
    if not cfg.dataset or not cfg.out_dir:
        raise DataError("train needs --data (or dataset in the config) "
                        "and --out")
    for path in (cfg.out_dir, os.path.join(cfg.out_dir, cfg.model)):
        if os.path.exists(path) and not os.path.isdir(path):
            raise DataError(f"{path} is not a directory; train writes its "
                            f"run under {cfg.out_dir}")
    return cfg


def cmd_train(args) -> int:
    cfg = _run_config(args)
    train_samples = ingest(cfg.dataset, cfg.image_dir)
    test_samples = ingest(os.path.join(os.path.dirname(cfg.dataset),
                                       "test.tsv"), cfg.image_dir)
    ctx = CvContext(train_samples, test_samples, cfg)
    train_model_cv(ctx, cfg.model, cfg.out_dir, jobs=cfg.jobs)
    return 0


def _test_labels(test_dir: str):
    samples = ingest(os.path.join(test_dir, "test.tsv"),
                     os.path.join(test_dir, "images"))
    y_mis = np.array([s.labels.mis for s in samples])
    y_sub = np.stack([s.labels.sub_labels() for s in samples]).astype(int)
    return [s.id for s in samples], y_mis, y_sub


def _score_line(model: str, fold, probs, y_mis, y_sub) -> str:
    task_a, weighted = task_scores(probs, y_mis, y_sub)
    task_b = "" if weighted is None else f"{weighted:.4f}"
    return f"{model}\t{fold}\t{task_a:.4f}\t{task_b}"


def _check_samples(model_dirs, model_runs, ids, reference: str) -> None:
    """Refuse the first fold predictions whose sample ids are not `ids`."""
    for model_dir, runs in zip(model_dirs, model_runs):
        for run in runs:
            if run.test_ids != ids:
                raise DataError(
                    f"{fold_file('predictions', run.fold, model_dir)} "
                    f"predicts other samples than {reference}")


def cmd_evaluate(args) -> int:
    ids, y_mis, y_sub = _test_labels(args.test)
    models = sorted(d for d in os.listdir(args.runs)
                    if os.path.isdir(os.path.join(args.runs, d))
                    and d in MODEL_MEMBERS)
    if not models:
        raise DataError(f"no trained model directories under {args.runs}")
    model_runs = [load_fold_runs(args.runs, model) for model in models]
    _check_samples([os.path.join(args.runs, m) for m in models], model_runs,
                   ids, os.path.join(args.test, "test.tsv"))
    print("model\tfold\ttaskA_macro_f1\ttaskB_weighted_f1")
    for model, runs in zip(models, model_runs):
        for run in runs:
            print(_score_line(model, run.fold, run.test_probs, y_mis, y_sub))
        print(_score_line(model, "soft-vote", soft_vote(runs).probabilities,
                          y_mis, y_sub))
    return 0


def _model_dir_runs(model_dir: str):
    root, name = os.path.split(os.path.normpath(model_dir))
    return load_fold_runs(root, name)


def cmd_ensemble(args) -> int:
    if os.path.isdir(args.out):
        raise DataError(f"--out {args.out} is a directory; ensemble writes "
                        f"a predictions file")
    if args.mode == "soft" and len(args.runs) != 1:
        raise DataError("soft voting takes exactly one model directory")
    model_runs = [_model_dir_runs(d) for d in args.runs]
    first = model_runs[0][0]
    _check_samples(args.runs, model_runs, first.test_ids,
                   fold_file("predictions", first.fold, args.runs[0]))
    width = first.test_probs.shape[1]
    for model_dir, runs in zip(args.runs, model_runs):
        other = runs[0].test_probs.shape[1]
        if other != width:
            raise DataError(
                f"{model_dir} holds setup {setup_of(other)} predictions and "
                f"{args.runs[0]} setup {setup_of(width)} ones; vote over "
                f"one setup")
    votes = [soft_vote(runs) for runs in model_runs]
    if args.mode == "soft":
        probs = votes[0].probabilities
    else:  # hard votes are 0/1 "probabilities"
        probs = hard_vote([v.labels for v in votes]).astype(float)
    write_predictions(args.out, first.test_ids, probs)
    print(f"wrote {args.out}")
    return 0


def cmd_significance(args) -> int:
    u, p = mann_whitney_u(read_scores(args.a, "test_taskA_f1"),
                          read_scores(args.b, "test_taskA_f1"))
    print("U\tp_two_sided\tstars")
    print(f"{u:.17g}\t{p:.17g}\t{significance_stars(p)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memefuse",
        description="bi-modal meme classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="synth spec file (key = value lines)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="k-fold training of one model")
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--model", choices=sorted(MODEL_MEMBERS))
    p.add_argument("--setup", choices=["A", "B"])
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="per-fold and soft-vote F1 scores")
    p.add_argument("--runs", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="soft or hard voting predictions")
    p.add_argument("--runs", nargs="+", required=True,
                   help="model run directories")
    p.add_argument("--mode", choices=["soft", "hard"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("significance", help="Mann-Whitney U over fold F1s")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_significance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (DataError, DependencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
