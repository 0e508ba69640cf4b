"""Command line interface: one subcommand per pipeline stage plus ``run``.

Stages hand data off through files (CSV/JSON), so any stage can be run and
tested in isolation.  Each subcommand parses its flags and calls the stage
function ``run`` calls, so the chain ``select-vars`` → ``train`` →
``label`` → ``describe`` → ``fit`` → ``allocate`` → ``label`` →
``evaluate`` writes ``run``'s files byte for byte.  Exit code 0 on
success; failures print a stage-tagged message and return a nonzero code.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import allocation, logit, som
from .dataset import (
    Schema,
    load_categorical,
    load_continuous,
    load_dataset,
    load_labels,
    save_dataset,
    save_labels,
    write_json,
)
from .pipeline import (
    PipelineConfig,
    StageError,
    _save_allocations,
    describe,
    reference_classes,
    run_pipeline,
    score,
    screen,
    train_clustering,
)
from .synth import GeneratorSpec, generate


def _cmd_synth(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spec = GeneratorSpec.survey_shaped(
        seed=args.seed,
        n=args.n,
        clusters=args.clusters,
        dependence=args.dependence,
        missing_rate=args.missing_rate,
        noise_scale=args.noise,
    )
    dataset, labels = generate(spec)
    dataset.schema.save(outdir / "schema.json")
    save_dataset(dataset, outdir / "continuous.csv", outdir / "categorical.csv")
    save_labels(labels, outdir / "true_labels.csv")
    print(f"wrote {dataset.n_rows} rows to {outdir}")
    return 0


def _cmd_select_vars(args) -> int:
    schema = Schema.load(args.schema)
    dataset = load_dataset(args.continuous, args.categorical, schema)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report, train, test = screen(dataset, args.threshold, args.test_count, args.seed, outdir)
    kept = len(report.selected_indices)
    print(
        f"selected {kept}/{len(report.variables)} variables (R2 >= {args.threshold}); "
        f"{train.n_rows} train and {test.n_rows} test rows in {outdir}"
    )
    return 0


def _cmd_train(args) -> int:
    k2 = args.units if args.macro_units is None else args.macro_units
    for flag, value in (("--units", args.units), ("--macro-units", k2)):
        if value < 2:
            raise ValueError(f"{flag} must be at least 2, got {value}")
    schema = Schema.load(args.schema)
    table = load_continuous(args.continuous, schema)
    cfg = som.SomConfig(units=args.units, epochs=args.epochs, seed=args.seed)
    _, qe, _ = train_clustering(table, schema.continuous_names, cfg, k2, args.out)
    print(f"trained {args.units} units -> {k2} macro clusters; quantization error {qe:.6g}")
    return 0


def _cmd_label(args) -> int:
    schema = Schema.load(args.schema)
    clustering = som.load_clustering(args.clustering)
    table = load_continuous(args.continuous, schema)
    labels = reference_classes(clustering, args.clustering, table, schema)
    save_labels(labels, args.out)
    print(f"labelled {len(labels)} rows with {clustering.n_clusters} clusters to {args.out}")
    return 0


def _cmd_describe(args) -> int:
    schema = Schema.load(args.schema)
    clustering = som.load_clustering(args.clustering)
    dataset = load_dataset(args.continuous, args.categorical, schema)
    labels = reference_classes(clustering, args.clustering, dataset.continuous, schema)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    describe(dataset, labels, clustering.n_clusters, outdir)
    print(f"described {clustering.n_clusters} clusters in {outdir}")
    return 0


def _cmd_fit(args) -> int:
    schema = Schema.load(args.schema)
    table = load_categorical(args.categorical, schema)
    labels = load_labels(args.labels)
    model = logit.fit_logit(
        table,
        labels,
        args.classes,
        schema.categorical_vars,
        tol=args.tol,
        max_iter=args.max_iter,
        ridge=args.ridge,
    )
    logit.save_model(model, args.out)
    d = model.diagnostics
    print(
        f"fit {args.classes} classes: ll={d.log_likelihood:.4f} "
        f"|grad|={d.gradient_max:.3g} iters={d.iterations} ridge={d.ridge:g} "
        f"converged={d.converged}"
    )
    return 0


def _cmd_allocate(args) -> int:
    model = logit.load_model(args.model)
    table = load_categorical(args.categorical, model, allow_missing=True)
    result = allocation.allocate(model, table, mode=args.mode, seed=args.seed)
    _save_allocations(result, args.out)
    print(f"allocated {result.n_rows} individuals ({args.mode}) to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    allocated = load_labels(args.allocated)
    truth = load_labels(args.truth)
    summary = score(allocated, truth, args.classes, args.out_table)
    write_json(args.out_metrics, summary.to_dict())
    print(
        f"exact {summary.exact}/{summary.total} ({summary.exact_rate:.2%}), "
        f"correct {summary.correct}/{summary.total} ({summary.correct_rate:.2%})"
    )
    return 0


def _cmd_run(args) -> int:
    cfg = PipelineConfig.load(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_pipeline(cfg)
    ev = report["evaluation"]
    print(
        f"pipeline done: {report['n_clusters']} clusters, "
        f"exact_rate={ev['exact_rate']:.4f}, correct_rate={ev['correct_rate']:.4f} "
        f"(report in {cfg.outdir})"
    )
    return 0


def _seed(text: str) -> int:
    """The type of every ``--seed`` option: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somalloc",
        description=(
            "Cluster consumers from continuous shares with 1-d self-organizing "
            "maps, then allocate new individuals from categorical data alone."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic survey-shaped dataset")
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--n", type=int, default=8809)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--dependence", type=float, default=0.8)
    p.add_argument("--missing-rate", type=float, default=0.02)
    p.add_argument("--noise", type=float, default=1.5)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("select-vars", help="screen by ANOVA R2, renormalize, split train/test")
    p.add_argument("--continuous", required=True)
    p.add_argument("--categorical", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--threshold", type=float, default=0.08)
    p.add_argument("--test-count", type=int, required=True,
                   help="rows drawn into the test part of the reduced base")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_select_vars)

    p = sub.add_parser("train", help="train the 1-d map and split it into macro clusters")
    p.add_argument("--continuous", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--units", type=int, required=True)
    p.add_argument("--macro-units", type=int,
                   help="split the string into this many contiguous macro clusters "
                        "(default: --units, one per unit)")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("label", help="reference class of each continuous row under a clustering")
    p.add_argument("--clustering", required=True)
    p.add_argument("--continuous", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("describe", help="cluster statistics, test values and profile chart")
    p.add_argument("--continuous", required=True)
    p.add_argument("--categorical", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--clustering", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("fit", help="fit the categorical-only membership model")
    p.add_argument("--categorical", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("allocate", help="allocate new individuals (missing cells allowed)")
    p.add_argument("--model", required=True)
    p.add_argument("--categorical", required=True,
                   help="new individuals, read against the model's variables and modalities")
    p.add_argument("--mode", choices=allocation.MODES, default="argmax")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("evaluate", help="contingency table and exact/correct rates")
    p.add_argument("--allocated", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out-table", required=True)
    p.add_argument("--out-metrics", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="run the full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
