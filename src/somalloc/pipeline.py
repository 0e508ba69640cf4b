"""End-to-end pipeline: screen, renormalize, split, cluster, describe,
fit, allocate, score.

Every stage writes its artifact to the output directory, so each stage can
also be run (and inspected) in isolation through the CLI, whose ``train``
and ``describe`` subcommands call the same stage bodies as ``run``.  A stage failure
aborts the run with the stage name attached; artifacts written so far are
kept.  Reports are plain JSON with sorted keys and shortest round-trip
float formatting, so two runs with the same config produce byte-identical
files.
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import dataclass
from pathlib import Path

from . import allocation, logit, profiles, som, varselect
from .dataset import (
    ContinuousTable,
    Dataset,
    Schema,
    load_dataset,
    save_dataset,
    save_labels,
    split_dataset,
    subset_continuous,
)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@dataclass
class PipelineConfig:
    continuous_path: str
    categorical_path: str
    schema_path: str
    outdir: str
    seed: int
    test_count: int
    threshold: float = 0.08
    method: str = "c2"  # "c1": big map reduced to macro clusters; "c2": direct map
    units: int = 5
    macro_units: int = 5
    epochs: int = 10
    lr_start: float = 0.5
    lr_end: float = 0.01
    radius_start: int | None = None
    radius_end: int = 0
    tol: float = 1e-8
    max_iter: int = 100
    ridge: float = 1e-6
    allocation_mode: str = "argmax"

    def __post_init__(self):
        if self.method not in ("c1", "c2"):
            raise ValueError(f"method must be 'c1' or 'c2', got {self.method!r}")
        if self.seed is None:
            raise ValueError("seed is mandatory")

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@contextlib.contextmanager
def _stage(name):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def train_clustering(
    table: ContinuousTable,
    dimensions: tuple[str, ...],
    cfg: som.SomConfig,
    macro_units: int | None,
    path,
) -> tuple[som.Codebook | som.TwoLevelClustering, float]:
    """Train the level-1 map, reduce it to ``macro_units`` macro clusters
    when given, save the clustering to ``path`` and return it with the
    level-1 quantization error."""
    level1 = som.train_som(table, cfg, dimensions=dimensions)
    clustering = level1
    if macro_units is not None:
        clustering = som.reduce_codebook(level1, macro_units, cfg)
    som.save_clustering(clustering, path)
    return clustering, som.quantization_error(level1, table)


def describe(d: Dataset, labels, k: int, outdir: Path) -> None:
    """Write the cluster statistics, modality test values and profile chart."""
    profs = profiles.describe_clusters(d, labels, k)
    profiles.save_continuous_stats_csv(profs, d.schema, outdir / "cluster_stats.csv")
    profiles.save_modality_csv(profs, d.schema, outdir / "cluster_modalities.csv")
    (outdir / "cluster_profiles.svg").write_text(
        profiles.mean_profile_svg(profs, d.schema), encoding="utf-8"
    )


def run_pipeline(cfg: PipelineConfig, dataset: Dataset | None = None) -> dict:
    """Run every stage and return (and write) the final report.

    A pre-loaded dataset skips the ingestion stage; paths in the config are
    then only used for provenance.
    """
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if dataset is None:
        with _stage("load"):
            schema = Schema.load(cfg.schema_path)
            dataset = load_dataset(cfg.continuous_path, cfg.categorical_path, schema)

    with _stage("select-vars"):
        report = varselect.select_variables(dataset, cfg.threshold)
        report.save_csv(outdir / "anova.csv")

    with _stage("renormalize"):
        keep = report.selected_indices
        if not keep:
            raise ValueError(
                f"no continuous variable reaches R2 >= {cfg.threshold}; nothing to cluster"
            )
        reduced = subset_continuous(dataset, keep)
        save_dataset(reduced, outdir / "reduced_continuous.csv", outdir / "categorical.csv")

    with _stage("split"):
        train, test = split_dataset(reduced, cfg.test_count, cfg.seed)

    with _stage("train"):
        som_cfg = som.SomConfig(
            units=cfg.units,
            epochs=cfg.epochs,
            lr_start=cfg.lr_start,
            lr_end=cfg.lr_end,
            radius_start=cfg.radius_start,
            radius_end=cfg.radius_end,
            seed=cfg.seed,
        )
        macro_units = cfg.macro_units if cfg.method == "c1" else None
        clustering, qe = train_clustering(
            train.continuous,
            train.schema.continuous_names,
            som_cfg,
            macro_units,
            outdir / "clustering.json",
        )
        labels_train = som.cluster_labels(clustering, train.continuous)
        save_labels(labels_train, outdir / "train_labels.csv")
        n_clusters = clustering.n_clusters

    with _stage("describe"):
        describe(train, labels_train, n_clusters, outdir)

    with _stage("fit"):
        spec = logit.EncodingSpec.from_schema(train.schema)
        model = logit.fit_logit(
            train.categorical,
            labels_train,
            n_clusters,
            spec,
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            ridge=cfg.ridge,
        )
        logit.save_model(model, outdir / "model.json")

    with _stage("allocate"):
        result = allocation.allocate(
            model, test.categorical, mode=cfg.allocation_mode, seed=cfg.seed
        )
        _save_allocations(result, outdir / "allocations.csv")

    with _stage("true-class"):
        truth = allocation.true_classes(clustering, test.continuous)
        save_labels(truth, outdir / "test_true_labels.csv")

    with _stage("evaluate"):
        table = allocation.build_contingency(result.assigned, truth, n_clusters)
        table.save_csv(outdir / "contingency.csv")
        summary = allocation.evaluate(table)

    report_dict = {
        "version": 1,
        "config": cfg.to_dict(),
        "n_rows": dataset.n_rows,
        "n_train": train.n_rows,
        "n_test": test.n_rows,
        "selected_variables": list(report.selected_names),
        "dropped_variables": [
            v.name for v in report.variables if not v.selected
        ],
        "n_clusters": n_clusters,
        "quantization_error": qe,
        "macro_contiguous": None if macro_units is None else clustering.contiguous,
        "fit": {
            "log_likelihood": model.diagnostics.log_likelihood,
            "gradient_max": model.diagnostics.gradient_max,
            "iterations": model.diagnostics.iterations,
            "ridge": model.diagnostics.ridge,
            "converged": model.diagnostics.converged,
        },
        "evaluation": summary.to_dict(),
    }
    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report_dict


def _save_allocations(result, path) -> None:
    k = result.probabilities.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["row"] + [f"p{j}" for j in range(k)] + ["assigned", "missing_cells"]
        )
        for i in range(result.n_rows):
            writer.writerow(
                [i]
                + [repr(float(v)) for v in result.probabilities[i]]
                + [int(result.assigned[i]), int(result.missing_counts[i])]
            )
