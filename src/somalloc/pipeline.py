"""End-to-end pipeline: screen, renormalize, split, cluster, describe,
fit, allocate, score.

Each stage's logic lives here once: ``run_pipeline`` is the composition of
the stage functions below, and each CLI subcommand parses its flags and
calls the same function (fit and allocate are one library call plus a
save, which both callers make directly).  Every stage writes its artifact
to the output directory, so the stage-by-stage CLI chain writes ``run``'s
files byte for byte.  A stage failure aborts the run with the stage name
attached; artifacts written so far are kept.  Reports are plain JSON with
sorted keys and shortest round-trip float formatting, so two runs with the
same config produce byte-identical files.
"""

from __future__ import annotations

import contextlib
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import allocation, logit, profiles, som, varselect
from .dataset import (
    ContinuousTable,
    DataError,
    Dataset,
    Schema,
    float_lines,
    json_field,
    load_dataset,
    read_json,
    save_dataset,
    save_labels,
    split_dataset,
    subset_continuous,
    write_csv,
    write_json,
)


# JSON kind of each field type of PipelineConfig, as annotated
_JSON_KINDS = {"str": str, "int": int, "float": float, "int | None": int}


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
    # the string is split into contiguous macro clusters: "c1" into
    # macro_units of them, "c2" into one per unit
    method: str = "c2"
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
        if self.allocation_mode not in allocation.MODES:
            raise ValueError(
                f"allocation_mode must be one of {list(allocation.MODES)}, "
                f"got {self.allocation_mode!r}"
            )
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.n_clusters < 2:
            field = "macro_units" if self.method == "c1" else "units"
            raise ValueError(
                f"{field} must be at least 2 for method {self.method!r}, "
                f"got {self.n_clusters!r}"
            )

    @property
    def n_clusters(self) -> int:
        """The number of macro clusters the map's string is split into."""
        return self.macro_units if self.method == "c1" else self.units

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """The config in ``d``, each field checked against its declared type:
        an absent field keeps its default, and an ``int | None`` one may be
        null."""
        declared = {f.name: f for f in fields(cls)}
        unknown = set(d) - set(declared)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values = {}
        for name, f in declared.items():
            if name not in d and f.default is not MISSING:
                continue
            value = d[name]
            # the seed's type and range are checked together in __post_init__
            if name != "seed" and not (value is None and f.type.endswith("| None")):
                json_field(d, name, _JSON_KINDS[f.type])
            values[name] = value
        return cls(**values)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return read_json(path, cls.from_dict)


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
    k2: int,
    path,
) -> tuple[som.TwoLevelClustering, float, np.ndarray]:
    """Train the level-1 map, split its string into ``k2`` macro clusters,
    save the clustering to ``path`` and return it with the level-1
    quantization error and the cluster label of every row of ``table``; the
    error, the hits and the labels share one distance pass."""
    level1 = som.train_som(table, cfg, dimensions=dimensions)
    dist = som._masked_distances(table.values, table.observed, level1.code_vectors)
    best = dist.argmin(axis=1)
    clustering = som.reduce_codebook(level1, k2, best)
    som.save_clustering(clustering, path)
    return clustering, float(dist.min(axis=1).mean()), clustering.macro_of_unit[best]


def screen(
    dataset: Dataset, threshold: float, test_count: int, seed: int, outdir: Path
) -> tuple[varselect.AnovaReport, Dataset, Dataset]:
    """Screen, renormalize and split the learning base; writes ``anova.csv``,
    ``reduced_schema.json`` and ``{train,test}_{continuous,categorical}.csv``."""
    with _stage("select-vars"):
        report = varselect.select_variables(dataset, threshold)
        report.save_csv(outdir / "anova.csv")

    with _stage("renormalize"):
        keep = report.selected_indices
        if not keep:
            raise ValueError(
                f"no continuous variable reaches R2 >= {threshold}; nothing to cluster"
            )
        reduced = subset_continuous(dataset, keep)
        reduced.schema.save(outdir / "reduced_schema.json")

    with _stage("split"):
        train, test = split_dataset(reduced, test_count, seed)
        for name, part in (("train", train), ("test", test)):
            save_dataset(
                part, outdir / f"{name}_continuous.csv", outdir / f"{name}_categorical.csv"
            )
    return report, train, test


def reference_classes(
    clustering, path, table: ContinuousTable, schema: Schema
) -> np.ndarray:
    """Cluster of each row of ``table``, read against ``schema``, under the
    clustering saved at ``path``; refused unless the schema's continuous
    variables are the clustering's dimensions."""
    if clustering.dimensions != schema.continuous_names:
        raise DataError(
            f"{path}: clustering dimensions {list(clustering.dimensions)} "
            f"do not match the schema's continuous variables "
            f"{list(schema.continuous_names)}"
        )
    return allocation.true_classes(clustering, table)


def describe(d: Dataset, labels, k: int, outdir: Path) -> None:
    """Write the cluster statistics, modality test values and profile chart."""
    profs = profiles.describe_clusters(d, labels, k)
    profiles.save_continuous_stats_csv(profs, d.schema, outdir / "cluster_stats.csv")
    profiles.save_modality_csv(profs, d.schema, outdir / "cluster_modalities.csv")
    (outdir / "cluster_profiles.svg").write_text(
        profiles.mean_profile_svg(profs, d.schema), encoding="utf-8"
    )


def score(assigned, truth, k: int, path) -> allocation.EvaluationSummary:
    """Save the allocated × reference contingency table to ``path`` and
    return its exact and correct rates."""
    table = allocation.build_contingency(assigned, truth, k)
    table.save_csv(path)
    return allocation.evaluate(table)


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

    report, train, test = screen(dataset, cfg.threshold, cfg.test_count, cfg.seed, outdir)

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
        clustering, qe, labels_train = train_clustering(
            train.continuous,
            train.schema.continuous_names,
            som_cfg,
            cfg.n_clusters,
            outdir / "clustering.json",
        )
        save_labels(labels_train, outdir / "train_labels.csv")
        n_clusters = clustering.n_clusters

    with _stage("describe"):
        describe(train, labels_train, n_clusters, outdir)

    with _stage("fit"):
        model = logit.fit_logit(
            train.categorical,
            labels_train,
            n_clusters,
            train.schema.categorical_vars,
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
        truth = reference_classes(
            clustering, outdir / "clustering.json", test.continuous, test.schema
        )
        save_labels(truth, outdir / "test_true_labels.csv")

    with _stage("evaluate"):
        summary = score(result.assigned, truth, n_clusters, outdir / "contingency.csv")

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
        # every split is contiguous, so this only names the method; it stays
        # because perfbench checks it on c1 reports
        "macro_contiguous": True if cfg.method == "c1" else None,
        "fit": model.diagnostics.to_dict(),
        "evaluation": summary.to_dict(),
    }
    write_json(outdir / "report.json", report_dict)
    return report_dict


def _save_allocations(result, path) -> None:
    k = result.probabilities.shape[1]
    header = ["row"] + [f"p{j}" for j in range(k)] + ["assigned", "missing_cells"]
    lines = map(
        "{},{},{},{}".format,
        range(result.n_rows),
        float_lines(result.probabilities),
        result.assigned.tolist(),
        result.missing_counts.tolist(),
    )
    write_csv(path, header, lines)
