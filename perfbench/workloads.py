"""Workload definitions: seeded set-up, timed operations and output checks.

Every workload draws its rows from one survey-shaped population whose
cluster centres and trait distributions are fixed by POPULATION_SEED.  The
run's seed draws the rows, the train/test split, the map initialisation
and the blanked cells, so each seed poses the same estimation problem with
fresh data.  With this population the K=20 logit took 23 to 25 Newton
iterations on each of the run seeds tried; with population seed 2007 it
took 13 to 28, which halves or doubles pipeline_s from seed to seed and
would swamp any code change.

All paths handed to the program are relative to the working directory the
caller sets, so ``report.json`` (which records the config) is the same
bytes for the same seed and code on any machine.
"""

from __future__ import annotations

import dataclasses
import contextlib
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from somalloc import allocation, dataset, logit, pipeline, som, synth
from somalloc.dataset import CategoricalTable, ContinuousTable, Dataset

POPULATION_SEED = 1
UNITS = 20  # level-1 map size (c2: the clusters themselves)
MACRO_UNITS = 5
PROB_SUM_TOL = 1e-12
NEW_MISSING_RATE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n_base: int  # rows of the learning base
    method: str  # "c1" (UNITS reduced to MACRO_UNITS) or "c2" (direct map)
    test_count: int
    n_new: int = 0  # new individuals allocated in the timed phase (alloc only)

    @property
    def n_clusters(self) -> int:
        return MACRO_UNITS if self.method == "c1" else UNITS

    def tiny(self) -> "Workload":
        """A few hundred rows of the same shape, for the smoke test."""
        return dataclasses.replace(self, n_base=600, test_count=60, n_new=min(self.n_new, 300))


WORKLOADS = {
    "survey-k20": Workload("survey-k20", 8809, "c2", 409),
    "survey26k-c1": Workload("survey26k-c1", 26427, "c1", 1227),
    "alloc-30k": Workload("alloc-30k", 8809, "c1", 409, n_new=30000),
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_of(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _rows(d: Dataset, start: int, stop: int) -> Dataset:
    return Dataset(
        d.schema,
        ContinuousTable(d.continuous.values[start:stop], d.continuous.observed[start:stop]),
        CategoricalTable(d.categorical.codes[start:stop]),
    )


def pipeline_config(w: Workload, seed: int, outdir: str) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        continuous_path="in/continuous.csv",
        categorical_path="in/categorical.csv",
        schema_path="in/schema.json",
        outdir=outdir,
        seed=seed,
        test_count=w.test_count,
        method=w.method,
        units=UNITS,
        macro_units=MACRO_UNITS,
        allocation_mode="argmax",
    )


def _timed(span, name):
    return span(name) if span is not None else contextlib.nullcontext()


@dataclass
class SetupResult:
    seconds: float
    sha256: str
    fit_seconds: float | None = None  # the model fit's run_pipeline (alloc only)
    fit_report: dict | None = None
    fit_sha256: str | None = None


def fit_model(w: Workload, seed: int, span=None) -> tuple[float, dict]:
    """The alloc workload's model: ``run_pipeline`` on the learning base,
    writing clustering.json and model.json under ``fit/``."""
    t0 = time.perf_counter()
    with _timed(span, "pipeline.run_pipeline"):
        report = pipeline.run_pipeline(pipeline_config(w, seed, "fit"))
    return time.perf_counter() - t0, report


def setup(w: Workload, seed: int) -> SetupResult:
    """Write the workload's inputs under ``in/`` (and, for alloc, fit the
    model under ``fit/``).  Deterministic in (workload, seed)."""
    t0 = time.perf_counter()
    Path("in").mkdir(exist_ok=True)
    spec = dataclasses.replace(
        synth.GeneratorSpec.survey_shaped(seed=POPULATION_SEED, n=w.n_base + w.n_new),
        seed=seed,
    )
    data, _ = synth.generate(spec)
    base = _rows(data, 0, w.n_base)
    base.schema.save("in/schema.json")
    dataset.save_dataset(base, "in/continuous.csv", "in/categorical.csv")
    files = ["in/schema.json", "in/continuous.csv", "in/categorical.csv"]
    result = SetupResult(seconds=0.0, sha256="")
    if w.n_new:
        result.fit_seconds, result.fit_report = fit_model(w, seed)
        result.fit_sha256 = sha256_of("fit/report.json")
        selected = result.fit_report["selected_variables"]
        keep = [base.schema.continuous_names.index(v) for v in selected]
        new = dataset.subset_continuous(_rows(data, w.n_base, w.n_base + w.n_new), keep)
        codes = new.categorical.codes.copy()
        blank = np.random.default_rng(seed).random(codes.shape) < NEW_MISSING_RATE
        codes[blank] = dataset.MISSING_CODE
        new.schema.save("in/new_schema.json")
        dataset.save_continuous(new.continuous, new.schema, "in/new_continuous.csv")
        dataset.save_categorical(CategoricalTable(codes), new.schema, "in/new_categorical.csv")
        files += ["in/new_schema.json", "in/new_continuous.csv", "in/new_categorical.csv",
                  "fit/report.json", "fit/model.json", "fit/clustering.json"]
    result.seconds = time.perf_counter() - t0
    result.sha256 = sha256_of(*files)
    return result


@dataclass
class RunResult:
    seconds: float
    rows: int  # individuals allocated and scored
    sha256: str  # of the run's result files
    exact_rate: float
    correct_rate: float
    qe: float | None = None


def _check_probabilities(probs: np.ndarray, assigned: np.ndarray, k: int) -> None:
    check(probs.shape[1] == k, f"{probs.shape[1]} probability columns, expected {k}")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    check(worst <= PROB_SUM_TOL, f"probability row sums off by {worst:.3g}")
    check(bool(((assigned >= 0) & (assigned < k)).all()), "allocated label out of range")


def run_pipeline_once(w: Workload, seed: int, outdir: str = "out", span=None) -> RunResult:
    """The analyst's run: ``run_pipeline`` from the CSV paths, then checks.

    ``span`` (a tracer's ``span`` method) wraps the timed call in a root span.
    """
    cfg = pipeline_config(w, seed, outdir)
    t0 = time.perf_counter()
    with _timed(span, "pipeline.run_pipeline"):
        report = pipeline.run_pipeline(cfg)
    seconds = time.perf_counter() - t0

    out = Path(outdir)
    k = w.n_clusters
    check(report["n_clusters"] == k, f"{report['n_clusters']} clusters, expected {k}")
    if w.method == "c1":
        check(isinstance(report["macro_contiguous"], bool), "macro_contiguous missing for c1")
    table = np.loadtxt(out / "allocations.csv", delimiter=",", skiprows=1, ndmin=2)
    _check_probabilities(table[:, 1 : 1 + k], table[:, 1 + k].astype(np.int64), k)
    for name in ("train_labels.csv", "test_true_labels.csv"):
        labels = np.loadtxt(out / name, skiprows=1, dtype=np.int64, ndmin=1)
        check(bool(((labels >= 0) & (labels < k)).all()), f"{name}: label out of range")
    counts = np.loadtxt(out / "contingency.csv", delimiter=",", skiprows=1, dtype=np.int64)
    ev = report["evaluation"]
    check(int(counts[:, 1:].sum()) == w.test_count == ev["total"],
          f"contingency total {int(counts[:, 1:].sum())}, scored rows {w.test_count}")
    return RunResult(
        seconds=seconds,
        rows=w.test_count,
        sha256=sha256_of(out / "report.json"),
        exact_rate=ev["exact_rate"],
        correct_rate=ev["correct_rate"],
        qe=report["quantization_error"],
    )


def run_allocation_once(w: Workload, seed: int, outdir: str = "out", span=None) -> RunResult:
    """The second user's run: parse new individuals, allocate by sampling,
    assign reference classes, write and score."""
    out = Path(outdir)
    out.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    with _timed(span, "alloc.timed_phase"):
        schema = dataset.Schema.load("in/new_schema.json")
        model = logit.load_model("fit/model.json")
        clustering = som.load_clustering("fit/clustering.json")
        categorical = dataset.load_categorical(
            "in/new_categorical.csv", schema, allow_missing=True
        )
        continuous = dataset.load_continuous("in/new_continuous.csv", schema)
        result = allocation.allocate(model, categorical, mode="sample", seed=seed)
        # the allocations writer shared by the CLI's allocate and run_pipeline
        pipeline._save_allocations(result, out / "allocations.csv")
        truth = allocation.true_classes(clustering, continuous)
        dataset.save_labels(truth, out / "true_labels.csv")
        table = allocation.build_contingency(result.assigned, truth, clustering.n_clusters)
        table.save_csv(out / "contingency.csv")
        summary = allocation.evaluate(table)
    seconds = time.perf_counter() - t0

    k = w.n_clusters
    _check_probabilities(result.probabilities, result.assigned, k)
    check(bool(((truth >= 0) & (truth < k)).all()), "reference class out of range")
    check(result.n_rows == w.n_new, f"{result.n_rows} allocations for {w.n_new} rows")
    check(table.total == w.n_new, f"contingency total {table.total}, scored rows {w.n_new}")
    return RunResult(
        seconds=seconds,
        rows=w.n_new,
        sha256=sha256_of(out / "allocations.csv", out / "true_labels.csv",
                         out / "contingency.csv"),
        exact_rate=summary.exact_rate,
        correct_rate=summary.correct_rate,
    )
