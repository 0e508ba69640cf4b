"""A sweep of small survey-shaped inputs and run settings: every run either
completes with outputs that pass the benchmark's checks, or is refused by
an error that somalloc itself raises (never one from inside numpy) at a
stage that reads a setting."""

import tempfile
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import somalloc
from somalloc.dataset import save_dataset
from somalloc.pipeline import PipelineConfig, StageError, run_pipeline
from somalloc.synth import GeneratorSpec, generate

SRC = Path(somalloc.__file__).resolve().parent
# the benchmark's bound on a probability row's distance from 1
PROB_SUM_TOL = 1e-12
# the stages a drawn setting reaches: select-vars (threshold), renormalize
# (what the threshold kept), split (test_count), train (units, macro_units,
# epochs) and fit (max_iter, ridge); the others read only files the test or
# an earlier stage wrote, so an error there is a fault, not a refusal
REFUSING_STAGES = {"select-vars", "renormalize", "split", "train", "fit"}


@st.composite
def sweeps(draw):
    """A survey-shaped set of 40-400 rows with its missing rate and
    dependence drawn, and the config fields the chain's flags set.  Each
    field is drawn over its valid values and a few invalid ones at their
    edges.  Half the draws of a field come from the part of its range
    that usually runs to the end: thresholds below most R2, missing rates
    that leave enough observed rows, maps with a training row per unit,
    fits that reach convergence."""
    n = draw(st.integers(40, 400))
    spec = GeneratorSpec.survey_shaped(
        seed=draw(st.integers(0, 2**16)),
        n=n,
        dependence=draw(st.floats(0.0, 1.0)),
        missing_rate=draw(st.one_of(st.floats(0.0, 0.1), st.floats(0.0, 0.9))),
    )
    fields = {
        "method": draw(st.sampled_from(["c1", "c2"])),
        "units": draw(st.one_of(st.integers(2, 8), st.integers(1, 20))),
        "macro_units": draw(st.one_of(st.integers(2, 6), st.integers(1, 20))),
        "test_count": draw(st.integers(0, n)),
        "threshold": draw(st.one_of(st.floats(0.01, 0.3), st.floats(0.0, 1.0))),
        "epochs": draw(st.one_of(st.integers(1, 3), st.integers(0, 3))),
        "max_iter": draw(st.one_of(st.integers(20, 100), st.integers(-1, 100))),
        "ridge": draw(st.one_of(st.floats(0.0, 1e-3), st.floats(-1.0, 1e6))),
    }
    return spec, fields


def raised_in_somalloc(exc: BaseException) -> bool:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return Path(frame.filename).resolve().is_relative_to(SRC)


def check_outputs(report: dict, cfg: PipelineConfig, outdir: Path) -> None:
    """The benchmark's output checks: probability rows sum to 1, labels are
    in range, and the contingency total equals the scored rows."""
    k = cfg.n_clusters
    assert report["n_clusters"] == k
    table = np.loadtxt(outdir / "allocations.csv", delimiter=",", skiprows=1, ndmin=2)
    assert np.abs(table[:, 1 : 1 + k].sum(axis=1) - 1.0).max() <= PROB_SUM_TOL
    labels = {"allocations.csv": table[:, 1 + k]}
    for name in ("train_labels.csv", "test_true_labels.csv"):
        labels[name] = np.loadtxt(outdir / name, skiprows=1, ndmin=1)
    for name, column in labels.items():
        assert ((column >= 0) & (column < k)).all(), name
    counts = np.loadtxt(outdir / "contingency.csv", delimiter=",", skiprows=1, ndmin=2)
    assert counts[:, 1:].sum() == cfg.test_count == report["evaluation"]["total"]


@pytest.mark.filterwarnings("ignore:logit fit did not converge:RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(sweeps())
def test_every_run_completes_or_is_refused_by_somalloc(drawn):
    spec, fields = drawn
    with tempfile.TemporaryDirectory() as tmp:
        data_dir, outdir = Path(tmp, "data"), Path(tmp, "run")
        data_dir.mkdir()
        dataset, _ = generate(spec)
        dataset.schema.save(data_dir / "schema.json")
        save_dataset(dataset, data_dir / "continuous.csv", data_dir / "categorical.csv")
        try:
            cfg = PipelineConfig(
                continuous_path=str(data_dir / "continuous.csv"),
                categorical_path=str(data_dir / "categorical.csv"),
                schema_path=str(data_dir / "schema.json"),
                outdir=str(outdir),
                seed=spec.seed,
                **fields,
            )
        except ValueError as exc:
            # fewer than two clusters is refused before any stage runs
            assert raised_in_somalloc(exc), exc
            event("refused by the config")
            return
        try:
            report = run_pipeline(cfg)
        except StageError as exc:
            assert raised_in_somalloc(exc.__cause__), repr(exc.__cause__)
            assert exc.stage in REFUSING_STAGES, exc
            event(f"refused at [{exc.stage}]")
            return
        check_outputs(report, cfg, outdir)
        event("completed")
