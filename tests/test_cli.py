import json

import numpy as np
import pytest

from somalloc.cli import main
from somalloc.dataset import Schema, load_labels
from somalloc.pipeline import PipelineConfig, run_pipeline
from somalloc.som import load_clustering



@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Small synthetic dataset written once for the whole module."""
    outdir = tmp_path_factory.mktemp("data")
    rc = main(
        [
            "synth",
            "--outdir",
            str(outdir),
            "--seed",
            "42",
            "--n",
            "1200",
            "--missing-rate",
            "0.02",
        ]
    )
    assert rc == 0
    return outdir


def pipeline_config(data_dir, outdir, **overrides):
    cfg = {
        "continuous_path": str(data_dir / "continuous.csv"),
        "categorical_path": str(data_dir / "categorical.csv"),
        "schema_path": str(data_dir / "schema.json"),
        "outdir": str(outdir),
        "seed": 7,
        "test_count": 200,
        "method": "c2",
        "units": 5,
        "epochs": 6,
    }
    cfg.update(overrides)
    return cfg


class TestSubcommands:
    def test_synth_writes_expected_files(self, data_dir):
        for name in ("schema.json", "continuous.csv", "categorical.csv", "true_labels.csv"):
            assert (data_dir / name).exists()
        schema = Schema.load(data_dir / "schema.json")
        assert schema.p == 19
        assert load_labels(data_dir / "true_labels.csv").shape == (1200,)

    def test_select_vars(self, data_dir, tmp_path):
        out = tmp_path / "anova.csv"
        rc = main(
            [
                "select-vars",
                "--continuous", str(data_dir / "continuous.csv"),
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 20  # header + 19 variables

    def test_train_direct_and_two_level(self, data_dir, tmp_path):
        out = tmp_path / "cb.json"
        rc = main(
            [
                "train",
                "--continuous", str(data_dir / "continuous.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--units", "5",
                "--epochs", "5",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert load_clustering(out).n_clusters == 5

        out2 = tmp_path / "two.json"
        rc = main(
            [
                "train",
                "--continuous", str(data_dir / "continuous.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--units", "20",
                "--macro-units", "4",
                "--epochs", "5",
                "--seed", "1",
                "--out", str(out2),
            ]
        )
        assert rc == 0
        two = load_clustering(out2)
        assert two.n_clusters == 4
        assert two.level1.units == 20

    def test_stagewise_chain(self, data_dir, tmp_path):
        cb = tmp_path / "cb.json"
        main(
            [
                "train",
                "--continuous", str(data_dir / "continuous.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--units", "4",
                "--epochs", "5",
                "--seed", "2",
                "--out", str(cb),
            ]
        )
        rc = main(
            [
                "describe",
                "--continuous", str(data_dir / "continuous.csv"),
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--clustering", str(cb),
                "--outdir", str(tmp_path / "desc"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "desc" / "cluster_stats.csv").exists()
        assert (tmp_path / "desc" / "cluster_modalities.csv").exists()
        svg = (tmp_path / "desc" / "cluster_profiles.svg").read_text()
        assert svg.startswith("<svg")

        # fit on the planted labels, then allocate the same individuals
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--labels", str(data_dir / "true_labels.csv"),
                "--classes", "5",
                "--out", str(model_path),
            ]
        )
        assert rc == 0
        model = json.loads(model_path.read_text())
        assert model["classes"] == 5
        assert model["diagnostics"]["converged"]

        alloc_path = tmp_path / "alloc.csv"
        rc = main(
            [
                "allocate",
                "--model", str(model_path),
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--out", str(alloc_path),
            ]
        )
        assert rc == 0
        lines = alloc_path.read_text().strip().splitlines()
        assert len(lines) == 1201
        probs = np.array([[float(v) for v in ln.split(",")[1:6]] for ln in lines[1:]])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

        rc = main(
            [
                "evaluate",
                "--allocated", str(alloc_path),
                "--truth", str(data_dir / "true_labels.csv"),
                "--classes", "5",
                "--out-table", str(tmp_path / "table.csv"),
                "--out-metrics", str(tmp_path / "metrics.json"),
            ]
        )
        assert rc == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["total"] == 1200
        assert metrics["exact"] <= metrics["correct"] <= 1200
        # planted labels vs logit trained on them: far better than chance
        assert metrics["correct_rate"] > 0.5

    def test_allocate_accepts_missing_cells(self, data_dir, tmp_path):
        model_path = tmp_path / "model.json"
        main(
            [
                "fit",
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--labels", str(data_dir / "true_labels.csv"),
                "--classes", "5",
                "--out", str(model_path),
            ]
        )
        # blank out some cells in a copy of the categorical file
        lines = (data_dir / "categorical.csv").read_text().splitlines()
        rows = [lines[0]]
        for ln in lines[1:6]:
            cells = ln.split(",")
            cells[0] = ""
            cells[3] = ""
            rows.append(",".join(cells))
        newfile = tmp_path / "new_individuals.csv"
        newfile.write_text("\n".join(rows) + "\n")
        out = tmp_path / "alloc.csv"
        rc = main(
            [
                "allocate",
                "--model", str(model_path),
                "--categorical", str(newfile),
                "--schema", str(data_dir / "schema.json"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert all(ln.endswith(",2") for ln in lines[1:])  # 2 missing cells per row

    def test_missing_file_is_reported(self, tmp_path, capsys):
        rc = main(
            [
                "select-vars",
                "--continuous", str(tmp_path / "nope.csv"),
                "--categorical", str(tmp_path / "nope2.csv"),
                "--schema", str(tmp_path / "schema.json"),
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestArtifactChecks:
    """Saved artifacts are refused when the files they are applied to have
    a different layout."""

    def test_allocate_refuses_schema_that_differs_from_model(
        self, data_dir, tmp_path, capsys
    ):
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--labels", str(data_dir / "true_labels.csv"),
                "--classes", "5",
                "--out", str(model_path),
            ]
        )
        assert rc == 0
        # same labels, reversed modality order: every file still parses
        schema = json.loads((data_dir / "schema.json").read_text())
        var = schema["categorical"][2]
        var["modalities"].reverse()
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema))
        out = tmp_path / "alloc.csv"
        rc = main(
            [
                "allocate",
                "--model", str(model_path),
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(schema_path),
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"categorical variable {var['name']!r}" in err
        assert not out.exists()

    def test_describe_refuses_clustering_of_other_variables(
        self, data_dir, tmp_path, capsys
    ):
        cb = tmp_path / "cb.json"
        rc = main(
            [
                "train",
                "--continuous", str(data_dir / "continuous.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--units", "4",
                "--epochs", "2",
                "--seed", "2",
                "--out", str(cb),
            ]
        )
        assert rc == 0
        # swap the first two continuous columns in both schema and file: a
        # consistent pair, but not the layout the map was trained on
        schema = json.loads((data_dir / "schema.json").read_text())
        names = schema["continuous"]
        names[0], names[1] = names[1], names[0]
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema))
        lines = (data_dir / "continuous.csv").read_text().splitlines()
        swapped = []
        for ln in lines:
            cells = ln.split(",")
            cells[0], cells[1] = cells[1], cells[0]
            swapped.append(",".join(cells))
        continuous = tmp_path / "continuous.csv"
        continuous.write_text("\n".join(swapped) + "\n")
        rc = main(
            [
                "describe",
                "--continuous", str(continuous),
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(schema_path),
                "--clustering", str(cb),
                "--outdir", str(tmp_path / "desc"),
            ]
        )
        assert rc == 2
        assert "clustering dimensions" in capsys.readouterr().err
        assert not (tmp_path / "desc" / "cluster_stats.csv").exists()

    def test_evaluate_reports_empty_file(self, data_dir, tmp_path, capsys):
        empty = tmp_path / "alloc.csv"
        empty.write_text("")
        rc = main(
            [
                "evaluate",
                "--allocated", str(empty),
                "--truth", str(data_dir / "true_labels.csv"),
                "--classes", "5",
                "--out-table", str(tmp_path / "table.csv"),
                "--out-metrics", str(tmp_path / "metrics.json"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error [evaluate] {empty}: empty file"


class TestRunCommand:
    def test_full_run(self, data_dir, tmp_path):
        outdir = tmp_path / "run"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(pipeline_config(data_dir, outdir)))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["n_train"] == 1000
        assert report["n_test"] == 200
        assert len(report["selected_variables"]) == 14
        assert len(report["dropped_variables"]) == 5
        assert report["evaluation"]["total"] == 200
        for artifact in (
            "anova.csv",
            "clustering.json",
            "cluster_stats.csv",
            "cluster_modalities.csv",
            "cluster_profiles.svg",
            "model.json",
            "allocations.csv",
            "contingency.csv",
        ):
            assert (outdir / artifact).exists()

    def test_seed_override(self, data_dir, tmp_path):
        outdir = tmp_path / "run"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(pipeline_config(data_dir, outdir)))
        rc = main(["run", "--config", str(cfg_path), "--seed", "99"])
        assert rc == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["config"]["seed"] == 99

    def test_degenerate_threshold_aborts_at_renormalize(
        self, data_dir, tmp_path, capsys
    ):
        outdir = tmp_path / "run"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(pipeline_config(data_dir, outdir, threshold=0.999999))
        )
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "renormalize" in err
        # the stage before the failure still left its artifact behind
        assert (outdir / "anova.csv").exists()

    def test_unknown_config_key_rejected(self, data_dir, tmp_path):
        cfg = pipeline_config(data_dir, tmp_path / "run")
        cfg["typo_key"] = 1
        with pytest.raises(ValueError, match="typo_key"):
            PipelineConfig.from_dict(cfg)


class TestPipelineDeterminism:
    def test_reports_byte_identical(self, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            outdir = tmp_path / name
            cfg = PipelineConfig.from_dict(
                pipeline_config(data_dir, outdir)
            )
            run_pipeline(cfg)
            outs.append((outdir / "report.json").read_bytes())
        # reports differ only in the outdir path recorded in the config echo
        a = json.loads(outs[0])
        b = json.loads(outs[1])
        a["config"].pop("outdir")
        b["config"].pop("outdir")
        assert a == b

    def test_same_outdir_reruns_identical(self, data_dir, tmp_path):
        outdir = tmp_path / "same"
        cfg = PipelineConfig.from_dict(pipeline_config(data_dir, outdir))
        run_pipeline(cfg)
        first = (outdir / "report.json").read_bytes()
        run_pipeline(cfg)
        second = (outdir / "report.json").read_bytes()
        assert first == second
