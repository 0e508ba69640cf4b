import json
import shutil

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


@pytest.fixture(scope="module")
def artifacts(data_dir, tmp_path_factory):
    """A valid schema, clustering (plain and two-level), model and run
    config in one directory."""
    out = tmp_path_factory.mktemp("artifacts")
    shutil.copy(data_dir / "schema.json", out / "schema.json")
    schema = ["--schema", str(out / "schema.json")]
    rc = main(
        ["train", "--continuous", str(data_dir / "continuous.csv"), *schema,
         "--units", "3", "--epochs", "1", "--out", str(out / "clustering.json")]
    )
    assert rc == 0
    rc = main(
        ["train", "--continuous", str(data_dir / "continuous.csv"), *schema,
         "--units", "6", "--macro-units", "2", "--epochs", "1",
         "--out", str(out / "two_level.json")]
    )
    assert rc == 0
    rc = main(
        ["fit", "--categorical", str(data_dir / "categorical.csv"), *schema,
         "--labels", str(data_dir / "true_labels.csv"), "--classes", "5",
         "--out", str(out / "model.json")]
    )
    assert rc == 0
    config = pipeline_config(data_dir, out / "run")
    (out / "config.json").write_text(json.dumps(config))
    return out


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
        rc = main(
            [
                "select-vars",
                "--continuous", str(data_dir / "continuous.csv"),
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--test-count", "200",
                "--outdir", str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "anova.csv").read_text().strip().splitlines()
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

    def test_train_refuses_more_macro_clusters_than_units_with_hits(
        self, data_dir, tmp_path, capsys
    ):
        out = tmp_path / "two.json"
        rc = main(
            [
                "train",
                "--continuous", str(data_dir / "continuous.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--units", "3",
                "--macro-units", "4",
                "--epochs", "1",
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error [train] cannot split the string into 4 macro clusters")
        assert "units have training hits" in err
        assert not out.exists()

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
                "--test-count", "200",
                "--outdir", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestArtifactChecks:
    """Saved artifacts are refused when the files they are applied to have
    a different layout."""

    @pytest.mark.parametrize("defect", ["header", "modality"])
    def test_allocate_refuses_file_that_differs_from_model(
        self, data_dir, artifacts, tmp_path, capsys, defect
    ):
        # new individuals are read against the model's own layout
        lines = (data_dir / "categorical.csv").read_text().splitlines()
        header, first = lines[0].split(","), lines[1].split(",")
        if defect == "header":
            header[0], header[1] = header[1], header[0]
            expected = "header mismatch"
        else:
            first[2] = "level99"
            expected = f"row 1, column {header[2]!r}: unknown modality 'level99'"
        lines[0], lines[1] = ",".join(header), ",".join(first)
        newfile = tmp_path / "new_individuals.csv"
        newfile.write_text("\n".join(lines) + "\n")
        out = tmp_path / "alloc.csv"
        rc = main(
            [
                "allocate",
                "--model", str(artifacts / "model.json"),
                "--categorical", str(newfile),
                "--out", str(out),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [allocate] {newfile}: {expected}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["describe", "label"])
    def test_describe_refuses_clustering_of_other_variables(
        self, data_dir, tmp_path, capsys, command
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
        out = tmp_path / "out"
        inputs = ["--continuous", str(continuous), "--schema", str(schema_path),
                  "--clustering", str(cb)]
        argv = {
            "describe": ["--categorical", str(data_dir / "categorical.csv"),
                         "--outdir", str(out)],
            "label": ["--out", str(out)],
        }[command]
        rc = main([command, *inputs, *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}] {cb}: clustering dimensions ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "artifact, key, command, damage",
        [
            (artifact, key, command, damage)
            for artifact, key, command in [
                ("schema", "categorical", "describe"),
                ("clustering", "code_vectors", "describe"),
                ("model", "beta", "allocate"),
                ("config", "seed", "run"),
            ]
            for damage in ["missing-key", "truncated"]
        ]
        + [
            ("schema", "compositional", "describe", "not-a-boolean"),
            ("model", "encoding", "allocate", "no-intercept"),
            ("model", "encoding", "allocate", "intercept-flag-false"),
            ("model", "encoding", "allocate", "modality-list-missing"),
            ("two_level", "macro_of_unit", "describe", "decreasing"),
            ("two_level", "macro_of_unit", "describe", "skips-a-number"),
            ("two_level", "version", "describe", "version-1"),
            ("model", "diagnostics", "allocate", "converged-not-a-boolean"),
            ("model", "classes", "allocate", "not-an-integer"),
            ("two_level", "macro_of_unit", "describe", "fractional-entry"),
            ("model", "diagnostics", "allocate", "iterations-not-an-integer"),
            ("model", "encoding", "allocate", "modality-list-as-string"),
            ("schema", "continuous", "describe", "list-as-string"),
            ("clustering", "code_vectors", "describe", "numbers-as-strings"),
            ("model", "beta", "allocate", "numbers-as-strings"),
            ("config", "units", "run", "number-as-string"),
            ("config", "test_count", "run", "fractional"),
            ("clustering", "version", "describe", "version-true"),
            ("two_level", "version", "describe", "version-true"),
            ("model", "version", "allocate", "version-true"),
        ],
    )
    def test_malformed_artifact_is_reported_with_its_path(
        self, data_dir, artifacts, tmp_path, capsys, artifact, key, command, damage
    ):
        inputs = tmp_path / "in"
        shutil.copytree(artifacts, inputs)
        path = inputs / f"{artifact}.json"
        text = path.read_text()
        if damage == "truncated":
            text = text[: len(text) // 2]
        else:
            obj = json.loads(text)
            if damage == "missing-key":
                del obj[key]
            elif damage == "not-a-boolean":
                obj[key] = "no"
            elif damage == "decreasing":
                # integers in range, but macro cluster 1 comes back to 0
                obj[key] = [0, 1] + [0] * (len(obj[key]) - 2)
            elif damage == "skips-a-number":
                # integers in range, but no unit is in macro cluster 1
                obj[key] = [0] * (len(obj[key]) - 1) + [2]
            elif damage == "version-1":
                # the format that stored a second map and a contiguity flag
                obj[key] = 1
            elif damage == "converged-not-a-boolean":
                obj[key]["converged"] = "false"
            elif damage == "not-an-integer":
                # truncates to the stored class count, which beta matches
                obj[key] += 0.7
            elif damage == "fractional-entry":
                # truncates to the stored macro cluster
                obj[key][-1] += 0.7
            elif damage == "iterations-not-an-integer":
                obj[key]["iterations"] += 0.7
            elif damage == "modality-list-as-string":
                # one character per stored modality, so the count still fits beta
                mods = obj[key]["modalities"]
                mods[0] = "abcdefgh"[: len(mods[0])]
            elif damage == "list-as-string":
                obj[key] = "ab"
            elif damage == "number-as-string":
                obj[key] = str(obj[key])
            elif damage == "fractional":
                obj[key] += 0.5
            elif damage == "version-true":
                # equal to 1 in Python, but not the integer 1
                obj[key] = True
            elif damage == "numbers-as-strings":
                obj[key] = [[str(x) for x in row] for row in obj[key]]
            elif damage == "no-intercept":
                # a consistent model without the intercept column
                obj[key]["intercept"] = False
                obj["beta"] = [row[1:] for row in obj["beta"]]
            elif damage == "intercept-flag-false":
                # beta still has the intercept column: only the flag is wrong
                obj[key]["intercept"] = False
            else:
                # drop the last variable's modalities and its beta columns, so
                # only the list lengths disagree
                dropped = len(obj[key]["modalities"].pop()) - 1
                obj["beta"] = [row[:-dropped] for row in obj["beta"]]
            text = json.dumps(obj)
        path.write_text(text)
        categorical = ["--categorical", str(data_dir / "categorical.csv")]
        clustering = path if artifact == "two_level" else inputs / "clustering.json"
        argv = {
            "describe": [
                "describe", "--continuous", str(data_dir / "continuous.csv"),
                *categorical, "--schema", str(inputs / "schema.json"),
                "--clustering", str(clustering), "--outdir", str(tmp_path / "desc"),
            ],
            "allocate": [
                "allocate", "--model", str(inputs / "model.json"), *categorical,
                "--out", str(tmp_path / "alloc.csv"),
            ],
            "run": ["run", "--config", str(inputs / "config.json")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}] {path}: ")
        assert len(err.strip().splitlines()) == 1

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

    def test_select_vars_tags_the_failing_stage(self, data_dir, tmp_path, capsys):
        outdir = tmp_path / "screened"
        rc = main(
            [
                "select-vars",
                "--continuous", str(data_dir / "continuous.csv"),
                "--categorical", str(data_dir / "categorical.csv"),
                "--schema", str(data_dir / "schema.json"),
                "--threshold", "0.999999",
                "--test-count", "200",
                "--outdir", str(outdir),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error [renormalize] no continuous variable")
        assert sorted(p.name for p in outdir.iterdir()) == ["anova.csv"]

    def test_unknown_config_key_rejected(self, data_dir, tmp_path):
        cfg = pipeline_config(data_dir, tmp_path / "run")
        cfg["typo_key"] = 1
        with pytest.raises(ValueError, match="typo_key"):
            PipelineConfig.from_dict(cfg)


class TestSeedValidation:
    """Every seed is a non-negative integer, and a bad one is named as the
    seed before any stage runs."""

    @pytest.mark.parametrize("command", ["synth", "select-vars", "train", "allocate", "run"])
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_seed_option_refuses_negative_and_non_integer(
        self, data_dir, artifacts, tmp_path, capsys, command, seed
    ):
        schema = ["--schema", str(data_dir / "schema.json")]
        args = {
            "synth": ["--outdir", str(tmp_path / "synth")],
            "select-vars": ["--continuous", str(data_dir / "continuous.csv"),
                            "--categorical", str(data_dir / "categorical.csv"), *schema,
                            "--test-count", "200", "--outdir", str(tmp_path / "screened")],
            "train": ["--continuous", str(data_dir / "continuous.csv"), *schema,
                      "--units", "3", "--out", str(tmp_path / "clustering.json")],
            "allocate": ["--model", str(artifacts / "model.json"),
                         "--categorical", str(data_dir / "categorical.csv"),
                         "--mode", "sample", "--out", str(tmp_path / "alloc.csv")],
            "run": ["--config", str(artifacts / "config.json")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: seed must be a non-negative integer, got {seed!r}" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_config_seed_refuses_negative_and_non_integer(
        self, data_dir, tmp_path, capsys, seed
    ):
        cfg_path = tmp_path / "config.json"
        outdir = tmp_path / "run"
        cfg_path.write_text(json.dumps(pipeline_config(data_dir, outdir, seed=seed)))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error [run] {cfg_path}: seed must be a non-negative integer, got {seed!r}\n"
        )
        assert not outdir.exists()


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


class TestChainReproducesRun:
    """The stage-by-stage chain writes the files ``run`` writes, byte for
    byte, given the flags of ``run``'s config."""

    @pytest.mark.parametrize(
        "method, units, macro", [("c2", 5, None), ("c1", 20, 5)], ids=["c2-5", "c1-20-5"]
    )
    def test_chain_writes_runs_files(self, data_dir, tmp_path, method, units, macro):
        run_dir, chain = tmp_path / "run", tmp_path / "chain"
        cfg = pipeline_config(data_dir, run_dir, method=method, units=units)
        if macro is not None:
            cfg["macro_units"] = macro
        report = run_pipeline(PipelineConfig.from_dict(cfg))
        k = str(report["n_clusters"])
        schema = ["--schema", str(chain / "reduced_schema.json")]
        part = {name: str(chain / f"{name}.csv") for name in (
            "train_continuous", "train_categorical", "test_continuous", "test_categorical")}
        clustering = ["--clustering", str(chain / "clustering.json")]
        steps = [
            ["select-vars", "--continuous", cfg["continuous_path"],
             "--categorical", cfg["categorical_path"], "--schema", cfg["schema_path"],
             "--test-count", "200", "--seed", "7", "--outdir", str(chain)],
            ["train", "--continuous", part["train_continuous"], *schema,
             "--units", str(units), "--epochs", "6", "--seed", "7",
             "--out", str(chain / "clustering.json")]
            + ([] if macro is None else ["--macro-units", str(macro)]),
            ["label", *clustering, "--continuous", part["train_continuous"], *schema,
             "--out", str(chain / "train_labels.csv")],
            ["describe", "--continuous", part["train_continuous"],
             "--categorical", part["train_categorical"], *schema, *clustering,
             "--outdir", str(chain)],
            ["fit", "--categorical", part["train_categorical"], *schema,
             "--labels", str(chain / "train_labels.csv"), "--classes", k,
             "--out", str(chain / "model.json")],
            ["allocate", "--model", str(chain / "model.json"),
             "--categorical", part["test_categorical"], "--seed", "7",
             "--out", str(chain / "allocations.csv")],
            ["label", *clustering, "--continuous", part["test_continuous"], *schema,
             "--out", str(chain / "test_true_labels.csv")],
            ["evaluate", "--allocated", str(chain / "allocations.csv"),
             "--truth", str(chain / "test_true_labels.csv"), "--classes", k,
             "--out-table", str(chain / "contingency.csv"),
             "--out-metrics", str(chain / "metrics.json")],
        ]
        for argv in steps:
            assert main(argv) == 0, argv[0]
        written = sorted(p.name for p in run_dir.iterdir())
        assert sorted(p.name for p in chain.iterdir()) == sorted(
            set(written) - {"report.json"} | {"metrics.json"}
        )
        for name in written:
            if name != "report.json":
                assert (chain / name).read_bytes() == (run_dir / name).read_bytes(), name
        assert json.loads((chain / "metrics.json").read_text()) == report["evaluation"]
