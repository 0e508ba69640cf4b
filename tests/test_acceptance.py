"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
from numpy.testing import assert_allclose

from somalloc import allocation, logit, som, varselect
from somalloc.allocation import ContingencyTable, build_contingency, evaluate
from somalloc.dataset import ContinuousTable, save_dataset, split_dataset, subset_continuous
from somalloc.logit import FitDiagnostics, LogitModel, _loglik_grad, design_width
from somalloc.pipeline import PipelineConfig, run_pipeline
from somalloc.synth import GeneratorSpec, generate

from test_allocation import TABLE_DIRECT, TABLE_TWO_LEVEL


def report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


class TestCriterion1PublishedTables:
    def test_fixture_tables_score_exactly(self):
        two_level = ContingencyTable(TABLE_TWO_LEVEL)
        direct = ContingencyTable(TABLE_DIRECT)
        evaluate(two_level)  # warm-up
        start = time.perf_counter()
        s1 = evaluate(two_level)
        s2 = evaluate(direct)
        elapsed = time.perf_counter() - start

        assert (s1.exact, s1.neighbor, s1.correct) == (186, 117, 303)
        assert s1.correct_rate == 303 / 409
        assert (s2.exact, s2.neighbor, s2.correct) == (211, 141, 352)
        assert s2.correct_rate == 352 / 409
        assert elapsed < 1e-3
        report("1 published-table regression", f"{elapsed * 1e6:.0f} us")


class TestCriterion2LogitCellOracle:
    def test_saturated_two_by_two_sample(self):
        rng = np.random.default_rng(20240)
        cases = rng.integers(1, 21, size=(200, 4))
        spec = (("v", ("A", "B")),)
        start = time.perf_counter()
        worst = 0.0
        for a, b, c, d in cases:
            rows = np.array([[0]] * (a + b) + [[1]] * (c + d))
            labels = np.array([0] * a + [1] * b + [0] * c + [1] * d)
            model = logit.fit_logit(rows, labels, 2, spec)
            log_odds_a = model.beta[0, 0] + model.beta[0, 1]
            log_odds_b = model.beta[0, 0]
            err = max(
                abs(log_odds_a - np.log(a / b)), abs(log_odds_b - np.log(c / d))
            )
            worst = max(worst, err)
            assert err < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        report(
            "2 logit MLE cell-count oracle",
            f"200 cases, worst err {worst:.2e}, {elapsed:.2f}s",
        )


class TestCriterion3GradientCheck:
    def test_analytic_gradient_matches_central_differences(self):
        rng = np.random.default_rng(321)
        h = 1e-5
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(2, 6))
            # one variable with up to 4 modalities keeps width <= 12... build
            # from 1-2 variables with small modality counts
            n_vars = int(rng.integers(1, 3))
            counts = rng.integers(2, 5, size=n_vars)
            while 1 + (counts - 1).sum() > 12:
                counts = rng.integers(2, 5, size=n_vars)
            spec = tuple(
                (f"v{j}", tuple(f"m{i}" for i in range(m)))
                for j, m in enumerate(counts)
            )
            n = int(rng.integers(30, 120))
            codes = np.column_stack([rng.integers(m, size=n) for m in counts])
            design = logit.encode_rows(codes, spec)
            labels = rng.integers(k, size=n)
            beta = rng.normal(scale=0.7, size=(k - 1, design_width(spec)))
            _, grad, _ = _loglik_grad(beta, design, np.eye(k)[labels], 0.0)
            fd = np.zeros_like(grad)
            flat = beta.ravel()
            for i in range(flat.size):
                plus, minus = flat.copy(), flat.copy()
                plus[i] += h
                minus[i] -= h
                lp, _, _ = _loglik_grad(plus.reshape(beta.shape), design, np.eye(k)[labels], 0.0)
                lm, _, _ = _loglik_grad(minus.reshape(beta.shape), design, np.eye(k)[labels], 0.0)
                fd[i] = (lp - lm) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
            worst = max(worst, float(rel.max()))
            assert (rel < 1e-5).all()
        report("3 gradient finite-difference check", f"worst rel err {worst:.2e}")


class TestCriterion4AnovaOracle:
    @staticmethod
    def _oracle(y, design):
        beta = np.linalg.pinv(design.T @ design) @ design.T @ y
        resid = y - design @ beta
        sse = float(resid @ resid)
        centered = y - y.mean()
        sst = float(centered @ centered)
        rank = int(np.linalg.matrix_rank(design))
        df_model, df_error = rank - 1, len(y) - rank
        ssr = sst - sse
        return (ssr / df_model) / (sse / df_error), ssr / sst

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(99)
        from somalloc.dataset import Schema

        worst = 0.0
        for _ in range(100):
            n_factors = int(rng.integers(1, 4))
            counts = rng.integers(2, 5, size=n_factors)
            n = int(rng.integers(counts.sum() + 10, 201))
            codes = np.column_stack([rng.integers(m, size=n) for m in counts])
            schema = Schema(
                ("x",),
                tuple(
                    (f"f{j}", tuple(f"m{i}" for i in range(m)))
                    for j, m in enumerate(counts)
                ),
                compositional=False,
            )
            design = logit.encode_rows(codes, schema.categorical_vars)
            x = rng.normal(size=n) + codes @ rng.normal(size=n_factors)
            fit = varselect.fit_additive_anova(x, None, design)
            fisher, r2 = self._oracle(x, design)
            err = max(
                abs(fit.fisher_statistic - fisher) / max(abs(fisher), 1.0),
                abs(fit.r_squared - r2),
            )
            worst = max(worst, err)
            assert_allclose(fit.fisher_statistic, fisher, rtol=1e-10, atol=1e-10)
            assert_allclose(fit.r_squared, r2, rtol=1e-10, atol=1e-10)
        report("4 ANOVA normal-equations oracle", f"worst err {worst:.2e}")


class TestCriterion5SelfOrganization:
    def test_monotone_maps_and_qe_ordering(self):
        centers = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
        monotone = 0
        qe_ordered = 0
        runs = 100
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            labels = rng.integers(5, size=300)
            x = centers[labels] + rng.normal(0.0, 1.0, size=300)
            data = ContinuousTable(x[:, None], np.ones((300, 1), bool))
            cb5 = som.train_som(data, som.SomConfig(units=5, epochs=10, seed=seed))
            steps = np.diff(cb5.code_vectors[:, 0])
            if (steps > 0).all() or (steps < 0).all():
                monotone += 1
            cb20 = som.train_som(data, som.SomConfig(units=20, epochs=10, seed=seed))
            if som.quantization_error(cb20, data) <= som.quantization_error(cb5, data):
                qe_ordered += 1
        assert monotone >= 95
        assert qe_ordered >= 95
        report(
            "5 SOM self-organization",
            f"monotone {monotone}/100, qe(20)<=qe(5) {qe_ordered}/100",
        )


class TestCriterion6TestValueIdentity:
    def test_size_weighted_mean_is_one(self):
        from somalloc.profiles import test_values as modality_test_values

        dataset, labels = generate(GeneratorSpec.survey_shaped(seed=61, n=2500))
        tables = modality_test_values(
            dataset.categorical, labels, 5, dataset.schema.categorical_vars
        )
        sizes = np.bincount(labels, minlength=5)
        weights = sizes / labels.size
        worst = 0.0
        checked = 0
        for j, table in enumerate(tables):
            glob = np.bincount(
                dataset.categorical.codes[:, j],
                minlength=dataset.schema.modality_counts[j],
            )
            for m in np.flatnonzero(glob > 0):
                total = float(np.sum(weights[sizes > 0] * table[sizes > 0, m]))
                worst = max(worst, abs(total - 1.0))
                checked += 1
                assert abs(total - 1.0) < 1e-12
        report(
            "6 test-value weighted identity",
            f"{checked} modalities, worst dev {worst:.2e}",
        )


class TestCriterion7EndToEnd:
    def test_survey_shaped_pipeline_beats_permuted_baseline(self, tmp_path):
        start = time.perf_counter()
        rates = []
        gaps = []
        for seed in range(1, 6):
            spec = GeneratorSpec.survey_shaped(seed=seed, n=8809, dependence=0.8)
            dataset, _ = generate(spec)
            cfg = PipelineConfig(
                continuous_path="",
                categorical_path="",
                schema_path="",
                outdir=str(tmp_path / f"seed{seed}"),
                seed=seed,
                test_count=409,
                method="c2",
                units=5,
            )
            rep = run_pipeline(cfg, dataset=dataset)
            rate = rep["evaluation"]["correct_rate"]

            # permuted-labels baseline: identical pipeline, labels shuffled
            # before the logit fit
            screen = varselect.select_variables(dataset, cfg.threshold)
            reduced = subset_continuous(dataset, screen.selected_indices)
            train, test = split_dataset(reduced, cfg.test_count, cfg.seed)
            scfg = som.SomConfig(units=5, epochs=cfg.epochs, seed=seed)
            cb = som.train_som(
                train.continuous, scfg, dimensions=train.schema.continuous_names
            )
            labels_train = som.assign_all(cb, train.continuous)
            shuffled = np.random.default_rng(seed + 10_000).permutation(labels_train)
            base_model = logit.fit_logit(
                train.categorical, shuffled, 5, train.schema.categorical_vars
            )
            base_alloc = allocation.allocate(base_model, test.categorical)
            truth = som.assign_all(cb, test.continuous)
            baseline = evaluate(
                build_contingency(base_alloc.assigned, truth, 5)
            ).correct_rate

            rates.append(rate)
            gaps.append(rate - baseline)
            assert rep["n_train"] == 8400
            assert rep["n_test"] == 409
            assert rate >= 0.70
            assert rate - baseline >= 0.25
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        report(
            "7 end-to-end vs permuted baseline",
            f"correct {min(rates):.3f}..{max(rates):.3f}, "
            f"min gap {min(gaps):.3f}, {elapsed:.0f}s",
        )


class TestCriterion8Determinism:
    def test_reports_byte_identical(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        dataset, _ = generate(GeneratorSpec.survey_shaped(seed=8, n=1500))
        dataset.schema.save(data_dir / "schema.json")
        save_dataset(dataset, data_dir / "continuous.csv", data_dir / "categorical.csv")
        payloads = []
        for run in ("x", "y"):
            cfg = PipelineConfig(
                continuous_path=str(data_dir / "continuous.csv"),
                categorical_path=str(data_dir / "categorical.csv"),
                schema_path=str(data_dir / "schema.json"),
                outdir=str(tmp_path / run),
                seed=3,
                test_count=300,
                method="c1",
                units=16,
                macro_units=4,
                epochs=6,
            )
            run_pipeline(cfg)
            raw = json.loads((tmp_path / run / "report.json").read_text())
            raw["config"].pop("outdir")  # the only intentionally differing field
            payloads.append(json.dumps(raw, sort_keys=True))
        assert payloads[0] == payloads[1]

        # and a literal byte-level check when the target directory is reused
        cfg = PipelineConfig(
            continuous_path=str(data_dir / "continuous.csv"),
            categorical_path=str(data_dir / "categorical.csv"),
            schema_path=str(data_dir / "schema.json"),
            outdir=str(tmp_path / "z"),
            seed=3,
            test_count=300,
            method="c1",
            units=16,
            macro_units=4,
            epochs=6,
        )
        run_pipeline(cfg)
        first = (tmp_path / "z" / "report.json").read_bytes()
        run_pipeline(cfg)
        assert (tmp_path / "z" / "report.json").read_bytes() == first
        report("8 deterministic reports")


class TestCriterion9ProbabilityNormalization:
    def test_overflow_safe_softmax_over_random_inputs(self):
        rng = np.random.default_rng(900)
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
        diag = FitDiagnostics(0.0, 0.0, 0, 0.0, True)
        worst = 0.0
        for _ in range(10_000):
            k = int(rng.integers(2, 7))
            beta = rng.uniform(-1e3, 1e3, size=(k - 1, design_width(spec)))
            model = LogitModel(k=k, beta=beta, categorical_vars=spec, diagnostics=diag)
            row = [int(rng.integers(-1, 2)), int(rng.integers(-1, 3))]
            probs = logit.predict_proba_rows(model, np.array([row]))[0]
            assert np.isfinite(probs).all()
            assert (probs >= 0.0).all()
            dev = abs(float(probs.sum()) - 1.0)
            worst = max(worst, dev)
            assert dev < 1e-12
        report(
            "9 probability normalization", f"10000 inputs, worst dev {worst:.2e}"
        )
