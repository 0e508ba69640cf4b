import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from somalloc.dataset import MISSING_CODE
from somalloc.logit import (
    EncodingSpec,
    FitDiagnostics,
    LogitModel,
    _loglik_grad,
    encode_rows,
    fit_logit,
    log_likelihood,
    model_from_dict,
    model_to_dict,
    predict_proba_rows,
)
from somalloc.synth import GeneratorSpec, generate


def binary_spec():
    return EncodingSpec(variables=("v",), modalities=(("A", "B"),))


def encode_one(row, spec):
    """encode_rows on a one-row input."""
    return encode_rows(np.asarray([row]), spec)[0]


def proba_one(model, row):
    """predict_proba_rows on a one-row input."""
    return predict_proba_rows(model, np.asarray([row]))[0]


def make_model(beta, spec, k):
    beta = np.asarray(beta, dtype=float)
    diag = FitDiagnostics(0.0, 0.0, 0, 0.0, True)
    return LogitModel(k=k, beta=beta, encoding=spec, diagnostics=diag)


def cell_rows(a, b, c, d):
    """Saturated 2x2 layout: modality A in classes 0/1 with counts a/b,
    modality B with counts c/d."""
    rows = np.array([[0]] * (a + b) + [[1]] * (c + d))
    labels = np.array([0] * a + [1] * b + [0] * c + [1] * d)
    return rows, labels


class TestEncoding:
    def test_reference_modalities_encode_to_zero_block(self):
        spec = EncodingSpec(
            variables=("u", "v"), modalities=(("a", "b"), ("x", "y", "z"))
        )
        y = encode_one([1, 2], spec)  # both at reference (last) modality
        assert_array_equal(y, [1.0, 0.0, 0.0, 0.0])

    def test_missing_cell_encodes_like_reference(self):
        spec = EncodingSpec(
            variables=("u", "v"), modalities=(("a", "b"), ("x", "y", "z"))
        )
        assert_array_equal(encode_one([MISSING_CODE, 0], spec), encode_one([1, 0], spec))

    def test_one_hot_positions(self):
        spec = EncodingSpec(
            variables=("u", "v"), modalities=(("a", "b"), ("x", "y", "z"))
        )
        assert_array_equal(encode_one([0, 1], spec), [1.0, 1.0, 0.0, 1.0])

    def test_survey_width_is_33(self):
        counts = (4, 3, 4, 3, 5, 5, 3, 5, 5, 5)
        spec = EncodingSpec(
            variables=tuple(f"v{j}" for j in range(10)),
            modalities=tuple(tuple(f"m{i}" for i in range(m)) for m in counts),
        )
        assert spec.width == 33
        assert encode_one([0] * 10, spec).shape == (33,)

    def test_invalid_modality_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            encode_one([5], binary_spec())

    def test_no_intercept_encoding(self):
        spec = EncodingSpec(
            variables=("u",), modalities=(("a", "b", "c"),), intercept=False
        )
        assert spec.width == 2
        assert_array_equal(encode_one([0], spec), [1.0, 0.0])
        assert_array_equal(encode_one([2], spec), [0.0, 0.0])

    def test_encode_rows_matches_encode(self):
        rng = np.random.default_rng(0)
        spec = EncodingSpec(
            variables=("u", "v"), modalities=(("a", "b"), ("x", "y", "z"))
        )
        codes = np.column_stack(
            [rng.integers(-1, 2, size=30), rng.integers(-1, 3, size=30)]
        )
        batch = encode_rows(codes, spec)
        # brute force: intercept, then one indicator per non-reference
        # modality; missing and reference cells leave their block at zero
        singles = np.zeros((30, spec.width))
        singles[:, 0] = 1.0
        for i, (u, v) in enumerate(codes):
            if u == 0:
                singles[i, 1] = 1.0
            if v in (0, 1):
                singles[i, 2 + v] = 1.0
        assert_array_equal(batch, singles)


class TestLogLikelihood:
    def test_zero_coefficients_give_uniform_likelihood(self):
        spec = binary_spec()
        for k in (2, 3, 5):
            model = make_model(np.zeros((k - 1, spec.width)), spec, k)
            rows = np.array([[0], [1], [0], [1]])
            labels = np.array([0, 1, 0, min(1, k - 1)])
            ll = log_likelihood(model, rows, labels)
            assert ll == pytest.approx(4 * np.log(1.0 / k))

    def test_single_row_zero_score_is_log_half(self):
        model = make_model(np.zeros((1, 2)), binary_spec(), 2)
        ll = log_likelihood(model, np.array([[1]]), np.array([0]))
        assert ll == pytest.approx(np.log(0.5))

    def test_likelihood_nonpositive(self):
        rng = np.random.default_rng(1)
        spec = binary_spec()
        model = make_model(rng.normal(size=(2, 2)), spec, 3)
        rows = rng.integers(2, size=(40, 1))
        labels = rng.integers(3, size=40)
        assert log_likelihood(model, rows, labels) <= 0.0

    def test_fitted_optimum_beats_perturbations(self):
        rows, labels = cell_rows(6, 3, 4, 8)
        model = fit_logit(rows, labels, 2, binary_spec())
        ll_star = log_likelihood(model, rows, labels)
        rng = np.random.default_rng(2)
        for _ in range(10):
            noisy = make_model(
                model.beta + 0.05 * rng.normal(size=model.beta.shape),
                model.encoding,
                2,
            )
            assert log_likelihood(noisy, rows, labels) < ll_star


class TestFit:
    def test_saturated_two_by_two_matches_cell_log_odds(self):
        for a, b, c, d in [(6, 3, 4, 8), (1, 1, 1, 1), (20, 5, 2, 19)]:
            rows, labels = cell_rows(a, b, c, d)
            model = fit_logit(rows, labels, 2, binary_spec())
            # reference coding: intercept carries modality B, slope adds A
            log_odds_b = model.beta[0, 0]
            log_odds_a = model.beta[0, 0] + model.beta[0, 1]
            assert log_odds_a == pytest.approx(np.log(a / b), abs=1e-6)
            assert log_odds_b == pytest.approx(np.log(c / d), abs=1e-6)

    def test_independent_labels_collapse_to_intercepts(self):
        # exact product layout: P(modality m, class c) = r_m * s_c
        reps = []
        labels = []
        for m, r in enumerate((2, 3, 5)):
            for c, s in enumerate((4, 6)):
                reps.extend([[m]] * (r * s))
                labels.extend([c] * (r * s))
        rows = np.array(reps)
        labels = np.array(labels)
        spec = EncodingSpec(variables=("v",), modalities=(("a", "b", "c"),))
        model = fit_logit(rows, labels, 2, spec)
        assert model.beta[0, 0] == pytest.approx(np.log(4 / 6), abs=1e-8)
        assert_allclose(model.beta[0, 1:], 0.0, atol=1e-8)

    def test_converges_on_survey_shaped_data(self):
        dataset, labels = generate(GeneratorSpec.survey_shaped(seed=3, n=3000))
        spec = EncodingSpec.from_schema(dataset.schema)
        model = fit_logit(dataset.categorical, labels, 5, spec)
        assert model.diagnostics.converged
        assert model.diagnostics.iterations < 100
        assert model.diagnostics.gradient_max < 1e-8

    def test_class_absent_from_labels_rejected(self):
        rows = np.array([[0], [1], [0]])
        with pytest.raises(ValueError, match="absent"):
            fit_logit(rows, np.array([0, 0, 1]), 3, binary_spec())

    def test_separable_data_falls_back_to_ridge(self):
        # modality perfectly predicts the class: unpenalized MLE diverges
        rows, labels = cell_rows(12, 0, 0, 12)
        model = fit_logit(rows, labels, 2, binary_spec())
        assert model.diagnostics.ridge > 0.0
        assert np.isfinite(model.beta).all()

    def test_separable_data_with_disabled_ridge_raises_clearly(self):
        rows, labels = cell_rows(12, 0, 0, 12)
        with pytest.raises(ValueError, match="ridge fallback is disabled"):
            fit_logit(rows, labels, 2, binary_spec(), ridge=0.0)

    def test_accepted_steps_never_decrease_likelihood(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(3, size=(200, 1))
        labels = (rows[:, 0] + rng.integers(2, size=200)) % 3
        spec = EncodingSpec(variables=("v",), modalities=(("a", "b", "c"),))
        model = fit_logit(rows, labels, 3, spec)
        trace = np.array(model.diagnostics.ll_trace)
        # exact monotonicity up to objective rounding: steps that are flat at
        # float resolution may be accepted on gradient progress
        assert (np.diff(trace) >= -1e-12).all()
        assert trace[-1] > trace[0]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = EncodingSpec(
            variables=("u", "v"), modalities=(("a", "b"), ("x", "y", "z"))
        )
        design = encode_rows(
            np.column_stack([rng.integers(2, size=60), rng.integers(3, size=60)]),
            spec,
        )
        labels = rng.integers(3, size=60)
        beta = rng.normal(scale=0.5, size=(2, spec.width))
        _, grad, _ = _loglik_grad(beta, design, labels, 3, 0.0)
        h = 1e-5
        fd = np.zeros_like(grad)
        flat = beta.ravel().copy()
        for i in range(flat.size):
            plus = flat.copy()
            plus[i] += h
            minus = flat.copy()
            minus[i] -= h
            lp, _, _ = _loglik_grad(plus.reshape(beta.shape), design, labels, 3, 0.0)
            lm, _, _ = _loglik_grad(minus.reshape(beta.shape), design, labels, 3, 0.0)
            fd[i] = (lp - lm) / (2 * h)
        assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_reference_relabeling_preserves_probabilities(self):
        rng = np.random.default_rng(6)
        n = 400
        rows = np.column_stack([rng.integers(2, size=n), rng.integers(3, size=n)])
        labels = (rows[:, 0] + rows[:, 1] + rng.integers(3, size=n)) % 3
        spec = EncodingSpec(
            variables=("u", "v"), modalities=(("a", "b"), ("x", "y", "z"))
        )
        base = fit_logit(rows, labels, 3, spec, tol=1e-12, max_iter=200)
        # swap class 0 with class 2 (the reference) and refit
        swapped = labels.copy()
        swapped[labels == 0] = 2
        swapped[labels == 2] = 0
        other = fit_logit(rows, swapped, 3, spec, tol=1e-12, max_iter=200)
        p_base = predict_proba_rows(base, rows)
        p_other = predict_proba_rows(other, rows)[:, [2, 1, 0]]
        assert_allclose(p_base, p_other, atol=1e-10)
        assert not np.allclose(base.beta, other.beta)


class TestPredict:
    def test_zero_coefficients_give_uniform(self):
        spec = binary_spec()
        model = make_model(np.zeros((4, 2)), spec, 5)
        assert_allclose(proba_one(model, [0]), 0.2)

    def test_three_to_one_odds(self):
        model = make_model([[np.log(3.0), 0.0]], binary_spec(), 2)
        assert_allclose(proba_one(model, [1]), [0.75, 0.25], atol=1e-14)

    def test_matches_naive_formula_on_small_scores(self):
        rng = np.random.default_rng(7)
        spec = EncodingSpec(
            variables=("u", "v"), modalities=(("a", "b"), ("x", "y", "z"))
        )
        model = make_model(rng.normal(scale=0.8, size=(3, spec.width)), spec, 4)
        codes = np.column_stack(
            [rng.integers(2, size=50), rng.integers(3, size=50)]
        )
        for row in codes:
            y = encode_one(row, spec)
            scores = np.append(model.beta @ y, 0.0)
            naive = np.exp(scores) / np.exp(scores).sum()
            assert_allclose(proba_one(model, row), naive, atol=1e-12)

    def test_probabilities_sum_to_one_under_extreme_coefficients(self):
        rng = np.random.default_rng(8)
        spec = binary_spec()
        for _ in range(200):
            beta = rng.uniform(-1e3, 1e3, size=(3, spec.width))
            model = make_model(beta, spec, 4)
            probs = proba_one(model, [int(rng.integers(2))])
            assert np.isfinite(probs).all()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs >= 0.0).all()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        spec = binary_spec()
        model = make_model(rng.normal(size=(2, 2)), spec, 3)
        codes = rng.integers(-1, 2, size=(20, 1))
        batch = predict_proba_rows(model, codes)
        # per row: dummy vector by hand, scores against the reference class,
        # plain (unshifted) softmax
        singles = []
        for (code,) in codes:
            y = np.array([1.0, 1.0 if code == 0 else 0.0])
            scores = np.append(model.beta @ y, 0.0)
            singles.append(np.exp(scores) / np.exp(scores).sum())
        assert_allclose(batch, singles, rtol=1e-14, atol=0)


class TestSerialization:
    def test_round_trip_preserves_predictions(self):
        rows, labels = cell_rows(6, 3, 4, 8)
        model = fit_logit(rows, labels, 2, binary_spec())
        again = model_from_dict(model_to_dict(model))
        assert_array_equal(again.beta, model.beta)
        assert again.encoding == model.encoding
        assert_allclose(
            proba_one(again, [0]), proba_one(model, [0]), atol=0
        )

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"version": 2})
