import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from somalloc.dataset import MISSING_CODE
from somalloc.logit import (
    _BLOCK_ROWS,
    FitDiagnostics,
    LogitModel,
    _hessian,
    _loglik_grad,
    _pattern_counts,
    _probabilities,
    design_width,
    encode_rows,
    fit_logit,
    load_model,
    log_likelihood,
    model_from_dict,
    model_to_dict,
    predict_proba_rows,
    save_model,
)
from somalloc.synth import GeneratorSpec, generate


def binary_spec():
    return (("v", ("A", "B")),)


def encode_one(row, spec):
    """encode_rows on a one-row input."""
    return encode_rows(np.asarray([row]), spec)[0]


def proba_one(model, row):
    """predict_proba_rows on a one-row input."""
    return predict_proba_rows(model, np.asarray([row]))[0]


def make_model(beta, spec, k):
    beta = np.asarray(beta, dtype=float)
    diag = FitDiagnostics(0.0, 0.0, 0, 0.0, True)
    return LogitModel(k=k, beta=beta, categorical_vars=spec, diagnostics=diag)


def cell_rows(a, b, c, d):
    """Saturated 2x2 layout: modality A in classes 0/1 with counts a/b,
    modality B with counts c/d."""
    rows = np.array([[0]] * (a + b) + [[1]] * (c + d))
    labels = np.array([0] * a + [1] * b + [0] * c + [1] * d)
    return rows, labels


def survey_spec():
    counts = (4, 3, 4, 3, 5, 5, 3, 5, 5, 5)
    return tuple(
        (f"v{j}", tuple(f"m{i}" for i in range(m))) for j, m in enumerate(counts)
    )


def random_design_and_probs(n, k, seed):
    """A survey-width design with some missing cells, and the softmax of
    random scores over it."""
    rng = np.random.default_rng(seed)
    spec = survey_spec()
    codes = np.column_stack(
        [rng.integers(MISSING_CODE, len(mods), size=n) for _, mods in spec]
    )
    design = encode_rows(codes, spec)
    beta = rng.normal(scale=0.7, size=(k - 1, design.shape[1]))
    return design, _probabilities(design @ beta.T)


class TestEncoding:
    def test_reference_modalities_encode_to_zero_block(self):
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
        y = encode_one([1, 2], spec)  # both at reference (last) modality
        assert_array_equal(y, [1.0, 0.0, 0.0, 0.0])

    def test_missing_cell_encodes_like_reference(self):
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
        assert_array_equal(encode_one([MISSING_CODE, 0], spec), encode_one([1, 0], spec))

    def test_one_hot_positions(self):
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
        assert_array_equal(encode_one([0, 1], spec), [1.0, 1.0, 0.0, 1.0])

    def test_survey_width_is_33(self):
        spec = survey_spec()
        assert design_width(spec) == 33
        assert encode_one([0] * 10, spec).shape == (33,)

    def test_invalid_modality_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            encode_one([5], binary_spec())

    def test_encode_rows_matches_encode(self):
        rng = np.random.default_rng(0)
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
        codes = np.column_stack(
            [rng.integers(-1, 2, size=30), rng.integers(-1, 3, size=30)]
        )
        batch = encode_rows(codes, spec)
        # brute force: intercept, then one indicator per non-reference
        # modality; missing and reference cells leave their block at zero
        singles = np.zeros((30, design_width(spec)))
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
            model = make_model(np.zeros((k - 1, design_width(spec))), spec, k)
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
                model.categorical_vars,
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
        spec = (("v", ("a", "b", "c")),)
        model = fit_logit(rows, labels, 2, spec)
        assert model.beta[0, 0] == pytest.approx(np.log(4 / 6), abs=1e-8)
        assert_allclose(model.beta[0, 1:], 0.0, atol=1e-8)

    def test_converges_on_survey_shaped_data(self):
        dataset, labels = generate(GeneratorSpec.survey_shaped(seed=3, n=3000))
        spec = dataset.schema.categorical_vars
        model = fit_logit(dataset.categorical, labels, 5, spec)
        assert model.diagnostics.converged
        assert model.diagnostics.iterations < 100
        assert model.diagnostics.gradient_max < 1e-8

    def test_label_count_must_match_rows(self):
        rows = np.array([[0], [1], [0], [1]])
        with pytest.raises(ValueError, match="3 labels for 4 rows"):
            fit_logit(rows, np.array([0, 1, 0]), 2, binary_spec())

    @pytest.mark.parametrize("count", [2, 7])
    @pytest.mark.parametrize(
        "call",
        [
            lambda rows, labels: fit_logit(rows, labels, 2, binary_spec()),
            lambda rows, labels: log_likelihood(
                make_model(np.zeros((1, 2)), binary_spec(), 2), rows, labels
            ),
        ],
        ids=["fit_logit", "log_likelihood"],
    )
    def test_label_count_checked_on_both_entry_points(self, call, count):
        rows = np.array([[0], [1], [0], [1], [0]])
        labels = np.arange(count) % 2
        with pytest.raises(
            ValueError,
            match=f"^{count} labels for 5 rows: need exactly one label per row$",
        ):
            call(rows, labels)

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_classes_rejected(self, k):
        rows = np.array([[0], [1], [0]])
        with pytest.raises(ValueError, match=f"^k must be at least 2 classes, got {k}$"):
            fit_logit(rows, np.zeros(3, dtype=int), k, binary_spec())

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
        spec = (("v", ("a", "b", "c")),)
        model = fit_logit(rows, labels, 3, spec)
        trace = np.array(model.diagnostics.ll_trace)
        # exact monotonicity up to objective rounding: steps that are flat at
        # float resolution may be accepted on gradient progress
        assert (np.diff(trace) >= -1e-12).all()
        assert trace[-1] > trace[0]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
        design = encode_rows(
            np.column_stack([rng.integers(2, size=60), rng.integers(3, size=60)]),
            spec,
        )
        labels = rng.integers(3, size=60)
        beta = rng.normal(scale=0.5, size=(2, design_width(spec)))
        _, grad, _ = _loglik_grad(beta, design, np.eye(3)[labels], 0.0)
        h = 1e-5
        fd = np.zeros_like(grad)
        flat = beta.ravel().copy()
        for i in range(flat.size):
            plus = flat.copy()
            plus[i] += h
            minus = flat.copy()
            minus[i] -= h
            lp, _, _ = _loglik_grad(plus.reshape(beta.shape), design, np.eye(3)[labels], 0.0)
            lm, _, _ = _loglik_grad(minus.reshape(beta.shape), design, np.eye(3)[labels], 0.0)
            fd[i] = (lp - lm) / (2 * h)
        assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_permuted_and_repeated_rows_give_the_same_fit(self):
        # a fit that converges without the ridge: labels only lean on the codes
        rng = np.random.default_rng(11)
        n = 600
        rows = np.column_stack([rng.integers(3, size=n), rng.integers(4, size=n)])
        labels = (rows[:, 0] + rows[:, 1] + rng.integers(3, size=n)) % 3
        spec = (("u", ("a", "b", "c")), ("v", ("w", "x", "y", "z")))
        base = fit_logit(rows, labels, 3, spec)
        order = rng.permutation(2 * n)
        twice = fit_logit(np.tile(rows, (2, 1))[order], np.tile(labels, 2)[order], 3, spec)
        assert base.diagnostics.ridge == twice.diagnostics.ridge == 0.0
        assert_allclose(twice.beta, base.beta, rtol=0, atol=1e-10)
        assert twice.diagnostics.log_likelihood == pytest.approx(
            2 * base.diagnostics.log_likelihood, rel=1e-12
        )

    def test_bad_code_names_its_input_row(self):
        # the bad row is the 7th of the input but the 3rd distinct pattern
        rows = np.array([[0], [1], [0], [1], [0], [1], [5], [0]])
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        with pytest.raises(ValueError, match="^row 7, variable 'v': modality index 5"):
            fit_logit(rows, labels, 2, binary_spec())

    def test_reference_relabeling_preserves_probabilities(self):
        rng = np.random.default_rng(6)
        n = 400
        rows = np.column_stack([rng.integers(2, size=n), rng.integers(3, size=n)])
        labels = (rows[:, 0] + rows[:, 1] + rng.integers(3, size=n)) % 3
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
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


class TestPatternCounts:
    def test_wide_rows_group_into_sorted_patterns_with_label_counts(self):
        # 40 variables of 9 modalities plus missing cells: a mixed-radix key
        # over all columns at once would need 10**40 values
        rng = np.random.default_rng(12)
        pool = rng.integers(MISSING_CODE, 9, size=(300, 40))
        codes = pool[rng.integers(300, size=2000)]
        labels = rng.integers(6, size=2000)
        first, counts = _pattern_counts(codes, labels, 6)
        patterns = np.unique(codes, axis=0)
        assert_array_equal(codes[first], patterns)
        assert counts.sum() == 2000
        for g, pattern in enumerate(patterns):
            members = np.flatnonzero((codes == pattern).all(axis=1))
            assert first[g] == members[0]
            assert_array_equal(counts[g], np.bincount(labels[members], minlength=6))


def hessian_by_blocks(design, probs, k, ridge):
    """The Hessian one (K-1) x (K-1) block at a time:
    H_ab = -X' diag(p_a (delta_ab - p_b)) X, minus ridge on the diagonal."""
    d = design.shape[1]
    h = np.zeros(((k - 1) * d, (k - 1) * d))
    for a in range(k - 1):
        for b in range(k - 1):
            w = probs[:, a] * (float(a == b) - probs[:, b])
            h[a * d : (a + 1) * d, b * d : (b + 1) * d] = -(design * w[:, None]).T @ design
    return h - ridge * np.eye(h.shape[0])


class TestHessian:
    @pytest.mark.parametrize(
        "k, repeated",
        [(2, False), (4, False), (20, False), (4, True), (20, True)],
        ids=["2", "4", "20", "4-counted", "20-counted"],
    )
    @pytest.mark.parametrize("ridge", [0.0, 0.5])
    def test_matches_per_block_formula(self, k, ridge, repeated):
        # two full row blocks and a partial third
        design, probs = random_design_and_probs(2 * _BLOCK_ROWS + 7, k, seed=10 + k)
        n = np.ones(design.shape[0], dtype=np.int64)
        if repeated:
            # rows that stand for 1 to 4 identical rows: the formula applies
            # to the rows expanded back
            n = np.random.default_rng(k).integers(1, 5, size=design.shape[0])
        h = _hessian(design, probs, n.astype(float), survey_spec(), ridge)
        expected = hessian_by_blocks(
            np.repeat(design, n, axis=0), np.repeat(probs, n, axis=0), k, ridge
        )
        assert_allclose(h, expected, rtol=1e-12, atol=1e-10)

    def test_peak_memory_does_not_grow_with_rows(self):
        k = 4

        def traced_peak(n):
            design, probs = random_design_and_probs(n, k, seed=n)
            counts = np.ones(n)
            tracemalloc.start()
            try:
                _hessian(design, probs, counts, survey_spec(), 0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        a_block_bytes = _BLOCK_ROWS * (k - 1) * design_width(survey_spec()) * 8
        growth = traced_peak(8 * _BLOCK_ROWS) - traced_peak(2 * _BLOCK_ROWS)
        assert growth <= a_block_bytes


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
        spec = (("u", ("a", "b")), ("v", ("x", "y", "z")))
        model = make_model(rng.normal(scale=0.8, size=(3, design_width(spec))), spec, 4)
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
            beta = rng.uniform(-1e3, 1e3, size=(3, design_width(spec)))
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
        assert again.categorical_vars == model.categorical_vars
        assert_allclose(
            proba_one(again, [0]), proba_one(model, [0]), atol=0
        )

    def test_version_checked(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"version": 2})

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_saved_model_round_trips(self, data):
        names = st.text(max_size=6)
        # a layout must read back from CSV: distinct labels, no outer whitespace
        labels = st.text(min_size=1, max_size=6).filter(lambda s: s == s.strip())
        layout = tuple(
            (
                data.draw(names),
                tuple(data.draw(st.lists(labels, min_size=2, max_size=5, unique=True))),
            )
            for _ in range(data.draw(st.integers(1, 4)))
        )
        k = data.draw(st.integers(2, 6))
        finite = st.floats(-1e6, 1e6, allow_nan=False)
        size = (k - 1) * design_width(layout)
        beta = np.reshape(
            data.draw(st.lists(finite, min_size=size, max_size=size)), (k - 1, -1)
        )
        diagnostics = FitDiagnostics(
            log_likelihood=data.draw(finite),
            gradient_max=data.draw(st.floats(0.0, 1e6)),
            iterations=data.draw(st.integers(0, 100)),
            ridge=data.draw(st.floats(0.0, 1.0)),
            converged=data.draw(st.booleans()),
        )
        model = LogitModel(
            k=k, beta=beta, categorical_vars=layout, diagnostics=diagnostics
        )
        rows = np.column_stack(
            [
                data.draw(
                    st.lists(
                        st.integers(MISSING_CODE, len(mods) - 1), min_size=8, max_size=8
                    )
                )
                for _, mods in layout
            ]
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(model, path)
            again = load_model(path)
        assert again.k == k
        assert again.categorical_vars == model.categorical_vars
        assert again.diagnostics == model.diagnostics
        assert again.beta.tobytes() == model.beta.tobytes()
        assert (
            predict_proba_rows(again, rows).tobytes()
            == predict_proba_rows(model, rows).tobytes()
        )
