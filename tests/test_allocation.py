import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from somalloc.allocation import (
    allocate,
    build_contingency,
    ContingencyTable,
    evaluate,
    true_classes,
)
from somalloc.dataset import ContinuousTable
from somalloc.logit import FitDiagnostics, LogitModel
from somalloc.som import Codebook, SomConfig, assign_all, reduce_codebook, train_som
from somalloc.synth import GeneratorSpec, generate

# regression fixtures: five-cluster allocation-vs-reference tables,
# rows = allocated, columns = reference class
TABLE_TWO_LEVEL = np.array(
    [
        [55, 22, 29, 11, 6],
        [23, 22, 14, 9, 4],
        [17, 11, 59, 26, 9],
        [2, 2, 2, 3, 4],
        [6, 4, 7, 15, 47],
    ]
)
TABLE_DIRECT = np.array(
    [
        [33, 12, 3, 3, 5],
        [23, 33, 22, 17, 3],
        [8, 27, 56, 15, 3],
        [0, 3, 11, 42, 21],
        [8, 3, 1, 10, 47],
    ]
)


def intercept_model(probs):
    """K-class model whose every prediction equals the given vector."""
    probs = np.asarray(probs, dtype=float)
    k = probs.size
    beta = np.zeros((k - 1, 2))
    beta[:, 0] = np.log(probs[:-1] / probs[-1])
    spec = (("v", ("a", "b")),)
    return LogitModel(
        k=k, beta=beta, categorical_vars=spec, diagnostics=FitDiagnostics(0, 0, 0, 0, True)
    )


class TestAllocate:
    def test_argmax_picks_most_probable(self):
        model = intercept_model([0.1, 0.7, 0.2])
        result = allocate(model, np.array([[0], [1]]))
        assert_array_equal(result.assigned, [1, 1])
        assert_allclose(result.probabilities[0], [0.1, 0.7, 0.2], atol=1e-12)

    def test_argmax_tie_goes_to_lowest_index(self):
        model = intercept_model([0.5, 0.5])
        result = allocate(model, np.array([[0]]))
        assert result.assigned[0] == 0

    def test_sampling_frequencies_follow_probabilities(self):
        model = intercept_model([0.2, 0.8])
        n = 100_000
        result = allocate(model, np.zeros((n, 1), dtype=int), mode="sample", seed=17)
        freq = np.bincount(result.assigned, minlength=2) / n
        assert_allclose(freq, [0.2, 0.8], atol=0.01)

    def test_sampling_deterministic_given_seed(self):
        model = intercept_model([0.3, 0.3, 0.4])
        rows = np.zeros((500, 1), dtype=int)
        a = allocate(model, rows, mode="sample", seed=5)
        b = allocate(model, rows, mode="sample", seed=5)
        assert_array_equal(a.assigned, b.assigned)

    def test_sampling_matches_per_row_inverse_cdf(self):
        rng = np.random.default_rng(11)
        model = LogitModel(
            k=4,
            beta=rng.normal(size=(3, 3)),
            categorical_vars=(("v", ("a", "b", "c")),),
            diagnostics=FitDiagnostics(0, 0, 0, 0, True),
        )
        rows = rng.integers(-1, 3, size=(400, 1))
        result = allocate(model, rows, mode="sample", seed=3)
        # reference: row i's uniform is the i-th draw of the seed's Philox
        # stream, inverted through that row's cumulative probabilities
        u = np.random.Generator(np.random.Philox(key=3)).random(len(rows))
        expected = [
            min(int(np.searchsorted(np.cumsum(p), ui, side="right")), 3)
            for p, ui in zip(result.probabilities, u)
        ]
        assert_array_equal(result.assigned, expected)

    def test_sampling_streams_of_neighbouring_seeds_differ(self):
        # seeds s and s^1 must not reuse each other's draws with the rows
        # swapped pairwise
        model = intercept_model([0.3, 0.3, 0.4])
        rows = np.zeros((500, 1), dtype=int)
        a = allocate(model, rows, mode="sample", seed=0).assigned
        b = allocate(model, rows, mode="sample", seed=1).assigned
        assert not np.array_equal(a, b.reshape(-1, 2)[:, ::-1].ravel())

    def test_sampling_of_leading_rows_matches_the_full_table(self):
        model = intercept_model([0.3, 0.3, 0.4])
        rows = np.random.default_rng(4).integers(-1, 2, size=(300, 1))
        full = allocate(model, rows, mode="sample", seed=9).assigned
        head = allocate(model, rows[:120], mode="sample", seed=9).assigned
        assert_array_equal(head, full[:120])

    def test_missing_cells_counted(self):
        model = intercept_model([0.5, 0.5])
        result = allocate(model, np.array([[-1], [0]]))
        assert_array_equal(result.missing_counts, [1, 0])

    def test_unknown_mode_rejected(self):
        model = intercept_model([0.5, 0.5])
        with pytest.raises(ValueError, match="mode"):
            allocate(model, np.array([[0]]), mode="greedy")

    def test_argmax_invariant_under_monotone_transform(self):
        model = intercept_model([0.15, 0.35, 0.5])
        rng = np.random.default_rng(3)
        rows = rng.integers(2, size=(50, 1))
        result = allocate(model, rows)
        transformed = np.sqrt(result.probabilities) + 2.0  # strictly monotone
        assert_array_equal(np.argmax(transformed, axis=1), result.assigned)


class TestTrueClass:
    def _two_level(self):
        rng = np.random.default_rng(23)
        centers = np.array([0.0, 10.0, 20.0, 30.0])
        labels = rng.integers(4, size=400)
        x = centers[labels] + rng.normal(0, 1.0, size=400)
        data = ContinuousTable(x[:, None], np.ones((400, 1), bool))
        level1 = train_som(data, SomConfig(units=12, epochs=10, seed=23))
        return reduce_codebook(level1, 4, assign_all(level1, data))

    def test_level1_code_vector_maps_to_its_macro(self):
        two = self._two_level()
        vectors = two.level1.code_vectors
        data = ContinuousTable(vectors, np.ones_like(vectors, dtype=bool))
        assert_array_equal(true_classes(two, data), two.macro_of_unit)

    def test_fully_observed_equals_plain_nearest_neighbor(self):
        cb = Codebook(np.array([[0.0, 0.0], [4.0, 4.0]]), ("a", "b"))
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 5, size=(20, 2))
        expect = [np.argmin(((cb.code_vectors - row) ** 2).sum(axis=1)) for row in x]
        data = ContinuousTable(x, np.ones_like(x, dtype=bool))
        assert_array_equal(true_classes(cb, data), expect)

    def test_recovers_planted_clusters_on_generator_data(self):
        spec = GeneratorSpec.survey_shaped(seed=29, n=3000)
        dataset, planted = generate(spec)
        cfg = SomConfig(units=5, epochs=10, seed=29)
        cb = train_som(dataset.continuous, cfg)
        truth = true_classes(cb, dataset.continuous)
        # map each planted cluster to its dominant recovered label
        agree = 0
        for c in range(5):
            counts = np.bincount(truth[planted == c], minlength=5)
            agree += counts.max()
        assert agree / dataset.n_rows >= 0.90


class TestContingency:
    def test_identity_diagonal(self):
        t = build_contingency(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
        assert_array_equal(t.counts, np.eye(3, dtype=int))

    def test_empty_inputs_give_zero_table(self):
        t = build_contingency(np.array([], dtype=int), np.array([], dtype=int), 3)
        assert t.counts.sum() == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1 labels for 2 rows"):
            build_contingency(np.array([0]), np.array([0, 1]), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            build_contingency(np.array([3]), np.array([0]), 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        allocated = rng.integers(4, size=200)
        truth = rng.integers(4, size=200)
        perm = rng.permutation(200)
        a = build_contingency(allocated, truth, 4)
        b = build_contingency(allocated[perm], truth[perm], 4)
        assert_array_equal(a.counts, b.counts)

    def test_published_two_level_marginals(self):
        t = ContingencyTable(TABLE_TWO_LEVEL)
        assert_array_equal(t.counts.sum(axis=1), [123, 72, 122, 13, 79])
        assert_array_equal(t.counts.sum(axis=0), [103, 61, 111, 64, 70])
        assert t.total == 409


class TestEvaluate:
    def test_two_level_fixture_scores(self):
        summary = evaluate(ContingencyTable(TABLE_TWO_LEVEL))
        assert summary.exact == 186
        assert summary.neighbor == 117
        assert summary.correct == 303
        assert summary.correct_rate == pytest.approx(303 / 409)

    def test_direct_fixture_scores(self):
        summary = evaluate(ContingencyTable(TABLE_DIRECT))
        assert summary.exact == 211
        assert summary.neighbor == 141
        assert summary.correct == 352
        assert summary.correct_rate == pytest.approx(352 / 409)

    def test_all_diagonal_is_fully_correct(self):
        summary = evaluate(ContingencyTable(np.diag([5, 3, 2])))
        assert summary.exact_rate == 1.0
        assert summary.correct_rate == 1.0

    def test_single_cluster_rates_are_one(self):
        summary = evaluate(ContingencyTable(np.array([[7]])))
        assert summary.exact_rate == 1.0
        assert summary.correct_rate == 1.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(ContingencyTable(np.zeros((3, 3), dtype=int)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_exact_bounded_by_correct_bounded_by_total(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        counts = rng.integers(0, 20, size=(k, k))
        if counts.sum() == 0:
            counts[0, 0] = 1
        summary = evaluate(ContingencyTable(counts))
        assert 0 <= summary.exact <= summary.correct <= summary.total
