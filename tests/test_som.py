
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from somalloc.dataset import ContinuousTable, DataError
from somalloc.som import (
    Codebook,
    SomConfig,
    TwoLevelClustering,
    _masked_distances,
    assign_all,
    cluster_labels,
    clustering_from_dict,
    clustering_to_dict,
    quantization_error,
    reduce_codebook,
    train_som,
)


def table(values, observed=None):
    values = np.asarray(values, dtype=float)
    if observed is None:
        observed = ~np.isnan(values)
        values = np.where(observed, values, 0.0)
    return ContinuousTable(values, observed)


def one_row_distance(x, c):
    """The batch kernel on one row (NaN = missing component) and one unit."""
    x = np.asarray(x, dtype=float)
    obs = ~np.isnan(x)
    values = np.where(obs, x, 0.0)[None, :]
    return float(_masked_distances(values, obs[None, :], np.asarray(c, float)[None, :])[0, 0])


def assign_one(cb, x):
    """assign_all on a one-row table (NaN = missing component)."""
    return int(assign_all(cb, table(np.asarray(x, dtype=float)[None, :]))[0])


def scalar_clusters(seed, n=300, centers=(0.0, 10.0, 20.0, 30.0, 40.0), sigma=1.0):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers)
    labels = rng.integers(len(centers), size=n)
    x = centers[labels] + rng.normal(0.0, sigma, size=n)
    return table(x[:, None]), labels


class TestMaskedDistance:
    def test_fully_observed_is_mean_squared_euclidean(self):
        x = np.array([1.0, 2.0, 3.0])
        c = np.array([2.0, 0.0, 3.0])
        assert one_row_distance(x, c) == pytest.approx((1 + 4 + 0) / 3)

    def test_unobserved_component_ignored(self):
        assert one_row_distance(np.array([1.0, np.nan]), np.array([1.0, 99.0])) == 0.0

    def test_mixed_example(self):
        x = np.array([0.0, np.nan, 4.0])
        c = np.array([2.0, 5.0, 1.0])
        assert one_row_distance(x, c) == pytest.approx(6.5)

    def test_no_observed_components_rejected(self):
        # tables, the kernel's only input, refuse such rows up front
        with pytest.raises(DataError, match="no observed"):
            table(np.array([[np.nan, np.nan]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            one_row_distance(np.zeros(2), np.zeros(3))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equals_distance_on_observed_subvector(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.integers(2, 8)
        x = rng.normal(size=p)
        c = rng.normal(size=p)
        obs = rng.random(p) > 0.4
        if not obs.any():
            obs[0] = True
        masked = np.where(obs, x, np.nan)
        assert one_row_distance(masked, c) == pytest.approx(
            one_row_distance(x[obs], c[obs])
        )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetric_in_observed_components(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.integers(1, 8)
        x = rng.normal(size=p)
        c = rng.normal(size=p)
        obs = rng.random(p) > 0.3
        if not obs.any():
            obs[0] = True
        masked_x = np.where(obs, x, np.nan)
        swapped_c = np.where(obs, c, np.nan)
        d1 = one_row_distance(masked_x, c)
        d2 = one_row_distance(swapped_c, x)
        assert d1 == pytest.approx(d2)


def replay_train(values, observed, cfg):
    """Independent re-implementation of the online training loop.

    Returns the final codebook and the BMU seen for each row during its
    last-epoch visit.
    """
    n, p = values.shape
    rng = np.random.default_rng(cfg.seed)
    counts = observed.sum(axis=0)
    sums = np.where(observed, values, 0.0).sum(axis=0)
    col_means = np.divide(sums, counts, out=np.zeros(p), where=counts > 0)
    pick = rng.choice(n, size=cfg.units, replace=cfg.units > n)
    code = np.where(observed[pick], values[pick], col_means[None, :])
    code = code.astype(float)
    total = cfg.epochs * n
    denom = max(total - 1, 1)
    last_bmu = np.full(n, -1)
    step = 0
    for epoch in range(cfg.epochs):
        for i in rng.permutation(n):
            frac = step / denom
            lr = cfg.lr_start + (cfg.lr_end - cfg.lr_start) * frac
            radius = int(
                cfg.radius_start + (cfg.radius_end - cfg.radius_start) * frac + 0.5
            )
            obs = observed[i]
            dist = np.array(
                [np.mean((values[i, obs] - code[u, obs]) ** 2) for u in range(cfg.units)]
            )
            best = int(np.argmin(dist))
            if epoch == cfg.epochs - 1:
                last_bmu[i] = best
            for u in range(max(0, best - radius), min(cfg.units, best + radius + 1)):
                code[u, obs] += lr * (values[i, obs] - code[u, obs])
            step += 1
    return code, last_bmu


class TestTraining:
    def test_single_unit_converges_to_masked_column_means(self):
        rng = np.random.default_rng(8)
        n, p = 400, 3
        values = rng.uniform(0.0, 1.0, size=(n, p))
        observed = rng.random((n, p)) > 0.25
        observed[~observed.any(axis=1), 0] = True
        data = ContinuousTable(np.where(observed, values, 0.0), observed)
        cfg = SomConfig(units=1, epochs=80, lr_start=0.5, lr_end=1e-4, seed=1)
        cb = train_som(data, cfg)
        counts = observed.sum(axis=0)
        means = np.where(observed, values, 0.0).sum(axis=0) / counts
        assert_allclose(cb.code_vectors[0], means, atol=1e-2)

    def test_five_units_self_organize_on_separated_scalars(self):
        data, _ = scalar_clusters(seed=3)
        cb = train_som(data, SomConfig(units=5, epochs=10, seed=3))
        steps = np.diff(cb.code_vectors[:, 0])
        assert (steps > 0).all() or (steps < 0).all()

    def test_matches_replay_oracle(self):
        rng = np.random.default_rng(5)
        n, p = 60, 4
        values = rng.normal(size=(n, p))
        observed = rng.random((n, p)) > 0.2
        observed[~observed.any(axis=1), 0] = True
        data = ContinuousTable(np.where(observed, values, 0.0), observed)
        cfg = SomConfig(units=4, epochs=6, seed=9)
        cb = train_som(data, cfg)
        oracle_code, _ = replay_train(data.values, data.observed, cfg)
        assert_allclose(cb.code_vectors, oracle_code, atol=1e-12)

    def test_final_epoch_bmu_map_matches_assignments(self):
        # with well-separated clusters and a decayed learning rate the
        # codebook motion during the last epoch never crosses a Voronoi
        # boundary, so the final epoch's BMU map equals the post-training
        # assignment
        data, _ = scalar_clusters(seed=11, n=120)
        cfg = SomConfig(units=5, epochs=8, lr_start=0.5, lr_end=1e-9, seed=2)
        cb = train_som(data, cfg)
        oracle_code, last_bmu = replay_train(data.values, data.observed, cfg)
        assert_allclose(cb.code_vectors, oracle_code, atol=1e-12)
        recomputed = assign_all(cb, data)
        assert_array_equal(recomputed, last_bmu)

    def test_deterministic_given_seed(self):
        data, _ = scalar_clusters(seed=4, n=100)
        cfg = SomConfig(units=5, epochs=5, seed=7)
        a = train_som(data, cfg)
        b = train_som(data, cfg)
        assert_array_equal(a.code_vectors, b.code_vectors)

    def test_code_vectors_stay_in_data_envelope(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            values = rng.uniform(-3.0, 7.0, size=(150, 3))
            observed = rng.random((150, 3)) > 0.2
            observed[~observed.any(axis=1), 0] = True
            data = ContinuousTable(np.where(observed, values, 0.0), observed)
            cb = train_som(data, SomConfig(units=6, epochs=5, seed=seed))
            for j in range(3):
                col = values[observed[:, j], j]
                assert cb.code_vectors[:, j].min() >= col.min() - 1e-12
                assert cb.code_vectors[:, j].max() <= col.max() + 1e-12

    def test_twenty_units_give_balanced_classes_on_survey_data(self):
        from somalloc.synth import GeneratorSpec, generate

        dataset, _ = generate(GeneratorSpec.survey_shaped(seed=2, n=4000))
        cb = train_som(dataset.continuous, SomConfig(units=20, seed=2))
        shares = np.bincount(assign_all(cb, dataset.continuous), minlength=20) / 4000
        assert shares.max() <= 3.0 / 20.0  # no unit hoards rows

    def test_direct_map_orders_clusters_along_dominant_share(self):
        from somalloc.synth import GeneratorSpec, generate

        for seed in (1, 2, 3):
            dataset, _ = generate(GeneratorSpec.survey_shaped(seed=seed, n=4000))
            cb = train_som(dataset.continuous, SomConfig(units=5, seed=seed))
            steps = np.diff(cb.code_vectors[:, 0])  # dominant share sits first
            assert (steps > 0).all() or (steps < 0).all()

    def test_empty_data_rejected(self):
        data = table(np.zeros((0, 2)))
        with pytest.raises(ValueError, match="empty"):
            train_som(data, SomConfig(units=2, epochs=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SomConfig(units=0)
        with pytest.raises(ValueError):
            SomConfig(units=3, lr_start=0.1, lr_end=0.5)
        with pytest.raises(ValueError):
            SomConfig(units=3, radius_start=0, radius_end=2)
        assert SomConfig(units=20).radius_start == 5  # ceil(20 / 4)


class TestAssignment:
    def _codebook(self):
        return Codebook(
            np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0], [6.0, 6.0]]),
            ("a", "b"),
        )

    def test_exact_code_vector_maps_to_itself(self):
        cb = self._codebook()
        assert assign_one(cb, np.array([3.0, 3.0])) == 2

    def test_tie_breaks_to_lowest_index(self):
        cb = Codebook(np.array([[0.0], [2.0], [2.0]]), ("a",))
        assert assign_one(cb, np.array([2.0])) == 1
        assert assign_one(cb, np.array([1.0])) == 0  # equidistant to units 0 and 1

    def test_masked_assignment(self):
        cb = self._codebook()
        assert assign_one(cb, np.array([np.nan, 6.2])) == 3

    def test_assign_all_agrees_with_assign(self):
        rng = np.random.default_rng(6)
        cb = self._codebook()
        values = rng.uniform(0, 6, size=(50, 2))
        observed = rng.random((50, 2)) > 0.2
        observed[~observed.any(axis=1), 0] = True
        data = ContinuousTable(np.where(observed, values, 0.0), observed)
        batch = assign_all(cb, data)
        singles = []
        for x, obs in zip(data.values, data.observed):
            dist = [np.mean((x[obs] - c[obs]) ** 2) for c in cb.code_vectors]
            singles.append(int(np.argmin(dist)))
        assert_array_equal(batch, singles)


class TestQuantizationError:
    def test_zero_when_rows_equal_code_vectors(self):
        vectors = np.array([[0.0, 1.0], [5.0, 2.0]])
        cb = Codebook(vectors, ("a", "b"))
        data = table(np.vstack([vectors, vectors]))
        assert quantization_error(cb, data) == 0.0

    def test_duplicate_unit_leaves_qe_unchanged(self):
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(4, 3))
        data = table(rng.normal(size=(30, 3)))
        cb = Codebook(vectors, ("a", "b", "c"))
        dup = Codebook(np.vstack([vectors, vectors[2]]), ("a", "b", "c"))
        assert quantization_error(cb, data) == pytest.approx(
            quantization_error(dup, data)
        )

    def test_larger_trained_map_has_no_worse_qe(self):
        data, _ = scalar_clusters(seed=13, n=400)
        cb5 = train_som(data, SomConfig(units=5, epochs=10, seed=13))
        cb20 = train_som(data, SomConfig(units=20, epochs=10, seed=13))
        assert quantization_error(cb20, data) <= quantization_error(cb5, data)


class TestReduction:
    def test_twenty_to_five_macro_clusters(self):
        data, _ = scalar_clusters(seed=21, n=600)
        cfg = SomConfig(units=20, epochs=10, seed=21)
        level1 = train_som(data, cfg)
        two = reduce_codebook(level1, 5, cfg)
        assert two.level2.units == 5
        assert two.macro_of_unit.shape == (20,)
        assert set(np.unique(two.macro_of_unit)) <= set(range(5))
        assert two.n_clusters == 5

    def test_identity_reduction_keeps_units_apart(self):
        # well separated code-vectors, as many macro units as units: every
        # macro class holds exactly one unit
        level1 = Codebook(np.arange(6, dtype=float)[:, None] * 10.0, ("a",))
        cfg = SomConfig(units=6, epochs=60, seed=5)
        two = reduce_codebook(level1, 6, cfg)
        assert sorted(two.macro_of_unit.tolist()) == list(range(6))

    def test_monotone_code_vectors_give_contiguous_macros(self):
        for seed in range(5):
            level1 = Codebook(np.linspace(0, 100, 20)[:, None], ("a",))
            cfg = SomConfig(units=20, epochs=40, seed=seed)
            two = reduce_codebook(level1, 4, cfg)
            assert two.contiguous

    def test_too_many_macro_units_rejected(self):
        level1 = Codebook(np.zeros((3, 2)), ("a", "b"))
        with pytest.raises(ValueError, match="reduce"):
            reduce_codebook(level1, 4, SomConfig(units=3))


class TestClusterOf:
    def test_two_level_composition(self):
        data, _ = scalar_clusters(seed=31, n=500)
        cfg = SomConfig(units=10, epochs=10, seed=31)
        level1 = train_som(data, cfg)
        two = reduce_codebook(level1, 3, cfg)
        labels = cluster_labels(two, table(level1.code_vectors))
        assert_array_equal(labels, two.macro_of_unit)

    def test_plain_codebook_is_assign(self):
        cb = Codebook(np.array([[0.0], [5.0]]), ("a",))
        data = table([[4.0], [1.0]])
        assert_array_equal(cluster_labels(cb, data), assign_all(cb, data))

    def test_direct_five_unit_labels_in_range(self):
        data, _ = scalar_clusters(seed=41, n=200)
        cb = train_som(data, SomConfig(units=5, epochs=8, seed=41))
        labels = cluster_labels(cb, data)
        assert set(np.unique(labels)) <= set(range(5))


class TestSerialization:
    def test_codebook_round_trip(self):
        cb = Codebook(np.array([[1.5, 2.5], [3.5, 4.5]]), ("a", "b"))
        again = clustering_from_dict(clustering_to_dict(cb))
        assert isinstance(again, Codebook)
        assert_array_equal(again.code_vectors, cb.code_vectors)
        assert again.dimensions == cb.dimensions

    def test_two_level_round_trip(self):
        data, _ = scalar_clusters(seed=51, n=300)
        cfg = SomConfig(units=8, epochs=6, seed=51)
        two = reduce_codebook(train_som(data, cfg), 3, cfg)
        again = clustering_from_dict(clustering_to_dict(two))
        assert isinstance(again, TwoLevelClustering)
        assert_array_equal(again.macro_of_unit, two.macro_of_unit)
        assert_array_equal(again.level1.code_vectors, two.level1.code_vectors)
        assert_array_equal(again.level2.code_vectors, two.level2.code_vectors)
        assert again.contiguous == two.contiguous

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            clustering_from_dict({"version": 99, "kind": "codebook"})
