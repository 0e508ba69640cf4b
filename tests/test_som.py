
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from somalloc import som
from somalloc.dataset import ContinuousTable, DataError
from somalloc.pipeline import PipelineConfig, run_pipeline, train_clustering
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
from somalloc.synth import GeneratorSpec, generate


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

    @pytest.mark.parametrize(
        "n, p, units, radius_end",
        [
            (120, 14, 1, 0),
            (120, 14, 5, 0),
            (120, 14, 20, 0),
            (40, 14, 60, 0),  # more units than rows: the initial draw repeats rows
            (120, 14, 20, 1),
            (120, 3, 5, 0),
        ],
        ids=["14col-k1", "14col-k5", "14col-k20", "k-above-n", "radius-end-1", "3col-k5"],
    )
    def test_bit_identical_to_replay_oracle(self, n, p, units, radius_end):
        # 14 columns (at least 8) puts numpy's pairwise summation in the
        # distance; ~5% blank cells mix fully observed and partial rows
        rng = np.random.default_rng(units * 100 + p)
        values = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        observed = rng.random((n, p)) > 0.05
        observed[~observed.any(axis=1), 0] = True
        assert 0 < observed.all(axis=1).sum() < n
        data = ContinuousTable(np.where(observed, values, 0.0), observed)
        cfg = SomConfig(units=units, epochs=3, radius_end=radius_end, seed=units + p)
        cb = train_som(data, cfg)
        oracle_code, _ = replay_train(data.values, data.observed, cfg)
        assert_array_equal(cb.code_vectors, oracle_code)

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
        cb = self._codebook()
        # 50 rows fit in one block of the distance kernel; the larger table
        # spans several blocks and ends in a partial one
        for n in (50, 2 * som._BLOCK_ROWS + 7):
            rng = np.random.default_rng(6)
            values = rng.uniform(0, 6, size=(n, 2))
            observed = rng.random((n, 2)) > 0.2
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


def direct_split_cost(code_vectors, hits, labels):
    """Hit-weighted within-run sum of squares, summed run by run from each
    run's weighted mean."""
    cost = 0.0
    for v in np.unique(labels):
        w, c = hits[labels == v], code_vectors[labels == v]
        mean = (w[:, None] * c).sum(axis=0) / w.sum()
        cost += float((w[:, None] * (c - mean) ** 2).sum())
    return cost


def brute_force_split(code_vectors, hits, k2):
    """The least-cost split of the string into k2 contiguous runs that each
    hold a hit, by enumerating every split; ties go to the split whose run
    starts, read from the last, come earliest."""
    m = len(hits)
    splits = []
    for starts in itertools.combinations(range(1, m), k2 - 1):
        labels = np.searchsorted(np.array(starts, dtype=int), np.arange(m), side="right")
        if np.bincount(labels, weights=hits, minlength=k2).min() > 0:
            splits.append((direct_split_cost(code_vectors, hits, labels), starts, labels))
    least = min(cost for cost, _, _ in splits)
    tied = [(starts[::-1], labels) for cost, starts, labels in splits
            if cost <= least + 1e-12 * max(1.0, least)]
    return least, min(tied, key=lambda t: t[0])[1]


class TestReduction:
    def test_twenty_to_five_macro_clusters(self):
        data, _ = scalar_clusters(seed=21, n=600)
        level1 = train_som(data, SomConfig(units=20, epochs=10, seed=21))
        two = reduce_codebook(level1, 5, assign_all(level1, data))
        assert two.macro_of_unit.shape == (20,)
        assert_array_equal(np.unique(two.macro_of_unit), np.arange(5))
        assert two.n_clusters == 5

    def test_identity_reduction_keeps_units_apart(self):
        # as many macro clusters as units with hits: every run holds one unit
        level1 = Codebook(np.arange(6, dtype=float)[:, None] * 10.0, ("a",))
        two = reduce_codebook(level1, 6, np.arange(6))
        assert_array_equal(two.macro_of_unit, np.arange(6))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m, p = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        vectors = rng.normal(0.0, 3.0, size=(m, p))
        hits = rng.integers(0, 5, size=m) * (rng.random(m) < 0.7)
        hits[rng.integers(m)] += 1
        k2 = int(rng.integers(1, min(4, np.count_nonzero(hits)) + 1))
        level1 = Codebook(vectors, tuple(f"d{j}" for j in range(p)))
        two = reduce_codebook(level1, k2, np.repeat(np.arange(m), hits))
        least, labels = brute_force_split(vectors, hits, k2)
        assert abs(direct_split_cost(vectors, hits, two.macro_of_unit) - least) <= 1e-12
        assert_array_equal(two.macro_of_unit, labels)

    def test_one_macro_cluster_is_the_whole_string(self):
        level1 = Codebook(np.arange(5, dtype=float)[:, None], ("a",))
        two = reduce_codebook(level1, 1, np.array([1, 1, 3]))
        assert_array_equal(two.macro_of_unit, np.zeros(5, dtype=int))

    def test_as_many_clusters_as_hit_units_puts_hitless_units_in_the_later_run(self):
        level1 = Codebook(np.arange(6, dtype=float)[:, None], ("a",))
        # hits on units 1, 3 and 5 only
        two = reduce_codebook(level1, 3, np.array([1, 1, 3, 5, 5, 5]))
        assert_array_equal(two.macro_of_unit, [0, 0, 1, 1, 2, 2])

    @pytest.mark.parametrize("k2", [0, 3, 4])
    def test_more_macro_clusters_than_units_with_hits_rejected(self, k2):
        level1 = Codebook(np.zeros((3, 2)), ("a", "b"))
        with pytest.raises(ValueError, match="2 of its 3 units have training hits"):
            reduce_codebook(level1, k2, np.array([0, 0, 2]))

    def test_two_level_needs_runs_numbered_along_the_string(self):
        level1 = Codebook(np.zeros((4, 1)), ("a",))
        assert TwoLevelClustering(level1, np.array([0, 0, 1, 2])).n_clusters == 3
        for macro in ([1, 1, 2, 2], [0, 1, 0, 1], [0, 0, 2, 2]):
            with pytest.raises(ValueError, match="number runs along the string"):
                TwoLevelClustering(level1, np.array(macro))


class TestMacroClusterRegressions:
    """Seeds at which a second map trained over the code-vectors left a
    macro cluster without training rows."""

    def test_alloc_30k_seed_23_learning_base_completes(self, tmp_path):
        # the benchmark's alloc-30k base: population seed 1, rows drawn with seed 23
        spec = dataclasses.replace(GeneratorSpec.survey_shaped(seed=1, n=8809), seed=23)
        dataset, _ = generate(spec)
        cfg = PipelineConfig(
            continuous_path="", categorical_path="", schema_path="",
            outdir=str(tmp_path), seed=23, test_count=409,
            method="c1", units=20, macro_units=5,
        )
        report = run_pipeline(cfg, dataset=dataset)
        assert report["n_clusters"] == 5
        assert report["macro_contiguous"] is True
        labels = np.loadtxt(tmp_path / "train_labels.csv", skiprows=1, dtype=int)
        assert (np.bincount(labels, minlength=5) > 0).all()

    def test_sweep_gives_non_empty_runs_or_fails_at_train(self, tmp_path):
        outcomes = []
        for seed in range(1, 6):
            data, _ = generate(GeneratorSpec.survey_shaped(seed=seed, n=300))
            for units in (10, 20, 30):
                cfg = SomConfig(units=units, epochs=2, seed=seed)
                for k2 in (3, 5, 8):
                    try:
                        clustering, _, labels = train_clustering(
                            data.continuous, data.schema.continuous_names, cfg, k2,
                            tmp_path / "clustering.json",
                        )
                    except ValueError as exc:
                        assert "units have training hits" in str(exc)
                        outcomes.append("train")
                        continue
                    macro = clustering.macro_of_unit
                    assert_array_equal(np.unique(macro), np.arange(k2))
                    assert set(np.diff(macro)) <= {0, 1}
                    assert_array_equal(labels, cluster_labels(clustering, data.continuous))
                    assert (np.bincount(labels, minlength=k2) > 0).all()
                    outcomes.append("split")
        assert len(outcomes) == 45


class TestClusterOf:
    def test_two_level_composition(self):
        data, _ = scalar_clusters(seed=31, n=500)
        cfg = SomConfig(units=10, epochs=10, seed=31)
        level1 = train_som(data, cfg)
        two = reduce_codebook(level1, 3, assign_all(level1, data))
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
        level1 = train_som(data, cfg)
        two = reduce_codebook(level1, 3, assign_all(level1, data))
        again = clustering_from_dict(clustering_to_dict(two))
        assert isinstance(again, TwoLevelClustering)
        assert_array_equal(again.macro_of_unit, two.macro_of_unit)
        assert_array_equal(again.level1.code_vectors, two.level1.code_vectors)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            clustering_from_dict({"version": 99, "kind": "codebook"})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_saved_clustering_loads_bit_identical(self, tmp_path_factory, data):
        """Both kinds come back from clustering.json with the same bits,
        -0.0, subnormals and the largest doubles included."""
        p = data.draw(st.integers(1, 4))
        number = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 5e-324, -1.7976931348623157e308]),
        )

        def codebook(units):
            values = data.draw(st.lists(number, min_size=units * p, max_size=units * p))
            return Codebook(np.reshape(values, (units, p)), dims)

        dims = tuple(data.draw(st.lists(st.text(max_size=4), min_size=p, max_size=p)))
        level1 = codebook(data.draw(st.integers(1, 6)))
        clustering = level1
        if data.draw(st.booleans()):
            # macro clusters numbered along the string: steps of 0 or 1
            steps = data.draw(st.lists(
                st.integers(0, 1), min_size=level1.units - 1, max_size=level1.units - 1
            ))
            clustering = TwoLevelClustering(level1, np.cumsum([0] + steps))
        path = tmp_path_factory.mktemp("clustering") / "clustering.json"
        som.save_clustering(clustering, path)
        again = som.load_clustering(path)
        assert type(again) is type(clustering)
        if isinstance(clustering, TwoLevelClustering):
            assert_array_equal(again.macro_of_unit, clustering.macro_of_unit)
            pairs = [(again.level1, clustering.level1)]
        else:
            pairs = [(again, clustering)]
        for got, want in pairs:
            assert got.dimensions == want.dimensions
            assert got.code_vectors.tobytes() == want.code_vectors.tobytes()
