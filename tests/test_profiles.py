import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from somalloc.dataset import MISSING_CODE, CategoricalTable, DataError
from somalloc.profiles import (
    describe_clusters,
    mean_profile_svg,
    save_continuous_stats_csv,
    save_modality_csv,
    test_values as modality_test_values,
)

from conftest import make_dataset


def random_dataset(seed, n=200, k=4):
    rng = np.random.default_rng(seed)
    labels = rng.integers(k, size=n)
    values = rng.normal(size=(n, 3)) + labels[:, None]
    observed = rng.random((n, 3)) > 0.15
    observed[~observed.any(axis=1), 0] = True
    codes = np.column_stack(
        [rng.integers(3, size=n), rng.integers(2, size=n)]
    )
    d = make_dataset(np.where(observed, values, 0.0), observed, codes,
                     compositional=False)
    return d, labels


class TestTestValues:
    def test_single_cluster_gives_all_ones(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(3, size=(50, 1))
        tables = modality_test_values(
            CategoricalTable(codes), np.zeros(50, dtype=int), 1, (3,)
        )
        present = np.bincount(codes[:, 0], minlength=3) > 0
        assert_allclose(tables[0][0, present], 1.0)

    def test_planted_elevated_rate(self):
        # modality 0 planted at 28% inside cluster 2 but 10% overall:
        # expect the ratio (7/25) / (10/100) = 2.8
        codes = np.ones((100, 1), dtype=np.int64)
        labels = np.repeat([0, 1, 2, 3], 25)
        codes[50:57, 0] = 0  # 7 of the 25 rows in cluster 2
        codes[0:3, 0] = 0  # 3 more elsewhere, 10 in total
        tables = modality_test_values(CategoricalTable(codes), labels, 4, (2,))
        assert tables[0][2, 0] == pytest.approx(2.8)

    def test_uniform_distribution_gives_ones(self):
        # every cluster sees each modality in identical proportion
        labels = np.repeat([0, 1, 2], 30)
        codes = np.tile(np.repeat([0, 1, 2], 10), 3)[:, None]
        tables = modality_test_values(CategoricalTable(codes), labels, 3, (3,))
        assert_allclose(tables[0], 1.0)

    def test_absent_modality_is_nan_not_zero_division(self):
        codes = np.zeros((10, 1), dtype=np.int64)  # modality 1 never occurs
        labels = np.repeat([0, 1], 5)
        tables = modality_test_values(CategoricalTable(codes), labels, 2, (2,))
        assert np.isnan(tables[0][:, 1]).all()
        assert_allclose(tables[0][:, 0], 1.0)

    def test_empty_cluster_rows_are_nan(self):
        codes = np.zeros((6, 1), dtype=np.int64)
        labels = np.zeros(6, dtype=int)
        tables = modality_test_values(CategoricalTable(codes), labels, 3, (2,))
        assert np.isnan(tables[0][1]).all()
        assert np.isnan(tables[0][2]).all()

    @pytest.mark.parametrize("code", [MISSING_CODE, 2])
    def test_code_outside_declared_modalities_is_refused(self, code):
        # np.add.at would count the missing-cell code -1 as the last modality
        codes = np.array([[0], [1], [code], [code]])
        with pytest.raises(DataError, match=rf"^row 2, variable 0: code {code} is not in"):
            modality_test_values(CategoricalTable(codes), np.array([0, 0, 1, 1]), 2, (2,))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_size_weighted_mean_is_exactly_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        k = int(rng.integers(1, 6))
        labels = rng.integers(k, size=n)
        codes = rng.integers(4, size=(n, 2))
        tables = modality_test_values(CategoricalTable(codes), labels, k, (4, 4))
        sizes = np.bincount(labels, minlength=k)
        weights = sizes / n
        for j in range(2):
            glob = np.bincount(codes[:, j], minlength=tables[j].shape[1])
            for m in np.flatnonzero(glob > 0):
                tv = tables[j][:, m]
                total = float(np.sum(weights[sizes > 0] * tv[sizes > 0]))
                assert total == pytest.approx(1.0, abs=1e-12)


class TestDescribeClusters:
    def test_interpolated_quartiles(self):
        d = make_dataset(
            [[10.0], [20.0], [30.0]], None, [[0], [0], [0]], compositional=False
        )
        prof = describe_clusters(d, np.zeros(3, dtype=int), 1)[0]
        assert prof.cont_mean[0] == pytest.approx(20.0)
        assert prof.cont_q1[0] == pytest.approx(15.0)
        assert prof.cont_median[0] == pytest.approx(20.0)
        assert prof.cont_q3[0] == pytest.approx(25.0)
        assert prof.cont_variance[0] == pytest.approx(100.0)  # n-1 denominator

    def test_single_cluster_test_values_are_one(self):
        d, _ = random_dataset(1)
        prof = describe_clusters(d, np.zeros(d.n_rows, dtype=int), 1)[0]
        for j in range(d.schema.l):
            present = prof.global_pct[j] > 0
            assert_allclose(prof.test_value[j][present], 1.0)

    def test_within_pct_sums_to_100(self):
        d, labels = random_dataset(2)
        for prof in describe_clusters(d, labels, 4):
            if prof.size == 0:
                continue
            for j in range(d.schema.l):
                assert prof.within_pct[j].sum() == pytest.approx(100.0, abs=1e-6)

    def test_empty_cluster_flagged_with_nan_stats(self):
        d, _ = random_dataset(3, n=50)
        labels = np.zeros(50, dtype=int)
        profs = describe_clusters(d, labels, 2)
        assert profs[1].size == 0
        assert np.isnan(profs[1].cont_mean).all()
        assert all(np.isnan(w).all() for w in profs[1].within_pct)

    def test_quartile_ordering_and_bounds(self):
        d, labels = random_dataset(4)
        for prof in describe_clusters(d, labels, 4):
            for j in range(d.schema.p):
                if prof.cont_count[j] == 0:
                    continue
                obs = (labels == prof.cluster) & d.continuous.observed[:, j]
                vals = d.continuous.values[obs, j]
                assert vals.min() <= prof.cont_q1[j] <= prof.cont_median[j]
                assert prof.cont_median[j] <= prof.cont_q3[j] <= vals.max()

    def test_row_permutation_invariance(self):
        d, labels = random_dataset(5, n=80)
        rng = np.random.default_rng(0)
        perm = rng.permutation(d.n_rows)
        d_perm = make_dataset(
            d.continuous.values[perm],
            d.continuous.observed[perm],
            d.categorical.codes[perm],
            schema=d.schema,
        )
        a = describe_clusters(d, labels, 4)
        b = describe_clusters(d_perm, labels[perm], 4)
        for pa, pb in zip(a, b):
            assert pa.size == pb.size
            assert_allclose(pa.cont_mean, pb.cont_mean, equal_nan=True)
            assert_allclose(pa.cont_q3, pb.cont_q3, equal_nan=True)
            for j in range(d.schema.l):
                assert_allclose(pa.test_value[j], pb.test_value[j], equal_nan=True)

    def test_missing_entries_excluded_per_statistic(self):
        values = np.array([[1.0, 5.0], [3.0, 0.0], [5.0, 0.0]])
        observed = np.array([[True, True], [True, False], [True, False]])
        d = make_dataset(values, observed, [[0], [0], [0]], compositional=False)
        prof = describe_clusters(d, np.zeros(3, dtype=int), 1)[0]
        assert prof.cont_count[1] == 1
        assert prof.cont_mean[1] == pytest.approx(5.0)
        assert np.isnan(prof.cont_variance[1])  # single observation


class TestOutputs:
    def test_csv_and_svg_writers(self, tmp_path):
        d, labels = random_dataset(6, n=60)
        profs = describe_clusters(d, labels, 4)
        save_continuous_stats_csv(profs, d.schema, tmp_path / "stats.csv")
        save_modality_csv(profs, d.schema, tmp_path / "mods.csv")
        stats = (tmp_path / "stats.csv").read_text().splitlines()
        assert len(stats) == 1 + 4 * d.schema.p
        svg = mean_profile_svg(profs, d.schema)
        assert svg.startswith("<svg")
        assert svg.count("cluster ") == 4
