import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from somalloc.dataset import CategoricalTable, ContinuousTable, DataError, Dataset, Schema
from somalloc.logit import EncodingSpec, encode_rows
from somalloc.varselect import fit_additive_anova, select_variables

from conftest import make_dataset


def design_of(table, schema):
    """The screening design: select_variables' call of the logit encoder."""
    return encode_rows(table, EncodingSpec.from_schema(schema))


def normal_equations_oracle(y, design):
    """Dense least squares via the normal equations; rank from SVD."""
    beta = np.linalg.pinv(design.T @ design) @ design.T @ y
    resid = y - design @ beta
    sse = float(resid @ resid)
    centered = y - y.mean()
    sst = float(centered @ centered)
    rank = int(np.linalg.matrix_rank(design))
    df_model = rank - 1
    df_error = len(y) - rank
    ssr = sst - sse
    r2 = ssr / sst
    fisher = (ssr / df_model) / (sse / df_error)
    return fisher, r2, df_model, df_error


def random_factors(rng, n, n_factors, max_mods=4):
    counts = rng.integers(2, max_mods + 1, size=n_factors)
    codes = np.column_stack([rng.integers(m, size=n) for m in counts])
    schema = Schema(
        continuous_names=("x",),
        categorical_vars=tuple(
            (f"f{j}", tuple(f"m{i}" for i in range(m))) for j, m in enumerate(counts)
        ),
        compositional=False,
    )
    return CategoricalTable(codes), schema


class TestDummyDesign:
    def test_single_two_modality_variable(self):
        schema = Schema(("x",), (("v", ("A", "B")),), compositional=False)
        table = CategoricalTable(np.array([[0], [1], [0]]))
        design = design_of(table, schema)
        assert_array_equal(design, [[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def test_width_two_variables(self):
        schema = Schema(
            ("x",),
            (("a", ("p", "q")), ("b", ("r", "s", "t"))),
            compositional=False,
        )
        table = CategoricalTable(np.array([[0, 2], [1, 0]]))
        design = design_of(table, schema)
        assert design.shape == (2, 4)  # 1 + 1 + 2

    def test_survey_modality_counts_give_width_33(self):
        counts = (4, 3, 4, 3, 5, 5, 3, 5, 5, 5)
        schema = Schema(
            ("x",),
            tuple(
                (f"v{j}", tuple(f"m{i}" for i in range(m)))
                for j, m in enumerate(counts)
            ),
            compositional=False,
        )
        table = CategoricalTable(np.zeros((2, 10), dtype=np.int64))
        assert design_of(table, schema).shape[1] == 33

    def test_missing_codes_rejected(self):
        # the design assumes complete data; the learning base guarantees it
        schema = Schema(("x",), (("v", ("A", "B")),), compositional=False)
        continuous = ContinuousTable(np.array([[1.0]]), np.array([[True]]))
        with pytest.raises(DataError, match="missing categorical"):
            Dataset(schema, continuous, CategoricalTable(np.array([[-1]])))


class TestAdditiveAnova:
    def test_perfect_separation_gives_r2_one(self):
        rng = np.random.default_rng(0)
        schema = Schema(("x",), (("v", ("A", "B")),), compositional=False)
        codes = rng.integers(2, size=(40, 1))
        table = CategoricalTable(codes)
        design = design_of(table, schema)
        x = codes[:, 0].astype(float)
        fit = fit_additive_anova(x, None, design)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        # residuals at rounding level: F blows up (inf if SSE is exactly 0)
        assert fit.fisher_statistic > 1e15

    def test_independent_response_matches_oracle_and_is_small(self):
        rng = np.random.default_rng(1)
        n = 2000
        table, _ = random_factors(rng, n, 2)
        schema = Schema(
            ("x",),
            tuple(
                (f"f{j}", tuple(f"m{i}" for i in range(int(table.codes[:, j].max()) + 1)))
                for j in range(2)
            ),
            compositional=False,
        )
        design = design_of(table, schema)
        x = rng.normal(size=n)
        fit = fit_additive_anova(x, None, design)
        fisher, r2, dfm, dfe = normal_equations_oracle(x, design)
        assert_allclose(fit.r_squared, r2, rtol=1e-10, atol=1e-10)
        assert_allclose(fit.fisher_statistic, fisher, rtol=1e-10, atol=1e-10)
        assert fit.r_squared < 0.01

    def test_small_instance_matches_oracle(self):
        rng = np.random.default_rng(2)
        n = 20
        table, schema = random_factors(rng, n, 2, max_mods=3)
        design = design_of(table, schema)
        x = rng.normal(size=n) + table.codes[:, 0]
        fit = fit_additive_anova(x, None, design)
        fisher, r2, dfm, dfe = normal_equations_oracle(x, design)
        assert_allclose(fit.fisher_statistic, fisher, rtol=1e-10, atol=1e-10)
        assert_allclose(fit.r_squared, r2, rtol=1e-10, atol=1e-10)
        assert (fit.df_model, fit.df_error) == (dfm, dfe)

    def test_rows_with_missing_response_are_dropped(self):
        rng = np.random.default_rng(3)
        n = 60
        table, schema = random_factors(rng, n, 1)
        design = design_of(table, schema)
        x = rng.normal(size=n) + 0.5 * table.codes[:, 0]
        observed = rng.random(n) > 0.3
        fit = fit_additive_anova(x, observed, design)
        sub = fit_additive_anova(x[observed], None, design[observed])
        assert fit.rows_used == int(observed.sum())
        assert_allclose(fit.r_squared, sub.r_squared, atol=1e-14)
        assert_allclose(fit.fisher_statistic, sub.fisher_statistic, atol=1e-12)

    def test_duplicated_indicator_column_changes_nothing(self):
        rng = np.random.default_rng(4)
        n = 50
        table, schema = random_factors(rng, n, 2, max_mods=3)
        design = design_of(table, schema)
        x = rng.normal(size=n) + table.codes.sum(axis=1)
        fit = fit_additive_anova(x, None, design)
        padded = np.column_stack([design, design[:, 1]])
        fit2 = fit_additive_anova(x, None, padded)
        assert_allclose(fit2.r_squared, fit.r_squared, rtol=1e-10, atol=1e-10)
        assert_allclose(
            fit2.fisher_statistic, fit.fisher_statistic, rtol=1e-10, atol=1e-10
        )
        assert fit2.df_model == fit.df_model  # rank-aware, not column-count

    def test_constant_response_is_degenerate(self):
        rng = np.random.default_rng(5)
        table, schema = random_factors(rng, 30, 1)
        design = design_of(table, schema)
        fit = fit_additive_anova(np.full(30, 7.0), None, design)
        assert fit.degenerate
        assert fit.r_squared == 0.0
        assert fit.fisher_statistic == 0.0

    def test_too_few_rows_rejected(self):
        rng = np.random.default_rng(6)
        table, schema = random_factors(rng, 30, 1)
        design = design_of(table, schema)
        observed = np.zeros(30, dtype=bool)
        observed[: design.shape[1]] = True
        with pytest.raises(DataError, match="more observed rows"):
            fit_additive_anova(np.ones(30), observed, design)

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-50, 50).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-100, 100),
        seed=st.integers(0, 10_000),
    )
    def test_r2_invariant_under_affine_rescaling(self, a, b, seed):
        rng = np.random.default_rng(seed)
        n = 40
        table, schema = random_factors(rng, n, 1)
        design = design_of(table, schema)
        x = rng.normal(size=n) + table.codes[:, 0]
        base = fit_additive_anova(x, None, design)
        scaled = fit_additive_anova(a * x + b, None, design)
        assert_allclose(scaled.r_squared, base.r_squared, rtol=1e-7, atol=1e-9)


class TestSelectVariables:
    def _planted_dataset(self, seed=0, n=1500):
        """Six continuous variables; indices 1 and 4 are independent noise."""
        rng = np.random.default_rng(seed)
        labels = rng.integers(3, size=n)
        codes = np.column_stack(
            [
                np.where(rng.random(n) < 0.8, labels % 2, rng.integers(2, size=n)),
                np.where(rng.random(n) < 0.8, labels, rng.integers(3, size=n)),
            ]
        )
        values = np.zeros((n, 6))
        informative = [0, 2, 3, 5]
        for j in informative:
            values[:, j] = labels * (j + 1.0) + rng.normal(size=n)
        for j in (1, 4):
            values[:, j] = rng.normal(size=n)
        return make_dataset(values, None, codes, compositional=False), {1, 4}

    def test_noise_variables_are_the_unselected_ones(self):
        d, noise = self._planted_dataset()
        report = select_variables(d, threshold=0.08)
        unselected = {i for i, v in enumerate(report.variables) if not v.selected}
        assert unselected == noise

    def test_epsilon_threshold_selects_everything(self):
        d, _ = self._planted_dataset()
        report = select_variables(d, threshold=1e-12)
        assert all(v.selected for v in report.variables)

    def test_threshold_validated(self):
        d, _ = self._planted_dataset(n=200)
        with pytest.raises(DataError):
            select_variables(d, threshold=0.0)
        with pytest.raises(DataError):
            select_variables(d, threshold=1.0)

    def test_report_csv(self, tmp_path):
        d, _ = self._planted_dataset(n=400)
        report = select_variables(d, threshold=0.08)
        path = tmp_path / "anova.csv"
        report.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("variable,F,R2")
        assert len(lines) == 7
