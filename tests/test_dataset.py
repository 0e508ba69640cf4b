import ast
import csv
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from somalloc.allocation import AllocationResult, ContingencyTable
from somalloc.dataset import (
    _BLOCK_ROWS,
    MISSING_CODE,
    CategoricalTable,
    ContinuousTable,
    DataError,
    Dataset,
    Schema,
    checked_codes,
    checked_labels,
    csv_field,
    load_categorical,
    load_continuous,
    load_dataset,
    load_labels,
    renormalize_composition,
    save_categorical,
    save_continuous,
    save_dataset,
    save_labels,
    split_dataset,
    subset_continuous,
    write_csv,
)
from somalloc.logit import FitDiagnostics, LogitModel
from somalloc.pipeline import _save_allocations
from somalloc.som import Codebook, TwoLevelClustering
from somalloc.synth import GeneratorSpec, generate


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


CLEAN_LABELS = st.text(min_size=1, max_size=6).filter(lambda s: s == s.strip())
OUTER_SPACE = st.sampled_from([" ", "\t", "\n", "\u00a0", "\u3000"])
# labels a CSV cell cannot carry as written, since the loader strips cells
DIRTY_LABELS = st.one_of(
    st.just(""),
    st.tuples(OUTER_SPACE, st.text(max_size=4)).map("".join),
    st.tuples(st.text(max_size=4), OUTER_SPACE).map("".join),
)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="unique"):
            Schema(("a", "b"), (("a", ("x", "y")),))

    def test_single_modality_rejected(self):
        with pytest.raises(DataError, match="modalities"):
            Schema(("a",), (("v", ("only",)),))

    def test_json_round_trip(self, housing_schema, tmp_path):
        path = tmp_path / "schema.json"
        housing_schema.save(path)
        assert Schema.load(path) == housing_schema

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_schema_saves_and_loads_equal(self, tmp_path_factory, data):
        names = data.draw(st.lists(st.text(max_size=6), min_size=2, max_size=8, unique=True))
        p = data.draw(st.integers(1, len(names) - 1))
        layout = tuple(
            (name, tuple(data.draw(
                st.lists(CLEAN_LABELS, min_size=2, max_size=5, unique=True)
            )))
            for name in names[p:]
        )
        schema = Schema(tuple(names[:p]), layout, data.draw(st.booleans()))
        path = tmp_path_factory.mktemp("schema") / "schema.json"
        schema.save(path)
        assert Schema.load(path) == schema

    def test_counts(self, housing_schema):
        assert housing_schema.p == 3
        assert housing_schema.l == 2
        assert housing_schema.modality_counts == (2, 3)


class TestLoading:
    def test_empty_cell_becomes_unobserved(self, housing_schema, tmp_path):
        cont = write(
            tmp_path / "c.csv",
            "food,housing,leisure\n50.0,30.0,20.0\n60.0,,40.0\n10.0,80.0,10.0\n",
        )
        cat = write(
            tmp_path / "k.csv",
            "tenure,town\nOwner,Small\nTenant,Large\nOwner,Medium\n",
        )
        d = load_dataset(cont, cat, housing_schema)
        assert d.n_rows == 3
        assert not d.continuous.observed[1, 1]
        assert d.continuous.observed.sum() == 8
        assert d.continuous.values[1, 1] == 0.0  # canonical fill

    def test_unknown_modality_names_row_and_column(self, housing_schema, tmp_path):
        cont = write(tmp_path / "c.csv", "food,housing,leisure\n50,30,20\n")
        cat = write(tmp_path / "k.csv", "tenure,town\nOwnr,Small\n")
        with pytest.raises(DataError, match=r"row 1.*'tenure'.*'Ownr'"):
            load_dataset(cont, cat, housing_schema)

    def test_malformed_number_names_coordinates(self, housing_schema, tmp_path):
        cont = write(tmp_path / "c.csv", "food,housing,leisure\n50,3O,20\n")
        cat = write(tmp_path / "k.csv", "tenure,town\nOwner,Small\n")
        with pytest.raises(DataError, match=r"row 1.*'housing'.*malformed"):
            load_dataset(cont, cat, housing_schema)

    def test_header_mismatch(self, housing_schema, tmp_path):
        cont = write(tmp_path / "c.csv", "food,rent,leisure\n50,30,20\n")
        cat = write(tmp_path / "k.csv", "tenure,town\nOwner,Small\n")
        with pytest.raises(DataError, match="header mismatch"):
            load_dataset(cont, cat, housing_schema)

    def test_row_count_mismatch(self, housing_schema, tmp_path):
        cont = write(tmp_path / "c.csv", "food,housing,leisure\n50,30,20\n")
        cat = write(
            tmp_path / "k.csv", "tenure,town\nOwner,Small\nTenant,Large\n"
        )
        with pytest.raises(DataError, match="row count mismatch"):
            load_dataset(cont, cat, housing_schema)

    def test_missing_categorical_rejected_in_learning_base(
        self, housing_schema, tmp_path
    ):
        cat = write(tmp_path / "k.csv", "tenure,town\nOwner,\n")
        with pytest.raises(DataError, match=r"row 1.*'town'.*missing"):
            load_categorical(cat, housing_schema, allow_missing=False)

    def test_missing_categorical_allowed_for_new_individuals(
        self, housing_schema, tmp_path
    ):
        cat = write(tmp_path / "k.csv", "tenure,town\nOwner,\n,Large\n")
        table = load_categorical(cat, housing_schema, allow_missing=True)
        assert table.codes[0, 1] == -1
        assert table.codes[1, 0] == -1
        assert table.codes[1, 1] == 2

    def test_round_trip_is_identical(self, housing_schema, tmp_path):
        rng = np.random.default_rng(7)
        n = 20
        raw = rng.uniform(0.0, 1.0, size=(n, 3))
        values = 100.0 * raw / raw.sum(axis=1, keepdims=True)
        observed = rng.random((n, 3)) > 0.2
        observed[~observed.any(axis=1), 0] = True
        codes = np.column_stack(
            [rng.integers(2, size=n), rng.integers(3, size=n)]
        )
        d = Dataset(
            housing_schema,
            ContinuousTable(np.where(observed, values, 0.0), observed),
            CategoricalTable(codes),
        )
        save_dataset(d, tmp_path / "c.csv", tmp_path / "k.csv")
        again = load_dataset(tmp_path / "c.csv", tmp_path / "k.csv", housing_schema)
        assert_array_equal(again.continuous.values, d.continuous.values)
        assert_array_equal(again.continuous.observed, d.continuous.observed)
        assert_array_equal(again.categorical.codes, d.categorical.codes)

    def test_compositional_sum_enforced(self, housing_schema):
        with pytest.raises(DataError, match="sums to"):
            Dataset(
                housing_schema,
                ContinuousTable(np.array([[50.0, 30.0, 30.0]]), np.ones((1, 3), bool)),
                CategoricalTable(np.array([[0, 0]])),
            )

    def test_all_missing_row_rejected(self):
        with pytest.raises(DataError, match="no observed"):
            ContinuousTable(np.zeros((1, 2)), np.zeros((1, 2), bool))

    def test_label_row_with_extra_field_rejected(self, tmp_path):
        labels = write(tmp_path / "labels.csv", "cluster\n1,5\n2\n")
        with pytest.raises(DataError, match="row 1: expected 1 fields, got 2"):
            load_labels(labels)


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310,
    1.7976931348623157e308, -1.7976931348623157e308, 1e300, -123456789.125,
]


@st.composite
def continuous_tables(draw):
    """Tables of any finite doubles (subnormals, huge magnitudes, -0.0
    included) with blank cells; every row keeps one observed cell."""
    n = draw(st.integers(0, 8))
    p = draw(st.integers(1, 5))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(SPECIAL_FLOATS))
    values = np.array(draw(st.lists(number, min_size=n * p, max_size=n * p)),
                      dtype=float).reshape(n, p)
    observed = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p)),
                        dtype=bool).reshape(n, p)
    observed[~observed.any(axis=1), draw(st.integers(0, p - 1))] = True
    return ContinuousTable(values, observed)


@st.composite
def categorical_tables(draw):
    """The layout of 1-4 variables with 2-5 labels each and codes that
    include blank (missing) cells.  Labels may need quoting in CSV; in half
    the layouts one label is empty or carries outer whitespace."""
    variables = draw(st.lists(
        st.lists(CLEAN_LABELS, min_size=2, max_size=5, unique=True),
        min_size=1, max_size=4,
    ))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(variables) - 1))
        variables[j][draw(st.integers(0, len(variables[j]) - 1))] = draw(DIRTY_LABELS)
    n = draw(st.integers(0, 8))
    columns = [
        draw(st.lists(st.integers(-1, len(mods) - 1), min_size=n, max_size=n))
        for mods in variables
    ]
    layout = tuple((f"v{j}", tuple(mods)) for j, mods in enumerate(variables))
    codes = np.array(columns, dtype=np.int64).reshape(len(variables), n).T
    return layout, CategoricalTable(codes)


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(continuous_tables())
    def test_continuous_values_come_back_bit_identical(self, tmp_path_factory, table):
        schema = Schema(tuple(f"c{j}" for j in range(table.n_cols)), (("g", ("a", "b")),))
        path = tmp_path_factory.mktemp("csv") / "c.csv"
        save_continuous(table, schema, path)
        again = load_continuous(path, schema)
        assert_array_equal(again.observed, table.observed)
        assert_array_equal(again.values.view(np.int64), table.values.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(categorical_tables())
    def test_categorical_codes_come_back_with_missing_cells(
        self, tmp_path_factory, layout_and_table
    ):
        layout, table = layout_and_table
        dirty = [
            (name, label) for name, mods in layout for label in mods
            if label != label.strip() or not label
        ]
        if dirty:
            name, label = dirty[0]
            with pytest.raises(DataError) as exc:
                Schema(("x",), layout)
            assert f"categorical variable {name!r}: modality label {label!r}" in str(exc.value)
            return
        schema = Schema(("x",), layout)
        path = tmp_path_factory.mktemp("csv") / "k.csv"
        save_categorical(table, schema, path)
        again = load_categorical(path, schema, allow_missing=True)
        assert_array_equal(again.codes, table.codes)


class TestSurveyShape:
    def test_survey_sized_file_pair_loads_and_splits(self, tmp_path):
        from somalloc.synth import GeneratorSpec, generate

        dataset, _ = generate(GeneratorSpec.survey_shaped(seed=17, n=8809))
        save_dataset(dataset, tmp_path / "c.csv", tmp_path / "k.csv")
        loaded = load_dataset(tmp_path / "c.csv", tmp_path / "k.csv", dataset.schema)
        assert loaded.n_rows == 8809
        assert loaded.schema.p == 19
        assert loaded.schema.l == 10
        train, test = split_dataset(loaded, 409, seed=1)
        assert (train.n_rows, test.n_rows) == (8400, 409)


class TestSplit:
    def _dataset(self, n):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(n, 2))
        codes = rng.integers(2, size=(n, 1))
        schema = Schema(("a", "b"), (("v", ("x", "y")),), compositional=False)
        return Dataset(
            schema,
            ContinuousTable(values, np.ones((n, 2), bool)),
            CategoricalTable(codes),
        )

    def test_sizes(self):
        d = self._dataset(100)
        train, test = split_dataset(d, 17, seed=3)
        assert train.n_rows == 83
        assert test.n_rows == 17

    def test_empty_train_forbidden(self):
        d = self._dataset(10)
        with pytest.raises(DataError):
            split_dataset(d, 10, seed=0)
        with pytest.raises(DataError):
            split_dataset(d, 0, seed=0)

    def test_same_seed_same_split(self):
        d = self._dataset(60)
        a_train, a_test = split_dataset(d, 20, seed=11)
        b_train, b_test = split_dataset(d, 20, seed=11)
        assert_array_equal(a_train.continuous.values, b_train.continuous.values)
        assert_array_equal(a_test.continuous.values, b_test.continuous.values)

    def test_union_recovers_rows(self):
        d = self._dataset(40)
        train, test = split_dataset(d, 15, seed=5)
        merged = np.vstack([train.continuous.values, test.continuous.values])
        original = {tuple(row) for row in d.continuous.values}
        assert {tuple(row) for row in merged} == original


class TestRenormalize:
    def test_two_of_three_columns(self):
        t = ContinuousTable(np.array([[50.0, 30.0, 20.0]]), np.ones((1, 3), bool))
        out = renormalize_composition(t, {0, 1})
        assert_allclose(out.values, [[62.5, 37.5]])

    def test_keep_all_is_identity(self):
        values = np.array([[50.0, 30.0, 20.0], [10.0, 20.0, 70.0]])
        t = ContinuousTable(values, np.ones((2, 3), bool))
        out = renormalize_composition(t, range(3))
        assert_allclose(out.values, values, atol=1e-12)

    def test_missing_cells_rescale_observed_only(self):
        t = ContinuousTable(
            np.array([[40.0, 0.0, 10.0]]),
            np.array([[True, False, True]]),
        )
        out = renormalize_composition(t, {0, 1, 2})
        assert_allclose(out.values[0, [0, 2]], [80.0, 20.0])
        assert not out.observed[0, 1]

    def test_zero_sum_row_reported(self):
        t = ContinuousTable(
            np.array([[0.0, 0.0, 100.0]]), np.ones((1, 3), bool)
        )
        with pytest.raises(DataError, match="row 1.*sum to 0"):
            renormalize_composition(t, {0, 1})

    def test_empty_keep_rejected(self):
        t = ContinuousTable(np.ones((1, 2)), np.ones((1, 2), bool))
        with pytest.raises(DataError, match="nonempty"):
            renormalize_composition(t, set())

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_rows_resum_to_total(self, data):
        n = data.draw(st.integers(1, 8))
        p = data.draw(st.integers(2, 6))
        raw = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(0.01, 1e3, allow_nan=False), min_size=p, max_size=p
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        values = 100.0 * raw / raw.sum(axis=1, keepdims=True)
        t = ContinuousTable(values, np.ones((n, p), bool))
        keep = data.draw(
            st.sets(st.integers(0, p - 1), min_size=1, max_size=p)
        )
        out = renormalize_composition(t, keep)
        assert_allclose(out.values.sum(axis=1), 100.0, atol=1e-9)


class TestSubsetContinuous:
    def test_compositional_renormalizes(self, housing_schema):
        d = Dataset(
            housing_schema,
            ContinuousTable(np.array([[50.0, 30.0, 20.0]]), np.ones((1, 3), bool)),
            CategoricalTable(np.array([[0, 1]])),
        )
        out = subset_continuous(d, [0, 1])
        assert out.schema.continuous_names == ("food", "housing")
        assert_allclose(out.continuous.values, [[62.5, 37.5]])

    def test_non_compositional_drops_untouched(self):
        schema = Schema(("a", "b"), (("v", ("x", "y")),), compositional=False)
        d = Dataset(
            schema,
            ContinuousTable(np.array([[3.0, 4.0]]), np.ones((1, 2), bool)),
            CategoricalTable(np.array([[0]])),
        )
        out = subset_continuous(d, [1])
        assert_allclose(out.continuous.values, [[4.0]])


def test_tables_are_immutable(housing_schema):
    d = Dataset(
        housing_schema,
        ContinuousTable(np.array([[50.0, 30.0, 20.0]]), np.ones((1, 3), bool)),
        CategoricalTable(np.array([[0, 1]])),
    )
    with pytest.raises(ValueError):
        d.continuous.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        d.categorical.codes[0, 0] = 1


def _stored_and_given_arrays(cls):
    """An instance of ``cls`` built from fresh arrays, as pairs of (stored
    array, the caller's array it was built from)."""
    vectors, macro = np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 0])
    if cls is ContinuousTable:
        observed = np.array([[True, False]])
        t = ContinuousTable(vectors[:1], observed)
        return [(t.values, vectors), (t.observed, observed)]
    if cls is CategoricalTable:
        codes = np.array([[0, -1]])
        return [(CategoricalTable(codes).codes, codes)]
    if cls is Codebook:
        return [(Codebook(vectors, ("a", "b")).code_vectors, vectors)]
    if cls is TwoLevelClustering:
        cb = Codebook(vectors, ("a", "b"))
        return [(TwoLevelClustering(cb, macro).macro_of_unit, macro)]
    if cls is LogitModel:
        beta = np.array([[0.5, -0.5]])
        diag = FitDiagnostics(0.0, 0.0, 0, 0.0, True)
        return [(LogitModel(2, beta, (("v", ("x", "y")),), diag).beta, beta)]
    if cls is AllocationResult:
        probs, assigned, missing = np.array([[0.25, 0.75]]), np.array([1]), np.array([0])
        r = AllocationResult(probs, assigned, missing)
        return [(r.probabilities, probs), (r.assigned, assigned),
                (r.missing_counts, missing)]
    if cls is ContingencyTable:
        counts = np.eye(2, dtype=np.int64)
        return [(ContingencyTable(counts).counts, counts)]
    centers, dist = np.array([[60.0, 40.0]]), np.array([[0.5, 0.5]])
    spec = GeneratorSpec(1, centers, 1.0, (dist,), 0.5, 0.0, 0)
    return [(spec.centers, centers), (spec.modality_dists[0], dist)]


@pytest.mark.parametrize(
    "cls",
    [ContinuousTable, CategoricalTable, Codebook, TwoLevelClustering, LogitModel,
     AllocationResult, ContingencyTable, GeneratorSpec],
    ids=lambda cls: cls.__name__,
)
def test_stored_arrays_are_read_only_copies(cls):
    for stored, given in _stored_and_given_arrays(cls):
        assert not np.shares_memory(stored, given)
        first = (0,) * stored.ndim
        with pytest.raises(ValueError, match="read-only"):
            stored[first] = given[first]


@pytest.mark.parametrize("labels", [[0, 1.7], [0.0, 1.0], [True, False]], ids=str)
def test_labels_that_are_not_integers_are_refused(labels):
    # a cast to int64 would truncate 1.7 to 1 and read booleans as 0 and 1
    with pytest.raises(DataError, match="labels must be integers"):
        checked_labels(np.asarray(labels), 2, 3)


@st.composite
def codes_and_layout(draw):
    """A layout of 1-4 variables with 2-4 modalities each, a CategoricalTable
    or array of 0-6 rows of valid codes with up to two cells overwritten by
    a code in [-3, 5] (>= -1 in a table), and the flag allow_missing."""
    counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    layout = tuple(
        (f"v{j}", tuple(f"m{i}" for i in range(m))) for j, m in enumerate(counts)
    )
    n = draw(st.integers(0, 6))
    codes = np.array(
        [[draw(st.integers(0, m - 1)) for m in counts] for _ in range(n)], dtype=np.int64
    ).reshape(n, len(counts))
    as_table = draw(st.booleans())
    if n:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, len(counts) - 1))
            codes[i, j] = draw(st.integers(MISSING_CODE if as_table else -3, 5))
    rows = CategoricalTable(codes) if as_table else codes
    return rows, codes, layout, draw(st.booleans())


class TestCheckedCodes:
    @settings(max_examples=300, deadline=None)
    @given(codes_and_layout())
    def test_refused_exactly_when_a_code_is_outside_the_allowed_set(self, drawn):
        rows, codes, layout, allow_missing = drawn
        allowed = [
            set(range(len(mods))) | ({MISSING_CODE} if allow_missing else set())
            for _, mods in layout
        ]
        bad = [
            (i, j)
            for i, row in enumerate(codes.tolist())
            for j, code in enumerate(row)
            if code not in allowed[j]
        ]
        if not bad:
            out = checked_codes(rows, layout, allow_missing)
            assert out.dtype == np.int64
            assert_array_equal(out, codes)
            return
        i, j = bad[0]  # the first in row-major order
        name, mods = layout[j]
        if codes[i, j] == MISSING_CODE:
            message = "missing categorical value (not allowed in the learning base)"
        else:
            message = f"code {codes[i, j]} is not in [0, {len(mods)})"
        with pytest.raises(DataError) as exc:
            checked_codes(rows, layout, allow_missing)
        assert str(exc.value) == f"row {i + 1}, variable {name!r}: {message}"

    @pytest.mark.parametrize("codes", [[[0], [1.7]], [[0.0], [1.0]], [[True], [False]]],
                             ids=str)
    def test_codes_that_are_not_integers_are_refused(self, codes):
        layout = (("v", ("a", "b")),)
        with pytest.raises(DataError, match=r"^codes must be integers, got \w+ values$"):
            checked_codes(np.asarray(codes), layout, allow_missing=True)

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 3), (1, 2, 2)], ids=str)
    def test_one_column_per_variable_is_required(self, shape):
        layout = (("u", ("a", "b")), ("v", ("x", "y")))
        with pytest.raises(DataError, match="need one column per variable$"):
            checked_codes(np.zeros(shape, dtype=np.int64), layout, allow_missing=True)


def test_save_categorical_refuses_a_code_past_the_modalities(housing_schema, tmp_path):
    table = CategoricalTable(np.array([[0, 1], [MISSING_CODE, 3]]))
    path = tmp_path / "categorical.csv"
    with pytest.raises(DataError, match=r"^row 2, variable 'town': code 3 is not in \[0, 3\)$"):
        save_categorical(table, housing_schema, path)
    assert not path.exists()


def test_only_dataset_imports_csv_or_json():
    """Every on-disk format lives in somalloc.dataset; no other module of
    the package may read or write CSV or JSON itself."""
    package = Path(__file__).resolve().parents[1] / "src" / "somalloc"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "dataset.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] in ("csv", "json")
            ]
    assert offenders == []


# a file of three blocks whose defects sit in the last, short block
BLOCKS_N = 2 * _BLOCK_ROWS + 7
LAST_BLOCK_ROW = 2 * _BLOCK_ROWS + 5


def csv_lines(path, header, row, bad_row):
    """BLOCKS_N rows under ``header``: ``bad_row`` as row LAST_BLOCK_ROW
    (1-based), ``row`` everywhere else."""
    rows = [row] * BLOCKS_N
    rows[LAST_BLOCK_ROW - 1] = bad_row
    return write(path, "\n".join([header, *rows]) + "\n")


class TestBlockReader:
    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("50,3O,20", r"row {i}, column 'housing': malformed number '3O'"),
            ("50,30,20,1", r"row {i}: expected 3 fields, got 4"),
            ("50,inf,20", r"row {i}, column 'housing': non-finite number 'inf'"),
            ("nan,30,20", r"row {i}, column 'food': non-finite number 'nan'"),
            (" , ,", r"row {i}: no observed continuous entries"),
        ],
        ids=["malformed", "field-count", "inf", "nan", "all-blank"],
    )
    def test_continuous_defect_in_last_block_names_its_row(
        self, housing_schema, tmp_path, bad_row, message
    ):
        path = csv_lines(tmp_path / "c.csv", "food,housing,leisure", "50,30,20", bad_row)
        with pytest.raises(DataError) as exc:
            load_continuous(path, housing_schema)
        assert str(exc.value) == f"{path}: " + message.format(i=LAST_BLOCK_ROW)

    @pytest.mark.parametrize(
        "bad_row, allow_missing, message",
        [
            ("Owner,Huge", True, "row {i}, column 'town': unknown modality 'Huge'"),
            ("Owner,", False, "row {i}, column 'town': missing value"),
            ("Owner", True, "row {i}: expected 2 fields, got 1"),
        ],
        ids=["unknown", "blank-in-learning-base", "field-count"],
    )
    def test_categorical_defect_in_last_block_names_its_row(
        self, housing_schema, tmp_path, bad_row, allow_missing, message
    ):
        path = csv_lines(tmp_path / "k.csv", "tenure,town", "Tenant,Small", bad_row)
        with pytest.raises(DataError) as exc:
            load_categorical(path, housing_schema, allow_missing=allow_missing)
        assert str(exc.value) == f"{path}: " + message.format(i=LAST_BLOCK_ROW)

    @pytest.mark.parametrize("cell", ["x3", "9" * 20], ids=["text", "beyond-int64"])
    def test_malformed_label_in_last_block_names_its_row(self, tmp_path, cell):
        path = csv_lines(tmp_path / "labels.csv", "cluster", "3", cell)
        with pytest.raises(DataError) as exc:
            load_labels(path)
        assert str(exc.value) == f"{path}: row {LAST_BLOCK_ROW}: malformed label {cell!r}"

    def test_first_defect_in_file_order_is_reported(self, housing_schema, tmp_path):
        rows = ["50,30,20"] * BLOCKS_N
        rows[_BLOCK_ROWS + 3] = "50,30,20,1"  # wrong width, later in the block
        rows[_BLOCK_ROWS + 1] = "50,3O,20"
        path = write(tmp_path / "c.csv", "\n".join(["food,housing,leisure", *rows]))
        with pytest.raises(DataError, match=f"row {_BLOCK_ROWS + 2}, column 'housing'"):
            load_continuous(path, housing_schema)
        # within one row the field count comes first
        rows[_BLOCK_ROWS + 1] = "50,3O,20,1"
        path = write(tmp_path / "c.csv", "\n".join(["food,housing,leisure", *rows]))
        with pytest.raises(DataError, match=f"row {_BLOCK_ROWS + 2}: expected 3 fields"):
            load_continuous(path, housing_schema)

    def test_multi_block_files_round_trip(self, tmp_path):
        data, labels = generate(GeneratorSpec.survey_shaped(seed=9, n=BLOCKS_N))
        codes = data.categorical.codes.copy()
        codes[np.random.default_rng(9).random(codes.shape) < 0.1] = MISSING_CODE
        save_dataset(data, tmp_path / "c.csv", tmp_path / "k.csv")
        save_categorical(CategoricalTable(codes), data.schema, tmp_path / "new.csv")
        save_labels(labels, tmp_path / "labels.csv")
        again = load_continuous(tmp_path / "c.csv", data.schema)
        assert_array_equal(again.observed, data.continuous.observed)
        assert_array_equal(again.values.view(np.int64), data.continuous.values.view(np.int64))
        assert_array_equal(
            load_categorical(tmp_path / "k.csv", data.schema).codes, data.categorical.codes
        )
        new = load_categorical(tmp_path / "new.csv", data.schema, allow_missing=True)
        assert_array_equal(new.codes, codes)
        assert_array_equal(load_labels(tmp_path / "labels.csv"), labels)

    def test_parse_peak_holds_no_cell_strings_of_the_whole_file(self, tmp_path):
        p = 6
        schema = Schema(tuple(f"c{j}" for j in range(p)), (("g", ("a", "b")),))

        def traced_peak(n):
            rng = np.random.default_rng(n)
            observed = rng.random((n, p)) > 0.1
            observed[:, 0] = True
            path = tmp_path / f"c{n}.csv"
            save_continuous(ContinuousTable(rng.random((n, p)), observed), schema, path)
            tracemalloc.start()
            try:
                table = load_continuous(path, schema)
                return tracemalloc.get_traced_memory()[1], table
            finally:
                tracemalloc.stop()

        small, _ = traced_peak(2 * _BLOCK_ROWS)
        large, table = traced_peak(8 * _BLOCK_ROWS)
        # ContinuousTable copies the loader's arrays, so two copies of the
        # output coexist; a str per cell would cost more than 50 bytes
        assert large - small <= 2 * (table.values.nbytes + table.observed.nbytes)


FIELDS = st.one_of(
    st.text(max_size=5),
    st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", 'a,"b"', " x ", "1.5"]),
)


class TestLineWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        width=st.integers(1, 4),
        data=st.data(),
    )
    def test_writes_the_bytes_of_csv_writer(self, tmp_path_factory, width, data):
        header = data.draw(st.lists(FIELDS, min_size=width, max_size=width))
        rows = data.draw(st.lists(
            st.lists(FIELDS, min_size=width, max_size=width), max_size=6
        ))
        folder = tmp_path_factory.mktemp("lines")
        write_csv(folder / "lines.csv", header, (",".join(map(csv_field, r)) for r in rows))
        with open(folder / "writer.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert (folder / "lines.csv").read_bytes() == (folder / "writer.csv").read_bytes()

    def test_one_column_with_blank_cells_reads_back(self, tmp_path):
        schema = Schema(("x",), (("v,1", ("a,b", 'say "hi"', "l1\nl2")),))
        codes = np.array([[0], [MISSING_CODE], [2], [MISSING_CODE], [1]])
        save_categorical(CategoricalTable(codes), schema, tmp_path / "k.csv")
        assert (tmp_path / "k.csv").read_bytes() == (
            b'"v,1"\r\n"a,b"\r\n""\r\n"l1\nl2"\r\n""\r\n"say ""hi"""\r\n'
        )
        again = load_categorical(tmp_path / "k.csv", schema, allow_missing=True)
        assert_array_equal(again.codes, codes)


# sha256 of each writer's file for the table below, as written by the
# csv.writer-based writers these line writers replaced
WRITER_SHA256 = {
    "continuous.csv": "9fb2e2add932b7b9120e1da593dc758215602f9ba5de373f4977ad26f22c760a",
    "categorical.csv": "1d4c81145b854d8d0a17f85e79f828d13db4cec4e72a7a5f7625d8b3f567f275",
    "labels.csv": "7e99b7406bb3279203ffa57857e4ecb9f533f71de2ec61441135ab2d8d79d186",
    "allocations.csv": "8245e91f32ddec683b5c54034b8592f08a6c844b7c33dd4dd86c678fea476000",
}


def test_writers_keep_their_bytes(tmp_path):
    data, labels = generate(GeneratorSpec.survey_shaped(seed=5, n=300, missing_rate=0.1))
    codes = data.categorical.codes.copy()
    codes[np.random.default_rng(1).random(codes.shape) < 0.1] = MISSING_CODE
    probs = np.random.default_rng(2).random((300, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    result = AllocationResult(probs, probs.argmax(axis=1), (codes == MISSING_CODE).sum(axis=1))
    save_continuous(data.continuous, data.schema, tmp_path / "continuous.csv")
    save_categorical(CategoricalTable(codes), data.schema, tmp_path / "categorical.csv")
    save_labels(labels, tmp_path / "labels.csv")
    _save_allocations(result, tmp_path / "allocations.csv")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in WRITER_SHA256
    }
    assert digests == WRITER_SHA256
