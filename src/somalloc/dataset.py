"""Dataset model and the on-disk format of every artifact.

A dataset is an N x (p + l) table: p continuous variables (percent shares
when compositional, missing cells allowed) and l categorical variables
(complete in the learning base, missing allowed for new individuals).
Continuous missingness is an explicit boolean mask so that 0 stays a legal
datum; categorical missingness is the sentinel code -1.

Every CSV and JSON artifact of the package is written and read here.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np

MISSING_CODE = -1

COMPOSITION_TOTAL = 100.0
COMPOSITION_ATOL = 1e-6


class DataError(ValueError):
    """Raised on malformed input files or schema violations."""


def read_only(arr, dtype=None) -> np.ndarray:
    """A read-only copy of ``arr``, so a stored array neither changes nor
    shares memory with the caller's."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def of_kind(values, kinds: str, what: str) -> np.ndarray:
    """``values`` as an array, refused with ``what`` unless it is empty or
    its dtype is of a kind in ``kinds`` (``"iu"`` integers, ``"b"``
    booleans): no value is truncated or read as true."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in kinds:
        raise DataError(f"{what}, got {values.dtype} values")
    return values


def checked_labels(labels, n_rows: int, k: int) -> np.ndarray:
    """``labels`` as int64, after checking one integer label per row, in [0, k)."""
    labels = of_kind(labels, "iu", "labels must be integers")
    if labels.shape != (n_rows,):
        raise DataError(
            f"{labels.size} labels for {n_rows} rows: need exactly one label per row"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DataError(f"labels must lie in [0, {k})")
    return labels.astype(np.int64, copy=False)


def checked_codes(rows, categorical_vars, allow_missing: bool) -> np.ndarray:
    """The codes of ``rows``, a CategoricalTable or an array, as int64, after
    checking one integer code per variable of the ``(name, modalities)``
    layout, each in [0, m_j) or, with ``allow_missing``, MISSING_CODE.  The
    first bad cell in row-major order is named, its row 1-based."""
    codes = rows.codes if isinstance(rows, CategoricalTable) else rows
    codes = of_kind(codes, "iu", "codes must be integers")
    if codes.ndim != 2 or codes.shape[1] != len(categorical_vars):
        raise DataError(f"codes of shape {codes.shape}: need one column per variable")
    counts = np.array([len(mods) for _, mods in categorical_vars])
    low = MISSING_CODE if allow_missing else 0
    # one reduction and one comparison when every code is valid; the bad
    # cell is searched for only after
    if codes.size and (codes.min() < low or (codes >= counts).any()):
        row, col = np.argwhere((codes < low) | (codes >= counts))[0]
        what = (
            "missing categorical value (not allowed in the learning base)"
            if codes[row, col] == MISSING_CODE
            else f"code {codes[row, col]} is not in [0, {counts[col]})"
        )
        raise DataError(f"row {row + 1}, variable {categorical_vars[col][0]!r}: {what}")
    return codes.astype(np.int64, copy=False)


def checked_layout(categorical_vars) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The ``(name, modalities)`` layout as tuples, after checking that every
    variable has at least two distinct labels that read back from a CSV
    cell as written: non-empty, without leading or trailing whitespace."""
    layout = tuple((name, tuple(mods)) for name, mods in categorical_vars)
    for name, mods in layout:
        if len(mods) < 2:
            raise DataError(f"categorical variable {name!r} needs >= 2 modalities")
        if len(set(mods)) != len(mods):
            raise DataError(f"categorical variable {name!r} has duplicate modalities")
        for label in mods:
            if not isinstance(label, str) or not label or label != label.strip():
                raise DataError(
                    f"categorical variable {name!r}: modality label {label!r} must be "
                    "a non-empty string without leading or trailing whitespace"
                )
    return layout


_JSON_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
                    str: "a string", list: "a list"}


def json_field(d: dict, key: str, kind, default=None):
    """``d[key]`` (or ``default`` when given and the key is absent), refused
    unless it is exactly of type ``kind``: no truthiness, truncation, number
    read from a string or list read from a string.  ``float`` admits any
    JSON number, and ``[kind]`` a list whose every entry is of ``kind``, so
    ``[[float]]`` is a list of rows of numbers."""
    value = d[key] if default is None else d.get(key, default)
    outer = list if type(kind) is list else kind
    if type(value) not in ((int, float) if outer is float else (outer,)):
        raise DataError(f"{key} must be {_JSON_TYPE_NAMES[outer]}, got {value!r}")
    if outer is not kind:
        for i, entry in enumerate(value):
            json_field({f"{key}[{i}]": entry}, f"{key}[{i}]", kind[0])
    return value


@dataclass(frozen=True)
class Schema:
    """Declares variable names, modality labels and the compositional flag.

    Modalities are declared up front (not inferred from data) so that train,
    test and new-individual files share one encoding.
    """

    continuous_names: tuple[str, ...]
    categorical_vars: tuple[tuple[str, tuple[str, ...]], ...]
    compositional: bool = False

    def __post_init__(self):
        object.__setattr__(self, "continuous_names", tuple(self.continuous_names))
        object.__setattr__(self, "categorical_vars", checked_layout(self.categorical_vars))
        if len(self.continuous_names) < 1:
            raise DataError("schema needs at least one continuous variable")
        if len(self.categorical_vars) < 1:
            raise DataError("schema needs at least one categorical variable")
        names = list(self.continuous_names) + [n for n, _ in self.categorical_vars]
        if len(set(names)) != len(names):
            raise DataError("variable names must be unique across both blocks")

    @property
    def p(self) -> int:
        return len(self.continuous_names)

    @property
    def l(self) -> int:
        return len(self.categorical_vars)

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.categorical_vars)

    @property
    def modality_counts(self) -> tuple[int, ...]:
        return tuple(len(mods) for _, mods in self.categorical_vars)

    def to_dict(self) -> dict:
        return {
            "continuous": list(self.continuous_names),
            "categorical": [
                {"name": name, "modalities": list(mods)}
                for name, mods in self.categorical_vars
            ],
            "compositional": self.compositional,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        return cls(
            continuous_names=tuple(json_field(d, "continuous", [str])),
            categorical_vars=tuple(
                (json_field(v, "name", str), tuple(json_field(v, "modalities", list)))
                for v in json_field(d, "categorical", list)
            ),
            compositional=json_field(d, "compositional", bool, default=False),
        )

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "Schema":
        return read_json(path, cls.from_dict)


@dataclass(frozen=True)
class ContinuousTable:
    """N x p values with an explicit observation mask.

    Unobserved cells are canonically stored as 0.0; only the mask decides
    observedness.
    """

    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        observed = of_kind(self.observed, "b", "observed mask must be boolean")
        observed = read_only(observed, bool)
        if values.ndim != 2 or values.shape != observed.shape:
            raise DataError("values and observed mask must be matching 2-d arrays")
        if values.shape[0] and not observed.any(axis=1).all():
            row = int(np.flatnonzero(~observed.any(axis=1))[0])
            raise DataError(f"row {row + 1}: no observed continuous entries")
        values = np.where(observed, values, 0.0)
        if not np.isfinite(values).all():
            raise DataError("observed continuous values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "observed", observed)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CategoricalTable:
    """N x l modality codes; MISSING_CODE marks an absent cell."""

    codes: np.ndarray

    def __post_init__(self):
        codes = read_only(of_kind(self.codes, "iu", "codes must be integers"), np.int64)
        if codes.ndim != 2:
            raise DataError("codes must be a 2-d array")
        if codes.size and codes.min() < MISSING_CODE:
            raise DataError("codes must be modality indices or the missing sentinel")
        object.__setattr__(self, "codes", codes)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]


@dataclass(frozen=True)
class Dataset:
    """Validated learning base: schema + continuous block + categorical block."""

    schema: Schema
    continuous: ContinuousTable
    categorical: CategoricalTable

    def __post_init__(self):
        if self.continuous.n_rows != self.categorical.n_rows:
            raise DataError(
                f"row count mismatch: {self.continuous.n_rows} continuous vs "
                f"{self.categorical.n_rows} categorical"
            )
        if self.continuous.n_cols != self.schema.p:
            raise DataError("continuous column count does not match schema")
        checked_codes(self.categorical, self.schema.categorical_vars, allow_missing=False)
        if self.schema.compositional and self.continuous.n_rows:
            values = self.continuous.values
            if values.min() < 0.0:
                row, col = np.argwhere(values < 0.0)[0]
                name, share = self.schema.continuous_names[col], float(values[row, col])
                raise DataError(f"row {row + 1}, variable {name!r}: share {share!r} is negative")
            full = self.continuous.observed.all(axis=1)
            sums = values[full].sum(axis=1)
            bad = np.flatnonzero(np.abs(sums - COMPOSITION_TOTAL) > COMPOSITION_ATOL)
            if bad.size:
                row = int(np.flatnonzero(full)[bad[0]])
                raise DataError(
                    f"row {row + 1}: fully observed compositional row sums to "
                    f"{sums[bad[0]]!r}, expected {COMPOSITION_TOTAL}"
                )

    @property
    def n_rows(self) -> int:
        return self.continuous.n_rows


# Rows per block of the CSV readers and float writer: enough that the
# per-block numpy calls cost nothing next to the cells, few enough that a
# block's cell strings stay small.
_BLOCK_ROWS = 512


def format_float(x) -> str:
    """Shortest string that reads back as the same double."""
    return repr(float(x))


def csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, only when
    it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def float_lines(values: np.ndarray, observed: np.ndarray | None = None):
    """Each row of the 2-d float array ``values`` as CSV fields joined by
    commas: the ``format_float`` string of each value, or an empty field
    where ``observed`` is False.  Rows are formatted ``_BLOCK_ROWS`` at a
    time, so the strings of only one block are held at once."""
    for start in range(0, values.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        cells = list(map(repr, values[rows].ravel().tolist()))
        if observed is not None:
            for k in np.flatnonzero(~observed[rows].ravel()).tolist():
                cells[k] = ""
        # consecutive runs of one row's width of cells make the rows
        yield from map(",".join, zip(*[iter(cells)] * values.shape[1]))


def write_csv(path, header, lines) -> None:
    """Write the header names and ``lines``, each the CSV fields of one row
    joined by commas, escaped already with ``csv_field`` where they are
    text.  Lines end in CRLF and a row whose only field is empty is written
    as ``""``, so the bytes are those csv.writer writes for the same rows."""
    lines = itertools.chain([",".join(map(csv_field, header))], lines)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(line + "\r\n" if line else '""\r\n' for line in lines)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, from_dict):
    """``from_dict`` of the JSON object in ``path``; a truncated file, a
    missing key or a malformed value raises a DataError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise TypeError("expected a JSON object")
        return from_dict(obj)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _csv_blocks(path, expected_header=None):
    """The header of a CSV file, then its rows as ``(first_row, rows)``
    blocks of at most ``_BLOCK_ROWS`` rows, ``first_row`` being the 1-based
    number of ``rows[0]``.

    The header is checked against ``expected_header`` when given, and every
    row for one field per header column as the rows arrive.  A row of the
    wrong width ends its block early and raises when the next block is
    asked for, so that a bad cell in an earlier row is reported first.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if expected_header is not None and header != list(expected_header):
            raise DataError(
                f"{path}: header mismatch: expected {list(expected_header)}, got {header}"
            )
        yield header
        width, first = len(header), 1
        while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
            widths = list(map(len, rows))
            if widths.count(width) != len(rows):
                bad = next(i for i, w in enumerate(widths) if w != width)
                if bad:
                    yield first, rows[:bad]
                raise DataError(
                    f"{path}: row {first + bad}: expected {width} fields, got {widths[bad]}"
                )
            yield first, rows
            first += len(rows)


def _raise_continuous_error(path, names, first, rows) -> None:
    """Raise on the first malformed or non-finite number, or row without an
    observed cell, of a block that failed to convert as a whole."""
    for i, row in enumerate(rows, first):
        seen = False
        for name, cell in zip(names, row):
            cell = cell.strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {i}, column {name!r}: malformed number {cell!r}"
                ) from None
            if not np.isfinite(value):
                raise DataError(
                    f"{path}: row {i}, column {name!r}: non-finite number {cell!r}"
                )
            seen = True
        if not seen:
            raise DataError(f"{path}: row {i}: no observed continuous entries")


def load_continuous(path, schema: Schema) -> ContinuousTable:
    """Read the continuous CSV; empty fields become unobserved cells."""
    names, p = schema.continuous_names, schema.p
    values, observed = [np.empty(0)], [np.empty(0, dtype=bool)]
    # islice skips the header, which _csv_blocks has checked
    for first, rows in itertools.islice(_csv_blocks(path, names), 1, None):
        cells = list(map(str.strip, itertools.chain.from_iterable(rows)))
        seen = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
        for k in np.flatnonzero(~seen).tolist():
            cells[k] = "0"  # the canonical fill of an unobserved cell
        try:
            block = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        except ValueError:
            block = None
        if (
            block is None
            or not np.isfinite(block).all()
            or not seen.reshape(-1, p).any(axis=1).all()
        ):
            _raise_continuous_error(path, names, first, rows)
        values.append(block)
        observed.append(seen)
    # rebinding frees each list of blocks once it is joined
    values = np.concatenate(values).reshape(-1, p)
    observed = np.concatenate(observed).reshape(-1, p)
    return ContinuousTable(values, observed)


def _raise_categorical_error(path, names, lookup, first, rows) -> None:
    """Raise on the first missing or unknown cell of a block that failed to
    map as a whole."""
    for i, row in enumerate(rows, first):
        for name, codes_of, cell in zip(names, lookup, row):
            cell = cell.strip()
            if cell in codes_of:
                continue
            if not cell:
                raise DataError(f"{path}: row {i}, column {name!r}: missing value")
            raise DataError(f"{path}: row {i}, column {name!r}: unknown modality {cell!r}")


def load_categorical(path, layout, allow_missing: bool = False) -> CategoricalTable:
    """Read the categorical CSV against ``layout.categorical_vars``, the
    ``(name, modalities)`` layout of a Schema or a fitted LogitModel; cells
    must match its modality labels.

    Empty cells are accepted only with allow_missing (new-individual files).
    """
    names = [name for name, _ in layout.categorical_vars]
    lookup = [
        {label: idx for idx, label in enumerate(mods)}
        for _, mods in layout.categorical_vars
    ]
    if allow_missing:
        for codes_of in lookup:
            codes_of[""] = MISSING_CODE
    blocks = [np.empty((0, len(names)), dtype=np.int64)]
    # islice skips the header, which _csv_blocks has checked
    for first, rows in itertools.islice(_csv_blocks(path, names), 1, None):
        block = np.empty((len(rows), len(names)), dtype=np.int64)
        try:
            for j, (codes_of, column) in enumerate(zip(lookup, zip(*rows))):
                block[:, j] = np.fromiter(
                    map(codes_of.__getitem__, map(str.strip, column)),
                    dtype=np.int64, count=len(rows),
                )
        except KeyError:
            _raise_categorical_error(path, names, lookup, first, rows)
        blocks.append(block)
    return CategoricalTable(np.concatenate(blocks))


def load_dataset(continuous_path, categorical_path, schema: Schema) -> Dataset:
    continuous = load_continuous(continuous_path, schema)
    categorical = load_categorical(categorical_path, schema, allow_missing=False)
    return Dataset(schema, continuous, categorical)


def save_continuous(table: ContinuousTable, schema: Schema, path) -> None:
    write_csv(path, schema.continuous_names, float_lines(table.values, table.observed))


def save_categorical(table: CategoricalTable, schema: Schema, path) -> None:
    columns = []
    codes = checked_codes(table, schema.categorical_vars, allow_missing=True)
    for column, (_, mods) in zip(codes.T, schema.categorical_vars):
        # code c writes fields[c + 1], so MISSING_CODE writes ""
        fields = [""] + list(map(csv_field, mods))
        columns.append(list(map(fields.__getitem__, (column + 1).tolist())))
    write_csv(path, schema.categorical_names, map(",".join, zip(*columns)))


def save_dataset(d: Dataset, continuous_path, categorical_path) -> None:
    save_continuous(d.continuous, d.schema, continuous_path)
    save_categorical(d.categorical, d.schema, categorical_path)


def load_labels(path) -> np.ndarray:
    """Integer labels from a single-column CSV or from the ``assigned``
    column of an allocations file."""
    blocks = _csv_blocks(path)
    header = next(blocks)
    if len(header) == 1:
        col = 0
    elif "assigned" in header:
        col = header.index("assigned")
    else:
        raise DataError(f"{path}: expected a label column or an allocations file")
    labels = [np.empty(0, dtype=np.int64)]
    for first, rows in blocks:
        cells = [row[col] for row in rows]
        try:
            labels.append(np.fromiter(map(int, cells), dtype=np.int64, count=len(cells)))
        except (ValueError, OverflowError):
            for i, cell in enumerate(cells, first):
                try:
                    np.int64(int(cell))
                except (ValueError, OverflowError):
                    raise DataError(f"{path}: row {i}: malformed label {cell!r}") from None
    return np.concatenate(labels)


def save_labels(labels: np.ndarray, path) -> None:
    write_csv(path, ["cluster"], map(str, np.asarray(labels).astype(np.int64).tolist()))


def _take(d: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(
        d.schema,
        ContinuousTable(d.continuous.values[idx], d.continuous.observed[idx]),
        CategoricalTable(d.categorical.codes[idx]),
    )


def split_dataset(d: Dataset, test_count: int, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint uniform-random split, deterministic given seed.

    Row order within each part follows the original dataset, so the union
    recovers the input up to row order.
    """
    n = d.n_rows
    if not 0 < test_count < n:
        raise DataError(f"test_count must be in (0, {n}), got {test_count}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:test_count])
    train_idx = np.sort(perm[test_count:])
    return _take(d, train_idx), _take(d, test_idx)


def _kept_columns(keep, p: int) -> np.ndarray:
    """The kept column indices, sorted and unique, each in [0, p)."""
    keep = np.asarray(sorted(set(int(k) for k in keep)), dtype=np.int64)
    if keep.size == 0:
        raise DataError("keep set must be nonempty")
    if keep.min() < 0 or keep.max() >= p:
        raise DataError("keep indices out of range")
    return keep


def renormalize_composition(table: ContinuousTable, keep) -> ContinuousTable:
    """Restrict to the kept columns and rescale each row's observed entries
    to sum to 100.

    The caller is responsible for only applying this to compositional data.
    """
    keep = _kept_columns(keep, table.n_cols)
    values = table.values[:, keep]
    observed = table.observed[:, keep]
    if table.n_rows and not observed.any(axis=1).all():
        row = int(np.flatnonzero(~observed.any(axis=1))[0])
        raise DataError(f"row {row + 1}: no observed entries among kept columns")
    sums = np.where(observed, values, 0.0).sum(axis=1)
    zero = np.flatnonzero(sums == 0.0)
    if zero.size:
        raise DataError(
            f"row {zero[0] + 1}: kept observed entries sum to 0, "
            "renormalization undefined"
        )
    values = values * (COMPOSITION_TOTAL / sums)[:, None]
    return ContinuousTable(values, observed)


def subset_continuous(d: Dataset, keep) -> Dataset:
    """Drop continuous columns; renormalizes shares only for compositional data."""
    keep = _kept_columns(keep, d.schema.p)
    if d.schema.compositional:
        table = renormalize_composition(d.continuous, keep)
    else:
        table = ContinuousTable(d.continuous.values[:, keep], d.continuous.observed[:, keep])
    schema = Schema(
        continuous_names=tuple(d.schema.continuous_names[k] for k in keep),
        categorical_vars=d.schema.categorical_vars,
        compositional=d.schema.compositional,
    )
    return Dataset(schema, table, d.categorical)
