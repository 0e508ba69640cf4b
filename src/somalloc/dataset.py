"""Dataset model and CSV ingestion.

A dataset is an N x (p + l) table: p continuous variables (percent shares
when compositional, missing cells allowed) and l categorical variables
(complete in the learning base, missing allowed for new individuals).
Continuous missingness is an explicit boolean mask so that 0 stays a legal
datum; categorical missingness is the sentinel code -1.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

MISSING_CODE = -1

COMPOSITION_TOTAL = 100.0
COMPOSITION_ATOL = 1e-6


class DataError(ValueError):
    """Raised on malformed input files or schema violations."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


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
        object.__setattr__(
            self,
            "categorical_vars",
            tuple((name, tuple(mods)) for name, mods in self.categorical_vars),
        )
        if len(self.continuous_names) < 1:
            raise DataError("schema needs at least one continuous variable")
        if len(self.categorical_vars) < 1:
            raise DataError("schema needs at least one categorical variable")
        names = list(self.continuous_names) + [n for n, _ in self.categorical_vars]
        if len(set(names)) != len(names):
            raise DataError("variable names must be unique across both blocks")
        for name, mods in self.categorical_vars:
            if len(mods) < 2:
                raise DataError(f"categorical variable {name!r} needs >= 2 modalities")
            if len(set(mods)) != len(mods):
                raise DataError(f"categorical variable {name!r} has duplicate modalities")

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
            continuous_names=tuple(d["continuous"]),
            categorical_vars=tuple(
                (v["name"], tuple(v["modalities"])) for v in d["categorical"]
            ),
            compositional=bool(d.get("compositional", False)),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Schema":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


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
        observed = np.asarray(self.observed, dtype=bool)
        if values.ndim != 2 or values.shape != observed.shape:
            raise DataError("values and observed mask must be matching 2-d arrays")
        if values.shape[0] and not observed.any(axis=1).all():
            row = int(np.flatnonzero(~observed.any(axis=1))[0])
            raise DataError(f"row {row + 1}: no observed continuous entries")
        if not np.isfinite(values[observed]).all():
            raise DataError("observed continuous values must be finite")
        values = np.where(observed, values, 0.0)
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "observed", _frozen(observed))

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
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 2:
            raise DataError("codes must be a 2-d array")
        if codes.size and codes.min() < MISSING_CODE:
            raise DataError("codes must be modality indices or the missing sentinel")
        object.__setattr__(self, "codes", _frozen(codes))

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    @property
    def n_cols(self) -> int:
        return self.codes.shape[1]


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
        if self.categorical.n_cols != self.schema.l:
            raise DataError("categorical column count does not match schema")
        codes = self.categorical.codes
        if codes.size:
            if codes.min() < 0:
                row, col = np.argwhere(codes < 0)[0]
                name = self.schema.categorical_names[col]
                raise DataError(
                    f"row {row + 1}, column {name!r}: missing categorical value "
                    "(not allowed in the learning base)"
                )
            counts = np.asarray(self.schema.modality_counts)
            if (codes >= counts[None, :]).any():
                row, col = np.argwhere(codes >= counts[None, :])[0]
                name = self.schema.categorical_names[col]
                raise DataError(f"row {row + 1}, column {name!r}: modality code out of range")
        if self.schema.compositional and self.continuous.n_rows:
            full = self.continuous.observed.all(axis=1)
            sums = self.continuous.values[full].sum(axis=1)
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


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows[0], rows[1:]


def _check_header(path, header: list[str], expected: tuple[str, ...]) -> None:
    if list(header) != list(expected):
        raise DataError(
            f"{path}: header mismatch: expected {list(expected)}, got {list(header)}"
        )


def load_continuous(path, schema: Schema) -> ContinuousTable:
    """Read the continuous CSV; empty fields become unobserved cells."""
    header, rows = _read_csv(path)
    _check_header(path, header, schema.continuous_names)
    n, p = len(rows), schema.p
    values = np.zeros((n, p))
    observed = np.zeros((n, p), dtype=bool)
    for i, row in enumerate(rows):
        if len(row) != p:
            raise DataError(f"{path}: row {i + 1}: expected {p} fields, got {len(row)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                continue
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {i + 1}, column {schema.continuous_names[j]!r}: "
                    f"malformed number {cell!r}"
                ) from None
            observed[i, j] = True
    return ContinuousTable(values, observed)


def load_categorical(path, schema: Schema, allow_missing: bool = False) -> CategoricalTable:
    """Read the categorical CSV; cells must match declared modality labels.

    Empty cells are accepted only with allow_missing (new-individual files).
    """
    header, rows = _read_csv(path)
    _check_header(path, header, schema.categorical_names)
    lookup = [
        {label: idx for idx, label in enumerate(mods)}
        for _, mods in schema.categorical_vars
    ]
    n, l = len(rows), schema.l
    codes = np.full((n, l), MISSING_CODE, dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != l:
            raise DataError(f"{path}: row {i + 1}: expected {l} fields, got {len(row)}")
        for j, cell in enumerate(row):
            cell = cell.strip()
            name = schema.categorical_names[j]
            if not cell:
                if allow_missing:
                    continue
                raise DataError(f"{path}: row {i + 1}, column {name!r}: missing value")
            try:
                codes[i, j] = lookup[j][cell]
            except KeyError:
                raise DataError(
                    f"{path}: row {i + 1}, column {name!r}: unknown modality {cell!r}"
                ) from None
    return CategoricalTable(codes)


def load_dataset(continuous_path, categorical_path, schema: Schema) -> Dataset:
    continuous = load_continuous(continuous_path, schema)
    categorical = load_categorical(categorical_path, schema, allow_missing=False)
    return Dataset(schema, continuous, categorical)


def _format_float(x: float) -> str:
    return repr(float(x))


def save_continuous(table: ContinuousTable, schema: Schema, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.continuous_names)
        for vals, obs in zip(table.values, table.observed):
            writer.writerow(
                [_format_float(v) if o else "" for v, o in zip(vals, obs)]
            )


def save_categorical(table: CategoricalTable, schema: Schema, path) -> None:
    modalities = [mods for _, mods in schema.categorical_vars]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.categorical_names)
        for row in table.codes:
            writer.writerow(
                [modalities[j][c] if c >= 0 else "" for j, c in enumerate(row)]
            )


def save_dataset(d: Dataset, continuous_path, categorical_path) -> None:
    save_continuous(d.continuous, d.schema, continuous_path)
    save_categorical(d.categorical, d.schema, categorical_path)


def load_labels(path) -> np.ndarray:
    header, rows = _read_csv(path)
    if len(header) != 1:
        raise DataError(f"{path}: label file must have a single column")
    try:
        return np.array([int(r[0]) for r in rows], dtype=np.int64)
    except (ValueError, IndexError):
        raise DataError(f"{path}: malformed label file") from None


def save_labels(labels: np.ndarray, path, header: str = "cluster") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([header])
        for v in labels:
            writer.writerow([int(v)])


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


def renormalize_composition(table: ContinuousTable, keep) -> ContinuousTable:
    """Restrict to the kept columns and rescale each row's observed entries
    to sum to 100.

    The caller is responsible for only applying this to compositional data.
    """
    keep = np.asarray(sorted(set(int(k) for k in keep)), dtype=np.int64)
    if keep.size == 0:
        raise DataError("keep set must be nonempty")
    if keep.min() < 0 or keep.max() >= table.n_cols:
        raise DataError("keep indices out of range")
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
    keep = sorted(set(int(k) for k in keep))
    if d.schema.compositional:
        table = renormalize_composition(d.continuous, keep)
    else:
        keep_arr = np.asarray(keep, dtype=np.int64)
        if not keep:
            raise DataError("keep set must be nonempty")
        if keep_arr.min() < 0 or keep_arr.max() >= d.schema.p:
            raise DataError("keep indices out of range")
        table = ContinuousTable(
            d.continuous.values[:, keep_arr], d.continuous.observed[:, keep_arr]
        )
    schema = Schema(
        continuous_names=tuple(d.schema.continuous_names[k] for k in keep),
        categorical_vars=d.schema.categorical_vars,
        compositional=d.schema.compositional,
    )
    return Dataset(schema, table, d.categorical)
