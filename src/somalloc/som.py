"""One-dimensional self-organizing maps with missing-value-robust distances.

Units live on a string: unit i neighbors i-1 and i+1.  Matching and updates
use only the observed components of a row, so incomplete rows train and
assign without imputation.  A large map can be reduced to a few macro
clusters by training a second, smaller string over its code-vectors; thanks
to topology preservation the macro clusters come out as contiguous runs of
units, which is verified and flagged rather than enforced.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .dataset import ContinuousTable


@dataclass
class SomConfig:
    """Training schedule for one map.

    Learning rate and window radius interpolate linearly from start to end
    over the total number of online steps (epochs * rows).  A radius_start
    of None resolves to ceil(units / 4).
    """

    units: int
    epochs: int = 10
    lr_start: float = 0.5
    lr_end: float = 0.01
    radius_start: int | None = None
    radius_end: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.units < 1:
            raise ValueError("units must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.radius_start is None:
            self.radius_start = -(-self.units // 4)
        if not (self.lr_start >= self.lr_end > 0.0):
            raise ValueError("need lr_start >= lr_end > 0")
        if self.lr_start > 1.0:
            raise ValueError("lr_start must be in (0, 1]")
        if not (self.radius_start >= self.radius_end >= 0):
            raise ValueError("need radius_start >= radius_end >= 0")


@dataclass(frozen=True)
class Codebook:
    """Code-vectors ordered along the string, one per unit."""

    code_vectors: np.ndarray
    dimensions: tuple[str, ...]

    def __post_init__(self):
        vectors = np.asarray(self.code_vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("code_vectors must be a 2-d array")
        if not np.isfinite(vectors).all():
            raise ValueError("code_vectors must be finite")
        if len(self.dimensions) != vectors.shape[1]:
            raise ValueError("dimension labels must match code-vector width")
        vectors = vectors.copy()
        vectors.flags.writeable = False
        object.__setattr__(self, "code_vectors", vectors)
        object.__setattr__(self, "dimensions", tuple(self.dimensions))

    @property
    def units(self) -> int:
        return self.code_vectors.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.units


@dataclass(frozen=True)
class TwoLevelClustering:
    """A large map plus a smaller map trained over its code-vectors.

    macro_of_unit maps every level-1 unit to its macro cluster;
    ``contiguous`` records whether the macro clusters form unbroken runs
    along the level-1 string (a diagnostic, not a guarantee).
    """

    level1: Codebook
    level2: Codebook
    macro_of_unit: np.ndarray
    contiguous: bool

    def __post_init__(self):
        macro = np.asarray(self.macro_of_unit, dtype=np.int64)
        if macro.shape != (self.level1.units,):
            raise ValueError("macro_of_unit must map every level-1 unit")
        if macro.size and (macro.min() < 0 or macro.max() >= self.level2.units):
            raise ValueError("macro_of_unit values out of range")
        macro = macro.copy()
        macro.flags.writeable = False
        object.__setattr__(self, "macro_of_unit", macro)

    @property
    def n_clusters(self) -> int:
        return self.level2.units


def _masked_distances(
    values: np.ndarray, observed: np.ndarray, code_vectors: np.ndarray
) -> np.ndarray:
    """(N, K) matrix of masked distances from every row to every unit.

    Each distance averages the squared differences over the row's observed
    components, which keeps rows with different missingness comparable.
    """
    if values.shape[1] != code_vectors.shape[1]:
        raise ValueError(
            f"dimension mismatch: rows have {values.shape[1]} components, "
            f"code-vectors {code_vectors.shape[1]}"
        )
    diff = values[:, None, :] - code_vectors[None, :, :]
    sq = np.where(observed[:, None, :], diff * diff, 0.0)
    counts = observed.sum(axis=1)
    return sq.sum(axis=2) / counts[:, None]


def train_som(
    data: ContinuousTable, cfg: SomConfig, dimensions: tuple[str, ...] | None = None
) -> Codebook:
    """Online training of a 1-d string map.

    Per step: draw a row (fresh seeded shuffle each epoch), find the best
    matching unit under the masked distance (ties to the lowest index) and
    pull every unit within the current integer radius toward the row, on
    the observed components only.  Deterministic given the config seed.
    """
    values = data.values
    observed = data.observed
    n, p = values.shape
    if n == 0:
        raise ValueError("training data is empty")
    k = cfg.units
    rng = np.random.default_rng(cfg.seed)

    counts = observed.sum(axis=0)
    col_sums = np.where(observed, values, 0.0).sum(axis=0)
    col_means = np.divide(col_sums, counts, out=np.zeros(p), where=counts > 0)
    pick = rng.choice(n, size=k, replace=k > n)
    code = np.where(observed[pick], values[pick], col_means[None, :])
    code = np.ascontiguousarray(code, dtype=np.float64)

    full_rows = observed.all(axis=1).tolist()
    total = cfg.epochs * n
    denom = max(total - 1, 1)
    lr_span = cfg.lr_end - cfg.lr_start
    radius_span = cfg.radius_end - cfg.radius_start
    for epoch in range(cfg.epochs):
        # one epoch of the schedule at a time bounds its memory to O(n)
        frac = np.arange(epoch * n, (epoch + 1) * n) / denom
        lrs = (cfg.lr_start + lr_span * frac).tolist()
        radii = (cfg.radius_start + radius_span * frac + 0.5).astype(np.int64).tolist()
        for i, lr, radius in zip(rng.permutation(n).tolist(), lrs, radii):
            x = values[i]
            obs = slice(None) if full_rows[i] else observed[i]
            diff = code[:, obs] - x[obs]
            dist = (diff * diff).mean(axis=1)
            best = int(np.argmin(dist))
            lo, hi = max(0, best - radius), min(k, best + radius + 1)
            code[lo:hi, obs] += lr * (x[obs] - code[lo:hi, obs])
    if dimensions is None:
        dimensions = tuple(f"dim{j}" for j in range(p))
    return Codebook(code, dimensions)


def assign_all(cb: Codebook, data: ContinuousTable) -> np.ndarray:
    """Best matching unit per row, vectorized."""
    dist = _masked_distances(data.values, data.observed, cb.code_vectors)
    return np.argmin(dist, axis=1)


def quantization_error(cb: Codebook, data: ContinuousTable) -> float:
    """Mean masked distance from each row to its best matching unit."""
    if data.n_rows == 0:
        raise ValueError("data is empty")
    dist = _masked_distances(data.values, data.observed, cb.code_vectors)
    return float(dist.min(axis=1).mean())


def _contiguous_runs(labels: np.ndarray) -> bool:
    for v in np.unique(labels):
        pos = np.flatnonzero(labels == v)
        if pos[-1] - pos[0] + 1 != pos.size:
            return False
    return True


def reduce_codebook(level1: Codebook, k2: int, cfg: SomConfig) -> TwoLevelClustering:
    """Cluster the level-1 code-vectors with a k2-unit string map.

    Run contiguity along the level-1 string is checked and reported in the
    result, not repaired.
    """
    m = level1.units
    if k2 > m:
        raise ValueError(f"cannot reduce {m} units to {k2} macro clusters")
    cfg2 = dataclasses.replace(cfg, units=k2, radius_start=None)
    table = ContinuousTable(level1.code_vectors, np.ones_like(level1.code_vectors, dtype=bool))
    level2 = train_som(table, cfg2, dimensions=level1.dimensions)
    macro = assign_all(level2, table)
    return TwoLevelClustering(
        level1=level1,
        level2=level2,
        macro_of_unit=macro,
        contiguous=_contiguous_runs(macro),
    )


def cluster_labels(
    clustering: Codebook | TwoLevelClustering, data: ContinuousTable
) -> np.ndarray:
    """Cluster index per row, vectorized over the table."""
    if isinstance(clustering, TwoLevelClustering):
        return clustering.macro_of_unit[assign_all(clustering.level1, data)]
    return assign_all(clustering, data)


def clustering_to_dict(clustering: Codebook | TwoLevelClustering) -> dict:
    if isinstance(clustering, TwoLevelClustering):
        return {
            "version": 1,
            "kind": "two_level",
            "dimensions": list(clustering.level1.dimensions),
            "level1_code_vectors": clustering.level1.code_vectors.tolist(),
            "level2_code_vectors": clustering.level2.code_vectors.tolist(),
            "macro_of_unit": clustering.macro_of_unit.tolist(),
            "contiguous": clustering.contiguous,
        }
    return {
        "version": 1,
        "kind": "codebook",
        "dimensions": list(clustering.dimensions),
        "code_vectors": clustering.code_vectors.tolist(),
    }


def clustering_from_dict(d: dict) -> Codebook | TwoLevelClustering:
    if d.get("version") != 1:
        raise ValueError(f"unsupported clustering version {d.get('version')!r}")
    dims = tuple(d["dimensions"])
    if d["kind"] == "codebook":
        return Codebook(np.asarray(d["code_vectors"]), dims)
    if d["kind"] == "two_level":
        return TwoLevelClustering(
            level1=Codebook(np.asarray(d["level1_code_vectors"]), dims),
            level2=Codebook(np.asarray(d["level2_code_vectors"]), dims),
            macro_of_unit=np.asarray(d["macro_of_unit"], dtype=np.int64),
            contiguous=bool(d["contiguous"]),
        )
    raise ValueError(f"unknown clustering kind {d['kind']!r}")


def save_clustering(clustering: Codebook | TwoLevelClustering, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clustering_to_dict(clustering), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_clustering(path) -> Codebook | TwoLevelClustering:
    with open(path, encoding="utf-8") as fh:
        return clustering_from_dict(json.load(fh))
