"""One-dimensional self-organizing maps with missing-value-robust distances.

Units live on a string: unit i neighbors i-1 and i+1.  Matching and updates
use only the observed components of a row, so incomplete rows train and
assign without imputation.  A clustering is a trained map whose string
Fisher's exact split cuts into contiguous runs of units, the macro
clusters, numbered along the string; with one run per unit, the map's
units are the clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ContinuousTable, read_json, write_json
from .dataset import checked_labels, json_field, read_only

# rows per block of the masked-distance kernel, whose temporaries are
# _BLOCK_ROWS x K x p doubles; 512 was the fastest of 128-8192 rows on
# 30 000 x 14 rows against 20 units, and no slower against 5
_BLOCK_ROWS = 512


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
        vectors = read_only(self.code_vectors, np.float64)
        if vectors.ndim != 2:
            raise ValueError("code_vectors must be a 2-d array")
        if not np.isfinite(vectors).all():
            raise ValueError("code_vectors must be finite")
        if len(self.dimensions) != vectors.shape[1]:
            raise ValueError("dimension labels must match code-vector width")
        object.__setattr__(self, "code_vectors", vectors)
        object.__setattr__(self, "dimensions", tuple(self.dimensions))

    @property
    def units(self) -> int:
        return self.code_vectors.shape[0]


@dataclass(frozen=True)
class TwoLevelClustering:
    """A trained map whose string is split into contiguous macro clusters.

    macro_of_unit maps every level-1 unit to its macro cluster, numbered
    along the string, so cluster i neighbours clusters i-1 and i+1.
    """

    level1: Codebook
    macro_of_unit: np.ndarray

    def __post_init__(self):
        macro = checked_labels(self.macro_of_unit, self.level1.units, self.level1.units)
        if macro[:1].tolist() != [0] or not np.isin(np.diff(macro), (0, 1)).all():
            raise ValueError(
                "macro_of_unit must number runs along the string: start at 0 "
                f"and step by 0 or 1, got {macro.tolist()}"
            )
        object.__setattr__(self, "macro_of_unit", read_only(macro))

    @property
    def dimensions(self) -> tuple[str, ...]:
        return self.level1.dimensions

    @property
    def n_clusters(self) -> int:
        return int(self.macro_of_unit[-1]) + 1


def _masked_distances(
    values: np.ndarray, observed: np.ndarray, code_vectors: np.ndarray
) -> np.ndarray:
    """(N, K) matrix of masked distances from every row to every unit.

    Each distance averages the squared differences over the row's observed
    components, which keeps rows with different missingness comparable.
    Rows go through in blocks, so the (rows, K, p) temporaries stay bounded.
    """
    if values.shape[1] != code_vectors.shape[1]:
        raise ValueError(
            f"dimension mismatch: rows have {values.shape[1]} components, "
            f"code-vectors {code_vectors.shape[1]}"
        )
    counts = observed.sum(axis=1)
    out = np.empty((values.shape[0], code_vectors.shape[0]))
    for start in range(0, values.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        diff = values[rows, None, :] - code_vectors[None, :, :]
        sq = np.where(observed[rows, None, :], diff * diff, 0.0)
        out[rows] = sq.sum(axis=2) / counts[rows, None]
    return out


def train_som(
    data: ContinuousTable, cfg: SomConfig, dimensions: tuple[str, ...] | None = None
) -> Codebook:
    """Online training of a 1-d string map.

    Per step: draw a row (fresh seeded shuffle each epoch), find the best
    matching unit under the masked distance (ties to the lowest index) and
    pull every unit within the current integer radius toward the row, on
    the observed components only.  Deterministic given the config seed.

    A fully observed row runs every step into buffers allocated once per
    call and updates the codebook in place; a row with blanks works on the
    columns it observes, listed once before the first epoch.  Each step
    does the same floating-point operations in the same order as the
    per-step formula, so the codebook is bit-identical to it.
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

    # observed columns of the rows with blanks; fully observed rows are absent
    partial = np.flatnonzero(~observed.all(axis=1)).tolist()
    cols_of = {i: np.flatnonzero(observed[i]) for i in partial}
    diff = np.empty((k, p))  # squared differences, then the update step
    dist = np.empty(k)
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
            cols = cols_of.get(i)
            if cols is None:
                sq = np.subtract(code, x, out=diff)
            else:
                x = x.take(cols)
                sc = code.take(cols, axis=1)
                sq = sc - x
            # the mean of squares as mean() computes it: reduce, then divide
            np.multiply(sq, sq, out=sq)
            np.add.reduce(sq, axis=1, out=dist)
            np.true_divide(dist, sq.shape[1], out=dist)
            best = int(dist.argmin())
            lo, hi = max(0, best - radius), min(k, best + radius + 1)
            if cols is None:
                seg = code[lo:hi]
                step = np.subtract(x, seg, out=diff[: hi - lo])
                step *= lr
                seg += step
            else:
                s = sc[lo:hi]
                code[lo:hi, cols] = s + lr * (x - s)
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


def reduce_codebook(level1: Codebook, k2: int, best_units) -> TwoLevelClustering:
    """Split the level-1 string into k2 contiguous runs, each with hits.

    ``best_units`` holds each training row's level-1 best matching unit.
    Fisher's (1958) exact dynamic programme minimises the hit-weighted
    within-run sum of squares of the code-vectors in O(k2 * units^2).  Ties
    go to the earliest split point: hitless units join the later run.
    """
    w = np.bincount(best_units, minlength=level1.units).astype(np.float64)
    occupied = int((w > 0).sum())
    if not 1 <= k2 <= occupied:
        raise ValueError(
            f"cannot split the string into {k2} macro clusters: "
            f"{occupied} of its {level1.units} units have training hits"
        )
    c = level1.code_vectors
    # row j: the sums of w, w*c and w*|c|^2 over units [0, j)
    stats = np.column_stack([w, w[:, None] * c, w * (c * c).sum(axis=1)])
    prefix = np.vstack([np.zeros(stats.shape[1]), np.cumsum(stats, axis=0)])
    # run[i, j]: the sums over units [i, j); its w is a whole count
    run = prefix[None, :, :] - prefix[:, None, :]
    dw, ds, dq = run[..., 0], run[..., 1:-1], run[..., -1]
    cost = np.where(dw > 0, dq - (ds * ds).sum(axis=2) / np.maximum(dw, 1.0), np.inf)
    # best[j]: least cost of units [0, j) in r + 1 runs; start[r][j]: where
    # the last run begins when they make r + 2 runs
    best, start = cost[0], []
    for _ in range(k2 - 1):
        total = best[:, None] + cost
        start.append(total.argmin(axis=0))
        best = total.min(axis=0)
    end, macro = level1.units, np.zeros(level1.units, dtype=np.int64)
    for begins in reversed(start):
        end = int(begins[end])
        macro[end:] += 1
    return TwoLevelClustering(level1, macro)


def cluster_labels(clustering: TwoLevelClustering, data: ContinuousTable) -> np.ndarray:
    """Cluster index per row, vectorized over the table."""
    return clustering.macro_of_unit[assign_all(clustering.level1, data)]


def clustering_to_dict(clustering: TwoLevelClustering) -> dict:
    return {
        "version": 3,
        "dimensions": list(clustering.dimensions),
        "level1_code_vectors": clustering.level1.code_vectors.tolist(),
        "macro_of_unit": clustering.macro_of_unit.tolist(),
    }


def clustering_from_dict(d: dict) -> TwoLevelClustering:
    version = json_field(d, "version", int)
    if version != 3:
        raise ValueError(f"unsupported clustering version {version}: expected 3")
    dims = tuple(json_field(d, "dimensions", [str]))
    return TwoLevelClustering(
        level1=Codebook(json_field(d, "level1_code_vectors", [[float]]), dims),
        macro_of_unit=json_field(d, "macro_of_unit", [int]),
    )


def save_clustering(clustering: TwoLevelClustering, path) -> None:
    write_json(path, clustering_to_dict(clustering))


def load_clustering(path) -> TwoLevelClustering:
    return read_json(path, clustering_from_dict)
