"""Allocation of new individuals and the exact/correct scoring protocol.

New individuals carry only categorical data; the fitted logit gives their
membership probabilities and they are assigned either to the most probable
cluster or by sampling from the probability vector.  Test individuals'
reference classes come from their continuous rows, nearest code-vector
under the masked distance.  Allocation quality is read off a contingency
table (rows = allocated, columns = reference): the diagonal counts exact
allocations, and the first off-diagonals add the neighboring clusters of
the string order to give correct allocations.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import MISSING_CODE, CategoricalTable, ContinuousTable, write_csv
from .dataset import checked_codes, checked_labels, read_only
from .logit import LogitModel, predict_proba_rows
from .som import TwoLevelClustering, cluster_labels

MODES = ("argmax", "sample")


@dataclass(frozen=True)
class AllocationResult:
    probabilities: np.ndarray
    assigned: np.ndarray
    missing_counts: np.ndarray

    def __post_init__(self):
        probs = read_only(self.probabilities, np.float64)
        if probs.ndim != 2:
            raise ValueError("one probability vector per row required")
        assigned = checked_labels(self.assigned, probs.shape[0], probs.shape[1])
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "assigned", read_only(assigned))
        object.__setattr__(self, "missing_counts", read_only(self.missing_counts, np.int64))

    @property
    def n_rows(self) -> int:
        return self.assigned.shape[0]


def allocate(
    m: LogitModel,
    rows: CategoricalTable | np.ndarray,
    mode: str = "argmax",
    seed: int = 0,
) -> AllocationResult:
    """Assign each row to a cluster from its membership probabilities.

    argmax picks the most probable cluster (ties to the lowest index);
    sample draws from the probability vector by inverse CDF, with the
    uniform of row i taken from a counter-based (Philox) stream keyed on
    ``seed``, so it depends only on (seed, i).
    """
    if mode not in MODES:
        raise ValueError(f"unknown allocation mode {mode!r}")
    codes = checked_codes(rows, m.categorical_vars, allow_missing=True)
    probs = predict_proba_rows(m, codes)
    if mode == "argmax":
        assigned = np.argmax(probs, axis=1)
    else:
        u = np.random.Generator(np.random.Philox(key=seed)).random(probs.shape[0])
        below = np.cumsum(probs, axis=1) <= u[:, None]
        assigned = np.minimum(below.sum(axis=1), m.k - 1)
    missing = (codes == MISSING_CODE).sum(axis=1)
    return AllocationResult(probabilities=probs, assigned=assigned, missing_counts=missing)


def true_classes(clustering: TwoLevelClustering, data: ContinuousTable) -> np.ndarray:
    """Reference class per continuous row: its nearest code-vector's cluster."""
    return cluster_labels(clustering, data)


@dataclass(frozen=True)
class ContingencyTable:
    """K x K counts, rows = allocated cluster, columns = reference cluster.

    Clusters i and i+-1 are neighbors (the string order of the macro
    clusters).
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = read_only(self.counts, np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("counts must be a square matrix")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def save_csv(self, path) -> None:
        header = ["allocated"] + [f"true_{j}" for j in range(self.k)]
        lines = (
            f"{i},{','.join(map(str, row))}" for i, row in enumerate(self.counts.tolist())
        )
        write_csv(path, header, lines)


def build_contingency(
    allocated: np.ndarray, truth: np.ndarray, k: int
) -> ContingencyTable:
    """Counts of (allocated, reference) pairs: one of each per row, both in [0, k)."""
    truth = checked_labels(truth, np.size(truth), k)
    allocated = checked_labels(allocated, truth.size, k)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (allocated, truth), 1)
    return ContingencyTable(counts)


@dataclass(frozen=True)
class EvaluationSummary:
    exact: int
    neighbor: int
    correct: int
    exact_rate: float
    correct_rate: float
    total: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(table: ContingencyTable) -> EvaluationSummary:
    """Exact = diagonal sum; correct adds the first off-diagonals."""
    total = table.total
    if total == 0:
        raise ValueError("contingency table is empty")
    counts = table.counts
    exact = int(np.trace(counts))
    neighbor = int(np.trace(counts, offset=1) + np.trace(counts, offset=-1))
    correct = exact + neighbor
    return EvaluationSummary(
        exact=exact,
        neighbor=neighbor,
        correct=correct,
        exact_rate=exact / total,
        correct_rate=correct / total,
        total=total,
    )
