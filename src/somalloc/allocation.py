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

import csv
from dataclasses import dataclass

import numpy as np

from .dataset import MISSING_CODE, CategoricalTable, ContinuousTable
from .logit import LogitModel, predict_proba_rows
from .som import Codebook, TwoLevelClustering, cluster_labels


@dataclass(frozen=True)
class AllocationResult:
    probabilities: np.ndarray
    assigned: np.ndarray
    mode: str
    missing_counts: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64)
        assigned = np.asarray(self.assigned, dtype=np.int64)
        missing = np.asarray(self.missing_counts, dtype=np.int64)
        if probs.ndim != 2 or assigned.shape != (probs.shape[0],):
            raise ValueError("one probability vector and assignment per row required")
        if assigned.size and (assigned.min() < 0 or assigned.max() >= probs.shape[1]):
            raise ValueError("assigned cluster out of range")
        for name, arr in (("probabilities", probs), ("assigned", assigned),
                          ("missing_counts", missing)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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
    sample draws from the probability vector by inverse CDF, one substream
    per row (seed xor row index) so results do not depend on row order.
    """
    if mode not in ("argmax", "sample"):
        raise ValueError(f"unknown allocation mode {mode!r}")
    codes = rows.codes if isinstance(rows, CategoricalTable) else np.asarray(rows)
    probs = predict_proba_rows(m, codes)
    if mode == "argmax":
        assigned = np.argmax(probs, axis=1)
    else:
        assigned = np.empty(probs.shape[0], dtype=np.int64)
        for i in range(probs.shape[0]):
            u = np.random.default_rng(seed ^ i).random()
            cum = np.cumsum(probs[i])
            assigned[i] = min(int(np.searchsorted(cum, u, side="right")), m.k - 1)
    missing = (codes == MISSING_CODE).sum(axis=1)
    return AllocationResult(
        probabilities=probs, assigned=assigned, mode=mode, missing_counts=missing
    )


def true_classes(
    clustering: Codebook | TwoLevelClustering, data: ContinuousTable
) -> np.ndarray:
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
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("counts must be a square matrix")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def save_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["allocated"] + [f"true_{j}" for j in range(self.k)])
            for i, row in enumerate(self.counts):
                writer.writerow([i] + [int(v) for v in row])


def build_contingency(
    allocated: np.ndarray, truth: np.ndarray, k: int
) -> ContingencyTable:
    allocated = np.asarray(allocated, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if allocated.shape != truth.shape:
        raise ValueError(
            f"length mismatch: {allocated.shape[0]} allocated vs {truth.shape[0]} true"
        )
    for name, arr in (("allocated", allocated), ("truth", truth)):
        if arr.size and (arr.min() < 0 or arr.max() >= k):
            raise ValueError(f"{name} labels must lie in [0, {k})")
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
        return {
            "exact": self.exact,
            "neighbor": self.neighbor,
            "correct": self.correct,
            "exact_rate": self.exact_rate,
            "correct_rate": self.correct_rate,
            "total": self.total,
        }


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
