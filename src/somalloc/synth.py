"""Seeded synthetic data generator with planted cluster structure.

Stands in for survey data that cannot be distributed: rows are drawn from
K planted clusters, each with a compositional center (shares summing to
100) and per-cluster modality distributions for the categorical block.
The dependence knob mixes each cluster's modality distribution with the
global marginal (1.0 = fully cluster-specific, 0.0 = independent of the
cluster).  Row i draws from its own stream, ``default_rng(seed ^ i)``, so
output is deterministic and a longer draw extends a shorter one.

Known defect: seeds s and s ^ 1 generate the same rows, swapped pairwise
(row i of one is row i ^ 1 of the other).  Mending it changes every draw,
and with it every test fixture and benchmark input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    COMPOSITION_TOTAL,
    CategoricalTable,
    ContinuousTable,
    Dataset,
    Schema,
    read_only,
)

# survey-like shape: 19 expenditure shares, 10 traits with these modality counts
SURVEY_CONTINUOUS_DIMS = 19
SURVEY_MODALITY_COUNTS = (4, 3, 4, 3, 5, 5, 3, 5, 5, 5)
# shares whose center is identical across clusters (screened out downstream)
SURVEY_FLAT_DIMS = (3, 7, 11, 15, 18)


@dataclass(frozen=True)
class GeneratorSpec:
    """Ground-truth description of the synthetic population."""

    n: int
    centers: np.ndarray
    noise_scale: float
    modality_dists: tuple[np.ndarray, ...]
    dependence: float
    missing_rate: float
    seed: int

    def __post_init__(self):
        centers = read_only(self.centers, np.float64)
        if centers.ndim != 2:
            raise ValueError("centers must be K x p")
        if not np.allclose(centers.sum(axis=1), COMPOSITION_TOTAL, atol=1e-9):
            raise ValueError("every center must sum to 100")
        if (centers < 0).any():
            raise ValueError("centers must be nonnegative")
        object.__setattr__(self, "centers", centers)
        dists = []
        for j, d in enumerate(self.modality_dists):
            d = read_only(d, np.float64)
            if d.ndim != 2 or d.shape[0] != centers.shape[0]:
                raise ValueError(f"modality_dists[{j}] must be K x m_j")
            if not np.allclose(d.sum(axis=1), 1.0, atol=1e-9) or (d < 0).any():
                raise ValueError(f"modality_dists[{j}] rows must be distributions")
            dists.append(d)
        object.__setattr__(self, "modality_dists", tuple(dists))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.dependence <= 1.0:
            raise ValueError("dependence must be in [0, 1]")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must be in [0, 1)")
        if self.noise_scale < 0.0:
            raise ValueError("noise_scale must be >= 0")

    @property
    def p(self) -> int:
        return self.centers.shape[1]

    @property
    def schema(self) -> Schema:
        return Schema(
            continuous_names=tuple(f"share{j:02d}" for j in range(self.p)),
            categorical_vars=tuple(
                (f"trait{j}", tuple(f"level{v}" for v in range(d.shape[1])))
                for j, d in enumerate(self.modality_dists)
            ),
            compositional=True,
        )

    @classmethod
    def survey_shaped(
        cls,
        seed: int,
        n: int = 8809,
        clusters: int = 5,
        dependence: float = 0.8,
        missing_rate: float = 0.02,
        noise_scale: float = 1.5,
    ) -> "GeneratorSpec":
        """Population shaped like the expenditure survey: n x (19 + 10).

        Cluster centers share a dominant component that decreases
        monotonically along the cluster order (so the recovered clusters
        have a natural string order).  Every other varying share follows a
        phase-shifted cosine over the cluster index: sampling a cosine at
        all K points of one period has relative spread amp/sqrt(2)
        whatever the phase, so each of these shares is guaranteed to
        separate the clusters.  A handful of shares (SURVEY_FLAT_DIMS) get
        identical centers everywhere, so the ANOVA screen has something
        real to drop.  Modality distributions peak on a rotating modality
        per (cluster, variable).
        """
        rng = np.random.default_rng(seed)
        p = SURVEY_CONTINUOUS_DIMS
        k = clusters
        centers = np.zeros((k, p))
        dominant = np.linspace(40.0, 12.0, k)
        flat = np.asarray(SURVEY_FLAT_DIMS)
        flat_vals = rng.uniform(2.5, 4.5, size=flat.size)
        vary = np.asarray([j for j in range(1, p) if j not in set(SURVEY_FLAT_DIMS)])
        phases = 2.0 * np.pi * np.arange(vary.size) / vary.size + rng.uniform(
            0.0, 2.0 * np.pi
        )
        amp = 0.8
        weights = 1.0 + amp * np.cos(2.0 * np.pi * np.arange(k)[:, None] / k + phases)
        rest = COMPOSITION_TOTAL - dominant - flat_vals.sum()
        centers[:, 0] = dominant
        centers[:, flat] = flat_vals
        centers[:, vary] = rest[:, None] * weights / weights.sum(axis=1, keepdims=True)
        centers *= COMPOSITION_TOTAL / centers.sum(axis=1, keepdims=True)

        dists = []
        for j, m in enumerate(SURVEY_MODALITY_COUNTS):
            table = np.zeros((k, m))
            for c in range(k):
                alpha = np.full(m, 0.4)
                alpha[(c + j) % m] = 6.0
                table[c] = rng.dirichlet(alpha)
            dists.append(table)

        return cls(
            n=n,
            centers=centers,
            noise_scale=noise_scale,
            modality_dists=tuple(dists),
            dependence=dependence,
            missing_rate=missing_rate,
            seed=seed,
        )


def generate(spec: GeneratorSpec) -> tuple[Dataset, np.ndarray]:
    """Draw the dataset and its planted cluster labels.

    Per row: pick a cluster uniformly; perturb its center, clip at zero and
    renormalize back to 100; mask cells at the missing rate (always keeping
    at least one observed); draw each categorical variable from the
    dependence-weighted mixture of the cluster distribution and the global
    marginal.  Only the draws run row by row; the arithmetic on them runs
    over the whole table.
    """
    k, p = spec.centers.shape
    l = len(spec.modality_dists)
    labels = np.zeros(spec.n, dtype=np.int64)
    values = np.empty((spec.n, p))  # standard normals until scaled below
    blank = np.zeros((spec.n, p), dtype=bool)
    keep = np.full(spec.n, -1)  # the cell kept observed in a fully blanked row
    u = np.empty((spec.n, l))
    for i in range(spec.n):
        rng = np.random.default_rng(spec.seed ^ i)
        labels[i] = rng.integers(k)
        values[i] = rng.standard_normal(p)
        if spec.missing_rate > 0.0:
            blank[i] = rng.random(p) < spec.missing_rate
            if blank[i].all():
                keep[i] = rng.integers(p)
        u[i] = rng.random(l)

    values *= spec.noise_scale
    for j in range(p):  # column by column, so no second n x p array is made
        values[:, j] += spec.centers[labels, j]
    np.clip(values, 0.0, None, out=values)
    sums = values.sum(axis=1)
    zero = sums == 0.0
    values[zero] = spec.centers[labels[zero]]
    sums[zero] = COMPOSITION_TOTAL
    values *= (COMPOSITION_TOTAL / sums)[:, None]
    kept = np.flatnonzero(keep >= 0)
    blank[kept, keep[kept]] = False

    codes = np.empty((spec.n, l), dtype=np.int64)
    for j, dist in enumerate(spec.modality_dists):
        mixed = spec.dependence * dist + (1.0 - spec.dependence) * dist.mean(axis=0)
        mixed /= mixed.sum(axis=1, keepdims=True)
        # the code is the number of cdf entries at or below u, capped at m - 1
        below = np.cumsum(mixed, axis=1)[labels] <= u[:, j, None]
        codes[:, j] = np.minimum(below.sum(axis=1), dist.shape[1] - 1)
    table = ContinuousTable(values, ~blank)
    return Dataset(spec.schema, table, CategoricalTable(codes)), labels
