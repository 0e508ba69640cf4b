"""Seeded synthetic data generator with planted cluster structure.

Stands in for survey data that cannot be distributed: rows are drawn from
K planted clusters, each with a compositional center (shares summing to
100) and per-cluster modality distributions for the categorical block.
The dependence knob mixes each cluster's modality distribution with the
global marginal (1.0 = fully cluster-specific, 0.0 = independent of the
cluster).  Every row is generated from its own substream (seed xor row
index), so output is deterministic and independent of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    continuous_names: tuple[str, ...] = field(default=())
    categorical_vars: tuple[tuple[str, tuple[str, ...]], ...] = field(default=())

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
        k, p = centers.shape
        if not self.continuous_names:
            object.__setattr__(
                self, "continuous_names", tuple(f"share{j:02d}" for j in range(p))
            )
        if not self.categorical_vars:
            object.__setattr__(
                self,
                "categorical_vars",
                tuple(
                    (
                        f"trait{j}",
                        tuple(f"level{v}" for v in range(d.shape[1])),
                    )
                    for j, d in enumerate(self.modality_dists)
                ),
            )

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    @property
    def p(self) -> int:
        return self.centers.shape[1]

    @property
    def schema(self) -> Schema:
        return Schema(
            continuous_names=self.continuous_names,
            categorical_vars=self.categorical_vars,
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
        for c in range(k):
            centers[c, 0] = dominant[c]
            centers[c, flat] = flat_vals
            weights = 1.0 + amp * np.cos(2.0 * np.pi * c / k + phases)
            rest = COMPOSITION_TOTAL - centers[c, 0] - flat_vals.sum()
            centers[c, vary] = rest * weights / weights.sum()
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
    marginal.
    """
    k, p = spec.centers.shape
    l = len(spec.modality_dists)
    # mixture cdfs depend only on (variable, cluster): precompute once
    cdfs = []
    for dist in spec.modality_dists:
        marginal = dist.mean(axis=0)
        mixed = spec.dependence * dist + (1.0 - spec.dependence) * marginal[None, :]
        mixed /= mixed.sum(axis=1, keepdims=True)
        cdfs.append(np.cumsum(mixed, axis=1))

    values = np.zeros((spec.n, p))
    observed = np.ones((spec.n, p), dtype=bool)
    codes = np.zeros((spec.n, l), dtype=np.int64)
    labels = np.zeros(spec.n, dtype=np.int64)
    for i in range(spec.n):
        rng = np.random.default_rng(spec.seed ^ i)
        c = int(rng.integers(k))
        labels[i] = c
        x = spec.centers[c] + spec.noise_scale * rng.standard_normal(p)
        np.clip(x, 0.0, None, out=x)
        s = x.sum()
        if s == 0.0:
            x = spec.centers[c].copy()
            s = COMPOSITION_TOTAL
        values[i] = x * (COMPOSITION_TOTAL / s)
        if spec.missing_rate > 0.0:
            mask = rng.random(p) < spec.missing_rate
            if mask.all():
                mask[int(rng.integers(p))] = False
            observed[i] = ~mask
        for j in range(l):
            m = cdfs[j].shape[1]
            codes[i, j] = min(
                int(np.searchsorted(cdfs[j][c], rng.random(), side="right")), m - 1
            )
    dataset = Dataset(
        spec.schema,
        ContinuousTable(values, observed),
        CategoricalTable(codes),
    )
    return dataset, labels
