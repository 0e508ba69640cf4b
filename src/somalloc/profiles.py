"""Cluster description: classical statistics and modality test values.

Clusters are characterized from two sides: summary statistics of the
continuous variables (over observed entries only) and, per categorical
modality, the share inside the cluster next to the share in the whole
population.  The test value is the ratio of the two; values well above 1
mark modalities that are over-represented in a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CategoricalTable, DataError, Dataset, Schema, checked_labels
from .dataset import csv_field, format_float, write_csv


@dataclass(frozen=True)
class ClusterProfile:
    """Per-cluster summary; undefined statistics are NaN (empty clusters,
    unobserved variables, modalities absent from the population)."""

    cluster: int
    size: int
    cont_count: np.ndarray
    cont_mean: np.ndarray
    cont_variance: np.ndarray
    cont_q1: np.ndarray
    cont_median: np.ndarray
    cont_q3: np.ndarray
    within_pct: tuple[np.ndarray, ...]
    global_pct: tuple[np.ndarray, ...]
    test_value: tuple[np.ndarray, ...]


def _modality_pcts(
    codes: np.ndarray, labels: np.ndarray, k: int, counts: tuple[int, ...]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per variable, the (k, m_j) within-cluster shares and the (m_j,)
    population shares, in percent; NaN for an empty cluster or population.
    A code outside [0, m_j), the missing-cell code included, is refused."""
    n = codes.shape[0]
    within, glob = [], []
    sizes = np.bincount(labels, minlength=k)[:, None]
    for j, m in enumerate(counts):
        bad = np.flatnonzero((codes[:, j] < 0) | (codes[:, j] >= m))
        if bad.size:
            i = bad[0]
            raise DataError(f"row {i}, variable {j}: code {codes[i, j]} is not in [0, {m})")
        tally = np.zeros((k, m))
        np.add.at(tally, (labels, codes[:, j]), 1.0)
        with np.errstate(invalid="ignore"):
            within.append(100.0 * tally / sizes)
            glob.append(100.0 * tally.sum(axis=0) / n)
    return within, glob


def _test_value(within: np.ndarray, glob: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = within / glob
    ratio[:, glob == 0.0] = np.nan
    return ratio


def test_values(
    categorical: CategoricalTable,
    labels: np.ndarray,
    k: int,
    modality_counts: tuple[int, ...],
) -> list[np.ndarray]:
    """Per variable, a (k, m_j) table of within-share / global-share ratios
    over the declared ``modality_counts``.

    Undefined entries (empty cluster, or modality absent globally) are NaN
    rather than 0/0.
    """
    codes = categorical.codes
    labels = checked_labels(labels, codes.shape[0], k)
    within, glob = _modality_pcts(codes, labels, k, tuple(modality_counts))
    return [_test_value(w, g) for w, g in zip(within, glob)]


def describe_clusters(d: Dataset, labels: np.ndarray, k: int) -> tuple[ClusterProfile, ...]:
    """Summary statistics and modality test values for every cluster.

    Quartiles use linear interpolation between order statistics; variance
    uses the n-1 denominator.  Missing continuous entries are excluded per
    statistic, not per row.
    """
    labels = checked_labels(labels, d.n_rows, k)
    p = d.schema.p
    within, glob = _modality_pcts(d.categorical.codes, labels, k, d.schema.modality_counts)
    tv_tables = [_test_value(w, g) for w, g in zip(within, glob)]

    profiles = []
    for c in range(k):
        mask = labels == c
        size = int(mask.sum())
        cont_count = np.zeros(p, dtype=np.int64)
        mean = np.full(p, np.nan)
        variance = np.full(p, np.nan)
        q1 = np.full(p, np.nan)
        median = np.full(p, np.nan)
        q3 = np.full(p, np.nan)
        for j in range(p):
            obs = mask & d.continuous.observed[:, j]
            vals = d.continuous.values[obs, j]
            cont_count[j] = vals.size
            if vals.size:
                mean[j] = vals.mean()
                q1[j], median[j], q3[j] = np.percentile(vals, [25.0, 50.0, 75.0])
                if vals.size > 1:
                    variance[j] = vals.var(ddof=1)
        profiles.append(
            ClusterProfile(
                cluster=c,
                size=size,
                cont_count=cont_count,
                cont_mean=mean,
                cont_variance=variance,
                cont_q1=q1,
                cont_median=median,
                cont_q3=q3,
                within_pct=tuple(w[c] for w in within),
                global_pct=tuple(glob),
                test_value=tuple(t[c] for t in tv_tables),
            )
        )
    return tuple(profiles)


def _cell(x: float) -> str:
    return "" if np.isnan(x) else format_float(x)


def save_continuous_stats_csv(
    profiles: tuple[ClusterProfile, ...], schema: Schema, path
) -> None:
    header = ["cluster", "size", "variable", "count", "mean", "variance", "q1", "median", "q3"]
    names = list(map(csv_field, schema.continuous_names))
    lines = (
        f"{prof.cluster},{prof.size},{name},{int(prof.cont_count[j])},"
        f"{_cell(prof.cont_mean[j])},{_cell(prof.cont_variance[j])},"
        f"{_cell(prof.cont_q1[j])},{_cell(prof.cont_median[j])},{_cell(prof.cont_q3[j])}"
        for prof in profiles
        for j, name in enumerate(names)
    )
    write_csv(path, header, lines)


def save_modality_csv(
    profiles: tuple[ClusterProfile, ...], schema: Schema, path
) -> None:
    header = ["cluster", "variable", "modality", "within_pct", "global_pct", "test_value"]
    layout = [
        (csv_field(name), list(map(csv_field, mods))) for name, mods in schema.categorical_vars
    ]
    lines = (
        f"{prof.cluster},{name},{label},{_cell(prof.within_pct[j][m])},"
        f"{_cell(prof.global_pct[j][m])},{_cell(prof.test_value[j][m])}"
        for prof in profiles
        for j, (name, labels) in enumerate(layout)
        for m, label in enumerate(labels)
    )
    write_csv(path, header, lines)


def mean_profile_svg(profiles: tuple[ClusterProfile, ...], schema: Schema) -> str:
    """Hand-rolled SVG bar chart of each cluster's mean continuous profile.

    One panel per cluster, one horizontal bar per variable, all panels on a
    shared scale.  Deterministic output (no timestamps or library metadata).
    """
    names = schema.continuous_names
    p = len(names)
    finite = [
        v
        for prof in profiles
        for v in prof.cont_mean
        if not np.isnan(v)
    ]
    vmax = max(finite) if finite else 1.0
    vmax = vmax if vmax > 0 else 1.0

    bar_h, gap, label_w, bar_w = 14, 4, 130, 320
    panel_h = 28 + p * (bar_h + gap) + 12
    width = label_w + bar_w + 80
    height = panel_h * len(profiles) + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">'
    ]
    for idx, prof in enumerate(profiles):
        top = 10 + idx * panel_h
        parts.append(
            f'<text x="10" y="{top + 12}" font-weight="bold">'
            f"cluster {prof.cluster} (n={prof.size})</text>"
        )
        for j, name in enumerate(names):
            y = top + 24 + j * (bar_h + gap)
            val = prof.cont_mean[j]
            parts.append(
                f'<text x="{label_w - 6}" y="{y + bar_h - 3}" text-anchor="end">{name}</text>'
            )
            if np.isnan(val):
                parts.append(
                    f'<text x="{label_w + 4}" y="{y + bar_h - 3}" fill="#999">n/a</text>'
                )
                continue
            w = max(0.0, val / vmax) * bar_w
            parts.append(
                f'<rect x="{label_w}" y="{y}" width="{w:.2f}" height="{bar_h}" '
                'fill="#4878a8"/>'
            )
            parts.append(
                f'<text x="{label_w + w + 4:.2f}" y="{y + bar_h - 3}">{val:.2f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
