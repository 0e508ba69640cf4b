"""Continuous-variable screening via additive ANOVA on the categorical block.

Each continuous variable is regressed on the indicator functions of every
categorical modality (additive model, no interactions); the global F
statistic and R-squared of that fit measure how much of the variable the
categorical block explains.  Variables below the R-squared cutoff are
dropped before clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataError, Dataset, csv_field, format_float, write_csv
from .logit import encode_rows


@dataclass(frozen=True)
class AnovaFit:
    fisher_statistic: float
    r_squared: float
    df_model: int
    df_error: int
    rows_used: int
    degenerate: bool = False


@dataclass(frozen=True)
class VariableScreen:
    name: str
    fisher_statistic: float
    r_squared: float
    df_model: int
    df_error: int
    rows_used: int
    selected: bool
    degenerate: bool


@dataclass(frozen=True)
class AnovaReport:
    threshold: float
    variables: tuple[VariableScreen, ...]

    @property
    def selected_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.variables) if v.selected)

    @property
    def selected_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables if v.selected)

    def save_csv(self, path) -> None:
        header = ["variable", "F", "R2", "df_model", "df_error", "selected", "rows_used"]
        lines = (
            f"{csv_field(v.name)},{format_float(v.fisher_statistic)},"
            f"{format_float(v.r_squared)},{v.df_model},{v.df_error},"
            f"{int(v.selected)},{v.rows_used}"
            for v in self.variables
        )
        write_csv(path, header, lines)


def fit_additive_anova(
    x: np.ndarray, observed: np.ndarray | None, design: np.ndarray
) -> AnovaFit:
    """Least-squares fit of one continuous column on the dummy design.

    Rows where x is unobserved are dropped for this variable only.  The
    solve is rank-revealing (SVD), so duplicated indicator columns do not
    change the fitted values.
    """
    x = np.asarray(x, dtype=np.float64)
    if observed is None:
        keep = np.ones(x.shape[0], dtype=bool)
    else:
        keep = np.asarray(observed, dtype=bool)
    rows_used = int(keep.sum())
    if rows_used <= design.shape[1]:
        raise DataError(
            f"need more observed rows ({rows_used}) than design columns "
            f"({design.shape[1]})"
        )
    y = x[keep]
    mat = design[keep]
    beta, _, rank, _ = np.linalg.lstsq(mat, y, rcond=None)
    rank = int(rank)
    resid = y - mat @ beta
    sse = float(resid @ resid)
    centered = y - y.mean()
    sst = float(centered @ centered)
    df_model = max(rank - 1, 0)
    df_error = rows_used - rank
    if sst == 0.0:
        return AnovaFit(0.0, 0.0, df_model, df_error, rows_used, degenerate=True)
    ssr = max(sst - sse, 0.0)
    r_squared = min(ssr / sst, 1.0)
    if df_model == 0:
        fisher = 0.0
    elif sse == 0.0:
        fisher = float("inf")
    else:
        fisher = (ssr / df_model) / (sse / df_error)
    return AnovaFit(fisher, r_squared, df_model, df_error, rows_used)


def select_variables(d: Dataset, threshold: float = 0.08) -> AnovaReport:
    """Screen every continuous variable; selected iff R-squared >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise DataError(f"threshold must be in (0, 1), got {threshold}")
    # the logit's reference-cell coding: full rank with the intercept, and F
    # and R-squared do not depend on which full-rank coding is used
    design = encode_rows(d.categorical, d.schema.categorical_vars)
    screens = []
    for j, name in enumerate(d.schema.continuous_names):
        fit = fit_additive_anova(
            d.continuous.values[:, j], d.continuous.observed[:, j], design
        )
        selected = (not fit.degenerate) and fit.r_squared >= threshold
        screens.append(
            VariableScreen(
                name=name,
                fisher_statistic=fit.fisher_statistic,
                r_squared=fit.r_squared,
                df_model=fit.df_model,
                df_error=fit.df_error,
                rows_used=fit.rows_used,
                selected=selected,
                degenerate=fit.degenerate,
            )
        )
    return AnovaReport(threshold=threshold, variables=tuple(screens))
