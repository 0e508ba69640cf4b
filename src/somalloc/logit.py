"""Non-ordered polychotomous logit over dummy-coded categorical features.

Class K-1 is the reference: its linear score is fixed at 0 and each other
class k carries a coefficient vector b_k, so that p_k / p_ref =
exp(y . b_k).  Coefficients are estimated by maximum likelihood with
Newton-Raphson (step-halving, ridge fallback on singular or separating
fits).  Membership probabilities come out of an overflow-safe softmax.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import CategoricalTable, read_json, write_json
from .dataset import checked_codes, checked_labels, checked_layout, json_field, read_only

SEPARATION_COEF_LIMIT = 30.0
_BLOCK_ROWS = 256  # rows per block of the Hessian accumulation


def design_width(categorical_vars) -> int:
    """Columns of the design: the intercept plus one per non-reference modality."""
    return 1 + sum(len(mods) - 1 for _, mods in categorical_vars)


def encode_rows(rows: CategoricalTable | np.ndarray, categorical_vars) -> np.ndarray:
    """(N, d) design matrix over the ``(name, modalities)`` layout.

    An intercept column, then per variable indicators for every modality
    except the last (the reference).  The reference modality and a blank
    cell (MISSING_CODE, allowed here) both encode as an all-zero block, so
    a blank cell scores exactly as the reference modality would.
    """
    codes = checked_codes(rows, categorical_vars, allow_missing=True)
    design = np.zeros((codes.shape[0], design_width(categorical_vars)))
    design[:, 0] = 1.0
    offset = 1
    for j, (_, mods) in enumerate(categorical_vars):
        col = codes[:, j]
        for mod in range(len(mods) - 1):
            design[:, offset + mod] = col == mod
        offset += len(mods) - 1
    return design


@dataclass(frozen=True)
class FitDiagnostics:
    log_likelihood: float
    gradient_max: float
    iterations: int
    ridge: float
    converged: bool
    ll_trace: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        """The saved fields: all but ``ll_trace``."""
        d = asdict(self)
        del d["ll_trace"]
        return d


@dataclass(frozen=True)
class LogitModel:
    """K classes, reference class K-1, beta of shape (K-1, width) over the
    design of ``categorical_vars``, the schema's ``(name, modalities)``
    layout."""

    k: int
    beta: np.ndarray
    categorical_vars: tuple[tuple[str, tuple[str, ...]], ...]
    diagnostics: FitDiagnostics

    def __post_init__(self):
        layout = checked_layout(self.categorical_vars)
        object.__setattr__(self, "categorical_vars", layout)
        beta = read_only(self.beta, np.float64)
        if self.k < 2:
            raise ValueError("need at least two classes")
        width = design_width(layout)
        if beta.shape != (self.k - 1, width):
            raise ValueError(f"beta must be ({self.k - 1}, {width}), got {beta.shape}")
        if not np.isfinite(beta).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "beta", beta)

    @property
    def reference_class(self) -> int:
        return self.k - 1


def _probabilities(scores: np.ndarray) -> np.ndarray:
    """Softmax over (scores..., 0) per row, with max subtraction."""
    n = scores.shape[0]
    full = np.concatenate([scores, np.zeros((n, 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    np.exp(full, out=full)
    full /= full.sum(axis=1, keepdims=True)
    return full


def _loglik_grad(
    beta: np.ndarray, design: np.ndarray, counts: np.ndarray, ridge: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalized log-likelihood of the design rows, each weighted by its
    (N, K) per-class counts, its gradient over the stacked coefficients, and
    the per-row probability matrix."""
    k = counts.shape[1]
    probs = _probabilities(design @ beta.T)
    seen = counts > 0
    with np.errstate(divide="ignore"):
        ll = float((counts[seen] * np.log(probs[seen])).sum())
    n = counts.sum(axis=1, keepdims=True)
    grad = (counts[:, : k - 1] - n * probs[:, : k - 1]).T @ design
    if ridge:
        ll -= 0.5 * ridge * float((beta * beta).sum())
        grad = grad - ridge * beta
    return ll, grad.ravel(), probs


def _column_pairs(categorical_vars) -> tuple[np.ndarray, np.ndarray]:
    """Design column pairs a <= b whose indicator product can be nonzero: the
    diagonal and the pairs of columns of different variables, the intercept
    counting as a variable of its own."""
    widths = [1] + [len(mods) - 1 for _, mods in categorical_vars]
    var = np.repeat(np.arange(len(widths)), widths)
    a, b = np.triu_indices(var.size)
    keep = (a == b) | (var[a] != var[b])
    return a[keep], b[keep]


def _hessian(
    design: np.ndarray, probs: np.ndarray, n: np.ndarray, categorical_vars, ridge: float
) -> np.ndarray:
    """Hessian of the penalized log-likelihood over the stacked coefficients
    of rows weighted by the counts ``n``.

    Entry (c, a; e, b) is sum_g n_g (p_gc p_ge - [c=e] p_gc) x_ga x_gb.  It
    is symmetric in c, e and in a, b, so only class pairs c <= e and the
    column pairs a <= b of ``_column_pairs`` are summed, as one product W'Z:
    W has a column per class pair, Z the 0/1 product of each column pair.
    W'Z is accumulated over blocks of _BLOCK_ROWS rows, so the temporaries
    do not grow with the number of rows, and each sum is then written into
    its four symmetric positions.
    """
    k1 = probs.shape[1] - 1
    d = design.shape[1]
    ci, ei = np.triu_indices(k1)
    same = np.flatnonzero(ci == ei)
    pa, pb = _column_pairs(categorical_vars)
    sums = np.zeros((ci.size, pa.size))
    for start in range(0, design.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        p = probs[rows, :k1]
        w = p[:, ci] * p[:, ei]
        w[:, same] -= p
        w *= n[rows, None]
        x = design[rows] != 0
        sums += w.T @ (x[:, pa] & x[:, pb]).astype(np.float64)
    h = np.zeros((k1, d, k1, d))
    c, e = ci[:, None], ei[:, None]
    h[c, pa, e, pb] = sums
    h[c, pb, e, pa] = sums
    h[e, pa, c, pb] = sums
    h[e, pb, c, pa] = sums
    h = h.reshape(k1 * d, k1 * d)
    if ridge:
        h -= ridge * np.eye(k1 * d)
    return h


def _newton(
    design: np.ndarray,
    counts: np.ndarray,
    categorical_vars,
    tol: float,
    max_iter: int,
    ridge: float,
) -> tuple[np.ndarray, FitDiagnostics] | None:
    """Newton-Raphson with step halving from a zero start, on design rows
    weighted by their (N, K) per-class counts; None on a singular Hessian, a
    stalled line search or, without ridge, coefficients running past the
    separation limit."""
    k = counts.shape[1]
    d = design.shape[1]
    n = counts.sum(axis=1)
    beta = np.zeros((k - 1, d))
    ll, grad, probs = _loglik_grad(beta, design, counts, ridge)
    trace = [ll]
    gmax = float(np.abs(grad).max())
    for _ in range(max_iter):
        if gmax < tol:
            break
        hess = _hessian(design, probs, n, categorical_vars, ridge)
        try:
            step = np.linalg.solve(-hess, grad).reshape(k - 1, d)
        except np.linalg.LinAlgError:
            return None
        t = 1.0
        # near the optimum the objective is flat at float resolution and the
        # full Newton step can land one ulp below; accept such steps when the
        # gradient norm still improves, else halving would stall forever
        flat = 32.0 * np.spacing(max(1.0, abs(ll)))
        while True:
            cand = beta + t * step
            ll_new, grad_new, probs_new = _loglik_grad(cand, design, counts, ridge)
            if ll_new >= ll:
                break
            if ll_new >= ll - flat and float(np.abs(grad_new).max()) < gmax:
                break
            t *= 0.5
            if t < 1e-12:
                return None
        beta, ll, grad, probs = cand, ll_new, grad_new, probs_new
        trace.append(ll)
        gmax = float(np.abs(grad).max())
        if ridge == 0.0 and float(np.abs(beta).max()) > SEPARATION_COEF_LIMIT:
            # runaway coefficients signal (quasi-)separation
            return None
    diag = FitDiagnostics(
        log_likelihood=ll,
        gradient_max=gmax,
        iterations=len(trace) - 1,
        ridge=ridge,
        converged=gmax < tol,
        ll_trace=tuple(trace),
    )
    return beta, diag


def _pattern_counts(
    codes: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``codes``: the index of each one's first row, in
    lexicographic order of the rows, and its (G, k) label counts.

    Each row is keyed by a mixed-radix integer over its codes, re-ranked to
    dense ids after every column, so the key stays below N times the radix
    of one column however many columns there are.
    """
    ids = np.zeros(codes.shape[0], dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)
    for col in codes.T:
        key = ids * (int(col.max()) + 2) + (col + 1)
        _, first, ids = np.unique(key, return_index=True, return_inverse=True)
    counts = np.bincount(ids * k + labels, minlength=first.size * k)
    return first, counts.reshape(first.size, k).astype(np.float64)


def fit_logit(
    rows: CategoricalTable | np.ndarray,
    labels: np.ndarray,
    k: int,
    categorical_vars,
    tol: float = 1e-8,
    max_iter: int = 100,
    ridge: float = 1e-6,
) -> LogitModel:
    """Maximum-likelihood fit from a zero start.

    Rows, blanks refused, with the same codes share one design row weighted
    by its per-class label counts, so only the distinct patterns are encoded
    and Newton works on them alone; the sums are the same up to their order.

    The first pass is unpenalized; a singular Hessian, a stalled line
    search or coefficients running past +-30 (quasi-separation) trigger one
    refit with the L2 penalty ``ridge``, recorded in the diagnostics.
    Non-convergence after the fallback is warned about, and the model is
    still returned with its diagnostics.  A negative ``tol``, ``max_iter``
    or ``ridge`` is refused.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2 classes, got {k!r}")
    for field, value in (("tol", tol), ("max_iter", max_iter), ("ridge", ridge)):
        if not value >= 0:
            raise ValueError(f"{field} must be non-negative, got {value!r}")
    codes = checked_codes(rows, categorical_vars, allow_missing=False)
    labels = checked_labels(labels, codes.shape[0], k)
    if labels.size == 0:
        raise ValueError("no rows to fit")
    present = np.bincount(labels, minlength=k) > 0
    if not present.all():
        missing = np.flatnonzero(~present)
        raise ValueError(f"classes absent from labels: {missing.tolist()}")
    first, counts = _pattern_counts(codes, labels, k)
    design = encode_rows(codes[first], categorical_vars)
    fit = _newton(design, counts, categorical_vars, tol, max_iter, 0.0)
    if fit is None:
        if ridge <= 0.0:
            raise ValueError(
                "fit failed (singular Hessian or separated data) and the "
                "ridge fallback is disabled"
            )
        fit = _newton(design, counts, categorical_vars, tol, max_iter, ridge)
        if fit is None:
            raise ValueError(
                "fit failed even with the ridge penalty; data may be degenerate"
            )
    beta, diag = fit
    if not diag.converged:
        warnings.warn(
            f"logit fit did not converge in {diag.iterations} iterations "
            f"(|grad|={diag.gradient_max:.3g}, ridge={diag.ridge:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return LogitModel(
        k=k, beta=beta, categorical_vars=categorical_vars, diagnostics=diag
    )


def log_likelihood(
    m: LogitModel, rows: CategoricalTable | np.ndarray, labels: np.ndarray
) -> float:
    design = encode_rows(rows, m.categorical_vars)
    labels = checked_labels(labels, design.shape[0], m.k)
    ll, _, _ = _loglik_grad(m.beta, design, np.eye(m.k)[labels], 0.0)
    return ll


def predict_proba_rows(m: LogitModel, rows: CategoricalTable | np.ndarray) -> np.ndarray:
    design = encode_rows(rows, m.categorical_vars)
    return _probabilities(design @ m.beta.T)


def model_to_dict(m: LogitModel) -> dict:
    return {
        "version": 1,
        "classes": m.k,
        "reference_class": m.reference_class,
        "encoding": {
            "variables": [name for name, _ in m.categorical_vars],
            "modalities": [list(mods) for _, mods in m.categorical_vars],
            "intercept": True,
        },
        "beta": m.beta.tolist(),
        "diagnostics": m.diagnostics.to_dict(),
    }


def model_from_dict(d: dict) -> LogitModel:
    version = json_field(d, "version", int)
    if version != 1:
        raise ValueError(f"unsupported model version {version!r}")
    enc = d["encoding"]
    if enc["intercept"] is not True:
        raise ValueError("model encoding must have an intercept")
    variables = json_field(enc, "variables", [str])
    modalities = json_field(enc, "modalities", [list])
    if len(variables) != len(modalities):
        raise ValueError("encoding needs one modality list per variable")
    diag = d["diagnostics"]
    return LogitModel(
        k=json_field(d, "classes", int),
        beta=json_field(d, "beta", [[float]]),
        categorical_vars=tuple(zip(variables, modalities)),
        diagnostics=FitDiagnostics(
            log_likelihood=float(json_field(diag, "log_likelihood", float)),
            gradient_max=float(json_field(diag, "gradient_max", float)),
            iterations=json_field(diag, "iterations", int),
            ridge=float(json_field(diag, "ridge", float)),
            converged=json_field(diag, "converged", bool),
        ),
    )


def save_model(m: LogitModel, path) -> None:
    write_json(path, model_to_dict(m))


def load_model(path) -> LogitModel:
    return read_json(path, model_from_dict)
