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

from .dataset import MISSING_CODE, CategoricalTable, read_json, write_json
from .dataset import checked_labels, checked_layout, json_field, read_only

SEPARATION_COEF_LIMIT = 30.0
_BLOCK_ROWS = 256  # rows per block of the Hessian accumulation


def design_width(categorical_vars) -> int:
    """Columns of the design: the intercept plus one per non-reference modality."""
    return 1 + sum(len(mods) - 1 for _, mods in categorical_vars)


def encode_rows(rows: CategoricalTable | np.ndarray, categorical_vars) -> np.ndarray:
    """(N, d) design matrix over the ``(name, modalities)`` layout.

    An intercept column, then per variable indicators for every modality
    except the last (the reference); the reference modality and missing
    cells both encode as an all-zero block, so an unknown cell contributes
    nothing to any score.
    """
    codes = rows.codes if isinstance(rows, CategoricalTable) else np.asarray(rows)
    codes = codes.astype(np.int64, copy=False)
    if codes.ndim != 2 or codes.shape[1] != len(categorical_vars):
        raise ValueError("rows must be N x l with one column per variable")
    design = np.zeros((codes.shape[0], design_width(categorical_vars)))
    design[:, 0] = 1.0
    offset = 1
    for j, (name, mods) in enumerate(categorical_vars):
        col = codes[:, j]
        bad = (col != MISSING_CODE) & ((col < 0) | (col >= len(mods)))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"row {row + 1}, variable {name!r}: "
                f"modality index {col[row]} out of range"
            )
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
    beta: np.ndarray, design: np.ndarray, labels: np.ndarray, k: int, ridge: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Penalized log-likelihood, its gradient over the stacked coefficients,
    and the per-row probability matrix."""
    probs = _probabilities(design @ beta.T)
    picked = probs[np.arange(labels.shape[0]), labels]
    with np.errstate(divide="ignore"):
        ll = float(np.log(picked).sum())
    onehot = np.zeros((labels.shape[0], k - 1))
    mask = labels < k - 1
    onehot[np.flatnonzero(mask), labels[mask]] = 1.0
    grad = (onehot - probs[:, : k - 1]).T @ design
    if ridge:
        ll -= 0.5 * ridge * float((beta * beta).sum())
        grad = grad - ridge * beta
    return ll, grad.ravel(), probs


def _hessian(
    design: np.ndarray, probs: np.ndarray, k: int, ridge: float
) -> np.ndarray:
    """Hessian of the penalized log-likelihood over the stacked coefficients.

    With A = [X p_1 | ... | X p_{K-1}] (each row of X scaled by one class
    probability), H = A'A - blockdiag(X'A) - ridge I.  A'A and X'A are
    accumulated over blocks of _BLOCK_ROWS rows, so the temporaries do not
    grow with the number of rows.
    """
    n, d = design.shape
    m = (k - 1) * d
    h = np.zeros((m, m))
    xta = np.zeros((d, m))
    for start in range(0, n, _BLOCK_ROWS):
        x = design[start : start + _BLOCK_ROWS]
        p = probs[start : start + _BLOCK_ROWS, : k - 1]
        a = (p[:, :, None] * x[:, None, :]).reshape(x.shape[0], m)
        h += a.T @ a
        xta += x.T @ a
    for c in range(k - 1):
        block = slice(c * d, (c + 1) * d)
        h[block, block] -= xta[:, block]
    if ridge:
        h -= ridge * np.eye(m)
    return h


def _newton(
    design: np.ndarray,
    labels: np.ndarray,
    k: int,
    tol: float,
    max_iter: int,
    ridge: float,
) -> tuple[np.ndarray, FitDiagnostics] | None:
    """Newton-Raphson with step halving from a zero start; None on a
    singular Hessian, a stalled line search or, without ridge, coefficients
    running past the separation limit."""
    d = design.shape[1]
    beta = np.zeros((k - 1, d))
    ll, grad, probs = _loglik_grad(beta, design, labels, k, ridge)
    trace = [ll]
    gmax = float(np.abs(grad).max())
    for _ in range(max_iter):
        if gmax < tol:
            break
        hess = _hessian(design, probs, k, ridge)
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
            ll_new, grad_new, probs_new = _loglik_grad(cand, design, labels, k, ridge)
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

    The first pass is unpenalized; a singular Hessian, a stalled line
    search or coefficients running past +-30 (quasi-separation) trigger one
    refit with the L2 penalty ``ridge``, recorded in the diagnostics.
    Non-convergence after the fallback is warned about, and the model is
    still returned with its diagnostics.
    """
    design = encode_rows(rows, categorical_vars)
    labels = checked_labels(labels, design.shape[0], k)
    if labels.size == 0:
        raise ValueError("no rows to fit")
    present = np.bincount(labels, minlength=k) > 0
    if not present.all():
        missing = np.flatnonzero(~present)
        raise ValueError(f"classes absent from labels: {missing.tolist()}")
    fit = _newton(design, labels, k, tol, max_iter, 0.0)
    if fit is None:
        if ridge <= 0.0:
            raise ValueError(
                "fit failed (singular Hessian or separated data) and the "
                "ridge fallback is disabled"
            )
        fit = _newton(design, labels, k, tol, max_iter, ridge)
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
    ll, _, _ = _loglik_grad(m.beta, design, labels, m.k, 0.0)
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
    if d.get("version") != 1:
        raise ValueError(f"unsupported model version {d.get('version')!r}")
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
