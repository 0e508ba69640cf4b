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

from .dataset import MISSING_CODE, CategoricalTable, Schema, read_json, write_json

SEPARATION_COEF_LIMIT = 30.0


@dataclass(frozen=True)
class EncodingSpec:
    """Dummy coding of the categorical block into a feature vector.

    Per variable, indicators for every modality except the last (the
    reference); the reference modality and missing cells both encode as an
    all-zero block, so an unknown cell contributes nothing to any score.
    """

    variables: tuple[str, ...]
    modalities: tuple[tuple[str, ...], ...]
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self, "modalities", tuple(tuple(m) for m in self.modalities)
        )
        if len(self.variables) != len(self.modalities):
            raise ValueError("one modality list per variable required")
        for name, mods in zip(self.variables, self.modalities):
            if len(mods) < 2:
                raise ValueError(f"variable {name!r} needs >= 2 modalities")

    @classmethod
    def from_schema(cls, schema: Schema, intercept: bool = True) -> "EncodingSpec":
        return cls(
            variables=schema.categorical_names,
            modalities=tuple(mods for _, mods in schema.categorical_vars),
            intercept=intercept,
        )

    @property
    def width(self) -> int:
        return int(self.intercept) + sum(len(m) - 1 for m in self.modalities)

    @property
    def block_offsets(self) -> tuple[int, ...]:
        offsets = []
        pos = int(self.intercept)
        for mods in self.modalities:
            offsets.append(pos)
            pos += len(mods) - 1
        return tuple(offsets)

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "modalities": [list(m) for m in self.modalities],
            "intercept": self.intercept,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncodingSpec":
        return cls(
            variables=tuple(d["variables"]),
            modalities=tuple(tuple(m) for m in d["modalities"]),
            intercept=bool(d["intercept"]),
        )


def encode_rows(rows: CategoricalTable | np.ndarray, spec: EncodingSpec) -> np.ndarray:
    """(N, d) feature matrix, vectorized over rows."""
    codes = rows.codes if isinstance(rows, CategoricalTable) else np.asarray(rows)
    codes = codes.astype(np.int64, copy=False)
    if codes.ndim != 2 or codes.shape[1] != len(spec.variables):
        raise ValueError("rows must be N x l with one column per variable")
    n = codes.shape[0]
    design = np.zeros((n, spec.width))
    if spec.intercept:
        design[:, 0] = 1.0
    for j, (offset, mods) in enumerate(zip(spec.block_offsets, spec.modalities)):
        col = codes[:, j]
        bad = (col != MISSING_CODE) & ((col < 0) | (col >= len(mods)))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"row {row + 1}, variable {spec.variables[j]!r}: "
                f"modality index {col[row]} out of range"
            )
        for mod in range(len(mods) - 1):
            design[:, offset + mod] = col == mod
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
    """K classes, reference class K-1, beta of shape (K-1, width)."""

    k: int
    beta: np.ndarray
    encoding: EncodingSpec
    diagnostics: FitDiagnostics

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        if self.k < 2:
            raise ValueError("need at least two classes")
        if beta.shape != (self.k - 1, self.encoding.width):
            raise ValueError(
                f"beta must be ({self.k - 1}, {self.encoding.width}), got {beta.shape}"
            )
        if not np.isfinite(beta).all():
            raise ValueError("coefficients must be finite")
        beta = beta.copy()
        beta.flags.writeable = False
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
    """Hessian of the penalized log-likelihood over the stacked coefficients."""
    d = design.shape[1]
    h = np.zeros(((k - 1) * d, (k - 1) * d))
    for a in range(k - 1):
        for b in range(a, k - 1):
            w = probs[:, a] * ((1.0 if a == b else 0.0) - probs[:, b])
            block = -(design * w[:, None]).T @ design
            h[a * d : (a + 1) * d, b * d : (b + 1) * d] = block
            if a != b:
                h[b * d : (b + 1) * d, a * d : (a + 1) * d] = block
    if ridge:
        h -= ridge * np.eye((k - 1) * d)
    return h


class _RefitWithRidge(Exception):
    pass


def _newton(
    design: np.ndarray,
    labels: np.ndarray,
    k: int,
    tol: float,
    max_iter: int,
    ridge: float,
) -> tuple[np.ndarray, FitDiagnostics]:
    d = design.shape[1]
    beta = np.zeros((k - 1, d))
    ll, grad, probs = _loglik_grad(beta, design, labels, k, ridge)
    trace = [ll]
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        gmax = float(np.abs(grad).max())
        if gmax < tol:
            converged = True
            iterations -= 1
            break
        hess = _hessian(design, probs, k, ridge)
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            raise _RefitWithRidge from None
        step = step.reshape(k - 1, d)
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
                # stalled line search: treat like a numeric failure
                raise _RefitWithRidge
        beta, ll, grad, probs = cand, ll_new, grad_new, probs_new
        trace.append(ll)
        if ridge == 0.0 and float(np.abs(beta).max()) > SEPARATION_COEF_LIMIT:
            # runaway coefficients signal (quasi-)separation
            raise _RefitWithRidge
    else:
        gmax = float(np.abs(grad).max())
        converged = gmax < tol
        iterations = max_iter
    gmax = float(np.abs(grad).max())
    diag = FitDiagnostics(
        log_likelihood=ll,
        gradient_max=gmax,
        iterations=iterations,
        ridge=ridge,
        converged=converged,
        ll_trace=tuple(trace),
    )
    return beta, diag


def fit_logit(
    rows: CategoricalTable | np.ndarray,
    labels: np.ndarray,
    k: int,
    spec: EncodingSpec,
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
    labels = np.asarray(labels, dtype=np.int64)
    design = encode_rows(rows, spec)
    if labels.shape != (design.shape[0],):
        raise ValueError(
            f"{labels.size} labels for {design.shape[0]} rows: "
            "need exactly one label per row"
        )
    if labels.size == 0:
        raise ValueError("no rows to fit")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    present = np.bincount(labels, minlength=k) > 0
    if not present.all():
        missing = np.flatnonzero(~present)
        raise ValueError(f"classes absent from labels: {missing.tolist()}")
    try:
        beta, diag = _newton(design, labels, k, tol, max_iter, 0.0)
    except _RefitWithRidge:
        if ridge <= 0.0:
            raise ValueError(
                "fit failed (singular Hessian or separated data) and the "
                "ridge fallback is disabled"
            ) from None
        try:
            beta, diag = _newton(design, labels, k, tol, max_iter, ridge)
        except _RefitWithRidge:
            raise ValueError(
                "fit failed even with the ridge penalty; data may be degenerate"
            ) from None
    if not diag.converged:
        warnings.warn(
            f"logit fit did not converge in {diag.iterations} iterations "
            f"(|grad|={diag.gradient_max:.3g}, ridge={diag.ridge:g})",
            RuntimeWarning,
            stacklevel=2,
        )
    return LogitModel(k=k, beta=beta, encoding=spec, diagnostics=diag)


def log_likelihood(
    m: LogitModel, rows: CategoricalTable | np.ndarray, labels: np.ndarray
) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= m.k):
        raise ValueError(f"labels must lie in [0, {m.k})")
    design = encode_rows(rows, m.encoding)
    ll, _, _ = _loglik_grad(m.beta, design, labels, m.k, 0.0)
    return ll


def predict_proba_rows(m: LogitModel, rows: CategoricalTable | np.ndarray) -> np.ndarray:
    design = encode_rows(rows, m.encoding)
    return _probabilities(design @ m.beta.T)


def model_to_dict(m: LogitModel) -> dict:
    return {
        "version": 1,
        "classes": m.k,
        "reference_class": m.reference_class,
        "encoding": m.encoding.to_dict(),
        "beta": m.beta.tolist(),
        "diagnostics": m.diagnostics.to_dict(),
    }


def model_from_dict(d: dict) -> LogitModel:
    if d.get("version") != 1:
        raise ValueError(f"unsupported model version {d.get('version')!r}")
    diag = d["diagnostics"]
    return LogitModel(
        k=int(d["classes"]),
        beta=np.asarray(d["beta"], dtype=np.float64),
        encoding=EncodingSpec.from_dict(d["encoding"]),
        diagnostics=FitDiagnostics(
            log_likelihood=float(diag["log_likelihood"]),
            gradient_max=float(diag["gradient_max"]),
            iterations=int(diag["iterations"]),
            ridge=float(diag["ridge"]),
            converged=bool(diag["converged"]),
        ),
    )


def save_model(m: LogitModel, path) -> None:
    write_json(path, model_to_dict(m))


def load_model(path) -> LogitModel:
    return read_json(path, model_from_dict)
