"""Marginal regression models with per-subject score contributions.

Each marginal model regresses one endpoint on the treatment factor, either
over all subjects or restricted to one subgroup.  Subjects outside the
subset (or with a missing response) do not enter the fit but keep an
exact-zero row in ``score_contributions``, so every model in a stack shares
one subject axis; the empirical covariance of those stacked contributions
is what estimates the joint correlation of the test statistics.

Both families fit in closed form, since treatment is the only covariate:
a difference of arm means, or a log cross-product ratio.  The score
contribution of a subject is its influence-function value for the treatment
coefficient: information-inverse times the per-observation
estimating-function value, evaluated at the fitted estimate.  Contributions
sum to zero because the estimating equation is solved exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DegenerateSubset, SchemaError, Separation, ZeroVariance

__all__ = [
    "Dataset",
    "ModelSpec",
    "MarginalModel",
    "fit_ols",
    "fit_ols_batch",
    "fit_logit",
    "fit",
    "read_dataset",
]

FAMILIES = ("gaussian-identity", "binomial-logit")


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.flags.writeable = False
    return a


class Dataset:
    """Immutable per-subject trial data on a shared subject axis.

    ``treatment`` is binary with ``treatment_levels[0]`` as the reference
    level (coded 0) and ``treatment_levels[1]`` as the test level (coded 1);
    the reported effect of every model is test minus reference.  Subgroup
    flags and responses are float arrays where NaN marks a missing value;
    flags must otherwise be 0 or 1.
    """

    __slots__ = ("n", "treatment", "treatment_levels", "subgroups", "responses")

    def __init__(self, treatment, treatment_levels, subgroups, responses):
        trt = np.asarray(treatment)
        if trt.ndim != 1 or trt.size == 0:
            raise SchemaError("treatment must be a non-empty 1-d array")
        if not np.isin(trt, (0, 1)).all():
            raise SchemaError("treatment codes must be 0 (reference) or 1 (test)")
        levels = tuple(str(x) for x in treatment_levels)
        if len(levels) != 2 or levels[0] == levels[1]:
            raise SchemaError(f"need two distinct treatment levels, got {levels}")
        if not (np.any(trt == 0) and np.any(trt == 1)):
            raise SchemaError("both treatment levels need at least one subject")
        self.n = trt.size
        self.treatment = trt.astype(np.int8)
        self.treatment.flags.writeable = False
        self.treatment_levels = levels
        self.subgroups = MappingProxyType(
            {str(k): self._check_flags(k, v) for k, v in dict(subgroups).items()}
        )
        self.responses = MappingProxyType(
            {str(k): self._check_response(k, v) for k, v in dict(responses).items()}
        )

    def _check_flags(self, name, values):
        a = np.asarray(values, dtype=float)
        if a.shape != (self.n,):
            raise SchemaError(f"subgroup {name!r} has shape {a.shape}, want ({self.n},)")
        seen = a[~np.isnan(a)]
        if not np.isin(seen, (0.0, 1.0)).all():
            raise SchemaError(f"subgroup {name!r} has flags outside {{0, 1}}")
        return _frozen(a)

    def _check_response(self, name, values):
        a = np.asarray(values, dtype=float)
        if a.shape != (self.n,):
            raise SchemaError(f"response {name!r} has shape {a.shape}, want ({self.n},)")
        if np.isinf(a).any():
            raise SchemaError(f"response {name!r} has non-finite values")
        return _frozen(a)

    def subset_mask(self, subset: str) -> np.ndarray:
        """Boolean membership mask for ``subset`` ("all" or a subgroup name)."""
        if subset == "all":
            return np.ones(self.n, dtype=bool)
        if subset not in self.subgroups:
            raise SchemaError(f"unknown subgroup {subset!r}")
        return self.subgroups[subset] == 1.0

    def __repr__(self):
        return (
            f"Dataset(n={self.n}, levels={self.treatment_levels}, "
            f"subgroups={list(self.subgroups)}, responses={list(self.responses)})"
        )


@dataclass(frozen=True)
class ModelSpec:
    """One marginal model: endpoint, subset and family."""

    endpoint: str
    subset: str = "all"
    family: str = "gaussian-identity"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SchemaError(f"family must be one of {FAMILIES}, got {self.family!r}")

    @property
    def label(self) -> str:
        return f"{self.subset}:{self.endpoint}"


@dataclass(frozen=True)
class MarginalModel:
    """Fitted marginal model with its influence (score) contributions.

    ``coefficient`` is the treatment effect on the linear-predictor scale:
    a mean difference for gaussian models, a log odds ratio for logit
    models, always test level minus reference level.
    """

    spec: ModelSpec
    coefficient: float
    standard_error: float
    n_used: int
    residual_df: int
    score_contributions: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "score_contributions", _frozen(self.score_contributions))

    @property
    def statistic(self) -> float:
        """Treatment test statistic, coefficient over standard error."""
        return self.coefficient / self.standard_error


def _used(data: Dataset, spec: ModelSpec):
    """Responses of the model's endpoint and the mask of subjects it uses."""
    y = data.responses.get(spec.endpoint)
    if y is None:
        raise SchemaError(f"unknown endpoint {spec.endpoint!r}")
    return y, data.subset_mask(spec.subset) & ~np.isnan(y)


def fit_ols_batch(y, treatment, used, labels):
    """Gaussian-identity fits of a stack of models on one subject axis.

    ``y`` (..., m, n) holds each model's responses, ``used`` (broadcast
    against ``y``) marks the subjects each fit uses, ``treatment`` (n,)
    codes subjects 0 (reference) or 1 (test) and ``labels`` name the m
    models in errors.  Each fit is the difference of treatment means with
    the pooled-variance standard error.  Returns ``(coefficient,
    standard_error, residual_df, scores)``: the first three of shape
    (..., m), the score contributions (..., m, n), zero outside ``used``.
    """
    test = np.asarray(treatment) == 1
    used1 = used & test
    used0 = used & ~test
    n1 = used1.sum(axis=-1)
    n0 = used0.sum(axis=-1)
    thin = (n0 < 2) | (n1 < 2)
    if thin.any():
        at = np.unravel_index(np.argmax(thin), thin.shape)
        raise DegenerateSubset(
            f"model {labels[at[-1]]!r} needs 2 subjects per arm, has {n0[at]} and {n1[at]}"
        )
    mean1 = np.where(used1, y, 0.0).sum(axis=-1) / n1
    mean0 = np.where(used0, y, 0.0).sum(axis=-1) / n0
    fitted = np.where(test, mean1[..., None], mean0[..., None])
    resid = np.where(used, y - fitted, 0.0)
    rss = (resid * resid).sum(axis=-1)
    flat = rss <= 0.0
    if flat.any():
        at = np.unravel_index(np.argmax(flat), flat.shape)
        raise ZeroVariance(f"model {labels[at[-1]]!r} has zero residual variance")
    n = n0 + n1
    se = np.sqrt(rss / (n - 2) * (1.0 / n0 + 1.0 / n1))
    # influence for the slope of [1, x]: (x_i - x_bar) * resid_i / Sxx
    xbar = n1 / n
    sxx = n1 * (1.0 - xbar) ** 2 + n0 * xbar**2
    scores = (test - xbar[..., None]) * resid / sxx[..., None]
    return mean1 - mean0, se, np.broadcast_to(n - 2, se.shape), scores


def fit_ols(data: Dataset, spec: ModelSpec) -> MarginalModel:
    """Gaussian-identity fit: difference of treatment means with pooled SE.

    The one-model case of :func:`fit_ols_batch`.
    """
    if spec.family != "gaussian-identity":
        raise SchemaError(f"fit_ols expects gaussian-identity, got {spec.family!r}")
    y, used = _used(data, spec)
    coef, se, df, scores = fit_ols_batch(y[None], data.treatment, used[None], (spec.label,))
    return MarginalModel(
        spec=spec,
        coefficient=float(coef[0]),
        standard_error=float(se[0]),
        n_used=int(used.sum()),
        residual_df=int(df[0]),
        score_contributions=scores[0],
    )


def fit_logit(data: Dataset, spec: ModelSpec) -> MarginalModel:
    """Binomial-logit fit of the saturated two-arm model, in closed form.

    With p_k the event proportion of arm k and W_k = n_k p_k (1 - p_k) its
    Fisher information, the MLE is the log cross-product ratio logit(p_1) -
    logit(p_0) and its standard error Woolf's sqrt(1/W_0 + 1/W_1).  The
    score contribution is (y - p_1)/W_1 in the test arm and -(y - p_0)/W_0
    in the reference arm: the influence form of :func:`fit_ols_batch` with
    W_k in place of n_k.
    """
    if spec.family != "binomial-logit":
        raise SchemaError(f"fit_logit expects binomial-logit, got {spec.family!r}")
    y, used = _used(data, spec)
    idx = np.flatnonzero(used)
    test, y = data.treatment[idx] == 1, y[idx]
    if not np.isin(y, (0.0, 1.0)).all():
        raise SchemaError(f"endpoint {spec.endpoint!r} is not binary in {spec.label!r}")
    if test.all() or not test.any():
        raise DegenerateSubset(f"model {spec.label!r} has an empty treatment arm")
    fits = []
    for arm, label in ((y[~test], "reference"), (y[test], "test")):
        if arm.min() == arm.max():
            raise Separation(
                f"model {spec.label!r}: {label} arm responses are all "
                f"{int(arm[0])}, the log odds ratio is infinite"
            )
        p = arm.mean()
        fits.append((p, arm.size * p * (1.0 - p)))
    (p0, w0), (p1, w1) = fits
    scores = np.zeros(data.n)
    scores[idx] = np.where(test, (y - p1) / w1, -(y - p0) / w0)
    return MarginalModel(
        spec=spec,
        coefficient=math.log(p1 / (1.0 - p1)) - math.log(p0 / (1.0 - p0)),
        standard_error=math.sqrt(1.0 / w0 + 1.0 / w1),
        n_used=idx.size,
        residual_df=idx.size - 2,
        score_contributions=scores,
    )


def fit(data: Dataset, spec: ModelSpec) -> MarginalModel:
    """Dispatch to :func:`fit_ols` or :func:`fit_logit` by family."""
    if spec.family == "gaussian-identity":
        return fit_ols(data, spec)
    return fit_logit(data, spec)


def read_dataset(
    source,
    subgroup_columns=(),
    reference_level: str | None = None,
) -> Dataset:
    """Read a Dataset from CSV: one row per subject.

    Expected columns are ``id``, ``treatment``, then any mix of subgroup
    flags and endpoints; ``subgroup_columns`` names the flag columns and
    every other column is an endpoint.  Empty cells are missing values.
    ``id`` must be unique and contiguous from its minimum; rows may appear
    in any order.  ``reference_level`` picks the treatment level coded 0
    (default: the lexicographically smaller level).
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as handle:
            rows = list(csv.DictReader(handle))
    else:
        rows = list(csv.DictReader(source))
    if not rows:
        raise SchemaError("dataset CSV has no rows")
    header = list(rows[0].keys())
    for required in ("id", "treatment"):
        if required not in header:
            raise SchemaError(f"dataset CSV is missing the {required!r} column")
    missing = [c for c in subgroup_columns if c not in header]
    if missing:
        raise SchemaError(f"subgroup columns not in CSV: {missing}")
    value_cols = [c for c in header if c not in ("id", "treatment")]
    endpoint_cols = [c for c in value_cols if c not in set(subgroup_columns)]
    if not endpoint_cols:
        raise SchemaError("dataset CSV has no endpoint columns")

    try:
        ids = np.array([int(r["id"]) for r in rows])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"non-integer id: {exc}") from None
    if np.unique(ids).size != ids.size:
        raise SchemaError("duplicate subject ids")
    if ids.max() - ids.min() + 1 != ids.size:
        raise SchemaError("subject ids must be contiguous")
    order = np.argsort(ids)
    rows = [rows[k] for k in order]

    levels = sorted({r["treatment"] for r in rows})
    if len(levels) != 2:
        raise SchemaError(f"need exactly 2 treatment levels, got {levels}")
    if reference_level is not None:
        if reference_level not in levels:
            raise SchemaError(
                f"reference level {reference_level!r} not among treatment levels {levels}"
            )
        levels = [reference_level] + [x for x in levels if x != reference_level]
    trt = np.array([levels.index(r["treatment"]) for r in rows])

    def column(name):
        out = np.empty(len(rows))
        for i, r in enumerate(rows):
            cell = (r[name] or "").strip()
            try:
                out[i] = float(cell) if cell else np.nan
            except ValueError:
                raise SchemaError(f"non-numeric value {cell!r} in column {name!r}") from None
        return out

    return Dataset(
        treatment=trt,
        treatment_levels=levels,
        subgroups={c: column(c) for c in subgroup_columns},
        responses={c: column(c) for c in endpoint_cols},
    )
