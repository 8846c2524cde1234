"""Multiple-marginal-models inference: score stacking, max-type adjusted
p-values and simultaneous confidence intervals.

``stack`` combines fitted marginal models into one joint object.  The
empirical covariance of the stacked per-subject score contributions
estimates the covariance of the coefficient estimates; its correlation
matrix ``C_hat`` drives every adjusted quantity.  Excluded subjects carry
exact-zero score rows, so disjoint subgroups produce exactly-zero empirical
cross products and nested subgroups produce the analytic overlap
correlation.

Four df modes interpret the reference distribution of the stacked
statistics:

* ``normal``: multivariate normal with correlation C_hat;
* ``dfmin`` / ``dfmax``: multivariate t with the smallest / largest
  residual df across models;
* ``dfind``: each statistic keeps its own marginal t distribution and is
  mapped to the normal scale through it (normal-copula construction); the
  joint law on that scale is multivariate normal with correlation C_hat.

``max_type_rejects`` is the yes/no form of the two-sided max-type test that
the simulation study asks once per replicate and variant.  With p1 the
closed-form tail of one coordinate, p1 <= p_mmm <= dim * p1 holds exactly,
so it integrates only when alpha lies between those bounds.

The unadjusted and Bonferroni baselines live here too; each marginal model
is tested against its own reference (Student t for gaussian models, normal
for logit models).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import DegenerateVariance, MismatchedSubjectAxis
from .linmodels import MarginalModel
from .mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    mv_rect_prob,
    equicoordinate_quantile,
)

__all__ = [
    "DF_MODES",
    "MmmFit",
    "stack",
    "joint_scale",
    "max_type_p",
    "max_type_rejects",
    "adjusted_p",
    "simultaneous_ci",
    "unadjusted_p",
    "bonferroni_p",
    "unadjusted_ci",
    "bonferroni_ci",
]

DF_MODES = ("normal", "dfmin", "dfmax", "dfind")
ALTERNATIVES = ("two-sided", "greater", "less")

_PCLIP = 1e-16


@dataclass(frozen=True)
class MmmFit:
    """Stacked marginal models with their estimated joint correlation."""

    models: tuple[MarginalModel, ...]
    sigma_hat: np.ndarray = field(repr=False)
    c_hat: CorrelationMatrix
    statistics: np.ndarray
    per_model_df: np.ndarray
    df_mode: str

    @property
    def dim(self) -> int:
        return len(self.models)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.spec.label for m in self.models)


def _check_alternative(alternative):
    if alternative not in ALTERNATIVES:
        raise ValueError(
            f"alternative must be one of {ALTERNATIVES}, got {alternative!r}"
        )


def stack(models, df_mode: str = "normal") -> MmmFit:
    """Stack marginal models and estimate their joint correlation.

    ``Sigma_hat`` is the empirical covariance (1/N normalization) of the
    per-subject score contributions over the shared subject axis; ``C_hat``
    is its correlation matrix.
    """
    models = tuple(models)
    if not models:
        raise ValueError("need at least one model to stack")
    if df_mode not in DF_MODES:
        raise ValueError(f"df_mode must be one of {DF_MODES}, got {df_mode!r}")
    sizes = {m.score_contributions.shape[0] for m in models}
    if len(sizes) != 1:
        raise MismatchedSubjectAxis(
            f"models disagree on the subject axis length: {sorted(sizes)}"
        )
    n = sizes.pop()
    psi = np.column_stack([m.score_contributions for m in models])
    sigma = psi.T @ psi / n
    var = np.diag(sigma)
    if np.any(var <= 0.0):
        bad = [models[k].spec.label for k in np.flatnonzero(var <= 0.0)]
        raise DegenerateVariance(f"zero score variance in models {bad}")
    scale = 1.0 / np.sqrt(var)
    c_hat = CorrelationMatrix(sigma * np.outer(scale, scale))
    sigma.flags.writeable = False
    stats = np.array([m.coefficient / m.standard_error for m in models])
    stats.flags.writeable = False
    dfs = np.array([m.residual_df for m in models])
    dfs.flags.writeable = False
    return MmmFit(
        models=models,
        sigma_hat=sigma,
        c_hat=c_hat,
        statistics=stats,
        per_model_df=dfs,
        df_mode=df_mode,
    )


def _to_normal_scale(stats, dfs):
    """Per-coordinate t -> z transform, z_r = ndtri(F_t(df_r, t_r)).

    Evaluated through the negative tail so extreme statistics keep their
    relative precision instead of saturating the CDF at 1.
    """
    tail = stdtr(dfs, -np.abs(stats))
    z = -ndtri(np.clip(tail, _PCLIP, 1.0 - _PCLIP))
    return np.sign(stats) * z


def joint_scale(statistics, per_model_df, df_mode: str):
    """Statistics and scalar df on the scale the joint law is evaluated.

    Returns ``(statistics, df)`` where ``df`` is None for a multivariate
    normal reference; ``dfind`` maps each statistic through its own
    marginal t distribution onto the normal scale.
    """
    if df_mode not in DF_MODES:
        raise ValueError(f"df_mode must be one of {DF_MODES}, got {df_mode!r}")
    statistics = np.asarray(statistics, dtype=float)
    per_model_df = np.asarray(per_model_df)
    if df_mode == "normal":
        return statistics, None
    if df_mode == "dfmin":
        return statistics, int(per_model_df.min())
    if df_mode == "dfmax":
        return statistics, int(per_model_df.max())
    return _to_normal_scale(statistics, per_model_df), None


def _joint_scale(fit: MmmFit):
    return joint_scale(fit.statistics, fit.per_model_df, fit.df_mode)


def max_type_p(
    corr: CorrelationMatrix,
    statistics,
    alternative: str = "two-sided",
    df: int | None = None,
    settings: QuadratureSettings = QuadratureSettings(),
) -> np.ndarray:
    """Single-step max-type adjusted p-values for correlated statistics.

    For each hypothesis the rectangle probability at its own statistic is
    evaluated under the joint reference law (multivariate normal, or t
    when ``df`` is given), so p_r is the probability that at least one
    statistic is as extreme as statistic r.
    """
    _check_alternative(alternative)
    stats = np.asarray(statistics, dtype=float)
    r = stats.size
    out = np.empty(r)
    inf = np.full(r, np.inf)
    for k in range(r):
        t = stats[k]
        if alternative == "two-sided":
            b = abs(t)
            if b <= 0.0:
                out[k] = 1.0
                continue
            lower, upper = np.full(r, -b), np.full(r, b)
        elif alternative == "greater":
            lower, upper = -inf, np.full(r, t)
        else:
            lower, upper = np.full(r, t), inf
        rect = mv_rect_prob(corr, lower, upper, df=df, settings=settings)
        out[k] = min(max(1.0 - rect.value, 0.0), 1.0)
    return out


def max_type_rejects(
    corr: CorrelationMatrix,
    b: float,
    df: int | None = None,
    alpha: float = 0.05,
    settings: QuadratureSettings = QuadratureSettings(),
) -> bool:
    """Whether the two-sided max-type p-value at box edge ``b`` is <= alpha.

    The p-value is 1 - P(-b <= X_r <= b for all r) under the joint law of
    ``max_type_p``.  Every coordinate shares one marginal law, so with p1 =
    2 * P(X_1 < -b) (normal when ``df`` is None, else Student t) the bounds
    p1 <= p <= dim * p1 are exact: the test rejects when dim * p1 <= alpha
    and accepts when p1 > alpha without any quadrature.  In between, the
    rectangle is screened at five times the settings' target error, and a
    screened p-value within its reported error (or twice the target) of
    alpha is evaluated again at ``settings``.
    """
    p1 = 2.0 * (ndtr(-b) if df is None else stdtr(df, -b))
    if corr.dim * p1 <= alpha:
        return True
    if p1 > alpha:
        return False
    lower, upper = np.full(corr.dim, -b), np.full(corr.dim, b)
    screen = replace(settings, target_abs_error=5.0 * settings.target_abs_error)
    rect = mv_rect_prob(corr, lower, upper, df=df, settings=screen)
    p = 1.0 - rect.value
    if abs(p - alpha) <= max(rect.error, 2.0 * settings.target_abs_error):
        rect = mv_rect_prob(corr, lower, upper, df=df, settings=settings)
        p = 1.0 - rect.value
    return p <= alpha


def adjusted_p(
    fit: MmmFit,
    alternative: str = "two-sided",
    settings: QuadratureSettings = QuadratureSettings(),
) -> np.ndarray:
    """Max-type adjusted p-values under C_hat and the fit's df mode."""
    stats, df = _joint_scale(fit)
    return max_type_p(fit.c_hat, stats, alternative, df, settings)


def critical_values(
    fit: MmmFit,
    alpha: float,
    alternative: str = "two-sided",
    settings: QuadratureSettings = QuadratureSettings(),
) -> np.ndarray:
    """Per-hypothesis critical values on each statistic's own t/z scale."""
    _check_alternative(alternative)
    tail = "two-sided" if alternative == "two-sided" else "one-sided"
    _, df = _joint_scale(fit)
    c = equicoordinate_quantile(fit.c_hat, alpha, tail=tail, df=df, settings=settings)
    if fit.df_mode == "dfind":
        return stdtrit(fit.per_model_df, np.clip(ndtr(c), _PCLIP, 1.0 - _PCLIP))
    return np.full(fit.dim, c)


def simultaneous_ci(
    fit: MmmFit,
    alpha: float = 0.05,
    alternative: str = "two-sided",
    settings: QuadratureSettings = QuadratureSettings(),
):
    """Simultaneous confidence bounds, estimate_r -/+ c_r x SE_r.

    Returns ``(lower, upper)`` arrays on the coefficient scale; the unused
    side of a one-sided interval is infinite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    crit = critical_values(fit, alpha, alternative, settings)
    est = np.array([m.coefficient for m in fit.models])
    se = np.array([m.standard_error for m in fit.models])
    if alternative == "two-sided":
        return est - crit * se, est + crit * se
    if alternative == "greater":
        return est - crit * se, np.full(fit.dim, np.inf)
    return np.full(fit.dim, -np.inf), est + crit * se


# ---------------------------------------------------------------------------
# baseline procedures: no adjustment and Bonferroni

def _marginal_sf(models, stats):
    """Upper-tail probability of each statistic under its own marginal law:
    Student t with the residual df for gaussian models, normal for logit."""
    out = np.empty(len(models))
    for k, m in enumerate(models):
        if m.spec.family == "gaussian-identity":
            out[k] = stdtr(m.residual_df, -stats[k])
        else:
            out[k] = ndtr(-stats[k])
    return out


def unadjusted_p(models, alternative: str = "two-sided") -> np.ndarray:
    """Per-model marginal p-values with no multiplicity adjustment."""
    _check_alternative(alternative)
    models = tuple(models)
    stats = np.array([m.coefficient / m.standard_error for m in models])
    if alternative == "two-sided":
        return 2.0 * _marginal_sf(models, np.abs(stats))
    if alternative == "greater":
        return _marginal_sf(models, stats)
    return _marginal_sf(models, -stats)


def bonferroni_p(models, alternative: str = "two-sided") -> np.ndarray:
    """Bonferroni-adjusted marginal p-values, min(1, R x p)."""
    models = tuple(models)
    return np.minimum(1.0, len(models) * unadjusted_p(models, alternative))


def _marginal_quantile(model, p):
    if model.spec.family == "gaussian-identity":
        return float(stdtrit(model.residual_df, p))
    return float(ndtri(p))


def _baseline_ci(models, alpha, alternative):
    models = tuple(models)
    est = np.array([m.coefficient for m in models])
    se = np.array([m.standard_error for m in models])
    level = 1.0 - (alpha / 2.0 if alternative == "two-sided" else alpha)
    crit = np.array([_marginal_quantile(m, level) for m in models])
    if alternative == "two-sided":
        return est - crit * se, est + crit * se
    if alternative == "greater":
        return est - crit * se, np.full(len(models), np.inf)
    return np.full(len(models), -np.inf), est + crit * se


def unadjusted_ci(models, alpha: float = 0.05, alternative: str = "two-sided"):
    """Per-model marginal confidence bounds with no adjustment."""
    _check_alternative(alternative)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return _baseline_ci(models, alpha, alternative)


def bonferroni_ci(models, alpha: float = 0.05, alternative: str = "two-sided"):
    """Bonferroni simultaneous bounds: marginal intervals at alpha / R."""
    _check_alternative(alternative)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    models = tuple(models)
    return _baseline_ci(models, alpha / len(models), alternative)
