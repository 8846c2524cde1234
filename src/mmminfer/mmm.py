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
the simulation study asks per replicate and variant.  It climbs a ladder
of three rungs and stops at the first that settles the decision:

1. first-order bounds: with p1 the closed-form tail of one coordinate,
   p1 <= p_mmm <= dim * p1 holds exactly;
2. pairwise bounds, from dimension 4 on (where the rectangle would need
   QMC): the Hunter-Worsley upper bound and the larger of the
   Dawson-Sankoff and best-pair lower bounds, built from the bivariate
   probabilities of ``mvdist.pair_exceedance``; a bound settles only where
   it clears alpha by more than the bivariate error accumulated into it;
3. the integrated rectangle probability.

``max_type_bounds`` runs the first two rungs on whole arrays of statistics
and correlation matrices; ``max_type_rejects`` calls it and integrates only
what it leaves open.

The unadjusted and Bonferroni baselines live here too; each marginal model
is tested against its own reference (Student t for gaussian models, normal
for logit models).  ``infer`` reports all three methods side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import DegenerateVariance, MismatchedSubjectAxis
from .linmodels import MarginalModel
from .mvdist import (
    _GL_MAX_DIM,
    _PAIR_LEVELS,
    CorrelationMatrix,
    QuadratureSettings,
    mv_rect_prob,
    pair_exceedance,
    equicoordinate_quantile,
)
from .report import HypothesisRow, InferenceReport, MethodCell

__all__ = [
    "DF_MODES",
    "MmmFit",
    "stack",
    "score_correlation",
    "joint_scale",
    "max_type_p",
    "max_type_rejects",
    "max_type_bounds",
    "adjusted_p",
    "simultaneous_ci",
    "unadjusted_p",
    "bonferroni_p",
    "unadjusted_ci",
    "bonferroni_ci",
    "infer",
]

DF_MODES = ("normal", "dfmin", "dfmax", "dfind")
ALTERNATIVES = ("two-sided", "greater", "less")

_PCLIP = 1e-16

# Largest (replicates, pairs, nodes) array of the pairwise bounds: 2**17
# floats, 1 MiB, as the simulation's replicate blocks.
_PAIR_BLOCK_FLOATS = 2**17


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


def _interval(estimate, half_width, alternative):
    """``(lower, upper)`` = estimate -/+ half_width, elementwise; the unused
    side of a one-sided interval is infinite."""
    if alternative == "two-sided":
        return estimate - half_width, estimate + half_width
    if alternative == "greater":
        return estimate - half_width, np.full(estimate.shape, np.inf)
    return np.full(estimate.shape, -np.inf), estimate + half_width


def score_correlation(psi, labels):
    """``(Sigma_hat, C_hat)`` of stacked score rows ``psi`` of shape (..., m, n).

    ``Sigma_hat`` is the empirical covariance (1/n normalization) of the
    per-subject score contributions over the shared subject axis and
    ``C_hat`` its correlation matrix, both of shape (..., m, m); ``labels``
    name the m models for the error raised on a zero score variance.
    ``C_hat`` is returned unvalidated.
    """
    sigma = np.einsum("...in,...jn->...ij", psi, psi) / psi.shape[-1]
    var = np.diagonal(sigma, axis1=-2, axis2=-1)
    degenerate = (var <= 0.0).reshape(-1, var.shape[-1]).any(axis=0)
    if degenerate.any():
        bad = [labels[k] for k in np.flatnonzero(degenerate)]
        raise DegenerateVariance(f"zero score variance in models {bad}")
    scale = 1.0 / np.sqrt(var)
    return sigma, sigma * (scale[..., :, None] * scale[..., None, :])


def stack(models, df_mode: str = "normal") -> MmmFit:
    """Stack marginal models and estimate their joint correlation.

    ``Sigma_hat`` and ``C_hat`` come from :func:`score_correlation` of the
    models' score contributions.
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
    psi = np.stack([m.score_contributions for m in models])
    sigma, c = score_correlation(psi, [m.spec.label for m in models])
    c_hat = CorrelationMatrix(c)
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
    """Statistics and df on the scale the joint law is evaluated.

    Returns ``(statistics, df)`` where ``df`` is None for a multivariate
    normal reference; ``dfind`` maps each statistic through its own
    marginal t distribution onto the normal scale.  Statistics and dfs of
    shape (..., m) hold a stack per leading index; ``dfmin`` / ``dfmax``
    then give one df per stack, an int for a single stack.
    """
    if df_mode not in DF_MODES:
        raise ValueError(f"df_mode must be one of {DF_MODES}, got {df_mode!r}")
    statistics = np.asarray(statistics, dtype=float)
    per_model_df = np.asarray(per_model_df)
    if df_mode == "normal":
        return statistics, None
    if df_mode == "dfind":
        return _to_normal_scale(statistics, per_model_df), None
    reduce = np.min if df_mode == "dfmin" else np.max
    df = reduce(per_model_df, axis=-1)
    return statistics, int(df) if df.ndim == 0 else df


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
    ``max_type_p``.  Every coordinate shares one marginal law, so the exact
    bounds of :func:`max_type_bounds` settle most decisions without
    integrating the rectangle.  In between, the rectangle is screened at
    five times the settings' target error, and a screened p-value within its
    reported error (or twice the target) of alpha is evaluated again at
    ``settings``.
    """
    rejects, accepts, _ = max_type_bounds(b, df, corr.entries, alpha)
    if rejects:
        return True
    if accepts:
        return False
    lower, upper = np.full(corr.dim, -b), np.full(corr.dim, b)
    screen = replace(settings, target_abs_error=5.0 * settings.target_abs_error)
    rect = mv_rect_prob(corr, lower, upper, df=df, settings=screen)
    p = 1.0 - rect.value
    if abs(p - alpha) <= max(rect.error, 2.0 * settings.target_abs_error):
        rect = mv_rect_prob(corr, lower, upper, df=df, settings=settings)
        p = 1.0 - rect.value
    return bool(p <= alpha)


def max_type_bounds(b, df, c_hat, alpha: float):
    """Decisions of ``max_type_rejects`` that its exact bounds settle.

    ``b`` holds box edges, ``df`` None (normal) or matching dfs (Student t)
    and ``c_hat`` one (m, m) correlation matrix or a matching stack
    (..., m, m).  With A_r = {|X_r| > b} and p1 = P(A_r) in closed form, the
    two-sided max-type p-value p = P(A_1 or ... or A_m) satisfies
    p1 <= p <= m * p1.  From dimension 4 on, decisions these first-order
    bounds leave open get the pairwise bounds, from P(A_i and A_j) of every
    pair (``mvdist.pair_exceedance``):

    * Hunter-Worsley: p <= m * p1 - sum of P(A_i and A_j) over a maximum
      spanning tree of the pairs (Prim's algorithm);
    * Dawson-Sankoff: p >= 2 S1 / (k + 1) - 2 S2 / (k (k + 1)) with
      S1 = m * p1, S2 the sum over all pairs and k = 1 + floor(2 S2 / S1);
    * best pair: p >= max P(A_i or A_j) = 2 p1 - min P(A_i and A_j).

    Each settles a decision only where it clears alpha after the
    bivariate errors it accumulates are added against it.

    Returns ``(rejects, accepts, paired)``, elementwise over the edges:
    p <= alpha, p > alpha, and whether the pairwise bounds made the
    decision.  Where neither ``rejects`` nor ``accepts`` holds, only
    quadrature decides.
    """
    c_hat = np.asarray(c_hat)
    m = c_hat.shape[-1]
    b = np.asarray(b, dtype=float)
    p1 = 2.0 * (ndtr(-b) if df is None else stdtr(df, -b))
    rejects, accepts = m * p1 <= alpha, p1 > alpha
    paired = np.zeros_like(rejects)
    if m <= _GL_MAX_DIM or (rejects | accepts).all():
        return rejects, accepts, paired
    shape = rejects.shape
    rejects, accepts, paired = (a.reshape(-1) for a in (rejects, accepts, paired))
    b, p1 = b.reshape(-1), p1.reshape(-1)
    df = None if df is None else np.broadcast_to(df, shape).reshape(-1)
    c_hat = np.broadcast_to(c_hat, shape + (m, m)).reshape(-1, m, m)
    i, j = np.triu_indices(m, 1)
    chunk = max(1, _PAIR_BLOCK_FLOATS // (len(i) * max(_PAIR_LEVELS)))
    undecided = np.flatnonzero(~(rejects | accepts))
    for start in range(0, len(undecided), chunk):
        rows = undecided[start : start + chunk]
        pair, err = pair_exceedance(
            b[rows, None], c_hat[rows][:, i, j], None if df is None else df[rows, None]
        )
        upper = _hunter_worsley(p1[rows], pair, err, i, j, m)
        lower = _pair_lower(p1[rows], pair, err, m)
        rejects[rows] = upper <= alpha
        accepts[rows] = lower > alpha
        paired[rows] = rejects[rows] | accepts[rows]
    return rejects.reshape(shape), accepts.reshape(shape), paired.reshape(shape)


def _hunter_worsley(p1, pair, err, i, j, m):
    """Hunter-Worsley upper bound plus its accumulated error, per row.

    ``pair`` and ``err`` hold P(A_i and A_j) and its error for the pairs
    (i, j) = ``np.triu_indices(m, 1)``, one row per replicate; the spanning
    tree maximizing the summed pair probabilities is grown with Prim's
    algorithm for every row at once.
    """
    n = len(p1)
    weight, error = np.zeros((2, n, m, m))
    weight[:, i, j] = weight[:, j, i] = pair
    error[:, i, j] = error[:, j, i] = err
    rows = np.arange(n)
    in_tree = np.zeros((n, m), dtype=bool)
    in_tree[:, 0] = True
    best, best_err = weight[:, 0].copy(), error[:, 0].copy()
    tree = np.zeros(n)
    for _ in range(m - 1):
        k = np.where(in_tree, -np.inf, best).argmax(axis=1)
        tree += best[rows, k] - best_err[rows, k]
        in_tree[rows, k] = True
        closer = weight[rows, k] > best
        best = np.where(closer, weight[rows, k], best)
        best_err = np.where(closer, error[rows, k], best_err)
    return m * p1 - tree


def _pair_lower(p1, pair, err, m):
    """Larger of the Dawson-Sankoff and best-pair lower bounds, each less
    its accumulated error, per row (``pair`` and ``err`` as for
    ``_hunter_worsley``); Dawson-Sankoff holds for any integer k >= 1, so k
    may come from the estimated S2."""
    s1, s2 = m * p1, pair.sum(axis=1)
    k = 1.0 + np.floor(2.0 * s2 / s1)
    dawson_sankoff = 2.0 * s1 / (k + 1.0) - 2.0 * (s2 + err.sum(axis=1)) / (k * (k + 1.0))
    rows = np.arange(len(p1))
    worst = pair.argmin(axis=1)
    best_pair = 2.0 * p1 - pair[rows, worst] - err[rows, worst]
    return np.maximum(dawson_sankoff, best_pair)


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
    return _interval(est, crit * se, alternative)


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
    return _interval(est, crit * se, alternative)


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


# ---------------------------------------------------------------------------
# the side-by-side report

def _df_label(df_mode, models):
    if df_mode == "normal":
        return "normal"
    dfs = [m.residual_df for m in models]
    if df_mode == "dfmin":
        return f"t({min(dfs)})"
    if df_mode == "dfmax":
        return f"t({max(dfs)})"
    return "dfind(" + ", ".join(str(d) for d in dfs) + ")"


def infer(
    models,
    title: str,
    alpha: float,
    alternative: str,
    df_mode: str,
    settings: QuadratureSettings,
    group_labels=None,
) -> InferenceReport:
    """Unadjusted, Bonferroni and mmm inference for fitted marginal models.

    One report row per model, in order; logit models are shown on the
    odds-ratio scale.  ``group_labels`` maps a model's subset to the group
    name the report shows (default: the subset itself).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    models = tuple(models)
    fit = stack(models, df_mode=df_mode)
    blocks = (
        ("noadjust", unadjusted_p(models, alternative), unadjusted_ci(models, alpha, alternative)),
        ("bonferroni", bonferroni_p(models, alternative), bonferroni_ci(models, alpha, alternative)),
        ("mmm", adjusted_p(fit, alternative, settings), simultaneous_ci(fit, alpha, alternative, settings)),
    )
    labels = group_labels or {}
    rows = []
    for k, model in enumerate(models):
        cells = {
            name: MethodCell(
                p=float(p[k]),
                ci_lower=float(ci[0][k]),
                ci_upper=float(ci[1][k]),
                rejected=bool(p[k] <= alpha),
            )
            for name, p, ci in blocks
        }
        rows.append(
            HypothesisRow(
                label=model.spec.label,
                group=labels.get(model.spec.subset, model.spec.subset),
                endpoint=model.spec.endpoint,
                estimate=model.coefficient,
                or_scale=model.spec.family == "binomial-logit",
                methods=cells,
            )
        )
    return InferenceReport(
        title=title,
        alpha=alpha,
        alternative=alternative,
        df_mode=_df_label(df_mode, models),
        seed=settings.seed,
        quadrature_error=settings.target_abs_error,
        method_names=("noadjust", "bonferroni", "mmm"),
        rows=tuple(rows),
    )
