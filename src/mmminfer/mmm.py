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

A binomial-logit model's statistic is a Wald z with no residual df: its df
is inf, the normal, in every mode, so ``dfmax`` of a stack holding one, or
``dfmin`` of an all-logit stack, is the multivariate normal.

``max_type_rejects`` is the yes/no form of the two-sided max-type test that
the simulation study asks per replicate and variant, a whole stack of them
in one call.  It climbs a ladder of four rungs (``DECISION_STAGES``) and
stops at the first that settles the decision:

1. first-order bounds: with p1 the closed-form tail of one coordinate,
   p1 <= p_mmm <= dim * p1 holds exactly;
2. pairwise bounds, from dimension 2 on, exact at dimension 2: the
   Hunter-Worsley upper bound and the larger of the Dawson-Sankoff and
   best-pair lower bounds, built from the bivariate probabilities of
   ``mvdist.pair_exceedance``; a bound settles only where it clears alpha
   by more than the bivariate error accumulated into it;
3. triplewise bounds, from dimension 4 on: the cherry-tree upper bound and
   the Boros-Prekopa lower bound, built from the trivariate probabilities
   of ``mvdist.triple_exceedance`` as well, with their errors counted
   against them in the same way;
4. the rectangle probability, integrated once, with ``decide_at`` = 1 - alpha
   (``mv_rect_prob``): it stops as soon as the estimate settles the decision.

``max_type_bounds`` runs the first three rungs on whole arrays of statistics
and correlation matrices; ``max_type_rejects`` calls it and integrates only
what it leaves open.  Under ``dfind`` the first-order upper bound is the
Bonferroni test of the largest statistic, so a Bonferroni rejection is a
``dfind`` rejection by construction.

``marginal_p`` and ``marginal_ci`` are the marginal test, Student t or the
normal where the df is inf: the unadjusted and Bonferroni baselines, the p1
above and the simulation's baseline decisions all come from them.
``infer`` reports the unadjusted, Bonferroni and mmm methods side by side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import DegenerateVariance, MismatchedSubjectAxis
from .linmodels import MarginalModel
from .mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    mv_rect_prob,
    pair_exceedance,
    triple_exceedance,
    equicoordinate_quantile,
    validate_correlation,
)
from .report import HypothesisRow, InferenceReport, MethodCell

__all__ = [
    "DF_MODES",
    "DECISION_STAGES",
    "MmmFit",
    "stack",
    "score_correlation",
    "joint_scale",
    "max_type_p",
    "max_type_rejects",
    "max_type_bounds",
    "adjusted_p",
    "simultaneous_ci",
    "marginal_p",
    "marginal_ci",
    "infer",
]

DF_MODES = ("normal", "dfmin", "dfmax", "dfind")
ALTERNATIVES = ("two-sided", "greater", "less")
# Rungs of the ``max_type_rejects`` ladder, in the order they are tried: the
# first-order, pairwise and triplewise bounds and the integrated rectangle.
DECISION_STAGES = ("first_order", "pairwise", "triplewise", "integrated")

_PCLIP = 1e-16

# Largest (rows, m, m) array of one slice of ``max_type_bounds``: 2**17
# floats, 1 MiB, as the simulation's replicate blocks.
_BOUND_FLOATS = 2**17


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


def _by_law(normal, t, df, x):
    """``normal(x)`` where ``df`` is inf and ``t(df, x)`` elsewhere,
    elementwise; each law is evaluated on its own entries only."""
    df, x = np.broadcast_arrays(np.asarray(df, dtype=float), x)
    out = np.empty(x.shape)
    t_law = np.isfinite(df)
    out[~t_law] = normal(x[~t_law])
    out[t_law] = t(df[t_law], x[t_law])
    return out


def marginal_p(statistics, df, alternative: str = "two-sided") -> np.ndarray:
    """Each statistic's p-value under its own marginal law, elementwise:
    Student t with ``df``, or the normal where ``df`` is inf.

    With no multiplicity adjustment this is the unadjusted test; the
    Bonferroni test compares it with alpha / m.
    """
    _check_alternative(alternative)
    stats = np.asarray(statistics, dtype=float)
    if alternative == "two-sided":
        return 2.0 * _by_law(ndtr, stdtr, df, -np.abs(stats))
    return _by_law(ndtr, stdtr, df, -stats if alternative == "greater" else stats)


def marginal_ci(estimate, se, df, alpha: float, alternative: str = "two-sided"):
    """Marginal confidence bounds, estimate -/+ q x SE, elementwise.

    q is the 1 - alpha/2 (two-sided) or 1 - alpha quantile of the law of
    :func:`marginal_p`; pass alpha / m for the Bonferroni bounds.  Returns
    ``(lower, upper)``; the unused side of a one-sided interval is infinite.
    """
    _check_alternative(alternative)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    level = 1.0 - (alpha / 2.0 if alternative == "two-sided" else alpha)
    crit = _by_law(ndtri, stdtrit, df, level)
    return _interval(np.asarray(estimate, dtype=float), crit * se, alternative)


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
    models' score contributions.  ``per_model_df`` is each model's residual
    df, inf (the normal) for a binomial-logit model.
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
    stats = np.array([m.statistic for m in models])
    stats.flags.writeable = False
    dfs = np.array([np.inf if m.spec.family == "binomial-logit" else m.residual_df for m in models])
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
    then give one df per stack (inf: normal), an int for a single stack or
    None where its df is inf.
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
    if df.ndim:
        return statistics, df
    return statistics, None if np.isinf(df) else int(df)


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
    b,
    df,
    c_hat,
    alpha: float = 0.05,
    settings: QuadratureSettings = QuadratureSettings(),
):
    """Whether the two-sided max-type p-value at box edge ``b`` is <= alpha.

    The p-value is 1 - P(-b <= X_r <= b for all r) under the joint law of
    ``max_type_p``.  ``b``, ``df`` and ``c_hat`` are stacks as for
    :func:`max_type_bounds`, whose exact bounds (first-order, pairwise and,
    from dimension 4, triplewise) settle most decisions; ``c_hat`` is
    checked once with ``validate_correlation``.  Each decision they leave
    open is integrated once, at ``settings`` with ``decide_at = 1 - alpha``:
    the rounds stop at the first estimate farther from 1 - alpha than its
    error and twice the target.

    Returns ``(rejects, stage)``, elementwise over the edges: p <= alpha,
    and the index into ``DECISION_STAGES`` of the rung that decided.
    """
    c_hat = validate_correlation(c_hat)
    rejects, accepts, stage = max_type_bounds(b, df, c_hat, alpha)
    open_ = ~(rejects | accepts)
    shape, m = rejects.shape, c_hat.shape[-1]
    b = np.broadcast_to(np.asarray(b, dtype=float), shape)
    df = np.broadcast_to(np.inf if df is None else df, shape)
    c_hat = np.broadcast_to(c_hat, shape + (m, m))
    for k in map(tuple, np.argwhere(open_)):
        corr = CorrelationMatrix._checked(c_hat[k])
        law = None if np.isinf(df[k]) else int(df[k])
        edge = np.full(m, b[k])
        rect = mv_rect_prob(corr, -edge, edge, df=law, settings=settings, decide_at=1.0 - alpha)
        rejects[k] = 1.0 - rect.value <= alpha
    return rejects, stage


def max_type_bounds(b, df, c_hat, alpha: float):
    """Decisions of ``max_type_rejects`` that its exact bounds settle.

    ``b`` holds box edges, ``df`` None (normal) or matching dfs (Student t)
    and ``c_hat`` one (m, m) correlation matrix or a matching stack
    (..., m, m).  A stack may mix laws: a row whose df is ``inf`` is normal
    (the t law with infinite df), so one call can hold every mmm variant of
    a simulation block, and each row gets exactly the values of a call on
    that row alone.  With A_r = {|X_r| > b} and p1 = P(A_r) in closed form,
    the two-sided max-type p-value p = P(A_1 or ... or A_m) satisfies
    p1 <= p <= m * p1.  From dimension 2 on, exact at dimension 2,
    decisions these first-order bounds leave open get the pairwise bounds,
    from P(A_i and A_j) of every pair (``mvdist.pair_exceedance``):

    * Hunter-Worsley: p <= m * p1 - sum of P(A_i and A_j) over a maximum
      spanning tree of the pairs (Prim's algorithm);
    * Dawson-Sankoff: p >= 2 S1 / (k + 1) - 2 S2 / (k (k + 1)) with
      S1 = m * p1, S2 the sum over all pairs and k = 1 + floor(2 S2 / S1);
    * best pair: p >= max P(A_i or A_j) = 2 p1 - min P(A_i and A_j).

    From dimension 4 on, decisions the pairwise bounds leave open get the
    triplewise bounds, from P(A_i and A_j and A_k) of every triple as well
    (``mvdist.triple_exceedance``):

    * cherry tree (Bukszar & Prekopa 2001, Math. Oper. Res. 26): the events
      join the union one at a time, each adding at most p1 - P(A_k A_a) -
      P(A_k A_c) + P(A_k A_a A_c) for two events a, c already in it; the
      event and pair of each step are picked greedily from the most
      probable pair on (``_cherry_tree``);
    * Boros-Prekopa (1989, Math. Oper. Res. 14): p >= E f(N), N the number
      of events that occur, for the cubic f with f(0) = 0 and f = 1 at i,
      i + 1 and m, which is at most 1 at every other count; in S1, S2 and S3
      (the sum over all triples) it is linear, and the best i is kept.

    Each bound settles a decision only where it clears alpha after the
    errors of the probabilities it is built from are added against it; at
    m = 2 the pairwise bounds are p = 2 p1 - P(A_1 and A_2) itself.  Open
    rows take both rungs in slices of ``_BOUND_FLOATS`` floats per (rows, m,
    m) array, one kernel call per rung and slice, each row with its own df
    (inf: normal); the kernels bound their own memory.

    Returns ``(rejects, accepts, stage)``, elementwise over the edges: p <=
    alpha, p > alpha, and the index into ``DECISION_STAGES`` of the rung
    that made the decision, ``integrated`` where neither ``rejects`` nor
    ``accepts`` holds and only quadrature decides.  Raises ``ValueError``
    unless ``df`` is None or every df is >= 1 (``inf`` included).
    """
    c_hat = np.asarray(c_hat)
    m = c_hat.shape[-1]
    shape = np.shape(b)
    b = np.asarray(b, dtype=float).reshape(-1)
    df = np.broadcast_to(np.inf if df is None else np.asarray(df, dtype=float), shape).reshape(-1)
    if not (df >= 1.0).all():
        raise ValueError(f"df must be None or >= 1 (inf for normal), got {df.min()}")
    p1 = marginal_p(b, df)
    rejects, accepts = m * p1 <= alpha, p1 > alpha
    stage = np.zeros(b.shape, dtype=np.intp)
    undecided = np.flatnonzero(~(rejects | accepts))
    # each row's matrix as an index into the stack, not a copy per row
    stack = c_hat.reshape(-1, m, m)
    matrix = np.broadcast_to(np.arange(len(stack)).reshape(c_hat.shape[:-2]), shape).reshape(-1)
    i, j = _pairs(m)
    size = max(1, _BOUND_FLOATS // (m * m))
    for start in range(0, len(undecided), size):
        rows = undecided[start : start + size]
        rho = stack[matrix[rows, None], i, j]
        pair, err = pair_exceedance(b[rows, None], rho, df[rows, None])
        rejects[rows] = _hunter_worsley(p1[rows], pair, err, i, j, m) <= alpha
        accepts[rows] = _pair_lower(p1[rows], pair, err, m) > alpha
        stage[rows] = DECISION_STAGES.index("pairwise")
        left = ~(rejects[rows] | accepts[rows])
        if m < 4 or not left.any():
            continue
        rows, rho, pair, err = rows[left], rho[left], pair[left], err[left]
        rij, rik, rjk = (rho[:, k] for k in _triples(m)[0])
        triple, terr = triple_exceedance(b[rows, None], rij, rik, rjk, df[rows, None])
        rejects[rows] = _cherry_tree(p1[rows], pair, err, triple, terr, m) <= alpha
        accepts[rows] = _boros_prekopa_lower(p1[rows], pair, err, triple, terr, m) > alpha
        stage[rows] = DECISION_STAGES.index("triplewise")
    stage[~(rejects | accepts)] = DECISION_STAGES.index("integrated")
    return rejects.reshape(shape), accepts.reshape(shape), stage.reshape(shape)


@lru_cache(maxsize=16)
def _pairs(m: int):
    """``np.triu_indices(m, 1)``, read-only."""
    pairs = np.triu_indices(m, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


@lru_cache(maxsize=16)
def _triples(m: int):
    """Index arrays of the triples i < j < k of ``m`` events, read-only.

    Returns ``(tri_pairs, steps)``: ``tri_pairs`` (3, triples) holds the
    positions among ``_pairs(m)`` of each triple's pairs (i, j), (i, k) and
    (j, k); ``steps`` (6, steps) one column per event k and pair a < c
    without it: k, a, c, the positions of the pairs (k, a) and (k, c), and
    the position of the triple {k, a, c}.
    """
    i, j = _pairs(m)
    pos = np.zeros((m, m), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(len(i))
    triples = list(itertools.combinations(range(m), 3))
    tri_pos = {frozenset(t): n for n, t in enumerate(triples)}
    tri_pairs = np.array([[pos[x, y], pos[x, z], pos[y, z]] for x, y, z in triples]).T
    steps = np.array(
        [
            (k, a, c, pos[k, a], pos[k, c], tri_pos[frozenset((k, a, c))])
            for k in range(m)
            for a, c in zip(i, j)
            if k not in (a, c)
        ]
    ).T
    for a in (tri_pairs, steps):
        a.flags.writeable = False
    return tri_pairs, steps


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


def _cherry_tree(p1, pair, err, triple, terr, m):
    """Cherry-tree upper bound plus its accumulated error, per row.

    ``pair`` and ``err`` are as for ``_hunter_worsley``; ``triple`` and
    ``terr`` hold P(A_i and A_j and A_k) and its error for the triples of
    ``_triples(m)``.  The tree starts from the most probable pair, whose
    union is 2 p1 - P(A_a A_c); each step adds the event k and the pair {a,
    c} already in the tree with the largest gain g = P(A_k A_a) + P(A_k A_c)
    - P(A_k A_a A_c), less its errors, and the union grows by at most p1 - g;
    every row at once.  (Starting from every pair instead settled no more
    simulation decisions.)
    """
    i, j = _pairs(m)
    k, a, c, ka, kc, kac = _triples(m)[1]
    gain = pair[:, ka] + pair[:, kc] - triple[:, kac] - (err[:, ka] + err[:, kc] + terr[:, kac])
    rows = np.arange(len(p1))
    first = pair.argmax(axis=1)
    in_tree = np.zeros((len(p1), m), dtype=bool)
    in_tree[rows, i[first]] = in_tree[rows, j[first]] = True
    bound = 2.0 * p1 - pair[rows, first] + err[rows, first]
    for _ in range(m - 2):
        fits = in_tree[:, a] & in_tree[:, c] & ~in_tree[:, k]
        best = np.where(fits, gain, -np.inf).argmax(axis=1)
        bound += p1 - gain[rows, best]
        in_tree[rows, k[best]] = True
    return bound


def _boros_prekopa_lower(p1, pair, err, triple, terr, m):
    """Boros-Prekopa lower bound less its accumulated error, per row
    (arguments as for ``_cherry_tree``)."""
    s = np.stack([m * p1, pair.sum(axis=1), triple.sum(axis=1)], axis=1)
    s_err = np.stack([np.zeros_like(p1), err.sum(axis=1), terr.sum(axis=1)], axis=1)
    weights = _boros_prekopa(m)
    return (s @ weights - s_err @ np.abs(weights)).max(axis=1)


@lru_cache(maxsize=16)
def _boros_prekopa(m: int):
    """Weights (3, m - 1) of S1, S2 and S3 in the Boros-Prekopa lower bounds
    of the union of ``m`` events, one column per i = 1, ..., m - 1: E f(N)
    for the cubic f(n) = 1 + (n - i)(n - i - 1)(n - m) / (i (i + 1) m), so
    f(0) = 0 and f(n) <= 1 for n = 1, ..., m.  A cubic with f(0) = 0 is
    f(1) C(n, 1) + (f(2) - 2 f(1)) C(n, 2) + (f(3) - 3 f(2) + 3 f(1))
    C(n, 3), and E C(N, r) = S_r."""
    i = np.arange(1.0, m)
    f1, f2, f3 = (1.0 + (n - i) * (n - i - 1.0) * (n - m) / (i * (i + 1.0) * m) for n in (1, 2, 3))
    weights = np.stack([f1, f2 - 2.0 * f1, f3 - 3.0 * f2 + 3.0 * f1])
    weights.flags.writeable = False
    return weights


def adjusted_p(
    fit: MmmFit,
    alternative: str = "two-sided",
    settings: QuadratureSettings = QuadratureSettings(),
) -> np.ndarray:
    """Max-type adjusted p-values under C_hat and the fit's df mode."""
    stats, df = joint_scale(fit.statistics, fit.per_model_df, fit.df_mode)
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
    _, df = joint_scale(fit.statistics, fit.per_model_df, fit.df_mode)
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
# the side-by-side report

def _df_label(df_mode, dfs):
    """The report's name of the joint law, from the fit's per-model dfs."""
    if df_mode == "normal":
        return "normal"
    if df_mode == "dfind":
        return "dfind(" + ", ".join("inf" if np.isinf(d) else str(int(d)) for d in dfs) + ")"
    df = min(dfs) if df_mode == "dfmin" else max(dfs)
    return "normal" if np.isinf(df) else f"t({int(df)})"


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
    est, se = np.array([(m.coefficient, m.standard_error) for m in models]).T
    # logit models are tested against the normal (df inf), gaussian ones
    # against t
    ref_df = fit.per_model_df
    p = marginal_p(fit.statistics, ref_df, alternative)
    m = fit.dim
    blocks = (
        ("noadjust", p, marginal_ci(est, se, ref_df, alpha, alternative)),
        ("bonferroni", np.minimum(1.0, m * p), marginal_ci(est, se, ref_df, alpha / m, alternative)),
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
        df_mode=_df_label(df_mode, fit.per_model_df),
        seed=settings.seed,
        quadrature_error=settings.target_abs_error,
        method_names=("noadjust", "bonferroni", "mmm"),
        rows=tuple(rows),
    )
