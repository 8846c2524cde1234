"""The exact rectangle probabilities of dimensions 2 and 3 against references
computed here by adaptive quadrature (``scipy.integrate.quad``), never from
``mmminfer.mvdist``.

Each reference integrates the first coordinate against the conditional law
of the others: normal, or t with df + 1 (df + 2 for the third coordinate)
and the conditional scale.  Where a law is singular the conditional
rectangle is the interval of the first coordinates that keeps the others
inside it.  Steep spots of an integrand are passed to ``quad`` as break
points.

The dimension-3 references take about half a minute, so
``test_dimension_3_matches_quadrature`` reads them, with quad's own error
estimates, from ``data/exact_oracle_dim3.json``, which
``make_exact_oracle_references.py`` writes from ``reference`` below;
``test_stored_references_match_their_script`` recomputes a few of them.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import betainc, gammaln, ndtr

from mmminfer import simulate
from mmminfer.mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    equicoordinate_quantile,
    mv_rect_prob,
)
from mmminfer.tables import TABLE_DESIGNS, published_rows

INF = math.inf
TOL = 1e-10


def cdf(x, df):
    """Normal or t_df CDF; the t through the incomplete beta function, which
    keeps its accuracy near 0, where ``stdtr`` at df 1 loses about 1e-9."""
    if df is None:
        return ndtr(x)
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    tail = 0.5 * betainc(0.5 * df, 0.5, df / (df + x * x))
    return tail if x < 0 else 1.0 - tail


def pdf(x, df):
    if df is None:
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    log = gammaln(0.5 * (df + 1)) - gammaln(0.5 * df) - 0.5 * math.log(df * math.pi)
    return math.exp(log - 0.5 * (df + 1) * math.log1p(x * x / df))


def quad(f, lo, hi, points=(), error=False):
    """Adaptive quadrature of f over (lo, hi), split at ``points``; with
    ``error``, (value, quad's error estimate summed over the pieces)."""
    edges = [lo, *sorted({p for p in points if lo < p < hi}), hi]
    parts = [
        integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=500)
        for a, b in zip(edges, edges[1:])
    ]
    value = sum(part[0] for part in parts)
    return (value, sum(part[1] for part in parts)) if error else value


def steep(centres, width, decades=6):
    """Break points around each centre of a steep spot of this width, out to
    10^decades widths for the algebraic tails of the t."""
    steps = [0.0] + [s * 10.0 ** (k / 2) for k in range(2 * decades + 1) for s in (-1.0, 1.0)]
    return [c + k * width for c in centres for k in steps]


def interval(limits, slope, offset):
    """{x : lo <= slope * x + offset <= hi} for limits (lo, hi)."""
    lo, hi = limits[0] - offset, limits[1] - offset
    if slope == 0.0:
        return (-INF, INF) if lo <= 0.0 <= hi else (INF, -INF)
    a, b = lo / slope, hi / slope
    return (a, b) if slope > 0 else (b, a)


def cond_prob(limits, mean, sd, df):
    """P(lo <= Y <= hi) for Y = mean + sd * (normal or t_df)."""
    lo, hi = limits
    return max(cdf((hi - mean) / sd, df) - cdf((lo - mean) / sd, df), 0.0)


def reference(corr, lower, upper, df, error=False):
    """P(lower <= X <= upper) for X ~ N(0, corr) or t_df(corr), dimension 2
    or 3, full rank or singular: the first coordinate outside, its
    conditional law inside.  With ``error``, (value, the outer quad's error
    estimate), 0 for a rank-1 law's closed form."""
    corr = np.asarray(corr, dtype=float)
    d = corr.shape[0]
    box = list(zip(lower, upper))
    r = corr[0, 1:]
    resid = corr[1:, 1:] - np.outer(r, r)

    def closed(value):
        return (value, 0.0) if error else value

    def outer(f, lo, hi, points):
        # the normal within +-40; the t in theta = atan(x / sqrt(df)), where
        # its algebraic tails become a finite range
        if df is None:
            return quad(f, max(lo, -40.0), min(hi, 40.0), points + [-9.0, 9.0], error)
        root = math.sqrt(df)

        def g(theta):
            x = root * math.tan(theta)
            return f(x) * root / math.cos(theta) ** 2

        cuts = [math.atan(p / root) for p in points]
        return quad(g, math.atan(lo / root), math.atan(hi / root), cuts, error)

    def scale(x):
        # the t scale of the others given X_1 = x
        return 1.0 if df is None else math.sqrt((df + x * x) / (df + 1))

    if d == 2:
        s = math.sqrt((1.0 - r[0]) * (1.0 + r[0]))  # without cancellation
        inner_df = None if df is None else df + 1
        if s < 1e-7:  # rank 1: X_2 = rho X_1
            lo, hi = interval(box[1], r[0], 0.0)
            a, b = max(box[0][0], lo), min(box[0][1], hi)
            return closed(max(cdf(b, df) - cdf(a, df), 0.0) if a < b else 0.0)

        def f(x):
            return pdf(x, df) * cond_prob(box[1], r[0] * x, s * scale(x), inner_df)

        centres = [v / r[0] for v in box[1] if math.isfinite(v) and r[0] != 0.0]
        return outer(f, *box[0], steep(centres, s / max(abs(r[0]), 1e-300)))
    # dimension 3: X_2 | X_1 = x, then X_3 | X_1, X_2 (or the interval of
    # X_2 that keeps X_3 inside, where X_3 is determined by them)
    s2 = math.sqrt(max(resid[0, 0], 0.0))
    if s2 < 1e-7:  # rank 1: X_2 = r2 X_1 and X_3 = r3 X_1
        assert resid[1, 1] < 1e-14
        keep = [(box[0][0], box[0][1]), interval(box[1], r[0], 0.0), interval(box[2], r[1], 0.0)]
        a, b = max(k[0] for k in keep), min(k[1] for k in keep)
        return closed(max(cdf(b, df) - cdf(a, df), 0.0) if a < b else 0.0)
    beta = resid[1, 0] / resid[0, 0]  # regression of X_3 on X_2 given X_1
    s3 = math.sqrt(max(resid[1, 1] - beta * resid[0, 1], 0.0))

    def inner(x):
        sx = s2 * scale(x)
        mean2 = r[0] * x

        def g(y):
            # y = X_2; X_3 = r3 x + beta (y - r2 x) + s3 * noise
            mean3 = r[1] * x + beta * (y - mean2)
            z = (y - mean2) / s2
            dens = pdf(z / scale(x), None if df is None else df + 1) / sx
            if s3 < 1e-6:
                return dens * (box[2][0] <= mean3 <= box[2][1])
            q = x * x + z * z
            sd3 = s3 * (1.0 if df is None else math.sqrt((df + q) / (df + 2)))
            return dens * cond_prob(box[2], mean3, sd3, None if df is None else df + 2)

        lo, hi = box[1]
        points = [mean2 + k * sx for k in (-9.0, 0.0, 9.0)]
        if s3 < 1e-6:  # X_3 determined, to O(s3^2) in probability
            a, b = interval(box[2], beta, r[1] * x - beta * mean2)
            lo, hi = max(lo, a), min(hi, b)
            if not lo < hi:
                return 0.0
        elif beta != 0.0:
            centres = [(v - r[1] * x + beta * mean2) / beta for v in box[2] if math.isfinite(v)]
            points += steep(centres, s3 / abs(beta), 2)
        return pdf(x, df) * quad(g, lo, hi, points)

    centres = []
    for j, v in ((0, box[1]), (1, box[2])):
        centres += [w / r[j] for w in v if math.isfinite(w) and r[j] != 0.0]
    return outer(inner, *box[0], steep(centres, s2 / 10.0, 1))


def corr_with_eigenvalues(values, seed):
    """A correlation matrix whose eigenvalues are near ``values``."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    a = q @ np.diag(values) @ q.T
    d = np.sqrt(np.diag(a))
    return a / np.outer(d, d)


def pair(rho):
    return [[1.0, rho], [rho, 1.0]]


LIMITS_2 = {
    "two-sided": ([-2.3, -2.3], [2.3, 2.3]),
    "one-sided": ([-INF, -INF], [1.1, 0.4]),
    "mixed": ([-INF, -0.7], [0.9, INF]),
    "off-origin": ([0.3, -1.0], [2.0, 0.5]),
}
# rho up to +-0.999, the eigenvalue 1 - rho at 1e-8, 1e-14 and 0 (rank 1)
RHOS = (-1.0, -0.999, -0.5, 0.0, 0.3, 0.8, 0.999, 1.0 - 1e-8, 1.0 - 1e-14, 1.0)
DFS = (None, 1, 2, 5, 48, 496, 1000)


@pytest.mark.parametrize("df", DFS)
def test_dimension_2_matches_quadrature(df):
    for rho in RHOS:
        corr = CorrelationMatrix(pair(rho))
        for name, (lower, upper) in LIMITS_2.items():
            ref = reference(pair(rho), lower, upper, df)
            r = mv_rect_prob(corr, lower, upper, df)
            assert abs(r.value - ref) <= TOL, (rho, name, r, ref)
            assert r.error >= abs(r.value - ref), (rho, name, r, ref)


MATRICES_3 = {
    "full": [[1.0, 0.4, -0.2], [0.4, 1.0, 0.5], [-0.2, 0.5, 1.0]],
    # one pair at 0.999, the others 0.3, and its sign-flipped conjugate
    "pair-0.999": [[1.0, 0.999, 0.3], [0.999, 1.0, 0.3], [0.3, 0.3, 1.0]],
    "pair-minus-0.999": [[1.0, -0.999, 0.3], [-0.999, 1.0, -0.3], [0.3, -0.3, 1.0]],
    "all-0.999": (np.full((3, 3), 0.999) + 0.001 * np.eye(3)).tolist(),
    "eigenvalue-1e-8": corr_with_eigenvalues([1.7, 1.3, 1e-8], 1).tolist(),
    "eigenvalue-1e-14": corr_with_eigenvalues([1.6, 1.4, 1e-14], 2).tolist(),
    # the rank-2 cell-means law: total = sqrt(p) target + sqrt(1 - p) complement
    "rank-2": [
        [1.0, math.sqrt(0.6), 0.0],
        [math.sqrt(0.6), 1.0, math.sqrt(0.4)],
        [0.0, math.sqrt(0.4), 1.0],
    ],
    "rank-1": [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]],
}
LIMITS_3 = {
    "two-sided": ([-2.3] * 3, [2.3] * 3),
    "one-sided": ([-INF] * 3, [1.1, 0.4, 2.0]),
    "mixed": ([-INF, -0.7, -INF], [0.9, INF, 1.4]),
}


# every matrix for the normal and df 3; df 48 for a few, whose references
# take longest
CASES_3 = [(name, df) for name in MATRICES_3 for df in (None, 3)] + [
    (name, 48) for name in ("full", "eigenvalue-1e-8", "rank-2", "rank-1")
]
REFERENCES_3 = Path(__file__).parent / "data" / "exact_oracle_dim3.json"


def reference_key(name, df, limits):
    return f"{name}/{df}/{limits}"


def stored_references():
    """``reference`` of every (matrix, df, limits) of ``CASES_3``, keyed by
    ``reference_key``, as {"value": ..., "quad_error": ...}."""
    return json.loads(REFERENCES_3.read_text(encoding="utf-8"))["references"]


@pytest.mark.slow
@pytest.mark.parametrize("name, df", CASES_3)
def test_dimension_3_matches_quadrature(name, df):
    entries = MATRICES_3[name]
    corr = CorrelationMatrix(entries)
    stored = stored_references()
    for limits, (lower, upper) in LIMITS_3.items():
        ref = stored[reference_key(name, df, limits)]["value"]
        r = mv_rect_prob(corr, lower, upper, df)
        assert abs(r.value - ref) <= TOL, (limits, r, ref)
        assert r.error >= abs(r.value - ref), (limits, r, ref)


def test_stored_references_cover_every_case():
    stored = stored_references()
    keys = {reference_key(name, df, limits) for name, df in CASES_3 for limits in LIMITS_3}
    assert set(stored) == keys
    # each well inside the 1e-10 the exact rule is held to
    assert all(0.0 <= ref["quad_error"] <= TOL / 10 for ref in stored.values())


# a few of the stored references, quick to recompute: full rank, rank 2 and
# rank 1, normal and t
RECOMPUTED_3 = (("full", None), ("rank-2", 3), ("rank-1", 48))


@pytest.mark.parametrize("name, df", RECOMPUTED_3)
def test_stored_references_match_their_script(name, df):
    stored = stored_references()
    for limits, (lower, upper) in LIMITS_3.items():
        value, err = reference(MATRICES_3[name], lower, upper, df, error=True)
        ref = stored[reference_key(name, df, limits)]
        assert abs(value - ref["value"]) <= 1e-13, (limits, value, ref)
        assert abs(err - ref["quad_error"]) <= 1e-13, (limits, err, ref)


# Cases where the tensor Gauss-Legendre rules this module used before were
# off by about 1e-3 while reporting errors near 1e-5: (correlation, df, edge)
ROUGH_CASES = {
    "dim2-normal-0.999": (pair(0.999), None, 2.3),
    "dim2-df496-0.999": (pair(0.999), 496, 2.3),
    "dim3-normal-pair-0.999": (MATRICES_3["pair-0.999"], None, 2.3),
}


@pytest.mark.parametrize("name", ROUGH_CASES)
def test_rough_cases_within_1e_6(name):
    entries, df, b = ROUGH_CASES[name]
    dim = len(entries)
    ref = reference(entries, [-b] * dim, [b] * dim, df)
    r = mv_rect_prob(CorrelationMatrix(entries), np.full(dim, -b), np.full(dim, b), df)
    assert abs(r.value - ref) <= 1e-6
    assert r.converged and r.error >= abs(r.value - ref)


def cellmeans_quantile_reference(r1, r2, df, alpha=0.05):
    """Critical value c with P(|X_1|, |X_2|, |r1 X_1 + r2 X_2| <= c) = 1 -
    alpha for uncorrelated X_1, X_2 (bivariate t_df): quad over X_1 of the
    conditional t of X_2 on the interval that keeps the total inside."""

    def prob(c):
        def f(x):
            lo = max(-c, (-c - r1 * x) / r2)
            hi = min(c, (c - r1 * x) / r2)
            if not lo < hi:
                return 0.0
            s = math.sqrt((df + x * x) / (df + 1))
            return pdf(x, df) * (cdf(hi / s, df + 1) - cdf(lo / s, df + 1))

        kinks = [(c - r2 * c) / r1, (-c + r2 * c) / r1, (c + r2 * c) / r1, (-c - r2 * c) / r1]
        return quad(f, -c, c, kinks)

    return brentq(lambda c: prob(c) - (1.0 - alpha), 1.5, 3.5, xtol=1e-12)


A4 = [
    (int(row["N"]), float(row["prop_targ"]))
    for row in published_rows(TABLE_DESIGNS["a4"]["published"])
]


def cellmeans_fixture(scenario):
    return simulate._cellmeans_fixture(
        scenario.target_per_arm,
        scenario.arm_size,
        scenario.family,
        scenario.total_n,
        0.05,
        simulate.SIM_SETTINGS,
    )


def test_every_a4_cellmeans_critical_value_within_1e_6():
    assert len(A4) == 20
    for n, prop in A4:
        scenario = simulate.Scenario(total_n=n, prop_target=prop, sd=5.0, family="any")
        contrasts, crit, _ = cellmeans_fixture(scenario)
        k = scenario.target_per_arm
        counts = [k, k, scenario.arm_size - k, scenario.arm_size - k]
        corr = contrasts.correlation(counts).entries
        assert corr[0, 1] == pytest.approx(0.0, abs=1e-15)
        ref = cellmeans_quantile_reference(corr[2, 0], corr[2, 1], n - 4)
        assert abs(crit - ref) <= 1e-6, (n, prop, crit, ref)


def test_every_a3_cellmeans_critical_value_within_1e_6():
    # targeted or total: the two contrasts are bivariate t with correlation
    # sqrt(target share)
    rows = published_rows(TABLE_DESIGNS["a3"]["published"])
    assert len(rows) == 20
    for row in rows:
        n, prop = int(row["N"]), float(row["prop_targ"])
        scenario = simulate.Scenario(
            total_n=n, prop_target=prop, sd=5.0, family="targeted-or-total"
        )
        contrasts, crit, _ = cellmeans_fixture(scenario)
        k = scenario.target_per_arm
        counts = [k, k, scenario.arm_size - k, scenario.arm_size - k]
        rho = contrasts.correlation(counts).entries[0, 1]
        ref = brentq(
            lambda c: reference(pair(rho), [-c, -c], [c, c], n - 4) - 0.95, 1.9, 2.5, xtol=1e-12
        )
        assert abs(crit - ref) <= 1e-6, (n, prop, crit, ref)


def test_quantile_solves_the_exact_probability():
    corr = CorrelationMatrix(MATRICES_3["full"])
    for df, tail in ((None, "two-sided"), (7, "one-sided")):
        q = equicoordinate_quantile(corr, 0.05, tail=tail, df=df)
        lower = [-q] * 3 if tail == "two-sided" else [-INF] * 3
        assert reference(MATRICES_3["full"], lower, [q] * 3, df) == pytest.approx(0.95, abs=1e-7)


def test_fixed_cost_at_any_target():
    # perfbench's warm-up asks for 1e-12; the exact rule does the same work
    # at every target and flags what it cannot claim
    corr = CorrelationMatrix(MATRICES_3["full"])
    lower, upper = np.full(3, -INF), np.full(3, 2.0)
    loose = mv_rect_prob(corr, lower, upper, 50, QuadratureSettings(target_abs_error=1e-3))
    tight = mv_rect_prob(corr, lower, upper, 50, QuadratureSettings(target_abs_error=1e-12))
    assert (tight.value, tight.error, tight.samples) == (loose.value, loose.error, loose.samples)
    assert loose.converged and tight.converged == (tight.error <= 1e-12)
