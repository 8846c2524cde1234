"""Rectangle probabilities and equicoordinate quantiles of multivariate
normal and multivariate t distributions.

This is the numerical kernel behind every adjusted p-value and simultaneous
confidence bound in the package.  All probabilities go through the
separation-of-variables transform of Genz, which turns the rectangle
probability into an integral of a smooth function over the unit cube of
dimension ``dim - 1`` (one more for multivariate t, whose radial variable is
integrated with a generalized Gauss-Laguerre rule matched to the chi-square
density).

Two evaluation strategies share that integrand:

* dimensions 2 and 3 use tensor Gauss-Legendre quadrature with an escalating
  node ladder; the error estimate is the difference between successive
  ladder levels, and the result is fully deterministic;
* higher dimensions use randomized quasi-Monte Carlo with scrambled Sobol
  points, one independent scramble per "shift".  The error estimate is three
  standard errors over the scrambles and the sample size doubles until the
  estimate meets the requested accuracy or the budget runs out.  Point sets
  are cached per dimension and seed, so repeated calls only pay for
  integrand evaluations.  On the multivariate-t path the radial factor of
  each point (its leading Sobol coordinate mapped through the chi quantile)
  is cached as well, per point set and df, for the first 2**14 points of
  each scramble; least recently used entries are dropped so the cache never
  holds more than 2**21 factors (16 MiB).

The univariate case is evaluated in closed form.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaincinv, ndtr, ndtri, roots_legendre, stdtr, stdtrit
from scipy.stats import qmc

from .errors import NotPSD

__all__ = [
    "CorrelationMatrix",
    "QuadratureSettings",
    "RectProb",
    "mv_rect_prob",
    "equicoordinate_quantile",
]

_TINY = 1e-15
_EIG_FLOOR = 1e-10
# Gauss-Legendre node ladder for the low-dimensional deterministic path and
# the fixed size of the radial rule for multivariate t.
_GL_LADDER = (12, 16, 24, 32, 48)
_RADIAL_NODES = 16


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy and reproducibility knobs for the quadrature.

    ``max_samples`` caps the total number of integrand evaluations per call
    (points times scrambles, summed over doubling rounds) on the randomized
    path.  ``seed``, ``shifts`` and ``first_round_samples`` only affect that
    path; the low-dimensional rules are deterministic.
    """

    target_abs_error: float = 5e-5
    max_samples: int = 1_500_000
    seed: int = 20150436
    shifts: int = 12
    first_round_samples: int = 256

    def __post_init__(self):
        if self.target_abs_error <= 0:
            raise ValueError("target_abs_error must be positive")
        if self.shifts < 2:
            raise ValueError("need at least 2 shifts for an error estimate")


@dataclass(frozen=True)
class RectProb:
    """Probability estimate with its accuracy diagnostics.

    ``converged`` is False when the sample budget was exhausted before the
    error estimate met the target (the best estimate is still returned).
    ``samples`` counts integrand evaluations (0 for the closed-form case).
    """

    value: float
    error: float
    converged: bool
    samples: int


class CorrelationMatrix:
    """Symmetric unit-diagonal PSD matrix driving the quadrature.

    Construction validates symmetry (within 1e-12), the unit diagonal and
    positive semi-definiteness (eigenvalues >= -1e-8).  Near-singular
    matrices are accepted; their Cholesky factor is computed after clipping
    eigenvalues at 1e-10, so duplicated models (correlation exactly 1) are
    legal inputs.
    """

    __slots__ = ("dim", "entries", "_chol")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("correlation matrix has non-finite entries")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValueError("correlation matrix is not symmetric (tol 1e-12)")
        if np.max(np.abs(np.diag(a) - 1.0)) > 1e-8:
            raise ValueError("correlation matrix diagonal must be 1")
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 1.0)
        off = a[~np.eye(a.shape[0], dtype=bool)]
        if off.size and np.max(np.abs(off)) > 1.0 + 1e-10:
            raise ValueError("off-diagonal correlations must lie in [-1, 1]")
        if np.linalg.eigvalsh(a)[0] < -1e-8:
            raise NotPSD("correlation matrix has eigenvalue below -1e-8")
        np.clip(a, -1.0, 1.0, out=a)
        np.fill_diagonal(a, 1.0)
        a.flags.writeable = False
        self.dim = a.shape[0]
        self.entries = a
        self._chol = None

    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor, regularized by eigenvalue clipping."""
        if self._chol is None:
            a = self.entries
            try:
                self._chol = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                w, v = np.linalg.eigh(a)
                w = np.maximum(w, _EIG_FLOOR)
                b = (v * w) @ v.T
                d = np.sqrt(np.diag(b))
                b = b / np.outer(d, d)
                np.fill_diagonal(b, 1.0)
                self._chol = np.linalg.cholesky(b)
        return self._chol

    @classmethod
    def identity(cls, dim: int) -> "CorrelationMatrix":
        return cls(np.eye(dim))

    def __repr__(self):
        return f"CorrelationMatrix(dim={self.dim})"


def _check_df(df):
    if df is None:
        return None
    if isinstance(df, (bool, float)) or not isinstance(df, (int, np.integer)):
        raise ValueError(f"df must be a positive integer or None, got {df!r}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return int(df)


def _genz_weights(chol, lower, upper, w, radial=None):
    """Genz transform integrand for P(lower <= X <= upper), X ~ N(0, LL').

    ``w`` holds the quadrature points, one row per point; ``radial``
    optionally carries per-point chi scale factors for the multivariate t
    case.  Requires dim >= 2 (the 1-d case is handled in closed form
    upstream).
    """
    nvar = chol.shape[0]
    scale = 1.0 if radial is None else radial  # strictly positive
    d = ndtr(lower[0] * scale / chol[0, 0])
    e = ndtr(upper[0] * scale / chol[0, 0])
    f = e - d
    y = np.empty((w.shape[0], nvar - 1))
    for i in range(1, nvar):
        u = np.clip(d + w[:, i - 1] * (e - d), _TINY, 1.0 - _TINY)
        y[:, i - 1] = ndtri(u)
        mu = y[:, :i] @ chol[i, :i]
        d = ndtr((lower[i] * scale - mu) / chol[i, i])
        e = ndtr((upper[i] * scale - mu) / chol[i, i])
        f = f * np.maximum(e - d, 0.0)
    return f


# ---------------------------------------------------------------------------
# deterministic low-dimensional rules


@lru_cache(maxsize=32)
def _tensor_rule(n: int, q: int):
    """Tensor product Gauss-Legendre rule on the unit cube (0, 1)^q."""
    x, wt = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    wt = 0.5 * wt
    if q == 1:
        return x[:, None], wt
    grids = np.meshgrid(*([x] * q), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    ww = wt
    for _ in range(q - 1):
        ww = np.multiply.outer(ww, wt).ravel()
    return pts, ww


@lru_cache(maxsize=256)
def _radial_rule(df: int, n: int):
    """Gauss rule for the chi scale factor of a multivariate t.

    If T = Z / s with s^2 ~ chi2_df / df, then u = df * s^2 / 2 has a
    Gamma(df/2) density, so a generalized Gauss-Laguerre rule with exponent
    a = df/2 - 1 integrates E[g(s)] exactly for polynomial g(u).  The rule
    is built by Golub-Welsch on the Jacobi matrix of the *normalized*
    measure, which keeps the weights finite for large df (the classical
    weights carry a gamma-function factor that overflows beyond df ~ 350).
    Nodes are returned on the s scale; weights sum to one.
    """
    a = 0.5 * df - 1.0
    k = np.arange(n)
    diag = 2.0 * k + a + 1.0
    off = np.sqrt((k[1:]) * (k[1:] + a))
    u, vec = eigh_tridiagonal(diag, off)
    s = np.sqrt(2.0 * u / df)
    return s, vec[0] ** 2


def _gl_value(chol, lower, upper, df, n):
    """One evaluation of the tensor rule at ladder level ``n``."""
    q = chol.shape[0] - 1
    pts, ww = _tensor_rule(n, q)
    if df is None:
        return float(_genz_weights(chol, lower, upper, pts) @ ww), len(ww)
    s, ws = _radial_rule(df, _RADIAL_NODES)
    npts = len(ww)
    w_all = np.tile(pts, (_RADIAL_NODES, 1))
    radial = np.repeat(s, npts)
    vals = _genz_weights(chol, lower, upper, w_all, radial)
    est = float((vals.reshape(_RADIAL_NODES, npts) @ ww) @ ws)
    return est, len(radial)


def _gl_estimate(chol, lower, upper, df, target):
    """Escalate the node ladder until two levels agree within ``target``."""
    total = 0
    prev = None
    for n in _GL_LADDER:
        est, used = _gl_value(chol, lower, upper, df, n)
        total += used
        if prev is not None:
            err = abs(est - prev)
            if err <= target:
                return est, err, True, total
        prev = est
    return est, err, False, total


# ---------------------------------------------------------------------------
# randomized high-dimensional rule

# Scrambled Sobol point sets, keyed by (qdim, seed, shifts) and grown on
# demand; entries hold the engines (whose streams continue across calls) and
# the points drawn so far, shaped (shifts, n, qdim).
_SOBOL_CACHE: dict = {}


def _sobol_points(qdim, settings, n):
    """First ``n`` points of each cached scramble, drawing more if needed."""
    key = (qdim, settings.seed, settings.shifts)
    entry = _SOBOL_CACHE.get(key)
    if entry is None:
        seeds = np.random.SeedSequence(settings.seed).spawn(settings.shifts)
        engines = [
            qmc.Sobol(qdim, scramble=True, seed=np.random.default_rng(s))
            for s in seeds
        ]
        entry = [engines, np.empty((settings.shifts, 0, qdim))]
        _SOBOL_CACHE[key] = entry
    engines, pts = entry
    if n > pts.shape[1]:
        extra = np.stack([eng.random(n - pts.shape[1]) for eng in engines])
        entry[1] = pts = np.concatenate([pts, extra], axis=1)
    return pts[:, :n, :]


# Radial factors of the multivariate-t path, keyed by (qdim, seed, shifts,
# df): the leading Sobol column of each scramble mapped through the chi
# quantile.  An entry is [factors, filled]: factors is allocated once,
# shaped (shifts, _RADIAL_POINTS), and its first ``filled`` columns are
# computed on demand.  Later points, which only high-accuracy calls reach,
# are transformed afresh on every call.
_RADIAL_POINTS = 1 << 14
_RADIAL_VALUES = 1 << 21
_RADIAL_CACHE: OrderedDict = OrderedDict()


def _radial_factors(u, df):
    """Chi scale factors s = sqrt(2 * Gamma(df/2)^-1(u) / df) of uniforms."""
    return np.sqrt(2.0 * gammaincinv(0.5 * df, u) / df)


def _cached_radial(pts, settings, df, end):
    """Cached radial factors, shaped (shifts, _RADIAL_POINTS), of which the
    first ``end`` columns are filled; ``pts`` holds at least ``end`` points
    per scramble and ``end`` must not exceed ``_RADIAL_POINTS``.
    """
    key = (pts.shape[2], settings.seed, settings.shifts, df)
    entry = _RADIAL_CACHE.pop(key, None)
    if entry is None:
        entry = [np.empty((settings.shifts, _RADIAL_POINTS)), 0]
    factors, filled = entry
    if filled < end:
        u = np.clip(pts[:, filled:end, 0], _TINY, 1.0 - _TINY)
        factors[:, filled:end] = _radial_factors(u, df)
        entry[1] = end
    _RADIAL_CACHE[key] = entry  # most recently used last
    # an entry larger than the whole budget (over 128 shifts) is not kept
    while sum(e[0].size for e in _RADIAL_CACHE.values()) > _RADIAL_VALUES:
        _RADIAL_CACHE.popitem(last=False)
    return factors


class _SobolSampler:
    """Randomized QMC evaluator bound to one Cholesky factor.

    ``estimate`` integrates a given rectangle adaptively; ``estimate_fixed``
    reuses a caller-chosen sample size so repeated calls are exactly
    monotone in the limits.
    """

    def __init__(self, chol, df, settings: QuadratureSettings):
        self.chol = chol
        self.df = df
        self.qdim = chol.shape[0] - 1 + (1 if df is not None else 0)
        self.settings = settings

    def _sums(self, lower, upper, start, count):
        """Integrand sums per scramble over points [start, start + count)."""
        pts = _sobol_points(self.qdim, self.settings, start + count)
        w = pts[:, start : start + count, :].reshape(-1, self.qdim)
        if self.df is not None:
            end = start + count
            if end <= _RADIAL_POINTS:
                radial = _cached_radial(pts, self.settings, self.df, end)
                radial = radial[:, start:end].reshape(-1)
            else:
                u = np.clip(w[:, 0], _TINY, 1.0 - _TINY)
                radial = _radial_factors(u, self.df)
            vals = _genz_weights(self.chol, lower, upper, w[:, 1:], radial)
        else:
            vals = _genz_weights(self.chol, lower, upper, w)
        return vals.reshape(self.settings.shifts, count).sum(axis=1)

    def estimate_fixed(self, lower, upper, n_per_shift):
        sums = self._sums(lower, upper, 0, n_per_shift)
        means = sums / n_per_shift
        est = float(means.mean())
        err = 3.0 * float(means.std(ddof=1)) / np.sqrt(self.settings.shifts)
        return est, err

    def estimate(self, lower, upper):
        s = self.settings
        # powers of two keep the Sobol point sets balanced
        n_round = 1 << max(int(np.ceil(np.log2(s.first_round_samples))), 1)
        start = 0
        sums = np.zeros(s.shifts)
        while True:
            sums += self._sums(lower, upper, start, n_round)
            count = start + n_round
            means = sums / count
            est = float(means.mean())
            err = 3.0 * float(means.std(ddof=1)) / np.sqrt(s.shifts)
            total = count * s.shifts
            if err <= s.target_abs_error or total * 2 > s.max_samples:
                return est, err, total, count
            start, n_round = count, count  # doubles the cumulative sample


def _exact_1d(lower, upper, df):
    if df is None:
        return float(ndtr(upper) - ndtr(lower))
    # stdtr handles infinite arguments fine
    return float(stdtr(df, upper) - stdtr(df, lower))


def mv_rect_prob(
    corr: CorrelationMatrix,
    lower,
    upper,
    df: int | None = None,
    settings: QuadratureSettings = QuadratureSettings(),
) -> RectProb:
    """P(lower <= X <= upper) for X ~ N(0, corr) or t_df(corr).

    Open limits are expressed with ``-inf`` / ``+inf``.  The result is
    deterministic for a fixed ``settings.seed`` (and unconditionally in
    dimension three and below, where deterministic quadrature is used).
    """
    df = _check_df(df)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (corr.dim,) or upper.shape != (corr.dim,):
        raise ValueError(
            f"limits must have shape ({corr.dim},), got {lower.shape} and {upper.shape}"
        )
    if not np.all(lower < upper):
        raise ValueError("lower limits must be strictly below upper limits")
    if corr.dim == 1:
        return RectProb(_exact_1d(lower[0], upper[0], df), 0.0, True, 0)
    if corr.dim <= 3:
        est, err, ok, used = _gl_estimate(
            corr.cholesky(), lower, upper, df, settings.target_abs_error
        )
    else:
        sampler = _SobolSampler(corr.cholesky(), df, settings)
        est, err, used, _ = sampler.estimate(lower, upper)
        ok = err <= settings.target_abs_error
    return RectProb(
        value=float(min(max(est, 0.0), 1.0)),
        error=float(err),
        converged=bool(ok),
        samples=used,
    )


def _quantile_bracket(alpha, tail, dim, df):
    if tail == "two-sided":
        p_lo, p_hi = 1.0 - alpha / 2.0, 1.0 - alpha / (2.0 * dim)
    else:
        p_lo, p_hi = 1.0 - alpha, 1.0 - alpha / dim
    if df is None:
        return float(ndtri(p_lo)), float(ndtri(p_hi))
    return float(stdtrit(df, p_lo)), float(stdtrit(df, p_hi))


def equicoordinate_quantile(
    corr: CorrelationMatrix,
    alpha: float,
    tail: str = "two-sided",
    df: int | None = None,
    settings: QuadratureSettings = QuadratureSettings(),
) -> float:
    """Critical value c with P(X in central rectangle at c) = 1 - alpha.

    ``tail="two-sided"`` solves P(-c <= X_r <= c for all r) = 1 - alpha;
    ``tail="one-sided"`` solves P(X_r <= c for all r) = 1 - alpha.  The
    answer always lies between the unadjusted and the Bonferroni quantile;
    bisection exploits that the rectangle probability is strictly
    increasing in c.  The root is located to 1e-5, well inside the 1e-4
    quantile contract; residual error is dominated by the quadrature.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if tail not in ("two-sided", "one-sided"):
        raise ValueError(f"tail must be 'two-sided' or 'one-sided', got {tail!r}")
    df = _check_df(df)
    lo, hi = _quantile_bracket(alpha, tail, corr.dim, df)
    if corr.dim == 1:
        return lo
    target = 1.0 - alpha

    def limits(c):
        if tail == "two-sided":
            return np.full(corr.dim, -c), np.full(corr.dim, c)
        return np.full(corr.dim, -np.inf), np.full(corr.dim, c)

    chol = corr.cholesky()
    if corr.dim <= 3:
        # The tensor rule is already deterministic and smooth in c; freeze
        # the ladder level that converged at the bracket midpoint.
        mid = 0.5 * (lo + hi)
        level = None
        prev = None
        for n in _GL_LADDER:
            est, _ = _gl_value(chol, *limits(mid), df, n)
            if prev is not None and abs(est - prev) <= settings.target_abs_error:
                level = n
                break
            prev = est
        level = level or _GL_LADDER[-1]

        def prob(c):
            return _gl_value(chol, *limits(c), df, level)[0]

    else:
        sampler = _SobolSampler(chol, df, settings)
        # Size the sample once at the bracket midpoint, then freeze it so
        # the bisection sees an exactly monotone function of c.
        mid = 0.5 * (lo + hi)
        _, _, _, n_per_shift = sampler.estimate(*limits(mid))

        def prob(c):
            return sampler.estimate_fixed(*limits(c), n_per_shift)[0]

    if prob(lo) >= target:
        return lo
    if prob(hi) <= target:
        return hi
    a, b = lo, hi
    while b - a > 1e-5:
        c = 0.5 * (a + b)
        if prob(c) < target:
            a = c
        else:
            b = c
    return 0.5 * (a + b)
