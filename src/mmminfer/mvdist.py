"""Rectangle probabilities and equicoordinate quantiles of multivariate
normal and multivariate t distributions.

This is the numerical kernel behind every adjusted p-value and simultaneous
confidence bound in the package.  All probabilities go through the
separation-of-variables transform of Genz, which turns the rectangle
probability into an integral of a smooth function over the unit cube of
dimension ``dim - 1`` (one more for multivariate t, whose chi scale factor
is the chi quantile of one more uniform coordinate, integrated by the same
rule as the others).  An infinite limit enters the integrand as its exact
conditional probability, 0 or 1, with no normal CDF evaluated for it, so
one-sided rectangles cost markedly less than two-sided ones.

Two evaluation strategies share that integrand:

* dimensions 2 and 3 use tensor Gauss-Legendre quadrature with an escalating
  node ladder; the error estimate is the difference between successive
  ladder levels, and the result is fully deterministic;
* higher dimensions use randomized quasi-Monte Carlo with scrambled Sobol
  points, one independent scramble per "shift".  The error estimate is three
  standard errors over the scrambles and the sample size doubles until the
  estimate meets the requested accuracy or the budget runs out.  Point sets
  are cached per dimension, seed and number of shifts, so repeated calls
  only pay for integrand evaluations.  The integrand streams through the
  cached points in blocks of at most 2**13 points (whole scrambles grouped
  while they fit, otherwise views into one scramble), so besides the
  caches one evaluation holds a few block-sized arrays and one value per
  sample, about 7 MB at dimension 9 with 12 shifts of 2**16 points, where
  whole-range arrays took over 100 MB.  The sums per scramble do not
  depend on the blocking.  On the multivariate-t path the radial factor of
  each point (its leading Sobol coordinate mapped through the chi quantile)
  is cached as well, per point set and df, for the first 2**14 points of
  each scramble; least recently used entries are dropped so the cache never
  holds more than 2**21 factors (16 MiB).

The univariate case is evaluated in closed form.  Equicoordinate quantiles
freeze one of these rules and solve for the critical value with Brent's
method.  The Gauss-Legendre ladder level is the one that meets the target
at the bracket midpoint.  The QMC sample size is the one that meets it at
c0, the root of the first-round rule (one round of points, 1/256 of a full
pass at the default settings); secant steps from c0 then bracket the root
tightly, so the AVERROES (dimension-9) quantile takes four to six
full-size passes where a search over the whole bracket took nine.

``pair_exceedance`` gives the bivariate probabilities P(|X_i| > b, |X_j| > b)
that the pairwise bounds of ``mmm.max_type_bounds`` need, for whole arrays
of edges and correlations at once.  By Plackett's identity each is a
one-dimensional integral of the bivariate density over the correlation,
closed form for normal and t alike, evaluated with Gauss-Legendre rules.
"""

from __future__ import annotations

import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaincinv, ndtr, ndtri, roots_legendre, stdtr, stdtrit
from scipy.stats import qmc

from .errors import NotPSD

__all__ = [
    "CorrelationMatrix",
    "validate_correlation",
    "QuadratureSettings",
    "RectProb",
    "mv_rect_prob",
    "pair_exceedance",
    "equicoordinate_quantile",
]

_TINY = 1e-15
_EIG_FLOOR = 1e-10
# Gauss-Legendre node ladder for the low-dimensional deterministic path; at
# level n every coordinate, the radial one of multivariate t included, gets
# the same n nodes.
_GL_LADDER = (12, 16, 24, 32, 48)
# Highest dimension evaluated by the tensor Gauss-Legendre rules; QMC above.
_GL_MAX_DIM = 3
# Gauss-Legendre levels of ``pair_exceedance`` and the floor of its error
# estimate, well above round-off.  Against adaptive quadrature (b 1.9 to 3.2,
# |rho| <= 0.999, df 3 to normal) 12 nodes are within 5e-10 and 24 within
# 1e-15.
_PAIR_LEVELS = (12, 24)
_PAIR_ERROR_FLOOR = 1e-12


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy and reproducibility knobs for the quadrature.

    ``max_samples`` caps the total number of integrand evaluations per call
    (points times scrambles, summed over doubling rounds) on the randomized
    path, and must cover the first round.  ``seed``, ``shifts`` and
    ``first_round_samples`` only affect that path; the low-dimensional rules
    are deterministic.
    """

    target_abs_error: float = 5e-5
    max_samples: int = 1_500_000
    seed: int = 20150436
    shifts: int = 12
    first_round_samples: int = 256

    def __post_init__(self):
        # bool is an Integral, but True is no accuracy or count
        target = self.target_abs_error
        if isinstance(target, bool) or not 0.0 < target < math.inf:
            raise ValueError("target_abs_error must be positive and finite")
        # two shifts at least, for an error estimate
        for name, least in (("shifts", 2), ("max_samples", 1), ("first_round_samples", 1)):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not integral or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        # a cap below one first round would cap nothing
        first = self.shifts * _round_points(self.first_round_samples)
        if self.max_samples < first:
            raise ValueError(
                f"max_samples must cover one first round of shifts x "
                f"first_round_samples (rounded up to a power of two) = {first}, "
                f"got {self.max_samples}"
            )


@dataclass(frozen=True)
class RectProb:
    """Probability estimate with its accuracy diagnostics.

    ``converged`` is False when the error estimate missed the target: the
    budget ran out, or a ``decide_at`` call stopped once its side was clear.
    ``samples`` counts integrand evaluations (0 for the closed-form case).
    """

    value: float
    error: float
    converged: bool
    samples: int


def validate_correlation(entries) -> np.ndarray:
    """Checked, symmetrized copy of one (d, d) or a stack (..., d, d) of
    correlation matrices.

    Every matrix must be symmetric (within 1e-12) with a unit diagonal
    (within 1e-8), off-diagonal entries in [-1, 1] (within 1e-10) and no
    eigenvalue below -1e-8; a stack fails when any of its matrices does.
    The copy is symmetrized, clipped to [-1, 1] and has an exact unit
    diagonal.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"correlation matrix must be square, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("correlation matrix has non-finite entries")
    if np.max(np.abs(a - np.swapaxes(a, -1, -2))) > 1e-12:
        raise ValueError("correlation matrix is not symmetric (tol 1e-12)")
    diag = np.arange(a.shape[-1])
    if np.max(np.abs(a[..., diag, diag] - 1.0)) > 1e-8:
        raise ValueError("correlation matrix diagonal must be 1")
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    a[..., diag, diag] = 1.0
    off = a[..., ~np.eye(a.shape[-1], dtype=bool)]
    if off.size and np.max(np.abs(off)) > 1.0 + 1e-10:
        raise ValueError("off-diagonal correlations must lie in [-1, 1]")
    if np.any(np.linalg.eigvalsh(a)[..., 0] < -1e-8):
        raise NotPSD("correlation matrix has eigenvalue below -1e-8")
    np.clip(a, -1.0, 1.0, out=a)
    a[..., diag, diag] = 1.0
    return a


class CorrelationMatrix:
    """Symmetric unit-diagonal PSD matrix driving the quadrature.

    Construction validates the entries with :func:`validate_correlation`.
    Near-singular matrices are accepted; their Cholesky factor is computed
    after clipping eigenvalues at 1e-10, so duplicated models (correlation
    exactly 1) are legal inputs.
    """

    __slots__ = ("dim", "entries", "_chol")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"correlation matrix must be square, got {a.shape}")
        self._wrap(validate_correlation(a))

    def _wrap(self, checked):
        checked.flags.writeable = False
        self.dim = checked.shape[0]
        self.entries = checked
        self._chol = None

    @classmethod
    def _checked(cls, checked) -> "CorrelationMatrix":
        """Wrap one (d, d) matrix of a ``validate_correlation`` result without
        repeating its checks."""
        corr = cls.__new__(cls)
        corr._wrap(np.array(checked, dtype=float))
        return corr

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
    upstream).  An infinite limit has conditional probability exactly 0
    (lower) or 1 (upper); it is carried as None, so it costs no ``ndtr`` pass
    and no arithmetic, and the values are bit for bit those of the full
    formula.
    """
    nvar = chol.shape[0]
    scale = 1.0 if radial is None else radial  # strictly positive

    def cdf(limit, mu, sd):
        return None if math.isinf(limit) else ndtr((limit * scale - mu) / sd)

    def width(d, e):
        if d is None:
            return e
        return 1.0 - d if e is None else e - d

    d = cdf(lower[0], 0.0, chol[0, 0])
    e = cdf(upper[0], 0.0, chol[0, 0])
    f = span = width(d, e)
    y = np.empty((w.shape[0], nvar - 1))
    for i in range(1, nvar):
        u = w[:, i - 1] if span is None else w[:, i - 1] * span
        if d is not None:
            u = d + u
        y[:, i - 1] = ndtri(np.clip(u, _TINY, 1.0 - _TINY))
        mu = y[:, :i] @ chol[i, :i]
        d = cdf(lower[i], mu, chol[i, i])
        e = cdf(upper[i], mu, chol[i, i])
        span = width(d, e)
        if span is not None:
            both = d is not None and e is not None
            factor = np.maximum(span, 0.0) if both else span
            f = factor if f is None else f * factor
    # f stays None or a scalar when every factor after the first is open
    return f if np.ndim(f) else np.full(w.shape[0], 1.0 if f is None else f)


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
def _radial_nodes(n: int, df: int):
    """Chi scale factors at the ``n`` Gauss-Legendre nodes on (0, 1), and
    the nodes' weights."""
    x, wt = _tensor_rule(n, 1)
    return _radial_factors(x[:, 0], df), wt


def _gl_value(chol, lower, upper, df, n):
    """One evaluation of the tensor rule at ladder level ``n``.

    For multivariate t the level's own nodes, mapped through the chi
    quantile, are the radial rule, so its error shrinks with the ladder and
    enters the ladder's error estimate.  The radial nodes are grouped so that
    no ``_genz_weights`` call sees more than ``_BLOCK_POINTS`` points.
    """
    q = chol.shape[0] - 1
    pts, ww = _tensor_rule(n, q)
    if df is None:
        return float(_genz_weights(chol, lower, upper, pts) @ ww), len(ww)
    s, ws = _radial_nodes(n, df)
    npts = len(ww)
    rows = max(_BLOCK_POINTS // npts, 1)  # radial nodes per call
    w = np.tile(pts, (min(rows, n), 1))
    est = 0.0
    for a in range(0, n, rows):
        b = min(a + rows, n)
        radial = np.repeat(s[a:b], npts)
        vals = _genz_weights(chol, lower, upper, w[: len(radial)], radial)
        est += ws[a:b] @ (vals.reshape(b - a, npts) @ ww)
    return float(est), n * npts


def _decided(est, err, decide_at, target):
    """The stop rule of a ``decide_at`` call (None: never stops): ``est``
    lies farther from ``decide_at`` than its error and twice ``target``."""
    return decide_at is not None and abs(est - decide_at) > max(err, 2.0 * target)


def _gl_estimate(chol, lower, upper, df, target, decide_at=None):
    """Escalate the node ladder until two levels agree within ``target``, or
    their estimate is ``_decided`` against ``decide_at``.

    Returns (estimate, error, samples, level), where ``level`` is the ladder
    level of the estimate (the top level when no stop was met).
    """
    total, prev = 0, None
    for n in _GL_LADDER:
        est, used = _gl_value(chol, lower, upper, df, n)
        total += used
        if prev is not None:
            err = abs(est - prev)
            if err <= target or _decided(est, err, decide_at, target):
                break
        prev = est
    return est, err, total, n


def pair_exceedance(b, rho, df=None):
    """P(|X_1| > b, |X_2| > b) for a standard bivariate normal or t_df with
    correlation ``rho``, elementwise over broadcast arrays of edges ``b``,
    correlations and dfs.

    Returns ``(value, error)``.  With rho = sin(theta), Plackett's identity
    dP/dtheta = (1/pi) [g(1 + sin theta) - g(1 - sin theta)] holds, where
    g(w) = exp(-b^2 / w) for the normal and (1 + 2 b^2 / (df w))^(-df/2) for
    the t (the mixture of g over the t's chi scale).  Integrated down from
    |rho| = 1, where the probability is the closed-form p1 = P(|X_1| > b),
    and with the half angle psi = (pi/2 - theta) / 2,

        P = p1 - (2/pi) int_0^{arccos(|rho|)/2} [g(2 cos^2 psi) - g(2 sin^2 psi)] dpsi,

    a smooth integrand on a short interval.  It is evaluated with the two
    Gauss-Legendre rules of ``_PAIR_LEVELS``; the value is the finer one and
    the error their difference plus a floor above round-off.
    """
    b, rho = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(rho, dtype=float))
    half = 0.5 * np.arccos(np.minimum(np.abs(rho), 1.0))
    b2 = (b * b)[..., None]
    if df is None:
        p1 = 2.0 * ndtr(-b)

        def g(w):
            return np.exp(-b2 / w)

    else:
        nu = np.broadcast_to(np.asarray(df, dtype=float), b.shape)[..., None]
        p1 = 2.0 * stdtr(nu[..., 0], -b)

        def g(w):
            return np.exp(-0.5 * nu * np.log1p(2.0 * b2 / (nu * w)))

    est = []
    for n in _PAIR_LEVELS:
        x, wt = _tensor_rule(n, 1)
        psi = half[..., None] * x[:, 0]
        # 2 sin^2 psi vanishes only at |rho| = 1, where the interval is empty
        low = np.maximum(2.0 * np.sin(psi) ** 2, np.finfo(float).tiny)
        with np.errstate(over="ignore"):
            est.append(half * ((g(2.0 * np.cos(psi) ** 2) - g(low)) @ wt))
    value = p1 - (2.0 / np.pi) * est[-1]
    error = (2.0 / np.pi) * np.abs(est[-1] - est[0]) + _PAIR_ERROR_FLOOR
    return value, error


# ---------------------------------------------------------------------------
# randomized high-dimensional rule

# Scrambled Sobol point sets, keyed by (qdim, seed, shifts) and grown on
# demand; entries hold the engines (whose streams continue across calls) and
# the points drawn so far, shaped (shifts, n, qdim).
_SOBOL_CACHE: dict = {}

# Most points the integrand sees in one call, on the QMC path and on the
# Gauss-Legendre t path: a dimension-9 block then keeps its working arrays
# (about 1 MB) in cache.  On AVERROES, 2**11 to 2**13 ran alike and 2**14
# or more lost most of the gain (BENCH_5.json).
_BLOCK_POINTS = 1 << 13


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
    have = pts.shape[1]
    if n > have:
        # grow in place: one new array, the old one dropped before the draws
        grown = np.empty((settings.shifts, n, qdim))
        grown[:, :have] = pts
        entry[1] = pts = grown
        for eng, block in zip(engines, grown[:, have:]):
            block[...] = eng.random(n - have)
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


def _round_points(first_round_samples):
    """Points per scramble of the first QMC round: ``first_round_samples``
    rounded up to a power of two (2 at least), which keeps the Sobol point
    sets balanced."""
    return 1 << max(math.ceil(math.log2(first_round_samples)), 1)


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

    ``estimate`` integrates a given rectangle adaptively, doubling the
    sample; ``estimate_fixed`` stops at a caller-chosen size on the same
    points and rounds, so at that size it is a fixed deterministic function
    of the limits, equal bit for bit to ``estimate`` where that stopped.
    ``equicoordinate_quantile`` freezes it at the size ``estimate`` chooses
    at the root of the first-round rule.  It need not be monotone in the
    limits: with off-diagonal Cholesky entries, moving one limit shifts the
    later coordinates' conditional limits at every fixed point.

    Points come from the cache of ``_sobol_points``, keyed by integrand
    dimension, seed and number of shifts.  The integrand streams through
    them in blocks of at most ``_BLOCK_POINTS`` points, so the transient
    memory of one evaluation is a few arrays of that many points (a few
    MB at dimension 9) plus one float per sample for the values, whatever
    the sample size.
    """

    def __init__(self, chol, df, settings: QuadratureSettings):
        self.chol = chol
        self.df = df
        self.qdim = chol.shape[0] - 1 + (1 if df is not None else 0)
        self.settings = settings

    def _sums(self, lower, upper, start, count):
        """Integrand sums per scramble over points [start, start + count).

        The integrand is evaluated one block of at most ``_BLOCK_POINTS``
        points at a time: whole scrambles grouped while they fit in a block,
        else consecutive runs of one scramble's points read as views.  The
        values land in one (shifts, count) array, summed as a whole, so the
        sums do not depend on the blocking.
        """
        shifts = self.settings.shifts
        end = start + count
        pts = _sobol_points(self.qdim, self.settings, end)
        radial = None
        if self.df is not None and end <= _RADIAL_POINTS:
            radial = _cached_radial(pts, self.settings, self.df, end)
        rows = max(_BLOCK_POINTS // count, 1)  # scrambles per block
        width = min(count, _BLOCK_POINTS)  # points per scramble per block
        vals = np.empty((shifts, count))
        for j in range(0, shifts, rows):
            for a in range(start, end, width):
                b = min(a + width, end)
                w = pts[j : j + rows, a:b].reshape(-1, self.qdim)
                if self.df is None:
                    block = _genz_weights(self.chol, lower, upper, w)
                else:
                    if radial is None:
                        u = np.clip(w[:, 0], _TINY, 1.0 - _TINY)
                        scale = _radial_factors(u, self.df)
                    else:
                        scale = radial[j : j + rows, a:b].reshape(-1)
                    block = _genz_weights(self.chol, lower, upper, w[:, 1:], scale)
                vals[j : j + rows, a - start : b - start] = block.reshape(-1, b - a)
        return vals.sum(axis=1)

    def _rounds(self, lower, upper):
        """Integrand sums per scramble after each doubling round, as (sums,
        points per scramble): the first round has ``_round_points`` points,
        each later one as many as all before it.  ``estimate`` and
        ``estimate_fixed`` both accumulate these rounds, so at equal sizes
        their values are bit for bit equal."""
        count = _round_points(self.settings.first_round_samples)
        sums = self._sums(lower, upper, 0, count)
        while True:
            yield sums, count
            sums = sums + self._sums(lower, upper, count, count)
            count *= 2

    def _value(self, sums, count):
        """Estimate and error (three standard errors over the scrambles)."""
        means = sums / count
        est = float(means.mean())
        err = 3.0 * float(means.std(ddof=1)) / np.sqrt(self.settings.shifts)
        return est, err

    def estimate_fixed(self, lower, upper, n_per_shift):
        """Estimate and error at ``n_per_shift`` points per scramble, a size
        ``estimate`` can stop at: the first round times a power of two."""
        ratio, rest = divmod(n_per_shift, _round_points(self.settings.first_round_samples))
        if rest or ratio < 1 or ratio & (ratio - 1):
            raise ValueError(f"no doubling round ends at {n_per_shift} points")
        for sums, count in self._rounds(lower, upper):
            if count == n_per_shift:
                return self._value(sums, count)

    def estimate(self, lower, upper, decide_at=None):
        """Double the sample until the error meets the target, the next
        round would pass ``max_samples`` or the estimate is ``_decided``
        against ``decide_at``; returns (estimate, error, samples, points per
        scramble)."""
        s = self.settings
        for sums, count in self._rounds(lower, upper):
            est, err = self._value(sums, count)
            total = count * s.shifts
            done = err <= s.target_abs_error or total * 2 > s.max_samples
            if done or _decided(est, err, decide_at, s.target_abs_error):
                return est, err, total, count


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
    *,
    decide_at: float | None = None,
) -> RectProb:
    """P(lower <= X <= upper) for X ~ N(0, corr) or t_df(corr).

    Open limits are expressed with ``-inf`` / ``+inf``.  The result is
    deterministic for a fixed ``settings.seed`` (and unconditionally in
    dimension three and below, where deterministic quadrature is used).
    With ``decide_at``, a probability, the doubling rounds (or the node
    ladder) also stop at the first estimate farther from it than both its
    error and twice the target; such a call reports ``converged=False``
    with its achieved error.
    """
    df = _check_df(df)
    if decide_at is not None and not 0.0 <= decide_at <= 1.0:
        raise ValueError(f"decide_at must be a probability in [0, 1], got {decide_at!r}")
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
    chol, target = corr.cholesky(), settings.target_abs_error
    if corr.dim <= _GL_MAX_DIM:
        est, err, used, _ = _gl_estimate(chol, lower, upper, df, target, decide_at)
    else:
        est, err, used, _ = _SobolSampler(chol, df, settings).estimate(lower, upper, decide_at)
    return RectProb(float(min(max(est, 0.0), 1.0)), float(err), bool(err <= target), used)


def _quantile_bracket(alpha, tail, dim, df):
    if tail == "two-sided":
        p_lo, p_hi = 1.0 - alpha / 2.0, 1.0 - alpha / (2.0 * dim)
    else:
        p_lo, p_hi = 1.0 - alpha, 1.0 - alpha / dim
    if df is None:
        return float(ndtri(p_lo)), float(ndtri(p_hi))
    return float(stdtrit(df, p_lo)), float(stdtrit(df, p_hi))


def _root(excess, a, b, at_a, at_b):
    """Brent's root of ``excess`` on [a, b] to 1e-5, given its values at both
    ends, which must differ in sign; the ends cost no evaluation."""
    known = {a: at_a, b: at_b}

    def f(c):
        # brentq starts at the endpoints, whose values are already known
        return known.pop(c) if c in known else excess(c)

    return float(brentq(f, a, b, xtol=1e-5))


def _edge_or_root(excess, lo, hi):
    """Root of ``excess`` on [lo, hi], or the edge where it already has the
    root's side: ``lo`` when excess(lo) >= 0, else ``hi`` when
    excess(hi) <= 0.  Also returns every value it computed, by point."""
    seen = {}

    def f(c):
        seen[c] = excess(c)
        return seen[c]

    if f(lo) >= 0.0:
        return lo, seen
    if f(hi) <= 0.0:
        return hi, seen
    return _root(f, lo, hi, seen[lo], seen[hi]), seen


def _qmc_sizing(sampler, limits, lo, hi, target):
    """Size the frozen QMC rule at the root of the first-round rule.

    The first-round rule (one round of ``_round_points`` points per scramble)
    is solved on [lo, hi] for its root c0, which fixes the frozen sample size:
    the one ``sampler.estimate`` stops at, at c0.  Returns (points per
    scramble, c0, the frozen rule's excess over ``target`` at c0, the
    first-round slope at c0).  The slope is the secant through c0 and the
    nearest other first-round evaluation, which is within 1e-5 of c0 after a
    root-find and the other edge otherwise.
    """
    first = _round_points(sampler.settings.first_round_samples)
    c0, seen = _edge_or_root(
        lambda c: sampler.estimate_fixed(*limits(c), first)[0] - target, lo, hi
    )
    if len(seen) == 1:  # the edge rule at lo settled it
        seen[hi] = sampler.estimate_fixed(*limits(hi), first)[0] - target
    near = min((c for c in seen if c != c0), key=lambda c: abs(c - c0))
    slope = (seen[c0] - seen[near]) / (c0 - near)
    est, _, _, n_per_shift = sampler.estimate(*limits(c0))
    return n_per_shift, c0, est - target, slope


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
    answer always lies between the unadjusted and the Bonferroni quantile.
    The rectangle probability is evaluated by one frozen rule, a fixed
    deterministic function of c, whose crossing of 1 - alpha Brent's method
    locates to 1e-5, well inside the 1e-4 quantile contract; it needs only a
    sign change over a bracket, not monotonicity point by point, and the
    residual error is dominated by the quadrature.  An edge of the bracket
    where the frozen rule already lies on the root's side is the answer.

    * Dimension 3 and below freeze the Gauss-Legendre ladder level that meets
      the accuracy target at the bracket midpoint, and Brent's method runs
      on the whole bracket.
    * Higher dimensions first solve the cheap first-round QMC rule (1/256 of
      a full pass at the default settings) for c0, and freeze the sample
      size that meets the target at c0.  That sizing estimate is also the
      frozen rule's value at c0.  A secant step from c0 with the first-round
      slope, and if it falls short, secant steps with the frozen rule's own
      slope widened 2, 4, ... times, bracket the root tightly, so Brent's
      method needs few full-size evaluations.  No step leaves the bracket.
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
    if corr.dim <= _GL_MAX_DIM:
        mid = 0.5 * (lo + hi)
        level = _gl_estimate(chol, *limits(mid), df, settings.target_abs_error)[3]
        return _edge_or_root(
            lambda c: _gl_value(chol, *limits(c), df, level)[0] - target, lo, hi
        )[0]

    sampler = _SobolSampler(chol, df, settings)
    n_per_shift, a, at_a, slope = _qmc_sizing(sampler, limits, lo, hi, target)

    def excess(c):
        return sampler.estimate_fixed(*limits(c), n_per_shift)[0] - target

    # Secant steps, widened 1, 2, 4, ... times until the sign changes; after
    # the first, the slope is the frozen rule's own, through its last two
    # points.  The root lies below a point of positive excess and above one
    # of negative, so a flat or falling slope steps across the bracket.
    widen = 1.0
    while at_a != 0.0:
        step = widen * -at_a / slope if slope > 0.0 else math.copysign(hi - lo, -at_a)
        b = min(max(a + step, lo), hi)
        if b == a:  # a is the edge beyond which the root lies
            return a
        at_b = excess(b)
        if (at_b > 0.0) != (at_a > 0.0):  # brentq returns b if at_b is 0
            return _root(excess, a, b, at_a, at_b)
        slope = (at_b - at_a) / (b - a)
        a, at_a, widen = b, at_b, 2.0 * widen
    return a
