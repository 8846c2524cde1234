"""Rectangle probabilities and equicoordinate quantiles of multivariate
normal and multivariate t distributions, the numerical kernel behind every
adjusted p-value and simultaneous confidence bound in the package.

* Dimension 1 is closed form.
* Dimensions 2 and 3 are exact at a fixed cost.  A rectangle of a rank-2
  law is a convex polygon in its two factor coordinates, and a spherical
  bivariate law puts 1 - (1/2 pi) int S(r(theta)) dtheta on a polygon around
  the origin, r(theta) being the distance to the edge in direction theta and
  S(r) the probability beyond r.  Each edge adds a one-dimensional integral,
  Owen's T for the normal (Owen 1956, Ann. Math. Statist. 27) and
  Gauss-Legendre rules for the t; a rectangle that excludes the origin is a
  signed sum of ones that contain it.  This is the polygon form of
  Plackett's reduction (Genz 2004, Statistics and Computing 14).  A
  full-rank dimension-3 law integrates Plackett's identity itself (Plackett
  1954, Biometrika 41) by Gauss-Legendre rules along a path of correlation
  matrices from the rank-2 law in which the most correlated pair coincides,
  whose rectangle is such a polygon (``_plackett_path``); the same path
  gives ``triple_exceedance``.  The error is the gap between two node
  counts plus a floor above round-off.
* Higher dimensions integrate the separation-of-variables transform of Genz
  over the unit cube of dimension ``dim - 1`` (one more for multivariate t,
  whose chi scale is the chi quantile of one more uniform coordinate) by
  randomized quasi-Monte Carlo: scrambled Sobol points, one independent
  scramble per "shift", the error three standard errors over the scrambles,
  the sample doubling until it meets the target or the budget runs out.
  The points are scipy's scrambled Sobol points bit for bit, computed here
  by index from each scramble's shift and direction numbers
  (``_sobol_range``), so neither scipy.stats nor an engine's state is
  needed.  The integrand streams through blocks of at most
  ``_BLOCK_POINTS`` points, each computed from its index range when it is
  evaluated, scaled to floats and summed at once, so neither points nor
  values are kept.  The t path's chi scale s interpolates a 57 KB table of
  log s per df (``_chi_scale``; 32 tables kept), within a relative 1e-12 of
  ``gammaincinv``, which moves a probability by about 1e-12 * dim * b.
  Where a pivot of the Cholesky factor is tiny, as for a near-singular
  correlation, the standardized limit of most points lies at or above 9 or
  below -40, where Phi is exactly 1 or 0 in double precision; a block where
  most points do writes those values there instead of calling ``ndtr``
  (``_ndtr_saturating``), which changes no bit of the integrand.
* ``max_abs_prob``, P(|X_r| <= b for every r), keeps those points, rounds
  and error but integrates along rays from the origin (the spherical-radial
  rule, ``_ray_weights``): d coordinates give a direction, and the radius at
  which the ray leaves the box has a chi (normal) or F (t) law in closed
  form.  The box is centred on the origin, so the integrand is continuous
  in the direction whatever the correlation's rank, where Genz's converges
  at about the plain Monte Carlo rate on a near-singular one.  The
  simulation's open decisions take it; ``mv_rect_prob``, and with it every
  reported p-value and quantile, keeps the Genz rule, which also serves
  one-sided boxes.

Equicoordinate quantiles solve the exact probability with Brent's method at
dimensions 2 and 3, and above it one frozen QMC rule (see
``equicoordinate_quantile``); ``_brent`` is scipy's ``brentq`` step for
step, so scipy.optimize is not needed either.  ``pair_exceedance`` and
``triple_exceedance`` give the bivariate and trivariate exceedances that the
pairwise and triplewise bounds of ``mmm.max_type_bounds`` need, one df per
element (inf: normal), in slices of bounded memory (``_sliced``).
"""

from __future__ import annotations

import math
import numbers
import os
import zipfile
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import numpy.lib.format as npy_format
import scipy
from scipy.special import betainc, chdtr, eval_legendre, fdtr, gammainccinv, gammaincinv, gammaln
from scipy.special import ndtr, ndtri, owens_t, stdtr, stdtrit

from .errors import NotPSD

__all__ = [
    "CorrelationMatrix",
    "validate_correlation",
    "QuadratureSettings",
    "RectProb",
    "mv_rect_prob",
    "max_abs_prob",
    "pair_exceedance",
    "triple_exceedance",
    "equicoordinate_quantile",
]

_TINY = 1e-15
_EIG_FLOOR = 1e-10
# Highest dimension evaluated exactly; QMC above.
_EXACT_MAX_DIM = 3
# Floor of every exact rule's error estimate, well above round-off.
_ERROR_FLOOR = 1e-12
# Gauss-Legendre levels of ``pair_exceedance``.  Against adaptive quadrature
# (b 1.9 to 3.2, |rho| <= 0.999, df 3 to normal) 12 nodes are within 5e-10
# and 24 within 1e-15.
_PAIR_LEVELS = (12, 24)
# Gauss-Legendre levels of ``triple_exceedance``.  Against inclusion-exclusion
# over the exact rule of dimensions 2 and 3 (b 1.5 to 3.8, ranks 1 to 3,
# normal and df 1 to 100), the reported error covered the actual one in 2,000
# random triples with every |rho| up to 0.999, and was at most 3.5e-6; (4, 8)
# missed twice.
_TRIPLE_LEVELS = (8, 16)
# Levels of each panel of the Plackett path of a full-rank dimension-3
# rectangle: within 2e-14 of the 36 full-rank references of
# tests/data/exact_oracle_dim3.json and 2e-15 of (128, 256) on 547 random
# rectangles, never beyond the reported error.
_PATH_LEVELS = (16, 32)
# Levels of ``triple_exceedance`` where some |rho| exceeds _NEAR_ONE: rank-2
# triples that nearly coincide turn sharply at the end of the path, and
# against the polygon rule (8, 16) reported less error than it made on 72
# of 996 of them, (16, 64) on 2 of 2,984, each with a pair within 1e-13 of
# +-1, where the float inputs leave P uncertain by 1e-11.
_NEAR_ONE, _NEAR_LEVELS = 0.999, (16, 64)
# Elements times Gauss-Legendre nodes of one slice of ``_sliced``: a slice
# of ``triple_exceedance`` peaks at about 6 MB (normal) and 9 MB (df 18).
_SLICE_FLOATS = 2**14
# Integer dfs up to this take the finite series of the t CDF (``_t_cdf``),
# whose cost grows with df: on the 3,840 values of one dimension-6 row of
# ``triple_exceedance`` it is 0.13 ms at df 30, 1.1 ms at 500 and overtakes
# ``stdtr`` (1.6 ms) between 700 and 800.  Every residual df of the paper's
# designs (N up to 500) takes the series.
_T_SERIES_MAX_DF = 512
# Gauss-Legendre rules (error, value) per panel of the t wedge, its longest
# panel, and the clearance of its direct form: within 3e-15 of adaptive
# quadrature (h 1e-12 to 8, df 1 to 1000; a clearance of 0.15 lost 1e-12).
# Below distance _FLAT the wedge is taken as that of distance 0.
_WEDGE_NODES, _WEDGE_PANEL, _CLEAR, _FLAT = (12, 24), 3.0, 0.35, 1e-13
# A dimension-3 law with an eigenvalue at most this is taken as rank 2.
_RANK_TOL = 1e-12
# Brent tolerance in c of the exact quantiles, and the relative tolerance of
# every Brent root (scipy's, a Python float so the iterates stay floats).
_EXACT_XTOL = 1e-7
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
# The QMC quantile walks on a rule of 1/_ANCHOR_SHARE of the frozen sample
# anchored at its first full-size value, then takes secant steps on the
# frozen rule while their predicted miss exceeds _STEP_TOL, half the 1e-5
# root tolerance (``equicoordinate_quantile``).
_ANCHOR_SHARE, _STEP_TOL = 16, 5e-6
# Phi(x) in double precision is exactly 1.0 from _PHI_ONE up (1 - Phi(9) is
# 1.1e-19, below half an ulp of 1) and exactly 0.0 below _PHI_ZERO (Phi(-40)
# is about 4e-350, below the least subnormal, 4.9e-324).
_PHI_ONE, _PHI_ZERO = 9.0, -40.0


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy and reproducibility knobs for the quadrature.

    ``max_samples`` caps the total number of integrand evaluations per call
    (points times scrambles, summed over doubling rounds) on the randomized
    path, and must cover the first round.  ``seed``, ``shifts`` and
    ``first_round_samples`` only affect that path.  Dimensions 2 and 3 are
    exact at a fixed cost; there ``target_abs_error`` only sets ``converged``.
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
        # two shifts at least, for an error estimate; a seed of None would
        # draw fresh OS entropy, so no two processes would agree
        least_values = (("shifts", 2), ("max_samples", 1), ("first_round_samples", 1), ("seed", 0))
        for name, least in least_values:
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
    budget ran out, or a ``decide_at`` call stopped once its side was clear,
    which ``decided`` records.  ``samples`` counts integrand evaluations on
    the QMC path (points times scrambles), the polygons whose probability the
    exact rule summed at dimensions 2 and 3 plus, for a full-rank law, the
    evaluations of its Plackett path (one per finite corner of a face and
    node of either rule), and 0 at dimension 1.
    """

    value: float
    error: float
    converged: bool
    samples: int
    decided: bool = False


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


def _ndtr_saturating(x):
    """``ndtr`` of a float array, in place, skipping the points where Phi is
    exactly 0 or 1 whenever they are the majority: those at x >= ``_PHI_ONE``
    are written 1.0 and those below ``_PHI_ZERO`` 0.0, the values ``ndtr``
    returns there, and every other point, NaN included, goes through
    ``ndtr``.  Either way the values are those of one plain ``ndtr`` pass,
    which a block takes when at most half of it saturates: there the gather
    and scatter cost more than the ``ndtr`` calls they save.  (A ``where=``
    mask on a scipy.special ufunc, which would spare the gather, corrupted
    the heap with numpy 2.4 and scipy 1.17.)
    """
    one = x >= _PHI_ONE
    saturated = x < _PHI_ZERO
    saturated |= one
    if 2 * np.count_nonzero(saturated) <= x.size:
        return ndtr(x, out=x)
    live = ~saturated
    x[live] = ndtr(x[live])
    np.copyto(x, one, where=saturated)
    return x


def _genz_weights(chol, lower, upper, w, radial=None):
    """Genz transform integrand for P(lower <= X <= upper), X ~ N(0, LL').

    ``w`` holds the quadrature points, one row per point; ``radial``
    optionally carries per-point chi scale factors s for the multivariate t
    case (``_chi_scale``, within a relative e = 1e-12 of the scale from
    ``gammaincinv``, which moves the value by about e * dim * max |limit|;
    ``gammaincinv`` is itself up to 2.4e-12 off the true chi scale at df
    10^6 near u = 1e-6, by mpmath).  Requires dim >= 2 (the 1-d case is
    handled in closed form upstream).  An infinite limit has conditional probability exactly 0
    (lower) or 1 (upper); it is carried as None, so it costs no ``ndtr`` pass
    and no arithmetic.  A finite limit's conditional probability goes
    through ``_ndtr_saturating``, which skips ``ndtr`` where most points of
    the block have it exactly 0 or 1, as at the tiny pivots of a
    near-singular correlation.  The other temporaries are written in place
    into a few buffers of one value per point, and the conditional means
    keep their one matrix-vector product per coordinate, so the values are
    bit for bit those of the full formula.
    """
    n, nvar = w.shape[0], chol.shape[0]
    scale = 1.0 if radial is None else radial  # strictly positive

    def cdf(limit, mu, sd, out):
        if math.isinf(limit):
            return None
        x = np.subtract(limit * scale, mu, out=out)
        x /= sd
        return _ndtr_saturating(x) if np.ndim(x) else ndtr(x)

    def width(d, e, out):
        if d is None:
            return e
        return np.subtract(1.0 if e is None else e, d, out=out)

    d = cdf(lower[0], 0.0, chol[0, 0], None)
    e = cdf(upper[0], 0.0, chol[0, 0], None)
    span = width(d, e, None)
    f = np.full(n, 1.0 if span is None else span)
    y = np.empty((n, nvar - 1))
    u, d_out = np.empty(n), np.empty(n)
    for i in range(1, nvar):
        if span is None:
            u[:] = w[:, i - 1]
        else:
            np.multiply(w[:, i - 1], span, out=u)
        if d is not None:
            u += d
        ndtri(np.clip(u, _TINY, 1.0 - _TINY, out=u), out=y[:, i - 1])
        mu = y[:, :i] @ chol[i, :i]
        # the upper limit's probability and the width overwrite mu, a fresh
        # array each coordinate, which the next coordinate only reads
        d = cdf(lower[i], mu, chol[i, i], d_out)
        e = cdf(upper[i], mu, chol[i, i], mu)
        span = width(d, e, mu)
        if span is not None:
            f *= np.maximum(span, 0.0, out=u) if d is not None and e is not None else span
    return f


def _ray_weights(chol, b, df, w, work):
    """Spherical-radial integrand of P(|X_r| <= b for every r), X = L Z with
    Z standard normal in d dimensions, or that over the t's chi scale
    (Deak 1980, Numer. Math. 35; Genz & Bretz 2009, LNS 195, sec. 4.1.2).

    Each row of ``w``, d uniforms, gives z = ndtri(w), in place, a direction
    u = z / |z| uniform on the sphere.  Along it X = R L u with R^2 ~
    chi^2_d, so the box holds X while R <= b / m, m = max_r |(L u)_r|: the
    point's value is ``chdtr(d, b^2 / m^2)``, and for the t, whose R^2 / d
    is F(d, df), ``fdtr(d, df, b^2 / (d m^2))``.  The box is centred on the
    origin, so the value is continuous in u whatever L's pivots.  ``work``
    holds at least 3 floats per point: (L z)_r for one r at a time, the
    running maximum of its square, and |z|^2, then the values, which are
    returned as a view of it.  (One (n, d) product per block, in a buffer
    of d more floats per point, raised peak memory at no gain in speed.)
    """
    n, d = w.shape
    # a coordinate of 0 would make z infinite
    z = ndtri(np.maximum(w, _TINY, out=w), out=w)
    y, top, x = work[:n], work[n : 2 * n], work[2 * n : 3 * n]
    top.fill(0.0)
    for r in range(d):
        np.matmul(z[:, : r + 1], chol[r, : r + 1], out=y)
        y *= y
        np.maximum(top, y, out=top)
    np.einsum("ij,ij->i", z, z, out=x)
    x *= b * b if df is None else b * b / d
    x /= top
    return chdtr(d, x, out=x) if df is None else fdtr(d, df, x, out=x)


# ---------------------------------------------------------------------------
# exact rules of dimensions 2 and 3


@lru_cache(maxsize=8)
def _gl_rule(n: int):
    """Gauss-Legendre nodes and weights of ``n`` points on (0, 1).

    Bit for bit scipy's ``roots_legendre`` mapped to (0, 1), by its own
    recipe (Golub & Welsch 1969, Math. Comp. 23): the eigenvalues of the
    Jacobi matrix, one Newton step on P_n, weights from P_(n-1) and P_n'
    scaled in logs, both symmetrized.  Only the eigenvalues come from
    numpy's ``eigvalsh`` rather than ``scipy.linalg``, which is never
    imported.
    """
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k * np.sqrt(1.0 / (4 * k * k - 1)), -1))
    y = eval_legendre(n, x)
    dy = (-n * x * y + n * eval_legendre(n - 1, x)) / (1 - x**2)
    x -= y / dy
    fm = eval_legendre(n - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    wt = 1.0 / (fm * dy)
    wt = (wt + wt[::-1]) / 2
    x = (x - x[::-1]) / 2
    wt *= 2.0 / wt.sum()
    return 0.5 * (x + 1.0), 0.5 * wt


@lru_cache(maxsize=8)
def _paired_rule(levels):
    """The nodes of both Gauss-Legendre rules of ``levels``, and a weight
    column each."""
    (x0, w0), (x1, w1) = (_gl_rule(n) for n in levels)
    wt = np.zeros((len(x0) + len(x1), 2))
    wt[: len(x0), 0], wt[len(x0) :, 1] = w0, w1
    return np.concatenate([x0, x1]), wt


def _wedge(h, psi, df):
    """W(h, psi) = (1/2 pi) int_0^psi S(h / cos t) dt elementwise, for h > 0
    and |psi| <= pi/2, and its error.

    The normal W is Owen's T(h, tan psi).  The t W takes both rules of
    ``_WEDGE_NODES`` (the value is the finer, the error their gap): over (0,
    psi) up to |psi| = pi/4 or while the integrand's singularity stays
    ``_CLEAR`` |psi| away, otherwise as half of P(T > h) less the rest over
    (|psi|, pi/2).  In y = asinh(cot(t) / beta), beta = h / sqrt(df + h^2),
    the rest is (1 + h^2/df)^(-df/2) / (2 pi) int tanh(y)^df beta cosh(y) /
    (1 + (beta sinh y)^2) dy, analytic in a strip of fixed width for every h
    and df; it runs in panels of at most ``_WEDGE_PANEL`` from where
    tanh(y)^df = e^-60.  Below h = ``_FLAT``, W is psi / (2 pi) within h.
    """
    if df is None:
        return owens_t(h, np.tan(psi)), np.zeros_like(h)
    x, wt = _paired_rule(_WEDGE_NODES)
    a = np.abs(psi)
    # the integrand is singular at pi/2 +- i asinh(h / sqrt(df))
    clear = (0.5 * np.pi - a) ** 2 + np.arcsinh(h / math.sqrt(df)) ** 2 >= (_CLEAR * a) ** 2
    near = (a <= 0.25 * np.pi) | clear
    flat = ~near & (h < _FLAT)
    far = ~(near | flat)
    w = np.empty(h.shape + (2,))
    w[flat] = a[flat, None] / (2.0 * np.pi)
    hn, an = h[near, None], a[near, None]
    s = np.exp(-0.5 * df * np.log1p((hn / np.cos(an * x)) ** 2 / df))
    w[near] = an * (s @ wt) / (2.0 * np.pi)
    if far.any():
        hf = h[far]
        beta = hf / np.sqrt(df + hf * hf)
        top = np.arcsinh(1.0 / (np.tan(a[far]) * beta))
        low = np.minimum(np.arctanh(math.exp(-60.0 / df)), top)
        panels = max(math.ceil(np.max(top - low) / _WEDGE_PANEL), 1)
        width = ((top - low) / panels)[:, None]
        y = (low[:, None] + width * np.arange(panels))[..., None] + width[..., None] * x
        beta = beta[:, None, None]
        f = np.tanh(y) ** df * beta * np.cosh(y) / (1.0 + (beta * np.sinh(y)) ** 2)
        # stdtr(df, -h) is off by up to 2e-9 for small h at df 1
        tail = 0.25 - 0.25 * betainc(0.5, 0.5 * df, hf * hf / (df + hf * hf))
        scale = np.exp(-0.5 * df * np.log1p(hf * hf / df)) / (2.0 * np.pi)
        w[far] = tail[:, None] - (scale[:, None] * width) * (f @ wt).sum(axis=1)
    w = np.copysign(w, psi[:, None])
    return w[:, 1], np.abs(w[:, 1] - w[:, 0]) + np.where(flat, h, 0.0)


@lru_cache(maxsize=8)
def _arcs(k: int):
    """Pairs (i, j) of ``k`` edges, and each of the k (k + 1) breakpoints'
    predecessor and successor in cyclic order."""
    i, j = np.triu_indices(k, 1)
    b = np.arange(k * (k + 1))
    return i, j, np.roll(b, 1), np.roll(b, -1)


def _outside(phi, h, df):
    """P(Z outside {z : n_k . z <= h_k for every k}) and its error per row,
    for spherical bivariate Z, unit normals n_k in directions ``phi`` and
    distances ``h`` > 0 (inf: no edge), both (P, K).  The arc of directions
    whose nearest edge is k adds W(h_k, end - phi_k) - W(h_k, start - phi_k);
    the nearest edge maximizes n_k . e_theta / h_k > 0, so it changes only
    where two of these are equal or one is 0, and W is evaluated there."""
    npoly, k = phi.shape
    i, j, before, after = _arcs(k)
    px, py = np.cos(phi) / h, np.sin(phi) / h
    even = np.arctan2(py[:, i] - py[:, j], px[:, i] - px[:, j]) + 0.5 * np.pi
    theta = np.concatenate([even, even + np.pi, phi + 0.5 * np.pi, phi - 0.5 * np.pi], axis=1)
    theta = np.sort(theta % (2.0 * np.pi), axis=1)
    mid = 0.5 * (theta + theta[:, after])
    mid[:, -1] += np.pi  # the arc that wraps around
    reach = np.cos(mid)[..., None] * px[:, None] + np.sin(mid)[..., None] * py[:, None]
    edge, met = reach.argmax(axis=-1), reach.max(axis=-1) > 0.0
    edge_before, met_before = edge[:, before], met[:, before]
    change = (edge_before != edge) | (met_before != met)
    # at each change the arc that ends adds +W, the arc that starts -W
    ends, starts = np.nonzero(change & met_before), np.nonzero(change & met)
    r, c = (np.concatenate(v) for v in zip(ends, starts))
    e = np.concatenate([edge_before[ends], edge[starts]])
    psi = (theta[r, c] - phi[r, e] + np.pi) % (2.0 * np.pi) - np.pi
    value, error = _wedge(h[r, e], np.clip(psi, -0.5 * np.pi, 0.5 * np.pi), df)
    value[len(ends[0]) :] *= -1.0
    return np.bincount(r, value, npoly), np.bincount(r, error, npoly)


def _slab_prob(rows, lower, upper, df):
    """P(lower_j <= rows_j . Z <= upper_j for every j) per row of the (P, m)
    limits, for spherical bivariate Z and m unit ``rows``: (value, error,
    polygons).  A slab that excludes the origin is a difference of two that
    contain it, (-inf, u] - (-inf, l) for l >= 0 and [l, inf) - (u, inf) for
    u <= 0, so the rectangle is a signed sum of polygons around the origin.
    """
    npoly, m = lower.shape
    inside, above = (lower < 0.0) & (upper > 0.0), lower >= 0.0
    if inside.all():
        row, sign, lo, hi = np.arange(npoly), np.ones(npoly), lower, upper
    else:
        # each slab's two terms (lo, hi, sign); the second has sign 0 if unused
        lo = np.stack([np.where(above, -np.inf, lower), np.where(above, -np.inf, upper)], -1)
        hi = np.stack([np.where(inside | above, upper, np.inf), np.where(above, lower, np.inf)], -1)
        sign = np.stack([np.ones_like(lower), np.where(inside, 0.0, -1.0)], -1)
        terms, slab = _terms(m)
        sign = np.prod(sign[:, slab, terms], axis=-1)
        row, term = np.nonzero(sign)
        pick, sign = (row[:, None], slab, terms[term]), sign[row, term]
        lo, hi = lo[pick], hi[pick]
    angle = np.arctan2(rows[:, 1], rows[:, 0])
    phi = np.broadcast_to(np.concatenate([angle, angle + np.pi]), (len(row), 2 * m))
    # a limit at 0 puts the origin on an edge, a vanishing distance away
    out, err = _outside(phi, np.maximum(np.concatenate([hi, -lo], axis=1), 1e-200), df)
    value = np.bincount(row, sign * (1.0 - out), npoly)
    return value, np.bincount(row, err, npoly) + _ERROR_FLOOR, len(row)


@lru_cache(maxsize=4)
def _terms(m: int):
    """Every choice of one of two terms for each of ``m`` slabs, and the
    slab indices."""
    return np.indices((2,) * m).reshape(m, -1).T, np.arange(m)


def _exact(corr, lower, upper, df):
    """(value, error, samples) of a rectangle of dimension 2 or 3: a
    ``_slab_prob`` in the rows of a rank-2 factor of a law of rank 2 or less
    (at dimension 3, an eigenvalue at most ``_RANK_TOL``), else
    ``_path_rect``."""
    entries = corr.entries
    if corr.dim == 2:
        rho = entries[0, 1]
        rows = np.array([[1.0, 0.0], [rho, math.sqrt((1.0 - rho) * (1.0 + rho))]])
    else:
        w, v = np.linalg.eigh(entries)
        if w[0] > _RANK_TOL:
            return _path_rect(entries, lower, upper, df)
        rows = v[:, 1:] * np.sqrt(np.maximum(w[1:], 0.0))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    value, err, polygons = _slab_prob(rows, lower[None], upper[None], df)
    return float(value[0]), float(err[0]), polygons


def _path_rect(entries, lower, upper, df):
    """(value, error, samples) of a full-rank dimension-3 rectangle by
    ``_plackett_path`` from the rank-2 law where X_k = s X_j, (j, k) the most
    correlated pair, whose rectangle is a ``_slab_prob``; ``samples`` adds
    one per finite corner and node of either rule to its polygons."""
    pairs = ((0, 1), (0, 2), (1, 2))
    j, k = pairs[int(np.argmax([abs(entries[p]) for p in pairs]))]
    i = 3 - j - k
    a, r, c = entries[i, j], entries[i, k], entries[j, k]
    s = 1.0 if c >= 0.0 else -1.0
    row = np.array([a, math.sqrt((1.0 - a) * (1.0 + a))])
    rows, order = np.array([[1.0, 0.0], row, s * row]), [i, j, k]
    start, start_err, used = _slab_prob(rows, lower[None, order], upper[None, order], df)
    # the corners (x, y) of the faces (j, k) and (i, k), in (x_j, s x_k) and
    # (x_i, x_k): + at an upper limit, - at a lower and 0 at an infinite one
    ends = np.stack([lower, upper])
    sign = np.where(np.isinf(ends), 0.0, [[-1.0], [1.0]])
    ends[sign == 0.0] = 0.0
    x = ends[:, [j, i]].T.repeat(2, axis=1)
    y = np.array([[s], [1.0]]) * np.tile(ends[:, k], 2)
    weight = sign[:, [j, i]].T.repeat(2, axis=1) * np.tile(sign[:, k], 2)
    # Where limits of X_j and s X_k lie v apart, the integrand rises from 0
    # like exp(-scale / t), scale = v^2 / (2 (1 - s c)): panels of t cut at
    # scale 8^m (m >= -1) below 1 grade the rules (under 1e-24, none).
    scale = (x[0] - y[0])[weight[0] != 0.0] ** 2 / (2.0 * (1.0 - s * c))
    cuts = np.append(np.outer(scale[scale > 1e-24], 8.0 ** np.arange(-1, 28)), [0.0, 1.0])
    theta = np.arcsin(np.sqrt(np.unique(cuts[cuts <= 1.0]))) / (0.5 * np.pi)
    (nodes, wt), width = _paired_rule(_PATH_LEVELS), np.diff(theta)[:, None]
    rule = (theta[:-1, None] + width * nodes).ravel(), np.kron(width, wt)
    uv = np.stack([x + y, x - y], axis=-1)
    path, err = _plackett_path(a, r, c, (uv, weight), (lower[[i, j]], upper[[i, j]]), df, rule)
    used += int(np.count_nonzero(weight)) * len(rule[0])
    return float(start[0] + path), float(start_err[0] + err), used


def _plackett_path(a, r, c, corners, limits, df, rule, exceed=False):
    """P(R) - P(R0) and its error, elementwise over broadcast arrays, for a
    trivariate normal or t_df law R of correlations rho_ij = ``a``, rho_ik =
    ``r`` and rho_jk = ``c``, (j, k) the most correlated pair, of sign s, R0
    being the law where X_k = s X_j.

    P is that of S_i x S_j x S_k, each S an interval or, with ``exceed``, its
    complement.  Along the straight path from R0 (t = 0) to R (t = 1) only
    rho_ik and rho_jk move, and by Plackett's identity dP/drho_pq sums over
    the corners of the (p, q) face a sign (+ at an upper limit, - at a
    lower, both flipped for a complement) times the density of (X_p, X_q)
    there times the conditional probability of the third set.  ``corners``,
    (uv, weight) broadcast to (2, ..., corners, 2) and (2, ..., corners),
    are those of the faces (j, k), in (x_j, s x_k), and (i, k), in (x_i,
    x_k), as u = x + y and v = x - y, and their signs, which may count
    mirrored corners; ``limits``, (lo, hi) broadcast to (2, ...), are X_i's
    and X_j's.  The t is the normal mixed over its chi scale: the normal's
    exp(-Q/2), Q the corner's quadratic form, becomes (1 + Q/df)^(-df/2) and
    the conditional probability that of t_df at the standardized limits
    times sqrt(df / (df + Q)).

    In t = sin^2(theta) the rho_jk term's 1 / sqrt(1 - rho_jk^2) and the
    conditional spreads, which vanish at R0, are smooth in theta.  Both
    rules of ``rule``, nodes x in (0, 1) with a weight column each, take
    theta = pi x / 2 in one pass: the value is the finer rule's, the error
    their gap.  Vanishing factors stay factors (1 - s rho_jk(t) = t (1 - s
    c), 1 - rho_ik(t) = (1 - s a) - t step), never differences of near-equal
    terms, so near-singular laws keep their accuracy.
    """
    s = np.where(c >= 0.0, 1.0, -1.0)
    gap = np.maximum(1.0 - s * c, 1e-100)  # 1 - s rho_jk at t = 1
    step = r - s * a  # d rho_ik / dt
    spread = (r - a * c) ** 2 / gap
    x, wt = rule
    sin, cos = np.sin(0.5 * np.pi * x), np.cos(0.5 * np.pi * x)
    t = sin * sin
    a, s, gap, step, spread = (np.asarray(v)[..., None] for v in (a, s, gap, step, spread))
    tg = t * gap  # 1 - s rho_jk(t)
    near = 2.0 - tg  # 1 + s rho_jk(t)
    # 1 - rho_ik(t) and 1 + rho_ik(t), rho_ik(t) = s a + t step
    ts = t * step
    minus = np.maximum((1.0 - s * a) - ts, 1e-150)
    plus = np.maximum((1.0 + s * a) + ts, 1e-150)
    # var(X_i | X_j, X_k), and var(X_j | X_i, X_k) = det R / (1 - rho_ik^2),
    # where det R = (1 - rho_jk^2) var(X_i | X_j, X_k)
    var_i = np.maximum((1.0 - a * a) - t * spread / near, 0.0)
    var_j = tg * near * var_i / (plus * minus)
    # Per face and node, in u and v, which are uncorrelated, -Q/2 = (u^2,
    # v^2) . half and the conditional mean is (u, v) . mean: (a + s rho_ik,
    # a - s rho_ik) / (2 (1 + s rho_jk), 2 (1 - s rho_jk)) for X_i, the
    # second -s step / (2 gap), and (a + rho_jk, a - rho_jk) / (2 (1 +
    # rho_ik), 2 (1 - rho_ik)) for X_j, where rho_jk = s - s tg.
    half, mean = np.empty((2, 2) + var_j.shape[:-1] + (2, len(t)))  # face, ..., u or v, node
    np.divide(-0.25, [near, plus], out=half[..., 0, :])
    np.divide(-0.25, [tg, minus], out=half[..., 1, :])
    stg = s * tg
    mean[0, ..., 0, :], mean[1, ..., 0, :] = (a + 0.5 * s * ts) / near, 0.5 * (a + s - stg) / plus
    mean[0, ..., 1, :], mean[1, ..., 1, :] = -0.5 * s * step / gap, 0.5 * (a - s + stg) / minus
    sd = np.sqrt([var_i, var_j])[..., None, :]
    (uv, weight), (lo, hi) = corners, (np.asarray(m)[..., None, None] for m in limits)
    # -Q/2 and the conditional mean at each corner; rebinding both frees the buffer
    half, mean = (uv * uv) @ half, uv @ mean
    tails = np.empty((2,) + mean.shape)
    np.subtract(lo, mean, out=tails[0])
    np.subtract(mean, hi, out=tails[1])
    tails *= 1.0 / np.maximum(sd, 1e-150)
    if df is None:
        density, cdf = np.exp(half), ndtr
    else:
        nu = np.asarray(df, dtype=float)[..., None, None]
        density, cdf = np.exp(-0.5 * nu * np.log1p(-2.0 * half / nu)), partial(_t_cdf, nu)
        tails *= np.sqrt(nu / (nu - 2.0 * half))
    prob = cdf(tails[0]) + cdf(tails[1])
    if not exceed:
        prob = 1.0 - prob
    f = np.einsum("...c,...cn->...n", weight, density * prob)
    h = step * sin * cos / np.sqrt(plus * minus) * f[1] - s * cos * np.sqrt(gap / near) * f[0]
    est = 0.5 * _rule_sums(h, wt)
    return est[..., 1], np.abs(est[..., 1] - est[..., 0])


def _sliced(kernel, levels, pick, df, *args):
    """``(value, error)`` of ``kernel(*args, df, rule)``, an exceedance
    kernel, elementwise over broadcast arrays ``args``, ``df`` (None: inf)
    and ``pick``.

    Every split of the elements is made here: one call per law (a finite df
    is the t, passed as an array; inf the normal, passed as None), per rule
    (``_paired_rule(levels[k])`` where ``pick`` is k) and per slice of at
    most ``_SLICE_FLOATS`` elements times nodes.  Each value is computed
    from its own element alone, so the splits change no bit.
    """
    *args, df, pick = np.broadcast_arrays(*args, np.inf if df is None else df, pick)
    shape, pick = pick.shape, pick.ravel()
    args, df = [v.astype(float).ravel() for v in args], df.astype(float).ravel()
    if not (df >= 1.0).all():
        raise ValueError("df must be None or >= 1 (inf for normal) for every element")
    value, error = np.empty((2, len(df)))
    t_law = np.isfinite(df)
    for law in (False, True):
        for k, rule in enumerate(map(_paired_rule, levels)):
            group = np.flatnonzero((t_law == law) & (pick == k))
            size = max(1, _SLICE_FLOATS // len(rule[0]))
            for start in range(0, len(group), size):
                part = group[start : start + size]
                dfs = df[part] if law else None
                value[part], error[part] = kernel(*(v[part] for v in args), dfs, rule)
    return value.reshape(shape)[()], error.reshape(shape)[()]


def _rule_sums(f, wt):
    """``f @ wt``, each element's sums from its own values alone, which a
    BLAS product does not promise as the number of rows changes."""
    return np.stack([(f * w).sum(axis=-1) for w in wt.T], axis=-1)


def _pair_rule(b, rho, df, rule):
    """``pair_exceedance`` of 1-D elements of one law by the rules of
    ``rule``."""
    x, wt = rule
    half = 0.5 * np.arccos(np.minimum(np.abs(rho), 1.0))
    b2 = (b * b)[:, None]
    if df is None:
        p1 = 2.0 * ndtr(-b)

        def g(w):
            return np.exp(-b2 / w)

    else:
        p1 = 2.0 * stdtr(df, -b)
        nu = df[:, None]

        def g(w):
            return np.exp(-0.5 * nu * np.log1p(2.0 * b2 / (nu * w)))

    psi = half[:, None] * x
    # 2 sin^2 psi vanishes only at |rho| = 1, where the interval is empty
    low = np.maximum(2.0 * np.sin(psi) ** 2, np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        est = half[:, None] * _rule_sums(g(2.0 * np.cos(psi) ** 2) - g(low), wt)
    value = p1 - (2.0 / np.pi) * est[:, 1]
    error = (2.0 / np.pi) * np.abs(est[:, 1] - est[:, 0]) + _ERROR_FLOOR
    return value, error


def pair_exceedance(b, rho, df=None):
    """P(|X_1| > b, |X_2| > b) for a standard bivariate normal or t_df with
    correlation ``rho``, elementwise over broadcast arrays of edges ``b``,
    correlations and dfs, inf for the normal law (None: all normal).

    Returns ``(value, error)``.  With rho = sin(theta), Plackett's identity
    dP/dtheta = (1/pi) [g(1 + sin theta) - g(1 - sin theta)] holds, where
    g(w) = exp(-b^2 / w) for the normal and (1 + 2 b^2 / (df w))^(-df/2) for
    the t (the mixture of g over the t's chi scale).  Integrated down from
    |rho| = 1, where the probability is the closed-form p1 = P(|X_1| > b),
    and with the half angle psi = (pi/2 - theta) / 2,

        P = p1 - (2/pi) int_0^{arccos(|rho|)/2} [g(2 cos^2 psi) - g(2 sin^2 psi)] dpsi,

    a smooth integrand on a short interval.  It is evaluated with the two
    Gauss-Legendre rules of ``_PAIR_LEVELS``; the value is the finer one and
    the error their difference plus a floor above round-off.  ``_sliced``
    bounds the memory; each value is that of a call on its element alone.
    """
    return _sliced(_pair_rule, (_PAIR_LEVELS,), 0, df, b, rho)


def _triple_rule(b, rij, rik, rjk, df, rule):
    """``triple_exceedance`` of 1-D elements of one law by the rules of
    ``rule``."""
    # the most correlated pair becomes (j, k) and the start pair (i, j) is
    # one of the other two: a = rho_ij, r = rho_ik, c = rho_jk
    big = np.abs(np.stack([rij, rik, rjk])).argmax(axis=0)
    a = np.where(big == 0, rik, rij)
    c = np.choose(big, [rij, rik, rjk])
    r = np.choose(big, [rjk, rjk, rik])
    start, start_err = _pair_rule(b, a, df, _paired_rule(_PAIR_LEVELS))
    # the corners (b, b) and (b, -b), in (x_j, s x_k) and (x_i, x_k), are
    # (u, v) = (2 b, 0) and (0, 2 b)
    weight = np.array([np.where(c < 0.0, -2.0, 2.0), np.full(c.shape, 2.0)])[..., None]
    corners = b[:, None, None] * [[2.0, 0.0], [0.0, 2.0]], weight * [1.0, -1.0]
    path, err = _plackett_path(a, r, c, corners, (-b, b), df, rule, exceed=True)
    return start + path, err + start_err + _ERROR_FLOOR


def triple_exceedance(b, rho_ij, rho_ik, rho_jk, df=None):
    """P(|X_i| > b, |X_j| > b, |X_k| > b) for a standard trivariate normal or
    t_df with correlations ``rho_ij``, ``rho_ik`` and ``rho_jk``, elementwise
    over broadcast arrays of edges, correlations and dfs, inf for the normal
    law (None: all normal).

    Returns ``(value, error)``.  With (j, k) the most correlated pair, of
    sign s, ``_plackett_path`` runs from the law where X_k = s X_j, whose
    probability is ``pair_exceedance(b, rho_ij)``, to the given one, the sets
    being the complements of [-b, b].  By the X -> -X symmetry two corners
    of a face are evaluated, each counted twice.  The rules are those of
    ``_TRIPLE_LEVELS``, or ``_NEAR_LEVELS`` where some |rho| exceeds
    ``_NEAR_ONE``; the value is the pair's plus the finer rule's, the error
    their gap plus the pair's error and a floor above round-off.
    ``_sliced`` bounds the memory; each value is that of a call on its
    element alone.
    """
    near = np.maximum(np.abs(rho_ij), np.maximum(np.abs(rho_ik), np.abs(rho_jk))) > _NEAR_ONE
    levels = (_TRIPLE_LEVELS, _NEAR_LEVELS)
    return _sliced(_triple_rule, levels, near, df, b, rho_ij, rho_ik, rho_jk)


def _t_cdf(nu, y):
    """Student t CDF with ``nu`` df at ``y``, elementwise (``nu`` broadcasts
    against ``y``): ``stdtr``, but for an integer df up to ``_T_SERIES_MAX_DF``
    the finite series of Abramowitz & Stegun 26.7.3-4, within 1e-14 of
    ``stdtr`` (from df 2; at df 1 ``stdtr`` itself is off by up to 2e-9) at
    a tenth of its cost at df 30 and two thirds at 500.  With theta = atan(y / sqrt(nu)) and c
    = cos^2(theta), P(|T| <= y) is sin(theta) sum_k c^k prod_j (2j - 1) /
    (2j) over k < nu / 2 for an even df, and (2 / pi) (theta + sin(theta)
    cos(theta) sum_k c^k prod_j 2j / (2j + 1)) over k < (nu - 1) / 2 for an
    odd one.

    All dfs take one Horner pass over all elements, each element's
    coefficients a row of ``_t_series`` padded by leading zeros (0 c + 0 is
    0 until its own leading coefficient), and the even and odd finishes are
    picked elementwise, so each value has the bits of a call on its df
    alone.  Full-size temporaries are few and reused, as each costs page
    faults."""
    nu = np.asarray(nu, dtype=float)
    if (nu == nu.flat[0]).all():
        dfs, row = nu.ravel()[:1], 0
    else:
        dfs, row = np.unique(nu, return_inverse=True)
        row = row.reshape(nu.shape)
    columns, odd, series = _t_series(tuple(dfs.tolist()))
    if not series.any():
        return stdtr(nu, y)
    t = np.clip(y, -1e150, 1e150)  # t^2 stays finite
    s = nu + t * t
    c = nu / s
    coef = columns[:, row]
    poly = np.empty(c.shape)
    poly[...] = coef[0]
    for a in coef[1:]:  # Horner
        poly *= c
        poly += a
    if not odd.all():  # even: y / 2 sqrt(nu + y^2) times the sum
        out = np.divide(0.5 * t, np.sqrt(s, out=c), out=c)
        out *= poly
    if odd.any():  # odd: (theta + y sqrt(nu) / (nu + y^2) times the sum) / pi
        theta = np.arctan(t / np.sqrt(nu))
        term = t * np.sqrt(nu)
        term /= s
        term *= poly
        term += theta
        if dfs[0] == 1.0:
            np.copyto(term, theta, where=nu == 1.0)  # theta / pi
        term /= np.pi
        out = term if odd.all() else np.where(odd[row], term, out)
    out += 0.5
    return out if series.all() else np.where(series[row], out, stdtr(nu, y))


@lru_cache(maxsize=64)
def _t_series(dfs):
    """For ``_t_cdf`` of the sorted distinct dfs ``dfs``: the coefficients
    of the series, a column per df, highest order first, each column
    padded by leading zeros; whether each df is odd; whether it takes the
    series.  Coefficient k is coefficient k - 1 times (2k - 1) / 2k for an
    even df and 2k / (2k + 1) for an odd one, k from 1 to (nu - 2 - odd) /
    2."""
    dfs = np.array(dfs)
    odd = dfs % 2.0 == 1.0
    series = (dfs == np.floor(dfs)) & (dfs <= _T_SERIES_MAX_DF)
    size = np.where(series, np.maximum((dfs - 2.0 - odd) // 2.0, 0.0) + 1.0, 0.0)
    k = np.arange(1.0, max(size.max(), 1.0))
    ratio = np.where(odd[:, None], 2.0 * k / (2.0 * k + 1.0), (2.0 * k - 1.0) / (2.0 * k))
    coef = np.multiply.accumulate(np.hstack([np.ones((len(dfs), 1)), ratio]), axis=1)
    coef[np.arange(coef.shape[1]) >= size[:, None]] = 0.0
    columns = np.ascontiguousarray(coef[:, ::-1].T)
    for a in (columns, odd, series):
        a.flags.writeable = False
    return columns, odd, series


# ---------------------------------------------------------------------------
# randomized high-dimensional rule

# Scrambled Sobol points, built here as scipy's ``qmc.Sobol(qdim,
# scramble=True, bits=_SOBOL_BITS, rng=default_rng(s))`` builds them, bit for
# bit, for each s of ``SeedSequence(seed).spawn(shifts)``: Joe-Kuo direction
# numbers (Joe & Kuo 2008, SIAM J. Sci. Comput. 30, the table scipy ships),
# a linear matrix scramble and a digital shift per scramble.  Coordinates are
# k * 2**-_SOBOL_BITS with k an integer below 2**30; point k of a scramble is
# its shift XOR the direction numbers of the set bits of k's Gray code, so
# any range of points is computed directly (``_sobol_range``).
_SOBOL_BITS = 30
# The Joe-Kuo table, read from a private scipy file that scipy may move.
_DIRECTION_TABLE = os.path.join(
    os.path.dirname(scipy.__file__), "stats", "_sobol_direction_numbers.npz"
)
# Bytes inflated at a time while skipping the table's unused rows.
_SKIP_BYTES = 1 << 16

# Most points the QMC integrand sees in one call: a dimension-9 block then
# keeps its working arrays (about 1 MB) in cache.  On AVERROES, 2**11 to
# 2**13 ran alike and 2**14 or more lost most of the gain (BENCH_5.json).
_BLOCK_POINTS = 1 << 13


def _leading_rows(archive, name, rows):
    """The first ``rows`` rows of the 1-d or 2-d array ``name`` of an open
    npz archive, as a list.  Only those rows are kept: a C-order array is
    read up to them, a Fortran-order one column by column, skipping the rest
    of each column."""
    with archive.open(name + ".npy") as f:
        if npy_format.read_magic(f) == (1, 0):
            shape, fortran, dtype = npy_format.read_array_header_1_0(f)
        else:
            shape, fortran, dtype = npy_format.read_array_header_2_0(f)
        rows = min(rows, shape[0])
        if len(shape) == 1 or not fortran:
            data = f.read(rows * math.prod(shape[1:]) * dtype.itemsize)
            return np.frombuffer(data, dtype).reshape(rows, *shape[1:]).tolist()
        columns = []
        for _ in range(shape[1]):
            columns.append(np.frombuffer(f.read(rows * dtype.itemsize), dtype))
            # a forward seek would inflate the whole skip into one buffer
            skip = (shape[0] - rows) * dtype.itemsize
            while skip > 0:
                skip -= len(f.read(min(skip, _SKIP_BYTES)))
        return np.stack(columns, axis=1).tolist()


@lru_cache(maxsize=8)
def _direction_numbers(qdim):
    """Unscrambled direction numbers, shaped (qdim, _SOBOL_BITS): column j of
    coordinate d is its j-th direction integer m_j times 2**(29 - j), from the
    primitive polynomials and initial numbers of the Joe-Kuo table by the
    recurrence of Bratley & Fox (1988, ACM TOMS 14).  Only the table's first
    ``qdim`` rows are read (``_leading_rows``)."""
    try:
        archive = zipfile.ZipFile(_DIRECTION_TABLE)
    except FileNotFoundError:
        raise RuntimeError(
            f"scipy {scipy.__version__} has no Sobol direction-number table at {_DIRECTION_TABLE}"
        ) from None
    with archive:
        polys, inits = (_leading_rows(archive, name, qdim) for name in ("poly", "vinit"))
    rows = [[1] * _SOBOL_BITS]
    for poly, init in zip(polys[1:], inits[1:]):
        degree = poly.bit_length() - 1
        row = init[:degree]
        for j in range(degree, _SOBOL_BITS):
            new = row[j - degree]
            for k in range(degree):
                if poly >> (degree - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        rows.append(row)
    return np.array(rows, dtype=np.int64) << np.arange(_SOBOL_BITS - 1, -1, -1)


@lru_cache(maxsize=32)
def _scrambles(qdim, seed, shifts):
    """Digital shifts, shaped (shifts, qdim), and scrambled direction numbers,
    shaped (shifts, _SOBOL_BITS, qdim), both int32.

    Scramble i draws from one generator spawned from the i-th child of
    ``SeedSequence(seed)``, as scipy spawns it from ``default_rng`` of that
    child: the shift's bits, then lower-triangular bit matrices, whose
    diagonal is set to 1.  Bit 29 - p of a scrambled number is the parity of
    row p of its coordinate's matrix, read with column c as bit 29 - c,
    against the unscrambled number (Matousek 1998, J. Complexity 14).
    """
    bits = np.arange(_SOBOL_BITS)
    # [d, c, j]: bit 29 - c of direction number j of coordinate d
    direction_bits = np.swapaxes(_direction_numbers(qdim)[..., None] >> bits[::-1] & 1, 1, 2)
    shift = np.empty((shifts, qdim), dtype=np.int32)
    directions = np.empty((shifts, _SOBOL_BITS, qdim), dtype=np.int32)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(shifts)):
        rng = np.random.Generator(np.random.PCG64(child.spawn(1)[0]))
        shift[i] = rng.integers(0, 2, (qdim, _SOBOL_BITS), dtype=np.uint32) @ (1 << bits)
        lower = np.tril(rng.integers(0, 2, (qdim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
        lower[:, bits, bits] = 1
        parity = (lower.astype(np.int64) @ direction_bits) & 1  # [d, p, j]
        directions[i] = (parity << (_SOBOL_BITS - 1 - bits)[:, None]).sum(axis=1).T
    shift.flags.writeable = directions.flags.writeable = False
    return shift, directions


def _sobol_range(scrambles, a, b, cols=slice(None)):
    """Points [a, b) of every scramble of ``_scrambles``, coordinates ``cols``,
    as int32 shaped (shifts, b - a, ...): point a from the Gray code of a,
    then one XOR per point of the direction number of its index's lowest set
    bit, as ``qmc.Sobol`` steps."""
    if b > 1 << _SOBOL_BITS:
        raise ValueError(f"at most 2**{_SOBOL_BITS} Sobol points per scramble")
    shift, directions = scrambles
    index = np.arange(a, b)
    # the lowest set bit of each index (frexp is exact); point a's is unused
    lowest = np.frexp(index & -index)[1] - 1
    out = np.take(directions[..., cols], lowest, axis=1)  # C order, unlike [:, lowest]
    gray = np.flatnonzero((a ^ (a >> 1)) >> np.arange(_SOBOL_BITS) & 1)
    out[:, 0] = shift[:, cols] ^ np.bitwise_xor.reduce(directions[:, gray, cols], axis=1)
    return np.bitwise_xor.accumulate(out, axis=1, out=out)


def _round_points(first_round_samples):
    """Points per scramble of the first QMC round: ``first_round_samples``
    rounded up to a power of two (2 at least), which keeps the Sobol point
    sets balanced."""
    return 1 << max(math.ceil(math.log2(first_round_samples)), 1)


# Grid of the chi-scale tables in z = ndtri(u), spanning every uniform the
# sampler draws (_TINY to 1 - 2**-30): 3,573 nodes, 57 KB per df, at most
# _CHI_TABLES kept.  On 2M uniforms k * 2**-30 the scale is within 1.2e-13 of
# gammaincinv at df 1 and 2e-14 from df 3 (2**-7 left 1.9e-12 at df 1);
# gammaincinv is itself 2.4e-12 off at df 10**6 near u 1e-6 (mpmath).
_CHI_STEP = 2.0**-8
_CHI_Z_LO = float(ndtri(_TINY))
_CHI_NODES = math.ceil((float(ndtri(1.0 - 2.0**-_SOBOL_BITS)) - _CHI_Z_LO) / _CHI_STEP) + 1
_CHI_TABLES = 32


@lru_cache(maxsize=_CHI_TABLES)
def _chi_table(df):
    """log s at the grid nodes z and its derivative in z times _CHI_STEP, both
    read-only.  The nodes are exact quantiles: ``gammaincinv`` of Phi(z) for
    z <= 0 and ``gammainccinv`` of Phi(-z) above, where 1 - Phi(z) would be
    rounded away; the slope is phi(z) / (2 x g(x)), g the Gamma(df/2)
    density, from d log s = dx / 2x and dx = du / g(x)."""
    z = _CHI_Z_LO + _CHI_STEP * np.arange(_CHI_NODES)
    a = 0.5 * df
    lower = z <= 0.0
    x = np.empty_like(z)
    x[lower] = gammaincinv(a, ndtr(z[lower]))
    x[~lower] = gammainccinv(a, ndtr(-z[~lower]))
    log_s = 0.5 * np.log(x / a)
    log_slope = gammaln(a) + x - a * np.log(x) - 0.5 * z * z
    slope = np.exp(log_slope) * (0.5 * _CHI_STEP / math.sqrt(2.0 * math.pi))
    log_s.flags.writeable = slope.flags.writeable = False
    return log_s, slope


def _chi_scale(u, df):
    """Chi scale factors s = sqrt(2 * Gamma(df/2)^-1(u) / df) of uniforms u,
    clipped to [_TINY, 1 - _TINY], by cubic Hermite interpolation of log s
    in ndtri(u) on the nodes and slopes of ``_chi_table``, about 35 ns per
    value.  On the sampler's uniforms it is within a relative 1e-12 of
    sqrt(2 * gammaincinv(df/2, u) / df), the reference, which is itself up
    to 2.4e-12 off the true chi scale at df 10^6 near u = 1e-6 (mpmath)."""
    log_s, slope = _chi_table(df)
    t = np.clip(u, _TINY, 1.0 - _TINY)
    ndtri(t, out=t)
    t -= _CHI_Z_LO
    t *= 1.0 / _CHI_STEP
    i = t.astype(np.intp)
    np.minimum(i, _CHI_NODES - 2, out=i)
    t -= i  # position within the interval, in [0, 1]
    y0, d0 = log_s[i], slope[i]
    i += 1
    dy, d1 = log_s[i], slope[i]
    dy -= y0
    # y0 + t (d0 + t (c2 + t c3)): y0 + dy and d1 at t = 1
    c3 = d0 + d1 - 2.0 * dy
    p = dy - d0 - c3
    p += c3 * t
    p *= t
    p += d0
    p *= t
    p += y0
    return np.exp(p, out=p)


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

    No points are kept between calls and no values at all: the integrand
    streams through blocks of at most ``_BLOCK_POINTS`` points, each
    computed from its index range by ``_sobol_range``, scaled to floats and
    summed as soon as it is evaluated (``_sums``), so the transient memory
    of one evaluation is a few arrays of that many points (under 3 MB at
    dimension 9) whatever the sample size.  On the t path the leading
    coordinate gives the chi scale (``_chi_scale``, a 57 KB table per df).

    With ``rays`` the integrand is that of ``_ray_weights`` for the box
    [-b, b]^d, b being ``upper[0]``: d coordinates for either law, and a
    second buffer for the block's temporaries, kept like the points'.
    """

    def __init__(self, chol, df, settings: QuadratureSettings, rays=False):
        self.chol = chol
        self.df = df
        self.rays = rays
        self.qdim = chol.shape[0] - (0 if rays or df is not None else 1)
        self.settings = settings

    def _sums(self, lower, upper, start, count):
        """Integrand sums per scramble over points [start, start + count).

        The integrand is evaluated one block of at most ``_BLOCK_POINTS``
        points at a time: whole scrambles grouped while they fit in a block,
        else runs of one scramble's points, each computed once, from the
        scramble rows and index range of its block, and summed as soon as it
        is evaluated.  A run longer than a block is halved where numpy's
        pairwise summation halves it (at a multiple of 8), so the sums equal
        those of all the values in one row, bit for bit, with no array of
        the values kept.
        """
        shifts = self.settings.shifts
        scrambles = _scrambles(self.qdim, self.settings.seed, shifts)
        rows = max(_BLOCK_POINTS // count, 1)  # scrambles per block
        # Every block's points go into this one buffer.  With a fresh array
        # per block, malloc handed each block's memory back to the system and
        # faulted it in again for the next: about 290,000 page faults and 15 %
        # of the time of one AVERROES analysis.
        size = min(rows * count, _BLOCK_POINTS)
        points = np.empty(size * self.qdim)
        work = np.empty(3 * size) if self.rays else None

        def block_sums(j, a, n):
            ints = _sobol_range([x[j : j + rows] for x in scrambles], a, a + n)
            w = np.multiply(ints, 2.0**-_SOBOL_BITS, out=points[: ints.size].reshape(ints.shape))
            w = w.reshape(-1, self.qdim)
            if self.rays:
                block = _ray_weights(self.chol, upper[0], self.df, w, work)
            elif self.df is None:
                block = _genz_weights(self.chol, lower, upper, w)
            else:
                scale = _chi_scale(w[:, 0], self.df)
                block = _genz_weights(self.chol, lower, upper, w[:, 1:], scale)
            return block.reshape(-1, n).sum(axis=1)

        return np.concatenate(
            [_pairwise(partial(block_sums, j), start, count) for j in range(0, shifts, rows)]
        )

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
        err = 3.0 * float(means.std(ddof=1)) / math.sqrt(self.settings.shifts)
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

    def estimate(self, lower, upper, decide_at=None, rounds=None):
        """Double the sample until the error meets the target, the next
        round would pass ``max_samples`` or the estimate is ``_decided``
        against ``decide_at``; returns (estimate, error, samples, points per
        scramble).  A dict ``rounds`` receives each round's sums by its
        points per scramble, for ``_value``."""
        s = self.settings
        for sums, count in self._rounds(lower, upper):
            if rounds is not None:
                rounds[count] = sums
            est, err = self._value(sums, count)
            total = count * s.shifts
            done = err <= s.target_abs_error or total * 2 > s.max_samples
            if done or _decided(est, err, decide_at, s.target_abs_error):
                return est, err, total, count


def _pairwise(sums, start, count):
    """``sums(a, n)``, sums over [a, a + n), added up over [start, start +
    count) as numpy's pairwise summation adds up one row: a range longer
    than ``_BLOCK_POINTS`` is halved at a multiple of 8, so the result equals
    numpy's sum of all the values bit for bit."""
    if count <= _BLOCK_POINTS:
        return sums(start, count)
    half = count // 2 - count // 2 % 8
    return _pairwise(sums, start, half) + _pairwise(sums, start + half, count - half)


def _decided(est, err, decide_at, target):
    """The stop rule of a ``decide_at`` call (None: never stops): ``est``
    lies farther from ``decide_at`` than its error and twice ``target``."""
    return decide_at is not None and abs(est - decide_at) > max(err, 2.0 * target)


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
    deterministic for a fixed ``settings.seed``, and unconditionally in
    dimension three and below, where it is exact at a fixed cost.  With
    ``decide_at``, a probability, the QMC doubling rounds also stop at the
    first estimate farther from it than both its error and twice the target;
    such a call reports ``converged=False`` and ``decided=True`` with its
    achieved error.  ``decide_at`` is checked at every dimension and changes
    nothing up to dimension 3.
    """
    df = _check_df(df)
    _check_decide_at(decide_at)
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
    if corr.dim <= _EXACT_MAX_DIM:
        est, err, used = _exact(corr, lower, upper, df)
    else:
        sampler = _SobolSampler(corr.cholesky(), df, settings)
        est, err, used, _ = sampler.estimate(lower, upper, decide_at)
    return _rect_result(est, err, used, decide_at, settings.target_abs_error)


def _check_decide_at(decide_at):
    if decide_at is not None and not 0.0 <= decide_at <= 1.0:
        raise ValueError(f"decide_at must be a probability in [0, 1], got {decide_at!r}")


def _rect_result(est, err, used, decide_at, target):
    converged = bool(err <= target)
    decided = bool(not converged and _decided(est, err, decide_at, target))
    return RectProb(float(min(max(est, 0.0), 1.0)), float(err), converged, used, decided)


def max_abs_prob(
    corr: CorrelationMatrix,
    b: float,
    df: int | None = None,
    settings: QuadratureSettings = QuadratureSettings(),
    *,
    decide_at: float | None = None,
) -> RectProb:
    """P(|X_r| <= b for every r) for X ~ N(0, corr) or t_df(corr), b > 0.

    Up to dimension 3 this is ``mv_rect_prob`` of the box [-b, b]^d, exact
    at a fixed cost.  Above it the box, centred on the origin, is integrated
    along rays (``_ray_weights``): the radius in closed form, the direction
    by the scrambled Sobol points, rounds, error and ``decide_at`` stop rule
    of ``mv_rect_prob``'s randomized path, in d coordinates for either law.
    The value along each ray is continuous in its direction even for a
    (near-)singular ``corr``, where the separation-of-variables integrand of
    ``mv_rect_prob`` converges at about the plain Monte Carlo rate.
    """
    b = float(b)
    if not b > 0.0:
        raise ValueError(f"b must be positive, got {b!r}")
    edge = np.full(corr.dim, b)
    if corr.dim <= _EXACT_MAX_DIM:
        return mv_rect_prob(corr, -edge, edge, df, settings, decide_at=decide_at)
    df = _check_df(df)
    _check_decide_at(decide_at)
    sampler = _SobolSampler(corr.cholesky(), df, settings, rays=True)
    est, err, used, _ = sampler.estimate(-edge, edge, decide_at)
    return _rect_result(est, err, used, decide_at, settings.target_abs_error)


def _quantile_bracket(alpha, tail, dim, df):
    if tail == "two-sided":
        p_lo, p_hi = 1.0 - alpha / 2.0, 1.0 - alpha / (2.0 * dim)
    else:
        p_lo, p_hi = 1.0 - alpha, 1.0 - alpha / dim
    if df is None:
        return float(ndtri(p_lo)), float(ndtri(p_hi))
    return float(stdtrit(df, p_lo)), float(stdtrit(df, p_hi))


def _brent(f, a, b, xtol):
    """Root of ``f`` on [a, b] by Brent's method (Brent 1973, Algorithms for
    Minimization without Derivatives, ch. 4), line for line scipy's
    ``brentq`` (its C ``brentq``, relative tolerance 4 eps and limit of 100
    iterations), so it evaluates the same points in the same order and
    returns the same root.

    Raises ValueError when f(a) and f(b) have the same sign or f is NaN, and
    RuntimeError when 100 iterations do not converge.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x:.20g} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _root(excess, a, b, at_a, at_b, xtol=1e-5):
    """Brent's root of ``excess`` on [a, b] to ``xtol``, given its values at
    both ends, which must differ in sign; the ends cost no evaluation."""
    known = {a: at_a, b: at_b}

    def f(c):
        # Brent's method starts at the endpoints, whose values are known
        return known.pop(c) if c in known else excess(c)

    return _brent(f, a, b, xtol)


def _edge_or_root(excess, lo, hi, xtol=1e-5):
    """Root of ``excess`` on [lo, hi] to ``xtol``, or the edge where it
    already has the root's side: ``lo`` when excess(lo) >= 0, else ``hi``
    when excess(hi) <= 0.  Also returns every value it computed, by point."""
    seen = {}

    def f(c):
        seen[c] = excess(c)
        return seen[c]

    if f(lo) >= 0.0:
        return lo, seen
    if f(hi) <= 0.0:
        return hi, seen
    return _root(f, lo, hi, seen[lo], seen[hi], xtol), seen


def _qmc_sizing(sampler, limits, lo, hi, target):
    """Size the frozen QMC rule at the root of the first-round rule.

    The first-round rule (one round of ``_round_points`` points per scramble)
    is solved on [lo, hi] for its root c0, which fixes the frozen sample size:
    the one ``sampler.estimate`` stops at, at c0.  That pass is the frozen
    rule's first full-size one, and its value at c0 anchors the walk of
    ``equicoordinate_quantile``.  Returns (points per scramble, c0, the
    frozen rule's excess over ``target`` at c0, the first-round slope at c0,
    the pass's round sums at c0 by points per scramble).
    The slope is the secant through c0 and the nearest other first-round
    evaluation, which is within 1e-5 of c0 after a root-find and the other
    edge otherwise.
    """
    first = _round_points(sampler.settings.first_round_samples)
    c0, seen = _edge_or_root(
        lambda c: sampler.estimate_fixed(*limits(c), first)[0] - target, lo, hi
    )
    if len(seen) == 1:  # the edge rule at lo settled it
        seen[hi] = sampler.estimate_fixed(*limits(hi), first)[0] - target
    near = min((c for c in seen if c != c0), key=lambda c: abs(c - c0))
    slope = (seen[c0] - seen[near]) / (c0 - near)
    rounds = {}
    est, _, _, n_per_shift = sampler.estimate(*limits(c0), rounds=rounds)
    return n_per_shift, c0, est - target, slope, rounds


def _walk(excess, a, at_a, slope, lo, hi):
    """Root of ``excess`` on [lo, hi] to 1e-5 from ``a``, where it is
    ``at_a``, and a slope there: secant steps, widened 1, 2, 4, ... times
    until the sign changes, then ``_root``; after the first, the slope is
    that through the last two points.  The root lies below a point of
    positive excess and above one of negative, so a flat or falling slope
    steps across the bracket, and a step past an edge is cut there; an edge
    beyond which the root lies is the answer."""
    widen = 1.0
    while at_a != 0.0:
        step = widen * -at_a / slope if slope > 0.0 else math.copysign(hi - lo, -at_a)
        b = min(max(a + step, lo), hi)
        if b == a:  # a is the edge beyond which the root lies
            return a
        at_b = excess(b)
        if (at_b > 0.0) != (at_a > 0.0):  # _brent returns b if at_b is 0
            return _root(excess, a, b, at_a, at_b)
        slope = (at_b - at_a) / (b - a)
        a, at_a, widen = b, at_b, 2.0 * widen
    return a


def _secant_factor(values, c):
    """K = |f''| / (2 |f'|) of a function near ``c`` from its ``values`` by
    point: the second divided difference over the lowest and highest points
    and the one nearest ``c`` between them, against the first over the outer
    two; inf with fewer than three points.  A secant step through x_0 and
    x_1 then misses the root by about K |x_0 - root| |x_1 - root|."""
    xs = sorted(values)
    if len(xs) < 3:
        return math.inf
    x0, x2 = xs[0], xs[-1]
    x1 = min(xs[1:-1], key=lambda x: abs(x - c))
    left = (values[x1] - values[x0]) / (x1 - x0)
    right = (values[x2] - values[x1]) / (x2 - x1)
    first = (values[x2] - values[x0]) / (x2 - x0)
    return abs(right - left) / (x2 - x0) / abs(first) if first != 0.0 else math.inf


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
    an edge where the probability already lies on the root's side is the
    answer.  Dimensions 2 and 3 solve the exact probability by Brent's
    method to 1e-7 in c, needing only a sign change over the bracket.

    Higher dimensions solve one frozen QMC rule F_N to 1e-5, inside the 1e-4
    quantile contract: N is the sample size that meets the target at c0,
    the root of the cheap first-round rule (1/256 of a full pass at the
    default settings), and that sizing pass also gives F_N(c0), and F_n(c0)
    from its leading rounds.  The walk
    of ``_walk`` (secant steps from c0, first with the first-round slope,
    then widened, then Brent's method) runs on the anchored rule G(c) =
    F_N(c0) + F_n(c) - F_n(c0), whose n = N / ``_ANCHOR_SHARE`` points per
    scramble (the first round at least) are the leading points of F_N's
    scrambles: near c0 the difference has about F_N's own error, at 1/16 of
    its cost.  From G's root c1 a secant step on F_N through c0 and c1 gives
    c.  A second step, through c1 and c, runs where the first one's
    predicted miss exceeds ``_STEP_TOL``, half the root tolerance: K |c -
    c0| |c - c1|, K = |G''| / 2|G'| from G's own evaluations
    (``_secant_factor``), plus |c - c1|^2 / |c1 - c0|, the most that G's
    curvature can be off if all of G's miss at c1, which F_N(c1) shows, is
    curvature.  A step outside the bracket hands over to ``_walk`` on F_N.
    So the predicted miss, not a sign change of F_N, bounds the answer's
    distance from F_N's root.  On AVERROES a quantile takes two or three
    full-size passes, the sizing one included, against four or five for a
    walk on F_N itself.
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

    if corr.dim <= _EXACT_MAX_DIM:
        return _edge_or_root(
            lambda c: _exact(corr, *limits(c), df)[0] - target, lo, hi, _EXACT_XTOL
        )[0]

    sampler = _SobolSampler(corr.cholesky(), df, settings)
    n_full, c0, at_c0, slope, rounds = _qmc_sizing(sampler, limits, lo, hi, target)
    n_part = max(_round_points(settings.first_round_samples), n_full // _ANCHOR_SHARE)
    # the sizing pass at c0 has already summed F_n's points there
    part_c0 = sampler._value(rounds[n_part], n_part)[0]
    anchored = {c0: at_c0}

    def anchored_excess(c):
        anchored[c] = at_c0 + (sampler.estimate_fixed(*limits(c), n_part)[0] - part_c0)
        return anchored[c]

    def excess(c):
        return sampler.estimate_fixed(*limits(c), n_full)[0] - target

    c1 = _walk(anchored_excess, c0, at_c0, slope, lo, hi)
    k = _secant_factor(anchored, c1)
    a, at_a, b = c0, at_c0, c1
    for _ in range(2):  # secant steps on F_N
        if b == a:  # the walk stopped where F_N's own value settled it
            return b
        at_b = excess(b)
        slope = (at_b - at_a) / (b - a)
        c = b - at_b / slope if slope > 0.0 else math.inf
        if not lo <= c <= hi:
            return _walk(excess, b, at_b, slope, lo, hi)
        if k * abs(c - a) * abs(c - b) + (c - b) ** 2 / abs(b - a) <= _STEP_TOL:
            return c
        a, at_a, b = b, at_b, c
    return c
