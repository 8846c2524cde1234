"""Tests for the multivariate normal/t rectangle probability kernel."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gammaincinv, ndtr, ndtri, roots_legendre, stdtr
from scipy.stats import norm, t as student_t

from mmminfer import casestudy, mmm, mvdist
from mmminfer.errors import NotPSD
from mmminfer.mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    RectProb,
    equicoordinate_quantile,
    mv_rect_prob,
    pair_exceedance,
    triple_exceedance,
)

Z975 = 1.959963984540054


def random_correlation(rng, dim):
    """Full-rank correlation matrix from a random Wishart-style draw."""
    a = rng.standard_normal((dim, dim + 2))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)


def mc_rect_prob(corr, lower, upper, df, n_draws, seed):
    """Brute-force Monte Carlo oracle: Cholesky draws, count the hits."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(corr + 1e-12 * np.eye(corr.shape[0]))
    hits = 0
    chunk = 1_000_000
    done = 0
    while done < n_draws:
        n = min(chunk, n_draws - done)
        x = rng.standard_normal((n, corr.shape[0])) @ chol.T
        if df is not None:
            x /= np.sqrt(rng.chisquare(df, n) / df)[:, None]
        hits += np.count_nonzero(np.all((x >= lower) & (x <= upper), axis=1))
        done += n
    p = hits / n_draws
    se = np.sqrt(max(p * (1.0 - p), 1e-12) / n_draws)
    return p, se


class TestCorrelationMatrix:
    def test_identity(self):
        c = CorrelationMatrix.identity(4)
        assert c.dim == 4
        assert np.array_equal(c.entries, np.eye(4))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            CorrelationMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CorrelationMatrix([[2.0, 0.0], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            CorrelationMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_rejects_indefinite(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(NotPSD):
            CorrelationMatrix(bad)

    def test_accepts_singular_duplicate(self):
        c = CorrelationMatrix(np.ones((3, 3)))
        chol = c.cholesky()
        assert np.all(np.isfinite(chol))

    def test_stack_validation_matches_single_matrices(self):
        rng = np.random.default_rng(12)
        stack = np.array([random_correlation(rng, 3) for _ in range(4)])
        checked = mvdist.validate_correlation(stack)
        for a, entries in zip(stack, checked):
            np.testing.assert_array_equal(CorrelationMatrix(a).entries, entries)
            wrapped = CorrelationMatrix._checked(entries)
            np.testing.assert_array_equal(wrapped.entries, entries)
            assert not wrapped.entries.flags.writeable
        assert checked.flags.writeable  # wrapping copies, the stack stays usable
        stack[2] =[[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        with pytest.raises(NotPSD):
            mvdist.validate_correlation(stack)
        stack[2, 0, 1] += 1e-9
        with pytest.raises(ValueError, match="symmetric"):
            mvdist.validate_correlation(stack)

    def test_entries_read_only(self):
        c = CorrelationMatrix.identity(2)
        with pytest.raises(ValueError):
            c.entries[0, 1] = 0.5


class TestRectProb:
    def test_univariate_normal(self):
        c = CorrelationMatrix.identity(1)
        r = mv_rect_prob(c, [-Z975], [Z975])
        assert r.value == pytest.approx(0.95, abs=1e-5)
        assert r.converged
        assert r.samples == 0

    def test_univariate_t(self):
        c = CorrelationMatrix.identity(1)
        r = mv_rect_prob(c, [-2.228138852], [2.228138852], df=10)
        assert r.value == pytest.approx(0.95, abs=1e-6)

    def test_bivariate_independence_product(self):
        c = CorrelationMatrix.identity(2)
        r = mv_rect_prob(c, [-1.96, -1.96], [1.96, 1.96])
        assert r.value == pytest.approx(0.9500042097 ** 2, abs=1e-4)

    def test_trivariate_matches_mc_oracle(self):
        rng = np.random.default_rng(42)
        corr = random_correlation(rng, 3)
        lower = np.array([-1.2, -np.inf, -2.0])
        upper = np.array([1.5, 1.0, 2.5])
        oracle, se = mc_rect_prob(corr, lower, upper, None, 10_000_000, seed=7)
        r = mv_rect_prob(CorrelationMatrix(corr), lower, upper)
        assert abs(r.value - oracle) <= 3.0 * se

    def test_trivariate_t_matches_mc_oracle(self):
        rng = np.random.default_rng(43)
        corr = random_correlation(rng, 3)
        lower = np.full(3, -2.3)
        upper = np.full(3, 2.3)
        oracle, se = mc_rect_prob(corr, lower, upper, 18, 10_000_000, seed=8)
        r = mv_rect_prob(CorrelationMatrix(corr), lower, upper, df=18)
        assert abs(r.value - oracle) <= 3.0 * se

    def test_high_dim_matches_mc_oracle(self):
        rng = np.random.default_rng(44)
        corr = random_correlation(rng, 5)
        lower = np.full(5, -2.0)
        upper = np.array([1.0, 2.0, 1.5, 2.5, 0.5])
        oracle, se = mc_rect_prob(corr, lower, upper, None, 10_000_000, seed=9)
        r = mv_rect_prob(CorrelationMatrix(corr), lower, upper)
        assert abs(r.value - oracle) <= 3.0 * se + r.error

    def test_perfect_correlation_collapses(self):
        c = CorrelationMatrix(np.ones((2, 2)))
        r = mv_rect_prob(c, [-1.96, -1.96], [1.96, 1.96])
        assert r.value == pytest.approx(0.9500042097, abs=1e-4)

    def test_large_df_matches_normal(self):
        rng = np.random.default_rng(45)
        corr = CorrelationMatrix(random_correlation(rng, 3))
        lower, upper = np.full(3, -2.1), np.full(3, 2.1)
        rn = mv_rect_prob(corr, lower, upper)
        rt = mv_rect_prob(corr, lower, upper, df=1_000_000)
        assert rt.value == pytest.approx(rn.value, abs=5e-3)

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(46)
        corr = random_correlation(rng, 4)
        flip = np.diag([1.0, -1.0, 1.0, -1.0])
        conj = flip @ corr @ flip
        lim = np.full(4, 2.2)
        ra = mv_rect_prob(CorrelationMatrix(corr), -lim, lim)
        rb = mv_rect_prob(CorrelationMatrix(conj), -lim, lim)
        assert rb.value == pytest.approx(ra.value, abs=max(1e-4, 3 * (ra.error + rb.error)))

    def test_monotone_in_c(self):
        rng = np.random.default_rng(47)
        corr = CorrelationMatrix(random_correlation(rng, 3))
        values = []
        for c in (1.0, 1.5, 2.0, 2.5, 3.0):
            values.append(mv_rect_prob(corr, np.full(3, -c), np.full(3, c)).value)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_seed_determinism(self):
        rng = np.random.default_rng(48)
        corr = CorrelationMatrix(random_correlation(rng, 5))
        lower, upper = np.full(5, -1.8), np.full(5, 2.2)
        a = mv_rect_prob(corr, lower, upper)
        b = mv_rect_prob(corr, lower, upper)
        assert a == b

    def test_different_seed_changes_randomized_path(self):
        rng = np.random.default_rng(49)
        corr = CorrelationMatrix(random_correlation(rng, 5))
        lower, upper = np.full(5, -1.8), np.full(5, 2.2)
        a = mv_rect_prob(corr, lower, upper)
        b = mv_rect_prob(corr, lower, upper, settings=QuadratureSettings(seed=1))
        assert a.value != b.value
        assert a.value == pytest.approx(b.value, abs=3 * (a.error + b.error) + 1e-6)

    def test_accuracy_flagged_when_budget_exhausted(self):
        rng = np.random.default_rng(50)
        corr = CorrelationMatrix(random_correlation(rng, 5))
        tight = QuadratureSettings(
            target_abs_error=1e-9, max_samples=4096, shifts=8, first_round_samples=64
        )
        r = mv_rect_prob(corr, np.full(5, -1.5), np.full(5, 1.5), settings=tight)
        assert not r.converged
        assert 0.0 < r.value < 1.0

    def test_open_limits(self):
        c = CorrelationMatrix.identity(2)
        r = mv_rect_prob(c, [-np.inf, -np.inf], [np.inf, np.inf])
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_rejects_swapped_limits(self):
        c = CorrelationMatrix.identity(2)
        with pytest.raises(ValueError, match="strictly below"):
            mv_rect_prob(c, [1.0, 0.0], [0.0, 1.0])

    def test_rejects_wrong_shape(self):
        c = CorrelationMatrix.identity(3)
        with pytest.raises(ValueError, match="shape"):
            mv_rect_prob(c, [-1.0, -1.0], [1.0, 1.0])

    @pytest.mark.parametrize("df", [0, -3, 2.5, True])
    def test_rejects_bad_df(self, df):
        c = CorrelationMatrix.identity(2)
        with pytest.raises(ValueError, match="df"):
            mv_rect_prob(c, [-1.0, -1.0], [1.0, 1.0], df=df)


class TestEquicoordinateQuantile:
    def test_sidak_identity(self):
        c = CorrelationMatrix.identity(3)
        q = equicoordinate_quantile(c, 0.05)
        sidak = ndtri(1.0 - (1.0 - 0.95 ** (1.0 / 3.0)) / 2.0)
        assert q == pytest.approx(sidak, abs=2e-3)
        assert sidak == pytest.approx(2.3877, abs=5e-4)

    def test_perfect_correlation_collapses_to_univariate(self):
        c = CorrelationMatrix(np.ones((5, 5)))
        q = equicoordinate_quantile(c, 0.05)
        assert q == pytest.approx(1.9600, abs=2e-3)

    def test_large_df_matches_normal(self):
        rng = np.random.default_rng(51)
        corr = CorrelationMatrix(random_correlation(rng, 3))
        qn = equicoordinate_quantile(corr, 0.05)
        qt = equicoordinate_quantile(corr, 0.05, df=1_000_000)
        assert qt == pytest.approx(qn, abs=5e-3)

    def test_bracketing_two_sided(self):
        rng = np.random.default_rng(52)
        for dim in (2, 3, 4):
            corr = CorrelationMatrix(random_correlation(rng, dim))
            q = equicoordinate_quantile(corr, 0.05)
            assert ndtri(1.0 - 0.05 / 2.0) - 1e-9 <= q <= ndtri(1.0 - 0.05 / (2 * dim)) + 1e-9

    def test_one_sided_self_consistent(self):
        rng = np.random.default_rng(53)
        corr = CorrelationMatrix(random_correlation(rng, 3))
        q = equicoordinate_quantile(corr, 0.1, tail="one-sided")
        r = mv_rect_prob(corr, np.full(3, -np.inf), np.full(3, q))
        assert r.value == pytest.approx(0.9, abs=5e-4)

    def test_two_sided_self_consistent_t(self):
        rng = np.random.default_rng(54)
        corr = CorrelationMatrix(random_correlation(rng, 3))
        q = equicoordinate_quantile(corr, 0.05, df=30)
        r = mv_rect_prob(corr, np.full(3, -q), np.full(3, q), df=30)
        assert r.value == pytest.approx(0.95, abs=5e-4)

    def test_high_dim_self_consistent(self):
        rng = np.random.default_rng(55)
        corr = CorrelationMatrix(random_correlation(rng, 5))
        q = equicoordinate_quantile(corr, 0.05)
        r = mv_rect_prob(corr, np.full(5, -q), np.full(5, q))
        assert r.value == pytest.approx(0.95, abs=1e-3)

    def test_univariate_exact(self):
        c = CorrelationMatrix.identity(1)
        assert equicoordinate_quantile(c, 0.05) == pytest.approx(Z975, abs=1e-9)

    def test_rejects_bad_alpha(self):
        c = CorrelationMatrix.identity(2)
        for alpha in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ValueError, match="alpha"):
                equicoordinate_quantile(c, alpha)

    def test_rejects_bad_tail(self):
        c = CorrelationMatrix.identity(2)
        with pytest.raises(ValueError, match="tail"):
            equicoordinate_quantile(c, 0.05, tail="both")

    def test_seed_determinism(self):
        rng = np.random.default_rng(56)
        corr = CorrelationMatrix(random_correlation(rng, 5))
        assert equicoordinate_quantile(corr, 0.05) == equicoordinate_quantile(corr, 0.05)


def quantile_limits(dim, tail):
    lower = (lambda c: -c) if tail == "two-sided" else (lambda c: -np.inf)
    return lambda c: (np.full(dim, lower(c)), np.full(dim, c))


def frozen_prob(corr, alpha, tail, df, settings):
    """The quantile's evaluator and bracket, rebuilt from its parts: the
    exact probability (dim <= 3), or the QMC rule frozen at the sample size
    that ``_qmc_sizing`` picks at the first-round root (higher dims)."""
    lo, hi = mvdist._quantile_bracket(alpha, tail, corr.dim, df)
    limits = quantile_limits(corr.dim, tail)
    if corr.dim <= 3:
        return (lambda c: mvdist._exact(corr, *limits(c), df)[0]), lo, hi
    sampler = mvdist._SobolSampler(corr.cholesky(), df, settings)
    n = mvdist._qmc_sizing(sampler, limits, lo, hi, 1.0 - alpha)[0]
    return (lambda c: sampler.estimate_fixed(*limits(c), n)[0]), lo, hi


def bisect_frozen(prob, a, b, target):
    assert prob(a) < target < prob(b)  # an interior root
    while b - a > 1e-9:
        c = 0.5 * (a + b)
        if prob(c) < target:
            a = c
        else:
            b = c
    return 0.5 * (a + b)


def spy_evaluated_c(monkeypatch):
    """Record the upper limit and points per scramble of every QMC pass."""
    seen = []
    sums = mvdist._SobolSampler._sums

    def spy(self, lower, upper, start, count):
        seen.append((float(upper[0]), start + count))
        return sums(self, lower, upper, start, count)

    monkeypatch.setattr(mvdist._SobolSampler, "_sums", spy)
    return seen


def spy_passes(monkeypatch):
    """Record the upper limit and points per scramble of every fixed-size
    QMC evaluation, and ("sized", upper limit, points per scramble) of every
    adaptive one, in order."""
    events = []
    fixed, estimate = mvdist._SobolSampler.estimate_fixed, mvdist._SobolSampler.estimate

    def spy_fixed(self, lower, upper, n_per_shift):
        events.append((float(upper[0]), n_per_shift))
        return fixed(self, lower, upper, n_per_shift)

    def spy_estimate(self, lower, upper, **kwargs):
        out = estimate(self, lower, upper, **kwargs)
        events.append(("sized", float(upper[0]), out[3]))
        return out

    monkeypatch.setattr(mvdist._SobolSampler, "estimate_fixed", spy_fixed)
    monkeypatch.setattr(mvdist._SobolSampler, "estimate", spy_estimate)
    return events


def anchored_walk(events, settings):
    """The first-round evaluations of one QMC quantile, its frozen size N,
    and its evaluations at N and at the anchored size n = N / 16 (the first
    round at least) after the sizing pass, which must be its only one and
    the rest of its evaluations."""
    marks = [i for i, ev in enumerate(events) if ev[0] == "sized"]
    assert len(marks) == 1  # sized once, at the first-round root
    n_full = events[marks[0]][2]
    first = mvdist._round_points(settings.first_round_samples)
    n_part = max(first, n_full // 16)
    coarse, after = events[: marks[0]], events[marks[0] + 1 :]
    full = [c for c, n in after if n == n_full]
    anchored = [c for c, n in after if n == n_part]
    assert n_part < n_full
    assert set(n for _, n in coarse) == {first}
    assert len(full) + len(anchored) == len(after)
    return coarse, n_full, full, anchored


def averroes_c_hat():
    """C_hat of the AVERROES analysis: the stack of the nine models that
    ``casestudy.analyze`` fits, a near-singular dimension-9 correlation."""
    fitted = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(casestudy, "infer", lambda models, *args, **kwargs: fitted.append(models))
        casestudy.analyze(casestudy.load_averroes())
    return mmm.stack(fitted[0]).c_hat


LOOSE = QuadratureSettings(target_abs_error=1e-3, shifts=8)


class TestQuantileRootFind:
    def test_qmc_path_makes_few_frozen_evaluations(self, monkeypatch):
        # the walk runs on the anchored rule at N / 16, and at most two
        # secant steps on the frozen rule follow it
        events = spy_passes(monkeypatch)
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(70), 5))
        equicoordinate_quantile(corr, 0.05)
        coarse, n, full, anchored = anchored_walk(events, QuadratureSettings())
        assert coarse and n // 16 > mvdist._round_points(QuadratureSettings().first_round_samples)
        assert 1 <= len(full) <= 2
        # the walk; the anchor at c0 comes from the sizing pass's own rounds
        (c0,) = [ev[1] for ev in events if ev[0] == "sized"]
        assert anchored and c0 not in anchored

    def test_gl_path_makes_few_frozen_evaluations(self, monkeypatch):
        # full rank at dimension 3: the exact rule takes its Plackett path
        # with Gauss-Legendre rules; no QMC rule is built
        events = []
        exact = mvdist._exact

        def spy(corr, lower, upper, df):
            events.append(float(upper[0]))
            return exact(corr, lower, upper, df)

        monkeypatch.setattr(mvdist, "_exact", spy)
        monkeypatch.setattr(mvdist, "_SobolSampler", None)
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(71), 3))
        q = equicoordinate_quantile(corr, 0.05, df=12)
        lo, hi = mvdist._quantile_bracket(0.05, "two-sided", 3, 12)
        assert 3 <= len(events) <= 12
        assert all(lo <= c <= hi for c in events)
        assert exact(corr, np.full(3, -q), np.full(3, q), 12)[0] == pytest.approx(0.95, abs=1e-7)

    @pytest.mark.parametrize(
        "dim, df, tail",
        [
            (dim, df, tail)
            for dim in (2, 3, 5)
            for df in (None, 11)
            for tail in ("two-sided", "one-sided")
        ]
        + [("averroes", None, "one-sided")],
    )
    def test_root_matches_a_bisection(self, dim, df, tail):
        if dim == "averroes":
            corr = averroes_c_hat()
        else:
            corr = CorrelationMatrix(random_correlation(np.random.default_rng(100 + dim), dim))
        alpha = 0.05
        q = equicoordinate_quantile(corr, alpha, tail=tail, df=df, settings=LOOSE)
        prob, a, b = frozen_prob(corr, alpha, tail, df, LOOSE)
        assert abs(q - bisect_frozen(prob, a, b, 1.0 - alpha)) <= 1e-5

    @pytest.mark.parametrize("tail", ["two-sided", "one-sided"])
    @pytest.mark.parametrize("df", [None, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_qmc_walk_stays_in_the_bracket(self, seed, df, tail, monkeypatch):
        seen = spy_evaluated_c(monkeypatch)
        rng = np.random.default_rng(300 + seed)
        dim = int(rng.integers(4, 8))
        corr = CorrelationMatrix(random_correlation(rng, dim))
        lo, hi = mvdist._quantile_bracket(0.05, tail, dim, df)
        q = equicoordinate_quantile(corr, 0.05, tail=tail, df=df)
        assert lo <= q <= hi
        assert all(lo <= c <= hi for c, _ in seen)

    @staticmethod
    def walk_with_slope(monkeypatch, slope_of):
        """The quantile's anchored evaluations after sizing, its bracket and
        its distance from a bisection of its frozen rule, with the
        first-round slope replaced by ``slope_of(slope)``.  At df 11 the
        frozen rule has two rounds, so it is not the first-round rule, and
        the anchored rule has one."""
        sizing = mvdist._qmc_sizing

        def spy_sizing(*args):
            out = sizing(*args)
            return out[:3] + (slope_of(out[3]),) + out[4:]

        monkeypatch.setattr(mvdist, "_qmc_sizing", spy_sizing)
        events = spy_passes(monkeypatch)
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(105), 5))
        q = equicoordinate_quantile(corr, 0.05, df=11, settings=LOOSE)
        coarse, _, full, anchored = anchored_walk(events, LOOSE)
        prob, lo, hi = frozen_prob(corr, 0.05, "two-sided", 11, LOOSE)
        assert 1 <= len(full) <= 2
        assert all(lo <= c <= hi for c in [c for c, _ in coarse] + full + anchored)
        return anchored, lo, hi, abs(q - bisect_frozen(prob, lo, hi, 0.95))

    @pytest.mark.parametrize("slope", [1e-9, 0.0, -1.0])
    def test_a_useless_slope_walks_to_the_edge_and_still_finds_the_root(
        self, slope, monkeypatch
    ):
        # a step past the bracket is cut at its edge, and a flat or falling
        # first-round slope steps across the whole bracket
        anchored, lo, hi, miss = self.walk_with_slope(monkeypatch, lambda _: slope)
        assert set(anchored) & {lo, hi}
        assert miss <= 1e-5

    @pytest.mark.parametrize("factor", [4.0, 0.25])
    def test_a_wrong_first_step_still_finds_the_root(self, factor, monkeypatch):
        # too steep a slope falls short, and the walk widens the anchored
        # rule's own secant step; too flat a slope overshoots
        anchored, lo, hi, miss = self.walk_with_slope(monkeypatch, lambda s: factor * s)
        assert not set(anchored) & {lo, hi}
        assert miss <= 1e-5

    @pytest.mark.parametrize("tail", ["two-sided", "one-sided"])
    def test_rank_one_returns_the_unadjusted_quantile(self, tail, monkeypatch):
        # all five statistics are one, so the probability at lo is 1 - alpha
        # up to round-off (3e-16 below it): Brent's method settles on lo
        # from its first steps, and no walk runs
        seen = spy_evaluated_c(monkeypatch)
        corr = CorrelationMatrix(np.ones((5, 5)))
        lo, hi = mvdist._quantile_bracket(0.05, tail, 5, None)
        assert equicoordinate_quantile(corr, 0.05, tail=tail) == lo
        assert all(c - lo <= 1e-5 or c == hi for c, _ in seen)


def full_formula_weights(chol, lower, upper, w, radial=None):
    """The Genz integrand as the full formula, every limit through ndtr."""
    nvar = chol.shape[0]
    scale = 1.0 if radial is None else radial
    d = ndtr(lower[0] * scale / chol[0, 0])
    e = ndtr(upper[0] * scale / chol[0, 0])
    f = e - d
    y = np.empty((w.shape[0], nvar - 1))
    for i in range(1, nvar):
        u = np.clip(d + w[:, i - 1] * (e - d), mvdist._TINY, 1.0 - mvdist._TINY)
        y[:, i - 1] = ndtri(u)
        mu = y[:, :i] @ chol[i, :i]
        d = ndtr((lower[i] * scale - mu) / chol[i, i])
        e = ndtr((upper[i] * scale - mu) / chol[i, i])
        f = f * np.maximum(e - d, 0.0)
    return f


class TestOpenLimits:
    CORR = [
        [1.0, 0.6, 0.3, -0.2],
        [0.6, 1.0, 0.4, 0.1],
        [0.3, 0.4, 1.0, 0.5],
        [-0.2, 0.1, 0.5, 1.0],
    ]
    LIMITS = {
        "one-sided": ([-np.inf] * 4, [1.1, 0.4, 2.0, 1.6]),
        "upper-open": ([-1.1, -0.4, -2.0, -1.6], [np.inf] * 4),
        "mixed": ([-np.inf, -0.7, -np.inf, -1.2], [0.9, np.inf, np.inf, 1.4]),
        "tail-open": ([-1.5, -np.inf, -np.inf, -np.inf], [0.8, np.inf, np.inf, np.inf]),
        "all-open": ([-np.inf] * 4, [np.inf] * 4),
        "finite": ([-1.5, -0.3, -2.2, -1.0], [0.8, 1.9, 0.2, 1.3]),
    }

    @pytest.mark.parametrize("radial", [False, True], ids=["normal", "t"])
    @pytest.mark.parametrize("case", sorted(LIMITS))
    def test_equals_the_full_formula(self, case, radial):
        rng = np.random.default_rng(80)
        chol = CorrelationMatrix(self.CORR).cholesky()
        w = rng.random((4096, 3))
        r = np.sqrt(rng.chisquare(7, 4096) / 7) if radial else None
        lower, upper = (np.array(x, dtype=float) for x in self.LIMITS[case])
        got = mvdist._genz_weights(chol, lower, upper, w, r)
        assert got.shape == (4096,)
        np.testing.assert_array_equal(got, full_formula_weights(chol, lower, upper, w, r))


    # A near-singular correlation shaped like AVERROES: two disjoint
    # subgroups and their union, by two endpoints and their union, plus a
    # little independent noise, so five Cholesky pivots are tiny and most
    # points of those coordinates have Phi exactly 0 or 1.
    UNION_LIMITS = {
        "one-sided": ([-np.inf] * 9, [2.4] * 9),
        "two-sided": ([-2.4] * 9, [2.4] * 9),
        "mixed": (
            [-np.inf, -2.1, -np.inf, -1.8, -np.inf, -np.inf, -2.6, -np.inf, -2.2],
            [2.3, np.inf, 2.0, 2.5, np.inf, 1.9, np.inf, 2.7, 2.2],
        ),
    }

    @staticmethod
    def union_correlation():
        def union(p):
            a, b = math.sqrt(p), math.sqrt(1.0 - p)
            return np.array([[1.0, a, b], [a, 1.0, 0.0], [b, 0.0, 1.0]])

        eps = 1e-5
        return (1.0 - eps) * np.kron(union(0.45), union(0.8)) + eps * np.eye(9)

    @pytest.mark.parametrize("radial", [False, True], ids=["normal", "t"])
    @pytest.mark.parametrize("case", sorted(UNION_LIMITS))
    def test_equals_the_full_formula_near_singular(self, case, radial, monkeypatch):
        sizes = []

        def spy(x, *args, **kwargs):
            if np.ndim(x):
                sizes.append(np.size(x))
            return ndtr(x, *args, **kwargs)

        monkeypatch.setattr(mvdist, "ndtr", spy)
        rng = np.random.default_rng(81)
        chol = CorrelationMatrix(self.union_correlation()).cholesky()
        assert np.sum(np.diag(chol) < 0.1) == 5
        w = rng.random((4096, 8))
        r = np.sqrt(rng.chisquare(7, 4096) / 7) if radial else None
        lower, upper = (np.array(x, dtype=float) for x in self.UNION_LIMITS[case])
        got = mvdist._genz_weights(chol, lower, upper, w, r)
        assert got.shape == (4096,)
        np.testing.assert_array_equal(got, full_formula_weights(chol, lower, upper, w, r))
        # the masked branch ran: some pass handed ndtr only the live points
        assert min(sizes) < 4096


class TestSaturation:
    """Phi is exactly 1.0 from ``_PHI_ONE`` up and exactly 0.0 below
    ``_PHI_ZERO`` in double precision, so the integrand may write those
    values without calling ndtr.  A scipy whose ndtr moved off them fails
    here rather than changing the integrand's bits."""

    def test_ndtr_is_exactly_one_from_the_upper_threshold(self):
        x = np.concatenate(
            [
                np.linspace(mvdist._PHI_ONE, 100.0, 400_001),
                np.geomspace(100.0, 1e300, 100_001),
                [np.inf],
            ]
        )
        assert x[0] == mvdist._PHI_ONE
        assert np.all(ndtr(x) == 1.0)

    def test_ndtr_is_exactly_zero_below_the_lower_threshold(self):
        below = np.nextafter(mvdist._PHI_ZERO, -np.inf)
        x = np.concatenate(
            [
                np.linspace(below, -100.0, 400_001),
                -np.geomspace(100.0, 1e300, 100_001),
                [-np.inf],
            ]
        )
        assert np.all(ndtr(x) == 0.0)

    @pytest.mark.parametrize("share", [0.0, 0.3, 0.5, 0.7, 0.98, 1.0])
    def test_equals_ndtr_bit_for_bit(self, share):
        rng = np.random.default_rng(82)
        x = rng.normal(0.0, 4.0, 4096)
        saturated = rng.random(4096) < share
        edges = [mvdist._PHI_ONE, 12.0, 1e300, np.inf, np.nextafter(mvdist._PHI_ZERO, -1), -1e3]
        x[saturated] = rng.choice(edges, np.count_nonzero(saturated))
        # live points at the edges, and NaN, which must reach ndtr
        x[:3] = [np.nextafter(mvdist._PHI_ONE, 0), mvdist._PHI_ZERO, np.nan]
        got = mvdist._ndtr_saturating(x.copy())
        np.testing.assert_array_equal(got.view(np.int64), ndtr(x).view(np.int64))


# Rectangle calls on the multivariate-t QMC path, small to large sample
# counts: (target, max_samples); all share one point set (seed, 8 shifts).
T_CALLS = ((2e-3, 1_500_000), (5e-4, 1_500_000), (1e-12, 8 << 15), (1e-12, 8 << 10))
T_DF = 9


def t_path_values(calls=T_CALLS):
    """Each call's (value, error, samples), floats as exact hex strings,
    keyed by call, plus one equicoordinate quantile."""
    rng = np.random.default_rng(60)
    corr = CorrelationMatrix(random_correlation(rng, 5))
    lower, upper = np.full(5, -2.4), np.array([2.4, 2.0, np.inf, 2.6, 2.2])
    out = {}
    for target, budget in calls:
        s = QuadratureSettings(
            target_abs_error=target, max_samples=budget, shifts=8, first_round_samples=64
        )
        r = mv_rect_prob(corr, lower, upper, df=T_DF, settings=s)
        out[f"{target:g}/{budget}"] = [r.value.hex(), r.error.hex(), r.samples]
    q = equicoordinate_quantile(
        corr, 0.05, df=T_DF, settings=QuadratureSettings(target_abs_error=1e-3, shifts=8)
    )
    out["quantile"] = q.hex()
    return out


@pytest.fixture
def no_chi_tables():
    mvdist._chi_table.cache_clear()


def test_low_dimensions_leave_scipy_stats_unimported():
    # scipy.stats costs about a second to import; the t path's chi-scale
    # table needs scipy.special only
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import mmminfer.cli\n"
        "from mmminfer.mvdist import CorrelationMatrix, equicoordinate_quantile, mv_rect_prob\n"
        "corr = CorrelationMatrix([[1, 0.3, 0.5], [0.3, 1, 0.2], [0.5, 0.2, 1]])\n"
        "equicoordinate_quantile(corr, 0.05, df=20)\n"
        "corr = CorrelationMatrix(np.full((5, 5), 0.5) + 0.5 * np.eye(5))\n"
        "mv_rect_prob(corr, np.full(5, -2.0), np.full(5, 2.0), df=7)\n"
        "unwanted = ('scipy.stats', 'scipy.optimize', 'scipy.linalg')\n"
        "print([m for m in unwanted if m in sys.modules])\n"
    )
    src = str(Path(mvdist.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


# dfs of the chi-scale oracle, from the heaviest tail to nearly normal
CHI_DFS = [1, 2, 3, 5, 7, 18, 48, 498, 10**4, 10**6]


class TestChiScale:
    @pytest.mark.parametrize("df", CHI_DFS)
    def test_matches_gammaincinv(self, df):
        # uniforms the sampler can produce: k * 2**-30 for random k, k near 0
        # and near 2**30, and _TINY, where k = 0 is clipped
        rng = np.random.default_rng(df)
        k = np.concatenate(
            [rng.integers(0, 1 << 30, 100_000), np.arange(1000), (1 << 30) - np.arange(1, 1001)]
        )
        u = np.append(k * 2.0**-30, mvdist._TINY)
        want = np.sqrt(2.0 * gammaincinv(0.5 * df, np.maximum(u, mvdist._TINY)) / df)
        got = mvdist._chi_scale(u, df)
        assert np.abs(got / want - 1.0).max() <= 1e-12

    def test_a_huge_df_agrees_with_the_normal(self):
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(61), 5))
        lower, upper = np.full(5, -2.3), np.array([2.3, 2.0, np.inf, 2.6, 2.2])
        s = QuadratureSettings(target_abs_error=1e-4, shifts=8)
        t = mv_rect_prob(corr, lower, upper, df=10**6, settings=s)
        normal = mv_rect_prob(corr, lower, upper, settings=s)
        assert abs(t.value - normal.value) <= t.error + normal.error

    def test_memory_held_is_the_tables(self, no_chi_tables):
        corr = CorrelationMatrix(np.full((5, 5), 0.5) + 0.5 * np.eye(5))
        lower, upper = np.full(5, -np.inf), np.full(5, 2.0)
        s = QuadratureSettings(
            target_abs_error=1e-12, max_samples=8 << 14, shifts=8, first_round_samples=64
        )
        dfs = range(3, 15)
        mv_rect_prob(corr, lower, upper, df=2, settings=s)  # the point caches first
        tracemalloc.start()
        try:
            for df in dfs:
                r = mv_rect_prob(corr, lower, upper, df=df, settings=s)
                assert r.samples * 2 > s.max_samples  # ran to the sample cap
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tables = sum(sys.getsizeof(a) for df in dfs for a in mvdist._chi_table(df))
        # the tables and the lru_cache's few hundred bytes of links per entry
        assert held <= tables + 1024 * len(dfs)

    def test_values_equal_a_fresh_process(self):
        warm = t_path_values(T_CALLS[::-1])
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from test_mvdist import t_path_values\n"
            "print(json.dumps(t_path_values()))\n"
        )
        src = str(Path(mvdist.__file__).resolve().parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        assert warm == t_path_values() == json.loads(fresh.stdout)

    def test_call_order_does_not_matter(self, no_chi_tables):
        forward = t_path_values()
        mvdist._chi_table.cache_clear()
        assert t_path_values(T_CALLS[::-1]) == forward

    def test_threads_sharing_a_key_get_the_sequential_values(self, no_chi_tables):
        dim = 5
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(93), dim))
        s = QuadratureSettings(
            target_abs_error=1e-12, max_samples=8 << 12, shifts=8, first_round_samples=64
        )
        edges = [1.9 + 0.1 * k for k in range(6)]  # one thread each, more than cores

        def value(b):
            r = mv_rect_prob(corr, np.full(dim, -b), np.full(dim, b), df=7, settings=s)
            return r.value, r.error

        want = [value(b) for b in edges]
        got = [None] * len(edges)

        def work(k):
            got[k] = value(edges[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):  # each round builds the table
                mvdist._chi_table.cache_clear()
                got[:] = [None] * len(edges)
                threads = [threading.Thread(target=work, args=(k,)) for k in range(len(edges))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert got == want
        finally:
            sys.setswitchinterval(interval)




def scipy_points(qdim, settings, n):
    """First ``n`` points of each scramble drawn afresh from scipy as floats,
    shaped (shifts, n, qdim): the reference the computed points must match."""
    from scipy.stats import qmc

    seeds = np.random.SeedSequence(settings.seed).spawn(settings.shifts)
    draw = 1 << max(n - 1, 1).bit_length()  # a power of two keeps scipy quiet
    return np.stack(
        [qmc.Sobol(qdim, scramble=True, seed=np.random.default_rng(s)).random(draw)[:n] for s in seeds]
    )


def whole_range_sums(sampler, lower, upper, start, count):
    """Integrand sums per scramble from one integrand call over all points
    of the range, reshaped into one array (no blocks), on points drawn from
    scipy rather than computed by index."""
    s, df = sampler.settings, sampler.df
    end = start + count
    pts = scipy_points(sampler.qdim, s, end)
    w = pts[:, start:end, :].reshape(-1, sampler.qdim)
    if df is None:
        vals = mvdist._genz_weights(sampler.chol, lower, upper, w)
    else:
        radial = mvdist._chi_scale(w[:, 0], df)
        vals = mvdist._genz_weights(sampler.chol, lower, upper, w[:, 1:], radial)
    return vals.reshape(s.shifts, count).sum(axis=1)


BLOCK = mvdist._BLOCK_POINTS
# (start, count, shifts) of one _sums call, against the block size: every
# scramble in one block, scrambles grouped unevenly, exactly one block per
# scramble, several blocks per scramble with a short last one, from the
# first point or a later one.
SUMS_CASES = {
    "grouped-all": (0, BLOCK // 16, 8),
    "grouped-uneven": (0, BLOCK // 8 - 24, 12),
    "at-block": (0, BLOCK, 3),
    "above-block": (0, BLOCK + BLOCK // 2, 3),
    "above-block-later": (2 * BLOCK, BLOCK + BLOCK // 2, 2),
    "several-blocks": (0, 2 * BLOCK + 100, 2),
}


def spy_block_sizes(monkeypatch):
    """Record the number of points of every integrand call."""
    sizes = []
    genz = mvdist._genz_weights

    def spy(chol, lower, upper, w, radial=None):
        sizes.append(w.shape[0])
        return genz(chol, lower, upper, w, radial)

    monkeypatch.setattr(mvdist, "_genz_weights", spy)
    return sizes


class TestStreamedSums:
    CORR = random_correlation(np.random.default_rng(90), 5)
    LOWER = np.array([-2.1, -np.inf, -1.8, -2.4, -np.inf])
    UPPER = np.array([2.1, 1.9, np.inf, 2.4, 2.2])

    @pytest.mark.parametrize("df", [None, 7], ids=["normal", "t"])
    @pytest.mark.parametrize("case", sorted(SUMS_CASES))
    def test_equals_the_whole_range_formula(self, case, df):
        start, count, shifts = SUMS_CASES[case]
        sampler = mvdist._SobolSampler(
            CorrelationMatrix(self.CORR).cholesky(), df, QuadratureSettings(shifts=shifts)
        )
        got = sampler._sums(self.LOWER, self.UPPER, start, count)
        want = whole_range_sums(sampler, self.LOWER, self.UPPER, start, count)
        assert got.shape == (shifts,)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("df", [None, 7], ids=["normal", "t"])
    def test_small_calls_stay_one_call(self, df, monkeypatch):
        sizes = spy_block_sizes(monkeypatch)
        sampler = mvdist._SobolSampler(
            CorrelationMatrix(self.CORR).cholesky(), df, QuadratureSettings()
        )
        sampler._sums(self.LOWER, self.UPPER, 0, 256)
        assert sizes == [12 * 256]

    @pytest.mark.parametrize("df", [None, 12], ids=["normal", "t"])
    def test_no_call_exceeds_the_block(self, df, monkeypatch):
        sizes = spy_block_sizes(monkeypatch)
        dim = 9
        corr = CorrelationMatrix(np.full((dim, dim), 0.4) + 0.6 * np.eye(dim))
        s = QuadratureSettings(target_abs_error=1e-12, max_samples=12 << 16)
        r = mv_rect_prob(corr, np.full(dim, -2.5), np.full(dim, 2.5), df=df, settings=s)
        assert r.samples == 12 << 16  # ran to the sample cap
        assert max(sizes) <= BLOCK
        assert sum(sizes) == r.samples  # every point evaluated once

    @pytest.mark.parametrize("df", [None, 12], ids=["normal", "t"])
    def test_blocks_take_one_point_buffer(self, df, monkeypatch):
        # a fresh array per block costs page faults on every block
        points = []
        genz = mvdist._genz_weights

        def spy(chol, lower, upper, w, radial=None):
            points.append(w)
            return genz(chol, lower, upper, w, radial)

        monkeypatch.setattr(mvdist, "_genz_weights", spy)
        sampler = mvdist._SobolSampler(
            CorrelationMatrix(self.CORR).cholesky(), df, QuadratureSettings(shifts=2)
        )
        sampler._sums(self.LOWER, self.UPPER, 0, 3 * BLOCK)
        assert len(points) == 8
        assert all(np.shares_memory(w, points[0]) for w in points)

    @pytest.mark.parametrize("df", [None, 12], ids=["normal", "t"])
    def test_one_call_keeps_no_value_array(self, df):
        # 12 x 2**16 points at dimension 9: the blocks' working arrays only,
        # not the 6 MiB of one value per point
        dim = 9
        corr = CorrelationMatrix(np.full((dim, dim), 0.4) + 0.6 * np.eye(dim))
        sampler = mvdist._SobolSampler(corr.cholesky(), df, QuadratureSettings())
        limits = np.full(dim, -2.5), np.full(dim, 2.5)
        sampler._sums(*limits, 0, 256)  # the scrambles are cached first
        tracemalloc.start()
        try:
            sampler._sums(*limits, 0, 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20

    @pytest.mark.parametrize("df", [None, 12], ids=["normal", "t"])
    def test_transient_memory_stays_small(self, df, no_chi_tables):
        # one cold two-sided evaluation of 12 x 2**16 samples at dimension 9:
        # its points (24 or 27 MiB as int32) are computed block by block, and on
        # the t path its chi-scale table is built within the trace
        dim = 9
        corr = CorrelationMatrix(np.full((dim, dim), 0.4) + 0.6 * np.eye(dim))
        sampler = mvdist._SobolSampler(corr.cholesky(), df, QuadratureSettings())
        limits = np.full(dim, -2.5), np.full(dim, 2.5)
        tracemalloc.start()
        try:
            sampler.estimate_fixed(*limits, 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


def gram_correlation(vectors):
    """Correlation matrix of the rows of ``vectors``."""
    v = np.asarray(vectors, dtype=float)
    s = v @ v.T
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)


def ray_rule_case(k):
    """Case k of 24 random boxes of dimension 2 or 3 (ranks 1 up to full,
    normal or t with df 3 to 80, b from 1.5 to 3.2), from one stream."""
    rng = np.random.default_rng(2026)
    for i in range(k + 1):
        dim = 2 + i % 2
        a = rng.standard_normal((dim, int(rng.integers(1, dim + 2))))
        df = None if i % 3 == 0 else int(rng.integers(3, 81))
        b = float(rng.uniform(1.5, 3.2))
    return CorrelationMatrix(gram_correlation(a)), b, df


# AVERROES-like rank-deficient dimension 6: all = S1 + S2 and stroke =
# ischemic + hemorrhagic, the rarer hemorrhagic score at 0.4 of the scale.
_I1, _H1, _I2, _H2 = np.eye(4) * [1.0, 0.4, 1.0, 0.4]
RANK_4_OF_6 = gram_correlation(
    [_I1 + _I2, _I1 + _I2 + _H1 + _H2, _I1, _I1 + _H1, _I2, _I2 + _H2]
)
# (correlation, b, df, reference value, reference error): the references
# are ``mv_rect_prob`` (Genz) at a target of 1e-6 under the default seed,
# capped at 2e8 samples; the rank-deficient ones stopped at 100,663,296.
TIGHT_BOXES = {
    "equi-4": (np.full((4, 4), 0.5) + 0.5 * np.eye(4), 2.4, None, 0.944295383, 4.54e-07),
    "full-5-t10": (
        gram_correlation(np.random.default_rng(11).standard_normal((5, 7))),
        2.6, 10, 0.894739189, 9.19e-07,
    ),
    "rank-4-of-6": (RANK_4_OF_6, 2.5, None, 0.956730367, 3.67e-06),
    "rank-4-of-6-t40": (RANK_4_OF_6, 2.5, 40, 0.945075272, 1.03e-05),
    "rank-3-of-7": (
        gram_correlation(np.random.default_rng(12).standard_normal((7, 3))),
        2.7, None, 0.972814333, 3.01e-06,
    ),
}


class TestMaxAbsProb:
    """``max_abs_prob``: the exact rule up to dimension 3, the spherical-radial
    rule above it."""

    QMC = QuadratureSettings(
        target_abs_error=1e-4, max_samples=8 << 14, shifts=8, first_round_samples=64
    )
    CASES = {"normal-5": (5, None, 11), "t-6": (6, 9, 12)}

    def case(self, name):
        dim, df, seed = self.CASES[name]
        return CorrelationMatrix(random_correlation(np.random.default_rng(seed), dim)), df

    @pytest.mark.parametrize("decide_at", [None, 0.9])
    @pytest.mark.parametrize("df", [None, 7])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_is_the_exact_rule_up_to_dimension_3(self, dim, df, decide_at):
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(dim), dim))
        edge = np.full(dim, 2.2)
        want = mv_rect_prob(corr, -edge, edge, df, decide_at=decide_at)
        assert mvdist.max_abs_prob(corr, 2.2, df, decide_at=decide_at) == want

    @pytest.mark.parametrize("k", range(24))
    def test_rays_match_the_exact_rule_at_dimensions_2_and_3(self, k):
        # the ray integrand itself, where the exact rule is the oracle
        corr, b, df = ray_rule_case(k)
        edge = np.full(corr.dim, b)
        sampler = mvdist._SobolSampler(corr.cholesky(), df, QuadratureSettings(), rays=True)
        value, error, _, _ = sampler.estimate(-edge, edge)
        assert abs(value - mvdist._exact(corr, -edge, edge, df)[0]) <= error

    @pytest.mark.parametrize("name", sorted(TIGHT_BOXES))
    def test_matches_tight_genz_values(self, name):
        entries, b, df, reference, reference_error = TIGHT_BOXES[name]
        r = mvdist.max_abs_prob(CorrelationMatrix(entries), b, df)
        assert r.converged
        assert abs(r.value - reference) <= r.error + reference_error

    @pytest.mark.parametrize("name", CASES)
    def test_decide_at_none_changes_nothing(self, name):
        corr, df = self.case(name)
        plain = mvdist.max_abs_prob(corr, 2.3, df, self.QMC)
        assert mvdist.max_abs_prob(corr, 2.3, df, self.QMC, decide_at=None) == plain

    @pytest.mark.parametrize("offset", [0.0, 1e-5, 1e-4, -1e-3, 1e-2])
    @pytest.mark.parametrize("name", CASES)
    def test_stops_at_the_first_round_that_meets_a_stop(self, name, offset):
        corr, df = self.case(name)
        s, edge = self.QMC, np.full(corr.dim, 2.3)
        plain = mvdist.max_abs_prob(corr, 2.3, df, s)
        decide_at = plain.value + offset
        r = mvdist.max_abs_prob(corr, 2.3, df, s, decide_at=decide_at)
        assert r.samples <= plain.samples
        sampler = mvdist._SobolSampler(corr.cholesky(), df, s, rays=True)
        n, target = mvdist._round_points(s.first_round_samples), s.target_abs_error
        while n * s.shifts < r.samples:
            value, err = sampler.estimate_fixed(-edge, edge, n)
            assert not (err <= target or abs(value - decide_at) > max(err, 2.0 * target))
            n *= 2
        value, err = sampler.estimate_fixed(-edge, edge, n)
        assert n * s.shifts == r.samples
        assert (r.value, r.error) == (min(max(value, 0.0), 1.0), err)
        last = 2 * r.samples > s.max_samples
        assert err <= target or last or abs(value - decide_at) > max(err, 2.0 * target)
        assert r.converged == (err <= target)
        assert r.decided == (not r.converged and abs(value - decide_at) > max(err, 2 * target))

    def test_a_decision_stop_is_recorded(self):
        corr, df = self.case("normal-5")
        plain = mvdist.max_abs_prob(corr, 2.3, df, self.QMC)
        r = mvdist.max_abs_prob(corr, 2.3, df, self.QMC, decide_at=plain.value + 1e-2)
        assert not plain.decided
        assert r.decided and not r.converged
        assert r.samples < plain.samples

    def test_decide_at_is_keyword_only_and_a_probability(self):
        corr, df = self.case("normal-5")
        with pytest.raises(TypeError):
            mvdist.max_abs_prob(corr, 2.3, df, self.QMC, 0.95)
        for decide_at in (np.nan, -1e-9, 1.0 + 1e-9):
            with pytest.raises(ValueError, match="decide_at"):
                mvdist.max_abs_prob(corr, 2.3, df, self.QMC, decide_at=decide_at)

    @pytest.mark.parametrize("b", [0.0, -1.0, np.nan])
    def test_rejects_an_edge_that_is_not_positive(self, b):
        with pytest.raises(ValueError, match="positive"):
            mvdist.max_abs_prob(CorrelationMatrix.identity(5), b)

    @pytest.mark.parametrize("name", CASES)
    def test_same_seed_same_value_other_seed_other_value(self, name):
        corr, df = self.case(name)
        first = mvdist.max_abs_prob(corr, 2.3, df, self.QMC)
        assert mvdist.max_abs_prob(corr, 2.3, df, self.QMC) == first
        other = dataclasses.replace(self.QMC, seed=1)
        assert mvdist.max_abs_prob(corr, 2.3, df, other).value != first.value

    def test_threads_get_the_sequential_values(self):
        corr, df = self.case("t-6")
        s = QuadratureSettings(
            target_abs_error=1e-12, max_samples=8 << 12, shifts=8, first_round_samples=64
        )
        edges = [1.9 + 0.1 * k for k in range(6)]  # one thread each, more than cores
        want = [mvdist.max_abs_prob(corr, b, df, s) for b in edges]
        got = [None] * len(edges)

        def work(k):
            got[k] = mvdist.max_abs_prob(corr, edges[k], df, s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(edges))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("df", [None, 7], ids=["normal", "t"])
    def test_blocks_share_one_point_and_one_work_buffer(self, df, monkeypatch):
        # a fresh array per block costs page faults on every block
        seen = []
        rays = mvdist._ray_weights

        def spy(chol, b, law, w, work):
            seen.append((w, work))
            return rays(chol, b, law, w, work)

        monkeypatch.setattr(mvdist, "_ray_weights", spy)
        corr, _ = self.case("normal-5")
        sampler = mvdist._SobolSampler(corr.cholesky(), df, QuadratureSettings(shifts=2), rays=True)
        edge = np.full(corr.dim, 2.3)
        sampler._sums(-edge, edge, 0, 3 * BLOCK)
        assert len(seen) == 8
        assert all(np.shares_memory(w, seen[0][0]) for w, _ in seen)
        assert all(work is seen[0][1] for _, work in seen)

    @pytest.mark.parametrize("df", [None, 7], ids=["normal", "t"])
    @pytest.mark.parametrize("case", sorted(SUMS_CASES))
    def test_streamed_sums_equal_one_call_over_the_range(self, case, df):
        start, count, shifts = SUMS_CASES[case]
        corr, _ = self.case("normal-5")
        sampler = mvdist._SobolSampler(corr.cholesky(), df, QuadratureSettings(shifts=shifts), rays=True)
        edge = np.full(corr.dim, 2.3)
        w = scipy_points(corr.dim, sampler.settings, start + count)[:, start:]
        w = w.reshape(-1, corr.dim)
        values = mvdist._ray_weights(sampler.chol, 2.3, df, w, np.empty(3 * len(w)))
        want = values.reshape(shifts, count).sum(axis=1)
        np.testing.assert_array_equal(sampler._sums(-edge, edge, start, count), want)

    @pytest.mark.parametrize("df", [None, 12], ids=["normal", "t"])
    def test_one_call_keeps_no_value_array(self, df):
        # 12 x 2**16 points at dimension 9: the blocks' working arrays only
        dim = 9
        corr = CorrelationMatrix(np.full((dim, dim), 0.4) + 0.6 * np.eye(dim))
        sampler = mvdist._SobolSampler(corr.cholesky(), df, QuadratureSettings(), rays=True)
        edge = np.full(dim, 2.5)
        sampler._sums(-edge, edge, 0, 256)  # the scrambles are cached first
        tracemalloc.start()
        try:
            sampler._sums(-edge, edge, 0, 1 << 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20


class TestDoublingRounds:
    CORR = random_correlation(np.random.default_rng(92), 6)
    LOWER = np.array([-2.2, -np.inf, -1.9, -2.5, -np.inf, -2.0])
    UPPER = np.array([2.2, 2.0, np.inf, 2.5, 2.3, 2.1])
    SETTINGS = dict(max_samples=8 << 12, shifts=8, first_round_samples=64)

    def sampler(self, df, target=1e-3):
        s = QuadratureSettings(target_abs_error=target, **self.SETTINGS)
        return mvdist._SobolSampler(CorrelationMatrix(self.CORR).cholesky(), df, s)

    # stops after the first round, after a few doublings, at the sample cap
    @pytest.mark.parametrize("target, stop", [(1e-2, 64), (2e-4, None), (1e-12, 4096)])
    @pytest.mark.parametrize("df", [None, 7], ids=["normal", "t"])
    def test_fixed_equals_adaptive_where_it_stopped(self, df, target, stop):
        sampler = self.sampler(df, target)
        est, err, total, n = sampler.estimate(self.LOWER, self.UPPER)
        assert n == stop or stop is None and 64 < n < 4096
        assert total == 8 * n
        assert sampler.estimate_fixed(self.LOWER, self.UPPER, n) == (est, err)

    @pytest.mark.parametrize("n", [0, 32, 96, 192])
    def test_fixed_rejects_a_size_no_round_ends_at(self, n):
        with pytest.raises(ValueError, match="round"):
            self.sampler(None).estimate_fixed(self.LOWER, self.UPPER, n)


class TestDecisionStop:
    """``decide_at`` adds one stop to the doubling rounds: an estimate farther
    from it than its error, or twice the target.  The exact rule of
    dimension 3 (Gauss-Legendre rules along a Plackett path, "gl-3") has one round only."""

    QMC = QuadratureSettings(
        target_abs_error=1e-4, max_samples=8 << 14, shifts=8, first_round_samples=64
    )
    GL = QuadratureSettings(target_abs_error=1e-6)
    CASES = {"normal-5": (5, None, 11, QMC), "t-6": (6, 9, 12, QMC), "gl-3": (3, None, 13, GL)}

    def case(self, name):
        dim, df, seed, settings = self.CASES[name]
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(seed), dim))
        return corr, np.full(dim, -2.3), np.full(dim, 2.3), df, settings

    @staticmethod
    def rounds(corr, lower, upper, df, settings):
        """(value, error, samples, last) at every round a call can stop at,
        rebuilt from ``estimate_fixed`` or the exact rule; ``last`` marks the
        round after which the cap stops it, or the exact rule's only one."""
        if corr.dim <= mvdist._EXACT_MAX_DIM:
            yield *mvdist._exact(corr, lower, upper, df), True
            return
        sampler = mvdist._SobolSampler(corr.cholesky(), df, settings)
        n = mvdist._round_points(settings.first_round_samples)
        while True:
            value, err = sampler.estimate_fixed(lower, upper, n)
            total = n * settings.shifts
            yield value, err, total, 2 * total > settings.max_samples
            n *= 2

    @pytest.mark.parametrize("name", CASES)
    def test_none_changes_nothing(self, name):
        corr, lower, upper, df, s = self.case(name)
        plain = mv_rect_prob(corr, lower, upper, df, s)
        assert mv_rect_prob(corr, lower, upper, df, s, decide_at=None) == plain

    @pytest.mark.parametrize("offset", [0.0, 1e-5, 1e-4, -1e-3, 1e-2])
    @pytest.mark.parametrize("name", CASES)
    def test_stops_at_the_first_round_that_meets_a_stop(self, name, offset):
        corr, lower, upper, df, s = self.case(name)
        plain = mv_rect_prob(corr, lower, upper, df, s)
        decide_at = plain.value + offset
        r = mv_rect_prob(corr, lower, upper, df, s, decide_at=decide_at)
        assert r.samples <= plain.samples
        if abs(offset) >= 1e-3 and corr.dim > mvdist._EXACT_MAX_DIM:
            assert r.samples < plain.samples
        target = s.target_abs_error
        for value, err, samples, last in self.rounds(corr, lower, upper, df, s):
            met = err <= target or last or abs(value - decide_at) > max(err, 2.0 * target)
            if samples < r.samples:
                assert not met, samples
                continue
            # the value is that of the rule at the returned size
            assert samples == r.samples
            assert (r.value, r.error) == (min(max(value, 0.0), 1.0), err)
            assert met
            assert r.converged == (err <= target)
            assert r.decided == (not r.converged and abs(value - decide_at) > max(err, 2 * target))
            break
        else:
            pytest.fail("no round ends at the returned size")

    def test_a_decision_stop_is_recorded(self):
        corr, lower, upper, df, s = self.case("normal-5")
        plain = mv_rect_prob(corr, lower, upper, df, s)
        r = mv_rect_prob(corr, lower, upper, df, s, decide_at=plain.value + 1e-2)
        assert not plain.decided
        assert r.decided and not r.converged
        assert r.samples < plain.samples

    def test_a_budget_stop_is_not_a_decision(self):
        # the cap stops this call short of its target, with decide_at on its
        # own value: it is unconverged, but no decision stopped it
        tight = QuadratureSettings(
            target_abs_error=1e-9, max_samples=4096, shifts=8, first_round_samples=64
        )
        corr, lower, upper, df, _ = self.case("normal-5")
        plain = mv_rect_prob(corr, lower, upper, df, tight)
        r = mv_rect_prob(corr, lower, upper, df, tight, decide_at=plain.value)
        assert r == plain
        assert r.samples * 2 > tight.max_samples
        assert not r.converged and not r.decided

    @pytest.mark.parametrize("decide_at", [None, 0.5])
    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_result_is_plain_python_and_json_ready(self, dim, decide_at):
        corr = CorrelationMatrix(np.full((dim, dim), 0.4) + 0.6 * np.eye(dim))
        r = mv_rect_prob(corr, np.full(dim, -2.0), np.full(dim, 2.0), decide_at=decide_at)
        assert [type(v) for v in dataclasses.astuple(r)] == [float, float, bool, int, bool]
        assert json.loads(json.dumps(dataclasses.asdict(r))) == dataclasses.asdict(r)
        # dimension 5 with decide_at 0.5 stops on its decision
        assert r.decided == (dim == 5 and decide_at is not None)

    def test_is_keyword_only(self):
        corr, lower, upper, df, s = self.case("normal-5")
        with pytest.raises(TypeError):
            mv_rect_prob(corr, lower, upper, df, s, 0.95)

    @pytest.mark.parametrize("decide_at", [np.nan, np.inf, -np.inf, -1e-9, 1.0 + 1e-9, 5.0])
    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_rejects_a_decide_at_that_is_no_probability(self, dim, decide_at):
        corr = CorrelationMatrix.identity(dim)
        with pytest.raises(ValueError, match="decide_at"):
            mv_rect_prob(corr, np.full(dim, -1.0), np.full(dim, 1.0), decide_at=decide_at)


def quad_pair_exceedance(b, rho, df):
    """P(|X| > b, |Y| > b) by adaptive quadrature over the tail of X of the
    conditional tail probability of Y: N(rho x, 1 - rho^2) given X = x for
    the normal, a scaled t with df + 1 for the t."""
    if df is None:

        def integrand(x):
            s = np.sqrt(1.0 - rho**2)
            return norm.pdf(x) * (ndtr((-b - rho * x) / s) + ndtr((rho * x - b) / s))

    else:

        def integrand(x):
            s = np.sqrt((df + x * x) * (1.0 - rho**2) / (df + 1.0))
            tails = stdtr(df + 1, (-b - rho * x) / s) + stdtr(df + 1, (rho * x - b) / s)
            return student_t.pdf(x, df) * tails

    # both tails of X contribute alike
    return 2.0 * integrate.quad(integrand, b, np.inf, epsabs=1e-14, epsrel=1e-12)[0]


TARGET = QuadratureSettings().target_abs_error


class TestGaussLegendreT:
    """The t path below dimension 4 meets its target against a reference
    independent of the package, or flags that it does not."""

    @staticmethod
    def assert_within_target(r, reference, slack=0.0):
        if r.converged:
            assert abs(r.value - reference) <= TARGET + slack, (r, reference)
        # an unconverged result is flagged, whatever its value

    @pytest.mark.parametrize("df", [2, 3, 5, 10])
    def test_rank_one_matches_the_closed_form(self, df):
        # both coordinates are one t variable: the rectangle is univariate
        b = student_t.ppf(0.975, df)
        r = mv_rect_prob(CorrelationMatrix(np.ones((2, 2))), [-b, -b], [b, b], df)
        self.assert_within_target(r, 1.0 - 2.0 * stdtr(df, -b))

    def test_correlated_pair_matches_the_conditional_law(self):
        df, rho = 3, 0.8
        b = student_t.ppf(0.98, df)
        corr = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))
        r = mv_rect_prob(corr, [-b, -b], [b, b], df)
        # P(|X| <= b, |Y| <= b) = 1 - 2 P(|X| > b) + P(|X| > b, |Y| > b)
        inside = 1.0 - 4.0 * stdtr(df, -b) + quad_pair_exceedance(b, rho, df)
        self.assert_within_target(r, inside)

    def test_trivariate_low_df_matches_mc_oracle(self):
        corr = random_correlation(np.random.default_rng(43), 3)
        lower, upper = np.full(3, -2.3), np.full(3, 2.3)
        oracle, se = mc_rect_prob(corr, lower, upper, 2, 10_000_000, seed=11)
        r = mv_rect_prob(CorrelationMatrix(corr), lower, upper, df=2)
        self.assert_within_target(r, oracle, slack=3.0 * se)

    def test_transient_memory_stays_small(self):
        # a full-rank dimension-3 t rectangle, the costliest exact rule; the
        # Gauss-Legendre rules are cached first, so only the evaluation is
        # traced
        corr = CorrelationMatrix(random_correlation(np.random.default_rng(72), 3))
        args = corr, np.full(3, -2.3), np.full(3, 2.3), 12
        mv_rect_prob(*args)
        tracemalloc.start()
        try:
            mv_rect_prob(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


@pytest.mark.parametrize(
    "n",
    sorted(
        set(
            mvdist._WEDGE_NODES
            + mvdist._PATH_LEVELS
            + mvdist._PAIR_LEVELS
            + mvdist._TRIPLE_LEVELS
            + mvdist._NEAR_LEVELS
        )
    ),
)
def test_gauss_legendre_rule_equals_scipy(n):
    x, wt = roots_legendre(n)
    nodes, weights = mvdist._gl_rule(n)
    np.testing.assert_array_equal(nodes, 0.5 * (x + 1.0))
    np.testing.assert_array_equal(weights, 0.5 * wt)


PAIR_RHOS = (-0.95, -0.6, -0.2, 0.0, 0.3, 0.77, 0.95)


class TestPairExceedance:
    @pytest.mark.parametrize("df", [None, 3, 18, 48])
    @pytest.mark.parametrize("b", [1.9, 2.5, 3.2])
    def test_matches_adaptive_quadrature(self, b, df):
        value, error = pair_exceedance(b, np.array(PAIR_RHOS), df)
        for rho, v, e in zip(PAIR_RHOS, value, error):
            exact = quad_pair_exceedance(b, rho, df)
            assert abs(v - exact) <= e, (rho, v, exact, e)
            assert e <= 1e-8

    def test_vectorized_matches_elementwise(self):
        rng = np.random.default_rng(4)
        b = rng.uniform(1.5, 3.5, size=(6, 1))
        rho = rng.uniform(-1.0, 1.0, size=(6, 10))
        df = rng.integers(2, 80, size=(6, 1))
        for dfs in (None, df):
            value, error = pair_exceedance(b, rho, dfs)
            assert value.shape == error.shape == (6, 10)
            for r in range(6):
                row_df = None if dfs is None else int(df[r, 0])
                for c in range(10):
                    v, _ = pair_exceedance(b[r, 0], rho[r, c], row_df)
                    assert v == pytest.approx(value[r, c], rel=1e-12, abs=1e-17)

    @pytest.mark.parametrize("df", [None, 7])
    def test_limits(self, df):
        p1 = 2.0 * (ndtr(-2.2) if df is None else stdtr(df, -2.2))
        # perfectly (anti-)correlated: both exceed together
        value, _ = pair_exceedance(2.2, np.array([-1.0, 1.0]), df)
        np.testing.assert_allclose(value, p1, rtol=1e-14)
        # a zero edge is always exceeded
        value, _ = pair_exceedance(0.0, np.array([-1.0, 0.0, 0.4, 1.0]), df)
        np.testing.assert_allclose(value, 1.0, rtol=1e-14)
        if df is None:
            # independent normals
            value, _ = pair_exceedance(2.2, 0.0)
            assert value == pytest.approx(p1 * p1, rel=1e-12)


def exact_triple_exceedance(b, rho, df):
    """P(|X_r| > b for r = 1, 2, 3) and its error by inclusion-exclusion over
    the boxes B_r = {|X_r| <= b}, whose probabilities come from the exact
    rule of dimensions 2 and 3 (``mvdist._exact``): 1 - 3 P(B_1) + the sum
    over pairs of P(B_r B_s) - P(B_1 B_2 B_3)."""
    r_ij, r_ik, r_jk = rho
    corr = np.array([[1.0, r_ij, r_ik], [r_ij, 1.0, r_jk], [r_ik, r_jk, 1.0]])
    p1 = 2.0 * (ndtr(-b) if df is None else stdtr(df, -b))
    value, error = 1.0 - 3.0 * (1.0 - p1), 0.0
    for sub in ([0, 1], [0, 2], [1, 2], [0, 1, 2]):
        box = CorrelationMatrix(corr[np.ix_(sub, sub)])
        v, e, _ = mvdist._exact(box, np.full(len(sub), -b), np.full(len(sub), b), df)
        value += v if len(sub) == 2 else -v
        error += e
    return value, error


def rank_two_triple(rng, high):
    """Correlations (rho_ij, rho_ik, rho_jk) of three vectors in a plane, the
    first two within a few degrees of each other (rho_ij 0.98 to 0.999) when
    ``high``."""
    angle = rng.uniform(0.0, np.pi, 3)
    if high:
        angle[1] = angle[0] + rng.uniform(0.045, 0.2)
    c = np.cos(angle[:, None] - angle[None, :])
    return c[0, 1], c[0, 2], c[1, 2]


# (rho_ij, rho_ik, rho_jk): moderate and mixed-sign triples, the nested
# overlaps of the any-family designs up to |rho| 0.999, a union X_3 of the
# disjoint X_1 and X_2 (rank 2, as Global = S1 u S2), a near-singular
# triple (smallest eigenvalue 2e-6) and equal correlations at 0 and 0.999
TRIPLES = (
    (0.5, 0.5, 0.5),
    (-0.3, 0.9, -0.2),
    (0.3, 0.95, 0.5),
    (0.985, 0.99, 0.999),
    (0.999, -0.999, -0.998),
    (0.0, 0.6, 0.8),
    (0.6, 0.8, 0.0),
    (0.0, 0.0, 0.0),
    (0.999, 0.999, 0.999),
    (0.7, 0.7, -0.0199),
)


class TestTripleExceedance:
    @pytest.mark.parametrize("df", [None, 3, 7, 18, 48])
    @pytest.mark.parametrize("b", [1.9, 2.5, 3.2])
    def test_matches_exact_inclusion_exclusion(self, b, df):
        rng = np.random.default_rng(31 if df is None else df)
        triples = TRIPLES + tuple(rank_two_triple(rng, high) for high in (False, True) * 3)
        value, error = triple_exceedance(b, *np.array(triples).T, df)
        for rho, v, e in zip(triples, value, error):
            exact, exact_error = exact_triple_exceedance(b, rho, df)
            # the reported error is never below the actual one
            assert abs(v - exact) <= e + exact_error, (rho, v, exact, e, exact_error)
            assert e <= 1e-5

    def test_near_singular_triples_match_at_every_rank(self):
        # random triples of rank 1 to 3 whose vectors nearly coincide up to
        # sign, normal and t; the rank-3 references take the path rule too
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(200):
            sign = rng.choice([-1.0, 1.0], size=(3, 1))
            vectors = sign + 10.0 ** rng.uniform(-2.0, 0.0) * rng.standard_normal((3, 1 + trial % 3))
            gram = vectors @ vectors.T
            d = np.sqrt(np.diag(gram))
            corr = np.clip(gram / np.outer(d, d), -1.0, 1.0)
            rho = corr[0, 1], corr[0, 2], corr[1, 2]
            checked += max(map(abs, rho)) > 0.999
            b = rng.uniform(1.7, 3.4)
            df = (None, 3, 10, 30, 48)[trial % 5]
            v, e = triple_exceedance(b, *rho, df)
            exact, exact_error = exact_triple_exceedance(b, rho, df)
            assert abs(v - exact) <= e + exact_error, (rho, b, df, v, exact, e)
        assert checked >= 50

    def test_near_coincident_triples_above_0_999(self):
        # triples of rank 1 and 2 whose vectors coincide up to sign within
        # 10^-3.5 to 10^-1, against the polygon rule, normal and t
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(300):
            sign = rng.choice([-1.0, 1.0], size=(3, 1))
            vectors = sign + 10.0 ** rng.uniform(-3.5, -1.0) * rng.standard_normal((3, 1 + trial % 2))
            gram = vectors @ vectors.T
            d = np.sqrt(np.diag(gram))
            corr = np.clip(gram / np.outer(d, d), -1.0, 1.0)
            rho = corr[0, 1], corr[0, 2], corr[1, 2]
            if max(map(abs, rho)) <= 0.999:
                continue
            checked += 1
            b = rng.uniform(1.7, 3.4)
            df = (None, 3, 10, 30, 48)[trial % 5]
            v, e = triple_exceedance(b, *rho, df)
            exact, exact_error = exact_triple_exceedance(b, rho, df)
            assert abs(v - exact) <= e + exact_error, (rho, b, df, v, exact, e)
        assert checked >= 250

    def test_vectorized_matches_elementwise(self):
        rng = np.random.default_rng(8)
        rho = np.array([rank_two_triple(rng, k % 2 == 1) for k in range(24)]).reshape(4, 6, 3)
        b = rng.uniform(1.5, 3.5, size=(4, 1))
        df = rng.integers(2, 80, size=(4, 1))
        for dfs in (None, df):
            value, error = triple_exceedance(b, *np.moveaxis(rho, -1, 0), dfs)
            assert value.shape == error.shape == (4, 6)
            for r in range(4):
                row_df = None if dfs is None else int(df[r, 0])
                for c in range(6):
                    v, e = triple_exceedance(b[r, 0], *rho[r, c], row_df)
                    assert v == pytest.approx(value[r, c], rel=1e-12, abs=1e-17)
                    assert e == pytest.approx(error[r, c], rel=1e-6, abs=1e-17)

    @pytest.mark.parametrize("df", [None, 7])
    def test_limits(self, df):
        p1 = 2.0 * (ndtr(-2.2) if df is None else stdtr(df, -2.2))
        # perfectly (anti-)correlated: all three exceed together
        value, _ = triple_exceedance(2.2, [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0], df)
        np.testing.assert_allclose(value, p1, rtol=1e-14)
        # X_3 = X_2: the pair's probability
        value, _ = triple_exceedance(2.2, 0.4, 0.4, 1.0, df)
        assert value == pytest.approx(pair_exceedance(2.2, 0.4, df)[0], rel=1e-13)
        # a zero edge is always exceeded
        value, _ = triple_exceedance(0.0, 0.3, -0.5, 0.2, df)
        assert value == pytest.approx(1.0, rel=1e-13)
        if df is None:
            # independent normals
            value, error = triple_exceedance(2.2, 0.0, 0.0, 0.0)
            assert abs(value - p1**3) <= error

    def test_t_cdf_series_matches_stdtr(self):
        y = np.concatenate([np.linspace(-60.0, 60.0, 1201), [0.0, 1e-300, -1e200, np.inf, -np.inf]])
        for df in [*range(1, mvdist._T_SERIES_MAX_DF + 2), 2.5, 1000.0]:
            got = mvdist._t_cdf(np.float64(df), y)
            np.testing.assert_allclose(got, stdtr(df, y), rtol=0, atol=1e-14 if df > 1 else 2e-9)
        # one call may hold several dfs
        dfs = np.array([[3.0], [12.0], [3.0]])
        np.testing.assert_array_equal(mvdist._t_cdf(dfs, y[None, :5]), [mvdist._t_cdf(np.float64(d), y[:5]) for d in dfs[:, 0]])

    @pytest.mark.parametrize(
        "dfs",
        [np.arange(3.0, 60.0), np.concatenate([[1.0, 2.0, 2.5, 1000.0], np.arange(3.0, 56.0)])],
        ids=["stack", "mixed"],
    )
    def test_t_cdf_of_57_dfs_equals_one_call_per_df(self, dfs):
        # the integer dfs 3 to 59 of the worst-case max_type_bounds stack,
        # or dfs 1 and 2, two beyond the series and 53 on it, in one call
        y = np.random.default_rng(57).standard_normal((57, 2, 40)) * 3.0
        y[:, 1, :5] = [0.0, 1e-300, -1e200, np.inf, -np.inf]
        got = mvdist._t_cdf(dfs[:, None, None], y)
        for k, df in enumerate(dfs):
            assert np.array_equal(got[k], mvdist._t_cdf(np.float64(df), y[k])), df


def mixed_stack(rng, rows, cols):
    """Edges (rows, 1), dfs (rows, 1), half inf and half integers 3 to 59,
    and correlation triples (3, rows, cols) of three vectors in three
    dimensions, every other one within 10^-3.5 to 10^-2.5 of coinciding up
    to sign (some |rho| above ``_NEAR_ONE``)."""
    b = rng.uniform(1.7, 3.4, size=(rows, 1))
    df = np.where(np.arange(rows)[:, None] % 2 == 0, np.inf, rng.integers(3, 60, size=(rows, 1)))
    scale = np.where(np.arange(rows * cols) % 2 == 0, 10.0 ** rng.uniform(-3.5, -2.5, rows * cols), 1.0)
    sign = rng.choice([-1.0, 1.0], size=(rows * cols, 3, 1))
    vectors = sign + scale[:, None, None] * rng.standard_normal((rows * cols, 3, 3))
    gram = vectors @ vectors.transpose(0, 2, 1)
    d = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    corr = np.clip(gram / (d[:, :, None] * d[:, None, :]), -1.0, 1.0)
    rho = np.stack([corr[:, 0, 1], corr[:, 0, 2], corr[:, 1, 2]]).reshape(3, rows, cols)
    return b, df, rho


class TestSlices:
    """``pair_exceedance`` and ``triple_exceedance`` split their elements by
    law, rule levels and slices of ``_SLICE_FLOATS`` element-nodes."""

    @pytest.mark.parametrize("budget", [100, None], ids=["small-slices", "default-slices"])
    @pytest.mark.parametrize(
        "kernel, inner, groups",
        [(pair_exceedance, "_pair_rule", 2), (triple_exceedance, "_plackett_path", 4)],
        ids=["pair", "triple"],
    )
    def test_each_element_as_if_alone(self, monkeypatch, kernel, inner, groups, budget):
        # normal and t elements, near and ordinary triples, in one call: every
        # value and error is bit for bit that of a call on its element alone
        b, df, rho = mixed_stack(np.random.default_rng(23), 40, 15)
        if kernel is pair_exceedance:
            rho = rho[:1]
        else:
            near = (np.abs(rho) > mvdist._NEAR_ONE).any(axis=0)
            assert near[np.isinf(df[:, 0])].any() and near[np.isfinite(df[:, 0])].any()
            assert not near.all()
        calls = []
        real = getattr(mvdist, inner)

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(mvdist, inner, spy)
        if budget is not None:
            monkeypatch.setattr(mvdist, "_SLICE_FLOATS", budget)
        value, error = kernel(b, *rho, df)
        # at a budget of 100, each law and level set in three slices or more
        assert len(calls) >= (3 * groups if budget else groups)
        if budget is None:
            assert max(calls) > 100
        single = np.array(
            [
                kernel(b[r, 0], *rho[:, r, c], None if np.isinf(df[r, 0]) else int(df[r, 0]))
                for r, c in np.ndindex(value.shape)
            ]
        )
        np.testing.assert_array_equal(single[:, 0], value.ravel())
        np.testing.assert_array_equal(single[:, 1], error.ravel())
        # df None is an inf df for every element
        normal = kernel(b, *rho)
        for got, want in zip(kernel(b, *rho, np.full(b.shape, np.inf)), normal):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("df", [None, 18])
    def test_memory_of_one_call_is_that_of_a_slice(self, df):
        # 100 rows of 120 triples, m = 10: one slice peaks at 6 MB (normal)
        # and 9 MB (df 18); evaluated at once, the call took over 100 MB
        b, _, rho = mixed_stack(np.random.default_rng(5), 100, 120)
        triple_exceedance(b[:2], *rho[:, :2], df)
        tracemalloc.start()
        try:
            triple_exceedance(b, *rho, df)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_df_below_one_is_rejected(self):
        for df in (0, 0.5, np.nan, [3.0, -np.inf]):
            with pytest.raises(ValueError, match="df"):
                pair_exceedance(2.0, [0.3, 0.5], df)
            with pytest.raises(ValueError, match="df"):
                triple_exceedance(2.0, 0.3, 0.2, [0.5, 0.1], df)


class TestSettingsValidation:
    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_abs_error"):
            QuadratureSettings(target_abs_error=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_target(self, value):
        # a NaN target would run every QMC call to the sample cap
        with pytest.raises(ValueError, match="target_abs_error"):
            QuadratureSettings(target_abs_error=value)

    def test_rejects_single_shift(self):
        with pytest.raises(ValueError, match="shifts"):
            QuadratureSettings(shifts=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shifts", 2.5),
            ("shifts", 8.0),
            ("max_samples", 1.5e6),
            ("first_round_samples", 64.5),
            # bool is an Integral
            ("max_samples", True),
            ("first_round_samples", True),
        ],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            QuadratureSettings(**{field: value})

    @pytest.mark.parametrize("value", [None, True, -1, 1.5, "7"])
    def test_rejects_a_seed_that_is_no_nonnegative_integer(self, value):
        # None would draw OS entropy and True would run as seed 1; the rest
        # failed only at the first QMC rectangle, inside numpy
        with pytest.raises(ValueError, match="seed"):
            QuadratureSettings(seed=value)

    def test_accepts_zero_and_numpy_integer_seeds(self):
        assert QuadratureSettings(seed=0).seed == 0
        assert QuadratureSettings(seed=np.int64(7)).seed == 7

    def test_rejects_bool_target(self):
        with pytest.raises(ValueError, match="target_abs_error"):
            QuadratureSettings(target_abs_error=True)

    def test_accepts_numpy_integer_counts(self):
        s = QuadratureSettings(shifts=np.int64(4), max_samples=np.int32(4096))
        assert (s.shifts, s.max_samples) == (4, 4096)

    def test_frozen(self):
        s = QuadratureSettings()
        with pytest.raises(Exception):
            s.seed = 1

    @pytest.mark.parametrize("value", [0, -64])
    def test_rejects_nonpositive_first_round(self, value):
        with pytest.raises(ValueError, match="first_round_samples"):
            QuadratureSettings(first_round_samples=value)

    def test_rejects_a_budget_below_one_first_round(self):
        # one first round of 12 shifts x 256 points is 3072 samples, which
        # a smaller cap would not cap
        with pytest.raises(ValueError, match="max_samples"):
            QuadratureSettings(max_samples=1000)
        # 200 points round up to 256
        with pytest.raises(ValueError, match="max_samples"):
            QuadratureSettings(max_samples=3071, first_round_samples=200)
        assert QuadratureSettings(max_samples=3072, first_round_samples=200).max_samples == 3072
        assert QuadratureSettings(max_samples=24, shifts=12, first_round_samples=1).shifts == 12

    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_nonpositive_budget(self, value):
        with pytest.raises(ValueError, match="max_samples"):
            QuadratureSettings(max_samples=value)


@settings(max_examples=15, deadline=None)
@given(
    rho=st.floats(-0.95, 0.95),
    c=st.floats(0.5, 3.0),
)
def test_bivariate_between_perfect_and_independent(rho, c):
    """P under any rho lies between the independent and rho=1 extremes."""
    corr = CorrelationMatrix([[1.0, rho], [rho, 1.0]])
    p = mv_rect_prob(corr, [-c, -c], [c, c]).value
    p1 = mv_rect_prob(CorrelationMatrix.identity(1), [-c], [c]).value
    assert p1 ** 2 - 1e-6 <= p <= p1 + 1e-6


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_quantile_bracketing_fuzzed(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    corr = CorrelationMatrix(random_correlation(rng, dim))
    alpha = float(rng.uniform(0.01, 0.2))
    q = equicoordinate_quantile(corr, alpha)
    lo = ndtri(1.0 - alpha / 2.0)
    hi = ndtri(1.0 - alpha / (2.0 * dim))
    assert lo - 1e-9 <= q <= hi + 1e-9
