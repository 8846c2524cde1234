"""Tests for the multivariate normal/t rectangle probability kernel."""

import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from mmminfer import mvdist
from mmminfer.errors import NotPSD
from mmminfer.mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    RectProb,
    equicoordinate_quantile,
    mv_rect_prob,
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
def empty_point_caches(monkeypatch):
    monkeypatch.setattr(mvdist, "_SOBOL_CACHE", {})
    monkeypatch.setattr(mvdist, "_RADIAL_CACHE", OrderedDict())


class TestRadialCache:
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

    def test_call_order_does_not_matter(self, empty_point_caches):
        forward = t_path_values()
        mvdist._SOBOL_CACHE.clear()
        mvdist._RADIAL_CACHE.clear()
        assert t_path_values(T_CALLS[::-1]) == forward

    def test_bytes_stay_under_the_bound(self, empty_point_caches):
        corr = CorrelationMatrix(np.full((5, 5), 0.5) + 0.5 * np.eye(5))
        lower, upper = np.full(5, -np.inf), np.full(5, 2.0)
        s = QuadratureSettings(target_abs_error=1e-12, shifts=8, first_round_samples=64)
        r = mv_rect_prob(corr, lower, upper, df=T_DF, settings=s)
        assert r.samples * 2 > s.max_samples  # ran to the sample cap
        ((factors, filled),) = mvdist._RADIAL_CACHE.values()
        assert factors.shape == (8, mvdist._RADIAL_POINTS)
        assert filled == mvdist._RADIAL_POINTS
        assert 8 * mvdist._RADIAL_VALUES == 16 << 20  # the documented 16 MiB
        assert factors.nbytes <= 8 * mvdist._RADIAL_VALUES

    def test_least_recently_used_entries_are_dropped(self, empty_point_caches, monkeypatch):
        # room for two full entries of 8 shifts
        monkeypatch.setattr(mvdist, "_RADIAL_VALUES", 2 * 8 * mvdist._RADIAL_POINTS)
        corr = CorrelationMatrix(np.full((5, 5), 0.5) + 0.5 * np.eye(5))
        lower, upper = np.full(5, -np.inf), np.full(5, 2.0)
        s = QuadratureSettings(
            target_abs_error=1e-12, max_samples=8 << 15, shifts=8, first_round_samples=64
        )
        for df in (5, 6, 5, 7):
            mv_rect_prob(corr, lower, upper, df=df, settings=s)
        assert [key[3] for key in mvdist._RADIAL_CACHE] == [5, 7]
        nbytes = sum(factors.nbytes for factors, _ in mvdist._RADIAL_CACHE.values())
        assert nbytes <= 8 * mvdist._RADIAL_VALUES


class TestSettingsValidation:
    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_abs_error"):
            QuadratureSettings(target_abs_error=0.0)

    def test_rejects_single_shift(self):
        with pytest.raises(ValueError, match="shifts"):
            QuadratureSettings(shifts=1)

    def test_frozen(self):
        s = QuadratureSettings()
        with pytest.raises(Exception):
            s.seed = 1


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
