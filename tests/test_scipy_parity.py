"""The package's scrambled Sobol points and Brent root equal scipy's bit for
bit: ``scipy.stats.qmc.Sobol`` and ``scipy.optimize.brentq`` are the
oracles here, and the package itself imports neither."""

import math
import os
import subprocess
import sys
import tracemalloc
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.optimize import brentq
from scipy.stats import qmc

from mmminfer import mvdist
from mmminfer.mvdist import CorrelationMatrix, QuadratureSettings, mv_rect_prob

SEEDS = (1, 20150436, 2**40 + 3)


def scipy_engines(qdim, seed, shifts):
    return [
        qmc.Sobol(qdim, scramble=True, bits=30, seed=np.random.default_rng(s))
        for s in np.random.SeedSequence(seed).spawn(shifts)
    ]


def test_no_path_imports_scipy_stats_scipy_optimize_scipy_linalg_or_urllib():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from mmminfer import casestudy, forest\n"
        "from mmminfer.mvdist import CorrelationMatrix, QuadratureSettings\n"
        "from mmminfer.mvdist import equicoordinate_quantile, mv_rect_prob\n"
        "s = QuadratureSettings(target_abs_error=1e-3, shifts=4)\n"
        "for dim in (2, 3, 5):\n"
        "    corr = CorrelationMatrix(np.full((dim, dim), 0.4) + 0.6 * np.eye(dim))\n"
        "    for df in (None, 9):\n"
        "        equicoordinate_quantile(corr, 0.05, df=df, settings=s)\n"
        "        mv_rect_prob(corr, np.full(dim, -2.0), np.full(dim, 2.0), df=df, settings=s)\n"
        "report = casestudy.analyze(casestudy.load_averroes(), settings=s)\n"
        "forest.forest_svg(report)\n"
        "unwanted = ('scipy.stats', 'scipy.optimize', 'scipy.linalg', 'urllib.request')\n"
        "print([m for m in unwanted if m in sys.modules])\n"
    )
    src = str(Path(mvdist.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.strip() == "[]"


class TestSobolPoints:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "qdim, shifts, n",
        [
            (1, 12, 1 << 12),
            (2, 12, 1 << 12),
            (4, 8, 1 << 11),
            (6, 12, 1 << 10),
            (8, 12, 1 << 11),
            (9, 5, 1 << 11),
            (20, 3, 1 << 10),
            (40, 2, 1 << 9),
        ],
    )
    def test_equal_scipy_drawn_whole_in_chunks_and_mid_sequence(self, qdim, shifts, n, seed):
        want = np.stack([eng.random(n) for eng in scipy_engines(qdim, seed, shifts)])
        scrambles = mvdist._scrambles(qdim, seed, shifts)
        got = mvdist._sobol_range(scrambles, 0, n)
        assert got.dtype == np.int32 and got.shape == (shifts, n, qdim)
        assert got.flags.c_contiguous  # each scramble's run of points is contiguous
        np.testing.assert_array_equal(got * 2.0**-30, want)
        # power-of-two chunks, here and from continuing scipy engines
        edges = [0, 1, 2, 4, 8, 64, 256, n]
        engines = scipy_engines(qdim, seed, shifts)
        for a, b in zip(edges, edges[1:]):
            chunk = mvdist._sobol_range(scrambles, a, b) * 2.0**-30
            np.testing.assert_array_equal(chunk, want[:, a:b])
            np.testing.assert_array_equal(chunk, np.stack([eng.random(b - a) for eng in engines]))
        # ranges that start mid-sequence, one coordinate or all
        for a, b in [(3, 5), (100, n - 12), (n // 2 - 1, n), (n - 1, n)]:
            np.testing.assert_array_equal(mvdist._sobol_range(scrambles, a, b) * 2.0**-30, want[:, a:b])
            np.testing.assert_array_equal(mvdist._sobol_range(scrambles, a, b, 0) * 2.0**-30, want[:, a:b, 0])
        # some scrambles' rows only, as the integrand's blocks slice them
        rows = [x[1:3] for x in scrambles]
        np.testing.assert_array_equal(mvdist._sobol_range(rows, 100, n - 12) * 2.0**-30, want[1:3, 100 : n - 12])

    def test_range_past_the_last_point_is_refused(self):
        with pytest.raises(ValueError, match="2\\*\\*30"):
            mvdist._sobol_range(mvdist._scrambles(2, 1, 2), (1 << 30) - 1, (1 << 30) + 1)

    @pytest.mark.parametrize("qdim", [1, 2, 9, 40])
    def test_direction_numbers_equal_a_full_read_of_the_table(self, qdim, monkeypatch):
        with np.load(mvdist._DIRECTION_TABLE) as table:
            full = {name: table[name] for name in ("poly", "vinit")}
        with zipfile.ZipFile(mvdist._DIRECTION_TABLE) as archive:
            for name, array in full.items():
                assert mvdist._leading_rows(archive, name, qdim) == array[:qdim].tolist()
        streamed = mvdist._direction_numbers.__wrapped__(qdim)
        monkeypatch.setattr(
            mvdist, "_leading_rows", lambda archive, name, rows: full[name][:rows].tolist()
        )
        np.testing.assert_array_equal(streamed, mvdist._direction_numbers.__wrapped__(qdim))

    def test_reading_the_direction_table_keeps_only_its_leading_rows(self):
        # the whole table would inflate to about 3 MB
        tracemalloc.start()
        try:
            mvdist._direction_numbers.__wrapped__(9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 << 10

    def test_a_missing_direction_table_is_named(self, monkeypatch, tmp_path):
        missing = str(tmp_path / "_sobol_direction_numbers.npz")
        monkeypatch.setattr(mvdist, "_DIRECTION_TABLE", missing)
        mvdist._direction_numbers.cache_clear()
        mvdist._scrambles.cache_clear()
        corr = CorrelationMatrix(np.full((5, 5), 0.4) + 0.6 * np.eye(5))
        try:
            with pytest.raises(RuntimeError) as raised:
                mv_rect_prob(corr, np.full(5, -2.0), np.full(5, 2.0))
        finally:
            mvdist._direction_numbers.cache_clear()
            mvdist._scrambles.cache_clear()
        assert missing in str(raised.value)
        assert f"scipy {scipy.__version__} " in str(raised.value)


def test_each_round_computes_only_the_points_it_reads(monkeypatch):
    computed = Counter()  # points computed per scramble, keyed by its shift
    sobol_range = mvdist._sobol_range

    def spy(scrambles, a, b, cols=slice(None)):
        for shift in scrambles[0]:
            computed[shift.tobytes()] += b - a
        return sobol_range(scrambles, a, b, cols)

    monkeypatch.setattr(mvdist, "_sobol_range", spy)
    dim = 6
    corr = CorrelationMatrix(np.full((dim, dim), 0.5) + 0.5 * np.eye(dim))
    s = QuadratureSettings(shifts=8, first_round_samples=64)
    sampler = mvdist._SobolSampler(corr.cholesky(), None, s)
    limits = np.full(dim, -2.2), np.full(dim, 2.2)
    # up to rounds of 2**13 points, whose blocks hold one scramble each
    for rounds in range(1, 10):
        computed.clear()
        n = 64 << (rounds - 1)
        sampler.estimate_fixed(*limits, n)
        # every scramble's points once each, however the blocks group them
        assert len(computed) == s.shifts
        assert set(computed.values()) == {n}


def recorded(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


def same_as_brentq(f, a, b, xtol):
    """(root or exception type, evaluated points) of scipy's brentq and of
    the package's port."""
    out = []
    for solve in (lambda g: brentq(g, a, b, xtol=xtol), lambda g: mvdist._brent(g, a, b, xtol)):
        calls = []
        try:
            result = solve(recorded(f, calls))
        except (ValueError, RuntimeError) as exc:
            result = type(exc)
        out.append((result, calls))
    return out


FUNCTIONS = {
    "cubic": lambda c: lambda x: (x - c) ** 3,
    "odd-fifth": lambda c: lambda x: (x - c) * abs(x - c) ** 4,
    "tanh": lambda c: lambda x: math.tanh(3.0 * (x - c)) + 0.01 * (x - c),
    "exp": lambda c: lambda x: math.exp(x - c) - 1.0,
    "step": lambda c: lambda x: math.floor(8.0 * (x - c)) + 0.5,
    # numpy scalars: the values are floats again before the next step
    "numpy-power": lambda c: lambda x: (x - np.float64(c)) ** np.int64(3),
}


class TestBrent:
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_same_root_and_points_as_brentq(self, name):
        rng = np.random.default_rng(sorted(FUNCTIONS).index(name))
        for _ in range(120):
            f = FUNCTIONS[name](float(rng.uniform(-2.0, 2.0)))
            a, b = (-3.0, 3.0) if rng.random() < 0.5 else (3.0, -3.0)
            xtol = float(10.0 ** rng.uniform(-14.0, -2.0))
            scipy_result, port_result = same_as_brentq(f, a, b, xtol)
            assert port_result == scipy_result
            assert all(type(x) is float for x in port_result[1])

    def test_same_sign_raises_value_error(self):
        (scipy_result, _), (port_result, calls) = same_as_brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-8)
        assert scipy_result is port_result is ValueError
        assert calls == [-1.0, 2.0]

    def test_a_zero_end_is_the_root(self):
        for a, b in ((1.0, 3.0), (-2.0, 1.0)):
            scipy_result, port_result = same_as_brentq(lambda x: x - 1.0, a, b, 1e-8)
            assert port_result == scipy_result == (1.0, [a, b])

    def test_no_convergence_raises_runtime_error(self):
        # a flat crossing and a tolerance near round-off: 100 iterations
        # do not converge
        (scipy_result, scipy_calls), (port_result, calls) = same_as_brentq(
            FUNCTIONS["cubic"](1.0 / 3.0), -3.0, 3.0, 1e-13
        )
        assert scipy_result is port_result is RuntimeError
        assert calls == scipy_calls and len(calls) == 102

    def test_nan_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            mvdist._brent(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 1e-8)


def edge_or_root_against_brentq(excess, lo, hi, xtol):
    """Root and evaluated points of ``_edge_or_root``, and those of brentq on
    the same bracket; None when an edge settled it without a root-find."""
    calls = []
    root, seen = mvdist._edge_or_root(recorded(excess, calls), lo, hi, xtol)
    if len(seen) == 2 and root in (lo, hi):
        return None
    ref_calls = []
    ref = brentq(recorded(excess, ref_calls), lo, hi, xtol=xtol)
    return (root, calls), (ref, ref_calls)


def quantile_limits(dim, tail):
    if tail == "two-sided":
        return lambda c: (np.full(dim, -c), np.full(dim, c))
    return lambda c: (np.full(dim, -np.inf), np.full(dim, c))


class TestCallSites:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("df", [None, 16])
    @pytest.mark.parametrize("tail", ["two-sided", "one-sided"])
    def test_exact_excess(self, dim, df, tail):
        rng = np.random.default_rng(dim * 10 + (df or 0))
        limits = quantile_limits(dim, tail)
        found = 0
        for _ in range(3):
            a = rng.standard_normal((dim, dim + 2))
            c = a @ a.T
            corr = CorrelationMatrix(c / np.sqrt(np.outer(np.diag(c), np.diag(c))))
            for alpha in (0.05, 5e-4):
                lo, hi = mvdist._quantile_bracket(alpha, tail, dim, df)

                def excess(c):
                    return mvdist._exact(corr, *limits(c), df)[0] - (1.0 - alpha)

                pair = edge_or_root_against_brentq(excess, lo, hi, mvdist._EXACT_XTOL)
                if pair is not None:
                    ours, ref = pair
                    assert ours == ref
                    found += 1
        assert found >= 3

    @pytest.mark.parametrize("dim, df", [(4, None), (5, 9), (6, None)])
    @pytest.mark.parametrize("tail", ["two-sided", "one-sided"])
    def test_qmc_first_round_excess(self, dim, df, tail):
        corr = CorrelationMatrix(np.full((dim, dim), 0.4) + 0.6 * np.eye(dim))
        s = QuadratureSettings(target_abs_error=1e-3, shifts=8)
        sampler = mvdist._SobolSampler(corr.cholesky(), df, s)
        limits = quantile_limits(dim, tail)
        first = mvdist._round_points(s.first_round_samples)
        lo, hi = mvdist._quantile_bracket(0.05, tail, dim, df)

        def excess(c):
            return sampler.estimate_fixed(*limits(c), first)[0] - 0.95

        ours, ref = edge_or_root_against_brentq(excess, lo, hi, 1e-5)
        assert ours == ref and len(ours[1]) > 2
