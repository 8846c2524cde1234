"""Acceptance criteria: reproduce the reference results within pinned
tolerances.

Four blocks of evidence:

* the packaged reference tables themselves have the expected shape,
* the AVERROES case-study inference table (every estimate, bound, p-value
  and decision),
* spot rows from each familywise-error-rate table at the original 10 000
  replications,
* the headline power gains of the correlation-aware methods over
  Bonferroni,

plus a block of distribution-free properties (oracle comparisons, closed
forms, dominance, exact correlations, determinism) that hold regardless
of any reference number.

Tolerances combine the Monte Carlo error of this run with that of the
reference values (both at 10 000 replications unless noted) plus the
table's display rounding.  Run with ``pytest -m acceptance``; everything
heavier than a few seconds is also marked ``slow``.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from mmminfer.casestudy import expand, load_averroes
from mmminfer.linmodels import Dataset, ModelSpec, fit_logit, fit_ols
from mmminfer.mmm import adjusted_p, stack
from mmminfer.mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    equicoordinate_quantile,
    mv_rect_prob,
)
from mmminfer.simulate import Scenario, paired_gain, power_cells, run
from mmminfer.tables import published_names, published_rows

pytestmark = pytest.mark.acceptance

REPS = 10_000

FWER_TABLES = (
    "a3_fwer_tt",
    "a4_fwer_any",
    "a5_fwer_tt",
    "a5_fwer_any",
    "a6_fwer_tt",
    "a6_fwer_any",
)

# group+endpoint -> the reference inference row, keyed the way the report
# labels groups ("S1" appears as "S1 (TIA)" and so on).
CASE_STUDY = {
    (row["group"], row["endpoint"]): row
    for row in published_rows("a2_inference")
}


def case_study_row(report_row):
    group = report_row.group.split(" ")[0]
    return CASE_STUDY[(group, report_row.endpoint)]


class TestReferenceTables:
    """The packaged reference tables have the expected shape."""

    def test_catalogue(self):
        assert set(published_names()) == {"a2_inference", *FWER_TABLES}

    @pytest.mark.parametrize("name", FWER_TABLES)
    def test_grid_and_ranges(self, name):
        rows = published_rows(name)
        grid = {(int(r["N"]), float(r["prop_targ"])) for r in rows}
        assert grid == {
            (n, p)
            for n in (20, 50, 100, 500, 1000)
            for p in (0.5, 0.6, 0.7, 0.8)
        }
        methods = set(rows[0]) - {"N", "prop_targ"}
        assert {"noadjust", "ttest", "mmm", "mmm.dfind"} <= methods
        for row in rows:
            for method in methods:
                assert 0.0 < float(row[method]) < 0.20


@pytest.mark.slow
class TestCaseStudy:
    """The AVERROES analysis matches the reference inference table."""

    def test_layout(self, report):
        assert report.alternative == "greater"
        assert report.method_names == ("noadjust", "bonferroni", "mmm")
        assert [
            (r.group.split(" ")[0], r.endpoint) for r in report.rows
        ] == list(CASE_STUDY)
        assert all(r.or_scale for r in report.rows)

    def test_odds_ratios(self, report):
        for row in report.rows:
            expected = float(case_study_row(row)["odds_ratio"])
            assert row.display_estimate() == pytest.approx(expected, abs=0.005)

    @pytest.mark.parametrize(
        "method, lower_tol, p_tol",
        [
            ("noadjust", 0.010, 0.001),
            ("bonferroni", 0.010, 0.001),
            # mmm bounds and p-values carry the quadrature error budget.
            ("mmm", 0.015, 0.003),
        ],
    )
    def test_bounds_and_p_values(self, report, method, lower_tol, p_tol):
        for row in report.rows:
            expected = case_study_row(row)
            cell = row.methods[method]
            assert row.display_bound(cell.ci_lower) == pytest.approx(
                float(expected[f"{method}_lower"]), abs=lower_tol
            )
            assert math.isinf(cell.ci_upper) and cell.ci_upper > 0
            # the table prints min(p, 1) to four decimals
            assert min(cell.p, 1.0) == pytest.approx(
                float(expected[f"{method}_p"]), abs=p_tol
            )

    def test_decisions(self, report):
        for row in report.rows:
            expect_reject = row.endpoint != "Hemorrhag"
            for method in report.method_names:
                assert row.methods[method].rejected == expect_reject
                assert row.methods[method].rejected == (row.methods[method].p <= 0.05)


A3 = dict(family="targeted-or-total")
A4 = dict(family="any")
A5 = dict(family="targeted-or-total", overlap=True)
A6 = dict(family="targeted-or-total", endpoints=2, rho=0.8)

# (fixture, scenario design, N, proportion targeted, tolerance).  The one-
# endpoint designs get +-0.012 (roughly 4 combined standard errors at
# 10 000 replications each side); the overlap and two-endpoint designs get
# +-0.015 because their family definition is reconstructed from a terser
# description.
FWER_ROWS = [
    pytest.param("a3_fwer_tt", A3, 20, 0.5, 0.012, id="a3-n20-p5"),
    pytest.param("a3_fwer_tt", A3, 20, 0.8, 0.012, id="a3-n20-p8"),
    pytest.param("a3_fwer_tt", A3, 100, 0.5, 0.012, id="a3-n100-p5"),
    pytest.param("a3_fwer_tt", A3, 100, 0.8, 0.012, id="a3-n100-p8"),
    pytest.param("a3_fwer_tt", A3, 500, 0.5, 0.012, id="a3-n500-p5"),
    pytest.param("a3_fwer_tt", A3, 500, 0.8, 0.012, id="a3-n500-p8"),
    pytest.param("a4_fwer_any", A4, 20, 0.5, 0.012, id="a4-n20"),
    pytest.param("a4_fwer_any", A4, 500, 0.5, 0.012, id="a4-n500"),
    pytest.param("a5_fwer_tt", A5, 50, 0.5, 0.015, id="a5-n50"),
    pytest.param("a6_fwer_tt", A6, 100, 0.5, 0.015, id="a6-n100"),
]


@pytest.mark.slow
class TestFamilywiseError:
    """Null rejection rates match the reference tables row by row."""

    @pytest.mark.parametrize("fixture, design, total_n, prop, tolerance", FWER_ROWS)
    def test_row(self, fixture, design, total_n, prop, tolerance):
        published = {
            (int(r["N"]), float(r["prop_targ"])): r for r in published_rows(fixture)
        }[(total_n, prop)]
        scenario = Scenario(
            total_n=total_n, prop_target=prop, sd=5.0, replications=REPS, **design
        )
        result = run(scenario)
        # reference tables label the Bonferroni-adjusted t tests "ttest"
        for method in result.methods:
            column = "ttest" if method == "bonferroni" else method
            target = float(published[column])
            assert result.proportion(method) == pytest.approx(
                target, abs=tolerance
            ), method


POWER_CLAIMS = [
    # expected gain, window, the baseline, the method and power_cells arguments
    pytest.param(
        0.0547,
        0.015,
        dict(
            total_n=50,
            sd=10.0,
            baseline="bonferroni",
            method="mmm.dfind",
            cells=((7, 0.8), (8, 0.8)),
        ),
        id="dfind-1ep-n50",
    ),
    pytest.param(
        0.138,
        0.020,
        dict(
            total_n=20,
            sd=2.0,
            baseline="bonferroni",
            method="cellmeans",
            family="any",
            cells=((3, 0.5), (4, 0.5)),
        ),
        id="cellmeans-n20",
    ),
    pytest.param(
        0.065,
        0.020,
        dict(
            total_n=50,
            sd=2.0,
            baseline="bonferroni",
            method="cellmeans",
            family="any",
            cells=((2, 0.5),),
        ),
        id="cellmeans-n50",
    ),
    pytest.param(
        0.0835,
        0.020,
        dict(
            total_n=50,
            sd=5.0,
            baseline="bonferroni",
            method="mmm.dfind",
            endpoints=2,
            rho=0.8,
            cells=((3, 0.8),),
        ),
        id="dfind-2ep-sd5",
    ),
    pytest.param(
        0.0850,
        0.020,
        dict(
            total_n=50,
            sd=10.0,
            baseline="bonferroni",
            method="mmm.dfind",
            endpoints=2,
            rho=0.8,
            cells=((7, 0.8),),
        ),
        id="dfind-2ep-sd10",
    ),
]


@pytest.mark.slow
class TestPowerGains:
    """Peak power gains over Bonferroni match the quoted values.

    Each quoted gain is the largest paired rejection-rate difference over
    a (shift, proportion) grid; ``cells`` restricts the search to the grid
    cells where that peak occurs.  4 000 replications keep each claim to
    a few seconds while the windows still separate a real reproduction
    from a method mix-up (the smallest claimed gain is 5.5 points and the
    windows are at most 2).
    """

    @pytest.mark.parametrize("expected, window, kwargs", POWER_CLAIMS)
    def test_claim(self, expected, window, kwargs):
        # as ``tables --which power`` computes it
        kwargs = dict(kwargs)
        pair = [kwargs.pop("baseline"), kwargs.pop("method")]
        results = [run(s, methods=pair) for s in power_cells(replications=4_000, **kwargs)]
        assert paired_gain(results, *pair) == pytest.approx(expected, abs=window)


def random_correlation(rng, dim):
    a = rng.standard_normal((dim, dim + 2))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)


def mc_rect_prob(corr, lower, upper, df, n_draws, seed):
    """Brute-force Monte Carlo oracle: Cholesky draws, count the hits."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(corr + 1e-12 * np.eye(corr.shape[0]))
    x = rng.standard_normal((n_draws, corr.shape[0])) @ chol.T
    if df is not None:
        x /= np.sqrt(rng.chisquare(df, n_draws) / df)[:, None]
    p = np.all((x >= lower) & (x <= upper), axis=1).mean()
    se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_draws)
    return p, se


def three_model_stack(seed, n=120):
    """total / targeted / complementary gaussian stack with a random effect."""
    rng = np.random.default_rng(seed)
    trt = rng.permutation(np.r_[np.zeros(n // 2, int), np.ones(n - n // 2, int)])
    flag = (rng.random(n) < 0.4).astype(float)
    delta = rng.uniform(0.0, 1.0)
    y = rng.normal(size=n) + delta * trt * flag
    data = Dataset(
        trt, ("ctrl", "trt"), {"s": flag, "sc": 1.0 - flag}, {"y": y}
    )
    models = [
        fit_ols(data, ModelSpec("y")),
        fit_ols(data, ModelSpec("y", subset="s")),
        fit_ols(data, ModelSpec("y", subset="sc")),
    ]
    return stack(models)


class TestProperties:
    """Distribution-free guarantees, independent of any reference number."""

    FAST = QuadratureSettings(target_abs_error=5e-4, shifts=8, first_round_samples=64)

    def test_rect_prob_against_mc_oracle(self):
        """50 random 2-4 dimensional problems, normal and t, within 3 SE."""
        dfs = (None, 8, 30)
        for k in range(50):
            rng = np.random.default_rng(900 + k)
            dim = 2 + k % 3
            corr = random_correlation(rng, dim)
            lower = rng.uniform(-2.5, 0.0, dim)
            upper = lower + rng.uniform(1.0, 4.0, dim)
            df = dfs[k % 3]
            oracle, se = mc_rect_prob(corr, lower, upper, df, 200_000, seed=k)
            r = mv_rect_prob(CorrelationMatrix(corr), lower, upper, df=df)
            assert abs(r.value - oracle) <= 3.0 * se + r.error, k

    def test_sidak_closed_form_at_identity(self):
        for dim in (2, 3, 5, 9):
            corr = CorrelationMatrix.identity(dim)
            for alpha in (0.05, 0.01):
                two = ndtri(1.0 - (1.0 - (1.0 - alpha) ** (1.0 / dim)) / 2.0)
                one = ndtri((1.0 - alpha) ** (1.0 / dim))
                assert equicoordinate_quantile(corr, alpha) == pytest.approx(
                    two, abs=2e-3
                )
                assert equicoordinate_quantile(
                    corr, alpha, tail="one-sided"
                ) == pytest.approx(one, abs=2e-3)

    def test_dominance_on_200_stacks(self):
        """unadjusted <= mmm-adjusted <= Bonferroni, coordinatewise."""
        for seed in range(200):
            fit = three_model_stack(seed)
            adjusted = adjusted_p(fit, settings=self.FAST)
            unadjusted = 2.0 * ndtr(-np.abs(fit.statistics))
            bonferroni = np.minimum(1.0, fit.dim * unadjusted)
            assert np.all(adjusted >= unadjusted - 2e-4), seed
            assert np.all(adjusted <= bonferroni + 2e-4), seed

    def test_exact_correlation_structure(self):
        fit = three_model_stack(7)
        total, targeted, complement = fit.models
        duplicated = stack([total, total])
        assert duplicated.c_hat.entries[0, 1] == 1.0
        disjoint = stack([targeted, complement])
        assert disjoint.c_hat.entries[0, 1] == 0.0

    def test_case_study_scores_sum_to_zero(self):
        table = load_averroes()
        data = expand(table)
        for subset in ("all",) + table.subgroups:
            for endpoint in table.all_endpoints:
                spec = ModelSpec(
                    endpoint=endpoint, subset=subset, family="binomial-logit"
                )
                scores = fit_logit(data, spec).score_contributions
                assert abs(float(scores.sum())) < 1e-8

    def test_seed_determinism(self):
        scenario = Scenario(total_n=20, replications=150)
        first, second = run(scenario), run(scenario)
        assert dict(first.rejections) == dict(second.rejections)
        rng = np.random.default_rng(31)
        corr = CorrelationMatrix(random_correlation(rng, 5))
        limits = np.full(5, 2.0)
        a = mv_rect_prob(corr, -limits, limits)
        b = mv_rect_prob(corr, -limits, limits)
        assert a.value == b.value and a.error == b.error
