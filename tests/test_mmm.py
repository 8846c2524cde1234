"""Tests for score stacking, adjusted p-values and simultaneous CIs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings as hsettings, strategies as st
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from mmminfer import mmm
from mmminfer.errors import DegenerateVariance, MismatchedSubjectAxis
from mmminfer.linmodels import Dataset, ModelSpec, fit_ols
from mmminfer.mmm import (
    adjusted_p,
    bonferroni_ci,
    bonferroni_p,
    critical_values,
    joint_scale,
    max_type_p,
    max_type_rejects,
    simultaneous_ci,
    stack,
    unadjusted_ci,
    unadjusted_p,
)
from mmminfer.mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    equicoordinate_quantile,
    mv_rect_prob,
    pair_exceedance,
)
from mmminfer.simulate import SIM_SETTINGS, Scenario, generate

FAST = QuadratureSettings(target_abs_error=5e-4, shifts=8, first_round_samples=64)


def trial_dataset(n, seed, prop=0.4, delta=0.0, sd=1.0):
    """Balanced two-arm gaussian dataset with one subgroup flag."""
    rng = np.random.default_rng(seed)
    trt = rng.permutation(np.r_[np.zeros(n // 2, int), np.ones(n - n // 2, int)])
    flag = (rng.random(n) < prop).astype(float)
    y = rng.normal(scale=sd, size=n) + delta * trt * flag
    return Dataset(trt, ("ctrl", "trt"), {"s": flag}, {"y": y})


def three_model_stack(n=400, seed=3, df_mode="normal", delta=0.0):
    """total / targeted / complementary stack on one gaussian endpoint."""
    d0 = trial_dataset(n, seed, delta=delta)
    comp = 1.0 - d0.subgroups["s"]
    data = Dataset(
        d0.treatment,
        d0.treatment_levels,
        {"s": d0.subgroups["s"], "sc": comp},
        {"y": d0.responses["y"]},
    )
    models = [
        fit_ols(data, ModelSpec("y")),
        fit_ols(data, ModelSpec("y", subset="s")),
        fit_ols(data, ModelSpec("y", subset="sc")),
    ]
    return stack(models, df_mode=df_mode)


class TestStack:
    def test_duplicated_model_correlation_one(self):
        d = trial_dataset(60, 0)
        m = fit_ols(d, ModelSpec("y"))
        f = stack([m, m])
        assert f.c_hat.entries[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_disjoint_subsets_correlation_exact_zero(self):
        f = three_model_stack()
        # targeted vs complementary have disjoint score support
        assert f.c_hat.entries[1, 2] == 0.0

    def test_nested_overlap_correlation_oracle(self):
        d = trial_dataset(10_000, 1, prop=0.4)
        models = [fit_ols(d, ModelSpec("y")), fit_ols(d, ModelSpec("y", subset="s"))]
        f = stack(models)
        q = float(np.mean(d.subgroups["s"]))
        assert f.c_hat.entries[0, 1] == pytest.approx(np.sqrt(q), abs=0.02)

    def test_c_hat_matches_sigma_hat(self):
        f = three_model_stack()
        scale = 1.0 / np.sqrt(np.diag(f.sigma_hat))
        want = f.sigma_hat * np.outer(scale, scale)
        np.testing.assert_allclose(f.c_hat.entries, want, atol=1e-10)

    def test_statistics_are_t_ratios(self):
        f = three_model_stack()
        for k, m in enumerate(f.models):
            assert f.statistics[k] == pytest.approx(m.coefficient / m.standard_error)

    def test_mismatched_axis(self):
        a = fit_ols(trial_dataset(40, 2), ModelSpec("y"))
        b = fit_ols(trial_dataset(60, 2), ModelSpec("y"))
        with pytest.raises(MismatchedSubjectAxis):
            stack([a, b])

    def test_degenerate_variance(self):
        d = trial_dataset(40, 4)
        m = fit_ols(d, ModelSpec("y"))
        broken = type(m)(
            spec=m.spec,
            coefficient=m.coefficient,
            standard_error=m.standard_error,
            n_used=m.n_used,
            residual_df=m.residual_df,
            score_contributions=np.zeros(40),
        )
        with pytest.raises(DegenerateVariance):
            stack([m, broken])

    def test_rejects_unknown_df_mode(self):
        d = trial_dataset(40, 5)
        m = fit_ols(d, ModelSpec("y"))
        with pytest.raises(ValueError, match="df_mode"):
            stack([m], df_mode="df0")

    def test_labels(self):
        f = three_model_stack()
        assert f.labels == ("all:y", "s:y", "sc:y")


class TestAdjustedP:
    def test_single_model_equals_unadjusted(self):
        d = trial_dataset(80, 6, delta=0.4)
        m = fit_ols(d, ModelSpec("y"))
        f = stack([m])
        adj = adjusted_p(f)
        un = 2.0 * ndtr(-abs(f.statistics[0]))
        assert adj[0] == pytest.approx(un, abs=1e-5)

    def test_bonferroni_upper_bound(self):
        f = three_model_stack(delta=0.3)
        adj = adjusted_p(f, settings=FAST)
        un_normal = 2.0 * ndtr(-np.abs(f.statistics))
        assert np.all(adj <= np.minimum(1.0, 3 * un_normal) + 2e-4)
        assert np.all(adj >= un_normal - 2e-4)

    def test_one_sided_directions_mirror(self):
        f = three_model_stack(delta=0.3)
        pg = adjusted_p(f, "greater", settings=FAST)
        flipped = stack(
            [
                type(m)(
                    spec=m.spec,
                    coefficient=-m.coefficient,
                    standard_error=m.standard_error,
                    n_used=m.n_used,
                    residual_df=m.residual_df,
                    score_contributions=-m.score_contributions,
                )
                for m in f.models
            ]
        )
        pl = adjusted_p(flipped, "less", settings=FAST)
        np.testing.assert_allclose(pg, pl, atol=2e-3)

    def test_dfind_matches_normal_at_huge_df(self):
        # with thousands of residual df the copula transform is a no-op
        f_norm = three_model_stack(n=4000, seed=7, df_mode="normal", delta=0.1)
        f_ind = three_model_stack(n=4000, seed=7, df_mode="dfind", delta=0.1)
        np.testing.assert_allclose(
            adjusted_p(f_norm, settings=FAST),
            adjusted_p(f_ind, settings=FAST),
            atol=5e-3,
        )

    def test_df_modes_ordering(self):
        # heavier tails (smaller df) give larger adjusted p at the same stats
        f_min = three_model_stack(n=60, seed=8, df_mode="dfmin", delta=0.5)
        f_max = three_model_stack(n=60, seed=8, df_mode="dfmax", delta=0.5)
        f_norm = three_model_stack(n=60, seed=8, df_mode="normal", delta=0.5)
        p_min = adjusted_p(f_min, settings=FAST)
        p_max = adjusted_p(f_max, settings=FAST)
        p_norm = adjusted_p(f_norm, settings=FAST)
        assert np.all(p_min >= p_max - 2e-3)
        assert np.all(p_max >= p_norm - 2e-3)

    def test_zero_statistic_gives_p_one(self):
        d = trial_dataset(50, 9)
        m = fit_ols(d, ModelSpec("y"))
        tweaked = type(m)(
            spec=m.spec,
            coefficient=0.0,
            standard_error=m.standard_error,
            n_used=m.n_used,
            residual_df=m.residual_df,
            score_contributions=m.score_contributions,
        )
        f = stack([tweaked, fit_ols(d, ModelSpec("y", subset="s"))])
        assert adjusted_p(f, settings=FAST)[0] == 1.0

    def test_rejects_bad_alternative(self):
        f = three_model_stack()
        with pytest.raises(ValueError, match="alternative"):
            adjusted_p(f, "sideways")


def marginal_quantile(p, df):
    return ndtri(p) if df is None else stdtrit(df, p)


def random_psd_correlation(rng, dim):
    """Correlation matrix of a random Gram matrix, rank 1 up to full."""
    a = rng.standard_normal((dim, int(rng.integers(1, dim + 2))))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return CorrelationMatrix(s / np.outer(d, d))


class TestMaxTypeRejects:
    @pytest.mark.parametrize("df", [None, 20])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_exact_bounds_settle_without_quadrature(self, monkeypatch, dim, df):
        calls = []
        rect = mmm.mv_rect_prob

        def spy(*args, **kwargs):
            calls.append(args)
            return rect(*args, **kwargs)

        monkeypatch.setattr(mmm, "mv_rect_prob", spy)
        corr = CorrelationMatrix(np.full((dim, dim), 0.5) + 0.5 * np.eye(dim))
        bonferroni_edge = marginal_quantile(1.0 - 0.05 / (2 * dim), df)
        unadjusted_edge = marginal_quantile(1.0 - 0.05 / 2.0, df)
        # dim * p1 <= alpha: reject; p1 > alpha: accept
        assert max_type_rejects(corr, bonferroni_edge + 1e-6, df, 0.05, FAST)
        assert not max_type_rejects(corr, unadjusted_edge - 1e-6, df, 0.05, FAST)
        assert not max_type_rejects(corr, 0.0, df, 0.05, FAST)
        assert calls == []
        # at the critical value no exact bound settles: the rectangle is
        # integrated
        critical = equicoordinate_quantile(corr, 0.05, df=df)
        max_type_rejects(corr, critical, df, 0.05, FAST)
        assert calls

    @pytest.mark.parametrize("mode", ["normal", "dfmin", "dfmax", "dfind"])
    def test_stacks_match_single_calls(self, mode):
        # one row per replicate: joint_scale and max_type_bounds on whole
        # blocks give exactly the values of one call per replicate
        rng = np.random.default_rng(5)
        stats = rng.normal(scale=2.0, size=(40, 3))
        dfs = rng.integers(5, 60, size=(40, 3))
        scaled, df = joint_scale(stats, dfs, mode)
        b = np.abs(scaled).max(axis=1)
        rejects, accepts, paired = mmm.max_type_bounds(b, df, np.eye(3), 0.05)
        assert rejects.any() and accepts.any() and not (rejects & accepts).any()
        for i in range(40):
            row_scaled, row_df = joint_scale(stats[i], dfs[i], mode)
            np.testing.assert_array_equal(row_scaled, scaled[i])
            assert row_df == (None if df is None else df[i])
            assert mmm.max_type_bounds(abs(row_scaled).max(), row_df, np.eye(3), 0.05) == (
                rejects[i],
                accepts[i],
                paired[i],
            )

    def test_bonferroni_rejection_implies_dfind_rejection_per_replicate(self):
        # a5-any: five overlapping subgroup models of one gaussian endpoint
        scenario = Scenario(
            total_n=50, prop_target=0.6, family="any", overlap=True, seed=20150436
        )
        m = len(scenario.model_specs)
        bonferroni = dfind = 0
        for r in range(200):
            data = generate(scenario, r)
            fit = stack([fit_ols(data, spec) for spec in scenario.model_specs])
            p = 2.0 * stdtr(fit.per_model_df, -np.abs(fit.statistics))
            z, df = joint_scale(fit.statistics, fit.per_model_df, "dfind")
            rejects = max_type_rejects(fit.c_hat, np.abs(z).max(), df, 0.05, SIM_SETTINGS)
            if (p <= 0.05 / m).any():
                bonferroni += 1
                assert rejects, r
            dfind += rejects
        assert bonferroni >= 3
        assert dfind >= bonferroni


@hsettings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    t_path=st.booleans(),
    position=st.floats(-0.2, 1.2),
)
def test_max_type_rejects_matches_tight_p_value(seed, dim, t_path, position):
    """Away from alpha, the decision is that of a tightly integrated p-value.

    ``position`` places the box edge between the unadjusted (0) and the
    Bonferroni (1) critical value, where the exact bounds leave the
    decision to quadrature, and a little beyond on either side.
    """
    rng = np.random.default_rng(seed)
    corr = random_psd_correlation(rng, dim)
    df = int(rng.integers(3, 80)) if t_path else None
    lo = marginal_quantile(1.0 - 0.05 / 2.0, df)
    hi = marginal_quantile(1.0 - 0.05 / (2 * dim), df)
    b = float(lo + position * (hi - lo))
    p = max_type_p(corr, np.r_[b, np.zeros(dim - 1)], df=df)[0]
    assume(abs(p - 0.05) > 1e-3)
    decision_settings = QuadratureSettings(
        target_abs_error=1e-4, shifts=8, first_round_samples=64
    )
    assert max_type_rejects(corr, b, df, 0.05, decision_settings) == (p <= 0.05)


class TestPairwiseBounds:
    def test_pairwise_settled_decisions_integrate_nothing(self, monkeypatch):
        calls = []
        rect = mmm.mv_rect_prob

        def spy(*args, **kwargs):
            calls.append(args)
            return rect(*args, **kwargs)

        monkeypatch.setattr(mmm, "mv_rect_prob", spy)
        dim = 5
        corr = CorrelationMatrix(np.full((dim, dim), 0.5) + 0.5 * np.eye(dim))
        critical = equicoordinate_quantile(corr, 0.05)
        bonferroni_edge = marginal_quantile(1.0 - 0.05 / (2 * dim), None)
        unadjusted_edge = marginal_quantile(1.0 - 0.05 / 2.0, None)
        # edges open under the first-order bounds on both sides of the
        # critical value, where the pairwise bounds settle
        for b, rejects in (
            (bonferroni_edge - 0.015, True),
            (0.5 * (critical + unadjusted_edge), False),
        ):
            p1 = 2.0 * ndtr(-b)
            assert 0.05 / dim < p1 <= 0.05
            assert mmm.max_type_bounds(b, None, corr.entries, 0.05) == (
                rejects,
                not rejects,
                True,
            )
            assert max_type_rejects(corr, b, None, 0.05, FAST) == rejects
        assert calls == []


def pairwise_bound_values(corr, b, df):
    """(lower - error, upper + error) of the pairwise bounds at edge ``b``."""
    m = corr.shape[0]
    i, j = np.triu_indices(m, 1)
    p1 = np.atleast_1d(2.0 * (ndtr(-b) if df is None else stdtr(df, -b)))
    pair, err = pair_exceedance(b, corr[i, j][None], df)
    lower = mmm._pair_lower(p1, pair, err, m)[0]
    upper = mmm._hunter_worsley(p1, pair, err, i, j, m)[0]
    return lower, upper


@hsettings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(4, 6),
    t_path=st.booleans(),
    position=st.floats(0.0, 1.0),
)
def test_pairwise_bounds_enclose_the_tight_p_value(seed, dim, t_path, position):
    """On random PSD correlations, lower - err <= p <= upper + err for the
    max-type p-value integrated at target 1e-5, within its reported error."""
    rng = np.random.default_rng(seed)
    corr = random_psd_correlation(rng, dim)
    df = int(rng.integers(3, 80)) if t_path else None
    lo = marginal_quantile(1.0 - 0.05 / 2.0, df)
    hi = marginal_quantile(1.0 - 0.05 / (2 * dim), df)
    b = float(lo + position * (hi - lo))
    rect = mv_rect_prob(
        corr,
        np.full(dim, -b),
        np.full(dim, b),
        df=df,
        settings=QuadratureSettings(target_abs_error=1e-5),
    )
    p = 1.0 - rect.value
    lower, upper = pairwise_bound_values(corr.entries, b, df)
    p1 = 2.0 * (ndtr(-b) if df is None else stdtr(df, -b))
    # never looser than the first-order bounds p1 <= p <= dim * p1
    assert p1 - 1e-9 <= lower <= p + rect.error
    assert p - rect.error <= upper <= dim * p1 + 1e-9


class TestSimultaneousCi:
    def test_single_gaussian_model_matches_textbook_t(self):
        d = trial_dataset(30, 10, delta=0.5)
        m = fit_ols(d, ModelSpec("y"))
        f = stack([m], df_mode="dfind")
        lo, hi = simultaneous_ci(f, 0.05)
        crit = stdtrit(m.residual_df, 0.975)
        assert lo[0] == pytest.approx(m.coefficient - crit * m.standard_error, abs=1e-6)
        assert hi[0] == pytest.approx(m.coefficient + crit * m.standard_error, abs=1e-6)

    def test_identity_correlation_matches_sidak(self):
        f = three_model_stack(seed=11)
        # targeted and complementary are independent; force identity by
        # stacking only those two plus checking the critical value
        sub = stack([f.models[1], f.models[2]])
        crit = critical_values(sub, 0.05, settings=FAST)
        sidak = ndtri(1.0 - (1.0 - 0.95 ** 0.5) / 2.0)
        assert crit[0] == pytest.approx(sidak, abs=2e-3)

    def test_one_sided_bounds_shape(self):
        f = three_model_stack(seed=12, delta=0.4)
        lo, hi = simultaneous_ci(f, 0.05, "greater", settings=FAST)
        assert np.all(np.isinf(hi)) and np.all(hi > 0)
        assert np.all(np.isfinite(lo))
        lo2, hi2 = simultaneous_ci(f, 0.05, "less", settings=FAST)
        assert np.all(np.isinf(lo2)) and np.all(lo2 < 0)

    def test_dfind_backtransform_orders_by_df(self):
        # smaller residual df must get the wider per-coordinate critical value
        f = three_model_stack(n=80, seed=13, df_mode="dfind")
        crit = critical_values(f, 0.05, settings=FAST)
        dfs = f.per_model_df
        order = np.argsort(dfs)
        assert crit[order[0]] >= crit[order[-1]]

    def test_decision_coherence(self):
        f = three_model_stack(n=120, seed=14, delta=0.35)
        adj = adjusted_p(f, settings=FAST)
        lo, hi = simultaneous_ci(f, 0.05, settings=FAST)
        for k in range(f.dim):
            excludes_zero = lo[k] > 0.0 or hi[k] < 0.0
            if abs(adj[k] - 0.05) > 5e-3:  # away from the boundary
                assert excludes_zero == (adj[k] <= 0.05)

    def test_scale_equivariance(self):
        d = trial_dataset(200, 15, delta=0.3)
        scaled = Dataset(
            d.treatment,
            d.treatment_levels,
            dict(d.subgroups),
            {"y": 7.0 * d.responses["y"]},
        )
        f1 = stack([fit_ols(d, ModelSpec("y")), fit_ols(d, ModelSpec("y", subset="s"))])
        f2 = stack(
            [fit_ols(scaled, ModelSpec("y")), fit_ols(scaled, ModelSpec("y", subset="s"))]
        )
        np.testing.assert_allclose(f1.statistics, f2.statistics, atol=1e-10)
        np.testing.assert_allclose(f1.c_hat.entries, f2.c_hat.entries, atol=1e-10)
        np.testing.assert_allclose(
            adjusted_p(f1, settings=FAST), adjusted_p(f2, settings=FAST), atol=1e-10
        )

    def test_rejects_bad_alpha(self):
        f = three_model_stack()
        with pytest.raises(ValueError, match="alpha"):
            simultaneous_ci(f, 1.5)


class TestBaselines:
    def test_unadjusted_gaussian_uses_t(self):
        d = trial_dataset(20, 16, delta=0.8)
        m = fit_ols(d, ModelSpec("y"))
        p = unadjusted_p([m])
        want = 2.0 * stdtr(m.residual_df, -abs(m.coefficient / m.standard_error))
        assert p[0] == pytest.approx(want, abs=1e-12)

    def test_bonferroni_p_is_scaled(self):
        f = three_model_stack(seed=17, delta=0.2)
        p = unadjusted_p(f.models)
        np.testing.assert_allclose(
            bonferroni_p(f.models), np.minimum(1.0, 3.0 * p), atol=1e-12
        )

    def test_bonferroni_ci_narrower_alpha(self):
        f = three_model_stack(seed=18)
        lo_u, hi_u = unadjusted_ci(f.models, 0.05)
        lo_b, hi_b = bonferroni_ci(f.models, 0.05)
        assert np.all(lo_b <= lo_u + 1e-12)
        assert np.all(hi_b >= hi_u - 1e-12)

    def test_one_sided_ci(self):
        f = three_model_stack(seed=19)
        lo, hi = unadjusted_ci(f.models, 0.05, "greater")
        assert np.all(np.isinf(hi))
        m = f.models[0]
        crit = stdtrit(m.residual_df, 0.95)
        assert lo[0] == pytest.approx(m.coefficient - crit * m.standard_error, abs=1e-9)
        lo, hi = unadjusted_ci(f.models, 0.05, "less")
        assert np.all(np.isneginf(lo))
        assert hi[0] == pytest.approx(m.coefficient + crit * m.standard_error, abs=1e-9)


@hsettings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), delta=st.floats(0.0, 1.0))
def test_dominance_fuzzed(seed, delta):
    """unadjusted <= mmm adjusted <= Bonferroni, all on the normal scale."""
    f = three_model_stack(n=150, seed=seed, delta=delta)
    adj = adjusted_p(f, settings=FAST)
    un = 2.0 * ndtr(-np.abs(f.statistics))
    bon = np.minimum(1.0, f.dim * un)
    assert np.all(adj >= un - 2e-4)
    assert np.all(adj <= bon + 2e-4)
