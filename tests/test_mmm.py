"""Tests for score stacking, adjusted p-values and simultaneous CIs."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hsettings, strategies as st
from scipy import integrate, stats
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from mmminfer import mmm, mvdist, simulate
from mmminfer.errors import DegenerateVariance, MismatchedSubjectAxis, NotPSD
from mmminfer.linmodels import Dataset, ModelSpec, fit_logit, fit_ols
from mmminfer.mmm import (
    DECISION_STAGES,
    adjusted_p,
    critical_values,
    infer,
    joint_scale,
    marginal_ci,
    marginal_p,
    max_type_p,
    max_type_rejects,
    simultaneous_ci,
    stack,
)
from mmminfer.mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    equicoordinate_quantile,
    mv_rect_prob,
    pair_exceedance,
    triple_exceedance,
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
        rect = mmm.max_abs_prob

        def spy(*args, **kwargs):
            calls.append(args)
            return rect(*args, **kwargs)

        monkeypatch.setattr(mmm, "max_abs_prob", spy)
        corr = CorrelationMatrix(np.full((dim, dim), 0.5) + 0.5 * np.eye(dim))
        bonferroni_edge = marginal_quantile(1.0 - 0.05 / (2 * dim), df)
        unadjusted_edge = marginal_quantile(1.0 - 0.05 / 2.0, df)
        # dim * p1 <= alpha: reject; p1 > alpha: accept
        c_hat = corr.entries
        assert max_type_rejects(bonferroni_edge + 1e-6, df, c_hat, 0.05, FAST) == (True, 0)
        assert max_type_rejects(unadjusted_edge - 1e-6, df, c_hat, 0.05, FAST) == (False, 0)
        assert max_type_rejects(0.0, df, c_hat, 0.05, FAST) == (False, 0)
        assert calls == []
        critical = equicoordinate_quantile(corr, 0.05, df=df)
        _, stage = max_type_rejects(critical, df, c_hat, 0.05, FAST)
        if dim == 2:
            # the pairwise bound is the p-value itself: nothing is integrated
            assert calls == [] and DECISION_STAGES[stage] == "pairwise"
        else:
            # at the critical value no exact bound settles: the box is
            # integrated
            assert len(calls) == 1 and DECISION_STAGES[stage] == "integrated"

    def test_p_value_near_alpha_is_decided_by_the_exact_pair_bound(self):
        # replicate 837 of the a3 design (N=50, prop 0.6, seed 20150436)
        # under mmm.dfmin: p exceeds alpha by 8.5e-6, closer than the
        # Gauss-Legendre rectangle resolves (it gives 0.0499893)
        b, df, rho = 2.2599322780680025, 28, 0.7997303270649917
        reference = 0.05000845166236  # scipy dblquad of the bivariate t density
        corr = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))
        pairwise = DECISION_STAGES.index("pairwise")
        assert mmm.max_type_bounds(b, df, corr.entries, 0.05) == (False, True, pairwise)
        lower, upper = pairwise_bound_values(corr.entries, b, df)
        assert lower <= reference <= upper
        assert max_type_rejects(b, df, corr.entries, 0.05, SIM_SETTINGS) == (False, pairwise)

    @pytest.mark.parametrize(
        "dim, top, edges", [(3, 3.0, 20), (5, 3.4, 30)], ids=["dim3", "dim5"]
    )
    @pytest.mark.parametrize(
        "modes, chunked",
        [((mode,), False) for mode in mmm.DF_MODES] + [(mmm.DF_MODES, False), (mmm.DF_MODES, True)],
        ids=[*mmm.DF_MODES, "all-modes", "all-modes-chunked"],
    )
    def test_stacks_match_single_calls(self, monkeypatch, dim, top, edges, modes, chunked):
        # one row per (mode, replicate): joint_scale, max_type_bounds and
        # max_type_rejects on a whole stack give exactly the values of one
        # call per row, with df inf marking the normal-law rows of a stack
        # that mixes laws
        rng = np.random.default_rng(5)
        stats = rng.normal(scale=2.0, size=(40, dim))
        dfs = rng.integers(5, 60, size=(40, dim))
        factors = rng.normal(size=(40, dim, dim + 1))
        cov = factors @ factors.transpose(0, 2, 1)
        sd = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        c_hat = cov / (sd[:, :, None] * sd[:, None, :])
        # replicates at correlation 0.9 whose largest statistic crosses the
        # band where, in every mode, some decisions reach quadrature and, at
        # dimension 5, some are settled by the triplewise bounds
        edge = np.zeros((edges, dim))
        edge[:, 0] = np.linspace(2.0, top, edges)
        stats = np.concatenate([stats, edge])
        dfs = np.concatenate([dfs, rng.integers(5, 60, size=(edges, dim))])
        close = np.full((dim, dim), 0.9) + 0.1 * np.eye(dim)
        c_hat = np.concatenate([c_hat, np.broadcast_to(close, (edges, dim, dim))])
        n = len(stats)
        b, df = np.empty((2, len(modes), n))
        for v, mode in enumerate(modes):
            scaled, law = joint_scale(stats, dfs, mode)
            b[v] = np.abs(scaled).max(axis=1)
            df[v] = np.inf if law is None else law
            for i in range(n):
                row_scaled, row_df = joint_scale(stats[i], dfs[i], mode)
                np.testing.assert_array_equal(row_scaled, scaled[i])
                assert row_df == (None if law is None else law[i])
        calls = {"pairwise": [], "triplewise": []}
        if chunked:
            # slices of 8 open rows, one kernel call per rung and slice, and
            # kernels that split their elements into slices of a few each
            monkeypatch.setattr(mmm, "_BOUND_FLOATS", 8 * dim * dim)
            monkeypatch.setattr(mvdist, "_SLICE_FLOATS", 200)
            for name, rung in (("pair_exceedance", "pairwise"), ("triple_exceedance", "triplewise")):

                def spy(edge, *args, kernel=getattr(mmm, name), rung=rung):
                    calls[rung].append(len(edge))
                    return kernel(edge, *args)

                monkeypatch.setattr(mmm, name, spy)
        # a stack of normal-law rows alone passes None, as joint_scale gives
        stack_df = None if np.isinf(df).all() else df
        rejects, accepts, stage = mmm.max_type_bounds(b, stack_df, c_hat, 0.05)
        assert rejects.any() and accepts.any()
        assert not (rejects & accepts).any()
        settled = rejects | accepts
        integrated = DECISION_STAGES.index("integrated")
        np.testing.assert_array_equal(stage == integrated, ~settled)
        rungs = ["first_order", "pairwise", "integrated"] + ["triplewise"] * (dim >= 4)
        for rung in rungs:
            assert (stage == DECISION_STAGES.index(rung)).any(axis=1).all(), rung
        if chunked:
            # every rung's rows go through it in at least three slices of at
            # most 8, the pairwise ones of 8 but the last
            for rung in ("pairwise", "triplewise"):
                if rung == "triplewise" and dim < 4:
                    assert calls[rung] == []
                    continue
                rows = int((stage >= DECISION_STAGES.index(rung)).sum())
                assert len(calls[rung]) >= 3 and max(calls[rung]) <= 8
                assert sum(calls[rung]) == rows
            assert calls["pairwise"][:-1] == [8] * (len(calls["pairwise"]) - 1)
        decided, decided_stage = max_type_rejects(b, stack_df, c_hat, 0.05, FAST)
        np.testing.assert_array_equal(decided[settled], rejects[settled])
        np.testing.assert_array_equal(decided_stage, stage)
        for v, mode in enumerate(modes):
            for i in range(n):
                row_df = None if np.isinf(df[v, i]) else int(df[v, i])
                assert mmm.max_type_bounds(b[v, i], row_df, c_hat[i], 0.05) == (
                    rejects[v, i],
                    accepts[v, i],
                    stage[v, i],
                )
                assert max_type_rejects(b[v, i], row_df, c_hat[i], 0.05, FAST) == (
                    decided[v, i],
                    stage[v, i],
                )

    @pytest.mark.parametrize(
        "c_hat, error",
        [
            (np.array([[1.0, 0.5], [0.4, 1.0]]), ValueError),
            (np.full((3, 3), -0.6) + 1.6 * np.eye(3), NotPSD),
        ],
        ids=["asymmetric", "negative-eigenvalue"],
    )
    def test_invalid_c_hat_is_rejected(self, c_hat, error):
        # a stack fails when any of its matrices does
        stack = np.stack([np.eye(len(c_hat)), c_hat])
        with pytest.raises(error):
            max_type_rejects(np.array([2.0, 2.0]), None, stack, 0.05, FAST)

    @pytest.mark.parametrize("df", [0, -3, np.nan, -np.inf, 0.5, [30, 0]])
    def test_df_below_one_is_rejected(self, df):
        with pytest.raises(ValueError, match="df"):
            mmm.max_type_bounds(np.array([1.0, 2.5]), df, np.eye(2), 0.05)

    def test_infinite_df_is_the_normal_law(self):
        b = np.linspace(1.5, 3.0, 31)
        c_hat = np.array([[1.0, 0.6], [0.6, 1.0]])
        normal = mmm.max_type_bounds(b, None, c_hat, 0.05)
        for got, want in zip(mmm.max_type_bounds(b, np.inf, c_hat, 0.05), normal):
            np.testing.assert_array_equal(got, want)
        assert normal[2].any()

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
            b, c_hat = np.abs(z).max(), fit.c_hat.entries
            rejects, _ = max_type_rejects(b, df, c_hat, 0.05, SIM_SETTINGS)
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
    rejects, _ = max_type_rejects(b, df, corr.entries, 0.05, decision_settings)
    assert rejects == (p <= 0.05)


class TestPairwiseBounds:
    def test_pairwise_settled_decisions_integrate_nothing(self, monkeypatch):
        calls = []
        rect = mmm.max_abs_prob

        def spy(*args, **kwargs):
            calls.append(args)
            return rect(*args, **kwargs)

        monkeypatch.setattr(mmm, "max_abs_prob", spy)
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
            pairwise = DECISION_STAGES.index("pairwise")
            assert mmm.max_type_bounds(b, None, corr.entries, 0.05) == (
                rejects,
                not rejects,
                pairwise,
            )
            assert max_type_rejects(b, None, corr.entries, 0.05, FAST) == (rejects, pairwise)
        assert calls == []


class TestTriplewiseBounds:
    @pytest.mark.parametrize("df", [None, 20])
    def test_triplewise_settled_decisions_integrate_nothing(self, monkeypatch, df):
        calls = []
        rect = mmm.max_abs_prob

        def spy(*args, **kwargs):
            calls.append(args)
            return rect(*args, **kwargs)

        monkeypatch.setattr(mmm, "max_abs_prob", spy)
        dim = 5
        corr = CorrelationMatrix(np.full((dim, dim), 0.5) + 0.5 * np.eye(dim))
        critical = equicoordinate_quantile(corr, 0.05, df=df)
        triplewise = DECISION_STAGES.index("triplewise")
        # edges just off the critical value on either side, which the
        # pairwise bounds leave open and the triplewise bounds settle
        for b, rejects in ((critical - 0.012, False), (critical + 0.025, True)):
            lower, upper = pairwise_bound_values(corr.entries, b, df)
            assert lower <= 0.05 < upper
            assert mmm.max_type_bounds(b, df, corr.entries, 0.05) == (
                rejects,
                not rejects,
                triplewise,
            )
            assert max_type_rejects(b, df, corr.entries, 0.05, FAST) == (rejects, triplewise)
        assert calls == []

    def test_dimension_three_stops_at_the_pairwise_rung(self, monkeypatch):
        # at dimension 3 the triple is the whole p-value: no triplewise rung
        monkeypatch.setattr(mmm, "triple_exceedance", None)
        corr = CorrelationMatrix(np.full((3, 3), 0.5) + 0.5 * np.eye(3))
        critical = equicoordinate_quantile(corr, 0.05)
        stages = mmm.max_type_bounds(critical + np.linspace(-0.05, 0.05, 11), None, corr.entries, 0.05)[2]
        assert DECISION_STAGES.index("triplewise") not in stages

    @pytest.mark.parametrize("m", [4, 5, 6, 9])
    def test_boros_prekopa_weights_give_the_closed_form(self, m):
        # Boros & Prekopa (1989): with i = 1 + floor((2 (m - 2) S2 - 6 S3) /
        # ((m - 1) S1 - 2 S2)), p >= (i + 2m - 1) S1 / ((i + 1) m) - 2 (2i +
        # m - 2) S2 / (i (i + 1) m) + 6 S3 / (i (i + 1) m); the best of the
        # weights' bounds is that one
        rng = np.random.default_rng(m)
        weights = mmm._boros_prekopa(m)
        for _ in range(200):
            counts = rng.dirichlet(np.ones(m + 1))  # P(N = n), n = 0..m
            n = np.arange(m + 1)
            s1, s2, s3 = counts @ n, counts @ (n * (n - 1) // 2), counts @ (n * (n - 1) * (n - 2) // 6)
            i = 1 + np.floor((2 * (m - 2) * s2 - 6 * s3) / ((m - 1) * s1 - 2 * s2))
            closed = ((i + 2 * m - 1) * i * s1 - 2 * (2 * i + m - 2) * s2 + 6 * s3) / (i * (i + 1) * m)
            bounds = np.array([s1, s2, s3]) @ weights
            assert bounds.max() == pytest.approx(closed, rel=1e-12, abs=1e-15)
            # every weight column is a lower bound of P(N >= 1)
            assert (bounds <= 1.0 - counts[0] + 1e-12).all()


def pairwise_bound_values(corr, b, df, with_error=True):
    """(lower - error, upper + error) of the pairwise bounds at edge ``b``;
    (lower, upper) with ``with_error=False``."""
    m = corr.shape[0]
    i, j = np.triu_indices(m, 1)
    p1 = np.atleast_1d(2.0 * (ndtr(-b) if df is None else stdtr(df, -b)))
    pair, err = pair_exceedance(b, corr[i, j][None], df)
    err = err if with_error else np.zeros_like(err)
    lower = mmm._pair_lower(p1, pair, err, m)[0]
    upper = mmm._hunter_worsley(p1, pair, err, i, j, m)[0]
    return lower, upper


def triplewise_bound_values(corr, b, df):
    """(lower - error, upper + error) of the triplewise bounds at edge ``b``."""
    m = corr.shape[0]
    i, j = np.triu_indices(m, 1)
    p1 = np.atleast_1d(2.0 * (ndtr(-b) if df is None else stdtr(df, -b)))
    pair, err = pair_exceedance(b, corr[i, j][None], df)
    rho = [corr[i[k], j[k]][None] for k in mmm._triples(m)[0]]
    triple, terr = triple_exceedance(b, *rho, df)
    lower = mmm._boros_prekopa_lower(p1, pair, err, triple, terr, m)[0]
    upper = mmm._cherry_tree(p1, pair, err, triple, terr, m)[0]
    return lower, upper


def tight_p_value(corr, b, df):
    """Two-sided max-type p-value at edge ``b`` and its error, from a rule
    that is not the one ``max_type_p`` uses below dimension 4, so the bounds
    there are checked against a reference independent of the Gauss-Legendre
    ladder, whose own error at low df is close to its 5e-5 target.

    * dimension 2: P(|X_2| <= b | X_1 = x) integrated over |x| <= b by
      ``scipy.integrate.quad``; given X_1 = x, X_2 is normal, or Student t
      with df + 1 and scale sqrt((1 - rho^2)(df + x^2) / (df + 1));
    * dimension 3: the randomized rule at a fixed 2**14 points per scramble,
      with no early stop on its error estimate;
    * from dimension 4: ``mv_rect_prob`` at target 1e-5.
    """
    dim = corr.dim
    lower, upper = np.full(dim, -b), np.full(dim, b)
    settings = QuadratureSettings(target_abs_error=1e-5)
    if dim >= 4:
        rect = mv_rect_prob(corr, lower, upper, df, settings)
        return 1.0 - rect.value, rect.error
    if dim == 3:
        sampler = mvdist._SobolSampler(corr.cholesky(), df, settings)
        value, error = sampler.estimate_fixed(lower, upper, 2**14)
        return 1.0 - value, error
    p1 = 2.0 * (ndtr(-b) if df is None else stdtr(df, -b))
    rho = corr.entries[0, 1]
    if rho * rho >= 1.0:
        return p1, 0.0
    if df is None:
        density, cdf, scale = stats.norm.pdf, ndtr, lambda x: np.sqrt(1.0 - rho * rho)
    else:
        density, cdf = stats.t(df).pdf, lambda z: stdtr(df + 1, z)
        scale = lambda x: np.sqrt((1.0 - rho * rho) * (df + x * x) / (df + 1))

    def given_x1(x):
        return density(x) * (cdf((b - rho * x) / scale(x)) - cdf((-b - rho * x) / scale(x)))

    # quad's default epsrel of 1.5e-8 leaves p off by ~1e-9 at high rho
    inside, error = integrate.quad(given_x1, -b, b, epsabs=1e-14, epsrel=1e-13, limit=500)
    return 1.0 - inside, error + 1e-13


@hsettings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    t_path=st.booleans(),
    position=st.floats(0.0, 1.0),
)
# rho 0.982 at dimension 2, where quad needs a tight epsrel to reach 1e-10
@example(seed=396353616, dim=2, t_path=False, position=0.0)
def test_pairwise_bounds_enclose_the_tight_p_value(seed, dim, t_path, position):
    """On random PSD correlations, lower - err <= p <= upper + err for the
    max-type p-value of ``tight_p_value``, within its error; at dimension 2
    both bounds are that p-value."""
    rng = np.random.default_rng(seed)
    corr = random_psd_correlation(rng, dim)
    df = int(rng.integers(3, 80)) if t_path else None
    lo = marginal_quantile(1.0 - 0.05 / 2.0, df)
    hi = marginal_quantile(1.0 - 0.05 / (2 * dim), df)
    b = float(lo + position * (hi - lo))
    p, error = tight_p_value(corr, b, df)
    lower, upper = pairwise_bound_values(corr.entries, b, df)
    p1 = 2.0 * (ndtr(-b) if df is None else stdtr(df, -b))
    # never looser than the first-order bounds p1 <= p <= dim * p1
    assert p1 - 1e-9 <= lower <= p + error
    assert p - error <= upper <= dim * p1 + 1e-9
    if dim == 2:
        # exact: without their error terms both bounds are p = 2 p1 - P(A_1
        # and A_2)
        exact_lower, exact_upper = pairwise_bound_values(corr.entries, b, df, False)
        assert exact_upper - exact_lower <= 1e-10
        assert abs(exact_lower - p) <= 1e-10


@hsettings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(4, 6),
    t_path=st.booleans(),
    position=st.floats(0.0, 1.0),
)
def test_triplewise_bounds_enclose_the_tight_p_value(seed, dim, t_path, position):
    """On random PSD correlations, lower - err <= p <= upper + err for the
    max-type p-value of ``tight_p_value``, within its error, and the
    bracket lies within the first-order one."""
    rng = np.random.default_rng(seed)
    corr = random_psd_correlation(rng, dim)
    df = int(rng.integers(3, 80)) if t_path else None
    lo = marginal_quantile(1.0 - 0.05 / 2.0, df)
    hi = marginal_quantile(1.0 - 0.05 / (2 * dim), df)
    b = float(lo + position * (hi - lo))
    p, error = tight_p_value(corr, b, df)
    lower, upper = triplewise_bound_values(corr.entries, b, df)
    p1 = 2.0 * (ndtr(-b) if df is None else stdtr(df, -b))
    assert p1 - 1e-9 <= lower <= p + error
    assert p - error <= upper <= dim * p1 + 1e-9


@pytest.mark.parametrize(
    "fields",
    [
        dict(family="any", overlap=True),
        dict(family="any", endpoints=2, rho=0.8),
    ],
    ids=["a5-any", "a6-any"],
)
def test_integrated_decisions_match_the_tight_p_value(monkeypatch, fields):
    """Every decision the simulation integrates, stopped early by its
    decision or not, is that of ``tight_p_value`` wherever that p-value lies
    more than three times its error from alpha."""
    decisions = []
    rect = mmm.max_abs_prob

    def spy(corr, b, df, settings, *, decide_at):
        result = rect(corr, b, df, settings, decide_at=decide_at)
        assert decide_at == 1.0 - 0.05
        decisions.append((corr, b, df, 1.0 - result.value <= 0.05))
        return result

    monkeypatch.setattr(mmm, "max_abs_prob", spy)
    scenario = Scenario(total_n=50, prop_target=0.6, seed=20150436, replications=600, **fields)
    simulate.run(scenario)
    # enough replicates that several decisions reach quadrature past the
    # triplewise bounds
    assert len(decisions) >= 5
    checked = 0
    for corr, b, df, rejects in decisions:
        p, error = tight_p_value(corr, b, df)
        if abs(p - 0.05) > 3.0 * error:
            assert rejects == (p <= 0.05), (b, df, p, error)
            checked += 1
    # the reference resolves most decisions, so the test checks something
    assert checked >= 0.8 * len(decisions)


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


def mixed_models(seed=20):
    """Gaussian and logit models on one trial: total and subgroup of each."""
    d = trial_dataset(80, seed, delta=0.6)
    data = Dataset(
        d.treatment,
        d.treatment_levels,
        dict(d.subgroups),
        {"y": d.responses["y"], "b": (d.responses["y"] > 0.0).astype(float)},
    )
    return [
        fit_ols(data, ModelSpec("y")),
        fit_logit(data, ModelSpec("b", family="binomial-logit")),
        fit_ols(data, ModelSpec("y", subset="s")),
        fit_logit(data, ModelSpec("b", subset="s", family="binomial-logit")),
    ]


def scalar_p(model, alternative):
    """One model's marginal p-value, scalar: t at the residual df for a
    gaussian model, normal for a logit one."""
    t = model.statistic
    x = {"two-sided": -abs(t), "greater": -t, "less": t}[alternative]
    tail = stdtr(model.residual_df, x) if model.spec.family == "gaussian-identity" else ndtr(x)
    return 2.0 * tail if alternative == "two-sided" else tail


def scalar_ci(model, alpha, alternative):
    """One model's marginal bounds, scalar, with the quantile of its law."""
    level = 1.0 - (alpha / 2.0 if alternative == "two-sided" else alpha)
    if model.spec.family == "gaussian-identity":
        crit = float(stdtrit(model.residual_df, level))
    else:
        crit = float(ndtri(level))
    lower = model.coefficient - crit * model.standard_error
    upper = model.coefficient + crit * model.standard_error
    return {
        "two-sided": (lower, upper),
        "greater": (lower, np.inf),
        "less": (-np.inf, upper),
    }[alternative]


def reference_df(models):
    return [np.inf if m.spec.family == "binomial-logit" else m.residual_df for m in models]


def report_cells(models, method, alpha=0.05, alternative="two-sided"):
    """``(p, lower, upper)`` arrays of one method's cells in ``infer``'s report."""
    report = infer(models, "cells", alpha, alternative, "normal", FAST)
    cells = [row.methods[method] for row in report.rows]
    return tuple(np.array([getattr(c, k) for c in cells]) for k in ("p", "ci_lower", "ci_upper"))


class TestMarginal:
    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_mixed_families_equal_the_scalar_formulas(self, alternative):
        models = mixed_models()
        stats = [m.statistic for m in models]
        est = np.array([m.coefficient for m in models])
        se = np.array([m.standard_error for m in models])
        p = marginal_p(stats, reference_df(models), alternative)
        lo, hi = marginal_ci(est, se, reference_df(models), 0.05, alternative)
        for k, m in enumerate(models):
            assert p[k] == scalar_p(m, alternative)
            assert (lo[k], hi[k]) == scalar_ci(m, 0.05, alternative)

    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_infer_cells_equal_the_scalar_formulas(self, alternative):
        models = mixed_models()
        m = len(models)
        for method, alpha_m, scale in (("noadjust", 0.05, 1), ("bonferroni", 0.05 / m, m)):
            p, lo, hi = report_cells(models, method, alternative=alternative)
            for k, model in enumerate(models):
                assert p[k] == min(1.0, scale * scalar_p(model, alternative))
                assert (lo[k], hi[k]) == scalar_ci(model, alpha_m, alternative)

    def test_block_df_arrays_equal_the_scalar_formulas(self):
        rng = np.random.default_rng(21)
        stats = rng.normal(scale=2.0, size=(5, 3))
        dfs = rng.integers(1, 60, size=(5, 3)).astype(float)
        dfs[1, 2] = dfs[3, 0] = np.inf  # a normal entry among the t ones
        for alternative in ("two-sided", "greater", "less"):
            p = marginal_p(stats, dfs, alternative)
            lo, hi = marginal_ci(stats, 0.5, dfs, 0.1, alternative)
            assert p.shape == lo.shape == hi.shape == (5, 3)
            for k in np.ndindex(stats.shape):
                x = {"two-sided": -abs(stats[k]), "greater": -stats[k], "less": stats[k]}
                tail = ndtr(x[alternative]) if np.isinf(dfs[k]) else stdtr(dfs[k], x[alternative])
                assert p[k] == (2.0 * tail if alternative == "two-sided" else tail)
                level = 0.95 if alternative == "two-sided" else 0.9
                crit = ndtri(level) if np.isinf(dfs[k]) else stdtrit(dfs[k], level)
                if alternative != "less":
                    assert lo[k] == stats[k] - crit * 0.5
                if alternative != "greater":
                    assert hi[k] == stats[k] + crit * 0.5

    def test_rejects_bad_alternative_and_alpha(self):
        with pytest.raises(ValueError, match="alternative"):
            marginal_p([1.0], [10], "both")
        with pytest.raises(ValueError, match="alternative"):
            marginal_ci([1.0], [1.0], [10], 0.05, "both")
        with pytest.raises(ValueError, match="alpha"):
            marginal_ci([1.0], [1.0], [10], 1.5)


class TestLogitDf:
    """A logit statistic is a Wald z: its df is inf in every df mode."""

    @pytest.mark.parametrize("alternative", ["two-sided", "less"])
    @pytest.mark.parametrize("df_mode", mmm.DF_MODES)
    def test_one_logit_model_gets_the_unadjusted_answer(self, df_mode, alternative):
        report = infer(mixed_models()[1:2], "one", 0.05, alternative, df_mode, FAST)
        cells = report.rows[0].methods
        for field in ("p", "ci_lower", "ci_upper"):
            want = getattr(cells["noadjust"], field)
            assert getattr(cells["mmm"], field) == pytest.approx(want, rel=1e-12)
        assert report.df_mode == ("dfind(inf)" if df_mode == "dfind" else "normal")

    def test_mixed_stacks_take_the_gaussian_dfs(self):
        models = mixed_models()
        f = stack(models, "dfmin")
        gaussian = [models[0].residual_df, models[2].residual_df]
        np.testing.assert_array_equal(f.per_model_df, [gaussian[0], np.inf, gaussian[1], np.inf])
        assert joint_scale(f.statistics, f.per_model_df, "dfmin")[1] == min(gaussian)
        assert joint_scale(f.statistics, f.per_model_df, "dfmax")[1] is None
        labels = {
            mode: infer(models, "mixed", 0.05, "two-sided", mode, FAST).df_mode
            for mode in mmm.DF_MODES
        }
        assert labels == {
            "normal": "normal",
            "dfmin": f"t({min(gaussian)})",
            "dfmax": "normal",
            "dfind": f"dfind({gaussian[0]}, inf, {gaussian[1]}, inf)",
        }


class TestBaselines:
    def test_unadjusted_gaussian_uses_t(self):
        d = trial_dataset(20, 16, delta=0.8)
        m = fit_ols(d, ModelSpec("y"))
        p = marginal_p([m.statistic], [m.residual_df])
        want = 2.0 * stdtr(m.residual_df, -abs(m.coefficient / m.standard_error))
        assert p[0] == pytest.approx(want, abs=1e-12)

    def test_bonferroni_p_is_scaled(self):
        f = three_model_stack(seed=17, delta=0.2)
        p = marginal_p(f.statistics, f.per_model_df)
        np.testing.assert_allclose(
            report_cells(f.models, "bonferroni")[0], np.minimum(1.0, 3.0 * p), atol=1e-12
        )

    def test_bonferroni_ci_narrower_alpha(self):
        f = three_model_stack(seed=18)
        _, lo_u, hi_u = report_cells(f.models, "noadjust")
        _, lo_b, hi_b = report_cells(f.models, "bonferroni")
        assert np.all(lo_b <= lo_u + 1e-12)
        assert np.all(hi_b >= hi_u - 1e-12)

    def test_one_sided_ci(self):
        f = three_model_stack(seed=19)
        est = np.array([m.coefficient for m in f.models])
        se = np.array([m.standard_error for m in f.models])
        lo, hi = marginal_ci(est, se, f.per_model_df, 0.05, "greater")
        assert np.all(np.isinf(hi))
        m = f.models[0]
        crit = stdtrit(m.residual_df, 0.95)
        assert lo[0] == pytest.approx(m.coefficient - crit * m.standard_error, abs=1e-9)
        lo, hi = marginal_ci(est, se, f.per_model_df, 0.05, "less")
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
