"""Tests for marginal model fitting and score contributions."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmminfer.casestudy import expand, load_averroes
from mmminfer.errors import (
    DegenerateSubset,
    SchemaError,
    Separation,
    ZeroVariance,
)
from mmminfer.linmodels import (
    Dataset,
    MarginalModel,
    ModelSpec,
    fit,
    fit_logit,
    fit_ols,
    read_dataset,
)

GAUSS = ModelSpec(endpoint="y", family="gaussian-identity")
LOGIT = ModelSpec(endpoint="y", family="binomial-logit")


def gaussian_dataset(y0, y1, **kwargs):
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    return Dataset(
        treatment=np.r_[np.zeros(y0.size, int), np.ones(y1.size, int)],
        treatment_levels=("ctrl", "trt"),
        subgroups=kwargs.get("subgroups", {}),
        responses={"y": np.r_[y0, y1], **kwargs.get("extra", {})},
    )


def table_dataset(a, b, c, d):
    """2x2 dataset: test arm a events / b non-events, reference c / d."""
    y = np.r_[np.ones(a), np.zeros(b), np.ones(c), np.zeros(d)]
    trt = np.r_[np.ones(a + b, int), np.zeros(c + d, int)]
    return Dataset(
        treatment=trt,
        treatment_levels=("ref", "test"),
        subgroups={},
        responses={"y": y},
    )


class TestDataset:
    def test_validates_treatment_codes(self):
        with pytest.raises(SchemaError, match="codes"):
            Dataset([0, 2], ("a", "b"), {}, {"y": [1.0, 2.0]})

    def test_requires_both_arms(self):
        with pytest.raises(SchemaError, match="both treatment levels"):
            Dataset([1, 1], ("a", "b"), {}, {"y": [1.0, 2.0]})

    def test_validates_flag_values(self):
        with pytest.raises(SchemaError, match="flags"):
            Dataset([0, 1], ("a", "b"), {"s": [1.0, 2.0]}, {"y": [1.0, 2.0]})

    def test_flags_allow_missing(self):
        d = Dataset([0, 1, 1], ("a", "b"), {"s": [1.0, np.nan, 0.0]}, {"y": [1, 2, 3]})
        assert list(d.subset_mask("s")) == [True, False, False]

    def test_unknown_subgroup(self):
        d = gaussian_dataset([1, 1], [3, 5])
        with pytest.raises(SchemaError, match="unknown subgroup"):
            d.subset_mask("nope")

    def test_arrays_read_only(self):
        d = gaussian_dataset([1, 1], [3, 5])
        with pytest.raises(ValueError):
            d.responses["y"][0] = 9.0
        with pytest.raises(ValueError):
            d.treatment[0] = 1


class TestFitOls:
    def test_hand_means(self):
        d = gaussian_dataset([1, 1], [3, 5])
        m = fit_ols(d, GAUSS)
        assert m.coefficient == pytest.approx(3.0)
        assert m.residual_df == 2
        assert m.n_used == 4

    def test_determinism_bit_for_bit(self):
        rng = np.random.default_rng(0)
        d = gaussian_dataset(rng.normal(size=8), rng.normal(size=9))
        a, b = fit_ols(d, GAUSS), fit_ols(d, GAUSS)
        assert a.coefficient == b.coefficient
        assert np.array_equal(a.score_contributions, b.score_contributions)

    def test_matches_mean_difference_oracle(self):
        rng = np.random.default_rng(1)
        y0, y1 = rng.normal(size=11), rng.normal(loc=0.7, size=9)
        m = fit_ols(gaussian_dataset(y0, y1), GAUSS)
        assert m.coefficient == pytest.approx(y1.mean() - y0.mean(), abs=1e-10)

    def test_pooled_standard_error(self):
        rng = np.random.default_rng(2)
        y0, y1 = rng.normal(size=7), rng.normal(size=13)
        m = fit_ols(gaussian_dataset(y0, y1), GAUSS)
        sp2 = ((y0 - y0.mean()) @ (y0 - y0.mean()) + (y1 - y1.mean()) @ (y1 - y1.mean())) / (
            y0.size + y1.size - 2
        )
        want = math.sqrt(sp2 * (1 / y0.size + 1 / y1.size))
        assert m.standard_error == pytest.approx(want, abs=1e-10)

    def test_scores_sum_to_zero(self):
        rng = np.random.default_rng(3)
        d = gaussian_dataset(rng.normal(size=10), rng.normal(size=10))
        m = fit_ols(d, GAUSS)
        assert abs(m.score_contributions.sum()) <= 1e-6 * d.n

    def test_subset_restriction_and_zero_rows(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=12)
        flags = np.r_[np.ones(8), np.zeros(4)]
        d = Dataset(
            treatment=np.tile([0, 1], 6),
            treatment_levels=("c", "t"),
            subgroups={"s": flags},
            responses={"y": y},
        )
        m = fit_ols(d, ModelSpec(endpoint="y", subset="s"))
        assert m.n_used == 8
        assert np.all(m.score_contributions[8:] == 0.0)
        inside = y[:8]
        trt = np.tile([0, 1], 4)
        assert m.coefficient == pytest.approx(
            inside[trt == 1].mean() - inside[trt == 0].mean(), abs=1e-12
        )

    def test_missing_responses_excluded(self):
        y = np.array([1.0, np.nan, 2.0, 4.0, 6.0, np.nan, 5.0])
        d = Dataset(
            treatment=[0, 0, 0, 1, 1, 1, 1],
            treatment_levels=("c", "t"),
            subgroups={},
            responses={"y": y},
        )
        m = fit_ols(d, GAUSS)
        assert m.n_used == 5
        assert m.coefficient == pytest.approx(5.0 - 1.5, abs=1e-12)
        assert m.score_contributions[1] == 0.0 and m.score_contributions[5] == 0.0

    def test_missingness_can_starve_an_arm(self):
        y = np.array([1.0, np.nan, np.nan, 4.0, 6.0, 5.0])
        d = Dataset(
            treatment=[0, 0, 0, 1, 1, 1],
            treatment_levels=("c", "t"),
            subgroups={},
            responses={"y": y},
        )
        with pytest.raises(DegenerateSubset):
            fit_ols(d, GAUSS)

    def test_degenerate_arm(self):
        d = gaussian_dataset([1.0, 2.0, 3.0], [4.0])
        with pytest.raises(DegenerateSubset):
            fit_ols(d, GAUSS)

    def test_zero_variance(self):
        d = gaussian_dataset([2.0, 2.0], [5.0, 5.0])
        with pytest.raises(ZeroVariance):
            fit_ols(d, GAUSS)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=14)
        trt = rng.permutation(np.r_[np.zeros(7, int), np.ones(7, int)])
        d = Dataset(trt, ("c", "t"), {}, {"y": y})
        perm = rng.permutation(14)
        dp = Dataset(trt[perm], ("c", "t"), {}, {"y": y[perm]})
        a, b = fit_ols(d, GAUSS), fit_ols(dp, GAUSS)
        assert b.coefficient == pytest.approx(a.coefficient, abs=1e-12)
        assert b.standard_error == pytest.approx(a.standard_error, abs=1e-12)
        np.testing.assert_allclose(
            b.score_contributions, a.score_contributions[perm], atol=1e-12
        )

    def test_statistic_property(self):
        d = gaussian_dataset([1, 1, 2], [3, 5, 4])
        m = fit_ols(d, GAUSS)
        assert m.statistic == pytest.approx(m.coefficient / m.standard_error)


class TestFitLogit:
    def test_averroes_global_ischemic_odds_ratio(self):
        # events/sizes: 43 of 2807 on the test drug, 97 of 2789 on comparator,
        # effect coded comparator minus test drug
        d = table_dataset(a=97, b=2789 - 97, c=43, d=2807 - 43)
        m = fit_logit(d, LOGIT)
        assert math.exp(m.coefficient) == pytest.approx(2.32, abs=0.005)

    def test_no_effect(self):
        d = table_dataset(a=5, b=15, c=10, d=30)
        m = fit_logit(d, LOGIT)
        assert m.coefficient == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_cross_product(self):
        rng = np.random.default_rng(6)
        a, b, c, d = rng.integers(1, 40, size=4)
        m = fit_logit(table_dataset(a, b, c, d), LOGIT)
        assert math.exp(m.coefficient) == pytest.approx((a * d) / (b * c), rel=1e-12)
        want_se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
        assert m.standard_error == pytest.approx(want_se, abs=1e-12)

    def test_averroes_models_are_the_exact_closed_form(self):
        # each model's table: a/b events/non-events on the test arm, c/d on
        # the reference arm; the MLE is log(ad/bc) with Woolf's SE, and a
        # subject's influence is 1/a, -1/b, -1/c or 1/d by its cell
        table = load_averroes()
        data = expand(table)
        test = data.treatment == 1
        for subset in ("all",) + table.subgroups:
            for endpoint in table.all_endpoints:
                spec = ModelSpec(endpoint=endpoint, subset=subset, family="binomial-logit")
                m = fit_logit(data, spec)
                y, used = data.responses[endpoint], data.subset_mask(subset)
                cells = [used & (test == t) & (y == e) for t in (1, 0) for e in (1.0, 0.0)]
                a, b, c, d = (int(cell.sum()) for cell in cells)
                assert m.coefficient == pytest.approx(math.log(a * d / (b * c)), abs=1e-12)
                woolf = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
                assert m.standard_error == pytest.approx(woolf, abs=1e-12)
                want = np.select(cells, [1 / a, -1 / b, -1 / c, 1 / d], 0.0)
                np.testing.assert_allclose(m.score_contributions, want, rtol=0, atol=1e-12)

    def test_scores_sum_to_zero(self):
        m = fit_logit(table_dataset(7, 13, 4, 16), LOGIT)
        assert abs(m.score_contributions.sum()) <= 1e-12 * 40

    def test_separation_all_events(self):
        with pytest.raises(Separation):
            fit_logit(table_dataset(a=10, b=0, c=5, d=5), LOGIT)

    def test_separation_no_events(self):
        with pytest.raises(Separation):
            fit_logit(table_dataset(a=0, b=10, c=5, d=5), LOGIT)

    def test_empty_arm(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        d = Dataset([0, 0, 0, 0, 1], ("r", "t"), {}, {"y": np.r_[y, 1.0]})
        # test arm all-1 is separation, not degenerate subset
        with pytest.raises(Separation):
            fit_logit(d, LOGIT)
        # an empty arm outranks a separated one: subgroup s holds only the
        # test subjects, all of them events
        d = Dataset([0, 0, 1, 1], ("r", "t"), {"s": [0, 0, 1, 1]}, {"y": [0.0, 1.0, 1.0, 1.0]})
        with pytest.raises(DegenerateSubset, match="empty treatment arm"):
            fit_logit(d, ModelSpec(endpoint="y", subset="s", family="binomial-logit"))

    def test_rejects_non_binary(self):
        d = gaussian_dataset([1.0, 0.5], [0.0, 1.0])
        with pytest.raises(SchemaError, match="binary"):
            fit_logit(d, ModelSpec(endpoint="y", family="binomial-logit"))

    def test_family_dispatch(self):
        d = table_dataset(7, 13, 4, 16)
        assert fit(d, LOGIT).coefficient == fit_logit(d, LOGIT).coefficient
        g = gaussian_dataset([1, 2, 1], [3, 4, 5])
        assert fit(g, GAUSS).coefficient == fit_ols(g, GAUSS).coefficient

    def test_wrong_family_rejected(self):
        d = table_dataset(7, 13, 4, 16)
        with pytest.raises(SchemaError):
            fit_ols(d, LOGIT)
        with pytest.raises(SchemaError):
            fit_logit(d, GAUSS)


class TestModelSpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(SchemaError, match="family"):
            ModelSpec(endpoint="y", family="poisson")

    def test_label(self):
        assert ModelSpec(endpoint="y", subset="s").label == "s:y"

    def test_unknown_endpoint(self):
        d = gaussian_dataset([1, 1], [3, 5])
        with pytest.raises(SchemaError, match="endpoint"):
            fit_ols(d, ModelSpec(endpoint="z"))


class TestReadDataset:
    CSV = (
        "id,treatment,s1,y1,y2\n"
        "1,ctrl,1,0.5,1\n"
        "2,trt,0,1.5,0\n"
        "3,trt,1,,1\n"
        "4,ctrl,,2.0,0\n"
    )

    def test_round_trip(self):
        d = read_dataset(io.StringIO(self.CSV), subgroup_columns=("s1",))
        assert d.n == 4
        assert d.treatment_levels == ("ctrl", "trt")
        assert list(d.treatment) == [0, 1, 1, 0]
        np.testing.assert_array_equal(d.subgroups["s1"][:2], [1.0, 0.0])
        assert np.isnan(d.subgroups["s1"][3])
        assert np.isnan(d.responses["y1"][2])
        assert set(d.responses) == {"y1", "y2"}

    def test_reference_level_override(self):
        d = read_dataset(io.StringIO(self.CSV), subgroup_columns=("s1",), reference_level="trt")
        assert d.treatment_levels == ("trt", "ctrl")
        assert list(d.treatment) == [1, 0, 0, 1]

    def test_rows_sorted_by_id(self):
        shuffled = (
            "id,treatment,y\n"
            "3,b,30\n"
            "1,a,10\n"
            "2,b,20\n"
        )
        d = read_dataset(io.StringIO(shuffled))
        np.testing.assert_array_equal(d.responses["y"], [10.0, 20.0, 30.0])

    def test_duplicate_ids(self):
        bad = "id,treatment,y\n1,a,1\n1,b,2\n"
        with pytest.raises(SchemaError, match="duplicate"):
            read_dataset(io.StringIO(bad))

    def test_non_contiguous_ids(self):
        bad = "id,treatment,y\n1,a,1\n5,b,2\n"
        with pytest.raises(SchemaError, match="contiguous"):
            read_dataset(io.StringIO(bad))

    def test_missing_required_column(self):
        bad = "subject,treatment,y\n1,a,1\n2,b,2\n"
        with pytest.raises(SchemaError, match="id"):
            read_dataset(io.StringIO(bad))

    def test_non_numeric_cell(self):
        bad = "id,treatment,y\n1,a,1\n2,b,x\n"
        with pytest.raises(SchemaError, match="non-numeric"):
            read_dataset(io.StringIO(bad))

    def test_unknown_subgroup_column(self):
        with pytest.raises(SchemaError, match="subgroup columns"):
            read_dataset(io.StringIO(self.CSV), subgroup_columns=("s9",))

    def test_three_levels_rejected(self):
        bad = "id,treatment,y\n1,a,1\n2,b,2\n3,c,3\n"
        with pytest.raises(SchemaError, match="2 treatment levels"):
            read_dataset(io.StringIO(bad))


def pooled_rss(y0, y1):
    """Pooled residual sum of squares, formed as ``fit_ols`` forms it: each
    arm's mean sums the whole subject axis with the other arm zeroed."""
    y = np.r_[y0, y1]
    test = np.r_[np.zeros(len(y0), bool), np.ones(len(y1), bool)]
    mean1 = np.where(test, y, 0.0).sum() / len(y1)
    mean0 = np.where(test, 0.0, y).sum() / len(y0)
    resid = y - np.where(test, mean1, mean0)
    return (resid * resid).sum()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ols_coefficient_matches_oracle_fuzzed(data):
    n0 = data.draw(st.integers(2, 15))
    n1 = data.draw(st.integers(2, 15))
    vals = data.draw(
        st.lists(
            st.floats(-50, 50, allow_nan=False),
            min_size=n0 + n1,
            max_size=n0 + n1,
        )
    )
    y = np.asarray(vals)
    y0, y1 = y[:n0], y[n0:]
    if np.ptp(y0) == 0 and np.ptp(y1) == 0:
        return
    if pooled_rss(y0, y1) == 0.0:
        # residuals below ~1e-162 square to 0.0: no variance to estimate
        with pytest.raises(ZeroVariance):
            fit_ols(gaussian_dataset(y0, y1), GAUSS)
        return
    m = fit_ols(gaussian_dataset(y0, y1), GAUSS)
    assert m.coefficient == pytest.approx(y1.mean() - y0.mean(), abs=1e-9)
    assert abs(m.score_contributions.sum()) <= 1e-6 * (n0 + n1)


def test_ols_residuals_that_underflow_raise_zero_variance():
    # residuals of +-2e-253 square to 0.0, so the pooled variance is zero
    y0, y1 = [0.0, 0.0], [0.0, 3.99e-253]
    assert np.ptp(y1) > 0.0 and pooled_rss(y0, y1) == 0.0
    with pytest.raises(ZeroVariance):
        fit_ols(gaussian_dataset(y0, y1), GAUSS)


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(1, 60),
    b=st.integers(1, 60),
    c=st.integers(1, 60),
    d=st.integers(1, 60),
)
def test_logit_matches_table_oracle_fuzzed(a, b, c, d):
    m = fit_logit(table_dataset(a, b, c, d), LOGIT)
    assert m.coefficient == pytest.approx(math.log((a * d) / (b * c)), abs=1e-12)
    assert m.standard_error == pytest.approx(
        math.sqrt(1 / a + 1 / b + 1 / c + 1 / d), abs=1e-12
    )
    assert abs(m.score_contributions.sum()) <= 1e-12 * (a + b + c + d)
