"""Tests for the Monte Carlo simulation harness."""

import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from mmminfer import mvdist
from mmminfer.errors import IncompatibleMethod, SchemaError
from mmminfer.simulate import (
    FAMILIES,
    METHODS,
    Scenario,
    SimResult,
    generate,
    load_scenarios,
    run,
)

MMM_METHODS = ("mmm", "mmm.dfmax", "mmm.dfmin", "mmm.dfind")


def small(**overrides) -> Scenario:
    base = dict(total_n=20, replications=50, seed=7)
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_defaults_and_layout(self):
        s = Scenario(total_n=20)
        assert s.arm_size == 10
        assert s.target_per_arm == 5
        assert s.endpoint_names == ("y1",)
        assert s.subsets == ("all", "S1")
        assert s.family == "targeted-or-total"
        labels = [spec.label for spec in s.model_specs]
        assert labels == ["all:y1", "S1:y1"]

    def test_half_up_rounding(self):
        # 0.55 of 10 slots rounds 5.5 up to 6; banker's rounding would give 5.
        assert Scenario(total_n=20, prop_target=0.55).target_per_arm == 6
        assert Scenario(total_n=20, prop_target=0.45).target_per_arm == 5
        assert Scenario(total_n=20, prop_target=0.8).target_per_arm == 8

    def test_subsets_by_family_and_overlap(self):
        assert Scenario(total_n=40, family="any").subsets == ("all", "S1", "S2")
        assert Scenario(total_n=40, overlap=True).subsets == ("all", "S1", "S1b")
        assert Scenario(total_n=40, overlap=True, family="any").subsets == (
            "all",
            "S1",
            "S1b",
            "S2",
            "S2b",
        )

    def test_model_specs_subsets_outer_endpoints_inner(self):
        s = Scenario(total_n=40, endpoints=2, rho=0.8, family="any")
        labels = [spec.label for spec in s.model_specs]
        assert labels == [
            "all:y1",
            "all:y2",
            "S1:y1",
            "S1:y2",
            "S2:y1",
            "S2:y2",
        ]

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(total_n=21), "even"),
            (dict(total_n=6), "at least 8"),
            (dict(total_n=20, prop_target=0.0), "prop_target"),
            (dict(total_n=20, prop_target=1.0), "prop_target"),
            (dict(total_n=20, sd=0.0), "sd"),
            (dict(total_n=20, delta=-1.0), "delta"),
            (dict(total_n=20, endpoints=3), "endpoints"),
            (dict(total_n=20, rho=1.0), "rho"),
            (dict(total_n=20, family="all-of-them"), "family"),
            (dict(total_n=20, replications=0), "replications"),
            (dict(total_n=20, prop_target=0.9), "below"),
        ],
    )
    def test_validation(self, overrides, fragment):
        with pytest.raises(SchemaError, match=fragment):
            Scenario(**overrides)

    def test_dict_round_trip(self):
        s = Scenario(
            total_n=50,
            sd=2.0,
            prop_target=0.6,
            delta=1.5,
            endpoints=2,
            rho=0.8,
            family="any",
            replications=123,
            seed=99,
        )
        assert Scenario.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SchemaError, match="n_total"):
            Scenario.from_dict({"total_n": 20, "n_total": 20})

    @given(
        half_n=st.integers(min_value=6, max_value=40),
        prop=st.floats(min_value=0.3, max_value=0.7),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_layout_properties(self, half_n, prop):
        s = Scenario(total_n=2 * half_n, prop_target=prop)
        assert s.target_per_arm == math.floor(prop * half_n + 0.5)
        assert 2 <= s.target_per_arm <= half_n - 2
        assert Scenario.from_dict(s.to_dict()) == s


class TestGenerate:
    def test_fixed_group_counts(self):
        data = generate(small(), 0)
        assert data.n == 20
        assert (data.treatment == 0).sum() == 10
        s1 = data.subgroups["S1"]
        assert s1[data.treatment == 0].sum() == 5
        assert s1[data.treatment == 1].sum() == 5
        # S1 fills the leading slots of each arm, S2 is its complement.
        assert s1[:5].all() and not s1[5:10].any()
        np.testing.assert_array_equal(data.subgroups["S2"], 1.0 - s1)
        assert data.treatment_levels == ("control", "treatment")
        assert set(data.responses) == {"y1"}

    def test_deterministic_in_seed_and_index(self):
        a = generate(small(), 3)
        b = generate(small(), 3)
        c = generate(small(), 4)
        np.testing.assert_array_equal(a.responses["y1"], b.responses["y1"])
        assert not np.array_equal(a.responses["y1"], c.responses["y1"])
        d = generate(small(seed=8), 3)
        assert not np.array_equal(a.responses["y1"], d.responses["y1"])

    def test_delta_shifts_only_treated_target(self):
        s = Scenario(total_n=4000, sd=1.0, delta=3.0, seed=5)
        data = generate(s, 0)
        affected = (data.treatment == 1) & (data.subgroups["S1"] == 1.0)
        y = data.responses["y1"]
        se = 1.0 / math.sqrt(affected.sum())
        assert y[affected].mean() == pytest.approx(3.0, abs=5 * se)
        assert y[~affected].mean() == pytest.approx(0.0, abs=5 * se)

    def test_null_grand_mean_near_zero(self):
        s = Scenario(total_n=10_000, sd=5.0, seed=11)
        y = generate(s, 0).responses["y1"]
        assert abs(y.mean()) < 5 * 5.0 / math.sqrt(10_000)

    def test_two_endpoints_hit_target_correlation(self):
        s = Scenario(total_n=20_000, endpoints=2, rho=0.8, seed=13)
        data = generate(s, 0)
        assert set(data.responses) == {"y1", "y2"}
        r = np.corrcoef(data.responses["y1"], data.responses["y2"])[0, 1]
        assert r == pytest.approx(0.8, abs=0.02)
        assert data.responses["y1"].std() == pytest.approx(5.0, rel=0.05)
        assert data.responses["y2"].std() == pytest.approx(5.0, rel=0.05)

    def test_endpoint_shift_applies_to_both(self):
        s = Scenario(total_n=8000, endpoints=2, rho=0.8, sd=1.0, delta=2.0, seed=17)
        data = generate(s, 0)
        affected = (data.treatment == 1) & (data.subgroups["S1"] == 1.0)
        se = 1.0 / math.sqrt(affected.sum())
        for name in ("y1", "y2"):
            assert data.responses[name][affected].mean() == pytest.approx(
                2.0, abs=5 * se
            )

    def test_overlap_membership_is_bernoulli(self):
        s = Scenario(total_n=100, prop_target=0.7, overlap=True, seed=19)
        flags = [generate(s, r).subgroups["S1b"] for r in range(200)]
        for s1b in flags:
            by_arm = s1b.reshape(2, 50).sum(axis=1)
            assert (by_arm >= 2).all() and (by_arm <= 48).all()
        rate = np.mean(flags)
        assert rate == pytest.approx(0.7, abs=0.02)
        data = generate(s, 0)
        np.testing.assert_array_equal(
            data.subgroups["S2b"], 1.0 - data.subgroups["S1b"]
        )

    def test_overlap_redraw_guard_on_tiny_design(self):
        # Arm size 4 forces exactly two members per arm, so most draws are
        # redrawn; the guard must still terminate with a valid split.
        s = Scenario(total_n=8, overlap=True, seed=23)
        for r in range(25):
            s1b = generate(s, r).subgroups["S1b"]
            assert list(s1b.reshape(2, 4).sum(axis=1)) == [2.0, 2.0]


class TestRunValidation:
    def test_unknown_method(self):
        with pytest.raises(SchemaError, match="unknown methods"):
            run(small(), methods=["mmm", "holm"])

    def test_empty_method_list(self):
        with pytest.raises(SchemaError, match="at least one"):
            run(small(), methods=[])

    def test_cellmeans_incompatible_with_overlap(self):
        with pytest.raises(IncompatibleMethod, match="cellmeans"):
            run(small(overlap=True), methods=["cellmeans"])

    def test_cellmeans_incompatible_with_two_endpoints(self):
        with pytest.raises(IncompatibleMethod, match="cellmeans"):
            run(small(endpoints=2, rho=0.5), methods=["cellmeans"])

    def test_default_roster_drops_cellmeans_when_inapplicable(self):
        assert run(small(replications=2, overlap=True)).methods == (
            "noadjust",
            "bonferroni",
        ) + MMM_METHODS
        assert run(small(replications=2)).methods == METHODS

    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            run(small(), alpha=0.0)

    def test_rectangles_use_the_callers_seed_and_shifts(self, monkeypatch):
        rect = mvdist.mv_rect_prob
        seen = []

        def spy(corr, lower, upper, df=None, settings=mvdist.QuadratureSettings()):
            seen.append(settings)
            return rect(corr, lower, upper, df=df, settings=settings)

        # every module's binding, wherever the decision is made
        for name, module in list(sys.modules.items()):
            if name.startswith("mmminfer") and getattr(module, "mv_rect_prob", None) is rect:
                monkeypatch.setattr(module, "mv_rect_prob", spy)
        custom = mvdist.QuadratureSettings(
            target_abs_error=5e-4, seed=7, shifts=4, first_round_samples=64
        )
        scenario = small(total_n=50, prop_target=0.6, family="any", overlap=True, replications=40)
        run(scenario, methods=["mmm", "mmm.dfmin"], settings=custom)
        assert seen
        assert {(s.seed, s.shifts) for s in seen} == {(7, 4)}


class TestSimResult:
    def test_rejections_read_only(self):
        result = SimResult(scenario=small(), rejections={"mmm": 10})
        with pytest.raises(TypeError):
            result.rejections["mmm"] = 0

    def test_counts_must_fit_replications(self):
        with pytest.raises(ValueError, match="mmm"):
            SimResult(scenario=small(), rejections={"mmm": 51})
        with pytest.raises(ValueError, match="mmm"):
            SimResult(scenario=small(), rejections={"mmm": -1})

    def test_proportions(self):
        result = SimResult(scenario=small(), rejections={"mmm": 10, "bonferroni": 5})
        assert result.methods == ("mmm", "bonferroni")
        assert result.proportion("mmm") == pytest.approx(0.2)
        assert result.proportions == {"mmm": 0.2, "bonferroni": 0.1}


class TestLoadScenarios:
    def test_reads_list_and_wrapped_forms(self, tmp_path):
        entries = [{"total_n": 20}, {"total_n": 50, "family": "any"}]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(entries))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"scenarios": entries}))
        for path in (bare, wrapped):
            loaded = load_scenarios(path)
            assert [s.total_n for s in loaded] == [20, 50]
            assert loaded[1].family == "any"

    def test_reads_file_object(self):
        loaded = load_scenarios(io.StringIO('[{"total_n": 20, "delta": 1.0}]'))
        assert loaded == [Scenario(total_n=20, delta=1.0)]

    @pytest.mark.parametrize(
        "payload",
        ["{}", "[]", '{"scenarios": {}}', "[1, 2]", '[{"total_n": 20, "bogus": 1}]'],
    )
    def test_rejects_malformed_payloads(self, payload):
        with pytest.raises(SchemaError):
            load_scenarios(io.StringIO(payload))


@pytest.fixture(scope="module")
def null_tt():
    """Null run, small samples: the regime where the methods differ most."""
    return run(Scenario(total_n=20, replications=1500, seed=101))


@pytest.fixture(scope="module")
def null_any():
    # Same seed and replication count as null_tt, so replicate r sees the
    # same data in both runs and family comparisons pair up exactly.
    return run(Scenario(total_n=20, family="any", replications=1500, seed=101))


@pytest.mark.slow
class TestNullOrderings:
    """Rejection-count orderings that hold replicate by replicate."""

    def test_counts_within_range(self, null_tt):
        assert null_tt.methods == METHODS
        assert all(0 <= k <= 1500 for k in null_tt.rejections.values())
        assert null_tt.wall_time > 0.0

    def test_noadjust_dominates_bonferroni(self, null_tt, null_any):
        for result in (null_tt, null_any):
            assert result.rejections["noadjust"] >= result.rejections["bonferroni"]

    def test_mmm_normal_dominates_dfind_dominates_bonferroni(self, null_tt, null_any):
        # Per dataset: the normal-copula statistics are dominated by the t
        # statistics, and the joint normal p-value is below the Bonferroni
        # bound evaluated at the same box edge.
        for result in (null_tt, null_any):
            counts = result.rejections
            assert counts["mmm"] >= counts["mmm.dfind"] >= counts["bonferroni"]

    def test_df_bounds_ordered(self, null_tt, null_any):
        for result in (null_tt, null_any):
            counts = result.rejections
            assert counts["mmm"] >= counts["mmm.dfmax"] >= counts["mmm.dfmin"]

    def test_any_family_rejects_at_least_as_often(self, null_tt, null_any):
        # Paired data: the "any" family tests a superset of hypotheses at
        # unchanged marginal thresholds, so every noadjust rejection in the
        # smaller family carries over.
        assert null_any.rejections["noadjust"] >= null_tt.rejections["noadjust"]

    def test_rates_near_published_regime(self, null_tt):
        # Loose brackets (about 5 Monte Carlo standard errors at 1,500
        # replicates) around the published N=20 rates; the acceptance suite
        # pins them tightly at 10,000 replicates.
        assert null_tt.proportion("noadjust") == pytest.approx(0.086, abs=0.030)
        assert null_tt.proportion("bonferroni") == pytest.approx(0.046, abs=0.022)
        assert null_tt.proportion("cellmeans") == pytest.approx(0.050, abs=0.023)
        assert null_tt.proportion("mmm") == pytest.approx(0.089, abs=0.030)
        assert null_tt.proportion("mmm.dfmin") == pytest.approx(0.044, abs=0.022)

    def test_run_is_reproducible(self):
        scenario = Scenario(total_n=20, replications=60, seed=31)
        first = run(scenario)
        second = run(scenario)
        assert dict(first.rejections) == dict(second.rejections)


@pytest.mark.slow
class TestPower:
    def test_power_increases_with_delta(self):
        # Shared seed couples the noise across deltas, so the comparison is
        # paired and a small margin suffices at 400 replicates.
        powers = [
            run(
                Scenario(total_n=50, sd=2.0, delta=delta, replications=400, seed=41),
                methods=["bonferroni", "mmm"],
            ).proportions
            for delta in (0.0, 1.0, 2.5)
        ]
        for method in ("bonferroni", "mmm"):
            assert powers[0][method] < powers[1][method] + 0.015
            assert powers[1][method] < powers[2][method] + 0.015
            assert powers[2][method] > powers[0][method] + 0.2

    def test_overwhelming_effect_is_always_found(self):
        result = run(
            Scenario(total_n=100, sd=2.0, delta=10.0, replications=100, seed=43)
        )
        assert all(result.proportion(m) == 1.0 for m in result.methods)

    def test_power_counts_only_relevant_hypotheses(self):
        # Under a targeted effect the complement hypothesis stays true, so
        # rejecting it must not count as power.  On paired data the "any"
        # family then sees the same relevant statistics as targeted-or-total
        # but pays for a wider box (and a larger Bonferroni divisor), so its
        # count can only be lower.
        kwargs = dict(total_n=50, sd=2.0, delta=1.5, replications=300, seed=47)
        tt = run(Scenario(**kwargs), methods=["bonferroni", "mmm"])
        any_family = run(
            Scenario(family="any", **kwargs), methods=["bonferroni", "mmm"]
        )
        for method in ("bonferroni", "mmm"):
            assert any_family.rejections[method] <= tt.rejections[method]
        assert tt.proportion("mmm") > 0.2


@pytest.mark.slow
class TestVariantScenarios:
    def test_overlap_runs_all_methods(self):
        result = run(Scenario(total_n=40, overlap=True, replications=150, seed=53))
        assert result.methods == ("noadjust", "bonferroni") + MMM_METHODS
        assert result.rejections["mmm"] >= result.rejections["mmm.dfind"]
        assert result.rejections["mmm.dfind"] >= result.rejections["bonferroni"]

    def test_two_endpoint_family_runs(self):
        result = run(
            Scenario(total_n=40, endpoints=2, rho=0.8, replications=150, seed=59)
        )
        assert result.methods == ("noadjust", "bonferroni") + MMM_METHODS
        assert result.rejections["mmm"] >= result.rejections["mmm.dfind"]
        assert result.rejections["mmm.dfind"] >= result.rejections["bonferroni"]

    def test_overlap_any_family_runs(self):
        result = run(
            Scenario(
                total_n=40, overlap=True, family="any", replications=80, seed=61
            ),
            methods=["bonferroni", "mmm", "mmm.dfind"],
        )
        assert result.rejections["mmm"] >= result.rejections["mmm.dfind"]
        assert result.rejections["mmm.dfind"] >= result.rejections["bonferroni"]
