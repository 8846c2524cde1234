"""Tests for the Monte Carlo simulation harness."""

import io
import json
import math
import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from scipy.special import stdtr

from mmminfer import mmm, mvdist, simulate
from mmminfer.contrasts import default_contrasts
from mmminfer.errors import IncompatibleMethod, SchemaError
from mmminfer.linmodels import fit_ols
from mmminfer.mmm import joint_scale, max_type_rejects, score_correlation, stack
from mmminfer.mvdist import equicoordinate_quantile
from mmminfer.simulate import (
    DECISION_STAGES,
    FAMILIES,
    METHODS,
    SIM_SETTINGS,
    Scenario,
    SimResult,
    generate,
    load_scenarios,
    run,
)

MMM_METHODS = ("mmm", "mmm.dfmax", "mmm.dfmin", "mmm.dfind")
MMM_MODES = {"mmm": "normal", "mmm.dfmax": "dfmax", "mmm.dfmin": "dfmin", "mmm.dfind": "dfind"}


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
            (dict(total_n=20, replications=2**32 + 1), "replications"),
            (dict(total_n=20, replications=1.5), "replications"),
        ],
    )
    def test_validation(self, overrides, fragment):
        with pytest.raises(SchemaError, match=fragment):
            Scenario(**overrides)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True, "7"], ids=repr)
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(SchemaError, match="seed"):
            Scenario(total_n=20, seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("overlap", "false"),
            ("overlap", 1),
            ("endpoints", 1.0),
            ("total_n", 20.0),
            ("total_n", "20"),
            ("delta", True),
            ("sd", "5"),
            ("prop_target", None),
            ("rho", False),
        ],
        ids=repr,
    )
    def test_fields_of_the_wrong_type_are_rejected(self, field, value):
        fields = dict(total_n=20)
        fields[field] = value
        with pytest.raises(SchemaError, match=field):
            Scenario(**fields)

    def test_integer_seeds_and_replication_bound_accepted(self):
        s = Scenario(total_n=20, seed=np.int64(5), replications=np.int64(2**32))
        assert (s.seed, s.replications) == (5, 2**32)
        assert type(s.seed) is int and type(s.replications) is int
        assert Scenario(total_n=20, seed=2**130 + 17).seed == 2**130 + 17

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


def default_rng_draw(scenario, r):
    """Overlap flags and responses of replicate r, drawn from its own
    ``np.random.default_rng((seed, r))`` one replicate at a time."""
    rng = np.random.default_rng((scenario.seed, r))
    per_arm, n = scenario.arm_size, scenario.total_n
    s1b = None
    if scenario.overlap:
        while True:
            s1b = (rng.random(n) < scenario.prop_target).astype(float)
            by_arm = s1b.reshape(2, per_arm).sum(axis=1)
            if (by_arm >= 2).all() and (by_arm <= per_arm - 2).all():
                break
    z = rng.standard_normal((scenario.endpoints, n))
    if scenario.endpoints == 2:
        z[1] = scenario.rho * z[0] + math.sqrt(1.0 - scenario.rho**2) * z[1]
    k = scenario.target_per_arm
    affected = np.r_[np.zeros(per_arm), np.ones(k), np.zeros(per_arm - k)] == 1.0
    return s1b, scenario.sd * z + scenario.delta * affected


class TestStreams:
    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 17, np.int64(5)], ids=repr
    )
    def test_streams_match_default_rng(self, seed):
        seen = []
        for start, stop in ((0, 2), (2**31, 2**31 + 1), (2**32 - 1, 2**32)):
            for r, rng in zip(range(start, stop), simulate._streams(seed, start, stop)):
                ref = np.random.default_rng((seed, r))
                assert rng.bit_generator.state == ref.bit_generator.state
                # the overlap order: flags, then noise
                np.testing.assert_array_equal(rng.random(50), ref.random(50))
                np.testing.assert_array_equal(
                    rng.standard_normal((2, 50)), ref.standard_normal((2, 50))
                )
                seen.append(r)
        assert seen == [0, 1, 2**31, 2**32 - 1]

    @pytest.mark.parametrize(
        "fields",
        [
            dict(total_n=8, overlap=True, family="any"),
            dict(total_n=50, prop_target=0.6, overlap=True, endpoints=2, rho=0.8, delta=2.0),
        ],
        ids=["overlap-redraws", "overlap-two-endpoints"],
    )
    def test_generate_matches_default_rng_draws(self, fields):
        scenario = Scenario(seed=29, **fields)
        for r in range(12):
            s1b, y = default_rng_draw(scenario, r)
            data = generate(scenario, r)
            np.testing.assert_array_equal(data.subgroups["S1b"], s1b)
            np.testing.assert_array_equal(
                [data.responses[e] for e in scenario.endpoint_names], y
            )


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

    def test_cellmeans_critical_value_computed_once_per_design(self, monkeypatch):
        calls = []
        quantile = simulate.equicoordinate_quantile

        def spy(*args, **kwargs):
            calls.append(args)
            return quantile(*args, **kwargs)

        monkeypatch.setattr(simulate, "equicoordinate_quantile", spy)
        base = small(replications=30)
        other = mvdist.QuadratureSettings(target_abs_error=1e-4, shifts=8)
        # (scenario, alpha, settings, quantile calls so far): a new seed or
        # effect size reuses the design's critical value, anything the
        # critical value reads computes it again
        runs = [
            (base, 0.05, SIM_SETTINGS, 1),
            (replace(base, seed=8), 0.05, SIM_SETTINGS, 1),
            (replace(base, delta=2.0), 0.05, SIM_SETTINGS, 1),
            (base, 0.1, SIM_SETTINGS, 2),
            (base, 0.05, other, 3),
            (replace(base, total_n=24), 0.05, SIM_SETTINGS, 4),
            (replace(base, family="any"), 0.05, SIM_SETTINGS, 5),
        ]
        simulate._cellmeans_fixture.cache_clear()
        cached = []
        for scenario, alpha, settings, total in runs:
            result = run(scenario, ["cellmeans"], alpha=alpha, settings=settings)
            cached.append(dict(result.rejections))
            assert len(calls) == total
        calls.clear()
        monkeypatch.setattr(
            simulate, "_cellmeans_fixture", simulate._cellmeans_fixture.__wrapped__
        )
        for (scenario, alpha, settings, _), counts in zip(runs, cached):
            result = run(scenario, ["cellmeans"], alpha=alpha, settings=settings)
            assert dict(result.rejections) == counts
        assert len(calls) == len(runs)

    def test_rectangles_use_the_callers_seed_and_shifts(self, monkeypatch):
        rect = mvdist.mv_rect_prob
        seen = []

        def spy(corr, lower, upper, df=None, settings=mvdist.QuadratureSettings(), **kwargs):
            seen.append(settings)
            return rect(corr, lower, upper, df=df, settings=settings, **kwargs)

        # every module's binding, wherever the decision is made
        for name, module in list(sys.modules.items()):
            if name.startswith("mmminfer") and getattr(module, "mv_rect_prob", None) is rect:
                monkeypatch.setattr(module, "mv_rect_prob", spy)
        custom = mvdist.QuadratureSettings(
            target_abs_error=5e-4, seed=7, shifts=4, first_round_samples=64
        )
        # enough replicates that a decision reaches quadrature past the
        # triplewise bounds
        scenario = small(total_n=50, prop_target=0.6, family="any", overlap=True, replications=300)
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

    def test_standard_error(self):
        result = SimResult(scenario=small(), rejections={"mmm": 10, "bonferroni": 0})
        assert result.standard_error("mmm") == pytest.approx(math.sqrt(0.2 * 0.8 / 50))
        assert result.standard_error("bonferroni") == 0.0


    def test_decision_counts_read_only_and_pickled(self):
        stages = {"mmm": {"first_order": 40, "pairwise": 7, "integrated": 3}}
        result = SimResult(scenario=small(), rejections={"mmm": 10}, mmm_decisions=stages)
        with pytest.raises(TypeError):
            result.mmm_decisions["mmm"]["pairwise"] = 0
        copy = pickle.loads(pickle.dumps(result))
        assert copy.mmm_decisions == stages
        assert copy.rejections == result.rejections


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

    def test_rejects_a_string_for_a_bool(self):
        with pytest.raises(SchemaError, match="overlap"):
            load_scenarios(io.StringIO('[{"total_n": 20, "overlap": "false"}]'))

    @pytest.mark.parametrize("seed", ["-1", "1.5", "null", "true", '"7"'])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(SchemaError, match="seed"):
            load_scenarios(io.StringIO(f'[{{"total_n": 20, "seed": {seed}}}]'))


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


class TestPowerCurves:
    def test_curve_is_the_mean_over_props(self):
        deltas, props = (0, 3), (0.5, 0.6)
        for overlap in (False, True):
            curves = simulate.power_curves(
                total_n=20, sd=5.0, deltas=deltas, props=props, overlap=overlap,
                replications=50, seed=7,
            )
            results = [
                [run(small(sd=5.0, delta=float(d), prop_target=p, overlap=overlap)) for p in props]
                for d in deltas
            ]
            assert set(curves) == set(results[0][0].methods)
            for method, curve in curves.items():
                expected = [np.mean([r.proportion(method) for r in row]) for row in results]
                assert curve.tolist() == pytest.approx(expected, abs=1e-12)


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


def reference_counts(scenario, methods, alpha=0.05, settings=SIM_SETTINGS):
    """Rejection counts and mmm decisions per rung from one replicate at a
    time: generate, fit_ols, stack, joint_scale and max_type_rejects for
    each mmm variant on its own, plus the marginal and
    cell-means rules, written out replicate by replicate."""
    specs = scenario.model_specs
    m = len(specs)
    if "cellmeans" in methods:
        k = scenario.target_per_arm
        cell_counts = np.array([k, k, scenario.arm_size - k, scenario.arm_size - k])
        contrasts = default_contrasts(cell_counts)
        if scenario.family == "targeted-or-total":
            contrasts = contrasts.restrict((0, 2))
        crit = equicoordinate_quantile(
            contrasts.correlation(cell_counts),
            alpha,
            tail="two-sided",
            df=scenario.total_n - 4,
            settings=settings,
        )
        row_subsets = [
            {"target": "S1", "complement": "S2", "total": "all"}[label]
            for label in contrasts.labels
        ]
    counts = dict.fromkeys(methods, 0)
    decisions = {
        name: dict.fromkeys(DECISION_STAGES, 0) for name in MMM_MODES if name in methods
    }
    for r in range(scenario.replications):
        data = generate(scenario, r)
        models = [fit_ols(data, spec) for spec in specs]
        affected = (data.treatment == 1) & (data.subgroups["S1"] == 1.0)
        relevant = {
            s: scenario.delta == 0.0 or bool((data.subset_mask(s) & affected).any())
            for s in ("all", *scenario.subsets)
        }
        live = np.array([relevant[spec.subset] for spec in specs])
        stats = np.array([model.statistic for model in models])
        dfs = np.array([model.residual_df for model in models])
        p = 2.0 * stdtr(dfs[live], -np.abs(stats[live]))
        if "noadjust" in methods:
            counts["noadjust"] += bool((p <= alpha).any())
        if "bonferroni" in methods:
            counts["bonferroni"] += bool((p <= alpha / m).any())
        if "cellmeans" in methods:
            y = data.responses["y1"]
            in_s1 = data.subgroups["S1"] == 1.0
            cells = [
                y[(data.treatment == code) & (in_s1 == target)]
                for target in (True, False)
                for code in (0, 1)
            ]
            means = np.array([cell.mean() for cell in cells])
            rss = sum(((cell - cell.mean()) ** 2).sum() for cell in cells)
            pooled_sd = math.sqrt(rss / (len(y) - 4))
            estimates = contrasts.rows @ means
            ses = pooled_sd * np.sqrt(np.diag(contrasts.gram([len(c) for c in cells])))
            row_live = np.array([relevant[s] for s in row_subsets])
            counts["cellmeans"] += bool(np.abs(estimates / ses)[row_live].max() > crit)
        fit = stack(models)
        for name, mode in MMM_MODES.items():
            if name in methods:
                scaled, df = joint_scale(fit.statistics, fit.per_model_df, mode)
                b = np.abs(scaled[live]).max()
                rejects, stage = max_type_rejects(b, df, fit.c_hat.entries, alpha, settings)
                counts[name] += bool(rejects)
                decisions[name][DECISION_STAGES[stage]] += 1
    return counts, decisions


# (id, Scenario fields): the published null designs at N=50, prop 0.6, one
# power row with per-replicate relevance, and one row whose replicates span
# several blocks.
ORACLE_ROWS = [
    ("a3", dict(total_n=50, prop_target=0.6, replications=300)),
    ("a4", dict(total_n=50, prop_target=0.6, family="any", replications=200)),
    ("a5-any", dict(total_n=50, prop_target=0.6, family="any", overlap=True, replications=40)),
    (
        "a6-any",
        dict(total_n=50, prop_target=0.6, family="any", endpoints=2, rho=0.8, replications=40),
    ),
    (
        "power-overlap",
        dict(
            total_n=50,
            sd=2.0,
            delta=1.5,
            prop_target=0.6,
            overlap=True,
            family="any",
            replications=60,
        ),
    ),
    ("a3-blocks", dict(total_n=4000, prop_target=0.6, replications=300)),
]


class TestBlockEngine:
    @pytest.mark.parametrize(
        "fields", [f for _, f in ORACLE_ROWS], ids=[i for i, _ in ORACLE_ROWS]
    )
    def test_counts_match_replicate_by_replicate_reference(self, fields):
        scenario = Scenario(seed=20150436, **fields)
        result = run(scenario)
        counts, decisions = reference_counts(scenario, result.methods)
        assert dict(result.rejections) == counts
        assert {name: dict(c) for name, c in result.mmm_decisions.items()} == decisions

    def test_one_bounds_pass_per_block(self, monkeypatch):
        # every mmm variant's exact bounds for a block come from one call
        calls = []
        bounds = mmm.max_type_bounds

        def spy(b, df, c_hat, alpha):
            calls.append(np.shape(b))
            return bounds(b, df, c_hat, alpha)

        monkeypatch.setattr(mmm, "max_type_bounds", spy)
        scenario = Scenario(seed=20150436, **dict(ORACLE_ROWS)["a3-blocks"])
        result = run(scenario)
        assert result.methods[-4:] == MMM_METHODS
        block = simulate._BLOCK_FLOATS // (len(scenario.model_specs) * scenario.total_n)
        assert len(calls) == -(-scenario.replications // block)
        assert calls[0] == (4, block)

    def test_cell_fit_runs_once_per_block(self, monkeypatch):
        # the cellmeans comparator fits every replicate of a block in one call
        shapes = []
        fit = simulate.fit_cell_means

        def spy(y, cells, endpoint):
            shapes.append(np.shape(y))
            return fit(y, cells, endpoint)

        monkeypatch.setattr(simulate, "fit_cell_means", spy)
        scenario = Scenario(seed=20150436, **dict(ORACLE_ROWS)["a3-blocks"])
        result = run(scenario)
        assert "cellmeans" in result.methods
        block = simulate._BLOCK_FLOATS // (len(scenario.model_specs) * scenario.total_n)
        assert len(shapes) == -(-scenario.replications // block)
        assert shapes[0] == (block, scenario.total_n)

    def test_block_boundary_is_crossed(self):
        fields = dict(ORACLE_ROWS)["a3-blocks"]
        scenario = Scenario(**fields)
        block = simulate._BLOCK_FLOATS // (len(scenario.model_specs) * scenario.total_n)
        assert 1 < block < scenario.replications // 2

    @pytest.mark.parametrize(
        "fields",
        [
            dict(total_n=50, prop_target=0.6, family="any", overlap=True),
            dict(total_n=50, prop_target=0.6, family="any", endpoints=2, rho=0.8, delta=1.0),
        ],
        ids=["a5-any", "a6-any-delta"],
    )
    def test_batched_fits_match_fit_ols_and_stack(self, fields):
        scenario = Scenario(seed=3, **fields)
        y, used, (coef, se, dfs, scores) = simulate._fit_block(scenario, 5, 17)
        c_hat = score_correlation(scores, [s.label for s in scenario.model_specs])[1]
        for i, r in enumerate(range(5, 17)):
            # generate(scenario, r) is row r of the block, overlap flags too
            data = generate(scenario, r)
            np.testing.assert_array_equal(
                y[i], [data.responses[e] for e in scenario.endpoint_names]
            )
            np.testing.assert_array_equal(
                used[i if len(used) > 1 else 0],
                [data.subset_mask(spec.subset) for spec in scenario.model_specs],
            )
            fit = stack([fit_ols(data, spec) for spec in scenario.model_specs])
            np.testing.assert_allclose(coef[i] / se[i], fit.statistics, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(dfs[i], fit.per_model_df)
            np.testing.assert_allclose(c_hat[i], fit.c_hat.entries, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "fields", [f for _, f in ORACLE_ROWS[:4]], ids=[i for i, _ in ORACLE_ROWS[:4]]
    )
    def test_decision_counts_add_up(self, fields):
        scenario = Scenario(seed=20150436, **fields)
        result = run(scenario)
        assert set(result.mmm_decisions) == set(MMM_METHODS)
        for counts in result.mmm_decisions.values():
            assert tuple(counts) == DECISION_STAGES
            assert sum(counts.values()) == scenario.replications
            # the pairwise rung runs from dimension 2 on
            assert counts["pairwise"] > 0

    def test_only_integrated_decisions_reach_quadrature(self, monkeypatch):
        decide_at = []
        rect = mmm.mv_rect_prob

        def spy_rect(*args, **kwargs):
            decide_at.append(kwargs.get("decide_at"))
            return rect(*args, **kwargs)

        monkeypatch.setattr(mmm, "mv_rect_prob", spy_rect)
        fields = dict(ORACLE_ROWS)["a5-any"]
        result = run(Scenario(seed=20150436, **dict(fields, replications=200)))
        open_ = sum(c["integrated"] for c in result.mmm_decisions.values())
        settled = sum(c["pairwise"] for c in result.mmm_decisions.values())
        assert settled > 5 * open_ > 0
        # one integration per integrated decision, each stopped at its decision
        assert decide_at == [1.0 - 0.05] * open_

    def test_dimensions_two_and_three_enter_the_pairwise_stage(self, monkeypatch):
        calls = []
        pairs = mmm.pair_exceedance

        def spy(*args, **kwargs):
            calls.append(args)
            return pairs(*args, **kwargs)

        monkeypatch.setattr(mmm, "pair_exceedance", spy)
        for row in ("a3", "a4"):
            calls.clear()
            result = run(Scenario(seed=20150436, **dict(ORACLE_ROWS)[row]))
            assert calls
            if row == "a3":
                # at dimension 2 the pairwise bound is the p-value itself
                assert all(c["integrated"] == 0 for c in result.mmm_decisions.values())

    def test_each_c_hat_is_validated_once(self, monkeypatch):
        # one batch check per block; undecided replicates reuse its result
        validate = mvdist.validate_correlation
        calls = []

        def spy(entries):
            calls.append(np.shape(entries))
            return validate(entries)

        monkeypatch.setattr(mvdist, "validate_correlation", spy)
        monkeypatch.setattr(mmm, "validate_correlation", spy)
        checked = mvdist.CorrelationMatrix._checked
        undecided = []

        def counting(entries):
            undecided.append(entries)
            return checked(entries)

        # one block, in which a decision reaches quadrature past the
        # triplewise bounds
        scenario = Scenario(
            total_n=50, prop_target=0.6, family="any", overlap=True, replications=300, seed=5
        )
        monkeypatch.setattr(mvdist.CorrelationMatrix, "_checked", counting)
        run(scenario, methods=["mmm"])
        assert undecided
        assert calls == [(300, 5, 5)]
