"""Tests for the command-line interface."""

import argparse
import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from mmminfer import cli, mmm, simulate, tables
from mmminfer.cli import main
from mmminfer.mvdist import QuadratureSettings
from mmminfer.simulate import Scenario, load_scenarios
from mmminfer.tables import published_rows


def run_cli(argv):
    """main() return code, treating argparse's SystemExit like a return."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def write_scenarios(tmp_path, entries):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(entries))
    return str(path)


def write_trial(tmp_path, n=40, effect=1.5, seed=5):
    """Small two-arm CSV with one subgroup flag and one endpoint."""
    rng = np.random.default_rng(seed)
    rows = ["id,treatment,S1,y"]
    for i in range(n):
        arm = "active" if i % 2 else "ctrl"
        flag = 1.0 if i < n // 2 else 0.0
        y = rng.normal() + effect * (arm == "active") * flag
        rows.append(f"{i + 1},{arm},{flag:g},{y:.6f}")
    data = tmp_path / "trial.csv"
    data.write_text("\n".join(rows) + "\n")
    specs = tmp_path / "models.json"
    specs.write_text(
        json.dumps(
            {
                "subgroups": ["S1"],
                "reference_level": "ctrl",
                "models": [
                    {"endpoint": "y", "subset": "all"},
                    {"endpoint": "y", "subset": "S1"},
                ],
            }
        )
    )
    return str(data), str(specs)


def write_mixed_trial(directory, n=40, seed=6):
    """Two-arm CSV with a continuous and a binary endpoint, and a config
    that fits a gaussian and a binomial-logit model to them."""
    rng = np.random.default_rng(seed)
    rows = ["id,treatment,y,b"]
    for i in range(n):
        arm = "active" if i % 2 else "ctrl"
        y = rng.normal() + 0.8 * (arm == "active")
        rows.append(f"{i + 1},{arm},{y:.6f},{int(y > 0.4)}")
    data = directory / "mixed.csv"
    data.write_text("\n".join(rows) + "\n")
    specs = directory / "mixed.json"
    specs.write_text(
        json.dumps(
            {
                "reference_level": "ctrl",
                "models": [
                    {"endpoint": "y"},
                    {"endpoint": "b", "family": "binomial-logit"},
                ],
            }
        )
    )
    return str(data), str(specs)


class TestSimulate:
    def test_csv_to_stdout(self, tmp_path, capsys):
        config = write_scenarios(tmp_path, [{"total_n": 20, "replications": 60}])
        assert run_cli(["simulate", config]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["total_n"] == "20"
        for method in ("noadjust", "bonferroni", "cellmeans", "mmm.dfind"):
            assert 0.0 <= float(rows[0][method]) <= 1.0

    def test_inapplicable_method_cell_left_blank(self, tmp_path, capsys):
        config = write_scenarios(
            tmp_path,
            [
                {"total_n": 20, "replications": 40},
                {"total_n": 20, "replications": 40, "overlap": True},
            ],
        )
        assert run_cli(["simulate", config]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["cellmeans"] != ""
        assert rows[1]["cellmeans"] == ""

    def test_method_subset_limits_columns(self, tmp_path, capsys):
        config = write_scenarios(tmp_path, [{"total_n": 20, "replications": 40}])
        assert run_cli(["simulate", config, "--methods", "bonferroni", "mmm"]) == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert "bonferroni" in header and "mmm" in header
        assert "noadjust" not in header and "cellmeans" not in header

    def test_out_writes_csv_and_manifest(self, tmp_path, capsys):
        config = write_scenarios(tmp_path, [{"total_n": 20, "replications": 40}])
        out = tmp_path / "result.csv"
        assert run_cli(
            ["simulate", config, "--out", str(out), "--seed", "9", "--reps", "50"]
        ) == 0
        assert capsys.readouterr().out == ""  # stdout stays clean
        manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 9
        assert manifest["outputs"] == [str(out)]
        assert manifest["wall_time"] >= 0.0
        # Monte Carlo standard errors per scenario and method, sqrt(p(1-p)/R)
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        (errors,) = manifest["monte_carlo_se"]
        assert set(errors) == set(row) - set(manifest["config"]["scenarios"][0])
        for method, se in errors.items():
            p = float(row[method])
            assert se == pytest.approx(math.sqrt(p * (1.0 - p) / 50), rel=1e-5)
        # the manifest's resolved config reloads into the very scenarios run
        reloaded = load_scenarios(
            io.StringIO(json.dumps(manifest["config"]["scenarios"]))
        )
        assert reloaded == [Scenario(total_n=20, replications=50, seed=9)]
        # no --methods: every applicable method, recorded as null
        assert manifest["config"]["methods"] is None
        # each mmm method's decisions per rung of the decision ladder
        (decisions,) = manifest["mmm_decisions"]
        assert set(decisions) == {m for m in errors if m.startswith("mmm")}
        for counts in decisions.values():
            assert list(counts) == ["first_order", "pairwise", "triplewise", "integrated"]
            assert sum(counts.values()) == 50

    def test_manifest_records_the_method_list(self, tmp_path, capsys):
        config = write_scenarios(
            tmp_path,
            [{"total_n": 20, "replications": 30}, {"total_n": 20, "replications": 30}],
        )
        out = tmp_path / "result.csv"
        argv = ["simulate", config, "--out", str(out), "--methods", "bonferroni", "mmm"]
        assert run_cli(argv) == 0
        manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
        assert manifest["config"]["methods"] == ["bonferroni", "mmm"]
        assert [list(d) for d in manifest["mmm_decisions"]] == [["mmm"], ["mmm"]]

    def test_same_config_same_bytes(self, tmp_path):
        config = write_scenarios(tmp_path, [{"total_n": 20, "replications": 50}])
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["simulate", config, "--out", str(first)]) == 0
        assert run_cli(["simulate", config, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_parallel_workers_match_sequential(self, tmp_path, monkeypatch, capsys):
        config = write_scenarios(
            tmp_path,
            [
                {"total_n": 20, "replications": 50},
                {"total_n": 20, "replications": 50, "seed": 3},
            ],
        )
        assert run_cli(["simulate", config]) == 0
        sequential = capsys.readouterr().out
        monkeypatch.setenv("MMMINFER_JOBS", "2")
        assert run_cli(["simulate", config]) == 0
        assert capsys.readouterr().out == sequential

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "{config}", "--reps", "0"],
            ["simulate", "{config}", "--methods", "holm"],
            ["simulate", "missing-file.json"],
        ],
    )
    def test_validation_exit_code(self, tmp_path, capsys, argv):
        config = write_scenarios(tmp_path, [{"total_n": 20, "replications": 40}])
        argv = [a.format(config=config) for a in argv]
        assert run_cli(argv) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_jobs_env(self, tmp_path, monkeypatch, capsys):
        config = write_scenarios(tmp_path, [{"total_n": 20, "replications": 40}])
        monkeypatch.setenv("MMMINFER_JOBS", "many")
        assert run_cli(["simulate", config]) == 1
        assert "MMMINFER_JOBS" in capsys.readouterr().err


class TestAnalyze:
    def test_dataset_mode_writes_all_artifacts(self, tmp_path, capsys):
        data, specs = write_trial(tmp_path)
        out = tmp_path / "report"
        code = run_cli(
            ["analyze", data, specs, "--df-mode", "dfind", "--out", str(out), "--forest"]
        )
        assert code == 0
        text = (tmp_path / "report.txt").read_text()
        assert "dfind(38, 18)" in text
        payload = json.loads((tmp_path / "report.json").read_text())
        assert [h["label"] for h in payload["hypotheses"]] == ["all:y", "S1:y"]
        svg = (tmp_path / "report.svg").read_text()
        assert ET.fromstring(svg).tag.endswith("svg")
        manifest = json.loads((tmp_path / "report.manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(
            str(tmp_path / f"report.{ext}") for ext in ("txt", "json", "svg")
        )

    def test_dataset_mode_stdout(self, tmp_path, capsys):
        data, specs = write_trial(tmp_path)
        assert run_cli(["analyze", data, specs]) == 0
        text = capsys.readouterr().out
        assert "normal" in text and "S1" in text
        assert "mmm 95% CI" in text

    def test_alternative_flag_changes_bounds(self, tmp_path, capsys):
        data, specs = write_trial(tmp_path)
        assert run_cli(["analyze", data, specs, "--alternative", "greater"]) == 0
        assert "Inf)" in capsys.readouterr().out

    def test_missing_column_names_it(self, tmp_path, capsys):
        data, specs = write_trial(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"models": [{"endpoint": "nonexistent", "subset": "all"}]})
        )
        assert run_cli(["analyze", data, str(bad)]) == 1
        assert "nonexistent" in capsys.readouterr().err

    def test_unknown_model_field(self, tmp_path, capsys):
        data, specs = write_trial(tmp_path)
        bad = tmp_path / "bad.json"
        # the test direction is --alternative, never a model field
        for field in ("side", "effect_direction"):
            bad.write_text(json.dumps({"models": [{"endpoint": "y", field: "greater"}]}))
            assert run_cli(["analyze", data, str(bad)]) == 1
            err = capsys.readouterr().err
            assert "bad model entry" in err and field in err

    def test_string_subgroups_rejected(self, tmp_path, capsys):
        data, _ = write_trial(tmp_path)
        bad = tmp_path / "bad.json"
        # a string once split into the columns 'S' and '1'
        bad.write_text(json.dumps({"subgroups": "S1", "models": [{"endpoint": "y"}]}))
        assert run_cli(["analyze", data, str(bad)]) == 1
        err = capsys.readouterr().err
        assert '"subgroups"' in err and "list" in err

    def test_numeric_reference_level_rejected(self, tmp_path, capsys):
        rows = ["id,treatment,y"] + [f"{i + 1},{1 + i % 2},{i % 5}" for i in range(20)]
        data = tmp_path / "coded.csv"
        data.write_text("\n".join(rows) + "\n")
        bad = tmp_path / "bad.json"
        # levels are read as the strings '1' and '2', so 1 once matched neither
        bad.write_text(json.dumps({"reference_level": 1, "models": [{"endpoint": "y"}]}))
        assert run_cli(["analyze", str(data), str(bad)]) == 1
        err = capsys.readouterr().err
        assert '"reference_level"' in err and "string" in err
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"reference_level": "1", "models": [{"endpoint": "y"}]}))
        assert run_cli(["analyze", str(data), str(good)]) == 0

    def test_binary_dataset_prints_the_cross_product_odds_ratio(self, tmp_path, capsys):
        # 9 of 40 events on ctrl, 17 of 40 on active: OR = (17 * 31) / (23 * 9) = 2.546
        rows = ["id,treatment,y"]
        for i in range(80):
            arm, k = ("ctrl", i) if i < 40 else ("active", i - 40)
            rows.append(f"{i + 1},{arm},{int(k < (9 if arm == 'ctrl' else 17))}")
        data = tmp_path / "binary.csv"
        data.write_text("\n".join(rows) + "\n")
        specs = tmp_path / "logit.json"
        specs.write_text(
            json.dumps(
                {
                    "reference_level": "ctrl",
                    "models": [{"endpoint": "y", "family": "binomial-logit"}],
                }
            )
        )
        assert run_cli(["analyze", str(data), str(specs)]) == 0
        header, _, row = capsys.readouterr().out.splitlines()[1:4]
        assert header.split()[2] == "OR"
        assert row.split()[:3] == ["all", "y", "2.55"]

    def test_mixed_report_labels_no_difference_as_an_odds_ratio(self, tmp_path, capsys):
        data, specs = write_mixed_trial(tmp_path)
        assert run_cli(["analyze", data, specs]) == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert header.split()[2] == "effect"

    def test_refused_forest_leaves_no_partial_output(self, tmp_path, tmp_path_factory, capsys):
        # the forest plot refuses a report mixing odds ratios and differences
        data, specs = write_mixed_trial(tmp_path_factory.mktemp("inputs"))
        out = tmp_path / "report"
        assert run_cli(["analyze", data, specs, "--out", str(out), "--forest"]) == 1
        assert "mix" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dataset_needs_specs(self, tmp_path, capsys):
        data, _ = write_trial(tmp_path)
        assert run_cli(["analyze", data]) == 1
        assert "model config" in capsys.readouterr().err

    def test_case_study_mode_rejects_model_flags(self, capsys):
        assert run_cli(["analyze", "--df-mode", "dfind"]) == 1
        assert "case study" in capsys.readouterr().err

    def test_forest_requires_out(self, tmp_path, capsys):
        data, specs = write_trial(tmp_path)
        assert run_cli(["analyze", data, specs, "--forest"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_dataset_report_comes_from_infer(self, tmp_path, capsys, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return infer(*args, **kwargs)

        infer = mmm.infer
        assert cli.infer is infer
        monkeypatch.setattr(cli, "infer", spy)
        data, specs = write_trial(tmp_path)
        assert run_cli(["analyze", data, specs, "--df-mode", "dfmin"]) == 0
        assert len(calls) == 1
        models, title, alpha, alternative, df_mode, _ = calls[0]
        assert [m.spec.label for m in models] == ["all:y", "S1:y"]
        assert (title, alpha, alternative, df_mode) == (
            "Simultaneous inference: trial.csv",
            0.05,
            "two-sided",
            "dfmin",
        )
        assert "t(18)" in capsys.readouterr().out


class TestCaseStudyCli:
    def test_averroes_analysis(self, report, monkeypatch, capsys):
        # the session report stands in for a second full analysis
        calls = []

        def spy(table, alpha, settings):
            calls.append((alpha, settings.seed))
            return report

        monkeypatch.setattr(cli, "analyze_averroes", spy)
        assert run_cli(["analyze"]) == 0
        text = capsys.readouterr().out
        assert calls == [(0.05, QuadratureSettings().seed)]
        assert text == report.to_text() + "\n"
        assert "greater" in text
        for fragment in ("Global", "S1 (TIA)", "S2 (noTIA)", "2.32", "Hemorrhag"):
            assert fragment in text


class TestCaseStudyTable:
    """``tables --which a2`` grades the case study against a2_inference."""

    def run_a2(self, report, monkeypatch, capsys, *flags):
        seeds = []

        def spy(table, settings):
            seeds.append(settings.seed)
            return report

        monkeypatch.setattr(cli, "analyze_averroes", spy)
        assert run_cli(["tables", "--which", "a2", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        return seeds, lines, [l for l in lines if l.endswith((" yes", " NO"))]

    def test_grades_every_cell(self, report, monkeypatch, capsys):
        seeds, lines, verdicts = self.run_a2(report, monkeypatch, capsys, "--reps", "200")
        assert seeds == [20150436]  # what `mmminfer analyze` runs
        assert "--reps does not apply" in lines[0]
        assert not any("low precision" in l for l in lines)
        # odds ratio, then each method's bound, p and decision, per row
        assert len(verdicts) == 9 * (1 + 3 * 3)
        assert lines[-1] == "90/90 cells within tolerance"
        assert verdicts[0].split()[:3] == ["Global", "Ischemic", "odds_ratio"]
        first = report.rows[0]
        lower = f"{first.display_bound(first.methods['noadjust'].ci_lower):.4f}"
        assert verdicts[1].split()[:5] == ["Global", "Ischemic", "noadjust_lower", "1.7100", lower]
        hemorrhag_mmm = [l.split() for l in verdicts if l.startswith("Global Hemorrhag mmm_reject")]
        assert hemorrhag_mmm == [["Global", "Hemorrhag", "mmm_reject", "accept", "accept", "yes"]]

    def test_cell_past_its_tolerance_prints_no(self, report, monkeypatch, capsys):
        # noadjust p of Global Ischemic moves 0.002 past the published 0.0000
        first = report.rows[0]
        moved = replace(first.methods["noadjust"], p=first.methods["noadjust"].p + 0.002)
        first = replace(first, methods={**first.methods, "noadjust": moved})
        report = replace(report, rows=(first,) + report.rows[1:])
        seeds, lines, verdicts = self.run_a2(report, monkeypatch, capsys, "--seed", "7")
        assert seeds == [7]
        failed = [l.split() for l in verdicts if l.endswith(" NO")]
        assert [f[:3] for f in failed] == [["Global", "Ischemic", "noadjust_p"]]
        assert lines[-1] == "89/90 cells within tolerance"


class TestTablesRows:
    def test_rows_run_in_one_batch(self, capsys, monkeypatch):
        # every row of a table goes to _run_all at once, so MMMINFER_JOBS
        # workers share the rows
        calls = []

        def spy(scenarios, methods, alpha):
            calls.append(list(scenarios))
            return run_all(scenarios, methods, alpha)

        run_all = cli._run_all
        monkeypatch.setattr(cli, "_run_all", spy)
        assert run_cli(["tables", "--which", "a4", "--reps", "20"]) == 0
        assert len(calls) == 1
        assert [(s.total_n, s.prop_target) for s in calls[0]] == [
            (int(row["N"]), float(row["prop_targ"])) for row in published_rows("a4_fwer_any")
        ]
        assert "cells within tolerance" in capsys.readouterr().out

    def test_power_claims_run_in_one_batch(self, capsys, monkeypatch):
        # every claim's cells go to one _run_all call, each cell running only
        # its claim's two methods
        calls = []

        def spy(scenarios, methods, alpha):
            calls.append((list(scenarios), list(methods)))
            return run_all(scenarios, methods, alpha)

        run_all = cli._run_all
        monkeypatch.setattr(cli, "_run_all", spy)
        assert run_cli(["tables", "--which", "power", "--reps", "20"]) == 0
        assert len(calls) == 1
        scenarios, methods = calls[0]
        expected = [
            (claim["total_n"], float(delta), prop, [claim["baseline"], claim["method"]])
            for claim in tables.POWER_CLAIMS
            for delta, prop in claim["cells"]
        ]
        assert [
            (s.total_n, s.delta, s.prop_target, m) for s, m in zip(scenarios, methods)
        ] == expected
        # each printed gain is the one power_gain computes claim by claim
        verdicts = [
            l for l in capsys.readouterr().out.splitlines() if l.endswith((" yes", " NO"))
        ]
        assert len(verdicts) == len(tables.POWER_CLAIMS)
        for line, claim in zip(verdicts, tables.POWER_CLAIMS):
            claim = {k: v for k, v in claim.items() if k not in ("label", "published", "at_least")}
            gain = simulate.power_gain(replications=20, **claim)
            assert f" {100 * gain:>8.2f}pp " in line

    def test_a6_any_checks_level_control_only(self, capsys):
        # a6_fwer_any repeats the targeted-or-total rates, so only the
        # level-controlling methods are checked, against alpha
        assert run_cli(["tables", "--which", "a6-any", "--reps", "20"]) == 0
        out = capsys.readouterr().out
        verdicts = [l for l in out.splitlines() if l.endswith((" yes", " NO"))]
        assert len(verdicts) == 20 * 3
        assert {l.split()[2] for l in verdicts} == set(tables.LEVEL_METHODS)
        assert all(l.split()[3] == "<=0.0500" for l in verdicts)
        assert "noadjust" not in out

    def test_rows_print_as_they_finish(self, capsys, monkeypatch):
        # a failing last row still leaves every finished row printed
        last = published_rows("a4_fwer_any")[-1]
        run_task = cli._run_task

        def fail_last(task):
            scenario = task[0]
            if (scenario.total_n, scenario.prop_target) == (
                int(last["N"]),
                float(last["prop_targ"]),
            ):
                raise RuntimeError("last row")
            return run_task(task)

        monkeypatch.setattr(cli, "_run_task", fail_last)
        with pytest.raises(RuntimeError, match="last row"):
            run_cli(["tables", "--which", "a4", "--reps", "20"])
        out = capsys.readouterr().out
        verdicts = [l for l in out.splitlines() if l.endswith(" yes") or l.endswith(" NO")]
        assert len(verdicts) == 19 * 7


@pytest.mark.slow
class TestTables:
    def test_a3_low_reps(self, capsys):
        assert run_cli(["tables", "--which", "a3", "--reps", "200"]) == 0
        out = capsys.readouterr().out
        assert "low precision" in out
        verdicts = [l for l in out.splitlines() if l.endswith(" yes") or l.endswith(" NO")]
        assert len(verdicts) == 20 * 7
        assert "cells within tolerance" in out

    def test_power_low_reps(self, capsys):
        assert run_cli(["tables", "--which", "power", "--reps", "300"]) == 0
        out = capsys.readouterr().out
        assert "5/5 gains within tolerance" in out

    def test_unknown_table(self, capsys):
        assert run_cli(["tables", "--which", "a9"]) == 1


class TestRegistry:
    def test_designs_name_published_tables(self):
        names = tables.published_names()
        for design in tables.TABLE_DESIGNS.values():
            assert design["published"] in names

    def test_which_choices_follow_the_registry(self):
        parser = cli._build_parser()
        (commands,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (which,) = [a for a in commands.choices["tables"]._actions if a.dest == "which"]
        assert tuple(which.choices) == ("a2",) + tuple(tables.TABLE_DESIGNS) + ("power",)

    def test_power_claims_build_scenarios(self):
        for claim in tables.POWER_CLAIMS:
            fields = {
                k: v
                for k, v in claim.items()
                if k not in ("label", "published", "at_least", "baseline", "method")
            }
            cells = simulate.power_cells(replications=10, seed=1, **fields)
            assert len(cells) == len(claim["cells"])
            for scenario in cells:
                simulate._applicable_methods(scenario, [claim["baseline"], claim["method"]])


class TestTopLevel:
    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0
        assert "mmminfer" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert run_cli([]) == 1

    def test_unknown_flag(self, capsys):
        assert run_cli(["simulate", "x.json", "--frobnicate"]) == 1

    @pytest.mark.parametrize("reps", ["0", "-5", "many"])
    @pytest.mark.parametrize(
        "argv", [["tables", "--which", "a3"], ["tables", "--which", "power"], ["simulate"]]
    )
    def test_nonpositive_reps_rejected_before_any_output(self, tmp_path, capsys, argv, reps):
        if argv == ["simulate"]:
            argv = ["simulate", write_scenarios(tmp_path, [{"total_n": 20, "replications": 40}])]
        assert run_cli([*argv, "--reps", reps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--reps" in captured.err
