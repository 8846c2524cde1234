"""Tests for the AVERROES case study: expansion and published-table checks."""

import io
import json
import math

import numpy as np
import pytest

from mmminfer import casestudy, mmm
from mmminfer.casestudy import CountRow, CountTable, analyze, expand, load_averroes
from mmminfer.errors import InconsistentTotals, SchemaError
from mmminfer.tables import CASE_STUDY_TOLERANCES, published_rows


def small_table(unions=None):
    rows = [
        CountRow("A", "e1", "S1", 2, 8),
        CountRow("A", "e1", "S2", 3, 7),
        CountRow("B", "e1", "S1", 4, 6),
        CountRow("B", "e1", "S2", 5, 5),
        CountRow("A", "e2", "S1", 1, 9),
        CountRow("A", "e2", "S2", 2, 8),
        CountRow("B", "e2", "S1", 3, 7),
        CountRow("B", "e2", "S2", 1, 9),
    ]
    return CountTable(rows, unions=unions)


class TestCountTable:
    def test_grid_and_orders(self):
        t = small_table()
        assert t.treatments == ("A", "B")
        assert t.endpoints == ("e1", "e2")
        assert t.subgroups == ("S1", "S2")
        assert t.cell("B", "e1", "S2") == (5, 5)
        assert t.cell_size("A", "S1") == 10

    def test_reference_level_reorder(self):
        t = CountTable(small_table().rows, reference_level="B")
        assert t.treatments == ("B", "A")

    def test_rejects_negative(self):
        rows = list(small_table().rows)
        rows[0] = CountRow("A", "e1", "S1", -1, 8)
        with pytest.raises(SchemaError, match="negative"):
            CountTable(rows)

    def test_rejects_incomplete_grid(self):
        with pytest.raises(SchemaError, match="incomplete"):
            CountTable(small_table().rows[:-1])

    def test_rejects_duplicate_cells(self):
        rows = list(small_table().rows)
        rows.append(rows[0])
        with pytest.raises(SchemaError, match="duplicate"):
            CountTable(rows)

    def test_inconsistent_totals(self):
        rows = list(small_table().rows)
        rows[4] = CountRow("A", "e2", "S1", 1, 12)
        with pytest.raises(InconsistentTotals):
            CountTable(rows)

    def test_union_validation(self):
        with pytest.raises(SchemaError, match="unknown endpoints"):
            small_table(unions={"u": ("e1", "zzz")})
        with pytest.raises(SchemaError, match="clashes"):
            small_table(unions={"e1": ("e2",)})

    def test_read_csv(self):
        text = (
            "treatment,endpoint,subgroup,events,non_events\n"
            "A,e1,S1,1,3\nA,e1,S2,2,2\nB,e1,S1,0,4\nB,e1,S2,1,3\n"
        )
        t = CountTable.read_csv(io.StringIO(text))
        assert t.cell("B", "e1", "S1") == (0, 4)

    def test_read_csv_bad_header(self):
        with pytest.raises(SchemaError, match="columns"):
            CountTable.read_csv(io.StringIO("a,b\n1,2\n"))

    def test_read_csv_bad_count(self):
        text = "treatment,endpoint,subgroup,events,non_events\nA,e1,S1,x,3\n"
        with pytest.raises(SchemaError, match="bad count row"):
            CountTable.read_csv(io.StringIO(text))


class TestExpand:
    def test_averroes_size_and_membership(self):
        data = expand(load_averroes())
        assert data.n == 5596
        apixaban_s1 = (data.treatment == 0) & (data.subgroups["S1"] == 1.0)
        assert int(apixaban_s1.sum()) == 390
        assert int((data.treatment == 1).sum()) == 2789

    def test_round_trip_counts(self):
        table = load_averroes()
        data = expand(table)
        for t_code, t in enumerate(table.treatments):
            for g in table.subgroups:
                mask = (data.treatment == t_code) & (data.subgroups[g] == 1.0)
                for e in table.endpoints:
                    events, non_events = table.cell(t, e, g)
                    assert int(data.responses[e][mask].sum()) == events
                    assert int(mask.sum()) == events + non_events

    def test_union_counts_are_sums(self):
        table = load_averroes()
        data = expand(table)
        stroke = data.responses["Stroke"]
        aspirin = data.treatment == 1
        # disjoint union: 97 + 9 ischemic/hemorrhagic events on distinct subjects
        assert int(stroke[aspirin].sum()) == 106
        s1 = data.subgroups["S1"] == 1.0
        assert int(stroke[aspirin & s1].sum()) == 31
        apixaban = ~aspirin
        assert int(stroke[apixaban].sum()) == 49

    def test_union_never_exceeds_one(self):
        data = expand(load_averroes())
        assert set(np.unique(data.responses["Stroke"])) <= {0.0, 1.0}

    def test_all_zero_events(self):
        rows = [
            CountRow(t, "e1", g, 0, 5) for t in ("A", "B") for g in ("S1", "S2")
        ]
        data = expand(CountTable(rows))
        assert data.responses["e1"].sum() == 0.0

    def test_union_overflow_raises(self):
        rows = [
            CountRow("A", "e1", "S1", 4, 1),
            CountRow("A", "e2", "S1", 3, 2),
            CountRow("B", "e1", "S1", 1, 4),
            CountRow("B", "e2", "S1", 1, 4),
        ]
        table = CountTable(rows, unions={"u": ("e1", "e2")})
        with pytest.raises(InconsistentTotals, match="exceed"):
            expand(table)

    def test_without_unions_events_overlap(self):
        t = small_table()
        data = expand(t)
        cell = (data.treatment == 0) & (data.subgroups["S1"] == 1.0)
        e1 = data.responses["e1"][cell]
        e2 = data.responses["e2"][cell]
        # both endpoints fill from the cell start: e2 events nest inside e1's
        assert int((e1 * e2).sum()) == 1


class TestAnalyze:
    def test_labels_and_order(self, report):
        assert [r.group for r in report.rows[:3]] == ["Global"] * 3
        assert [r.endpoint for r in report.rows[:3]] == ["Ischemic", "Hemorrhag", "Stroke"]
        assert report.rows[3].group == "S1 (TIA)"
        assert report.rows[6].group == "S2 (noTIA)"

    def test_odds_ratios_match_cross_products(self, report):
        table = load_averroes()
        e_i, n_i = table.cell("Aspirin", "Ischemic", "S1")
        e_a, n_a = table.cell("Apixaban", "Ischemic", "S1")
        want = (e_i * n_a) / (n_i * e_a)
        got = report.rows[3].display_estimate()
        assert got == pytest.approx(want, rel=1e-4)

    def test_published_table_reproduced(self, report):
        # the odds ratio and mmm columns at the accepted tolerances; the
        # unadjusted and Bonferroni columns are closed form, held tighter
        tolerance = {
            "noadjust": (5e-4, 5e-3),
            "bonferroni": (5e-4, 5e-3),
            "mmm": (CASE_STUDY_TOLERANCES["mmm_p"], CASE_STUDY_TOLERANCES["mmm_lower"]),
        }
        for row, want in zip(report.rows, published_rows("a2_inference")):
            assert row.endpoint == want["endpoint"]
            assert row.group.startswith(str(want["group"]).split()[0])
            assert row.display_estimate() == pytest.approx(
                want["odds_ratio"], abs=CASE_STUDY_TOLERANCES["odds_ratio"]
            )
            for method, prefix in (
                ("noadjust", "noadjust"),
                ("bonferroni", "bonferroni"),
                ("mmm", "mmm"),
            ):
                cell = row.methods[method]
                tol_p, tol_ci = tolerance[method]
                assert cell.p == pytest.approx(want[f"{prefix}_p"], abs=tol_p), (
                    row.label,
                    method,
                )
                assert row.display_bound(cell.ci_lower) == pytest.approx(
                    want[f"{prefix}_lower"], abs=tol_ci
                ), (row.label, method)

    def test_narrative_global_hemorrhagic(self, report):
        row = report.rows[1]
        cell = row.methods["mmm"]
        assert row.display_bound(cell.ci_lower) == pytest.approx(0.44, abs=0.02)
        assert cell.p == pytest.approx(0.65, abs=0.01)
        assert not cell.rejected

    def test_method_dominance(self, report):
        for row in report.rows:
            p_un = row.methods["noadjust"].p
            p_mmm = row.methods["mmm"].p
            p_bon = row.methods["bonferroni"].p
            assert p_mmm <= p_bon + 1e-3
            assert p_bon <= min(1.0, 9 * p_un) + 1e-9

    def test_rejections_match_published_pattern(self, report):
        rejected = [r.methods["mmm"].rejected for r in report.rows]
        assert rejected == [True, False, True, True, False, True, True, False, True]

    def test_json_round_trip(self, report):
        payload = json.loads(report.to_json())
        assert payload["alpha"] == 0.05
        assert len(payload["hypotheses"]) == 9
        first = payload["hypotheses"][0]
        assert first["methods"]["mmm"]["ci_upper"] is None  # one-sided
        assert first["effect"] == pytest.approx(2.32, abs=0.005)

    def test_text_table_shape(self, report):
        text = report.to_text()
        lines = text.splitlines()
        assert len(lines) == 12  # title + header + rule + 9 rows
        assert "OR" in lines[1]
        assert "Inf)" in lines[3]

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            analyze(load_averroes(), alpha=0.0)

    def test_report_comes_from_infer(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return "report"

        assert casestudy.infer is mmm.infer
        monkeypatch.setattr(casestudy, "infer", spy)
        assert analyze(load_averroes(), alpha=0.1) == "report"
        assert len(calls) == 1
        (models, title, alpha, alternative, df_mode, _), kwargs = calls[0]
        assert len(models) == 9
        assert (title, alpha, alternative, df_mode) == (
            "Simultaneous inference",
            0.1,
            "greater",
            "normal",
        )
        assert kwargs == {"group_labels": casestudy.AVERROES_GROUP_LABELS}
