"""Tests for the SVG forest plot."""

import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from mmminfer.forest import forest_svg
from mmminfer.report import HypothesisRow, InferenceReport, MethodCell

SVG_NS = "{http://www.w3.org/2000/svg}"


def or_report():
    """Three odds-ratio rows, one with an unbounded upper limit."""
    specs = [
        ("Global", "Stroke", math.log(2.32), math.log(1.06), math.inf, True),
        ("Global", "Ischemic", math.log(1.84), math.log(0.89), math.inf, False),
        ("S1 (TIA)", "Stroke", math.log(3.10), math.log(0.95), math.inf, False),
    ]
    rows = []
    for group, endpoint, est, lo, hi, rejected in specs:
        cell = MethodCell(p=0.02 if rejected else 0.3, ci_lower=lo, ci_upper=hi,
                          rejected=rejected)
        rows.append(
            HypothesisRow(
                label=f"{group}:{endpoint}",
                group=group,
                endpoint=endpoint,
                estimate=est,
                or_scale=True,
                methods={"mmm": cell, "bonferroni": cell},
            )
        )
    return InferenceReport(
        title="Simultaneous inference",
        alpha=0.05,
        alternative="greater",
        df_mode="normal",
        seed=1,
        quadrature_error=5e-5,
        method_names=("bonferroni", "mmm"),
        rows=tuple(rows),
    )


def diff_report():
    """Two mean-difference rows with finite two-sided intervals."""
    rows = []
    for group, est in (("all", -0.4), ("S1", 1.2)):
        cell = MethodCell(p=0.2, ci_lower=est - 1.0, ci_upper=est + 1.0,
                          rejected=False)
        rows.append(
            HypothesisRow(
                label=f"{group}:y",
                group=group,
                endpoint="y",
                estimate=est,
                or_scale=False,
                methods={"mmm": cell},
            )
        )
    return InferenceReport(
        title="Difference report",
        alpha=0.1,
        alternative="two-sided",
        df_mode="t(56)",
        seed=1,
        quadrature_error=5e-5,
        method_names=("mmm",),
        rows=tuple(rows),
    )


def by_class(svg, name):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == name]


class TestForestSvg:
    def test_well_formed_svg(self):
        svg = forest_svg(or_report())
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert float(root.get("width")) > 0

    def test_one_marker_and_interval_per_row(self):
        svg = forest_svg(or_report())
        assert len(by_class(svg, "marker")) == 3
        assert len(by_class(svg, "ci")) == 3

    def test_one_sided_bounds_become_arrows(self):
        svg = forest_svg(or_report())
        arrows = by_class(svg, "arrow")
        assert len(arrows) == 3  # every upper bound is infinite
        ci = by_class(svg, "ci")[0]
        # the arrow sits at the right end of its interval segment
        assert any(f'M {float(ci.get("x2")) + 7:.1f}' in (a.get("d") or "")
                   for a in arrows)

    def test_marker_order_follows_estimates(self):
        report = or_report()
        svg = forest_svg(report)
        xs = [float(m.get("x")) for m in by_class(svg, "marker")]
        estimates = [r.display_estimate() for r in report.rows]
        assert sorted(range(3), key=lambda k: xs[k]) == sorted(
            range(3), key=lambda k: estimates[k]
        )

    def test_log_axis_shows_reference_at_one(self):
        svg = forest_svg(or_report())
        assert ">1<" in svg  # tick label at the no-effect odds ratio
        assert "Odds ratio (log scale)" in svg
        assert "stroke-dasharray" in svg

    def test_labels_and_method_line_present(self):
        svg = forest_svg(or_report(), method="bonferroni")
        for fragment in ("Global", "S1 (TIA)", "Ischemic", "bonferroni",
                         "Simultaneous inference", "2.32 [1.06, Inf)"):
            assert fragment in svg

    def test_table_and_plot_print_the_same_intervals(self):
        # an odds ratio's unbounded lower side is 0 on the display scale, and
        # stays open there as a difference's -Inf does
        report = or_report()
        cell = MethodCell(p=0.9, ci_lower=-math.inf, ci_upper=math.log(3.5), rejected=False)
        rows = [replace(r, methods={"mmm": cell, "bonferroni": cell}) for r in report.rows]
        less = replace(report, alternative="less", rows=tuple(rows))
        diff = diff_report()
        cell = MethodCell(p=0.9, ci_lower=-math.inf, ci_upper=0.6, rejected=False)
        rows = [replace(r, methods={"mmm": cell}) for r in diff.rows]
        diff_less = replace(diff, alternative="less", rows=tuple(rows))
        for interval, shown in (
            ("[1.06, Inf)", or_report()),
            ("(0.00, 3.50]", less),
            ("[-1.40, 0.60]", diff),
            ("(-Inf, 0.60]", diff_less),
        ):
            assert interval in shown.to_text()
            assert interval in forest_svg(shown)

    def test_linear_axis_for_difference_rows(self):
        svg = forest_svg(diff_report())
        assert "Odds ratio" not in svg
        assert ">0<" in svg  # zero tick doubles as the reference
        # finite bounds get end caps, not arrows
        assert len(by_class(svg, "arrow")) == 0
        assert len(by_class(svg, "marker")) == 2

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="holm"):
            forest_svg(or_report(), method="holm")

    def test_empty_report(self):
        report = diff_report()
        empty = InferenceReport(
            title=report.title,
            alpha=report.alpha,
            alternative=report.alternative,
            df_mode=report.df_mode,
            seed=report.seed,
            quadrature_error=report.quadrature_error,
            method_names=report.method_names,
            rows=(),
        )
        with pytest.raises(ValueError, match="no hypothesis rows"):
            forest_svg(empty)

    def test_mixed_scales_rejected(self):
        mixed = or_report()
        bad = InferenceReport(
            title=mixed.title,
            alpha=mixed.alpha,
            alternative=mixed.alternative,
            df_mode=mixed.df_mode,
            seed=mixed.seed,
            quadrature_error=mixed.quadrature_error,
            method_names=("mmm",),
            rows=(mixed.rows[0], diff_report().rows[0]),
        )
        with pytest.raises(ValueError, match="mix"):
            forest_svg(bad)

    def test_too_narrow(self):
        with pytest.raises(ValueError, match="width"):
            forest_svg(or_report(), width=260)

    def test_width_sets_the_canvas(self):
        content = forest_svg(or_report(), method="mmm", width=900)
        assert content.startswith("<svg")
        assert ET.fromstring(content).get("width") == "900"
