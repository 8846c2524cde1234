"""Forest plot of an inference report as a standalone SVG document.

One row per hypothesis: the effect estimate as a square marker, the
chosen method's confidence interval as a horizontal segment, and an
arrowhead where a one-sided bound runs off the plotted range.  Odds-ratio
reports are drawn on a log axis with the no-effect line at 1, difference
reports on a linear axis with the line at 0.  The output is plain SVG
with no external references, so it renders anywhere.
"""

from __future__ import annotations

import math
from html import escape

from .report import InferenceReport, _format_bound, _interval_text

__all__ = ["forest_svg"]

FONT = "Helvetica, Arial, sans-serif"
FONT_SIZE = 13
CHAR_WIDTH = 0.62 * FONT_SIZE  # layout estimate for proportional text
AXIS_COLOR = "#333333"
CI_COLOR = "#1f3b66"
REFERENCE_COLOR = "#b34040"

_LOG_TICKS = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


def _linear_ticks(lo: float, hi: float, target: int = 6) -> list:
    span = hi - lo
    raw = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = next(
        m * magnitude for m in (1.0, 2.0, 2.5, 5.0, 10.0) if m * magnitude >= raw
    )
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 else value)
        value += step
    return ticks


def _tick_label(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


class _Scale:
    """Maps effect values to pixel x-positions, log or linear."""

    def __init__(self, rows, method):
        bounds = []
        for row in rows:
            cell = row.methods[method]
            bounds += [
                row.display_estimate(),
                row.display_bound(cell.ci_lower),
                row.display_bound(cell.ci_upper),
            ]
        self.log = all(row.or_scale for row in rows)
        reference = 1.0 if self.log else 0.0
        # an odds ratio's unbounded lower side shows as 0, off the log axis
        finite = [b for b in bounds if math.isfinite(b) and (b > 0 or not self.log)]
        finite.append(reference)
        if self.log:
            lo, hi = min(finite), max(finite)
            pad = (hi / lo) ** 0.08 if hi > lo else 1.25
            self.lo, self.hi = lo / pad, hi * pad
            self.ticks = [t for t in _LOG_TICKS if self.lo <= t <= self.hi]
        else:
            lo, hi = min(finite), max(finite)
            pad = 0.08 * (hi - lo) if hi > lo else 1.0
            self.lo, self.hi = lo - pad, hi + pad
            self.ticks = _linear_ticks(self.lo, self.hi)
        self.reference = reference
        self.x0 = 0.0
        self.x1 = 1.0

    def place(self, x0: float, x1: float):
        self.x0, self.x1 = x0, x1

    def __call__(self, value: float) -> float:
        if math.isinf(value):
            return self.x1 if value > 0 else self.x0
        if self.log:
            frac = math.log(value / self.lo) / math.log(self.hi / self.lo)
        else:
            frac = (value - self.lo) / (self.hi - self.lo)
        return self.x0 + frac * (self.x1 - self.x0)


def _text(x, y, content, anchor="start", weight=None, size=FONT_SIZE, color="#000"):
    style = f' font-weight="{weight}"' if weight else ""
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-family="{FONT}" font-size="{size}"'
        f' fill="{color}" text-anchor="{anchor}"{style}>{escape(content, quote=False)}</text>'
    )


def forest_svg(
    report: InferenceReport,
    method: str = "mmm",
    width: int = 840,
    row_height: int = 26,
) -> str:
    """Render one method's intervals from ``report`` as an SVG string."""
    if method not in report.method_names:
        raise ValueError(
            f"method {method!r} not in report (has {report.method_names})"
        )
    rows = report.rows
    if not rows:
        raise ValueError("report has no hypothesis rows")
    if any(r.or_scale != rows[0].or_scale for r in rows):
        raise ValueError("cannot mix odds-ratio and difference rows in one plot")

    scale = _Scale(rows, method)
    effect_name = "Odds ratio" if scale.log else "Effect"
    value_texts = [
        f"{_format_bound(r.display_estimate())} {_interval_text(r, r.methods[method])}"
        for r in rows
    ]
    group_width = CHAR_WIDTH * max(len(r.group) for r in rows) + 16
    endpoint_width = CHAR_WIDTH * max(len(r.endpoint) for r in rows) + 16
    value_width = CHAR_WIDTH * max(len(t) for t in value_texts) + 16
    plot_left = 16 + group_width + endpoint_width
    plot_right = width - value_width - 16
    if plot_right - plot_left < 120:
        raise ValueError("width too small for the row labels")
    scale.place(plot_left, plot_right)

    top = 3 * row_height  # title and column headers
    axis_y = top + len(rows) * row_height + 10
    height = axis_y + 3 * row_height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(16, row_height, report.title, weight="bold", size=FONT_SIZE + 2),
        _text(
            16,
            row_height + 18,
            f"{method}, {report.alternative}, alpha={report.alpha:g}",
            color="#555555",
            size=FONT_SIZE - 2,
        ),
        _text(16, top - 8, "Group", weight="bold"),
        _text(16 + group_width, top - 8, "Endpoint", weight="bold"),
        _text(
            plot_right + 8,
            top - 8,
            f"{effect_name} {100 * (1 - report.alpha):g}% CI",
            weight="bold",
        ),
    ]

    # no-effect reference line behind the rows
    ref_x = scale(scale.reference)
    parts.append(
        f'<line x1="{ref_x:.1f}" y1="{top - 4}" x2="{ref_x:.1f}" '
        f'y2="{axis_y}" stroke="{REFERENCE_COLOR}" stroke-dasharray="4 3"/>'
    )

    last_group = None
    for k, row in enumerate(rows):
        y = top + (k + 0.5) * row_height
        if row.group != last_group:
            parts.append(_text(16, y + 4, row.group))
            if k:
                sep = top + k * row_height
                parts.append(
                    f'<line x1="16" y1="{sep}" x2="{width - 16}" y2="{sep}" '
                    f'stroke="#dddddd"/>'
                )
        last_group = row.group
        parts.append(_text(16 + group_width, y + 4, row.endpoint))
        parts.append(_text(plot_right + 8, y + 4, value_texts[k]))

        cell = row.methods[method]
        lo = row.display_bound(cell.ci_lower)
        hi = row.display_bound(cell.ci_upper)
        x_lo, x_hi = scale(max(lo, scale.lo)), scale(min(hi, scale.hi))
        parts.append(
            f'<line x1="{x_lo:.1f}" y1="{y:.1f}" x2="{x_hi:.1f}" y2="{y:.1f}" '
            f'stroke="{CI_COLOR}" stroke-width="1.6" class="ci"/>'
        )
        for bound, at_edge, direction in ((lo, x_lo, -1), (hi, x_hi, 1)):
            if math.isinf(bound) or not scale.lo <= bound <= scale.hi:
                tip = at_edge + direction * 7
                parts.append(
                    f'<path d="M {tip:.1f} {y:.1f} L {at_edge:.1f} {y - 4:.1f} '
                    f'L {at_edge:.1f} {y + 4:.1f} Z" fill="{CI_COLOR}" class="arrow"/>'
                )
            else:
                parts.append(
                    f'<line x1="{at_edge:.1f}" y1="{y - 4:.1f}" x2="{at_edge:.1f}" '
                    f'y2="{y + 4:.1f}" stroke="{CI_COLOR}" stroke-width="1.6"/>'
                )
        x_est = scale(row.display_estimate())
        parts.append(
            f'<rect x="{x_est - 4:.1f}" y="{y - 4:.1f}" width="8" height="8" '
            f'fill="{CI_COLOR}" class="marker"/>'
        )

    parts.append(
        f'<line x1="{plot_left}" y1="{axis_y}" x2="{plot_right}" y2="{axis_y}" '
        f'stroke="{AXIS_COLOR}"/>'
    )
    for tick in scale.ticks:
        x = scale(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 5}" '
            f'stroke="{AXIS_COLOR}"/>'
        )
        parts.append(
            _text(x, axis_y + 20, _tick_label(tick), anchor="middle", size=FONT_SIZE - 1)
        )
    axis_title = f"{effect_name} (log scale)" if scale.log else effect_name
    parts.append(
        _text(
            (plot_left + plot_right) / 2,
            axis_y + 40,
            axis_title,
            anchor="middle",
        )
    )
    parts.append("</svg>")
    return "\n".join(parts)

