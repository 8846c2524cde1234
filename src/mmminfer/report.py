"""Inference reports: per-hypothesis estimates, p-values, simultaneous
bounds and decisions, with JSON and aligned-text serialization.

A report holds one row per hypothesis and one column block per method
(typically the unadjusted baseline, Bonferroni and mmm), mirroring the
layout of the case-study inference table: group, endpoint, effect size,
then a confidence bound and p-value per method.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

__all__ = ["MethodCell", "HypothesisRow", "InferenceReport"]


@dataclass(frozen=True)
class MethodCell:
    """One method's answer for one hypothesis."""

    p: float
    ci_lower: float
    ci_upper: float
    rejected: bool


@dataclass(frozen=True)
class HypothesisRow:
    """One hypothesis: its estimate and every method's verdict.

    ``estimate`` is on the coefficient scale (mean difference or log odds
    ratio); ``or_scale`` marks rows whose display and JSON forms are
    exponentiated (logit models).
    """

    label: str
    group: str
    endpoint: str
    estimate: float
    or_scale: bool
    methods: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "methods", MappingProxyType(dict(self.methods)))

    def display_estimate(self) -> float:
        return math.exp(self.estimate) if self.or_scale else self.estimate

    def display_bound(self, value: float) -> float:
        return math.exp(value) if self.or_scale else value


def _json_number(x):
    if x is None or math.isnan(x):
        return None
    if math.isinf(x):
        return None
    return round(float(x), 10)


def _format_bound(x):
    if math.isinf(x):
        return "Inf" if x > 0 else "-Inf"
    return f"{x:.2f}"


def _interval_text(row: HypothesisRow, cell: MethodCell) -> str:
    """``[lower, upper]`` of one cell on its row's display scale, to two
    decimals.  A side infinite on the model scale is open, also where the
    display maps it to a finite number (exp(-inf) = 0 for an odds ratio)."""
    lower, upper = (row.display_bound(b) for b in (cell.ci_lower, cell.ci_upper))
    left = "(" if math.isinf(cell.ci_lower) else "["
    right = ")" if math.isinf(cell.ci_upper) else "]"
    return f"{left}{_format_bound(lower)}, {_format_bound(upper)}{right}"


@dataclass(frozen=True)
class InferenceReport:
    """Joint inference table for one family of hypotheses."""

    title: str
    alpha: float
    alternative: str
    df_mode: str
    seed: int
    quadrature_error: float
    method_names: tuple
    rows: tuple

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "alpha": self.alpha,
            "alternative": self.alternative,
            "df_mode": self.df_mode,
            "seed": self.seed,
            "quadrature_error": self.quadrature_error,
            "methods": list(self.method_names),
            "hypotheses": [
                {
                    "label": r.label,
                    "group": r.group,
                    "endpoint": r.endpoint,
                    "estimate": _json_number(r.estimate),
                    "effect": _json_number(r.display_estimate()),
                    "or_scale": r.or_scale,
                    "methods": {
                        name: {
                            "p": _json_number(cell.p),
                            "ci_lower": _json_number(r.display_bound(cell.ci_lower)),
                            "ci_upper": _json_number(r.display_bound(cell.ci_upper)),
                            "rejected": cell.rejected,
                        }
                        for name, cell in r.methods.items()
                    },
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        """Aligned table: group, endpoint, effect, then CI and p per method."""
        # a mixed table also holds mean differences, so only all-logit says OR
        effect_header = "OR" if {r.or_scale for r in self.rows} == {True} else "effect"
        header = ["Group", "Endpoint", effect_header]
        for name in self.method_names:
            header += [f"{name} {100 * (1 - self.alpha):g}% CI", "p"]
        table = [header]
        last_group = None
        for r in self.rows:
            group = "" if r.group == last_group else r.group
            last_group = r.group
            line = [group, r.endpoint, f"{r.display_estimate():.2f}"]
            for name in self.method_names:
                cell = r.methods[name]
                line += [_interval_text(r, cell), f"{cell.p:.4f}"]
            table.append(line)
        widths = [max(len(row[k]) for row in table) for k in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip()
            for row in table
        ]
        lines.insert(1, "-" * max(len(x) for x in lines))
        title = f"{self.title}  (alpha={self.alpha:g}, {self.alternative}, {self.df_mode})"
        return "\n".join([title, *lines])
