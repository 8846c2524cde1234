"""AVERROES case study: count-table ingestion, subject-level expansion and
the nine-hypothesis simultaneous analysis.

The published data are aggregated 2x2 counts per endpoint and subgroup.
``expand`` reconstructs a subject-level :class:`~mmminfer.linmodels.Dataset`
from them; composite endpoints declared as unions of base endpoints (the
trial's "Stroke" is ischemic-or-hemorrhagic stroke) are derived during
expansion by laying the base endpoints' events on disjoint subjects, so a
union's event count in any cell is the sum of its parts.  Base endpoints
that are not part of any union have no identified joint distribution; their
events are assigned from the start of each cell, which leaves every
marginal fit exact and is deterministic.

``analyze`` fits one logistic model per (group x endpoint) combination,
with the comparator arm coded 1 so odds ratios above 1 favor the test
drug, and reports unadjusted, Bonferroni and mmm one-sided inference in
one report.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType

import numpy as np

from .errors import InconsistentTotals, SchemaError
from .linmodels import Dataset, ModelSpec, fit_logit
from .mmm import infer
from .mvdist import QuadratureSettings
from .report import InferenceReport

__all__ = ["CountTable", "load_averroes", "expand", "analyze"]

AVERROES_UNIONS = {"Stroke": ("Ischemic", "Hemorrhag")}
AVERROES_GROUP_LABELS = {"all": "Global", "S1": "S1 (TIA)", "S2": "S2 (noTIA)"}


@dataclass(frozen=True)
class CountRow:
    treatment: str
    endpoint: str
    subgroup: str
    events: int
    non_events: int


class CountTable:
    """Aggregated event counts per (treatment, endpoint, subgroup) cell.

    The grid must be complete: every combination of the two treatments,
    each endpoint and each subgroup appears exactly once, and within one
    (treatment, subgroup) cell every endpoint implies the same number of
    subjects.  Global counts are derived by summing over subgroups, never
    stored.  ``unions`` maps composite endpoint names to the base endpoints
    they aggregate.
    """

    __slots__ = ("rows", "treatments", "endpoints", "subgroups", "unions", "_cells")

    def __init__(self, rows, unions=None, reference_level: str | None = None):
        rows = tuple(rows)
        if not rows:
            raise SchemaError("count table has no rows")
        for r in rows:
            if r.events < 0 or r.non_events < 0:
                raise SchemaError(f"negative count in {r}")
        treatments = sorted({r.treatment for r in rows})
        if len(treatments) != 2:
            raise SchemaError(f"need exactly 2 treatments, got {treatments}")
        if reference_level is not None:
            if reference_level not in treatments:
                raise SchemaError(f"unknown reference level {reference_level!r}")
            treatments = [reference_level] + [
                t for t in treatments if t != reference_level
            ]
        endpoints, subgroups = [], []
        for r in rows:
            if r.endpoint not in endpoints:
                endpoints.append(r.endpoint)
            if r.subgroup not in subgroups:
                subgroups.append(r.subgroup)
        cells = {}
        for r in rows:
            key = (r.treatment, r.endpoint, r.subgroup)
            if key in cells:
                raise SchemaError(f"duplicate cell {key}")
            cells[key] = (r.events, r.non_events)
        want = {
            (t, e, g) for t in treatments for e in endpoints for g in subgroups
        }
        if set(cells) != want:
            missing = sorted(want - set(cells))
            raise SchemaError(f"incomplete count grid, missing cells {missing[:4]}")
        for t in treatments:
            for g in subgroups:
                totals = {e: sum(cells[(t, e, g)]) for e in endpoints}
                if len(set(totals.values())) != 1:
                    raise InconsistentTotals(
                        f"cell ({t}, {g}): endpoint totals disagree: {totals}"
                    )
        unions = dict(unions or {})
        for name, parts in unions.items():
            if name in endpoints:
                raise SchemaError(f"union endpoint {name!r} clashes with a base endpoint")
            unknown = [p for p in parts if p not in endpoints]
            if unknown:
                raise SchemaError(f"union {name!r} refers to unknown endpoints {unknown}")
        self.rows = rows
        self.treatments = tuple(treatments)
        self.endpoints = tuple(endpoints)
        self.subgroups = tuple(subgroups)
        self.unions = MappingProxyType({k: tuple(v) for k, v in unions.items()})
        self._cells = cells

    def cell(self, treatment: str, endpoint: str, subgroup: str):
        """(events, non_events) for one base-endpoint cell."""
        return self._cells[(treatment, endpoint, subgroup)]

    def cell_size(self, treatment: str, subgroup: str) -> int:
        return sum(self._cells[(treatment, self.endpoints[0], subgroup)])

    @property
    def all_endpoints(self) -> tuple:
        """Base endpoints in table order, then union endpoints."""
        return self.endpoints + tuple(self.unions)

    @classmethod
    def read_csv(cls, source, unions=None, reference_level=None) -> "CountTable":
        """Read `treatment,endpoint,subgroup,events,non_events` rows."""
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source, newline="") as handle:
                raw = list(csv.DictReader(handle))
        else:
            raw = list(csv.DictReader(source))
        required = {"treatment", "endpoint", "subgroup", "events", "non_events"}
        if not raw or not required.issubset(raw[0].keys()):
            raise SchemaError(f"count CSV must have columns {sorted(required)}")
        rows = []
        for r in raw:
            try:
                rows.append(
                    CountRow(
                        treatment=r["treatment"].strip(),
                        endpoint=r["endpoint"].strip(),
                        subgroup=r["subgroup"].strip(),
                        events=int(r["events"]),
                        non_events=int(r["non_events"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"bad count row {r}: {exc}") from None
        return cls(rows, unions=unions, reference_level=reference_level)


def load_averroes() -> CountTable:
    """The packaged AVERROES count table (Apixaban as reference arm).

    Ischemic and hemorrhagic stroke counts are the published ones; the
    composite "Stroke" endpoint is derived as their disjoint union, which
    is the construction the published odds ratios are consistent with.
    """
    path = resources.files("mmminfer.data").joinpath("averroes_counts.csv")
    with path.open(newline="") as handle:
        return CountTable.read_csv(
            handle, unions=AVERROES_UNIONS, reference_level="Apixaban"
        )


def expand(table: CountTable) -> Dataset:
    """Subject-level dataset with one binary column per endpoint.

    Subjects are laid out reference arm first, subgroups in table order.
    Within a cell, base endpoints occupy disjoint leading blocks of
    subjects when any union is declared (unions are then exact sums of
    their parts); without unions each endpoint's events simply fill the
    cell from its start.
    """
    disjoint = bool(table.unions)
    columns = {e: [] for e in table.all_endpoints}
    flags = {g: [] for g in table.subgroups}
    treatment = []
    for t_code, t in enumerate(table.treatments):
        for g in table.subgroups:
            n = table.cell_size(t, g)
            offset = 0
            cell_cols = {}
            for e in table.endpoints:
                events, _ = table.cell(t, e, g)
                col = np.zeros(n)
                col[offset : offset + events] = 1.0
                if disjoint:
                    offset += events
                    if offset > n:
                        raise InconsistentTotals(
                            f"cell ({t}, {g}): union events exceed the "
                            f"{n} subjects available"
                        )
                cell_cols[e] = col
            for name, parts in table.unions.items():
                cell_cols[name] = np.clip(
                    np.sum([cell_cols[p] for p in parts], axis=0), 0.0, 1.0
                )
            for e in table.all_endpoints:
                columns[e].append(cell_cols[e])
            for other in table.subgroups:
                flags[other].append(np.full(n, 1.0 if other == g else 0.0))
            treatment.append(np.full(n, t_code, dtype=int))
    return Dataset(
        treatment=np.concatenate(treatment),
        treatment_levels=table.treatments,
        subgroups={g: np.concatenate(flags[g]) for g in table.subgroups},
        responses={e: np.concatenate(columns[e]) for e in table.all_endpoints},
    )


def analyze(
    table: CountTable,
    alpha: float = 0.05,
    settings: QuadratureSettings = QuadratureSettings(),
) -> InferenceReport:
    """One-sided simultaneous analysis over groups x endpoints.

    Fits one logistic model per combination of group (total population plus
    each subgroup) and endpoint, tests against the "greater" alternative
    (the reference arm is protective when the odds ratio exceeds 1), and
    reports unadjusted, Bonferroni and mmm conclusions side by side.
    """
    data = expand(table)
    models = [
        fit_logit(data, ModelSpec(endpoint=e, subset=s, family="binomial-logit"))
        for s in ("all",) + table.subgroups
        for e in table.all_endpoints
    ]
    return infer(
        models,
        "Simultaneous inference",
        alpha,
        "greater",
        "normal",
        settings,
        group_labels=AVERROES_GROUP_LABELS,
    )
