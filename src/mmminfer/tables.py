"""Published reference tables and the registry of what is checked against
them.

The CSV fixtures under ``data/published/`` hold the reported results: the
case-study inference table and the familywise-error-rate tables of the
simulation study, with values stored exactly as printed.  The registry
below says how ``mmminfer tables`` checks each of them:

* ``TABLE_DESIGNS`` maps each null familywise-error table to its published
  fixture and the :class:`~mmminfer.simulate.Scenario` fields of its design;
* ``POWER_CLAIMS`` lists the headline power gains over Bonferroni, which
  have no fixture of their own;
* ``cell_tolerance`` is the accepted distance between a published and a
  simulated rate;
* ``CASE_STUDY_TOLERANCES`` is the accepted distance between each column
  of the case-study table and the recomputed analysis.
"""

from __future__ import annotations

import csv
import math
from importlib import resources

__all__ = [
    "published_rows",
    "published_names",
    "TABLE_DESIGNS",
    "LEVEL_METHODS",
    "POWER_CLAIMS",
    "PUBLISHED_COLUMN",
    "cell_tolerance",
    "CASE_STUDY_TOLERANCES",
]

# Published tables use "ttest" for the Bonferroni-adjusted t tests.
PUBLISHED_COLUMN = {"bonferroni": "ttest"}

# ``published`` names the fixture holding each design's (N, prop) grid and
# reference rates; the other fields are Scenario fields.  a6_fwer_any is a
# byte copy of a6_fwer_tt, which holds targeted-or-total rates, so a6-any
# has no independent reference (``level_only``): its grid comes from the
# fixture, and only the methods in LEVEL_METHODS are checked, against alpha.
TABLE_DESIGNS = {
    "a3": dict(published="a3_fwer_tt", family="targeted-or-total"),
    "a4": dict(published="a4_fwer_any", family="any"),
    "a5": dict(published="a5_fwer_tt", family="targeted-or-total", overlap=True),
    "a5-any": dict(published="a5_fwer_any", family="any", overlap=True),
    "a6": dict(
        published="a6_fwer_tt", family="targeted-or-total", endpoints=2, rho=0.8
    ),
    "a6-any": dict(
        published="a6_fwer_any", level_only=True, family="any", endpoints=2, rho=0.8
    ),
}

# The methods that control the familywise error rate in every design.
LEVEL_METHODS = ("bonferroni", "mmm.dfmin", "mmm.dfind")

# Headline power gains: method pair, the grid cells where the published
# gain curve peaks, and the quoted value (percentage points / 100).
POWER_CLAIMS = (
    dict(
        label="mmm.dfind - bonferroni, 1 endpoint, N=50, sd=10",
        published=0.0547,
        total_n=50,
        sd=10.0,
        baseline="bonferroni",
        method="mmm.dfind",
        family="targeted-or-total",
        cells=((7, 0.8), (8, 0.8)),
    ),
    dict(
        label="cellmeans - bonferroni, N=20, sd=2",
        published=0.138,
        total_n=20,
        sd=2.0,
        baseline="bonferroni",
        method="cellmeans",
        family="any",
        cells=((3, 0.5), (4, 0.5)),
    ),
    dict(
        label="cellmeans - bonferroni, N=50, sd=2",
        published=0.06,
        at_least=True,
        total_n=50,
        sd=2.0,
        baseline="bonferroni",
        method="cellmeans",
        family="any",
        cells=((2, 0.5),),
    ),
    dict(
        label="mmm.dfind - bonferroni, 2 endpoints rho=0.8, N=50, sd=5",
        published=0.0835,
        total_n=50,
        sd=5.0,
        baseline="bonferroni",
        method="mmm.dfind",
        family="targeted-or-total",
        endpoints=2,
        rho=0.8,
        cells=((3, 0.8),),
    ),
    dict(
        label="mmm.dfind - bonferroni, 2 endpoints rho=0.8, N=50, sd=10",
        published=0.085,
        total_n=50,
        sd=10.0,
        baseline="bonferroni",
        method="mmm.dfind",
        family="targeted-or-total",
        endpoints=2,
        rho=0.8,
        cells=((7, 0.8),),
    ),
)


def cell_tolerance(published: float, reps: int) -> float:
    """Accepted |simulated - published| for one rate at ``reps`` replicates."""
    spread = max(published * (1.0 - published), 0.03)
    return max(4.0 * math.sqrt(spread * (1.0 / reps + 1e-4)), 0.008)


# Accepted |computed - published| per numeric column of a2_inference, the
# case-study table printed to two (odds ratio, bounds) and four (p) decimals;
# the p columns hold min(p, 1), and the mmm columns also carry the
# quadrature error budget.
CASE_STUDY_TOLERANCES = {
    "odds_ratio": 0.005,
    "noadjust_lower": 0.010,
    "noadjust_p": 0.001,
    "bonferroni_lower": 0.010,
    "bonferroni_p": 0.001,
    "mmm_lower": 0.015,
    "mmm_p": 0.003,
}


def _coerce(cell: str):
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def published_names() -> list[str]:
    """Names accepted by :func:`published_rows`."""
    root = resources.files("mmminfer.data.published")
    return sorted(
        entry.name[: -len(".csv")]
        for entry in root.iterdir()
        if entry.name.endswith(".csv")
    )


def published_rows(name: str) -> list[dict]:
    """Rows of one published table, numeric cells coerced to float."""
    root = resources.files("mmminfer.data.published")
    path = root.joinpath(f"{name}.csv")
    if not path.is_file():
        raise KeyError(f"no published table {name!r}; have {published_names()}")
    with path.open(newline="") as handle:
        return [
            {k: _coerce(v) for k, v in row.items()} for row in csv.DictReader(handle)
        ]
