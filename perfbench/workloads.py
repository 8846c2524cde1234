"""Workloads of the mmminfer benchmark and the checks on their outputs.

Each workload has the same shape: ``warm_up()`` once, then operations
``op(k)`` for k = 1, 2, ..., each checked by ``check(output)``, and last
``check_run(outputs)`` over the whole run.  The checks compare against the
published reference tables shipped with the package.  Outputs are plain
data (JSON-ready) so a run can record exactly what it computed.

The scenario rows and the replicate-count tolerance below are the
benchmark's own copies; they are deliberately not imported from the
command-line module, whose tables are due to move.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from mmminfer import casestudy, forest, mvdist, simulate
from mmminfer.tables import published_rows

ALPHA = 0.05
ROW_N = 50
ROW_PROP = 0.6
SD = 5.0

# Null FWER designs: published table and Scenario fields.  The two a6
# tables are byte-for-byte copies of each other, and their values match the
# targeted-or-total family, not "any" (see README.md).  a6-any is therefore
# checked against the nominal level instead, and no a6 targeted-or-total row
# is run, so neither copy is used.
DESIGNS = {
    "a3": dict(table="a3_fwer_tt", family="targeted-or-total"),
    "a4": dict(table="a4_fwer_any", family="any"),
    "a5-any": dict(table="a5_fwer_any", family="any", overlap=True),
    "a6-any": dict(table=None, family="any", endpoints=2, rho=0.8),
}
# Methods whose familywise error the paper expects at or below alpha; the
# check for a design without a trustworthy table.
LEVEL_METHODS = ("bonferroni", "mmm.dfmin", "mmm.dfind")
# Published tables call the Bonferroni-adjusted t tests "ttest".
PUBLISHED_COLUMN = {"bonferroni": "ttest"}

# AVERROES acceptance tolerances: odds ratios to 2 decimals; per method,
# (lower bound, p-value).  mmm carries the quadrature error budget.
OR_TOLERANCE = 0.005
CASE_TOLERANCES = {
    "noadjust": (0.010, 0.001),
    "bonferroni": (0.010, 0.001),
    "mmm": (0.015, 0.003),
}


def cell_tolerance(published: float, reps: int) -> float:
    """Allowed |simulated - published| for one FWER cell at ``reps``.

    About four combined standard errors: this run's binomial error plus the
    reference's own at 10 000 replications, floored for display rounding.
    """
    spread = max(published * (1.0 - published), 0.03)
    return max(4.0 * math.sqrt(spread * (1.0 / reps + 1e-4)), 0.008)


def op_seed(seed: int, k: int) -> int:
    """Scenario seed of operation k: distinct replicates for every operation."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def fill_point_cache(dim: int, settings, df: int | None = None) -> None:
    """Grow the scrambled-Sobol cache for ``dim`` to its sample cap.

    A rectangle with an unreachable target draws every point a call with
    these settings can use, and allocates the largest integrand arrays.  Run
    in the warm-up, it keeps both the one-off point draws and the memory
    peak they set out of the timed operations, whose own sample sizes vary
    with the seed.
    """
    corr = mvdist.CorrelationMatrix(np.full((dim, dim), 0.5) + 0.5 * np.eye(dim))
    mvdist.mv_rect_prob(
        corr,
        np.full(dim, -np.inf),
        np.full(dim, 2.0),
        df=df,
        settings=replace(settings, target_abs_error=1e-12),
    )


class Averroes:
    """One full case-study analysis plus its text, JSON and SVG rendering.

    The workload seed is the QMC scramble seed; everything else is the
    packaged AVERROES table at the default accuracy target.
    """

    def __init__(self, seed: int, settings: mvdist.QuadratureSettings | None = None):
        self.table = casestudy.load_averroes()
        self.settings = settings or mvdist.QuadratureSettings(seed=seed)
        self.reference = [
            ((row["group"], row["endpoint"]), row)
            for row in published_rows("a2_inference")
        ]

    def describe(self) -> str:
        s = self.settings
        return (
            f"one AVERROES analysis + rendering per op "
            f"(QMC seed {s.seed}, target {s.target_abs_error:g})"
        )

    def warm_up(self) -> None:
        fill_point_cache(len(self.reference), self.settings)

    def op(self, k: int) -> dict:
        report = casestudy.analyze(self.table, alpha=ALPHA, settings=self.settings)
        text = report.to_text()
        payload = report.to_json()
        svg = forest.forest_svg(report, method="mmm")
        return {
            "hypotheses": [
                {
                    "group": row.group.split(" ")[0],
                    "endpoint": row.endpoint,
                    "odds_ratio": row.display_estimate(),
                    "methods": {
                        name: {
                            "p": cell.p,
                            "lower": row.display_bound(cell.ci_lower),
                            "upper_open": math.isinf(cell.ci_upper) and cell.ci_upper > 0,
                            "rejected": cell.rejected,
                        }
                        for name, cell in row.methods.items()
                    },
                }
                for row in report.rows
            ],
            "rendered": {
                "text_lines": text.count("\n") + 1,
                "json_rows": len(json.loads(payload)["hypotheses"]),
                "svg": svg.startswith("<svg") and svg.rstrip().endswith("</svg>"),
            },
        }

    def check(self, output: dict) -> list[str]:
        """Failures of one analysis against the published inference table."""
        rows = output["hypotheses"]
        keys = [(r["group"], r["endpoint"]) for r in rows]
        if keys != [key for key, _ in self.reference]:
            return [f"layout {keys}"]
        failures = []
        for row, (key, ref) in zip(rows, self.reference):
            if abs(row["odds_ratio"] - ref["odds_ratio"]) > OR_TOLERANCE:
                failures.append(f"{key} odds ratio {row['odds_ratio']:.4f}")
            for name, (lower_tol, p_tol) in CASE_TOLERANCES.items():
                cell = row["methods"][name]
                if abs(cell["lower"] - ref[f"{name}_lower"]) > lower_tol:
                    failures.append(f"{key} {name} lower {cell['lower']:.4f}")
                if abs(min(cell["p"], 1.0) - ref[f"{name}_p"]) > p_tol:
                    failures.append(f"{key} {name} p {cell['p']:.5f}")
                expected = ref[f"{name}_p"] <= ALPHA
                if cell["rejected"] != expected or cell["rejected"] != (cell["p"] <= ALPHA):
                    failures.append(f"{key} {name} decision {cell['rejected']}")
                if not cell["upper_open"]:
                    failures.append(f"{key} {name} upper bound is not +inf")
        rendered = output["rendered"]
        if rendered["json_rows"] != len(self.reference) or not rendered["svg"]:
            failures.append(f"rendering {rendered}")
        if rendered["text_lines"] != len(self.reference) + 3:
            failures.append(f"text report has {rendered['text_lines']} lines")
        return failures

    def check_run(self, outputs: list) -> list[str]:
        """Same seed, same output: every analysis of the run is identical."""
        if any(output != outputs[0] for output in outputs[1:]):
            return ["analyses with the same seed differ"]
        return []


class Fwer:
    """Null familywise-error rows, every applicable method, in small blocks.

    ``reps`` maps each design to its replicates per operation.  Operation k
    simulates them under the scenario seed ``op_seed(seed, k)``, so
    operations never repeat replicates and a run's outputs depend on the
    workload seed alone.  Blocks are small so that a run holds many
    operations, each timed against the host's speed at that moment.  Rates
    are checked on the counts pooled over the run, where the tolerance is
    meaningful; each block is checked for shape and for the Bonferroni <=
    unadjusted ordering that holds replicate by replicate.
    """

    def __init__(self, reps: dict, seed: int):
        self.seed = seed
        self.rows = {}
        self.reference = {}
        for design, count in reps.items():
            fields = dict(DESIGNS[design])
            table = fields.pop("table")
            self.rows[design] = simulate.Scenario(
                total_n=ROW_N, prop_target=ROW_PROP, sd=SD, replications=count, **fields
            )
            if table is not None:
                (self.reference[design],) = [
                    row
                    for row in published_rows(table)
                    if row["N"] == ROW_N and row["prop_targ"] == ROW_PROP
                ]

    @property
    def reps_per_op(self) -> int:
        return sum(s.replications for s in self.rows.values())

    def describe(self) -> str:
        rows = ", ".join(f"{s.replications} of {d}" for d, s in self.rows.items())
        return f"null replicates per op: {rows} (N={ROW_N}, prop {ROW_PROP})"

    def warm_up(self) -> None:
        """Fill the point caches of every row's dimension, then one block."""
        for scenario in self.rows.values():
            dim = len(scenario.model_specs)
            for df in (None, scenario.total_n):
                fill_point_cache(dim, simulate.SIM_SETTINGS, df)
        self.op(0)

    def op(self, k: int) -> dict:
        seed = op_seed(self.seed, k)
        return {
            "seed": seed,
            "rejections": {
                design: dict(simulate.run(replace(scenario, seed=seed)).rejections)
                for design, scenario in self.rows.items()
            },
        }

    def check(self, output: dict) -> list[str]:
        """Failures of one block: methods, count range and ordering."""
        failures = []
        for design, counts in output["rejections"].items():
            scenario = self.rows[design]
            expected = [
                m
                for m in simulate.METHODS
                if m != "cellmeans" or not (scenario.overlap or scenario.endpoints > 1)
            ]
            if sorted(counts) != sorted(expected):
                failures.append(f"{design} methods {sorted(counts)}")
            elif not all(0 <= c <= scenario.replications for c in counts.values()):
                failures.append(f"{design} counts out of range {counts}")
            elif counts["bonferroni"] > counts["noadjust"]:
                failures.append(f"{design} bonferroni rejects more than noadjust")
        return failures

    def check_run(self, outputs: list) -> list[str]:
        """Failures of the rates pooled over every block of the run."""
        failures = []
        for design, scenario in self.rows.items():
            reps = len(outputs) * scenario.replications
            reference = self.reference.get(design)
            for method in outputs[0]["rejections"][design]:
                rate = sum(o["rejections"][design].get(method, 0) for o in outputs) / reps
                if reference is not None:
                    target = reference[PUBLISHED_COLUMN.get(method, method)]
                    ok = abs(rate - target) <= cell_tolerance(target, reps)
                elif method in LEVEL_METHODS:
                    target = ALPHA
                    ok = rate <= ALPHA + cell_tolerance(ALPHA, reps)
                else:
                    continue
                if not ok:
                    failures.append(f"{design} {method} {rate:.4f} vs {target:.4f} ({reps} reps)")
        return failures


def build(seed: int) -> dict:
    """Every workload of the benchmark, inputs loaded, keyed by name."""
    return {
        "averroes": Averroes(seed),
        # a3 dominates so per-replicate overhead, not the dimension-3 rule,
        # holds most of the time; a4 keeps the dimension-3 path in the mix.
        "fwer_lowdim": Fwer({"a3": 480, "a4": 40}, seed=seed),
        "fwer_highdim": Fwer({"a5-any": 10, "a6-any": 10}, seed=seed),
    }
