"""Monte Carlo study of familywise error rate and power.

Each scenario describes a two-arm gaussian trial with a targeted subgroup:
equal treatment arms, fixed subgroup counts (half-up rounding of the
target proportion per arm), an additive effect delta for treated subjects
of the targeted subgroup, and optionally a second, independently drawn
subgroup definition (overlap, Bernoulli membership at the same target
proportion) or a second correlated endpoint.  Every replicate is
generated from its own RNG stream derived from ``(seed,
replicate_index)``, so results are reproducible and replicates are
independent.

``run`` evaluates one hypothesis family per scenario: "targeted-or-total"
tests the total population and the targeted subgroup, "any" adds the
complement(s).  A replicate counts as a rejection when at least one
relevant hypothesis is rejected; under delta = 0 every family hypothesis
is relevant (familywise error), under delta > 0 only hypotheses whose
treated subjects include affected ones are (power).  All tests are
two-sided at alpha = 0.05 by default.

Every mmm decision goes through ``mmm.max_type_rejects``.  Its exact bounds
p1 <= p_mmm <= m * p1 (p1 the closed-form tail of the largest relevant
statistic, m the stacked dimension) settle most replicates without
quadrature: all with m * p1 <= alpha reject and all with p1 > alpha
accept.  Under ``dfind`` the upper bound is the Bonferroni test of that
statistic, so a Bonferroni rejection is an ``mmm.dfind`` rejection by
construction.  Only the replicates between the bounds integrate, screened
at five times the caller's target error and re-evaluated at the caller's
settings when the screen lands near alpha.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy.special import stdtr

from .contrasts import default_contrasts, fit_cell_means
from .errors import IncompatibleMethod, SchemaError
from .linmodels import Dataset, ModelSpec, fit_ols
from .mmm import joint_scale, max_type_rejects, stack
# mv_rect_prob stays bound here: perfbench/test_harness.py checks that the
# benchmark's tracer patches and restores this binding.
from .mvdist import QuadratureSettings, equicoordinate_quantile, mv_rect_prob  # noqa: F401

__all__ = [
    "METHODS",
    "FAMILIES",
    "SIM_SETTINGS",
    "Scenario",
    "SimResult",
    "generate",
    "run",
    "power_curves",
    "power_gain",
    "load_scenarios",
]

METHODS = (
    "noadjust",
    "bonferroni",
    "cellmeans",
    "mmm",
    "mmm.dfmax",
    "mmm.dfmin",
    "mmm.dfind",
)
FAMILIES = ("targeted-or-total", "any")

_MMM_MODES = {
    "mmm": "normal",
    "mmm.dfmax": "dfmax",
    "mmm.dfmin": "dfmin",
    "mmm.dfind": "dfind",
}

# Quadrature noise well below Monte Carlo noise at 10,000 replicates; the
# noise is zero-mean in the rectangle value, so its effect on a rejection
# proportion is second order.  It touches only the replicates that the exact
# bounds of ``max_type_rejects`` leave open, whose loose screen runs at
# 2.5e-3 with these same shifts and seed.
SIM_SETTINGS = QuadratureSettings(
    target_abs_error=5e-4, shifts=8, first_round_samples=64
)

_CELL_ROW_SUBSET = {"target": "S1", "complement": "S2", "total": "all"}


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Scenario:
    """One simulation setting; fully determines every replicate."""

    total_n: int
    sd: float = 5.0
    prop_target: float = 0.5
    delta: float = 0.0
    endpoints: int = 1
    rho: float = 0.0
    overlap: bool = False
    family: str = "targeted-or-total"
    replications: int = 10_000
    seed: int = 20150436

    def __post_init__(self):
        if self.total_n < 8 or self.total_n % 2:
            raise SchemaError(f"total_n must be even and at least 8, got {self.total_n}")
        if not 0.0 < self.prop_target < 1.0:
            raise SchemaError(f"prop_target must be in (0, 1), got {self.prop_target}")
        if self.sd <= 0.0:
            raise SchemaError(f"sd must be positive, got {self.sd}")
        if self.delta < 0.0:
            raise SchemaError(f"delta must be nonnegative, got {self.delta}")
        if self.endpoints not in (1, 2):
            raise SchemaError(f"endpoints must be 1 or 2, got {self.endpoints}")
        if not -1.0 < self.rho < 1.0:
            raise SchemaError(f"rho must be in (-1, 1), got {self.rho}")
        if self.family not in FAMILIES:
            raise SchemaError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.replications < 1:
            raise SchemaError(f"replications must be positive, got {self.replications}")
        per_arm = self.arm_size
        k = self.target_per_arm
        if k < 2 or per_arm - k < 2:
            raise SchemaError(
                f"prop_target {self.prop_target} leaves a subgroup cell below "
                f"2 subjects per arm at total_n {self.total_n}"
            )

    @property
    def arm_size(self) -> int:
        return self.total_n // 2

    @property
    def target_per_arm(self) -> int:
        return _half_up(self.prop_target * self.arm_size)

    @property
    def endpoint_names(self) -> tuple:
        return ("y1",) if self.endpoints == 1 else ("y1", "y2")

    @property
    def subsets(self) -> tuple:
        """Model subsets for the scenario's family, total population first."""
        subsets = ["all", "S1"]
        if self.overlap:
            subsets.append("S1b")
        if self.family == "any":
            subsets.append("S2")
            if self.overlap:
                subsets.append("S2b")
        return tuple(subsets)

    @property
    def model_specs(self) -> tuple:
        return tuple(
            ModelSpec(endpoint=e, subset=s)
            for s in self.subsets
            for e in self.endpoint_names
        )

    def to_dict(self) -> dict:
        return {
            "total_n": self.total_n,
            "sd": self.sd,
            "prop_target": self.prop_target,
            "delta": self.delta,
            "endpoints": self.endpoints,
            "rho": self.rho,
            "overlap": self.overlap,
            "family": self.family,
            "replications": self.replications,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise SchemaError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class SimResult:
    """Rejection counts per method for one scenario."""

    scenario: Scenario
    rejections: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rejections", MappingProxyType(dict(self.rejections)))
        bad = {
            m: k
            for m, k in self.rejections.items()
            if not 0 <= k <= self.scenario.replications
        }
        if bad:
            raise ValueError(f"rejection counts outside 0..replications: {bad}")

    def __reduce__(self):
        # the read-only rejections view cannot be pickled directly
        return (type(self), (self.scenario, dict(self.rejections), self.wall_time))

    @property
    def methods(self) -> tuple:
        return tuple(self.rejections)

    def proportion(self, method: str) -> float:
        return self.rejections[method] / self.scenario.replications

    @property
    def proportions(self) -> dict:
        return {m: self.proportion(m) for m in self.rejections}


def generate(scenario: Scenario, replicate_index: int) -> Dataset:
    """One replicate dataset, fully determined by (seed, replicate_index).

    Subjects are laid out reference arm first.  The primary subgroup S1
    fills the leading ``target_per_arm`` slots of each arm; the overlap
    subgroup S1b is an independent Bernoulli membership draw with the
    same target proportion, redrawn until S1b and its complement both
    keep at least two subjects per arm (so every subset model stays
    estimable; the redraw probability is negligible beyond tiny designs).
    Draw order is fixed: overlap flags first, then response noise.
    """
    rng = np.random.default_rng((scenario.seed, replicate_index))
    per_arm = scenario.arm_size
    k = scenario.target_per_arm
    n = scenario.total_n
    treatment = np.repeat([0, 1], per_arm)
    s1 = np.tile(np.r_[np.ones(k), np.zeros(per_arm - k)], 2)
    subgroups = {"S1": s1, "S2": 1.0 - s1}
    if scenario.overlap:
        while True:
            s1b = (rng.random(n) < scenario.prop_target).astype(float)
            by_arm = s1b.reshape(2, per_arm).sum(axis=1)
            if (by_arm >= 2).all() and (by_arm <= per_arm - 2).all():
                break
        subgroups["S1b"] = s1b
        subgroups["S2b"] = 1.0 - s1b
    shift = scenario.delta * ((treatment == 1) & (s1 == 1.0))
    if scenario.endpoints == 1:
        responses = {"y1": scenario.sd * rng.standard_normal(n) + shift}
    else:
        z = rng.standard_normal((2, n))
        y2 = scenario.rho * z[0] + math.sqrt(1.0 - scenario.rho**2) * z[1]
        responses = {
            "y1": scenario.sd * z[0] + shift,
            "y2": scenario.sd * y2 + shift,
        }
    return Dataset(
        treatment=treatment,
        treatment_levels=("control", "treatment"),
        subgroups=subgroups,
        responses=responses,
    )


def _applicable_methods(scenario: Scenario, methods) -> tuple:
    if methods is None:
        methods = [
            m
            for m in METHODS
            if m != "cellmeans" or (not scenario.overlap and scenario.endpoints == 1)
        ]
    methods = tuple(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise SchemaError(f"unknown methods {unknown}, choose from {METHODS}")
    if not methods:
        raise SchemaError("need at least one method")
    if "cellmeans" in methods and (scenario.overlap or scenario.endpoints == 2):
        raise IncompatibleMethod(
            "cellmeans needs a single endpoint over one subgroup partition; "
            "it cannot model overlapping subgroups or multiple endpoints"
        )
    return methods


def _cellmeans_fixture(scenario: Scenario, alpha: float, settings):
    """Contrast rows, fixed critical value and row relevance subsets.

    Cell counts are fixed by the design, so the contrast correlation and
    the equicoordinate critical value are shared by every replicate.
    """
    k = scenario.target_per_arm
    counts = np.array([k, k, scenario.arm_size - k, scenario.arm_size - k])
    contrasts = default_contrasts(counts)
    if scenario.family == "targeted-or-total":
        contrasts = contrasts.restrict((0, 2))
    crit = equicoordinate_quantile(
        contrasts.correlation(counts),
        alpha,
        tail="two-sided",
        df=scenario.total_n - 4,
        settings=settings,
    )
    subsets = tuple(_CELL_ROW_SUBSET[label] for label in contrasts.labels)
    return contrasts, crit, subsets


def run(
    scenario: Scenario,
    methods=None,
    alpha: float = 0.05,
    settings: QuadratureSettings = SIM_SETTINGS,
) -> SimResult:
    """Estimate the familywise rejection proportion of each method.

    Under delta = 0 this is the familywise error rate; under delta > 0 it
    is power, counting only rejections of hypotheses whose treated
    subjects include affected ones.  The mmm variants stack exactly the
    family's models and reject when the adjusted p-value at the largest
    relevant statistic falls at or below alpha, decided by
    ``mmm.max_type_rejects``: exact bounds settle most replicates, and the
    rest integrate at a screen five times looser than ``settings`` and, near
    alpha, at ``settings`` itself, so the seed and shifts given here govern
    every rectangle evaluated.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    methods = _applicable_methods(scenario, methods)
    specs = scenario.model_specs
    m = len(specs)
    mmm_modes = [name for name in methods if name in _MMM_MODES]
    if "cellmeans" in methods:
        contrasts, cm_crit, cm_subsets = _cellmeans_fixture(scenario, alpha, settings)

    started = time.perf_counter()
    counts = dict.fromkeys(methods, 0)
    for r in range(scenario.replications):
        data = generate(scenario, r)
        models = [fit_ols(data, spec) for spec in specs]
        affected = (data.treatment == 1) & (data.subgroups["S1"] == 1.0)
        if scenario.delta > 0.0:
            relevant = {
                s: bool((data.subset_mask(s) & affected).any())
                for s in set(scenario.subsets)
            }
        else:
            relevant = dict.fromkeys(scenario.subsets, True)
        live = np.array([relevant[s.subset] for s in specs])
        if not live.any():
            continue

        stats = np.array([model.statistic for model in models])
        if "noadjust" in methods or "bonferroni" in methods:
            dfs = np.array([model.residual_df for model in models])
            p_marginal = 2.0 * stdtr(dfs[live], -np.abs(stats[live]))
            if "noadjust" in methods:
                counts["noadjust"] += bool((p_marginal <= alpha).any())
            if "bonferroni" in methods:
                counts["bonferroni"] += bool((p_marginal <= alpha / m).any())

        if "cellmeans" in methods:
            cm = fit_cell_means(data, "y1", "S1")
            estimates = contrasts.rows @ cm.cell_means
            ses = cm.pooled_sd * np.sqrt(np.diag(contrasts.gram(cm.cell_counts)))
            cm_live = np.array([relevant[s] for s in cm_subsets])
            if cm_live.any():
                largest = np.abs(estimates / ses)[cm_live].max()
                counts["cellmeans"] += bool(largest > cm_crit)

        if mmm_modes:
            fit = stack(models)
            for name in mmm_modes:
                scaled, df = joint_scale(
                    fit.statistics, fit.per_model_df, _MMM_MODES[name]
                )
                b = np.abs(scaled[live]).max()
                counts[name] += max_type_rejects(fit.c_hat, b, df, alpha, settings)

    return SimResult(
        scenario=scenario,
        rejections=counts,
        wall_time=time.perf_counter() - started,
    )


def power_curves(
    total_n: int,
    sd: float,
    deltas=tuple(range(11)),
    props=(0.5, 0.6, 0.7, 0.8),
    family: str = "targeted-or-total",
    endpoints: int = 1,
    rho: float = 0.0,
    overlap: bool = False,
    methods=None,
    replications: int = 10_000,
    seed: int = 20150436,
    alpha: float = 0.05,
    settings: QuadratureSettings = SIM_SETTINGS,
) -> dict:
    """Rejection proportion per method and effect size, averaged over props.

    Every (delta, proportion) cell reuses the same base seed, so cells share
    their noise draws and differences between methods or effect sizes are
    paired comparisons.  Returns ``{method: array over deltas}``; the entry
    at delta = 0 is the familywise error rate.
    """
    sums = {}
    for delta in deltas:
        for prop in props:
            scenario = Scenario(
                total_n=total_n,
                sd=sd,
                prop_target=prop,
                delta=float(delta),
                endpoints=endpoints,
                rho=rho,
                overlap=overlap,
                family=family,
                replications=replications,
                seed=seed,
            )
            result = run(scenario, methods=methods, alpha=alpha, settings=settings)
            for method, value in result.proportions.items():
                sums.setdefault(method, []).append(value)
    n_props = len(tuple(props))
    return {
        method: np.asarray(values).reshape(-1, n_props).mean(axis=1)
        for method, values in sums.items()
    }


def power_gain(
    total_n: int,
    sd: float,
    baseline: str,
    method: str,
    cells,
    family: str = "targeted-or-total",
    endpoints: int = 1,
    rho: float = 0.0,
    replications: int = 10_000,
    seed: int = 20150436,
    alpha: float = 0.05,
    settings: QuadratureSettings = SIM_SETTINGS,
) -> float:
    """Largest paired power advantage of ``method`` over ``baseline``.

    ``cells`` lists the (delta, prop_target) settings to scan; both methods
    see identical replicates within a cell, so each difference is a paired
    estimate.  Scanning the grid cells where a gain curve peaks reproduces
    the headline "gain of power" figures.
    """
    best = -math.inf
    for delta, prop in cells:
        result = run(
            Scenario(
                total_n=total_n,
                sd=sd,
                prop_target=prop,
                delta=float(delta),
                endpoints=endpoints,
                rho=rho,
                family=family,
                replications=replications,
                seed=seed,
            ),
            methods=[baseline, method],
            alpha=alpha,
            settings=settings,
        )
        best = max(best, result.proportion(method) - result.proportion(baseline))
    return best


def load_scenarios(source) -> list:
    """Read scenarios from JSON: a list of objects or {"scenarios": [...]}.

    Each object holds Scenario fields; ``total_n`` is required, everything
    else takes the dataclass default.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source) as handle:
            raw = json.load(handle)
    else:
        raw = json.load(source)
    if isinstance(raw, dict):
        raw = raw.get("scenarios")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("scenario JSON must hold a non-empty list of scenarios")
    out = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise SchemaError(f"scenario entries must be objects, got {entry!r}")
        out.append(Scenario.from_dict(entry))
    return out
