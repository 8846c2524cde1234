"""Monte Carlo study of familywise error rate and power.

Each scenario describes a two-arm gaussian trial with a targeted subgroup:
equal treatment arms, fixed subgroup counts (half-up rounding of the
target proportion per arm), an additive effect delta for treated subjects
of the targeted subgroup, and optionally a second, independently drawn
subgroup definition (overlap, Bernoulli membership at the same target
proportion) or a second correlated endpoint.  Replicate r draws from its
own stream, the stream of ``np.random.default_rng((seed, r))`` bit for bit,
overlap flags first, then the response noise, so results are reproducible,
replicates are independent, and ``generate(scenario, r)`` rebuilds any
single replicate as a ``Dataset``.  The streams are seeded a block of
replicates at a time (``_streams``): numpy's ``SeedSequence`` hashing runs
vectorized over the block, and one reused generator takes each replicate's
PCG64 state in turn.

``run`` evaluates one hypothesis family per scenario: "targeted-or-total"
tests the total population and the targeted subgroup, "any" adds the
complement(s).  A replicate counts as a rejection when at least one
relevant hypothesis is rejected; under delta = 0 every family hypothesis
is relevant (familywise error), under delta > 0 only hypotheses whose
treated subjects include affected ones are (power).  All tests are
two-sided at alpha = 0.05 by default.

``run`` works through the replicates in blocks.  For a block it seeds the
replicates' streams together, fills one (block, endpoints, n) array with
their noise, correlates the second endpoint, scales and shifts the whole
block in place, fits every marginal OLS model of every
replicate at once (``linmodels.fit_ols_batch``) and forms all score
correlations C_hat with one ``einsum`` (``mmm.score_correlation``).  The
cell-means critical value depends only on the design, so it is computed once
per design and reused by every run of it, under another seed or effect size.
The noadjust, Bonferroni and cell-means decisions then take one vectorized
call each (``contrasts.fit_cell_means`` fits the cell means and pooled SD of
the whole block), and the mmm variants one ``mmm.max_type_rejects`` call on a
(variants, block) stack of edges and laws over the block's C_hat stack, with
df ``inf`` for the normal-law variants (mmm and dfind); the ``mmm`` module
docstring describes its decision ladder, and ``SimResult.mmm_decisions``
counts each variant's decisions per rung (``DECISION_STAGES``).
The block size follows from the number of models and subjects so that no
(block, models, subjects) array exceeds 2**17 floats (1 MiB), whatever the
replicate count; the fit holds about eight such arrays at once, so a block
adds under 10 MB to peak memory.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from .contrasts import default_contrasts, fit_cell_means
from .errors import IncompatibleMethod, SchemaError
from .linmodels import Dataset, ModelSpec, fit_ols_batch
from .mmm import DECISION_STAGES, joint_scale, marginal_p, max_type_rejects, score_correlation
# mv_rect_prob stays bound here: perfbench/test_harness.py checks that the
# benchmark's tracer patches and restores this binding.
from .mvdist import QuadratureSettings, equicoordinate_quantile, mv_rect_prob  # noqa: F401

__all__ = [
    "METHODS",
    "FAMILIES",
    "DECISION_STAGES",
    "SIM_SETTINGS",
    "Scenario",
    "SimResult",
    "generate",
    "run",
    "power_curves",
    "power_cells",
    "paired_gain",
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
# first-order, pairwise and triplewise bounds of ``max_type_rejects`` leave
# open, which stop integrating once the estimate lies farther from 1 - alpha
# than both its error and 1e-3.
SIM_SETTINGS = QuadratureSettings(
    target_abs_error=5e-4, shifts=8, first_round_samples=64
)

_CELL_ROW_SUBSET = {"target": "S1", "complement": "S2", "total": "all"}

# Largest (block, models, subjects) float array of the block engine: 2**17
# entries, 1 MiB.  Larger blocks run no faster but raise peak memory.
_BLOCK_FLOATS = 2**17


def _half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _is_integer(x) -> bool:
    # bool is an int, but True is no count or seed
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
        # a wrong type fails here, not deep in numpy at ``run``, and never
        # runs as another value ("false" is truthy, True is 1)
        if not isinstance(self.overlap, (bool, np.bool_)):
            raise SchemaError(f"overlap must be a bool, got {self.overlap!r}")
        for name in ("total_n", "endpoints"):
            if not _is_integer(getattr(self, name)):
                raise SchemaError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("sd", "prop_target", "delta", "rho"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise SchemaError(f"{name} must be a real number, got {value!r}")
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
        # one uint32 entropy word per replicate index (see ``_streams``)
        reps, seed = self.replications, self.seed
        if not _is_integer(reps) or not 1 <= reps <= 2**32:
            raise SchemaError(f"replications must be an integer in 1..2**32, got {reps!r}")
        if not _is_integer(seed) or seed < 0:
            raise SchemaError(f"seed must be a nonnegative integer, got {seed!r}")
        object.__setattr__(self, "replications", int(reps))
        object.__setattr__(self, "seed", int(seed))
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
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise SchemaError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class SimResult:
    """Rejection counts per method for one scenario.

    ``mmm_decisions`` maps each mmm method to its decision counts per rung
    of the decision ladder, ``{stage: count}`` over ``DECISION_STAGES``.
    """

    scenario: Scenario
    rejections: dict = field(default_factory=dict)
    wall_time: float = 0.0
    mmm_decisions: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rejections", MappingProxyType(dict(self.rejections)))
        object.__setattr__(
            self,
            "mmm_decisions",
            MappingProxyType(
                {m: MappingProxyType(dict(c)) for m, c in self.mmm_decisions.items()}
            ),
        )
        bad = {
            m: k
            for m, k in self.rejections.items()
            if not 0 <= k <= self.scenario.replications
        }
        if bad:
            raise ValueError(f"rejection counts outside 0..replications: {bad}")

    def __reduce__(self):
        # the read-only views cannot be pickled directly
        decisions = {m: dict(c) for m, c in self.mmm_decisions.items()}
        return (
            type(self),
            (self.scenario, dict(self.rejections), self.wall_time, decisions),
        )

    @property
    def methods(self) -> tuple:
        return tuple(self.rejections)

    def proportion(self, method: str) -> float:
        return self.rejections[method] / self.scenario.replications

    def standard_error(self, method: str) -> float:
        """Monte Carlo standard error of ``proportion(method)``,
        sqrt(p (1 - p) / replications)."""
        p = self.proportion(method)
        return math.sqrt(p * (1.0 - p) / self.scenario.replications)

    @property
    def proportions(self) -> dict:
        return {m: self.proportion(m) for m in self.rejections}


def _layout(scenario: Scenario):
    """Treatment codes, primary subgroup flags and the mask of subjects the
    effect delta shifts (treated members of S1), reference arm first."""
    per_arm = scenario.arm_size
    k = scenario.target_per_arm
    treatment = np.repeat([0, 1], per_arm)
    s1 = np.tile(np.r_[np.ones(k), np.zeros(per_arm - k)], 2)
    return treatment, s1, (treatment == 1) & (s1 == 1.0)


# numpy's SeedSequence, whose pool holds 4 uint32 words, and PCG64's
# seeding step.
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list:
    """The uint32 entropy words of a nonnegative integer, least significant
    first, as ``SeedSequence`` splits it (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int, calls: int):
    """``SeedSequence``'s hashmix over uint32 arrays.  Its hash constant
    advances with every word hashed, independently of the data, so
    ``hashmix(values, k)`` hashes the next k words at once: row j of the
    (k, block) result takes the j-th constant from here."""
    consts = [const]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    used = 0

    def hashmix(values, k: int):
        nonlocal used
        values = (values ^ consts[used : used + k]) * consts[used + 1 : used + k + 1]
        used += k
        return values ^ values >> 16

    return hashmix


def _mix(x, y):
    """``SeedSequence``'s mix of two uint32 words."""
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ result >> 16


def _streams(seed: int, start: int, stop: int):
    """Yield, for each replicate r in start..stop-1, a generator whose stream
    is that of ``np.random.default_rng((seed, r))``, bit for bit.

    The ``SeedSequence((seed, r))`` entropy pools and their
    ``generate_state(4, np.uint64)`` words are hashed for the whole block in
    one vectorized uint32 pass; PCG64's set-seed step turns each into a
    state, and one ``Generator`` is reseeded in turn, so each yielded
    generator is valid until the next.  Every r must fit in one uint32 word.
    """
    seed_words = _words(int(seed))
    entropy = np.zeros((max(len(seed_words) + 1, _POOL_WORDS), stop - start), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = np.arange(start, stop)
    extra = entropy[_POOL_WORDS:]
    # mix_entropy: hash the first 4 words into the pool, mix each pool word
    # into the 3 others, then each remaining word into all 4.
    hashmix = _hasher(_INIT_A, _MULT_A, _POOL_WORDS**2 + _POOL_WORDS * len(extra))
    pool = hashmix(entropy[:_POOL_WORDS], _POOL_WORDS)
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], len(dst)))
    for word in extra:
        pool = _mix(pool, hashmix(word, _POOL_WORDS))
    # generate_state: 8 uint32 words cycling through the pool, read as 4
    # little-endian uint64 words.
    state32 = _hasher(_INIT_B, _MULT_B, 8)(np.tile(pool, (2, 1)), 8).astype(np.uint64)
    seeds = (state32[0::2] | state32[1::2] << np.uint64(32)).T.tolist()

    rng = np.random.Generator(np.random.PCG64(0))
    state = rng.bit_generator.state
    for hi, lo, seq_hi, seq_lo in seeds:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state["state"] = {
            "state": ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128,
            "inc": inc,
        }
        rng.bit_generator.state = state
        yield rng


def _draw(scenario: Scenario, rng, z):
    """Draw one replicate from ``rng``: its overlap flags, which it returns
    (None without overlap), then its standard normal noise into ``z``
    (endpoints, n)."""
    per_arm = scenario.arm_size
    s1b = None
    if scenario.overlap:
        while True:
            s1b = (rng.random(scenario.total_n) < scenario.prop_target).astype(float)
            by_arm = s1b.reshape(2, per_arm).sum(axis=1)
            if (by_arm >= 2).all() and (by_arm <= per_arm - 2).all():
                break
    rng.standard_normal(out=z)
    return s1b


def _draw_block(scenario: Scenario, start: int, stop: int, shift):
    """Overlap flags (block, n), or None without overlap, and responses
    (block, endpoints, n) of replicates start..stop-1; ``shift`` is the
    per-subject mean."""
    y = np.empty((stop - start, scenario.endpoints, scenario.total_n))
    flags = np.empty((stop - start, scenario.total_n)) if scenario.overlap else None
    for i, rng in enumerate(_streams(scenario.seed, start, stop)):
        s1b = _draw(scenario, rng, y[i])
        if flags is not None:
            flags[i] = s1b
    if scenario.endpoints == 2:
        rho = scenario.rho
        y[:, 1] = rho * y[:, 0] + math.sqrt(1.0 - rho**2) * y[:, 1]
    y *= scenario.sd
    y += shift
    return flags, y


def generate(scenario: Scenario, replicate_index: int) -> Dataset:
    """One replicate dataset, fully determined by (seed, replicate_index).

    Replicate r draws from the stream of ``np.random.default_rng((seed,
    r))``, seeded as ``run`` seeds it, so the dataset holds exactly the
    responses and flags that ``run`` sees for r.  Subjects are laid out
    reference arm first.  The primary subgroup S1 fills the leading
    ``target_per_arm`` slots of each arm; the overlap subgroup S1b is an
    independent Bernoulli membership draw with the same target proportion,
    redrawn until S1b and its complement both keep at least two subjects
    per arm (so every subset model stays estimable; the redraw probability
    is negligible beyond tiny designs).
    Draw order is fixed: overlap flags first, then response noise.
    """
    treatment, s1, affected = _layout(scenario)
    flags, y = _draw_block(
        scenario, replicate_index, replicate_index + 1, scenario.delta * affected
    )
    subgroups = {"S1": s1, "S2": 1.0 - s1}
    if flags is not None:
        subgroups["S1b"] = flags[0]
        subgroups["S2b"] = 1.0 - flags[0]
    return Dataset(
        treatment=treatment,
        treatment_levels=("control", "treatment"),
        subgroups=subgroups,
        responses=dict(zip(scenario.endpoint_names, y[0])),
    )


def _fixed_masks(s1) -> dict:
    """Membership masks of the subsets every replicate shares."""
    return {"all": np.ones(s1.shape, dtype=bool), "S1": s1 == 1.0, "S2": s1 == 0.0}


def _subset_masks(scenario: Scenario, s1, flags):
    """Membership masks (replicates or 1, subsets, n) of ``scenario.subsets``;
    ``flags`` holds the replicates' overlap flags, or None."""
    named = _fixed_masks(s1)
    if flags is None:
        return np.stack([named[s] for s in scenario.subsets])[None]
    named.update(S1b=flags == 1.0, S2b=flags == 0.0)
    return np.stack(
        [np.broadcast_to(named[s], flags.shape) for s in scenario.subsets], axis=1
    )


def _fit_block(scenario: Scenario, start: int, stop: int):
    """Responses, subject masks and marginal fits of replicates start..stop-1.

    Returns ``(y, used, fit)``: responses (block, endpoints, n), the subjects
    (block or 1, models, n) of each model of ``scenario.model_specs`` and the
    ``fit_ols_batch`` result over those models.
    """
    treatment, s1, affected = _layout(scenario)
    flags, y = _draw_block(scenario, start, stop, scenario.delta * affected)
    specs = scenario.model_specs
    subset = [scenario.subsets.index(spec.subset) for spec in specs]
    endpoint = [scenario.endpoint_names.index(spec.endpoint) for spec in specs]
    used = _subset_masks(scenario, s1, flags)[:, subset]
    fit = fit_ols_batch(y[:, endpoint], treatment, used, [spec.label for spec in specs])
    return y, used, fit


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


@functools.lru_cache(maxsize=32)
def _cellmeans_fixture(
    target_per_arm: int,
    arm_size: int,
    family: str,
    total_n: int,
    alpha: float,
    settings: QuadratureSettings,
):
    """Contrast rows, fixed critical value and row relevance subsets.

    Cell counts are fixed by the design, so the contrast correlation and
    the equicoordinate critical value are shared by every replicate, and
    computed once per design: a design run again, under another seed or
    effect size, reuses them.
    """
    k = target_per_arm
    counts = np.array([k, k, arm_size - k, arm_size - k])
    contrasts = default_contrasts(counts)
    if family == "targeted-or-total":
        contrasts = contrasts.restrict((0, 2))
    crit = equicoordinate_quantile(
        contrasts.correlation(counts),
        alpha,
        tail="two-sided",
        df=total_n - 4,
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
    relevant statistic falls at or below alpha.

    Replicates are processed in blocks (see the module docstring); replicate
    r always comes from the stream of ``default_rng((scenario.seed, r))``,
    so the counts do not depend on the block size.  Every rectangle that
    ``mmm.max_type_rejects`` integrates uses ``settings``.  The result
    counts each mmm method's decisions per rung (``mmm_decisions``).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    methods = _applicable_methods(scenario, methods)
    specs = scenario.model_specs
    labels = [spec.label for spec in specs]
    m = len(specs)
    mmm_modes = [name for name in methods if name in _MMM_MODES]
    treatment, s1, affected = _layout(scenario)
    if "cellmeans" in methods:
        contrasts, cm_crit, cm_subsets = _cellmeans_fixture(
            scenario.target_per_arm,
            scenario.arm_size,
            scenario.family,
            scenario.total_n,
            alpha,
            settings,
        )
        named = _fixed_masks(s1)
        cells = np.array(
            [named[g] & (treatment == code) for g in ("S1", "S2") for code in (0, 1)]
        )
        cm_unit_se = np.sqrt(np.diag(contrasts.gram(cells.sum(axis=1))))
        cm_live = np.array(
            [scenario.delta == 0.0 or (named[g] & affected).any() for g in cm_subsets]
        )

    started = time.perf_counter()
    counts = dict.fromkeys(methods, 0)
    stages = np.zeros((len(mmm_modes), len(DECISION_STAGES)), dtype=int)
    block = max(1, _BLOCK_FLOATS // (m * scenario.total_n))
    for start in range(0, scenario.replications, block):
        stop = min(start + block, scenario.replications)
        y, used, (coef, se, dfs, scores) = _fit_block(scenario, start, stop)
        stats = coef / se
        # The total population is in every family and holds the affected
        # subjects, so every replicate has a relevant hypothesis.
        if scenario.delta > 0.0:
            live = (used & affected).any(axis=-1)
        else:
            live = np.ones((1, m), dtype=bool)

        if "noadjust" in methods or "bonferroni" in methods:
            p_marginal = marginal_p(stats, dfs)
            for name, level in (("noadjust", alpha), ("bonferroni", alpha / m)):
                if name in counts:
                    counts[name] += int(((p_marginal <= level) & live).any(axis=1).sum())

        if "cellmeans" in methods:
            means, pooled_sd = fit_cell_means(y[:, 0], cells, "y1")
            ses = pooled_sd[:, None] * cm_unit_se
            cm_stats = np.abs((means @ contrasts.rows.T) / ses)[:, cm_live]
            counts["cellmeans"] += int((cm_stats.max(axis=1) > cm_crit).sum())

        if mmm_modes:
            c_hat = score_correlation(scores, labels)[1]
            # one (variants, block) stack of edges and laws, inf df = normal
            b = np.empty((len(mmm_modes), len(stats)))
            df = np.full_like(b, np.inf)
            for v, name in enumerate(mmm_modes):
                scaled, law = joint_scale(stats, dfs, _MMM_MODES[name])
                b[v] = np.where(live, np.abs(scaled), 0.0).max(axis=1)
                if law is not None:
                    df[v] = law
            rejects, stage = max_type_rejects(b, df, c_hat, alpha, settings)
            for v, name in enumerate(mmm_modes):
                counts[name] += int(rejects[v].sum())
                stages[v] += np.bincount(stage[v], minlength=len(DECISION_STAGES))

    return SimResult(
        scenario=scenario,
        rejections=counts,
        wall_time=time.perf_counter() - started,
        mmm_decisions={
            name: dict(zip(DECISION_STAGES, map(int, row)))
            for name, row in zip(mmm_modes, stages)
        },
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
    props = tuple(props)
    cells = [(delta, prop) for delta in deltas for prop in props]
    scenarios = power_cells(
        total_n, sd, cells, family, endpoints, rho, overlap, replications, seed
    )
    sums = {}
    for scenario in scenarios:
        result = run(scenario, methods=methods, alpha=alpha, settings=settings)
        for method, value in result.proportions.items():
            sums.setdefault(method, []).append(value)
    return {
        method: np.asarray(values).reshape(-1, len(props)).mean(axis=1)
        for method, values in sums.items()
    }


def power_cells(
    total_n: int,
    sd: float,
    cells,
    family: str = "targeted-or-total",
    endpoints: int = 1,
    rho: float = 0.0,
    overlap: bool = False,
    replications: int = 10_000,
    seed: int = 20150436,
) -> list:
    """One scenario per (delta, prop_target) cell of a power scan."""
    return [
        Scenario(
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
        for delta, prop in cells
    ]


def paired_gain(results, baseline: str, method: str) -> float:
    """Largest rejection-proportion difference, ``method`` minus
    ``baseline``, over the results of a power-gain scan's cells."""
    return max(
        (r.proportion(method) - r.proportion(baseline) for r in results),
        default=-math.inf,
    )


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
    scenarios = power_cells(
        total_n, sd, cells, family, endpoints, rho, replications=replications, seed=seed
    )
    results = (
        run(s, methods=[baseline, method], alpha=alpha, settings=settings)
        for s in scenarios
    )
    return paired_gain(results, baseline, method)


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
