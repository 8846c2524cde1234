"""Cell-means multiple contrast test over a two-subgroup partition.

One gaussian endpoint is modelled by the four treatment-by-subgroup cell
means under a common error variance.  Contrast estimates are linear in
the cell means, so their joint correlation is a known function of the
contrast rows and cell counts alone (no score estimation), and the exact
reference law is a multivariate t with the pooled residual df.

The default contrast matrix carries three hypotheses: the treatment
effect inside the target subgroup, inside its complement, and in the
total population, the last weighting each arm's cell means by that arm's
subgroup composition.  Testing a subset of hypotheses ("targeted or
total", say) restricts the reference law to the matching rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyCell, SchemaError, ZeroVariance
from .linmodels import Dataset
from .mmm import _interval, max_type_p
from .mvdist import CorrelationMatrix, QuadratureSettings, equicoordinate_quantile
from .report import HypothesisRow, InferenceReport, MethodCell

__all__ = [
    "CONTRAST_LABELS",
    "CellMeansModel",
    "ContrastMatrix",
    "fit_cell_means",
    "cell_moments",
    "default_contrasts",
    "cell_means_test",
]

CONTRAST_LABELS = ("target", "complement", "total")
ALTERNATIVES = ("two-sided", "greater", "less")

_MIN_CELL = 2


def _frozen(a, dtype=float):
    a = np.asarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CellMeansModel:
    """Two-way layout fitted as four cell means with a pooled error scale.

    Cells are ordered by subgroup first (target, then complement) and by
    treatment within subgroup (reference, then test): positions 0..3 hold
    (reference, target), (test, target), (reference, complement),
    (test, complement).
    """

    endpoint: str
    subgroup: str
    treatment_levels: tuple
    cell_means: np.ndarray
    cell_counts: np.ndarray
    pooled_sd: float
    residual_df: int

    def __post_init__(self):
        object.__setattr__(self, "cell_means", _frozen(self.cell_means))
        object.__setattr__(self, "cell_counts", _frozen(self.cell_counts, dtype=int))
        if self.cell_means.shape != (4,) or self.cell_counts.shape != (4,):
            raise SchemaError("cell means and counts must both have length 4")
        if self.pooled_sd <= 0.0:
            raise ZeroVariance(f"pooled sd must be positive, got {self.pooled_sd}")


@dataclass(frozen=True)
class ContrastMatrix:
    """Named linear contrasts of the four cell means."""

    rows: np.ndarray = field(repr=False)
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen(self.rows))
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if self.rows.ndim != 2 or self.rows.shape[1] != 4 or self.rows.shape[0] == 0:
            raise SchemaError(f"contrast rows must be (m, 4), got {self.rows.shape}")
        if not np.isfinite(self.rows).all():
            raise SchemaError("contrast rows must be finite")
        if np.any(np.all(self.rows == 0.0, axis=1)):
            raise SchemaError("contrast rows must be nonzero")
        if len(self.labels) != self.rows.shape[0]:
            raise SchemaError(
                f"{self.rows.shape[0]} rows need {self.rows.shape[0]} labels, "
                f"got {len(self.labels)}"
            )

    def restrict(self, family) -> "ContrastMatrix":
        """The sub-matrix holding only the rows indexed by ``family``."""
        family = tuple(family)
        if not family:
            raise SchemaError("family must name at least one contrast row")
        if len(set(family)) != len(family):
            raise SchemaError(f"family has repeated rows: {family}")
        bad = [k for k in family if not 0 <= k < self.rows.shape[0]]
        if bad:
            raise SchemaError(f"family rows {bad} out of range 0..{self.rows.shape[0] - 1}")
        idx = list(family)
        return ContrastMatrix(self.rows[idx], tuple(self.labels[k] for k in idx))

    def gram(self, cell_counts) -> np.ndarray:
        """C diag(1/n) C', the contrast covariance up to the error variance."""
        counts = np.asarray(cell_counts, dtype=float)
        if counts.shape != (4,) or np.any(counts <= 0):
            raise SchemaError(f"cell counts must be 4 positive values, got {counts}")
        scaled = self.rows / np.sqrt(counts)
        return scaled @ scaled.T

    def correlation(self, cell_counts) -> CorrelationMatrix:
        """Exact correlation of the contrast statistics for these counts."""
        g = self.gram(cell_counts)
        scale = 1.0 / np.sqrt(np.diag(g))
        return CorrelationMatrix(g * np.outer(scale, scale))


def default_contrasts(cell_counts) -> ContrastMatrix:
    """Target / complement / total contrasts for the given cell counts.

    The subgroup rows are plain differences.  The total row weights the
    reference cells by the reference arm's subgroup shares and the test
    cells by the test arm's, so it estimates the population-level effect
    of switching arms while keeping the observed subgroup mix of each arm.
    """
    n = np.asarray(cell_counts, dtype=float)
    if n.shape != (4,) or np.any(n <= 0):
        raise SchemaError(f"cell counts must be 4 positive values, got {n}")
    n_ref = n[0] + n[2]
    n_test = n[1] + n[3]
    rows = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [-n[0] / n_ref, n[1] / n_test, -n[2] / n_ref, n[3] / n_test],
        ]
    )
    return ContrastMatrix(rows, CONTRAST_LABELS)


def fit_cell_means(data: Dataset, endpoint: str, subgroup: str | None = None) -> CellMeansModel:
    """Cell averages and the pooled residual scale for one endpoint.

    ``subgroup`` names the target-subgroup flag column and defaults to the
    dataset's only subgroup; its complement forms the second factor level.
    Subjects with a missing response or membership flag are excluded.
    """
    y = data.responses.get(endpoint)
    if y is None:
        raise SchemaError(f"unknown endpoint {endpoint!r}")
    if subgroup is None:
        if len(data.subgroups) != 1:
            raise SchemaError(
                f"dataset has subgroups {list(data.subgroups)}, name one explicitly"
            )
        subgroup = next(iter(data.subgroups))
    elif subgroup not in data.subgroups:
        raise SchemaError(f"unknown subgroup {subgroup!r}")
    flag = data.subgroups[subgroup]
    used = ~np.isnan(y) & ~np.isnan(flag)
    cells = np.array(
        [
            used & (data.treatment == code) & ((flag == 1.0) == in_target)
            for code, in_target in ((0, True), (1, True), (0, False), (1, False))
        ]
    )
    counts = cells.sum(axis=1)
    for k, count in enumerate(counts):
        if count < _MIN_CELL:
            arm = data.treatment_levels[k % 2]
            part = subgroup if k < 2 else f"complement of {subgroup}"
            raise EmptyCell(
                f"cell ({arm}, {part}) has {count} subjects, needs {_MIN_CELL}"
            )
    means, pooled_sd = cell_moments(y, cells, endpoint)
    return CellMeansModel(
        endpoint=endpoint,
        subgroup=subgroup,
        treatment_levels=data.treatment_levels,
        cell_means=means,
        cell_counts=counts,
        pooled_sd=float(pooled_sd),
        residual_df=int(counts.sum()) - 4,
    )


def cell_moments(y, cells, endpoint: str):
    """Cell means and pooled residual SD of responses over four cells.

    ``y`` (..., n) holds one or more response vectors on a shared subject
    axis and ``cells`` (4, n) the disjoint boolean cell masks, each with at
    least two subjects; subjects in no cell are ignored.  Returns the cell
    means (..., 4) and the pooled SD (...), the square root of the
    within-cell residual sum of squares over its n - 4 degrees of freedom.
    """
    counts = cells.sum(axis=1)
    means = np.stack([np.where(c, y, 0.0).sum(axis=-1) for c in cells], axis=-1) / counts
    own_mean = means[..., np.argmax(cells, axis=0)]
    resid = np.where(cells.any(axis=0), y - own_mean, 0.0)
    rss = (resid * resid).sum(axis=-1)
    if np.any(rss <= 0.0):
        raise ZeroVariance(f"endpoint {endpoint!r} has zero within-cell variance")
    return means, np.sqrt(rss / (counts.sum() - 4))


def cell_means_test(
    model: CellMeansModel,
    contrasts: ContrastMatrix | None = None,
    family=None,
    alpha: float = 0.05,
    alternative: str = "two-sided",
    settings: QuadratureSettings = QuadratureSettings(),
) -> InferenceReport:
    """Joint test of a family of contrasts under the exact multivariate t.

    ``family`` selects rows of ``contrasts`` (default: all of them); the
    reference law is restricted to those rows, so the error rate is
    controlled over exactly the hypotheses being tested.
    """
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if contrasts is None:
        contrasts = default_contrasts(model.cell_counts)
    if family is not None:
        contrasts = contrasts.restrict(family)

    estimates = contrasts.rows @ model.cell_means
    ses = model.pooled_sd * np.sqrt(np.diag(contrasts.gram(model.cell_counts)))
    stats = estimates / ses
    corr = contrasts.correlation(model.cell_counts)

    p_adj = max_type_p(corr, stats, alternative, model.residual_df, settings)
    tail = "two-sided" if alternative == "two-sided" else "one-sided"
    crit = equicoordinate_quantile(
        corr, alpha, tail=tail, df=model.residual_df, settings=settings
    )
    lower, upper = _interval(estimates, crit * ses, alternative)

    rows = []
    for k, label in enumerate(contrasts.labels):
        cell = MethodCell(
            p=float(p_adj[k]),
            ci_lower=float(lower[k]),
            ci_upper=float(upper[k]),
            rejected=bool(p_adj[k] <= alpha),
        )
        rows.append(
            HypothesisRow(
                label=f"{label}:{model.endpoint}",
                group=label,
                endpoint=model.endpoint,
                estimate=float(estimates[k]),
                or_scale=False,
                methods={"cellmeans": cell},
            )
        )
    return InferenceReport(
        title=f"Cell-means contrast test: {model.endpoint}",
        alpha=alpha,
        alternative=alternative,
        df_mode=f"t({model.residual_df})",
        seed=settings.seed,
        quadrature_error=settings.target_abs_error,
        method_names=("cellmeans",),
        rows=tuple(rows),
    )
