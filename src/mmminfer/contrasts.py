"""Cell-means contrasts over a two-subgroup partition.

One gaussian endpoint is modelled by the four treatment-by-subgroup cell
means under a common error variance.  Cells are ordered by subgroup first
(target, then complement) and by treatment within subgroup (reference,
then test).  Contrast estimates are linear in the cell means, so their
joint correlation is a known function of the contrast rows and cell
counts alone (no score estimation), and the exact reference law is a
multivariate t with the pooled residual df.

The default contrast matrix carries three hypotheses: the treatment
effect inside the target subgroup, inside its complement, and in the
total population, the last weighting each arm's cell means by that arm's
subgroup composition.  ``ContrastMatrix.restrict`` keeps a subset of the
rows ("targeted or total", say), and with it the matching reference law.

``fit_cell_means`` fits a whole block of simulated replicates at once; it
is the fit behind the ``cellmeans`` comparator of ``simulate.run``.  The
package has no dataset-level cell-means test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError, ZeroVariance
from .mvdist import CorrelationMatrix

__all__ = ["CONTRAST_LABELS", "ContrastMatrix", "default_contrasts", "fit_cell_means"]

CONTRAST_LABELS = ("target", "complement", "total")


@dataclass(frozen=True)
class ContrastMatrix:
    """Named linear contrasts of the four cell means."""

    rows: np.ndarray = field(repr=False)
    labels: tuple

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
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


def fit_cell_means(y, cells, endpoint: str):
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
