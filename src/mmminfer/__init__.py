"""Simultaneous inference across subgroups and endpoints.

The package tests treatment effects jointly over a total population, its
subgroups and multiple endpoints: marginal models are stacked through
their score contributions (``mmm``) and evaluated under the multivariate
normal or t reference their estimated correlation implies.  A Monte Carlo
harness estimates familywise error rate and power, comparing the mmm
variants with no adjustment, Bonferroni and a cell-means multiple
contrast test, and a case-study module reanalyzes the AVERROES trial
from its published count table.
"""

from mmminfer.casestudy import analyze, load_averroes
from mmminfer.linmodels import Dataset, ModelSpec, fit, read_dataset
from mmminfer.mmm import adjusted_p, simultaneous_ci, stack
from mmminfer.mvdist import (
    CorrelationMatrix,
    QuadratureSettings,
    equicoordinate_quantile,
    mv_rect_prob,
)
from mmminfer.simulate import Scenario, power_curves, run

__version__ = "0.1.0"

__all__ = [
    "CorrelationMatrix",
    "Dataset",
    "ModelSpec",
    "QuadratureSettings",
    "Scenario",
    "adjusted_p",
    "analyze",
    "equicoordinate_quantile",
    "fit",
    "load_averroes",
    "mv_rect_prob",
    "power_curves",
    "read_dataset",
    "run",
    "simultaneous_ci",
    "stack",
    "__version__",
]
