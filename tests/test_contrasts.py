"""Tests for the cell-means contrasts and the block cell fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.special import stdtr

import mmminfer
from mmminfer import contrasts, errors, simulate
from mmminfer.contrasts import ContrastMatrix, default_contrasts, fit_cell_means
from mmminfer.errors import SchemaError, ZeroVariance
from mmminfer.linmodels import Dataset, ModelSpec, fit_ols
from mmminfer.mmm import max_type_p, stack
from mmminfer.mvdist import QuadratureSettings, equicoordinate_quantile

FAST = QuadratureSettings(target_abs_error=5e-4, shifts=8, first_round_samples=64)


def partitioned_dataset(rng, n=80, target_fraction=0.4, delta=0.0, sd=1.0):
    """Balanced two-arm dataset with one flag splitting target/complement."""
    in_target = np.zeros(n)
    in_target[: round(n * target_fraction)] = 1.0
    treatment = np.tile([0, 1], n // 2 + 1)[:n]
    y = rng.normal(0.0, sd, size=n) + delta * treatment * in_target
    return Dataset(
        treatment=treatment,
        treatment_levels=("control", "active"),
        subgroups={"S1": in_target},
        responses={"y": y},
    )


def cell_masks(data):
    """The (4, n) cell masks of a dataset split by its "S1" flag, ordered
    (reference, target), (test, target), (reference, complement),
    (test, complement)."""
    in_target = data.subgroups["S1"] == 1.0
    return np.array(
        [
            (data.treatment == code) & (in_target == target)
            for target in (True, False)
            for code in (0, 1)
        ]
    )


def explicit_cells(values_by_cell):
    """Responses and cell masks from explicit per-cell value lists; values
    listed after the fourth cell belong to no cell."""
    y = np.concatenate([np.asarray(v, dtype=float) for v in values_by_cell])
    owner = np.repeat(np.arange(len(values_by_cell)), [len(v) for v in values_by_cell])
    return y, owner == np.arange(4)[:, None]


def comparator(data, family=None):
    """The cell-means comparator's contrasts, cell counts, estimates, standard
    errors and residual df on one dataset, formed as ``simulate.run`` forms
    them for a block."""
    cells = cell_masks(data)
    means, pooled_sd = fit_cell_means(data.responses["y"], cells, "y")
    counts = cells.sum(axis=1)
    matrix = default_contrasts(counts)
    if family is not None:
        matrix = matrix.restrict(family)
    estimates = matrix.rows @ means
    ses = pooled_sd * np.sqrt(np.diag(matrix.gram(counts)))
    return matrix, counts, estimates, ses, int(counts.sum()) - 4


class TestFit:
    def test_means_and_counts(self):
        y, cells = explicit_cells([(1.0, 3.0), (2.0, 4.0), (0.0, 6.0), (5.0, 7.0)])
        means, pooled_sd = fit_cell_means(y, cells, "y")
        assert means == pytest.approx([2.0, 3.0, 3.0, 6.0])
        assert list(cells.sum(axis=1)) == [2, 2, 2, 2]
        # within-cell squared deviations: 2, 2, 18, 2 on 4 residual df
        assert pooled_sd == pytest.approx(math.sqrt((2.0 + 2.0 + 18.0 + 2.0) / 4))

    def test_means_match_groupwise_averages(self):
        rng = np.random.default_rng(7)
        data = partitioned_dataset(rng, n=120)
        means, _ = fit_cell_means(data.responses["y"], cell_masks(data), "y")
        flag = data.subgroups["S1"]
        for k, (code, tgt) in enumerate([(0, 1.0), (1, 1.0), (0, 0.0), (1, 0.0)]):
            mask = (data.treatment == code) & (flag == tgt)
            assert means[k] == pytest.approx(data.responses["y"][mask].mean(), abs=1e-12)

    def test_null_means_near_zero(self):
        rng = np.random.default_rng(11)
        data = partitioned_dataset(rng, n=4000, delta=0.0)
        means, _ = fit_cell_means(data.responses["y"], cell_masks(data), "y")
        assert np.abs(means).max() < 5.0 / math.sqrt(400)

    def test_zero_variance(self):
        y, cells = explicit_cells([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)])
        with pytest.raises(ZeroVariance):
            fit_cell_means(y, cells, "y")

    def test_missing_values_excluded(self):
        # the caller leaves a missing response out of every cell mask
        y, cells = explicit_cells([(1.0, 3.0), (2.0, 4.0), (0.0, 6.0), (5.0, 7.0), (np.nan,)])
        means, pooled_sd = fit_cell_means(y, cells, "y")
        assert means == pytest.approx([2.0, 3.0, 3.0, 6.0])
        assert pooled_sd == pytest.approx(math.sqrt(24.0 / 4))

    def test_block_fit_matches_replicate_fits(self):
        rng = np.random.default_rng(19)
        data = partitioned_dataset(rng, n=60)
        cells = cell_masks(data)
        block = rng.normal(size=(5, 60))
        means, pooled_sd = fit_cell_means(block, cells, "y")
        assert means.shape == (5, 4) and pooled_sd.shape == (5,)
        for r in range(5):
            one_means, one_sd = fit_cell_means(block[r], cells, "y")
            assert means[r] == pytest.approx(one_means, abs=1e-12)
            assert pooled_sd[r] == pytest.approx(one_sd, abs=1e-12)

    def test_zero_variance_in_one_replicate_raises(self):
        y, cells = explicit_cells([(1.0, 3.0), (2.0, 4.0), (0.0, 6.0), (5.0, 7.0)])
        block = np.stack([y, np.repeat([1.0, 2.0, 3.0, 4.0], 2), y])
        with pytest.raises(ZeroVariance, match="'y1'"):
            fit_cell_means(block, cells, "y1")


class TestContrastMatrix:
    def test_default_rows(self):
        c = default_contrasts([10, 10, 30, 30])
        assert c.labels == ("target", "complement", "total")
        assert c.rows[0] == pytest.approx([-1.0, 1.0, 0.0, 0.0])
        assert c.rows[1] == pytest.approx([0.0, 0.0, -1.0, 1.0])
        assert c.rows[2] == pytest.approx([-0.25, 0.25, -0.75, 0.75])

    def test_balanced_total_weights_are_halves(self):
        c = default_contrasts([25, 25, 25, 25])
        assert c.rows[2] == pytest.approx([-0.5, 0.5, -0.5, 0.5])

    def test_balanced_target_total_correlation(self):
        corr = default_contrasts([25, 25, 25, 25]).correlation([25, 25, 25, 25])
        assert corr.entries[0, 2] == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_correlation_matches_manual_formula(self):
        counts = np.array([13, 21, 34, 8])
        c = default_contrasts(counts)
        d = np.diag(1.0 / counts)
        want = np.empty((3, 3))
        for r in range(3):
            for s in range(3):
                num = c.rows[r] @ d @ c.rows[s]
                den = math.sqrt((c.rows[r] @ d @ c.rows[r]) * (c.rows[s] @ d @ c.rows[s]))
                want[r, s] = num / den
        assert c.correlation(counts).entries == pytest.approx(want, abs=1e-12)

    def test_restrict(self):
        c = default_contrasts([10, 10, 10, 10]).restrict((0, 2))
        assert c.labels == ("target", "total")
        assert c.rows.shape == (2, 4)

    def test_restrict_validation(self):
        c = default_contrasts([10, 10, 10, 10])
        with pytest.raises(SchemaError, match="at least one"):
            c.restrict(())
        with pytest.raises(SchemaError, match="repeated"):
            c.restrict((0, 0))
        with pytest.raises(SchemaError, match="out of range"):
            c.restrict((3,))

    def test_row_validation(self):
        with pytest.raises(SchemaError, match="nonzero"):
            ContrastMatrix(np.zeros((1, 4)), ("z",))
        with pytest.raises(SchemaError, match="labels"):
            ContrastMatrix(np.eye(4)[:2], ("a",))
        with pytest.raises(SchemaError, match=r"\(m, 4\)"):
            ContrastMatrix(np.eye(3), ("a", "b", "c"))

    def test_rows_are_a_frozen_copy(self):
        rows = np.eye(4)[:2].copy()
        c = ContrastMatrix(rows, ("a", "b"))
        rows[0, 0] = 2.0
        assert c.rows[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            c.rows[0, 0] = 3.0

    def test_restricted_correlation_is_the_submatrix(self):
        counts = np.array([13, 21, 34, 8])
        full = default_contrasts(counts).correlation(counts).entries
        pair = default_contrasts(counts).restrict((0, 2)).correlation(counts).entries
        assert pair == pytest.approx(full[np.ix_([0, 2], [0, 2])], abs=1e-15)

    def test_gram_validation(self):
        c = default_contrasts([10, 10, 10, 10])
        with pytest.raises(SchemaError, match="positive"):
            c.gram([10, 0, 10, 10])


class TestCellMeansTest:
    def test_subgroup_estimates_match_subset_ols(self):
        rng = np.random.default_rng(3)
        data = partitioned_dataset(rng, n=100, delta=1.0)
        complement = Dataset(
            treatment=data.treatment,
            treatment_levels=data.treatment_levels,
            subgroups={"S2": 1.0 - data.subgroups["S1"]},
            responses=dict(data.responses),
        )
        cells = cell_masks(data)
        means, _ = fit_cell_means(data.responses["y"], cells, "y")
        estimates = default_contrasts(cells.sum(axis=1)).rows @ means
        ols_target = fit_ols(data, ModelSpec("y", subset="S1"))
        ols_compl = fit_ols(complement, ModelSpec("y", subset="S2"))
        assert estimates[0] == pytest.approx(ols_target.coefficient, abs=1e-12)
        assert estimates[1] == pytest.approx(ols_compl.coefficient, abs=1e-12)

    def test_single_row_family_is_marginal_t(self):
        rng = np.random.default_rng(5)
        data = partitioned_dataset(rng, n=60, delta=0.8)
        matrix, counts, estimates, ses, df = comparator(data, family=(0,))
        means, pooled_sd = fit_cell_means(data.responses["y"], cell_masks(data), "y")
        stat = (means[1] - means[0]) / (
            pooled_sd * math.sqrt(1.0 / counts[0] + 1.0 / counts[1])
        )
        assert estimates[0] / ses[0] == pytest.approx(stat, rel=1e-12)
        p = max_type_p(matrix.correlation(counts), estimates / ses, df=df, settings=FAST)
        assert p[0] == pytest.approx(2.0 * stdtr(df, -abs(stat)), abs=1e-3)

    def test_family_restriction_shrinks_p(self):
        rng = np.random.default_rng(9)
        data = partitioned_dataset(rng, n=100, delta=1.0)
        full, counts, est_full, se_full, df = comparator(data)
        pair, _, est_pair, se_pair, _ = comparator(data, family=(0, 2))
        p_full = max_type_p(full.correlation(counts), est_full / se_full, df=df, settings=FAST)
        p_pair = max_type_p(pair.correlation(counts), est_pair / se_pair, df=df, settings=FAST)
        assert pair.labels[0] == full.labels[0]
        assert pair.labels[1] == full.labels[2]
        assert p_pair[0] <= p_full[0] + 1e-6

    def test_correlation_consistent_with_mmm_stack(self):
        rng = np.random.default_rng(21)
        n = 20000
        data = partitioned_dataset(rng, n=n, target_fraction=0.5)
        both = Dataset(
            treatment=data.treatment,
            treatment_levels=data.treatment_levels,
            subgroups={"S1": data.subgroups["S1"], "S2": 1.0 - data.subgroups["S1"]},
            responses=dict(data.responses),
        )
        models = [
            fit_ols(both, ModelSpec("y", subset=s)) for s in ("S1", "S2", "all")
        ]
        c_hat = stack(models).c_hat.entries
        counts = cell_masks(data).sum(axis=1)
        want = default_contrasts(counts).correlation(counts).entries
        assert c_hat == pytest.approx(want, abs=4.0 / math.sqrt(n))

    def test_decision_coherence(self):
        # the critical value the comparator rejects at agrees with its p-value
        rng = np.random.default_rng(13)
        data = partitioned_dataset(rng, n=120, delta=1.4)
        matrix, counts, estimates, ses, df = comparator(data)
        corr = matrix.correlation(counts)
        crit = equicoordinate_quantile(corr, 0.05, df=df, settings=FAST)
        p = max_type_p(corr, estimates / ses, df=df, settings=FAST)
        for est, se, p_row in zip(estimates, ses, p):
            excludes_zero = est - crit * se > 0.0 or est + crit * se < 0.0
            if abs(p_row - 0.05) > 5e-3:
                assert (p_row <= 0.05) == excludes_zero

    def test_scale_equivariance(self):
        rng = np.random.default_rng(29)
        data = partitioned_dataset(rng, n=80, delta=0.7)
        scaled = Dataset(
            treatment=data.treatment,
            treatment_levels=data.treatment_levels,
            subgroups=dict(data.subgroups),
            responses={"y": data.responses["y"] * 7.0},
        )
        matrix, counts, est_a, se_a, df = comparator(data)
        _, _, est_b, se_b, _ = comparator(scaled)
        corr = matrix.correlation(counts)
        crit = equicoordinate_quantile(corr, 0.05, df=df, settings=FAST)
        p_a = max_type_p(corr, est_a / se_a, df=df, settings=FAST)
        p_b = max_type_p(corr, est_b / se_b, df=df, settings=FAST)
        assert est_b == pytest.approx(7.0 * est_a, rel=1e-10)
        assert p_b == pytest.approx(p_a, abs=1e-9)
        assert est_b - crit * se_b == pytest.approx(7.0 * (est_a - crit * se_a), rel=1e-6)

    def test_report_metadata(self):
        # simulate's comparator: default labels, their subsets, a t(n - 4) law
        design = simulate.Scenario(total_n=60, prop_target=0.4, family="any")
        matrix, crit, subsets = simulate._cellmeans_fixture(
            design.target_per_arm, design.arm_size, "any", 60, 0.05, FAST
        )
        k = design.target_per_arm
        counts = [k, k, design.arm_size - k, design.arm_size - k]
        assert matrix.labels == ("target", "complement", "total")
        assert subsets == ("S1", "S2", "all")
        assert crit == pytest.approx(
            equicoordinate_quantile(matrix.correlation(counts), 0.05, df=56, settings=FAST),
            abs=1e-12,
        )


def test_no_dataset_level_test_is_exported():
    for name in ("CellMeansModel", "cell_means_test", "fit_cell_means"):
        assert name not in mmminfer.__all__ and not hasattr(mmminfer, name)
    assert not hasattr(contrasts, "CellMeansModel")
    assert not hasattr(contrasts, "cell_means_test")
    assert not hasattr(contrasts, "cell_moments")
    assert not hasattr(errors, "EmptyCell")


@hyp_settings(max_examples=25, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=2, max_value=400), min_size=4, max_size=4)
)
def test_default_correlation_is_valid_and_positive(counts):
    corr = default_contrasts(counts).correlation(counts).entries
    assert np.allclose(np.diag(corr), 1.0)
    assert (np.linalg.eigvalsh(corr) > -1e-12).all()
    # subgroup contrasts touch disjoint cells: exactly uncorrelated
    assert corr[0, 1] == pytest.approx(0.0, abs=1e-15)
    # each subgroup contrast correlates positively with the total
    assert corr[0, 2] > 0.0 and corr[1, 2] > 0.0
