import re
import tracemalloc

import numpy as np
import pytest

from jointmix.dataset import FORMAT_BLOCK_CELLS
from jointmix.errors import DataDomainError, ParameterError
from jointmix.preprocess import (
    beta_to_mvalue,
    counts_to_logcpm,
    derive_model_inputs,
    filter_low_counts,
    logfold_change,
    mvalue_difference,
    total_count_library_sizes,
)


class TestFilterLowCounts:
    def test_sum_above_threshold_retained(self):
        a = np.array([[3]])
        b = np.array([[3]])
        assert list(filter_low_counts(a, b, 5)) == [0]

    def test_all_zero_dropped(self):
        a = np.zeros((2, 3), dtype=int)
        b = np.zeros((2, 3), dtype=int)
        assert list(filter_low_counts(a, b)) == []

    def test_boundary_is_strict(self):
        a = np.array([[2, 1]])
        b = np.array([[1, 1]])
        assert list(filter_low_counts(a, b, 5)) == []

    def test_negative_counts_rejected(self):
        with pytest.raises(DataDomainError):
            filter_low_counts(np.array([[-1]]), np.array([[2]]))

    def test_a_shape_mismatch_is_named(self):
        with pytest.raises(DataDomainError,
                           match=r"^count matrices differ in shape: \(1, 1\) vs \(1, 2\)$"):
            filter_low_counts(np.array([[1]]), np.array([[1, 2]]))


class TestLogCpm:
    def test_count_100_per_million(self):
        out = counts_to_logcpm(np.array([[100]]), np.array([1e6]))
        np.testing.assert_allclose(out[0, 0], 6.651051691178929, atol=1e-12)

    def test_zero_count_hits_pseudocount(self):
        out = counts_to_logcpm(np.array([[0]]), np.array([1e6]))
        assert out[0, 0] == -1.0

    def test_thousand_cpm(self):
        out = counts_to_logcpm(np.array([[2000]]), np.array([2e6]))
        np.testing.assert_allclose(out[0, 0], 9.966505451905741, atol=1e-12)

    def test_zero_library_rejected(self):
        with pytest.raises(DataDomainError):
            counts_to_logcpm(np.array([[1]]), np.array([0.0]))


class TestLogFoldChange:
    def test_equal_matrices_zero(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(logfold_change(a, a), np.zeros((2, 3)))

    def test_constant_shift(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_allclose(logfold_change(a, a + 1.0), np.ones((2, 3)))

    def test_direction_is_b_minus_a(self):
        out = logfold_change(np.array([[6.0]]), np.array([[4.0]]))
        assert out[0, 0] == -2.0

    def test_shape_mismatch(self):
        with pytest.raises(DataDomainError):
            logfold_change(np.zeros((2, 2)), np.zeros((2, 3)))


def whole_matrix_mvalues(betas, eps=1e-6):
    """The M-values as one whole-matrix expression: the reference for the row blocks."""
    clamped = np.clip(betas, eps, 1.0 - eps)
    return np.log2(clamped / (1.0 - clamped))


def many_block_inputs(n_cpgs, n_patients, seed):
    """Counts of 60 genes, every fifth too low to keep, and betas of ``n_cpgs`` CpGs.

    The betas hold 0, 1, the smallest subnormal and values at the clamp.
    """
    rng = np.random.default_rng(seed)
    counts = rng.integers(20, 500, (60, n_patients))
    counts[::5] = 0
    gene_idx = rng.integers(0, 60, n_cpgs)
    betas_a, betas_b = rng.uniform(0.0, 1.0, (2, n_cpgs, n_patients))
    for betas in (betas_a, betas_b):
        edge = rng.random(betas.shape) < 0.05
        betas[edge] = rng.choice([0.0, 1.0, 5e-324, 1e-6, 1.0 - 1e-6], edge.sum())
    return counts, betas_a, betas_b, gene_idx


class TestBetaToMvalue:
    def test_half_is_zero(self):
        assert beta_to_mvalue(0.5) == 0.0
        assert type(beta_to_mvalue(0.5)) is float
        assert type(beta_to_mvalue(np.float64(0.8))) is float

    def test_array_is_the_whole_matrix_expression_bit_for_bit(self):
        _, betas, _, _ = many_block_inputs(300, 7, seed=3)
        kept = betas.copy()
        got = beta_to_mvalue(betas)
        assert np.array_equal(betas, kept)  # the input is left as it was
        assert np.array_equal(got.view(np.int64), whole_matrix_mvalues(betas).view(np.int64))

    def test_point_eight(self):
        np.testing.assert_allclose(beta_to_mvalue(0.8), 2.0, atol=1e-12)

    def test_one_clamps(self):
        np.testing.assert_allclose(beta_to_mvalue(1.0), 19.931567126628412, atol=1e-9)

    def test_out_of_domain(self):
        with pytest.raises(DataDomainError):
            beta_to_mvalue(1.5)
        with pytest.raises(DataDomainError):
            beta_to_mvalue(np.array([0.2, -0.1]))

    def test_antisymmetry(self):
        b = np.linspace(1e-4, 1 - 1e-4, 513)
        np.testing.assert_allclose(beta_to_mvalue(b), -beta_to_mvalue(1.0 - b), atol=1e-12)

    def test_monotonicity(self):
        b = np.linspace(1e-5, 1 - 1e-5, 1001)
        assert np.all(np.diff(beta_to_mvalue(b)) > 0)


class TestMvalueDifference:
    def test_equal_is_zero(self):
        m = np.ones((3, 2))
        np.testing.assert_array_equal(mvalue_difference(m, m), np.zeros((3, 2)))

    def test_constant_shift(self):
        m = np.zeros((2, 2))
        np.testing.assert_array_equal(mvalue_difference(m, m + 2.0), np.full((2, 2), 2.0))

    def test_logit_antisymmetry_pair(self):
        d = mvalue_difference(
            np.array([[beta_to_mvalue(0.2)]]), np.array([[beta_to_mvalue(0.8)]])
        )
        np.testing.assert_allclose(d[0, 0], 4.0, atol=1e-12)

    def test_a_shape_mismatch_is_named(self):
        with pytest.raises(DataDomainError, match=r"^shape mismatch: \(2, 1\) vs \(1, 2\)$"):
            mvalue_difference(np.zeros((2, 1)), np.zeros((1, 2)))


class TestPipeline:
    def test_depth_scaling_invariance(self):
        rng = np.random.default_rng(1)
        counts_a = rng.integers(1, 2000, (40, 3))
        counts_b = rng.integers(1, 2000, (40, 3))
        def logfc(ca, cb):
            return logfold_change(
                counts_to_logcpm(ca, total_count_library_sizes(ca)),
                counts_to_logcpm(cb, total_count_library_sizes(cb)),
            )
        base = logfc(counts_a, counts_b)
        scaled = logfc(counts_a * 7, counts_b * 7)
        np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_logcpm_monotone_in_count(self):
        counts = np.arange(0, 500, dtype=float).reshape(-1, 1)
        out = counts_to_logcpm(counts, np.array([1e6]))
        assert np.all(np.diff(out[:, 0]) > 0)

    def test_derive_model_inputs_drops_filtered_gene_cpgs(self):
        counts_a = np.array([[100, 100], [1, 1], [50, 50]])
        counts_b = np.array([[100, 100], [1, 1], [50, 50]])
        betas_a = np.full((4, 2), 0.4)
        betas_b = np.full((4, 2), 0.6)
        cpg_gene_idx = np.array([0, 1, 1, 2])
        kept_g, x, kept_c, y = derive_model_inputs(
            counts_a, counts_b, betas_a, betas_b, cpg_gene_idx
        )
        assert list(kept_g) == [0, 2]
        assert list(kept_c) == [0, 3]
        assert x.shape == (2, 2)
        assert y.shape == (2, 2)

    @pytest.mark.parametrize("kwargs, message", [
        ({"pseudocount": 0}, "pseudocount must be finite and above 0, got 0"),
        ({"pseudocount": -0.5}, "pseudocount must be finite and above 0, got -0.5"),
        ({"pseudocount": float("nan")}, "pseudocount must be finite and above 0, got nan"),
        ({"pseudocount": float("inf")}, "pseudocount must be finite and above 0, got inf"),
        ({"beta_eps": 0}, "beta_eps must lie in (0, 0.5), got 0"),
        ({"beta_eps": 0.5}, "beta_eps must lie in (0, 0.5), got 0.5"),
        ({"beta_eps": 0.7}, "beta_eps must lie in (0, 0.5), got 0.7"),
        ({"beta_eps": float("nan")}, "beta_eps must lie in (0, 0.5), got nan"),
    ])
    def test_derive_model_inputs_rejects_transform_parameters(self, kwargs, message):
        # a zero count and a zero beta, which the rejected values would make infinite
        counts = np.array([[0, 100], [50, 50]])
        betas = np.array([[0.0, 0.4], [0.6, 1.0]])
        with pytest.raises(ParameterError, match=re.escape(message)):
            derive_model_inputs(counts, counts, betas, betas, np.array([0, 1]), **kwargs)

    def test_derive_model_inputs_finite_just_inside_the_ranges(self):
        counts = np.array([[0, 100], [50, 50]])
        betas = np.array([[0.0, 0.4], [0.6, 1.0]])
        _, x, _, y = derive_model_inputs(
            counts, counts + 1, betas, betas[::-1], np.array([0, 1]),
            pseudocount=1e-300, beta_eps=0.499,
        )
        assert np.isfinite(x).all() and np.isfinite(y).all()
        assert (y != 0).any()

    @pytest.mark.parametrize("n_patients", [1, 7, 40])
    def test_derive_model_inputs_blocks_are_the_whole_matrix_bit_for_bit(self, n_patients):
        # several blocks, the last one short, and the CpGs of filtered genes left out
        n_cpgs = 2 * FORMAT_BLOCK_CELLS // n_patients + 37
        counts, betas_a, betas_b, gene_idx = many_block_inputs(n_cpgs, n_patients, seed=n_patients)
        _, _, kept_c, y = derive_model_inputs(counts, counts, betas_a, betas_b, gene_idx)
        assert 0 < len(kept_c) < n_cpgs
        expected = (whole_matrix_mvalues(betas_b[kept_c])
                    - whole_matrix_mvalues(betas_a[kept_c]))
        assert y.flags.c_contiguous
        assert np.array_equal(y.view(np.int64), expected.view(np.int64))

    def test_derive_model_inputs_rejects_a_beta_outside_its_range_in_a_late_block(self):
        counts, betas_a, betas_b, gene_idx = many_block_inputs(3000, 40, seed=5)
        gene_idx[-1] = 1  # a kept gene
        betas_b[-1, 7] = 1.5
        with pytest.raises(DataDomainError, match=re.escape("beta values must lie in [0, 1]")):
            derive_model_inputs(counts, counts, betas_a, betas_b, gene_idx)

    def test_derive_model_inputs_names_the_kept_shapes_of_betas_that_differ(self):
        counts = np.array([[100, 100], [0, 0]])
        betas = np.full((3, 3), 0.5)
        with pytest.raises(DataDomainError, match=re.escape("shape mismatch: (2, 2) vs (2, 3)")):
            derive_model_inputs(counts, counts, betas[:, :2], betas, np.array([0, 1, 0]))

    def test_derive_model_inputs_holds_one_output_beside_its_inputs(self):
        counts, betas_a, betas_b, gene_idx = many_block_inputs(6000, 40, seed=9)
        gene_idx[:] = 1  # every CpG kept, so the output is as large as an input
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, _, _, y = derive_model_inputs(counts, counts, betas_a, betas_b, gene_idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == betas_a.shape
        # whole-matrix M-values held a gathered copy and four temporaries per input,
        # about five times the output; a block holds two gathers and a temporary
        assert peak - before < y.nbytes + 6 * FORMAT_BLOCK_CELLS * y.itemsize
