import re

import numpy as np
import pytest

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


class TestBetaToMvalue:
    def test_half_is_zero(self):
        assert beta_to_mvalue(0.5) == 0.0

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
