import re
import tracemalloc

import numpy as np
import pytest

from jointmix.baseline import IndepParams, _e_step, compare_partitions, fit_independent
from jointmix.errors import DegenerateClusterError, FitError, ParameterError
from jointmix.evaluate import simulated_dataset
from jointmix.joint_em import _layer_m_step, _LayerBuffers
from jointmix.simulate import SimConfig, simulate


class TestFitIndependent:
    def test_far_separated_groups_are_hard(self):
        rng = np.random.default_rng(0)
        lo = rng.normal(0.0, 1.0, (30, 4))
        hi = rng.normal(100.0, 1.0, (30, 4))  # >= 20 pooled SDs apart
        values = np.vstack([lo, hi])
        res = fit_independent(values, K=2)
        assert res.converged
        off_target = np.concatenate([res.layer.resp[:30, 1], res.layer.resp[30:, 0]])
        assert off_target.max() < 1e-6

    def test_single_component_mle(self):
        rng = np.random.default_rng(1)
        values = rng.normal(2.0, 3.0, (50, 4))
        res = fit_independent(values, K=1)
        assert res.params.weights[0] == 1.0
        np.testing.assert_allclose(res.params.means[0], values.mean(), atol=1e-12)
        np.testing.assert_allclose(res.params.variance, values.var(), atol=1e-10)

    def test_means_relabelled_ascending(self):
        rng = np.random.default_rng(2)
        values = np.vstack(
            [rng.normal(m, 0.5, (20, 3)) for m in (5.0, -5.0, 0.0)]
        )
        res = fit_independent(values, K=3)
        assert np.all(np.diff(res.params.means) > 0)
        assert set(res.layer.map_labels[:20]) == {3}
        assert set(res.layer.map_labels[20:40]) == {1}

    def test_too_few_rows(self):
        with pytest.raises(FitError):
            fit_independent(np.zeros((2, 2)), K=3)

    def test_empty_cluster_is_degenerate_in_the_m_step(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(6, 2))
        resp = np.zeros((6, 3))
        resp[:, [0, 2]] = 0.5
        with pytest.raises(DegenerateClusterError) as exc:
            _layer_m_step(values, resp, "independent", _LayerBuffers(values, 3))
        assert (exc.value.layer, exc.value.index) == ("independent", 1)

    def test_max_iter_zero_reports_no_iterations(self):
        values = np.random.default_rng(6).normal(size=(20, 2))
        res = fit_independent(values, K=3, max_iter=0)
        assert res.n_iters == 0
        assert not res.converged

    @pytest.mark.parametrize("layer", ["gene", "cpg"])
    def test_e_step_on_its_buffers_allocates_almost_nothing(self, layer):
        ds, _, _ = simulated_dataset(simulate(SimConfig(case=3)))
        values = ds.x if layer == "gene" else ds.y
        buf = _LayerBuffers(values, 3)
        params = IndepParams(np.array([0.2, 0.6, 0.2]), np.array([-1.5, 0.0, 1.5]), 0.4)
        _e_step(values, params, buf)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            resp = _e_step(values, params, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resp is buf.rows
        assert peak - before < 4096

    @pytest.mark.parametrize("K", [0, -1])
    def test_cluster_count_below_one(self, K):
        with pytest.raises(ParameterError, match=f"K must be at least 1, got {K}"):
            fit_independent(np.zeros((4, 2)), K=K)

    @pytest.mark.parametrize("shape", [(10, 0), (0, 0), (5,), (), (2, 3, 4)])
    def test_values_not_a_matrix_with_a_patient(self, shape):
        message = ("values must be a 2-d matrix (entities x patients) with a patient, "
                   f"got shape {shape}")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            fit_independent(np.zeros(shape))

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.7, -0.1])
    def test_quantile_outside_the_open_interval(self, q):
        with pytest.raises(ParameterError, match=f"got {q}"):
            fit_independent(np.zeros((4, 2)), K=3, q=q)


class TestComparePartitions:
    def test_identical_is_one(self):
        labels = np.array([1, 1, 2, 3, 3, 3])
        assert compare_partitions(labels, labels) == 1.0

    def test_hand_value(self):
        ari = compare_partitions([1, 1, 2, 2], [1, 2, 1, 2])
        np.testing.assert_allclose(ari, -0.5, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, 60)
        renamed = (labels + 1) % 3
        assert compare_partitions(labels, renamed) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 3, 40)
        assert compare_partitions(a, b) == pytest.approx(compare_partitions(b, a))

    def test_string_labels_accepted(self):
        assert compare_partitions(["E-", "E0", "E0"], ["x", "y", "y"]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare_partitions([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("a, b", [([], []), (["a"], ["b"])])
    def test_no_pair_of_entities_is_the_degenerate_one(self, a, b):
        assert compare_partitions(a, b) == 1.0


class TestAgreementWithJointModel:
    def test_case3_cpg_partition_agreement(self):
        # with no cross-layer dependency the joint fit reduces to the
        # independent one, so the two CpG partitions coincide
        from jointmix.evaluate import run_replicate
        from jointmix.simulate import SimConfig

        rows = run_replicate(SimConfig(case=3, seed=23, n_genes=200))
        agreement = {layer: v for method, layer, _, v in rows if method == "joint_vs_independent"}
        assert agreement["cpg"] >= 0.99
