import concurrent.futures
import contextlib
import dataclasses
import itertools
import logging
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracle_utils import (
    brute_force_gene_posterior,
    brute_force_loglik,
    naive_weighted_moments,
    random_responsibilities,
)

from conftest import make_dataset, random_mixture_dataset
import jointmix
from jointmix.baseline import fit_independent
from jointmix.dataset import _run_each
from jointmix.errors import (
    DegenerateClusterError,
    FitError,
    NumericalError,
    ParameterError,
    UndefinedColumnError,
)
from jointmix.evaluate import simulated_dataset
from jointmix.joint_em import (
    JointParams,
    Responsibilities,
    _LayerBuffers,
    _Workspace,
    _collapse,
    _column_sums,
    _em,
    _exact_pass,
    _gauss_row_scores,
    _layer_fit,
    _layer_m_step,
    _quantile_start,
    _row_sums,
    _softmax_rows,
    e_step_fixed_point,
    exact_gene_posterior,
    expected_complete_loglik,
    fit,
    fit_all_chromosomes,
    gene_given_cpg,
    initialize_quantile,
    m_step,
    observed_loglik,
)
from jointmix.simulate import SimConfig, simulate


def params_for(tau, pi, mu, sigma2, lam, rho2):
    return JointParams(
        tau=np.asarray(tau, dtype=float),
        pi=np.asarray(pi, dtype=float),
        mu=np.asarray(mu, dtype=float),
        sigma2=float(sigma2),
        lam=np.asarray(lam, dtype=float),
        rho2=float(rho2),
    )


def warm_uniform(ds, k, l):
    u = np.full((ds.n_genes, k), 1.0 / k)
    v = np.full((ds.n_cpgs, l), 1.0 / l)
    return Responsibilities(u_hat=u, v_hat=v)


def indep_responsibilities(values, weights, means, var):
    """Plain single-layer mixture posterior, computed right here."""
    from scipy.stats import norm as _norm

    scores = np.log(weights)[None, :] + np.stack(
        [_norm.logpdf(values, m, np.sqrt(var)).sum(axis=1) for m in means], axis=1
    )
    shift = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shift)
    return e / e.sum(axis=1, keepdims=True)


def scipy_row_scores(values, means, var):
    """The per-patient ``scipy.stats.norm.logpdf`` loop: reference for the kernel."""
    from scipy.stats import norm as _norm

    total = np.zeros((values.shape[0], len(means)))
    for n in range(values.shape[1]):
        total += _norm.logpdf(values[:, n, None], loc=means, scale=np.sqrt(var))
    return total


def reference_softmax(logits, entity_ids):
    """The row softmax as it was before it wrote in place: reference for the buffers."""
    if logits.shape[0] == 0:
        return logits.copy()
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    with np.errstate(invalid="ignore"):
        e = np.exp(logits - top[:, np.newaxis])
        out = e / e.sum(axis=1, keepdims=True)
    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise NumericalError(entity_ids(bad))
    return out


def reference_layer_moments(values, resp):
    """Means and per-cluster variances with allocated temporaries: reference for the buffers."""
    n = values.shape[1]
    mass = resp.sum(axis=0)
    means = (resp.T @ values.sum(axis=1)) / (n * mass)
    var_j = np.empty(resp.shape[1])
    for j in range(resp.shape[1]):
        dev = values - means[j]
        var_j[j] = (resp[:, j] @ (dev * dev).sum(axis=1)) / (n * mass[j])
    return means, max(float((mass / len(values)) @ var_j), 1e-8)


def max_reduction_softmax(logits):
    """The row softmax shifted by ``max(axis=1)``: reference for the column-wise max."""
    shift = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shift)
    return e / e.sum(axis=1, keepdims=True)


class TestJointParamsValidate:
    GOOD = dict(tau=[0.5, 0.5], pi=[[0.2, 1.0], [0.8, 0.0]], mu=[0.0, 1.0], sigma2=1.0,
                lam=[0.0, 1.0], rho2=1.0)

    @pytest.mark.parametrize("change, message", [
        ({"tau": [0.5, 0.6]}, "tau does not sum to 1"),
        ({"pi": [[0.2, 1.0], [0.7, 0.0]]}, "pi columns do not sum to 1"),
        ({"sigma2": 0.0}, "variances must be positive"),
        ({"rho2": -1.0}, "variances must be positive"),
    ])
    def test_each_fault_is_named(self, change, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            params_for(**{**self.GOOD, **change}).validate()


class TestScoreKernel:
    @pytest.mark.parametrize("n", [1, 2, 4, 9, 40])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("var", [1e-8, 0.37, 1.0, 123.4])
    def test_bit_equal_to_scipy(self, n, k, var):
        rng = np.random.default_rng(1000 * n + k)
        for scale in (1e-3, 1.0, 1e3):
            values = rng.normal(0.0, scale, (37, n))
            means = rng.normal(0.0, scale, k)
            assert np.array_equal(_gauss_row_scores(values, means, var),
                                  scipy_row_scores(values, means, var).T)

    def test_halving_by_a_multiply_gives_the_bits_of_the_division(self):
        tiny, big = np.nextafter(0.0, 1.0), np.finfo(float).max
        special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(float).tiny, big, -big,
                            np.inf, -np.inf, np.nan, -np.nan, 1.0 / 3.0])
        # and every class of double, nan payloads included, by random bit patterns
        bits = np.random.default_rng(5).integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                                                 100_000, endpoint=True)
        for x in (special, bits.view(float)):
            with np.errstate(all="ignore"):
                assert np.array_equal((x / -2.0).view(np.int64), (x * -0.5).view(np.int64))

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9])
    def test_softmax_bit_equal_to_max_reduction(self, k):
        rng = np.random.default_rng(k)
        logits = rng.normal(0.0, 30.0, (500, k))
        if k > 1:
            logits[::7, 0] = -np.inf
        got = _softmax_rows(logits.T.copy(), str)
        assert np.array_equal(got, max_reduction_softmax(logits).T)

    @pytest.mark.parametrize("bad", [[-np.inf, -np.inf, -np.inf], [0.5, np.nan, -1.0]])
    def test_non_finite_row_names_its_entity(self, bad):
        logits = np.zeros((4, 3))
        logits[2] = bad
        with pytest.raises(NumericalError) as exc:
            _softmax_rows(logits.T.copy(), lambda i: f"E{i}")
        assert exc.value.entity == "E2"

    def test_kernel_buffers_give_the_same_bits(self):
        rng = np.random.default_rng(77)
        values = rng.normal(0.0, 3.0, (53, 4))
        means = np.array([-2.0, 0.1, 2.5])
        out, z = np.full((3, 53), np.nan), np.full((3, 53), np.nan)
        got = _gauss_row_scores(values, means, 0.7, out=out, z=z)
        assert got is out
        assert np.array_equal(got, scipy_row_scores(values, means, 0.7).T)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_row_sums_bit_equal_to_sum(self, k):
        rng = np.random.default_rng(40 + k)
        a = rng.normal(0.0, 1.0, (300, k)) * 10.0 ** rng.integers(-8, 8, (300, k))
        assert np.array_equal(_row_sums(a, np.empty(300)), a.sum(axis=1))

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("layout", ["C", "F", "row-strided"])
    def test_column_sums_bit_equal_to_sum(self, k, layout):
        rng = np.random.default_rng(60 + k)
        for m in (1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193):
            a = rng.normal(0.0, 1.0, (2 * m, k)) * 10.0 ** rng.integers(-8, 8, (2 * m, k))
            if layout == "C":
                a = a[:m]
            elif layout == "F":
                a = np.asfortranarray(a[:m])
            else:
                a = a[::2]
            assert np.array_equal(_column_sums(a), a.sum(axis=0)), m

    @pytest.mark.parametrize("layer", ["gene", "cpg"])
    def test_kernel_with_buffers_allocates_almost_nothing(self, layer):
        ds, _, _ = simulated_dataset(simulate(SimConfig(case=3)))
        values = ds.x if layer == "gene" else ds.y
        buf = _LayerBuffers(values, 3)
        means = np.array([-1.5, 0.0, 1.5])
        _gauss_row_scores(values, means, 0.4, out=buf.scores, z=buf.z)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _gauss_row_scores(values, means, 0.4, out=buf.scores, z=buf.z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a broadcast subtract buffered about 132 KB per call at the CpG layer
        # of an (M, K) table, and about 25 KB at the gene layer of a (K, M) one
        assert peak - before < 4096

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("in_place", [False, True])
    def test_softmax_bit_equal_to_reference(self, k, in_place):
        rng = np.random.default_rng(200 + k)
        logits = rng.normal(0.0, 30.0, (400, k))
        if k > 1:
            logits[::5, 0] = -np.inf
            logits[1::9, k - 1] -= 800.0  # exp underflows to subnormals and zeros
        expected = reference_softmax(logits, str)
        by_component = logits.T.copy()
        # in place, or into a row-major table through its transposed view
        out = by_component if in_place else np.empty_like(logits).T
        got = _softmax_rows(by_component, str, out=out, top=np.empty(400), total=np.empty(400))
        assert got is out
        assert np.array_equal(got, expected.T)

    @pytest.mark.parametrize("k", range(1, 10))
    @pytest.mark.parametrize("bad", ["all -inf", "+inf", "nan"])
    def test_non_finite_rows_name_the_reference_entity(self, k, bad):
        rng = np.random.default_rng(300 + k)
        logits = rng.normal(0.0, 5.0, (12, k))
        for row in (7, 3, 10):
            if bad == "all -inf":
                logits[row] = -np.inf
            else:
                logits[row, row % k] = np.inf if bad == "+inf" else np.nan
        with pytest.raises(NumericalError) as ref:
            reference_softmax(logits.copy(), lambda i: f"E{i}")
        by_component = logits.T.copy()
        with pytest.raises(NumericalError) as got:
            _softmax_rows(by_component, lambda i: f"E{i}", out=by_component)
        assert got.value.entity == ref.value.entity == "E3"

    @pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 40])
    def test_layer_m_step_buffers_give_the_same_bits(self, n):
        rng = np.random.default_rng(500 + n)
        values = rng.normal(0.0, 2.0, (70, n))
        resp = random_responsibilities(rng, 70, 3)
        buf = _LayerBuffers(values, 3)
        for _ in range(2):  # a second call on the same buffers, as a fit makes
            _, means, variance = _layer_m_step(values, resp, "gene", buf)
            ref_means, ref_variance = reference_layer_moments(values, resp)
            assert np.array_equal(means, ref_means)
            assert variance == ref_variance


class TestExactPass:
    """The exact marginalization against literal enumeration of every hard configuration."""

    # the CpG count of each gene
    LAYOUTS = {"childless": [0], "one gene": [3], "0 to 4 CpGs": [2, 0, 4, 1, 3, 0]}
    # pi entries set before the columns are normalized: one small entry, or two zeros,
    # each scored -inf by the pass and by the enumeration
    PI_ENTRIES = {"pi 1e-12": {(0, 2): 1e-12}, "pi zeros": {(2, 0): 0.0, (0, 1): 0.0}}
    CASES = [pytest.param(counts, scale, entries, id=f"{name}-{scale:g}-{pi_name}")
             for (name, counts), scale, (pi_name, entries)
             in itertools.product(LAYOUTS.items(), (1e-3, 1.0, 1e3), PI_ENTRIES.items())]

    @staticmethod
    def case(counts, scale, entries):
        """A dataset of the given layout and value ``scale``, and parameters with these pi entries."""
        rng = np.random.default_rng([len(counts), sum(counts), int(np.log10(scale)) + 3])
        ds = make_dataset(rng.normal(0.0, scale, (len(counts), 2)),
                          np.repeat(np.arange(len(counts)), counts),
                          rng.normal(0.0, scale, (sum(counts), 2)))
        pi = random_responsibilities(rng, 3, 3).T
        for lk, entry in entries.items():
            pi[lk] = entry
        pi /= pi.sum(axis=0)
        params = params_for([0.2, 0.5, 0.3], pi, [-2.0, 0.0, 2.0], 0.7, [-2.5, 0.0, 2.5], 1.1)
        return ds, params

    @pytest.mark.parametrize("counts, scale, entries", CASES)
    def test_loglik_matches_enumeration(self, counts, scale, entries):
        ds, params = self.case(counts, scale, entries)
        np.testing.assert_allclose(observed_loglik(ds, params), brute_force_loglik(ds, params),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("counts, scale, entries", CASES)
    def test_every_posterior_matches_enumeration(self, counts, scale, entries):
        ds, params = self.case(counts, scale, entries)
        loglik, u, v = _exact_pass(ds, params)
        assert loglik == observed_loglik(ds, params)
        assert u.shape == (ds.n_genes, 3) and v.shape == (ds.n_cpgs, 3)
        for g in range(ds.n_genes):
            u_bf, v_bf = brute_force_gene_posterior(ds, params, g)
            np.testing.assert_allclose(u[g], u_bf, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(v[ds.gene_cpg_indices(g)], v_bf, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("counts, scale, entries", CASES)
    def test_one_gene_posterior_matches_enumeration(self, counts, scale, entries):
        ds, params = self.case(counts, scale, entries)
        for g in range(ds.n_genes):
            u, v = exact_gene_posterior(ds, params, g)
            u_bf, v_bf = brute_force_gene_posterior(ds, params, g)
            assert u.shape == (3,) and v.shape == v_bf.shape == (counts[g], 3)
            np.testing.assert_allclose(u, u_bf, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(v, v_bf, rtol=0.0, atol=1e-12)


class TestInitializeQuantile:
    def test_rank_boundaries(self):
        x = np.arange(1.0, 11.0)[:, None]
        ds = make_dataset(x, [], [])
        u0, _ = initialize_quantile(ds, q=0.10)
        assert u0[0].tolist() == [1, 0, 0]
        assert u0[9].tolist() == [0, 0, 1]
        assert u0[1:9, 1].sum() == 8

    def test_tie_break_by_input_order(self):
        ds = make_dataset(np.zeros((6, 2)), [], [])
        u0, _ = initialize_quantile(ds, q=0.10)
        assert u0[0].tolist() == [1, 0, 0]
        assert u0[-1].tolist() == [0, 0, 1]
        assert u0[1:5, 1].all()

    def test_cpg_tail_counts(self):
        means = np.linspace(-1, 1, 20)
        ds = make_dataset(np.zeros((1, 1)), [0] * 20, means[:, None])
        _, v0 = initialize_quantile(ds, q=0.10)
        assert v0[:, 0].sum() == 2
        assert v0[:, 1].sum() == 16
        assert v0[:, 2].sum() == 2

    def test_bad_quantile(self):
        ds = make_dataset(np.zeros((4, 1)), [], [])
        with pytest.raises(ParameterError):
            initialize_quantile(ds, q=0.5)
        with pytest.raises(ParameterError):
            initialize_quantile(ds, q=0.0)

    @pytest.mark.parametrize("k, counts", [(1, [10]), (2, [5, 5]), (4, [1, 4, 4, 1]),
                                           (5, [1, 3, 3, 2, 1])])
    def test_other_cluster_counts(self, k, counts):
        values = np.arange(10.0)[::-1, None]
        start = _quantile_start(values, k, 0.10)
        assert start.sum(axis=0).tolist() == counts
        # clusters follow the ranked means: the largest row starts in the last one
        labels = start.argmax(axis=1)
        assert np.all(np.diff(labels) <= 0) and labels[0] == k - 1

    def test_odd_row_count_puts_the_median_row_up(self):
        start = _quantile_start(np.arange(5.0)[:, None], 2, 0.10)
        assert start.argmax(axis=1).tolist() == [0, 0, 1, 1, 1]

    @pytest.mark.parametrize("means", ["distinct", "tied", "signed_zeros", "nan", "inf"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rows_rank_as_a_stable_sort_ranks_them(self, means, k):
        rng = np.random.default_rng(k)
        values = {
            "distinct": rng.normal(size=(41, 3)),
            "tied": rng.integers(0, 3, (41, 3)).astype(float),
            "signed_zeros": rng.choice([-0.0, 0.0], (41, 1)),
            "nan": np.where(rng.random((41, 3)) < 0.1, np.nan, rng.normal(size=(41, 3))),
            "inf": rng.choice([-np.inf, 1.0, np.inf], (41, 1)),
        }[means]
        labels = _quantile_start(values, k, 0.10).argmax(axis=1)
        # the clusters are consecutive blocks of the stable order, ties broken by row
        assert np.all(np.diff(labels[np.argsort(values.mean(axis=1), kind="stable")]) >= 0)


def tensor_pi(ds, u, v):
    """``pi`` from the summed (C, K, L) joint-expectation tensor, built in full."""
    uv = u[ds.cpg_gene_idx][:, :, None] * v[:, None, :]
    return uv.sum(axis=0).T / (u.T @ ds.cpg_counts.astype(float))


def with_cpgless_genes(rng, n_genes, max_cpgs):
    """1 to ``max_cpgs`` CpGs per gene, except every seventh gene, which has none."""
    counts = rng.integers(1, max_cpgs + 1, n_genes)
    counts[::7] = 0
    parents = np.repeat(np.arange(n_genes), counts)
    return make_dataset(rng.normal(size=(n_genes, 1)), parents, rng.normal(size=(len(parents), 1)))


class TestMStep:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("l", [1, 2, 3, 9])
    def test_pi_bit_equal_to_summed_tensor(self, k, l):
        rng = np.random.default_rng(100 * k + l)
        ds = with_cpgless_genes(rng, 40, 6)
        u = random_responsibilities(rng, ds.n_genes, k)
        v = random_responsibilities(rng, ds.n_cpgs, l)
        assert np.array_equal(m_step(ds, u, v).pi, tensor_pi(ds, u, v))

    def test_pi_bit_equal_to_summed_tensor_at_scale(self):
        rng = np.random.default_rng(331)
        ds = with_cpgless_genes(rng, 20_000, 6)
        assert ds.n_cpgs >= 50_000
        u = random_responsibilities(rng, ds.n_genes, 3)
        v = random_responsibilities(rng, ds.n_cpgs, 3)
        assert np.array_equal(m_step(ds, u, v).pi, tensor_pi(ds, u, v))

    def test_tau_counting(self):
        u = np.zeros((4, 3))
        u[0, 0] = u[1, 1] = u[2, 2] = u[3, 1] = 1.0
        ds = make_dataset(np.arange(4.0)[:, None], [0, 1, 2, 3], np.arange(4.0)[:, None])
        v = np.tile([1.0, 0.0, 0.0], (4, 1))
        v[1, 0], v[1, 1] = 0.0, 1.0
        v[2, 1] = 1.0
        v[2, 0] = 0.0
        v[3, 2], v[3, 0] = 1.0, 0.0
        params = m_step(ds, u, v)
        np.testing.assert_allclose(params.tau, [0.25, 0.5, 0.25])

    def test_pi_counting(self):
        # gene0 (k=0) has CpGs in l=0 and l=1; gene1 (k=0) one CpG in l=0;
        # gene2 (k=1) keeps the other clusters alive
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v = np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )
        ds = make_dataset(
            np.zeros((3, 1)), [0, 0, 1, 2], np.array([[0.0], [1.0], [0.0], [1.0]])
        )
        params = m_step(ds, u, v)
        np.testing.assert_allclose(params.pi[:, 0], [2.0 / 3.0, 1.0 / 3.0])

    def test_single_cluster_moments(self):
        ds = make_dataset(
            np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 1], np.array([[0.0, 1.0], [2.0, 3.0]])
        )
        u = np.ones((2, 1))
        v = np.ones((2, 1))
        params = m_step(ds, u, v)
        assert params.mu[0] == 2.5
        np.testing.assert_allclose(params.sigma2, 1.25)

    def test_matches_naive_weighted_moments(self):
        rng = np.random.default_rng(7)
        ds = random_mixture_dataset(rng, n_genes=12, n_patients=2, max_cpgs=3)
        u = random_responsibilities(rng, ds.n_genes, 3)
        v = random_responsibilities(rng, ds.n_cpgs, 3)
        params = m_step(ds, u, v)
        mu, s2 = naive_weighted_moments(ds.x, u)
        lam, r2 = naive_weighted_moments(ds.y, v)
        np.testing.assert_allclose(params.mu, mu, atol=1e-10)
        np.testing.assert_allclose(params.lam, lam, atol=1e-10)
        np.testing.assert_allclose(params.sigma2, (u.sum(0) / ds.n_genes) @ s2, atol=1e-10)
        np.testing.assert_allclose(params.rho2, (v.sum(0) / ds.n_cpgs) @ r2, atol=1e-10)
        np.testing.assert_allclose(params.pi.sum(axis=0), 1.0, atol=1e-10)

    def test_empty_gene_cluster_raises(self):
        ds = make_dataset(np.array([[1.0], [2.0]]), [0, 1], np.array([[0.0], [1.0]]))
        u = np.array([[1.0, 0.0], [1.0, 0.0]])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateClusterError) as exc:
            m_step(ds, u, v)
        assert exc.value.layer == "gene"
        assert exc.value.index == 1

    def test_cpgless_cluster_gets_uniform_pi_column(self, caplog):
        # gene0 (k=0) has no CpGs at all; gene1 (k=1) carries both CpG clusters
        ds = make_dataset(np.array([[0.0], [1.0]]), [1, 1], np.array([[0.0], [5.0]]))
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        with caplog.at_level("WARNING"):
            params = m_step(ds, u, v)
        np.testing.assert_allclose(params.pi[:, 0], [0.5, 0.5])
        assert not caplog.records  # fit logs the reset once, not every M-step


class TestEStepFixedPoint:
    def test_single_component_exact_one(self):
        ds = make_dataset(np.array([[0.3, -0.1]]), [0, 0], np.array([[0.2, 0.0], [1.0, 2.0]]))
        params = params_for([1.0], [[1.0]], [0.0], 1.0, [0.5], 2.0)
        resp = e_step_fixed_point(ds, params, warm_uniform(ds, 1, 1))
        assert (resp.u_hat == 1.0).all()
        assert (resp.v_hat == 1.0).all()

    def test_childless_gene_symmetric_midpoint(self):
        ds = make_dataset(np.array([[1.0]]), [], [])
        params = params_for([0.5, 0.5], [[1.0, 1.0]], [0.0, 2.0], 1.0, [0.0], 1.0)
        resp = e_step_fixed_point(ds, params, warm_uniform(ds, 2, 1))
        np.testing.assert_allclose(resp.u_hat[0], [0.5, 0.5], atol=1e-12)

    def test_close_to_exact_posterior_with_one_cpg(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng.normal(size=(1, 2)), [0], rng.normal(size=(1, 2)))
        params = params_for(
            [0.4, 0.6], [[0.7, 0.3], [0.3, 0.7]], [-1.0, 1.0], 0.8, [-1.5, 1.5], 1.2
        )
        resp = e_step_fixed_point(ds, params, warm_uniform(ds, 2, 2))
        u_exact, _ = exact_gene_posterior(ds, params, 0)
        assert np.abs(resp.u_hat[0] - u_exact).max() < 1e-3

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(5)
        ds = random_mixture_dataset(rng, n_genes=20, n_patients=2)
        u0, v0 = initialize_quantile(ds)
        params = m_step(ds, u0, v0)
        resp = e_step_fixed_point(ds, params, Responsibilities(u0, v0))
        np.testing.assert_allclose(resp.u_hat.sum(axis=1), 1.0, atol=1e-8)
        np.testing.assert_allclose(resp.v_hat.sum(axis=1), 1.0, atol=1e-8)
        assert resp.u_hat.min() >= 0 and resp.u_hat.max() <= 1

    def test_fixed_point_stationarity(self):
        rng = np.random.default_rng(6)
        ds = random_mixture_dataset(rng, n_genes=25, n_patients=3)
        u0, v0 = initialize_quantile(ds)
        params = m_step(ds, u0, v0)
        resp = e_step_fixed_point(ds, params, Responsibilities(u0, v0), inner_tol=1e-10)
        again = e_step_fixed_point(ds, params, resp, inner_tol=1e-10)
        assert np.abs(again.u_hat - resp.u_hat).max() <= 1e-10
        assert np.abs(again.v_hat - resp.v_hat).max() <= 1e-10

    def test_underflowing_variance_names_the_entity(self):
        from jointmix.errors import NumericalError

        ds = make_dataset(np.array([[5.0]]), [0], np.array([[0.0]]))
        params = params_for([0.5, 0.5], [[1.0, 1.0]], [0.0, 1.0], 1e-320, [0.0], 1.0)
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as exc:
            e_step_fixed_point(ds, params, warm_uniform(ds, 2, 1))
        assert "G0000" in str(exc.value)

    def test_equal_pi_columns_reduce_to_independent(self):
        rng = np.random.default_rng(8)
        ds = random_mixture_dataset(rng, n_genes=18, n_patients=2)
        p = np.array([0.25, 0.45, 0.30])
        params = params_for(
            [0.2, 0.5, 0.3], np.tile(p[:, None], (1, 3)), [-3.0, 0.0, 3.0], 1.0,
            [-4.0, 0.0, 4.0], 1.0,
        )
        resp = e_step_fixed_point(ds, params, warm_uniform(ds, 3, 3))
        u_ref = indep_responsibilities(ds.x, params.tau, params.mu, params.sigma2)
        v_ref = indep_responsibilities(ds.y, p, params.lam, params.rho2)
        assert np.abs(resp.u_hat - u_ref).max() < 1e-8
        assert np.abs(resp.v_hat - v_ref).max() < 1e-8


class TestWorkspace:
    """One fit's buffers: same bits, no writes into inputs, no per-sweep allocation."""

    @staticmethod
    def case3_start():
        ds, _, _ = simulated_dataset(simulate(SimConfig(case=3)))
        u0, v0 = initialize_quantile(ds)
        return ds, m_step(ds, u0, v0), Responsibilities(u0, v0)

    def test_e_step_with_workspace_is_bit_identical(self):
        ds, params, warm = self.case3_start()
        work = _Workspace(ds, 3, 3)
        for inner_max in (1, 2, 7):
            plain = e_step_fixed_point(ds, params, warm, inner_tol=0.0, inner_max=inner_max)
            shared = e_step_fixed_point(
                ds, params, warm, inner_tol=0.0, inner_max=inner_max, work=work
            )
            assert np.array_equal(plain.u_hat, shared.u_hat)
            assert np.array_equal(plain.v_hat, shared.v_hat)
            assert plain.n_sweeps == shared.n_sweeps == inner_max
            assert any(shared.u_hat is buf for buf in work.u)
            assert any(shared.v_hat is buf for buf in work.v)

    def test_e_step_only_reads_its_warm_input(self):
        ds, params, warm = self.case3_start()
        work = _Workspace(ds, 3, 3)
        first = e_step_fixed_point(ds, params, warm, inner_tol=0.0, inner_max=3, work=work)
        kept = first.u_hat.copy(), first.v_hat.copy()
        u0, v0 = warm.u_hat.copy(), warm.v_hat.copy()
        # a warm start from a workspace's own result is read, not written, by sweep 1
        again = e_step_fixed_point(ds, params, first, inner_tol=0.0, inner_max=1, work=work)
        assert again.u_hat is not first.u_hat and again.v_hat is not first.v_hat
        assert np.array_equal(first.u_hat, kept[0]) and np.array_equal(first.v_hat, kept[1])
        e_step_fixed_point(ds, params, warm, inner_tol=0.0, inner_max=4, work=work)
        e_step_fixed_point(ds, params, warm, inner_tol=0.0, inner_max=4)
        assert np.array_equal(warm.u_hat, u0) and np.array_equal(warm.v_hat, v0)

    def test_fit_only_reads_its_init(self):
        rng = np.random.default_rng(23)
        ds = random_mixture_dataset(rng, n_genes=30, n_patients=3)
        u0, v0 = initialize_quantile(ds)
        u_kept, v_kept = u0.copy(), v0.copy()
        res = fit(ds, init=(u0, v0), outer_max=5)
        assert np.array_equal(u0, u_kept) and np.array_equal(v0, v_kept)
        assert not np.shares_memory(res.gene.resp, u0)
        assert not np.shares_memory(res.cpg.resp, v0)

    def test_sweeps_and_m_step_allocate_less_than_one_cpg_array(self):
        ds, params, warm = self.case3_start()
        work = _Workspace(ds, 3, 3)
        resp = e_step_fixed_point(ds, params, warm, inner_tol=0.0, inner_max=5, work=work)
        m_step(ds, resp.u_hat, resp.v_hat, work=work)
        tracemalloc.start()
        try:
            resp = e_step_fixed_point(ds, params, resp, inner_tol=0.0, inner_max=5, work=work)
            m_step(ds, resp.u_hat, resp.v_hat, work=work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resp.n_sweeps == 5
        # one (C, L) float64 array; allocating E-step temporaries peaked near 1.2 MB
        assert peak < ds.n_cpgs * 3 * 8


class TestExactGenePosterior:
    def test_childless_gene_is_plain_mixture(self):
        ds = make_dataset(np.array([[0.7, -0.2]]), [], [])
        params = params_for(
            [0.3, 0.7], [[0.5, 0.5], [0.5, 0.5]], [-1.0, 1.0], 1.3, [0.0, 1.0], 1.0
        )
        u, v = exact_gene_posterior(ds, params, 0)
        u_ref = indep_responsibilities(ds.x, params.tau, params.mu, params.sigma2)[0]
        np.testing.assert_allclose(u, u_ref, atol=1e-12)
        assert v.shape == (0, 2)

    def test_equal_pi_columns_factorize(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.normal(size=(1, 2)), [0, 0], rng.normal(size=(2, 2)))
        p = np.array([0.6, 0.4])
        params = params_for(
            [0.5, 0.5], np.tile(p[:, None], (1, 2)), [-1.0, 1.0], 1.0, [-1.0, 1.0], 1.0
        )
        u, v = exact_gene_posterior(ds, params, 0)
        u_ref = indep_responsibilities(ds.x, params.tau, params.mu, params.sigma2)[0]
        v_ref = indep_responsibilities(ds.y, p, params.lam, params.rho2)
        np.testing.assert_allclose(u, u_ref, atol=1e-10)
        np.testing.assert_allclose(v, v_ref, atol=1e-10)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(42)
        ds = make_dataset(rng.normal(size=(1, 2)), [0, 0], rng.normal(size=(2, 2)))
        pi = random_responsibilities(rng, 3, 3).T
        params = params_for(
            [0.2, 0.5, 0.3], pi, [-2.0, 0.0, 2.0], 0.7, [-2.5, 0.0, 2.5], 1.1
        )
        u, v = exact_gene_posterior(ds, params, 0)
        u_bf, v_bf = brute_force_gene_posterior(ds, params, 0)
        np.testing.assert_allclose(u, u_bf, atol=1e-10)
        np.testing.assert_allclose(v, v_bf, atol=1e-10)


class TestLayerFit:
    ASCENDING = np.array([-1.0, 0.0, 1.0])

    def test_plain_argmax(self):
        _, layer = _layer_fit(self.ASCENDING, np.array([[0.1, 0.7, 0.2]]))
        assert layer.map_labels[0] == 2
        np.testing.assert_allclose(layer.uncertainty[0], 0.3)

    def test_tie_breaks_low_index(self):
        _, layer = _layer_fit(self.ASCENDING, np.array([[0.5, 0.5, 0.0]]))
        assert layer.map_labels[0] == 1
        assert layer.uncertainty[0] == 0.5

    def test_one_hot_certain(self):
        _, gene = _layer_fit(self.ASCENDING, np.array([[0.0, 1.0, 0.0]]))
        _, cpg = _layer_fit(self.ASCENDING, np.array([[1.0, 0.0, 0.0]]))
        assert gene.map_labels[0] == 2 and cpg.map_labels[0] == 1
        assert gene.uncertainty[0] == 0.0 and cpg.uncertainty[0] == 0.0

    def test_columns_follow_ascending_means_stably(self):
        resp = np.array([[0.6, 0.1, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        order, layer = _layer_fit(np.array([2.0, 0.0, 1.0, 0.0]), resp)
        assert order.tolist() == [1, 3, 2, 0]
        assert np.array_equal(layer.resp, resp[:, [1, 3, 2, 0]])
        assert layer.map_labels.tolist() == [4, 2]
        assert not np.shares_memory(layer.resp, resp)


class TestGeneGivenCpg:
    def test_identical_columns_give_tau(self):
        params = params_for(
            [0.2, 0.5, 0.3], np.tile([[0.3], [0.4], [0.3]], (1, 3)),
            [0, 1, 2], 1.0, [0, 1, 2], 1.0,
        )
        out = gene_given_cpg(params)
        for l in range(3):
            np.testing.assert_allclose(out[:, l], params.tau, atol=1e-12)

    def test_deterministic_coupling_identity(self):
        params = params_for(
            [0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [0, 1], 1.0, [0, 1], 1.0
        )
        np.testing.assert_allclose(gene_given_cpg(params), np.eye(2), atol=1e-12)

    def test_hand_bayes_value(self):
        params = params_for(
            [0.2, 0.8], [[0.5, 0.25], [0.5, 0.75]], [0, 1], 1.0, [0, 1], 1.0
        )
        out = gene_given_cpg(params)
        np.testing.assert_allclose(out[0, 0], 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-10)

    def test_zero_marginal_errors(self):
        params = params_for(
            [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [0, 1], 1.0, [0, 1], 1.0
        )
        with pytest.raises(UndefinedColumnError):
            gene_given_cpg(params)


class TestFit:
    def test_converges_on_well_separated_simulation(self):
        sim = simulate(SimConfig(case=2, seed=1, n_genes=120))
        ds, _, _ = simulated_dataset(sim)
        res = fit(ds)
        assert res.converged
        assert res.n_outer_iters <= 500
        res.params.validate()
        assert np.all(np.diff(res.params.mu) > 0)
        assert np.all(np.diff(res.params.lam) > 0)

    def test_outer_max_zero_returns_initialization(self):
        rng = np.random.default_rng(2)
        ds = random_mixture_dataset(rng, n_genes=15, n_patients=2)
        res = fit(ds, outer_max=0)
        assert not res.converged
        assert res.n_outer_iters == 0
        assert len(res.param_change_trace) == 0
        u0, _ = initialize_quantile(ds)
        perm = np.argsort(res.params.mu)  # relabel-safe comparison
        assert set(map(tuple, res.gene.resp)) == set(map(tuple, u0[:, perm]))

    def test_pinned_pi_matches_independent_baseline(self):
        rng = np.random.default_rng(9)
        ds = random_mixture_dataset(rng, n_genes=40, n_patients=3)
        res = fit(ds, force_independent=True, outer_tol=1e-11, outer_max=5000)
        ref_x = fit_independent(ds.x, K=3, tol=1e-11, max_iter=5000)
        ref_y = fit_independent(ds.y, K=3, tol=1e-11, max_iter=5000)
        for layer, ref in ((res.gene, ref_x), (res.cpg, ref_y)):
            assert np.abs(layer.resp - ref.layer.resp).max() < 1e-8
            assert np.array_equal(layer.map_labels, ref.layer.map_labels)
            assert np.abs(layer.uncertainty - ref.layer.uncertainty).max() < 1e-8
        assert np.abs(res.params.mu - ref_x.params.means).max() < 1e-8
        assert np.abs(res.params.lam - ref_y.params.means).max() < 1e-8

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(12)
        ds = random_mixture_dataset(rng, n_genes=25, n_patients=2)
        r1 = fit(ds)
        r2 = fit(ds)
        assert np.array_equal(r1.params.flatten(), r2.params.flatten())
        assert np.array_equal(r1.gene.resp, r2.gene.resp)
        assert np.array_equal(r1.cpg.map_labels, r2.cpg.map_labels)
        assert r1.n_outer_iters == r2.n_outer_iters

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        ds = random_mixture_dataset(rng, n_genes=24, n_patients=3, include_empty_genes=False)
        u0, v0 = initialize_quantile(ds)
        perm = np.array([2, 0, 1])
        res_a = fit(ds, init=(u0, v0))
        res_b = fit(ds, init=(u0[:, perm], v0[:, perm]))
        np.testing.assert_allclose(res_a.params.flatten(), res_b.params.flatten(), atol=1e-9)
        assert np.array_equal(res_a.gene.map_labels, res_b.gene.map_labels)
        assert np.array_equal(res_a.cpg.map_labels, res_b.cpg.map_labels)

    def test_uncertainty_bounds(self):
        rng = np.random.default_rng(31)
        ds = random_mixture_dataset(rng, n_genes=20, n_patients=2)
        res = fit(ds)
        assert res.gene.uncertainty.min() >= 0
        assert res.gene.uncertainty.max() <= 1 - 1.0 / 3.0 + 1e-12
        assert res.cpg.uncertainty.max() <= 1 - 1.0 / 3.0 + 1e-12

    def test_too_few_genes(self):
        ds = make_dataset(np.zeros((2, 1)), [0, 0, 1], np.array([[0.0], [1.0], [2.0]]))
        with pytest.raises(FitError):
            fit(ds, K=3, L=3)

    @pytest.mark.parametrize("K, L, bad", [(0, 3, "K"), (-1, 3, "K"), (3, 0, "L")])
    def test_cluster_count_below_one(self, K, L, bad):
        rng = np.random.default_rng(3)
        ds = random_mixture_dataset(rng, n_genes=10, n_patients=2)
        with pytest.raises(ParameterError, match=f"{bad} must be at least 1, got {min(K, L)}"):
            fit(ds, K=K, L=L)

    def test_a_gene_cluster_without_cpg_mass_warns_once(self, caplog):
        # the up-shifted genes carry no CpGs, so their cluster has no CpG
        # mass in every outer iteration of a fit that does not converge
        rng = np.random.default_rng(0)
        x = rng.normal(np.repeat([-3.0, 0.0, 3.0], [10, 40, 10])[:, None], 0.3, (60, 4))
        parents = np.repeat(np.arange(50), 5)
        y = rng.normal(0.0, 1.0, (250, 4)) - 2.0 * (parents < 10)[:, None]
        with caplog.at_level(logging.WARNING, logger="jointmix.joint_em"):
            results, _ = fit_all_chromosomes(make_dataset(x, parents, y))
        res = results["1"]
        assert not res.converged
        np.testing.assert_array_equal(res.params.pi[:, 2], 1 / 3)
        assert res.no_cpg_mass == [3]
        # logged once, by fit_all_chromosomes and not by fit, naming the chromosome
        assert caplog.messages == [
            "chromosome 1: gene cluster 3 has no CpG mass; its pi column is uniform",
            "chromosome 1 did not converge in 500 outer iterations",
        ]

    def test_observed_loglik_finite_diagnostic(self):
        rng = np.random.default_rng(13)
        ds = random_mixture_dataset(rng, n_genes=15, n_patients=2)
        res = fit(ds)
        ll = observed_loglik(ds, res.params)
        assert np.isfinite(ll)

    def test_expected_complete_loglik_increases_with_m_step(self):
        rng = np.random.default_rng(14)
        ds = random_mixture_dataset(rng, n_genes=20, n_patients=2)
        u = random_responsibilities(rng, ds.n_genes, 3)
        v = random_responsibilities(rng, ds.n_cpgs, 3)
        fitted = m_step(ds, u, v)
        other = params_for(
            [1 / 3] * 3, np.full((3, 3), 1 / 3), [-1.0, 0.0, 1.0], 1.0, [-1.0, 0.0, 1.0], 1.0
        )
        assert expected_complete_loglik(ds, u, v, fitted) >= expected_complete_loglik(
            ds, u, v, other
        )


def layouts(values):
    """C-ordered, Fortran-ordered and row-strided copies of the matrix ``values``."""
    return [values.copy(), np.asfortranarray(values), np.repeat(values, 2, axis=1)[:, ::2]]


class TestLayoutIndependence:
    """A fit's bits do not depend on the memory layout of its values.

    numpy sums a row of 8 or more values pairwise only when the row is
    contiguous, so at N = 40 a fit that summed other layouts as they are
    would differ in its last bits.
    """

    @pytest.fixture(scope="class")
    def ds(self):
        ds, _, _ = simulated_dataset(simulate(SimConfig(n_genes=300, n_patients=40, seed=3)))
        return ds

    def test_fit_and_fit_all_chromosomes(self, ds):
        fits = []
        for x, y in zip(layouts(ds.x), layouts(ds.y)):
            laid_out = dataclasses.replace(ds, x=x, y=y)
            results, failures = fit_all_chromosomes(laid_out)
            assert not failures
            fits += [fit(laid_out), results["1"]]
        want = fits[0]
        for got in fits[1:]:
            assert np.array_equal(got.params.flatten(), want.params.flatten())
            assert np.array_equal(got.gene.resp, want.gene.resp)
            assert np.array_equal(got.cpg.resp, want.cpg.resp)
            assert np.array_equal(got.param_change_trace, want.param_change_trace)

    def test_fit_independent(self, ds):
        fits = [fit_independent(values) for values in layouts(ds.y)]
        want = fits[0]
        for got in fits[1:]:
            assert np.array_equal(got.params.flatten(), want.params.flatten())
            assert np.array_equal(got.layer.resp, want.layer.resp)
            assert got.n_iters == want.n_iters


class TestEm:
    """The outer loop on arrays: an array is its own ``flatten()``able parameter."""

    def test_converges_on_a_contraction(self):
        params, resp, trace, converged = _em(
            lambda params, resp: params / 2, lambda resp: resp, np.array([1.0, -4.0]),
            tol=1e-3, max_iter=100,
        )
        # the change in iteration t is 4 / 2**t, first below 1e-3 at t = 12
        assert converged
        assert trace == [4.0 / 2**t for t in range(1, 13)]
        assert params.tolist() == [2.0**-12, -4.0 * 2.0**-12]
        assert resp is params

    def test_trace_has_one_entry_per_iteration(self):
        calls = []

        def e_step(params, resp):
            calls.append(params)
            return params + 1.0

        _, _, trace, converged = _em(e_step, lambda resp: resp, np.zeros(2), 0.5, 7)
        assert not converged
        assert len(trace) == len(calls) == 7

    def test_max_iter_zero_returns_the_first_m_step(self):
        resp0 = np.array([1.0, 2.0])
        params, resp, trace, converged = _em(
            lambda params, resp: pytest.fail("no E-step expected"), lambda resp: 3 * resp,
            resp0, 1e-5, 0,
        )
        assert params.tolist() == [3.0, 6.0]
        assert resp is resp0
        assert trace == [] and not converged

    def test_a_fit_error_names_its_iteration(self):
        def e_step(params, resp):
            if resp[0] == 2.0:
                raise DegenerateClusterError("gene", 1)
            return resp + 1.0

        with pytest.raises(FitError) as exc:
            _em(e_step, lambda resp: resp, np.zeros(1), 0.0, 10)
        assert str(exc.value) == (
            "outer iteration 3: degenerate gene cluster 1: total responsibility below threshold"
        )
        assert isinstance(exc.value.__cause__, DegenerateClusterError)

    def test_an_error_in_the_first_m_step_is_not_renamed(self):
        def m_step(resp):
            raise DegenerateClusterError("cpg", 0)

        with pytest.raises(DegenerateClusterError):
            _em(lambda params, resp: resp, m_step, np.zeros(1), 0.0, 10)


def fail_on_a(item):
    if item == "a":
        raise FitError("no fit for a")
    return item * 2


def degenerate_on_a(item):
    if item == "a":
        raise DegenerateClusterError("cpg", 2)
    return item * 2


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many CPUs ``_run_each`` sees as usable, whatever the host has."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    set_cpus(2)
    return set_cpus


def running(pid) -> bool:
    """Whether process ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestRunEach:
    def test_a_degenerate_cluster_in_a_worker_lands_in_failures_intact(self, usable_cpus):
        items = {"first": "a", "second": "b"}
        results, failures = _run_each(degenerate_on_a, items, 2, FitError)
        assert results == {"second": "bb"}
        exc = failures["first"]
        assert type(exc) is DegenerateClusterError and (exc.layer, exc.index) == ("cpg", 2)
        assert str(exc) == "degenerate cpg cluster 2: total responsibility below threshold"

    @pytest.mark.parametrize("cpus, n_items, threads, workers", [
        (2, 2, 2, 2), (1, 2, 2, 1), (2, 1, 2, 1), (2, 3, 1, 1), (2, 3, 8, 2), (4, 3, 8, 3),
    ])
    def test_workers_are_forked_only_for_two_items_on_two_cpus(
        self, usable_cpus, monkeypatch, cpus, n_items, threads, workers
    ):
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        usable_cpus(cpus)
        results, _ = _run_each(lambda item: os.getpid(), dict.fromkeys(range(n_items)), threads,
                               FitError)
        assert len(results) == n_items
        if workers == 1:
            assert started == [] and set(results.values()) == {os.getpid()}
        else:
            assert started == [workers] and os.getpid() not in results.values()

    def test_a_failure_does_not_stop_the_others(self):
        items = {"first": "a", "second": "b", "third": "c"}
        results, failures = _run_each(fail_on_a, items, 2, FitError)
        assert results == {"second": "bb", "third": "cc"}
        assert list(failures) == ["first"] and str(failures["first"]) == "no fit for a"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_exception_outside_catch_propagates(self, usable_cpus, threads):
        with pytest.raises(FitError) as exc:
            _run_each(fail_on_a, {1: "b", 2: "a", 3: "c"}, threads, KeyError)
        assert type(exc.value) is FitError and str(exc.value) == "no fit for a"
        assert multiprocessing.active_children() == []

    def test_workers_end_when_their_parent_is_killed(self):
        script = "\n".join([
            "import os, time",
            "from jointmix.errors import FitError",
            "from jointmix.dataset import _run_each",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "def nap(seconds):",
            "    os.write(1, b'%d\\n' % os.getpid())  # one write: the workers share the pipe",
            "    time.sleep(seconds)",
            "_run_each(nap, dict.fromkeys(range(4), 5.0), 2, FitError)",
        ])
        src = str(Path(jointmix.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        child = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                                 text=True)
        workers = set()
        try:
            while len(workers) < 2:  # a worker prints its pid as it starts a task
                line = child.stdout.readline()
                assert line, "the child ended before two workers started"
                workers.add(int(line))
            child.kill()
            child.wait(timeout=10)
            deadline = time.monotonic() + 4
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if running(pid)] == []
        finally:
            child.kill()
            child.wait(timeout=10)
            child.stdout.close()
            for pid in filter(running, workers):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_is_a_parameter_error(self, threads):
        calls = []
        with pytest.raises(ParameterError, match=f"threads must be at least 1, got {threads}"):
            _run_each(calls.append, {1: "a"}, threads, FitError)
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_results_keyed_like_items_for_any_thread_count(self, threads):
        items = {9: "x", 3: "a", 5: "y", 1: "z"}
        results, failures = _run_each(fail_on_a, items, threads, FitError)
        assert list(results.items()) == [(9, "xx"), (5, "yy"), (1, "zz")]
        assert list(failures) == [3]


class TestFitAllChromosomes:
    def build_two_chrom_dataset(self, rng):
        x, y = [], []
        for i in range(24):
            x.append(rng.normal((i % 3 - 1) * 3.0, 1.0, 3))
            for j in range(2):
                y.append(rng.normal((j * 2 - 1) * 3.0, 1.0, 3))
        chromosomes = ["1" if i < 12 else "2" for i in range(24)]
        return make_dataset(x, np.repeat(np.arange(24), 2), y, chromosomes=chromosomes)

    @pytest.mark.parametrize("parent", [24, -1])
    def test_a_parent_outside_the_genes_is_rejected_before_the_split(self, parent):
        ds = self.build_two_chrom_dataset(np.random.default_rng(17))
        ds.cpg_gene_idx[4] = parent
        message = f"CpG 'C0004' has gene row {parent}, outside [0, 24)"
        for fit_it in (fit, fit_all_chromosomes):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                fit_it(ds)

    @pytest.mark.parametrize("change, message", [
        (lambda ds: {"y": ds.y[:, :2]}, "y has shape (48, 2), but there are 3 patients"),
        (lambda ds: {"x": ds.x[:, :2]}, "x has shape (24, 2), but there are 3 patients"),
        (lambda ds: {"x": ds.x[:, 0]}, "x has shape (24,), but there are 3 patients"),
        (lambda ds: {"patients": ds.patients[:2]}, "x has shape (24, 3), but there are 2 patients"),
        (lambda ds: {"patients": []}, "the dataset has no patients"),
        (lambda ds: {"patients": [], "x": ds.x[:, :0], "y": ds.y[:, :0]},
         "the dataset has no patients"),
        (lambda ds: {"cpg_gene_idx": ds.cpg_gene_idx[:-1]},
         "cpg_gene_idx has 47 entries, but y has 48 rows"),
        (lambda ds: {"cpg_ids": ds.cpg_ids[1:]}, "cpg_ids has 47 entries, but y has 48 rows"),
        (lambda ds: {"gene_ids": ds.gene_ids[1:]}, "gene_ids has 23 entries, but x has 24 rows"),
        (lambda ds: {"chromosomes": ds.chromosomes[:-1]},
         "chromosomes has 23 entries, but x has 24 rows"),
    ])
    def test_arrays_of_other_sizes_are_a_parameter_error_naming_both(self, change, message):
        ds = self.build_two_chrom_dataset(np.random.default_rng(17))
        ds = dataclasses.replace(ds, **change(ds))
        for fit_it in (fit, fit_all_chromosomes):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                fit_it(ds)

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(17)
        ds = self.build_two_chrom_dataset(rng)
        r1, f1 = fit_all_chromosomes(ds, threads=1)
        r2, f2 = fit_all_chromosomes(ds, threads=2)
        assert not f1 and not f2
        assert sorted(r1) == sorted(r2)
        for label in r1:
            assert np.array_equal(r1[label].params.flatten(), r2[label].params.flatten())
            assert np.array_equal(r1[label].gene.resp, r2[label].gene.resp)

    def test_concurrent_fits_of_the_same_data_match_serial_fits(self):
        rng = np.random.default_rng(22)
        one = self.build_two_chrom_dataset(rng).subset(np.arange(12), np.arange(24))
        twice = make_dataset(
            np.vstack([one.x, one.x]), np.concatenate([one.cpg_gene_idx, one.cpg_gene_idx + 12]),
            np.vstack([one.y, one.y]), chromosomes=["1"] * 12 + ["2"] * 12,
        )
        serial, _ = fit_all_chromosomes(twice, threads=1)
        for threads in (1, 2):
            results, failures = fit_all_chromosomes(twice, threads=threads)
            assert not failures
            for res in (results["1"], results["2"], serial["2"]):
                ref = serial["1"]
                assert np.array_equal(res.params.flatten(), ref.params.flatten())
                assert np.array_equal(res.gene.resp, ref.gene.resp)
                assert np.array_equal(res.cpg.resp, ref.cpg.resp)
                assert np.array_equal(res.param_change_trace, ref.param_change_trace)

    def test_a_chromosome_holding_every_row_is_fitted_without_a_copy(self, monkeypatch):
        ds = random_mixture_dataset(np.random.default_rng(24), n_genes=30, n_patients=9)
        want = fit(ds.subset(np.arange(ds.n_genes), np.arange(ds.n_cpgs)))
        fitted = []
        monkeypatch.setattr(jointmix.joint_em, "fit", lambda part, **kw: fitted.append(part) or want)
        results, failures = fit_all_chromosomes(ds)
        assert not failures and list(results) == ["1"] and results["1"] is want
        assert len(fitted) == 1 and fitted[0].x is ds.x and fitted[0].y is ds.y
        monkeypatch.undo()
        got = fit_all_chromosomes(ds)[0]["1"]
        assert np.array_equal(got.params.flatten(), want.params.flatten())
        assert np.array_equal(got.gene.resp, want.gene.resp)
        assert np.array_equal(got.cpg.resp, want.cpg.resp)
        assert np.array_equal(got.param_change_trace, want.param_change_trace)

    def test_partial_failure_reports_and_continues(self):
        rng = np.random.default_rng(18)
        ds = self.build_two_chrom_dataset(rng)
        bigger = make_dataset(
            np.vstack([ds.x, rng.normal(size=(2, 3))]), ds.cpg_gene_idx, ds.y,
            chromosomes=[*ds.chromosomes.tolist(), "9", "9"],
        )
        results, failures = fit_all_chromosomes(bigger)
        assert set(results) == {"1", "2"}
        assert set(failures) == {"9"}
        assert isinstance(failures["9"], FitError)

    def test_fan_out_count(self):
        rng = np.random.default_rng(19)
        x, y, chromosomes = [], [], []
        for j in range(22):
            for i in range(6):
                x.append(rng.normal((i % 3 - 1) * 4.0, 1.0, 2))
                y.append(rng.normal((i % 3 - 1) * 4.0, 1.0, 2))
                chromosomes.append(f"chr{j + 1}")
        ds = make_dataset(x, np.arange(132), y, chromosomes=chromosomes)
        results, failures = fit_all_chromosomes(ds, threads=4)
        assert not failures
        assert list(results) == sorted(f"chr{j + 1}" for j in range(22))

    def test_unconverged_chromosome_logs_warning(self, caplog):
        rng = np.random.default_rng(20)
        ds = self.build_two_chrom_dataset(rng)
        with caplog.at_level(logging.WARNING, logger="jointmix.joint_em"):
            results, _ = fit_all_chromosomes(ds, outer_max=1)
        assert not any(r.converged for r in results.values())
        warned = [r.getMessage() for r in caplog.records if "did not converge" in r.getMessage()]
        assert warned == [
            "chromosome 1 did not converge in 1 outer iterations",
            "chromosome 2 did not converge in 1 outer iterations",
        ]

    def test_tied_means_warn_once_and_a_simulated_fit_logs_nothing(self, caplog):
        # two gene components end on one mean, 9.3e-16 standard deviations apart
        ds = random_mixture_dataset(np.random.default_rng(1169271180), n_genes=34, n_patients=1)
        with caplog.at_level(logging.WARNING, logger="jointmix.joint_em"):
            results, _ = fit_all_chromosomes(ds, outer_tol=1e-12)
        mu = results["1"].params.mu
        assert mu[1] == pytest.approx(2.69925937) and mu[2] == pytest.approx(mu[1], rel=1e-14)
        assert caplog.messages == [
            "chromosome 1 did not converge in 500 outer iterations",
            "chromosome 1: two mu lie within 1e-06 standard deviations; the fit has collapsed",
        ]
        assert _collapse(results["1"].params) == ([], ["mu"])  # what the manifest lists
        caplog.clear()
        ds, _, _ = simulated_dataset(simulate(SimConfig(case=2, seed=3)))
        with caplog.at_level(logging.WARNING, logger="jointmix.joint_em"):
            fit_all_chromosomes(ds)
        assert caplog.messages == []
