"""Acceptance suite: every contract criterion, one test each.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and asserts the stated tolerance. The
benchmark fixtures are module-scoped because three of the criteria
share the same 20-replicate runs.
"""

import numpy as np
import pytest
from oracle_utils import brute_force_gene_posterior, random_responsibilities

from conftest import make_dataset, random_mixture_dataset
from jointmix.baseline import fit_independent
from jointmix.cli import main, timing_probe
from jointmix.evaluate import benchmark
from jointmix.joint_em import (
    JointParams,
    Responsibilities,
    e_step_fixed_point,
    exact_gene_posterior,
    expected_complete_loglik,
    fit,
    m_step,
)
from jointmix.simulate import SimConfig


N_REPLICATES = 20
BENCH_SEED = 42


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def bench_case1():
    return benchmark(1, N_REPLICATES, cfg=SimConfig(seed=BENCH_SEED), threads=4)


@pytest.fixture(scope="module")
def bench_case2():
    return benchmark(2, N_REPLICATES, cfg=SimConfig(seed=BENCH_SEED), threads=4)


@pytest.fixture(scope="module")
def bench_case3():
    return benchmark(3, N_REPLICATES, cfg=SimConfig(seed=BENCH_SEED), threads=4)


def mean_of(result, method, layer, metric):
    for m, lay, met, mean, sd, n in result.summary_rows:
        if (m, lay, met) == (method, layer, metric):
            assert n > 0, f"no defined values for {method}/{layer}/{metric}"
            return mean
    raise KeyError((method, layer, metric))


def test_criterion_01_case1_benchmark(bench_case1):
    assert not bench_case1.failures
    deg = {m: mean_of(bench_case1, "joint", "gene", m) for m in
           ("fdr", "sensitivity", "specificity", "ari")}
    dmc = {m: mean_of(bench_case1, "joint", "cpg", m) for m in
           ("fdr", "sensitivity", "ari")}
    ok = (
        deg["fdr"] <= 0.06 and deg["sensitivity"] >= 0.93
        and deg["specificity"] >= 0.98 and deg["ari"] >= 0.92
        and dmc["fdr"] <= 0.05 and dmc["sensitivity"] >= 0.99 and dmc["ari"] >= 0.96
    )
    report(
        1, ok,
        "case-1 joint means DEG(fdr %.3f sens %.3f spec %.3f ari %.3f) "
        "DMC(fdr %.3f sens %.3f ari %.3f)" % (
            deg["fdr"], deg["sensitivity"], deg["specificity"], deg["ari"],
            dmc["fdr"], dmc["sensitivity"], dmc["ari"],
        ),
    )


def test_criterion_02_case2_benchmark(bench_case2):
    assert not bench_case2.failures
    ari = mean_of(bench_case2, "joint", "gene", "ari")
    fdr = mean_of(bench_case2, "joint", "gene", "fdr")
    report(2, ari >= 0.97 and fdr <= 0.03,
           "case-2 joint DEG ari %.3f (>= 0.97), fdr %.3f (<= 0.03)" % (ari, fdr))


def test_criterion_03_joint_vs_independent_gap(bench_case1, bench_case2):
    gaps = []
    for result in (bench_case1, bench_case2):
        gaps.append(
            mean_of(result, "joint", "gene", "ari")
            - mean_of(result, "independent", "gene", "ari")
        )
    report(3, all(g >= 0.10 for g in gaps),
           "DEG ARI gaps joint-independent: case1 %.3f, case2 %.3f (>= 0.10)" % tuple(gaps))


def test_criterion_04_case3_independence(bench_case3):
    agree = mean_of(bench_case3, "joint_vs_independent", "cpg", "ari")
    diffs = {
        m: abs(mean_of(bench_case3, "joint", "gene", m)
               - mean_of(bench_case3, "independent", "gene", m))
        for m in ("fdr", "sensitivity", "specificity", "ari")
    }
    ok = agree >= 0.99 and all(d <= 0.05 for d in diffs.values())
    report(4, ok,
           "case-3 DMC joint-vs-independent ari %.4f (>= 0.99); DEG metric gaps "
           "fdr %.3f sens %.3f spec %.3f ari %.3f (each <= 0.05)" % (
               agree, diffs["fdr"], diffs["sensitivity"],
               diffs["specificity"], diffs["ari"]),
    )


def test_criterion_05_pinned_pi_equivalence():
    rng = np.random.default_rng(505)
    worst = 0.0
    for i in range(10):
        ds = random_mixture_dataset(
            rng, n_genes=int(rng.integers(15, 51)), n_patients=int(rng.integers(2, 5)),
            max_cpgs=4,
        )
        res = fit(ds, force_independent=True, outer_tol=1e-11, outer_max=20000)
        ref_x = fit_independent(ds.x, K=3, tol=1e-11, max_iter=20000)
        ref_y = fit_independent(ds.y, K=3, tol=1e-11, max_iter=20000)
        worst = max(
            worst,
            np.abs(res.gene.resp - ref_x.layer.resp).max(),
            np.abs(res.cpg.resp - ref_y.layer.resp).max(),
        )
    report(5, worst < 1e-6,
           "pinned-pi joint vs independent responsibilities, worst |diff| = %.2e (< 1e-6)" % worst)


def _stationarity_violations(ds, u, v, params):
    """Max |FD gradient| and worst perturbation gain of the M-step optimum."""
    h = 1e-5
    step = 1e-3
    base = expected_complete_loglik(ds, u, v, params)
    worst_grad = 0.0
    worst_gain = -np.inf

    def probe(apply):
        nonlocal worst_grad, worst_gain
        q_plus = expected_complete_loglik(ds, u, v, apply(h))
        q_minus = expected_complete_loglik(ds, u, v, apply(-h))
        worst_grad = max(worst_grad, abs((q_plus - q_minus) / (2 * h)))
        for delta in (step, -step):
            worst_gain = max(
                worst_gain, expected_complete_loglik(ds, u, v, apply(delta)) - base
            )

    k_n = params.n_gene_clusters
    l_n = params.n_cpg_clusters
    for k in range(k_n):
        def with_mu(delta, k=k):
            p = params.copy()
            p.mu = p.mu.copy()
            p.mu[k] += delta
            return p
        probe(with_mu)
    for l in range(l_n):
        def with_lam(delta, l=l):
            p = params.copy()
            p.lam[l] += delta
            return p
        probe(with_lam)

    def with_sigma2(delta):
        p = params.copy()
        p.sigma2 += delta
        return p
    probe(with_sigma2)

    def with_rho2(delta):
        p = params.copy()
        p.rho2 += delta
        return p
    probe(with_rho2)

    for k in range(k_n):
        def with_tau(delta, k=k):
            p = params.copy()
            p.tau[k] += delta
            p.tau /= p.tau.sum()
            return p
        probe(with_tau)
    for k in range(k_n):
        for l in range(l_n):
            def with_pi(delta, k=k, l=l):
                p = params.copy()
                p.pi[l, k] += delta
                p.pi[:, k] /= p.pi[:, k].sum()
                return p
            probe(with_pi)
    return worst_grad, worst_gain


def test_criterion_06_m_step_stationarity():
    rng = np.random.default_rng(606)
    worst_grad = 0.0
    worst_gain = -np.inf
    for i in range(10):
        ds = random_mixture_dataset(
            rng, n_genes=int(rng.integers(8, 20)), n_patients=int(rng.integers(2, 4)),
            max_cpgs=4, include_empty_genes=(i % 2 == 0),
        )
        assert ds.n_cpgs >= 3
        u = random_responsibilities(rng, ds.n_genes, 3)
        v = random_responsibilities(rng, ds.n_cpgs, 3)
        params = m_step(ds, u, v)
        grad, gain = _stationarity_violations(ds, u, v, params)
        worst_grad = max(worst_grad, grad)
        worst_gain = max(worst_gain, gain)
    report(
        6, worst_grad < 1e-4 and worst_gain <= 1e-9,
        "M-step optimum: max |FD gradient| %.2e (< 1e-4), best perturbation gain %.2e (<= 0)"
        % (worst_grad, worst_gain),
    )


def _random_joint_params(rng, k=3, l=3):
    tau = rng.dirichlet(np.ones(k) * 4.0)
    pi = np.stack([rng.dirichlet(np.ones(l) * 3.0) for _ in range(k)], axis=1)
    mu = np.sort(rng.normal(0.0, 2.0, k))
    lam = np.sort(rng.normal(0.0, 2.5, l))
    return JointParams(
        tau=tau, pi=pi, mu=mu, sigma2=float(rng.uniform(0.5, 2.0)),
        lam=lam, rho2=float(rng.uniform(0.5, 2.0)),
    )


def test_criterion_07_e_step_oracles():
    rng = np.random.default_rng(707)
    worst_exact = 0.0
    for _ in range(20):
        n_genes = int(rng.integers(1, 3))
        counts = rng.integers(0, 4, n_genes)
        if counts.sum() == 0:
            counts[0] = 1
        ds = make_dataset(
            rng.normal(0, 2, (n_genes, 2)),
            np.repeat(np.arange(n_genes), counts),
            rng.normal(0, 2, (int(counts.sum()), 2)),
        )
        params = _random_joint_params(rng)
        for g in range(ds.n_genes):
            u_ex, v_ex = exact_gene_posterior(ds, params, g)
            u_bf, v_bf = brute_force_gene_posterior(ds, params, g)
            worst_exact = max(worst_exact, np.abs(u_ex - u_bf).max())
            if len(v_ex):
                worst_exact = max(worst_exact, np.abs(v_ex - v_bf).max())

    worst_indep = 0.0
    for _ in range(10):
        ds = random_mixture_dataset(rng, n_genes=10, n_patients=2, max_cpgs=3)
        params = _random_joint_params(rng)
        shared = rng.dirichlet(np.ones(3) * 3.0)
        params.pi = np.tile(shared[:, None], (1, 3))
        warm = Responsibilities(
            u_hat=np.full((ds.n_genes, 3), 1 / 3),
            v_hat=np.full((ds.n_cpgs, 3), 1 / 3),
        )
        resp = e_step_fixed_point(ds, params, warm, inner_tol=1e-13)
        for g in range(ds.n_genes):
            u_ex, v_ex = exact_gene_posterior(ds, params, g)
            worst_indep = max(worst_indep, np.abs(resp.u_hat[g] - u_ex).max())
            idx = ds.gene_cpg_indices(g)
            if len(idx):
                worst_indep = max(worst_indep, np.abs(resp.v_hat[idx] - v_ex).max())
    report(
        7, worst_exact < 1e-10 and worst_indep < 1e-10,
        "exact vs brute-force |diff| %.2e; fixed-point vs exact at equal pi columns "
        "|diff| %.2e (each < 1e-10)" % (worst_exact, worst_indep),
    )


def test_criterion_08_linear_cost_in_patients():
    rows = timing_probe([4, 40], SimConfig(seed=808), repeats=2)
    seconds = {n: s for n, _, _, s in rows}
    ratio = seconds[40] / seconds[4]
    report(8, 5.0 <= ratio <= 20.0,
           "fit wall-clock ratio N=40/N=4 = %.2f (within [5, 20])" % ratio)


def test_criterion_09_benchmark_thread_determinism(tmp_path):
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / f"threads{threads}"
        code = main([
            "benchmark", "--case", "1", "--replicates", "4", "--genes", "120",
            "--seed", "99", "--threads", str(threads), "--out", str(out),
        ])
        assert code == 0
        outputs[threads] = {
            name: (out / name).read_bytes()
            for name in ("benchmark_summary.tsv", "benchmark_replicates.tsv", "benchmark.json")
        }
    ok = outputs[1] == outputs[8]
    report(9, ok, "benchmark tables byte-identical for --threads 1 vs 8")


def test_criterion_10_synthetic_standin_formats(tmp_path):
    # the real-data study is out of desk-scale reach; the pipeline's file
    # formats are exercised end to end on a synthetic stand-in instead
    sim = tmp_path / "sim"
    prep = tmp_path / "prep"
    fit_out = tmp_path / "fit"
    ev = tmp_path / "eval"
    assert main(["simulate", "--genes", "60", "--seed", "7", "--out", str(sim)]) == 0
    assert main([
        "preprocess",
        "--expression-a", str(sim / "expression_a.tsv"),
        "--expression-b", str(sim / "expression_b.tsv"),
        "--methylation-a", str(sim / "methylation_a.tsv"),
        "--methylation-b", str(sim / "methylation_b.tsv"),
        "--out", str(prep),
    ]) == 0
    assert main([
        "fit", "--expression", str(prep / "expression.tsv"),
        "--methylation", str(prep / "methylation.tsv"), "--out", str(fit_out),
    ]) == 0
    assert main([
        "evaluate", "--truth", str(sim / "truth.tsv"),
        "--predicted", str(fit_out / "cpg_results.tsv"), "--layer", "cpg",
        "--out", str(ev),
    ]) == 0
    import json

    model = json.loads((fit_out / "model.json").read_text())
    gene_header = (fit_out / "gene_results.tsv").read_text().splitlines()[0].split("\t")
    cpg_header = (fit_out / "cpg_results.tsv").read_text().splitlines()[0].split("\t")
    evaluation = json.loads((ev / "evaluation.json").read_text())
    ok = (
        set(model) >= {"model", "K", "L", "chromosomes"}
        and gene_header == ["gene_id", "chromosome", "posterior_Eminus", "posterior_E0",
                            "posterior_Eplus", "map_label", "uncertainty"]
        and cpg_header == ["cpg_id", "gene_id", "chromosome", "posterior_Mminus",
                            "posterior_M0", "posterior_Mplus", "map_label", "uncertainty"]
        and {"fdr", "sensitivity", "specificity", "ari"} <= set(evaluation)
    )
    report(10, ok, "synthetic stand-in pipeline emits the contracted formats end to end")
