import numpy as np
import pytest
from oracle_utils import replicate_rows_of_names

from jointmix.baseline import fit_independent
from jointmix.errors import ParameterError
from jointmix.evaluate import benchmark, run_replicate, score_labels, simulated_dataset
from jointmix.joint_em import fit
from jointmix.reports import write_benchmark_tables
from jointmix.simulate import SimConfig, simulate


class TestBinaryMetrics:
    """``score_labels``' differential-vs-null counts and rates."""

    def test_perfect_prediction(self):
        truth = ["E-", "E0", "E+", "E0"]
        rep = score_labels(truth, truth)
        assert rep.fdr == 0.0
        assert rep.sensitivity == 1.0
        assert rep.specificity == 1.0
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 0, 2, 0)

    def test_one_false_discovery_in_ten(self):
        truth = ["E-"] * 9 + ["E0"] + ["E0"] * 10
        pred = ["E+"] * 10 + ["E0"] * 10
        rep = score_labels(truth, pred)
        assert rep.fdr == pytest.approx(0.1)

    def test_all_null_sensitivity_undefined(self):
        truth = ["M0", "M0", "M0"]
        rep = score_labels(truth, truth)
        assert rep.sensitivity is None
        assert rep.specificity == 1.0
        assert rep.fdr is None

    def test_direction_swap_invariance(self):
        rng = np.random.default_rng(0)
        truth = np.array(["E-", "E0", "E+"])[rng.integers(0, 3, 60)]
        pred = np.array(["E-", "E0", "E+"])[rng.integers(0, 3, 60)]
        swap = {"E-": "E+", "E+": "E-", "E0": "E0"}
        truth_s = np.array([swap[t] for t in truth])
        pred_s = np.array([swap[p] for p in pred])
        a = score_labels(truth, pred)
        b = score_labels(truth_s, pred_s)
        assert a.as_dict() == b.as_dict()

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            score_labels(["E0"], ["E0", "E0"])

    def test_no_labels_rejected(self):
        with pytest.raises(ParameterError, match="no labels to score"):
            score_labels([], [])


class TestThreeClassAri:
    """``score_labels``' ARI over the full three-class partitions."""

    def test_identical(self):
        labels = ["E-", "E0", "E+", "E0"]
        assert score_labels(labels, labels).ari == 1.0

    def test_renamed_clusters_still_one(self):
        truth = ["E-", "E-", "E0", "E+"]
        pred = ["E+", "E+", "E-", "E0"]
        assert score_labels(truth, pred).ari == pytest.approx(1.0)

    def test_hand_contingency_value(self):
        assert score_labels([1, 1, 2, 2], [1, 2, 1, 2]).ari == pytest.approx(-0.5)

    def test_score_labels_attaches_ari(self):
        rep = score_labels(["E-", "E0"], ["E-", "E0"])
        assert rep.ari == 1.0


@pytest.fixture(scope="module")
def small_result():
    return benchmark(1, 2, cfg=SimConfig(n_genes=80, seed=77))


class TestBenchmark:
    def test_smoke_rows_finite(self, small_result):
        assert not small_result.failures
        for method, layer, metric, mean, sd, n in small_result.summary_rows:
            assert n == 2
            assert np.isfinite(mean)
            assert np.isfinite(sd)

    def test_aggregation_matches_naive_accumulation(self, small_result):
        rows = small_result.replicate_rows
        for method, layer, metric, mean, sd, n in small_result.summary_rows:
            values = []
            for rep, m, lay, met, v in rows:
                if (m, lay, met) == (method, layer, metric) and v is not None:
                    values.append(v)
            assert len(values) == n
            total = 0.0
            for v in values:
                total += v
            naive_mean = total / len(values)
            sq = 0.0
            for v in values:
                sq += (v - naive_mean) ** 2
            naive_sd = (sq / (len(values) - 1)) ** 0.5
            assert mean == pytest.approx(naive_mean, abs=1e-12)
            assert sd == pytest.approx(naive_sd, abs=1e-12)

    def test_agreement_rows_present(self, small_result):
        methods = {m for m, *_ in small_result.summary_rows}
        assert "joint_vs_independent" in methods

    def test_thread_pool_matches_serial(self):
        cfg = SimConfig(n_genes=60, seed=5)
        serial = benchmark(1, 3, cfg=cfg, threads=1)
        pooled = benchmark(1, 3, cfg=cfg, threads=4)
        assert serial.replicate_rows == pooled.replicate_rows
        assert serial.summary_rows == pooled.summary_rows

    def test_a_numpy_replicate_count_writes_the_files_of_a_python_int(self, tmp_path):
        cfg, numpy, python = SimConfig(n_genes=60, seed=1), tmp_path / "numpy", tmp_path / "python"
        write_benchmark_tables(numpy, benchmark(3, np.int64(2), cfg=cfg))
        write_benchmark_tables(python, benchmark(3, 2, cfg=cfg))
        for name in ("benchmark_summary.tsv", "benchmark_replicates.tsv", "benchmark.json"):
            assert (numpy / name).read_bytes() == (python / name).read_bytes()

    def test_needs_two_replicates(self):
        with pytest.raises(ParameterError):
            benchmark(1, 1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            benchmark(1, 2, methods=("joint", "magic"))

    @pytest.mark.parametrize("methods, message", [
        ((), "at least one method"),
        (("joint", "joint"), "method 'joint' is listed twice"),
        (("independent", "joint", "independent"), "method 'independent' is listed twice"),
    ])
    def test_empty_or_repeated_methods_rejected(self, methods, message):
        with pytest.raises(ParameterError, match=message):
            benchmark(1, 2, methods=methods, cfg=SimConfig(n_genes=20))

    def test_invalid_config_rejected_before_any_replicate(self):
        with pytest.raises(ParameterError, match="n_genes must be at least 1, got 0"):
            benchmark(1, 2, cfg=SimConfig(n_genes=0))


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("seed", [5, 31])
def test_replicate_rows_equal_those_scored_on_label_names(case, seed):
    """Scoring integer states gives the rows that scoring the label names gave."""
    cfg = SimConfig(case=case, seed=seed)
    sim = simulate(cfg)
    ds, _, _ = simulated_dataset(sim)
    res = fit(ds)
    layers = {"joint": (res.gene, res.cpg),
              "independent": tuple(fit_independent(v, K=3).layer for v in (ds.x, ds.y))}
    t = sim.truth
    truths = (t.gene_labels[np.isin(t.gene_ids, ds.gene_ids)],
              t.cpg_labels[np.isin(t.cpg_ids, ds.cpg_ids)])
    assert run_replicate(cfg) == replicate_rows_of_names(truths, layers)
