import json
import re
from dataclasses import fields

import numpy as np
import pytest
from scipy.stats import chi2

from jointmix.dataset import load_paired_dataset
from jointmix.errors import ParameterError
from jointmix.simulate import (
    CASE_PI,
    CPG_LABELS,
    GENE_LABELS,
    PROTOCOL,
    SimConfig,
    _numbered_ids,
    replicate_batch,
    simulate,
    write_simulation,
)


PROTOCOL_JSON = """\
  "beta_eps": 0.005,
  "beta_hemi": [
    4.0,
    3.0
  ],
  "beta_hyper": [
    20.0,
    3.0
  ],
  "beta_hypo": [
    3.0,
    20.0
  ],
  "case": %(case)d,
  "cpg_max": 30,
  "cpg_min": 3,
  "n_genes": %(n_genes)d,
  "n_patients": 4,
  "nb_mean_base": 10000.0,
  "nb_mean_down": 4000.0,
  "nb_mean_up": 60000.0,
  "nb_size": 5.0,
  "noise_sd": 0.05,
  "pi": %(pi)s,
  "prop_down": 0.1,
  "prop_up": 0.1,
  "replicate": %(replicate)d,
  "seed": %(seed)d
"""


class TestConfig:
    def test_case_matrices_are_column_stochastic(self):
        for case, pi in CASE_PI.items():
            np.testing.assert_allclose(pi.sum(axis=0), 1.0, atol=1e-12)

    def test_a_run_chooses_six_values(self):
        assert [f.name for f in fields(SimConfig)] == [
            "n_genes", "n_patients", "case", "pi", "seed", "replicate"]

    def test_protocol_invariants(self):
        p = PROTOCOL
        assert 0 <= p["prop_down"] and 0 <= p["prop_up"] and p["prop_down"] + p["prop_up"] < 1
        assert 0 <= p["cpg_min"] <= p["cpg_max"]
        assert all(p[f"nb_{name}"] > 0 for name in ("mean_base", "mean_down", "mean_up", "size"))
        assert all(min(p[name]) > 0 for name in ("beta_hypo", "beta_hyper", "beta_hemi"))
        assert p["noise_sd"] > 0 and 0 < p["beta_eps"] < 0.5

    def test_recorded_config_text(self):
        # the bytes of sim_config.json, of a simulate manifest's parameters and of benchmark.json
        def text(cfg):
            return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)

        assert text(SimConfig()) == "{\n" + PROTOCOL_JSON % dict(
            case=1, n_genes=500, pi="null", replicate=0, seed=0) + "}"
        pi = ("[\n    [\n      0.1,\n      0.1,\n      0.8\n    ],\n"
              "    [\n      0.1,\n      0.8,\n      0.1\n    ],\n"
              "    [\n      0.8,\n      0.1,\n      0.1\n    ]\n  ]")
        assert text(SimConfig(n_genes=30, case=3, pi=CASE_PI[2], seed=4, replicate=2)) == (
            "{\n" + PROTOCOL_JSON % dict(case=3, n_genes=30, pi=pi, replicate=2, seed=4) + "}")

    @pytest.mark.parametrize("name", ["n_genes", "n_patients"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_needs_at_least_one_gene_and_patient(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be at least 1, got {value}$"):
            SimConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["n_genes", "n_patients", "seed", "replicate"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None, float("nan")])
    def test_a_count_or_seed_that_is_not_an_integer_is_named(self, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SimConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["seed", "replicate"])
    @pytest.mark.parametrize("value", [-1, np.int64(-2)])
    def test_a_negative_seed_or_replicate_is_named(self, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be at least 0, got {value}$"):
            SimConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["n_genes", "n_patients", "seed", "replicate"])
    def test_a_numpy_integer_is_an_integer(self, name):
        SimConfig(**{name: np.int32(7)}).validate()

    def test_an_unknown_case_is_named(self):
        with pytest.raises(ParameterError, match=r"^case must be one of \[1, 2, 3\]$"):
            SimConfig(case=4).validate()

    def test_a_recorded_count_that_is_not_an_integer_fails_as_a_parameter(self):
        cfg = SimConfig.from_dict({**SimConfig().to_dict(), "n_genes": 2.5})
        with pytest.raises(ParameterError, match=r"^n_genes must be an integer, got 2\.5$"):
            simulate(cfg)

    @pytest.mark.parametrize("pi, message", [
        ([[0.5, 0.5, 0.5]] * 2, "dependency matrix must be 3x3"),
        ([[0.5, 0.5, 0.5]] * 3, "dependency matrix columns must each sum to 1"),
        # every column sums to 1; the negative entry is named, not the sums
        ([[1.2, 0.5, 0.5], [-0.2, 0.5, 0.5], [0, 0, 0]],
         "dependency matrix entry at row 2, column 1 is negative: -0.2"),
        # a nan fails every comparison, so no sum or sign test would catch it
        ([[float("nan")] * 3] * 3, "dependency matrix entry at row 1, column 1 is not finite: nan"),
        ([[0.5, 0.5, 0.5], [0.5, 0.5, float("-inf")], [0, 0, 0]],
         "dependency matrix entry at row 2, column 3 is not finite: -inf"),
    ])
    def test_explicit_pi_is_checked(self, pi, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            SimConfig(pi=pi).resolve_pi()

    def test_round_trip_via_dict(self):
        cfg = SimConfig(case=2, seed=9, pi=CASE_PI[2].tolist())
        again = SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_from_dict_takes_the_protocol_as_recorded_and_nothing_else(self):
        recorded = SimConfig(seed=3).to_dict()
        as_tuple = {**recorded, "beta_hemi": (4, 3.0)}
        assert SimConfig.from_dict(as_tuple) == SimConfig(seed=3)
        for key, value in [("prop_down", 0.2), ("cpg_max", 31), ("beta_hypo", [3.0, 21.0]),
                           ("beta_hemi", [4.0, 3.0, 1.0]), ("noise_sd", None)]:
            with pytest.raises(ParameterError, match=f"^{key} is fixed at .* by the simulation "
                                                     f"protocol, got {re.escape(repr(value))}$"):
                SimConfig.from_dict({**recorded, key: value})

    @pytest.mark.parametrize("d", [{"prop_flat": 1}, {"seed": 3, "n_genes": 9, "genes": 9}])
    def test_from_dict_names_an_unknown_key(self, d):
        unknown = next(key for key in d if key in ("prop_flat", "genes"))
        with pytest.raises(ParameterError, match=f"^unknown simulation setting '{unknown}'$"):
            SimConfig.from_dict(d)


class TestSimulate:
    def test_exact_gene_label_counts(self):
        sim = simulate(SimConfig(case=2, seed=7))
        labels, counts = np.unique(sim.truth.gene_labels, return_counts=True)
        by = dict(zip(labels.tolist(), counts.tolist()))
        assert by == {"E-": 50, "E0": 400, "E+": 50}

    def test_condition_a_count_moments(self):
        # 1e5 condition-A draws; NB(mean 1e4, size 5) plus Poisson resampling
        sim = simulate(SimConfig(n_genes=25_000, seed=5))
        counts = sim.counts_a.astype(float).ravel()
        assert counts.size == 100_000
        nb_var = 1e4 + 1e8 / 5.0
        se = np.sqrt((nb_var + 1e4) / counts.size)
        assert abs(counts.mean() - 1e4) < 3 * se
        assert abs(counts.var() - nb_var) < 0.10 * nb_var

    def test_cpg_counts_within_bounds(self):
        sim = simulate(SimConfig(seed=3))
        counts = np.bincount(sim.truth.cpg_gene_idx, minlength=500)
        assert counts.min() >= 3
        assert counts.max() <= 30
        assert 1500 <= len(sim.truth.cpg_ids) <= 15_000

    def test_case3_labels_independent_of_gene_label(self):
        gene_all, cpg_all = [], []
        for rep in range(3):
            sim = simulate(SimConfig(case=3, seed=31, replicate=rep))
            gene_all.append(sim.truth.gene_labels[sim.truth.cpg_gene_idx])
            cpg_all.append(sim.truth.cpg_labels)
        g = np.concatenate(gene_all)
        c = np.concatenate(cpg_all)
        table = np.zeros((3, 3))
        for i, gl in enumerate(GENE_LABELS):
            for j, cl in enumerate(CPG_LABELS):
                table[i, j] = np.sum((g == gl) & (c == cl))
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
        stat = ((table - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, df=4)

    def test_conditional_frequencies_match_pi(self):
        pools = {}
        for rep in range(4):
            sim = simulate(SimConfig(case=1, seed=13, replicate=rep))
            g = sim.truth.gene_labels[sim.truth.cpg_gene_idx]
            c = sim.truth.cpg_labels
            for k, gl in enumerate(GENE_LABELS):
                for l, cl in enumerate(CPG_LABELS):
                    num, den = pools.get((l, k), (0, 0))
                    pools[(l, k)] = (num + np.sum((g == gl) & (c == cl)), den + np.sum(g == gl))
        pi = CASE_PI[1]
        worst = max(abs(num / den - pi[l, k]) for (l, k), (num, den) in pools.items())
        assert worst < 0.02

    def test_betas_strictly_inside_unit_interval(self):
        sim = simulate(SimConfig(seed=2))
        for b in (sim.betas_a, sim.betas_b):
            assert b.min() > 0.0
            assert b.max() < 1.0

    def test_seeded_determinism(self):
        a = simulate(SimConfig(seed=8))
        b = simulate(SimConfig(seed=8))
        assert np.array_equal(a.counts_a, b.counts_a)
        assert np.array_equal(a.betas_b, b.betas_b)
        assert np.array_equal(a.truth.cpg_labels, b.truth.cpg_labels)


    def test_ids_are_numbered_from_one_and_zero_padded(self):
        t = simulate(SimConfig(n_genes=30, seed=2)).truth
        assert t.gene_ids == [f"G{i + 1:05d}" for i in range(30)]
        assert t.cpg_ids == [f"C{i + 1:06d}" for i in range(len(t.cpg_ids))]
        for n in (0, 1, 100_001):
            assert _numbered_ids("G%05d", n) == [f"G{i + 1:05d}" for i in range(n)]


class TestWriteSimulation:
    def test_round_trip_through_loader(self, tmp_path):
        sim = simulate(SimConfig(n_genes=30, seed=4))
        write_simulation(sim, tmp_path)
        ds = load_paired_dataset(tmp_path / "expression_a.tsv", tmp_path / "methylation_a.tsv")
        np.testing.assert_array_equal(ds.x, sim.counts_a.astype(float))
        np.testing.assert_array_equal(ds.y, sim.betas_a)

    def test_truth_row_count(self, tmp_path):
        sim = simulate(SimConfig(n_genes=30, seed=4))
        write_simulation(sim, tmp_path)
        lines = (tmp_path / "truth.tsv").read_text().splitlines()
        assert len(lines) == 1 + 30 + len(sim.truth.cpg_ids)

    def test_config_round_trip_reproduces_files(self, tmp_path):
        sim = simulate(SimConfig(n_genes=25, seed=6))
        d1 = tmp_path / "first"
        d2 = tmp_path / "second"
        write_simulation(sim, d1)
        cfg = SimConfig.from_dict(json.loads((d1 / "sim_config.json").read_text()))
        write_simulation(simulate(cfg), d2)
        for name in ("expression_a.tsv", "expression_b.tsv", "methylation_a.tsv",
                     "methylation_b.tsv", "truth.tsv", "sim_config.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_numpy_integers_write_the_files_of_python_ints(self, tmp_path):
        numpy, python = tmp_path / "numpy", tmp_path / "python"
        write_simulation(simulate(SimConfig(n_genes=np.int64(20), seed=np.int64(3))), numpy)
        write_simulation(simulate(SimConfig(n_genes=20, seed=3)), python)
        names = sorted(p.name for p in python.iterdir())
        assert "sim_config.json" in names
        assert sorted(p.name for p in numpy.iterdir()) == names
        for name in names:
            assert (numpy / name).read_bytes() == (python / name).read_bytes()


class TestReplicateBatch:
    def test_single_replicate_matches_simulate(self):
        cfg = SimConfig(n_genes=20, seed=10)
        (only,) = list(replicate_batch(cfg, 1))
        direct = simulate(cfg)
        assert np.array_equal(only.counts_b, direct.counts_b)
        assert np.array_equal(only.betas_a, direct.betas_a)

    def test_replicates_differ_but_share_config(self):
        cfg = SimConfig(n_genes=20, seed=10)
        r0, r1 = list(replicate_batch(cfg, 2))
        assert not np.array_equal(r0.counts_a, r1.counts_a)
        assert r0.config.seed == r1.config.seed
        assert r1.config.replicate == r0.config.replicate + 1

    def test_batch_sizes_and_bounds(self):
        for sim in replicate_batch(SimConfig(seed=44), 3):
            assert sim.counts_a.shape == (500, 4)
            assert 1500 <= len(sim.truth.cpg_ids) <= 15_000

    def test_bad_count(self):
        with pytest.raises(ParameterError):
            list(replicate_batch(SimConfig(), 0))
