import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jointmix
from jointmix.cli import main
from jointmix.simulate import SimConfig, simulate, write_simulation


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    write_simulation(simulate(SimConfig(n_genes=80, seed=5)), out)
    return out


def preprocess(sim_dir, out, *extra, **inputs):
    """Run ``preprocess`` on the simulation, any input file replaced by keyword."""
    files = {name: inputs.get(name, sim_dir / f"{name}.tsv")
             for name in ("expression_a", "expression_b", "methylation_a", "methylation_b")}
    flags = [a for name, path in files.items() for a in (f"--{name.replace('_', '-')}", path)]
    return run("preprocess", *flags, "--out", out, "--force", *extra)


def doctored(src, dst, lineno, column, text):
    """Copy a TSV, replacing one cell (1-based line and column)."""
    lines = src.read_text().splitlines()
    parts = lines[lineno - 1].split("\t")
    parts[column - 1] = text
    lines[lineno - 1] = "\t".join(parts)
    dst.write_text("\n".join(lines) + "\n")
    return dst


def manifest(out):
    return json.loads((Path(out) / "manifest.json").read_text())


def test_cli_import_leaves_scipy_out():
    src = str(Path(jointmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, jointmix.cli; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def transformed_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    assert preprocess(sim_dir, out) == 0
    return out


class TestSimulateCommand:
    def test_writes_dataset_files(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--genes", 40, "--seed", 3, "--out", out) == 0
        for name in ("expression_a.tsv", "expression_b.tsv", "methylation_a.tsv",
                     "methylation_b.tsv", "truth.tsv", "sim_config.json", "manifest.json"):
            assert (out / name).exists()

    def test_replicates_get_subdirectories(self, tmp_path):
        out = tmp_path / "batch"
        assert run("simulate", "--genes", 30, "--replicates", 2, "--out", out) == 0
        assert (out / "rep000" / "truth.tsv").exists()
        assert (out / "rep001" / "truth.tsv").exists()

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--genes", 30, "--out", out) == 0
        assert run("simulate", "--genes", 30, "--out", out) == 1
        assert run("simulate", "--genes", 30, "--out", out, "--force") == 0

    @pytest.mark.parametrize("flag, name", [("--genes", "n_genes"), ("--patients", "n_patients")])
    def test_no_genes_or_patients_is_one_input_error(self, tmp_path, capsys, flag, name):
        out = tmp_path / "sim"
        assert run("simulate", flag, 0, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {name} must be at least 1, got 0"]
        assert not out.exists()

    def test_pi_file_is_read_as_its_matrix(self, tmp_path):
        pi = tmp_path / "pi.txt"
        pi.write_text("# gene clusters in columns\n0.8 0.1 0.1\n\n0.1 0.8 0.1\n0.1 0.1 0.8\n")
        out = tmp_path / "sim"
        assert run("simulate", "--genes", 30, "--pi-file", pi, "--out", out) == 0
        assert manifest(out)["parameters"]["pi"] == np.loadtxt(pi).tolist()

    @pytest.mark.parametrize("bad_line, message", [
        (b"0.1 \xe9 0.1\n", "not UTF-8 text (byte 0xe9)"),
        (b"0.1 abc 0.1\n", "expected numbers, got '0.1 abc 0.1'"),
        (b"0.1 nan 0.1\n", "non-finite entry"),
        (b"0.1 0.1\n", "2 entries, expected 3"),
    ])
    def test_bad_pi_file_names_its_line(self, tmp_path, capsys, bad_line, message):
        pi = tmp_path / "pi.txt"
        pi.write_bytes(b"0.8 0.1 0.1\n" + bad_line + b"0.1 0.1 0.8\n")
        code = run("simulate", "--genes", 30, "--pi-file", pi, "--out", tmp_path / "sim")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{pi}:2: {message}" in err
        assert "Traceback" not in err


class TestPreprocessCommand:
    def test_outputs_model_ready_tables(self, transformed_dir):
        header = (transformed_dir / "expression.tsv").read_text().splitlines()[0]
        assert header.split("\t")[:2] == ["gene_id", "chromosome"]
        manifest = json.loads((transformed_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "preprocess"
        assert len(manifest["input_digests"]) == 4

    def test_missing_file_is_input_error(self, sim_dir, tmp_path):
        code = run(
            "preprocess",
            "--expression-a", sim_dir / "missing.tsv",
            "--expression-b", sim_dir / "expression_b.tsv",
            "--methylation-a", sim_dir / "methylation_a.tsv",
            "--methylation-b", sim_dir / "methylation_b.tsv",
            "--out", tmp_path / "x",
        )
        assert code == 1

    def test_nan_count_names_its_location(self, sim_dir, tmp_path, capsys):
        bad = doctored(sim_dir / "expression_a.tsv", tmp_path / "expression_a.tsv", 3, 3, "nan")
        assert preprocess(sim_dir, tmp_path / "out", expression_a=bad) == 1
        assert f"{bad}:3:3: non-finite value nan" in capsys.readouterr().err

    def orphan_inputs(self, sim_dir, tmp_path):
        """Both methylation files with one extra CpG mapped to an unknown gene."""
        paths = {}
        for name in ("methylation_a", "methylation_b"):
            lines = (sim_dir / f"{name}.tsv").read_text().splitlines()
            n = len(lines[0].split("\t")) - 3
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text("\n".join(lines + ["C999999\tGXXXXX\t1" + "\t0.5" * n]) + "\n")
        return paths

    def test_orphan_cpg_strict_fails(self, sim_dir, tmp_path, capsys):
        inputs = self.orphan_inputs(sim_dir, tmp_path)
        assert preprocess(sim_dir, tmp_path / "out", **inputs) == 1
        assert "'C999999' references unknown gene_id 'GXXXXX'" in capsys.readouterr().err

    def test_orphan_cpg_lenient_dropped(self, sim_dir, transformed_dir, tmp_path):
        inputs = self.orphan_inputs(sim_dir, tmp_path)
        out = tmp_path / "out"
        assert preprocess(sim_dir, out, "--mode", "lenient", **inputs) == 0
        for name in ("expression.tsv", "methylation.tsv"):
            assert (out / name).read_bytes() == (transformed_dir / name).read_bytes()

    def test_missing_row_names_the_id_and_both_files(self, sim_dir, tmp_path, capsys):
        lines = (sim_dir / "expression_b.tsv").read_text().splitlines()
        bad = tmp_path / "expression_b.tsv"
        bad.write_text("\n".join(lines[:-1]) + "\n")
        assert preprocess(sim_dir, tmp_path / "out", expression_b=bad) == 1
        gene = lines[-1].split("\t")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"error: row sets differ between {sim_dir / 'expression_a.tsv'} and {bad}: "
            f"{bad} lacks {gene!r}"
        ]

    def test_annotation_mismatch_names_the_column_and_both_files(
        self, sim_dir, tmp_path, capsys
    ):
        line = (sim_dir / "expression_b.tsv").read_text().splitlines()[2]
        gene, chrom = line.split("\t")[:2]
        bad = doctored(sim_dir / "expression_b.tsv", tmp_path / "expression_b.tsv", 3, 2, "X")
        assert preprocess(sim_dir, tmp_path / "out", expression_b=bad) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: annotation mismatch for {gene!r} between {sim_dir / 'expression_a.tsv'} "
            f"and {bad}: chromosome {chrom!r} against 'X'"
        ]

    @pytest.mark.parametrize("flags, message", [
        (["--pseudocount", 0, "--beta-eps", 0], "pseudocount must be finite and above 0, got 0.0"),
        (["--pseudocount", -1], "pseudocount must be finite and above 0, got -1.0"),
        (["--pseudocount", "nan"], "pseudocount must be finite and above 0, got nan"),
        (["--pseudocount", "inf"], "pseudocount must be finite and above 0, got inf"),
        (["--beta-eps", 0], "beta_eps must lie in (0, 0.5), got 0.0"),
        (["--beta-eps", 0.5], "beta_eps must lie in (0, 0.5), got 0.5"),
        (["--beta-eps", 0.7], "beta_eps must lie in (0, 0.5), got 0.7"),
        (["--beta-eps", "nan"], "beta_eps must lie in (0, 0.5), got nan"),
    ])
    def test_transform_parameter_out_of_range_is_one_input_error(
        self, sim_dir, tmp_path, capsys, flags, message
    ):
        # a zero count and a zero beta: the inputs a zero pseudocount or eps would make infinite
        expr = doctored(sim_dir / "expression_a.tsv", tmp_path / "ea.tsv", 2, 3, "0")
        meth = doctored(sim_dir / "methylation_a.tsv", tmp_path / "ma.tsv", 2, 4, "0")
        out = tmp_path / "prep"
        assert preprocess(sim_dir, out, *flags, expression_a=expr, methylation_a=meth) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert sorted(p.name for p in out.iterdir()) == []


class TestFitCommand:
    def test_happy_path(self, transformed_dir, tmp_path):
        out = tmp_path / "fit"
        code = run(
            "fit", "--expression", transformed_dir / "expression.tsv",
            "--methylation", transformed_dir / "methylation.tsv", "--out", out,
        )
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["K"] == 3 and model["L"] == 3
        chrom = model["chromosomes"]["1"]
        np.testing.assert_allclose(sum(chrom["tau"]), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.array(chrom["pi"]).sum(axis=0), 1.0, atol=1e-9)
        gene_lines = (out / "gene_results.tsv").read_text().splitlines()
        assert gene_lines[0].split("\t") == [
            "gene_id", "chromosome", "posterior_Eminus", "posterior_E0",
            "posterior_Eplus", "map_label", "uncertainty",
        ]
        assert len(gene_lines) == 1 + 80
        assert (out / "cpg_results.tsv").exists()
        assert manifest(out)["unconverged"] == []

    def test_manifest_lists_unconverged_chromosomes(self, transformed_dir, tmp_path):
        out = tmp_path / "fit"
        code = run(
            "fit", "--expression", transformed_dir / "expression.tsv",
            "--methylation", transformed_dir / "methylation.tsv", "--outer-max", 1, "--out", out,
        )
        assert code == 0
        assert manifest(out)["unconverged"] == ["1"]
        assert len((out / "gene_results.tsv").read_text().splitlines()) == 1 + 80

    def test_byte_identical_rerun(self, transformed_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(
                "fit", "--expression", transformed_dir / "expression.tsv",
                "--methylation", transformed_dir / "methylation.tsv", "--out", out,
            ) == 0
        for name in ("model.json", "gene_results.tsv", "cpg_results.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_patient_column_names_it(self, transformed_dir, tmp_path, capsys):
        broken = tmp_path / "methylation_broken.tsv"
        lines = (transformed_dir / "methylation.tsv").read_text().splitlines()
        cut = ["\t".join(line.split("\t")[:-1]) for line in lines]
        broken.write_text("\n".join(cut) + "\n")
        code = run(
            "fit", "--expression", transformed_dir / "expression.tsv",
            "--methylation", broken, "--out", tmp_path / "fitx",
        )
        assert code == 1
        assert "P4" in capsys.readouterr().err

    def test_partial_chromosome_failure(self, transformed_dir, tmp_path, capsys):
        expr = (transformed_dir / "expression.tsv").read_text().splitlines()
        # move two genes to a chromosome of their own: too few for K=3
        doctored = [expr[0]]
        for i, line in enumerate(expr[1:]):
            parts = line.split("\t")
            if i < 2:
                parts[1] = "99"
            doctored.append("\t".join(parts))
        expr_path = tmp_path / "expression_two_chrom.tsv"
        expr_path.write_text("\n".join(doctored) + "\n")
        meth = (transformed_dir / "methylation.tsv").read_text().splitlines()
        moved = {line.split("\t")[0] for line in doctored[1:3]}
        kept = [meth[0]] + [l for l in meth[1:] if l.split("\t")[1] not in moved]
        meth_path = tmp_path / "methylation_two_chrom.tsv"
        meth_path.write_text("\n".join(kept) + "\n")

        out = tmp_path / "fit_partial"
        code = run("fit", "--expression", expr_path, "--methylation", meth_path, "--out", out)
        assert code == 3
        assert "99" in capsys.readouterr().err
        gene_lines = (out / "gene_results.tsv").read_text().splitlines()
        assert len(gene_lines) == 1 + 78
        model = json.loads((out / "model.json").read_text())
        assert list(model["chromosomes"]) == ["1"]

    def test_non_finite_value_names_its_location(self, transformed_dir, tmp_path, capsys):
        # data line 4 holds CpG C000004; the first patient is column 4
        bad = doctored(transformed_dir / "methylation.tsv", tmp_path / "m.tsv", 5, 4, "inf")
        code = run(
            "fit", "--expression", transformed_dir / "expression.tsv",
            "--methylation", bad, "--out", tmp_path / "fit",
        )
        assert code == 1
        assert f"{bad}:5:4: non-finite value inf for patient 'P1'" in capsys.readouterr().err

    def test_value_float_accepts_but_the_reader_rejects(self, transformed_dir, tmp_path, capsys):
        bad = doctored(transformed_dir / "methylation.tsv", tmp_path / "m.tsv", 5, 4, "1_0")
        code = run(
            "fit", "--expression", transformed_dir / "expression.tsv",
            "--methylation", bad, "--out", tmp_path / "fit",
        )
        assert code == 1
        assert f"{bad}:5:4: non-numeric value '1_0' for patient 'P1'" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert run("fit", "--nope") == 1
        assert "usage" in capsys.readouterr().err


class TestBaselineCommand:
    def test_expression_layer(self, transformed_dir, tmp_path):
        out = tmp_path / "base"
        code = run(
            "baseline", "--input", transformed_dir / "expression.tsv",
            "--layer", "expression", "--out", out,
        )
        assert code == 0
        model = json.loads((out / "model.json").read_text())
        assert model["model"] == "independent"
        lines = (out / "gene_results.tsv").read_text().splitlines()
        assert len(lines) == 1 + 80
        assert manifest(out)["unconverged"] == []

    def test_methylation_layer(self, transformed_dir, tmp_path):
        out = tmp_path / "base_m"
        code = run(
            "baseline", "--input", transformed_dir / "methylation.tsv",
            "--layer", "methylation", "--out", out,
        )
        assert code == 0
        header = (out / "cpg_results.tsv").read_text().splitlines()[0]
        assert "posterior_Mminus" in header

    def test_unconverged_chromosome_logs_warning(self, transformed_dir, tmp_path, caplog):
        code = run(
            "baseline", "--input", transformed_dir / "expression.tsv",
            "--layer", "expression", "--max-iter", 1, "--out", tmp_path / "base",
        )
        assert code == 0
        assert "chromosome 1 did not converge in 1 iterations" in caplog.messages

    def test_manifest_lists_unconverged_chromosomes(self, transformed_dir, tmp_path):
        out = tmp_path / "base"
        code = run(
            "baseline", "--input", transformed_dir / "methylation.tsv",
            "--layer", "methylation", "--max-iter", 1, "--out", out,
        )
        assert code == 0
        assert manifest(out)["unconverged"] == ["1"]


    def test_non_utf8_input_names_its_line(self, transformed_dir, tmp_path, capsys):
        raw = (transformed_dir / "expression.tsv").read_bytes().splitlines(keepends=True)
        raw[3] = raw[3].replace(b"\t", b"\xe9\t", 1)
        bad = tmp_path / "expression.tsv"
        bad.write_bytes(b"".join(raw))
        code = run("baseline", "--input", bad, "--layer", "expression", "--out", tmp_path / "b")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}:4: not UTF-8 text (byte 0xe9)" in err
        assert "Traceback" not in err

    def test_threads_do_not_change_the_outputs(self, transformed_dir, tmp_path):
        lines = (transformed_dir / "expression.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        for i, row in enumerate(rows):
            row[1] = "XYZ"[i % 3]
        expr = tmp_path / "three_chromosomes.tsv"
        expr.write_text("\n".join([lines[0], *map("\t".join, rows)]) + "\n")
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            assert run("baseline", "--input", expr, "--layer", "expression",
                       "--threads", n, "--out", out) == 0
        assert len(json.loads((outs[0] / "model.json").read_text())["chromosomes"]) == 3
        for name in ("gene_results.tsv", "model.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def fit_argv(data, command, expression=None):
    """``fit`` or ``baseline`` argv on the preprocessed tables, the expression table replaceable."""
    expression = expression or data / "expression.tsv"
    if command == "fit":
        return ["fit", "--expression", expression, "--methylation", data / "methylation.tsv"]
    return ["baseline", "--input", expression, "--layer", "expression"]


class TestFitAndBaselineAlike:
    @pytest.mark.parametrize("command, flags, message", [
        (command, flags, message)
        for command, max_flag, tol_flag in [
            ("fit", "--outer-max", "--outer-tol"), ("baseline", "--max-iter", "--tol"),
        ]
        for flags, message in [
            (("--k", 0), "K must be at least 1, got 0"),
            (("--k", -1), "K must be at least 1, got -1"),
            (("--l", 0), "L must be at least 1, got 0"),
            (("--quantile", 0), "init quantile must lie in (0, 0.5), got 0.0"),
            (("--quantile", 0.5), "init quantile must lie in (0, 0.5), got 0.5"),
            (("--quantile", 0.7), "init quantile must lie in (0, 0.5), got 0.7"),
            ((max_flag, -1), "outer iteration limit must be at least 0, got -1"),
            ((tol_flag, -0.5), "outer tolerance must be at least 0, got -0.5"),
            ((tol_flag, "nan"), "outer tolerance must be at least 0, got nan"),
            (("--inner-max", 0), "inner iteration limit must be at least 1, got 0"),
            (("--inner-tol", -1), "inner tolerance must be at least 0, got -1.0"),
            (("--inner-tol", "nan"), "inner tolerance must be at least 0, got nan"),
        ]
        if command == "fit" or flags[0] not in ("--l", "--inner-max", "--inner-tol")
    ])
    def test_parameter_out_of_range_is_one_input_error(
        self, transformed_dir, tmp_path, capsys, command, flags, message
    ):
        code = run(*fit_argv(transformed_dir, command), *flags, "--out", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["fit", "baseline"])
    @pytest.mark.parametrize("value", ["1e300", "-1e300"])
    def test_huge_value_is_an_input_error_at_its_cell(
        self, transformed_dir, tmp_path, capsys, command, value
    ):
        # data line 5 holds gene G00005; the first patient is column 3
        bad = doctored(transformed_dir / "expression.tsv", tmp_path / "e.tsv", 6, 3, value)
        code = run(*fit_argv(transformed_dir, command, bad), "--out", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {bad}:6:3: value {float(value)!r} outside [-1e+100, 1e+100] for patient 'P1'"
        ]

    @pytest.mark.parametrize("command", ["fit", "baseline"])
    @pytest.mark.parametrize("value", ["1e100", "-1e100"])
    def test_value_at_the_bound_fits(self, transformed_dir, tmp_path, capsys, command, value):
        bad = doctored(transformed_dir / "expression.tsv", tmp_path / "e.tsv", 6, 3, value)
        assert run(*fit_argv(transformed_dir, command, bad), "--out", tmp_path / "out") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, layer", [
        ("fit", "expression"), ("baseline", "expression"), ("baseline", "methylation"),
    ])
    def test_table_without_rows_is_one_input_error(
        self, transformed_dir, tmp_path, capsys, command, layer
    ):
        src = transformed_dir / f"{layer}.tsv"
        empty = tmp_path / src.name
        empty.write_text(src.read_text().splitlines()[0] + "\n")
        argv = (fit_argv(transformed_dir, "fit", empty) if command == "fit"
                else ["baseline", "--input", empty, "--layer", layer])
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {empty}: no data rows"]
        assert sorted(p.name for p in out.iterdir()) == []

    def test_baseline_header_at_k_2(self, transformed_dir, tmp_path):
        out = tmp_path / "out"
        assert run(*fit_argv(transformed_dir, "baseline"), "--k", 2, "--out", out) == 0
        assert (out / "gene_results.tsv").read_text().splitlines()[0].split("\t") == [
            "gene_id", "chromosome", "posterior_E1", "posterior_E2", "map_label", "uncertainty",
        ]

    def test_fit_headers_at_l_4(self, transformed_dir, tmp_path):
        out = tmp_path / "out"
        assert run(*fit_argv(transformed_dir, "fit"), "--l", 4, "--out", out) == 0
        assert (out / "gene_results.tsv").read_text().splitlines()[0].split("\t") == [
            "gene_id", "chromosome", "posterior_Eminus", "posterior_E0", "posterior_Eplus",
            "map_label", "uncertainty",
        ]
        assert (out / "cpg_results.tsv").read_text().splitlines()[0].split("\t") == [
            "cpg_id", "gene_id", "chromosome", "posterior_M1", "posterior_M2", "posterior_M3",
            "posterior_M4", "map_label", "uncertainty",
        ]


class TestEvaluateCommand:
    def test_scores_fit_against_truth(self, sim_dir, transformed_dir, tmp_path):
        fit_out = tmp_path / "fit"
        assert run(
            "fit", "--expression", transformed_dir / "expression.tsv",
            "--methylation", transformed_dir / "methylation.tsv", "--out", fit_out,
        ) == 0
        eval_out = tmp_path / "eval"
        code = run(
            "evaluate", "--truth", sim_dir / "truth.tsv",
            "--predicted", fit_out / "gene_results.tsv",
            "--layer", "gene", "--out", eval_out,
        )
        assert code == 0
        payload = json.loads((eval_out / "evaluation.json").read_text())
        assert payload["layer"] == "gene"
        assert -1.0 <= payload["ari"] <= 1.0
        assert payload["tp"] + payload["fp"] + payload["tn"] + payload["fn"] == 80

    def test_unknown_id_is_input_error(self, sim_dir, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        pred.write_text("gene_id\tmap_label\nNOPE\tE0\n")
        code = run(
            "evaluate", "--truth", sim_dir / "truth.tsv", "--predicted", pred,
            "--layer", "gene", "--out", tmp_path / "ev",
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {pred}:2: gene id 'NOPE' is not in {sim_dir / 'truth.tsv'} "
            "(1 predicted ids missing from truth)"
        ]

    def test_predicted_table_without_rows_is_input_error(self, sim_dir, tmp_path, capsys):
        pred = tmp_path / "pred.tsv"
        pred.write_text("gene_id\tmap_label\n")
        out = tmp_path / "ev"
        code = run(
            "evaluate", "--truth", sim_dir / "truth.tsv", "--predicted", pred,
            "--layer", "gene", "--out", out,
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {pred}: no data rows"]
        assert sorted(p.name for p in out.iterdir()) == []

    @pytest.mark.parametrize("bad_file", ["truth", "predicted"])
    def test_non_utf8_table_names_its_line(self, sim_dir, tmp_path, capsys, bad_file):
        lines = (sim_dir / "truth.tsv").read_bytes().splitlines(keepends=True)
        gene = lines[1].split(b"\t")[0]
        paths = {"truth": tmp_path / "truth.tsv", "predicted": tmp_path / "pred.tsv"}
        paths["truth"].write_bytes(b"".join(lines))
        paths["predicted"].write_bytes(b"gene_id\tmap_label\n" + gene + b"\tE0\n")
        bad = paths[bad_file]
        raw = bad.read_bytes().splitlines(keepends=True)
        raw[1] = raw[1].replace(b"\t", b"\xe9\t", 1)
        bad.write_bytes(b"".join(raw))
        code = run("evaluate", "--truth", paths["truth"], "--predicted", paths["predicted"],
                   "--layer", "gene", "--out", tmp_path / "ev")
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}:2: not UTF-8 text (byte 0xe9)" in err
        assert "Traceback" not in err


class TestBenchmarkCommand:
    def test_small_benchmark_writes_tables(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "benchmark", "--case", 1, "--replicates", 2, "--genes", 60,
            "--seed", 9, "--out", out,
        )
        assert code == 0
        lines = (out / "benchmark_summary.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["method", "layer", "metric", "mean", "sd", "n"]
        assert len(lines) > 8
        assert (out / "benchmark_replicates.tsv").exists()
        assert json.loads((out / "benchmark.json").read_text())["n_replicates"] == 2

    def test_replicate_rows_put_joint_first_and_summary_follows_methods(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "benchmark", "--case", 2, "--replicates", 2, "--genes", 60,
            "--methods", "independent,joint", "--out", out,
        )
        assert code == 0

        def keys(name, first, last):
            lines = (out / name).read_text().splitlines()[1:]
            return [tuple(line.split("\t")[first:last]) for line in lines]

        metrics = ["fdr", "sensitivity", "specificity", "ari"]
        per_method = [(layer, metric) for layer in ("gene", "cpg") for metric in metrics]
        agreement = [("joint_vs_independent", layer, "ari") for layer in ("gene", "cpg")]
        replicate = [(m, *key) for m in ("joint", "independent") for key in per_method]
        assert keys("benchmark_replicates.tsv", 0, 4) == [
            (str(r), *key) for r in range(2) for key in replicate + agreement
        ]
        assert keys("benchmark_summary.tsv", 0, 3) == [
            (m, *key) for m in ("independent", "joint") for key in per_method
        ] + agreement

    @pytest.mark.parametrize("flags, message", [
        (["--methods", ","], "benchmark needs at least one method"),
        (["--methods", "joint,joint"], "method 'joint' is listed twice"),
        (["--genes", 0], "n_genes must be at least 1, got 0"),
        (["--patients", 0], "n_patients must be at least 1, got 0"),
    ])
    def test_bad_flag_is_one_input_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bench"
        code = run("benchmark", "--replicates", 2, "--genes", 20, *flags, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message}"]
        assert not (out / "benchmark_summary.tsv").exists()


class TestTimingCommand:
    def test_single_patient_count_single_row(self, tmp_path):
        out = tmp_path / "timing"
        code = run(
            "timing", "--patients", "4", "--genes", 40, "--out", out,
        )
        assert code == 0
        lines = (out / "timing.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["n_patients", "n_genes", "n_cpgs", "seconds"]
        assert len(lines) == 2
        assert float(lines[1].split("\t")[3]) > 0

    @pytest.mark.parametrize("flags, message", [
        (["--patients", "4,x"], "--patients: 'x' is not a whole number"),
        (["--patients", "4, 2.5"], "--patients: '2.5' is not a whole number"),
        (["--repeats", 0], "--repeats must be at least 1, got 0"),
        (["--repeats", -2], "--repeats must be at least 1, got -2"),
        (["--patients", "4,0"], "n_patients must be at least 1, got 0"),
        (["--genes", 0], "n_genes must be at least 1, got 0"),
    ])
    def test_bad_flag_is_one_input_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "timing"
        assert run("timing", "--patients", "4", "--genes", 20, *flags, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (out / "timing.tsv").exists()


PI_ROWS = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]


def manifest_case(command, sim_dir, transformed_dir, tmp_path):
    """A run of ``command`` with every flag off its default.

    Returns its flags, the ``parameters`` its manifest records and its
    number of input files.
    """
    if command == "simulate":
        pi = tmp_path / "pi.txt"
        pi.write_text("".join(" ".join(map(str, row)) + "\n" for row in PI_ROWS))
        flags = ["--case", 2, "--pi-file", pi, "--genes", 30, "--patients", 3,
                 "--replicates", 2, "--seed", 4]
        return flags, {**SimConfig().to_dict(), "n_genes": 30, "n_patients": 3, "case": 2,
                       "pi": PI_ROWS, "seed": 4, "replicates": 2}, 1
    if command == "preprocess":
        files = {name: str(sim_dir / f"{name}.tsv") for name in CONDITION_FILES}
        flags = [a for name, path in files.items() for a in (f"--{name.replace('_', '-')}", path)]
        return flags + ["--mode", "lenient", "--count-threshold", 3, "--pseudocount", 0.25,
                        "--beta-eps", 0.001], {
            **files, "mode": "lenient", "count_threshold": 3, "pseudocount": 0.25,
            "beta_eps": 0.001}, 4
    if command == "fit":
        expression = str(transformed_dir / "expression.tsv")
        methylation = str(transformed_dir / "methylation.tsv")
        return ["--expression", expression, "--methylation", methylation, "--mode", "lenient",
                "--k", 2, "--l", 4, "--quantile", 0.2, "--outer-tol", 1e-4, "--outer-max", 7,
                "--inner-tol", 1e-5, "--inner-max", 30], {
            "expression": expression, "methylation": methylation, "mode": "lenient", "K": 2,
            "L": 4, "q": 0.2, "outer_tol": 1e-4, "outer_max": 7, "inner_tol": 1e-5,
            "inner_max": 30}, 2
    if command == "baseline":
        methylation = str(transformed_dir / "methylation.tsv")
        return ["--input", methylation, "--layer", "methylation", "--k", 2, "--quantile", 0.2,
                "--tol", 1e-4, "--max-iter", 3], {
            "input": methylation, "layer": "methylation", "k": 2, "quantile": 0.2,
            "tol": 1e-4, "max_iter": 3}, 1
    if command == "evaluate":
        truth = sim_dir / "truth.tsv"
        cpg = next(line.split("\t")[0] for line in truth.read_text().splitlines()
                   if line.split("\t")[1] == "cpg")
        predicted = tmp_path / "pred.tsv"
        predicted.write_text(f"cpg_id\tmap_label\n{cpg}\tM0\n")
        return ["--truth", truth, "--predicted", predicted, "--layer", "cpg"], {
            "truth": str(truth), "predicted": str(predicted), "layer": "cpg"}, 2
    if command == "benchmark":
        return ["--case", 2, "--replicates", 3, "--methods", "independent, joint",
                "--genes", 30, "--patients", 3, "--seed", 9], {
            "case": 2, "replicates": 3, "methods": ["independent", "joint"], "genes": 30,
            "patients": 3, "seed": 9}, 0
    assert command == "timing"
    return ["--patients", "3,5", "--genes", 30, "--repeats", 2, "--seed", 7], {
        "patients": [3, 5], "genes": 30, "repeats": 2, "seed": 7}, 0


@pytest.mark.parametrize("command", [
    "simulate", "preprocess", "fit", "baseline", "evaluate", "benchmark", "timing",
])
def test_manifest_records_the_subcommands_flags(
    sim_dir, transformed_dir, tmp_path, command
):
    flags, parameters, n_inputs = manifest_case(command, sim_dir, transformed_dir, tmp_path)
    out = tmp_path / "out"
    assert run(command, *flags, "--threads", 2, "--out", out) == 0
    recorded = manifest(out)
    assert recorded["subcommand"] == command
    assert recorded["threads"] == 2
    assert recorded["parameters"] == parameters
    assert len(recorded["input_digests"]) == n_inputs


def with_repeated_first_row(src, dst):
    """Copy a TSV, ending it with a blank line, a CRLF line and a repeat of its first data row.

    Returns the repeat's line number and its first two cells.
    """
    lines = src.read_text().splitlines()
    text = "\n".join(lines[:-1]) + "\n\n" + lines[-1] + "\r\n" + lines[1] + "\n"
    dst.parent.mkdir(exist_ok=True)
    dst.write_bytes(text.encode())
    return len(lines) + 2, lines[1].split("\t")[:2]


def swap_patient(src, dst, old="P1", new="Q1"):
    """Copy a TSV with one patient column renamed in its header."""
    lines = src.read_text().splitlines()
    lines[0] = "\t".join(new if c == old else c for c in lines[0].split("\t"))
    dst.parent.mkdir(exist_ok=True)
    dst.write_text("\n".join(lines) + "\n")
    return dst


CONDITION_FILES = ("expression_a", "expression_b", "methylation_a", "methylation_b")


class TestInputTables:
    """Every reader of every subcommand checks its table the same way."""

    def inputs(self, sim_dir, transformed_dir, tmp_path):
        truth = sim_dir / "truth.tsv"
        genes = [line.split("\t")[0] for line in truth.read_text().splitlines()[1:3]]
        predicted = tmp_path / "pred.tsv"
        predicted.write_text(f"gene_id\tmap_label\n{genes[0]}\tE0\n{genes[1]}\tE+\n")
        return {
            **{name: sim_dir / f"{name}.tsv" for name in CONDITION_FILES},
            "expression": transformed_dir / "expression.tsv",
            "methylation": transformed_dir / "methylation.tsv",
            "truth": truth,
            "predicted": predicted,
        }

    def run_with(self, sim_dir, command, files, out):
        if command == "preprocess":
            return preprocess(sim_dir, out, **{name: files[name] for name in CONDITION_FILES})
        if command == "fit":
            return run("fit", "--expression", files["expression"],
                       "--methylation", files["methylation"], "--out", out)
        if command == "baseline":
            return run("baseline", "--input", files["expression"], "--layer", "expression",
                       "--out", out)
        return run("evaluate", "--truth", files["truth"], "--predicted", files["predicted"],
                   "--layer", "gene", "--out", out)

    @pytest.mark.parametrize("command, name", [
        ("preprocess", "expression_a"), ("preprocess", "expression_b"),
        ("preprocess", "methylation_a"), ("preprocess", "methylation_b"),
        ("fit", "expression"), ("fit", "methylation"), ("baseline", "expression"),
        ("evaluate", "truth"), ("evaluate", "predicted"),
    ])
    def test_repeated_id_names_the_line_of_the_repeat(
        self, sim_dir, transformed_dir, tmp_path, capsys, command, name
    ):
        files = self.inputs(sim_dir, transformed_dir, tmp_path)
        bad = tmp_path / "bad" / files[name].name
        lineno, (rid, second) = with_repeated_first_row(files[name], bad)
        what = {"truth": f"{second} id", "predicted": "gene_id"}.get(
            name, "cpg_id" if name.startswith("methylation") else "gene_id")
        assert self.run_with(sim_dir, command, {**files, name: bad}, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {bad}:{lineno}: duplicate {what} {rid!r}"]

    @pytest.mark.parametrize("command, renamed, reference", [
        ("fit", ["methylation"], "expression"),
        ("preprocess", ["expression_b"], "expression_a"),
        ("preprocess", ["methylation_a", "methylation_b"], "expression_a"),
    ])
    def test_patient_mismatch_names_both_files_and_the_patients(
        self, sim_dir, transformed_dir, tmp_path, capsys, command, renamed, reference
    ):
        files = self.inputs(sim_dir, transformed_dir, tmp_path)
        for name in renamed:
            files[name] = swap_patient(files[name], tmp_path / "bad" / files[name].name)
        assert self.run_with(sim_dir, command, files, tmp_path / "out") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: patient columns differ between {files[reference]} and {files[renamed[0]]}: "
            "['P1', 'Q1']"
        ]
