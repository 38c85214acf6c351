import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jointmix
import jointmix.cli
import jointmix.dataset
from jointmix.cli import main, timing_probe
from jointmix.errors import ParameterError
from jointmix.simulate import SimConfig, simulate, write_simulation


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    write_simulation(simulate(SimConfig(n_genes=80, seed=5)), out)
    return out


def preprocess_argv(sim_dir, out, *extra, **inputs):
    """``preprocess`` argv on the simulation, any input file replaced by keyword."""
    files = {name: inputs.get(name, sim_dir / f"{name}.tsv")
             for name in ("expression_a", "expression_b", "methylation_a", "methylation_b")}
    flags = [a for name, path in files.items() for a in (f"--{name.replace('_', '-')}", path)]
    return ["preprocess", *flags, "--out", out, "--force", *extra]


def preprocess(sim_dir, out, *extra, **inputs):
    """Run ``preprocess`` on the simulation, any input file replaced by keyword."""
    return run(*preprocess_argv(sim_dir, out, *extra, **inputs))


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


def run_python(*argv, env=None):
    """``python *argv`` in a child process that imports this checkout's ``jointmix``.

    ``env`` sets variables of the child's environment; a value of ``None`` unsets one.
    """
    src = str(Path(jointmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    env = {name: value for name, value in env.items() if value is not None}
    return subprocess.run(
        [sys.executable, *map(str, argv)], env=env, capture_output=True, text=True
    )


def with_two_genes_on(data, tmp_path, label):
    """Copies of the preprocessed tables with the first two genes and their CpGs on ``label``.

    Two genes are too few for three clusters, so chromosome ``label`` cannot be fitted.
    """
    moved = {line.split("\t")[0] for line in
             (data / "expression.tsv").read_text().splitlines()[1:3]}
    paths = []
    for name, gene_col in (("expression", 0), ("methylation", 1)):
        lines = (data / f"{name}.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        for row in rows:
            if row[gene_col] in moved:
                row[gene_col + 1] = label
        paths.append(tmp_path / f"{name}.tsv")
        paths[-1].write_text("\n".join([lines[0], *map("\t".join, rows)]) + "\n")
    return paths


def test_cli_import_leaves_scipy_out():
    proc = run_python("-c", "import sys, jointmix.cli; assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# what a caller may have set: nothing, one BLAS thread, two, and two through OpenMP's name
BLAS_SETTINGS = {
    "unset": {},
    "openblas 1": {"OPENBLAS_NUM_THREADS": "1"},
    "openblas 2": {"OPENBLAS_NUM_THREADS": "2"},
    "omp 2": {"OMP_NUM_THREADS": "2"},
}


def blas_env(setting):
    return {**dict.fromkeys(BLAS_VARIABLES), **BLAS_SETTINGS[setting]}


# the child prints its two BLAS variables, then its thread count
PRINT_BLAS = ("import json; print(json.dumps([os.environ.get(name) for name in %r]));"
              " print(len(os.listdir('/proc/self/task')))" % (BLAS_VARIABLES,))


@pytest.mark.parametrize("setting", BLAS_SETTINGS)
def test_import_runs_blas_on_one_thread_and_gives_the_environment_back(setting):
    proc = run_python("-c", "import os, jointmix; " + PRINT_BLAS, env=blas_env(setting))
    assert proc.returncode == 0, proc.stderr
    given, threads = proc.stdout.splitlines()
    assert json.loads(given) == [BLAS_SETTINGS[setting].get(name) for name in BLAS_VARIABLES]
    assert threads == "1"


@pytest.mark.parametrize("setting", BLAS_SETTINGS)
def test_import_after_numpy_leaves_blas_and_the_environment_alone(setting):
    code = ("import os, numpy; before = dict(os.environ); " + PRINT_BLAS
            + "; import jointmix; assert dict(os.environ) == before; " + PRINT_BLAS)
    proc = run_python("-c", code, env=blas_env(setting))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == lines[2:]
    assert json.loads(lines[0]) == [BLAS_SETTINGS[setting].get(name) for name in BLAS_VARIABLES]


@pytest.fixture(scope="module")
def long_chromosome_dir(tmp_path_factory):
    """``preprocess`` output of one chromosome of 700 genes and 11,486 CpGs.

    OpenBLAS splits a dot product of more than 10,000 elements, such as the
    M-step's sums over the CpG rows, over its threads.
    """
    sim = tmp_path_factory.mktemp("long_sim")
    write_simulation(simulate(SimConfig(n_genes=700, seed=3)), sim)
    out = tmp_path_factory.mktemp("long_prep")
    assert preprocess(sim, out) == 0
    return out


@pytest.mark.parametrize("command", ["fit", "baseline"])
def test_blas_threads_do_not_change_the_outputs(long_chromosome_dir, tmp_path, command):
    # every run in a child process on the CPUs this one has; with one CPU OpenBLAS
    # starts one thread whatever it is told, and this test cannot fail
    data = long_chromosome_dir
    assert len((data / "methylation.tsv").read_text().splitlines()) - 1 > 10_000
    if command == "fit":
        argv = ["fit", "--expression", data / "expression.tsv",
                "--methylation", data / "methylation.tsv"]
        names, runs = ("gene_results.tsv", "cpg_results.tsv", "model.json"), ("1", "2")
    else:
        argv = ["baseline", "--input", data / "methylation.tsv", "--layer", "methylation"]
        names, runs = ("cpg_results.tsv", "model.json"), ("1",)
    outs = []
    for threads in runs:
        for setting in BLAS_SETTINGS:
            outs.append(tmp_path / f"threads{threads} {setting}")
            proc = run_python("-m", "jointmix.cli", *argv, "--threads", threads,
                              "--out", outs[-1], env=blas_env(setting))
            assert proc.returncode == 0, proc.stderr
    for name in names:
        first = (outs[0] / name).read_bytes()
        assert [out.name for out in outs if (out / name).read_bytes() != first] == [], name


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

    @pytest.mark.parametrize("flag, name", [
        ("--genes", "n_genes"), ("--patients", "n_patients"), ("--replicates", "--replicates"),
    ])
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

    def test_pi_file_with_a_negative_entry_names_it(self, tmp_path, capsys):
        # each column sums to 1, so only the negative entry is at fault
        pi = tmp_path / "pi.txt"
        pi.write_text("1.2 0.5 0.5\n-0.2 0.5 0.5\n0 0 0\n")
        out = tmp_path / "sim"
        assert run("simulate", "--genes", 30, "--pi-file", pi, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: dependency matrix entry at row 2, column 1 is negative: -0.2"]
        assert not out.exists()

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

    @pytest.mark.parametrize("condition", ["a", "b"])
    def test_zero_library_size_names_the_file_and_patient(
        self, sim_dir, tmp_path, capsys, condition
    ):
        lines = (sim_dir / f"expression_{condition}.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        for row in rows:
            row[3] = "0"  # patient P2
        bad = tmp_path / f"expression_{condition}.tsv"
        bad.write_text("\n".join([lines[0], *map("\t".join, rows)]) + "\n")
        out = tmp_path / "prep"
        assert preprocess(sim_dir, out, **{f"expression_{condition}": bad}) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {bad}: patient 'P2' has zero library size after filtering"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    def orphan_inputs(self, sim_dir, tmp_path):
        """Both methylation files with two extra CpGs mapped to unknown genes."""
        paths = {}
        for name in ("methylation_a", "methylation_b"):
            lines = (sim_dir / f"{name}.tsv").read_text().splitlines()
            n = len(lines[0].split("\t")) - 3
            orphans = [f"{cpg}\t{gene}\t1" + "\t0.5" * n
                       for cpg, gene in (("C999999", "GXXXXX"), ("C999998", "GYYYYY"))]
            paths[name] = tmp_path / f"{name}.tsv"
            paths[name].write_text("\n".join(lines + orphans) + "\n")
        return paths

    def test_orphan_cpg_strict_fails(self, sim_dir, tmp_path, capsys):
        inputs = self.orphan_inputs(sim_dir, tmp_path)
        assert preprocess(sim_dir, tmp_path / "out", **inputs) == 1
        assert "'C999999' references unknown gene_id 'GXXXXX'" in capsys.readouterr().err

    def test_orphan_cpg_strict_names_the_file_and_line(self, sim_dir, tmp_path, capsys):
        inputs = self.orphan_inputs(sim_dir, tmp_path)
        line = len(inputs["methylation_a"].read_text().splitlines()) - 1
        assert preprocess(sim_dir, tmp_path / "out", **inputs) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {inputs['methylation_a']}:{line}: "
            "CpG 'C999999' references unknown gene_id 'GXXXXX'"
        ]

    @pytest.mark.parametrize("name, column, text, message", [
        ("expression_b", 4, "-2", "negative count -2.0 for patient 'P2'"),
        ("methylation_a", 5, "1.5", "beta value 1.5 outside [0, 1] for patient 'P2'"),
        ("methylation_b", 4, "-0.25", "beta value -0.25 outside [0, 1] for patient 'P1'"),
    ])
    def test_value_outside_its_domain_names_its_cell(
        self, sim_dir, tmp_path, capsys, name, column, text, message
    ):
        bad = doctored(sim_dir / f"{name}.tsv", tmp_path / f"{name}.tsv", 3, column, text)
        out = tmp_path / "out"
        assert preprocess(sim_dir, out, **{name: bad}) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}:3:{column}: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("names, reversed_", [
        (("expression_b", "methylation_b"), "rows"),
        (("expression_b", "methylation_b"), "patients"),
        # the methylation patients in another order than the expression ones
        (("methylation_a", "methylation_b"), "patients"),
    ], ids=["b-rows", "b-patients", "methylation-patients"])
    def test_rows_or_patients_in_another_order_give_the_same_tables(
        self, sim_dir, transformed_dir, tmp_path, names, reversed_
    ):
        inputs = {}
        for name in names:
            text = (sim_dir / f"{name}.tsv").read_text()
            lines = [line.split("\t") for line in text.splitlines()]
            fixed = 2 if name.startswith("expression") else 3
            if reversed_ == "rows":
                lines[1:] = lines[:0:-1]
            else:
                lines = [cells[:fixed] + cells[:fixed - 1:-1] for cells in lines]
            inputs[name] = tmp_path / f"{name}.tsv"
            inputs[name].write_text("".join("\t".join(cells) + "\n" for cells in lines))
        out = tmp_path / "out"
        assert preprocess(sim_dir, out, **inputs) == 0
        for name in ("expression.tsv", "methylation.tsv"):
            assert (out / name).read_bytes() == (transformed_dir / name).read_bytes()

    def test_orphan_cpg_lenient_dropped(self, sim_dir, transformed_dir, tmp_path, caplog):
        inputs = self.orphan_inputs(sim_dir, tmp_path)
        out = tmp_path / "out"
        assert preprocess(sim_dir, out, "--mode", "lenient", **inputs) == 0
        assert caplog.messages == [
            "dropping 2 CpG(s) (lenient mode); the first: "
            "CpG 'C999999' references unknown gene_id 'GXXXXX'"
        ]
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

    def test_no_gene_above_the_count_threshold_is_one_input_error(
        self, sim_dir, tmp_path, capsys
    ):
        out = tmp_path / "prep"
        assert preprocess(sim_dir, out, "--count-threshold", 100000000) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: no gene has a total count above the count threshold 100000000"
        ]
        assert not out.exists()

    def test_lenient_mode_that_keeps_no_cpg_is_one_input_error(self, sim_dir, tmp_path):
        inputs = {}
        for name in ("methylation_a", "methylation_b"):
            lines = (sim_dir / f"{name}.tsv").read_text().splitlines()
            rows = [line.split("\t") for line in lines[1:]]
            for row in rows:
                row[1] = "GXXXXX"
            inputs[name] = tmp_path / f"{name}.tsv"
            inputs[name].write_text("\n".join([lines[0], *map("\t".join, rows)]) + "\n")
        out = tmp_path / "prep"
        proc = run_python("-c", "import sys, jointmix.cli; sys.exit(jointmix.cli.main())",
                          *preprocess_argv(sim_dir, out, "--mode", "lenient", **inputs))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"WARNING jointmix.dataset: dropping {len(rows)} CpG(s) (lenient mode); the first: "
            f"CpG {rows[0][0]!r} references unknown gene_id 'GXXXXX'",
            "error: no CpG is left: none maps to a gene that passed filtering",
        ]
        assert not out.exists()

    def test_kept_genes_without_a_cpg_are_one_input_error(self, sim_dir, tmp_path, capsys):
        # every CpG moves to the first gene, whose counts are zero: it alone is filtered out
        inputs = {}
        gene = (sim_dir / "expression_a.tsv").read_text().splitlines()[1].split("\t")[0]
        for name, id_col in (("expression_a", None), ("expression_b", None),
                             ("methylation_a", 1), ("methylation_b", 1)):
            header, *lines = (sim_dir / f"{name}.tsv").read_text().splitlines()
            rows = [line.split("\t") for line in lines]
            if id_col is None:
                rows[0][2:] = ["0"] * len(rows[0][2:])
            else:
                for row in rows:
                    row[id_col] = gene
            inputs[name] = tmp_path / f"{name}.tsv"
            inputs[name].write_text("\n".join([header, *map("\t".join, rows)]) + "\n")
        out = tmp_path / "prep"
        assert preprocess(sim_dir, out, **inputs) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: no CpG is left: none maps to a gene that passed filtering"
        ]
        assert not out.exists()

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
        assert not out.exists()


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

    def test_worker_count_does_not_change_outputs_or_stderr(self, transformed_dir, tmp_path):
        # three interleaved chromosomes and one too small to fit, in a child process
        # so that stderr holds every line, the workers' included
        def relabel(name, id_column, chrom_column, chrom_of):
            lines = (transformed_dir / name).read_text().splitlines()
            rows = [line.split("\t") for line in lines[1:]]
            for i, row in enumerate(rows):
                row[chrom_column] = chrom_of(i, row[id_column])
            path = tmp_path / name
            path.write_text("\n".join([lines[0], *map("\t".join, rows)]) + "\n")
            return path, rows

        expr, genes = relabel("expression.tsv", 0, 1,
                              lambda i, _: "W" if i in (5, 40) else "XYZ"[i % 3])
        chrom_of = {row[0]: row[1] for row in genes}
        meth, _ = relabel("methylation.tsv", 1, 2, lambda i, gene: chrom_of[gene])
        procs = {}
        for n in (1, 2):
            procs[n] = run_python("-m", "jointmix.cli", "fit", "--expression", expr,
                                  "--methylation", meth, "--outer-max", 5, "--threads", n,
                                  "--out", tmp_path / f"threads{n}")
            assert procs[n].returncode == 3, procs[n].stderr
        err = procs[1].stderr.splitlines()
        assert procs[2].stderr.splitlines() == err
        assert err[-1].startswith("chromosome W failed: ") and len(err) > 1
        assert err[:-1] == sorted(err[:-1]) and all("did not converge" in line for line in err[:-1])
        for name in ("gene_results.tsv", "cpg_results.tsv", "model.json"):
            assert (tmp_path / "threads1" / name).read_bytes() == (
                tmp_path / "threads2" / name).read_bytes()
        fitted = (tmp_path / "threads2" / "gene_results.tsv").read_text().splitlines()[1:]
        assert [line.split("\t")[0] for line in fitted] == [
            row[0] for row in genes if row[1] != "W"
        ]

    def test_worker_count_does_not_change_one_chromosome_outputs(
        self, transformed_dir, tmp_path, monkeypatch
    ):
        # ranges of a few rows, so that the workers share one chromosome's tables
        monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 64)
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            assert run("fit", "--expression", transformed_dir / "expression.tsv",
                       "--methylation", transformed_dir / "methylation.tsv",
                       "--threads", n, "--out", out) == 0
        assert list(json.loads((outs[0] / "model.json").read_text())["chromosomes"]) == ["1"]
        for name in ("gene_results.tsv", "cpg_results.tsv", "model.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

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

    @pytest.mark.parametrize("layer, results", [
        ("expression", "gene_results.tsv"), ("methylation", "cpg_results.tsv"),
    ])
    @pytest.mark.parametrize("chromosomes", ["XYZ", "1"])
    def test_threads_do_not_change_the_outputs(
        self, transformed_dir, tmp_path, monkeypatch, layer, results, chromosomes
    ):
        # ranges of a few rows, so that the workers share one chromosome's table
        monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 64)
        lines = (transformed_dir / f"{layer}.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        chrom_column = lines[0].split("\t").index("chromosome")
        for i, row in enumerate(rows):
            row[chrom_column] = chromosomes[i % len(chromosomes)]
        table = tmp_path / "input.tsv"
        table.write_text("\n".join([lines[0], *map("\t".join, rows)]) + "\n")
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            assert run("baseline", "--input", table, "--layer", layer,
                       "--threads", n, "--out", out) == 0
        model = json.loads((outs[0] / "model.json").read_text())
        assert list(model["chromosomes"]) == sorted(chromosomes)
        for name in (results, "model.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        written = (outs[1] / results).read_text().splitlines()[1:]
        assert [line.split("\t")[0] for line in written] == [row[0] for row in rows]


def fit_argv(data, command, expression=None, methylation=None):
    """``fit`` or ``baseline`` argv on the preprocessed tables, either table replaceable."""
    expression = expression or data / "expression.tsv"
    if command == "fit":
        methylation = methylation or data / "methylation.tsv"
        return ["fit", "--expression", expression, "--methylation", methylation]
    return ["baseline", "--input", expression, "--layer", "expression"]


def all_zero_tables(data):
    """Preprocessed tables in ``data``: 30 genes on chromosome 1, 3 CpGs each, every value 0."""
    data.mkdir()
    zeros = "\t0" * 3
    (data / "expression.tsv").write_text(
        "gene_id\tchromosome\tP1\tP2\tP3\n"
        + "".join(f"G{g:02d}\t1{zeros}\n" for g in range(30))
    )
    (data / "methylation.tsv").write_text(
        "cpg_id\tgene_id\tchromosome\tP1\tP2\tP3\n"
        + "".join(f"C{g:02d}{c}\tG{g:02d}\t1{zeros}\n" for g in range(30) for c in range(3))
    )
    return data


class TestFitAndBaselineAlike:
    @pytest.mark.parametrize("command, floored", [
        ("fit", "sigma2 and rho2"), ("baseline", "variance"),
    ])
    def test_a_collapsed_fit_warns_and_a_normal_one_does_not(
        self, transformed_dir, tmp_path, caplog, command, floored
    ):
        zero = all_zero_tables(tmp_path / "zero")
        assert run(*fit_argv(zero, command), "--out", tmp_path / "collapsed") == 0
        assert manifest(tmp_path / "collapsed")["unconverged"] == []
        assert manifest(tmp_path / "collapsed")["collapsed"] == ["1"]
        assert caplog.messages == [
            f"chromosome 1: {floored} at the variance floor 1e-08; the fit has collapsed"
        ]
        caplog.clear()
        assert run(*fit_argv(transformed_dir, command), "--out", tmp_path / "normal") == 0
        assert caplog.messages == []
        assert manifest(tmp_path / "normal")["collapsed"] == []

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
    # with the inputs missing, the flag is rejected before any input is opened
    @pytest.mark.parametrize("missing", [False, True], ids=["inputs", "missing-inputs"])
    def test_parameter_out_of_range_is_one_input_error(
        self, transformed_dir, tmp_path, capsys, command, flags, message, missing
    ):
        data = tmp_path if missing else transformed_dir
        code = run(*fit_argv(data, command), *flags, "--out", tmp_path / "out")
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command, failure", [
        ("fit", "cannot fit 3 gene clusters to 2 genes"),
        ("baseline", "cannot fit 3 clusters to 2 rows"),
    ])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_partial_chromosome_failure(
        self, transformed_dir, tmp_path, capsys, monkeypatch, command, failure, threads
    ):
        # ranges of a few rows, so that the workers share the fitted chromosome's tables
        monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 64)
        tables = with_two_genes_on(transformed_dir, tmp_path, "99")
        out = tmp_path / "out"
        assert run(*fit_argv(transformed_dir, command, *tables), "--threads", threads,
                   "--out", out) == 3
        assert capsys.readouterr().err.splitlines() == [f"chromosome 99 failed: {failure}"]
        genes = [line.split("\t")[0] for line in tables[0].read_text().splitlines()[3:]]
        written = (out / "gene_results.tsv").read_text().splitlines()[1:]
        assert [line.split("\t")[0] for line in written] == genes and len(genes) == 78
        assert list(json.loads((out / "model.json").read_text())["chromosomes"]) == ["1"]
        assert manifest(out)["unconverged"] == []

    @pytest.mark.parametrize("command, failure", [
        ("fit", "cannot fit 81 gene clusters to 80 genes"),
        ("baseline", "cannot fit 81 clusters to 80 rows"),
    ])
    def test_every_chromosome_failed(self, transformed_dir, tmp_path, capsys, command, failure):
        out = tmp_path / "out"
        assert run(*fit_argv(transformed_dir, command), "--k", 81, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [f"chromosome 1 failed: {failure}"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert manifest(out)["unconverged"] == []

    @pytest.mark.parametrize("command, flags, lines", [
        ("fit", ["--outer-max", 1], [
            "WARNING jointmix.joint_em: chromosome 1 did not converge in 1 outer iterations",
            "chromosome 0 failed: cannot fit 3 gene clusters to 2 genes",
        ]),
        ("baseline", ["--max-iter", 1], [
            "WARNING jointmix.cli: chromosome 1 did not converge in 1 iterations",
            "chromosome 0 failed: cannot fit 3 clusters to 2 rows",
        ]),
    ])
    def test_warnings_come_before_failure_lines(
        self, transformed_dir, tmp_path, command, flags, lines
    ):
        # chromosome 0 fails and sorts before chromosome 1, which does not converge
        tables = with_two_genes_on(transformed_dir, tmp_path, "0")
        proc = run_python("-c", "import sys, jointmix.cli; sys.exit(jointmix.cli.main())",
                          *fit_argv(transformed_dir, command, *tables), *flags,
                          "--out", tmp_path / "out")
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == lines

    @pytest.mark.parametrize("command", ["fit", "baseline"])
    def test_a_failing_render_task_raises_and_joins_every_worker(
        self, transformed_dir, tmp_path, monkeypatch, command
    ):
        # ranges of a few rows; the forked workers inherit both patches
        monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 64)
        render_rows = jointmix.dataset._render_rows
        first = (transformed_dir / "expression.tsv").read_text().split("\n")[1].split("\t")[0]

        def fail_after_the_first_range(columns):
            if columns[0][0] != first:
                raise RuntimeError(f"no text for {columns[0][0]}")
            return render_rows(columns)

        monkeypatch.setattr(jointmix.dataset, "_render_rows", fail_after_the_first_range)
        with pytest.raises(RuntimeError, match="no text for "):
            run(*fit_argv(transformed_dir, command), "--threads", 2, "--out", tmp_path / "out")
        assert multiprocessing.active_children() == []

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


class TestTwins:
    """``preprocess`` writes a binary twin of each table; ``fit`` and ``baseline`` read it."""

    NAMES = ("expression.tsv", "methylation.tsv")

    def bare(self, data, tmp_path):
        """Copies of the preprocessed tables in ``data``, without their twins."""
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in self.NAMES:
            (bare / name).write_bytes((data / name).read_bytes())
        return bare

    def test_preprocess_writes_the_same_twins_every_run(self, sim_dir, transformed_dir, tmp_path):
        assert preprocess(sim_dir, tmp_path / "again") == 0
        for name in self.NAMES:
            twin = f"{name}.arrays"
            assert (transformed_dir / twin).read_bytes() == (tmp_path / "again" / twin).read_bytes()

    def test_preprocess_does_not_overwrite_a_twin_without_force(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "methylation.tsv.arrays").write_bytes(b"kept")
        argv = [a for a in preprocess_argv(sim_dir, out) if a != "--force"]
        assert run(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: would overwrite methylation.tsv.arrays in {out}; pass --force to allow"
        ]
        assert [p.name for p in out.iterdir()] == ["methylation.tsv.arrays"]
        assert (out / "methylation.tsv.arrays").read_bytes() == b"kept"
        assert run(*argv, "--force") == 0
        assert (out / "methylation.tsv.arrays").read_bytes() != b"kept"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fit_and_baseline_give_the_same_bytes_without_twins(
        self, transformed_dir, tmp_path, threads
    ):
        bare = self.bare(transformed_dir, tmp_path)
        argvs = {
            "fit": lambda data: fit_argv(data, "fit"),
            "base_e": lambda data: fit_argv(data, "baseline"),
            "base_m": lambda data: ["baseline", "--input", data / "methylation.tsv",
                                    "--layer", "methylation"],
        }
        for name, argv in argvs.items():
            for data in (transformed_dir, bare):
                out = tmp_path / f"{name}-{data.name}"
                assert run(*argv(data), "--threads", threads, "--out", out) == 0
            files = sorted(p.name for p in (tmp_path / f"{name}-bare").iterdir())
            assert "model.json" in files
            for f in files:
                if f != "manifest.json":
                    twinned = (tmp_path / f"{name}-{transformed_dir.name}" / f).read_bytes()
                    assert twinned == (tmp_path / f"{name}-bare" / f).read_bytes(), (name, f)

    @pytest.mark.parametrize("twins", [True, False])
    def test_each_input_is_hashed_once(self, transformed_dir, tmp_path, monkeypatch, twins):
        data = transformed_dir if twins else self.bare(transformed_dir, tmp_path)
        hashed, sha256 = {"reader": [], "manifest": []}, jointmix.dataset._sha256
        for module, by in ((jointmix.dataset, "reader"), (jointmix.cli, "manifest")):
            monkeypatch.setattr(module, "_sha256",
                                lambda path, by=by: hashed[by].append(Path(path)) or sha256(path))
        inputs = [data / name for name in self.NAMES]
        assert run(*fit_argv(data, "fit"), "--outer-max", 1, "--out", tmp_path / "fit") == 0
        # with twins the reader hashes each input to check its twin, and the manifest reuses it
        assert hashed == ({"reader": inputs, "manifest": []} if twins
                          else {"reader": [], "manifest": inputs})
        assert manifest(tmp_path / "fit")["input_digests"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs
        }


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
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["gene_id", "map_label"])
    def test_results_table_without_its_id_or_map_label_column_is_input_error(
        self, sim_dir, tmp_path, capsys, missing
    ):
        pred = tmp_path / "pred.tsv"
        header = ["gene_id", "chromosome", "map_label"]
        pred.write_text("\t".join(c if c != missing else "other" for c in header)
                        + "\nG00001\t1\tE0\n")
        out = tmp_path / "ev"
        code = run("evaluate", "--truth", sim_dir / "truth.tsv", "--predicted", pred,
                   "--layer", "gene", "--out", out)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {pred}: missing column {missing!r}"
        ]
        assert not out.exists()

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

    def test_every_replicate_failing_exits_two_with_empty_summaries(self, tmp_path, caplog):
        # two genes are too few for three clusters, so no replicate fits
        out = tmp_path / "bench"
        assert run("benchmark", "--genes", 2, "--replicates", 2, "--out", out) == 2
        assert "2 of 2 replicates failed to fit" in caplog.messages
        rows = [line.split("\t") for line in
                (out / "benchmark_summary.tsv").read_text().splitlines()[1:]]
        assert len(rows) == 18
        assert {tuple(row[3:]) for row in rows} == {("NA", "NA", "0")}
        assert (out / "benchmark_replicates.tsv").read_text().splitlines() == [
            "replicate\tmethod\tlayer\tmetric\tvalue"
        ]

    @pytest.mark.parametrize("replicates", [1, 0, -3])
    def test_too_few_replicates_leave_no_out_directory(self, tmp_path, capsys, replicates):
        out = tmp_path / "bench"
        assert run("benchmark", "--replicates", replicates, "--genes", 20, "--out", out) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --replicates must be at least 2, got {replicates}"
        ]
        assert not out.exists()


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

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_the_probe_rejects_repeats_below_one_as_the_command_does(self, repeats):
        with pytest.raises(ParameterError, match=f"^repeats must be at least 1, got {repeats}$"):
            timing_probe([4], SimConfig(n_genes=20), repeats=repeats)

    @pytest.mark.parametrize("flags", [["--repeats", 0], ["--patients", "4,x"], ["--patients", ","]])
    def test_a_rejected_count_leaves_no_out_directory(self, tmp_path, flags):
        out = tmp_path / "timing"
        assert run("timing", "--patients", "4", "--genes", 20, *flags, "--out", out) == 1
        assert not out.exists()


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
                "--inner-tol", 1e-5, "--inner-max", 30, "--threads", 2], {
            "expression": expression, "methylation": methylation, "mode": "lenient", "K": 2,
            "L": 4, "q": 0.2, "outer_tol": 1e-4, "outer_max": 7, "inner_tol": 1e-5,
            "inner_max": 30, "threads": 2}, 2
    if command == "baseline":
        methylation = str(transformed_dir / "methylation.tsv")
        return ["--input", methylation, "--layer", "methylation", "--k", 2, "--quantile", 0.2,
                "--tol", 1e-4, "--max-iter", 3, "--threads", 2], {
            "input": methylation, "layer": "methylation", "k": 2, "quantile": 0.2,
            "tol": 1e-4, "max_iter": 3, "threads": 2}, 1
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
                "--genes", 30, "--patients", 3, "--threads", 2, "--seed", 9], {
            "case": 2, "replicates": 3, "methods": ["independent", "joint"], "genes": 30,
            "patients": 3, "threads": 2, "seed": 9}, 0
    assert command == "timing"
    return ["--patients", "3,5", "--genes", 30, "--repeats", 2, "--seed", 7], {
        "patients": [3, 5], "genes": 30, "repeats": 2, "seed": 7}, 0


SUBCOMMANDS = ("simulate", "preprocess", "fit", "baseline", "evaluate", "benchmark", "timing")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_manifest_records_the_subcommands_flags(
    sim_dir, transformed_dir, tmp_path, command
):
    flags, parameters, n_inputs = manifest_case(command, sim_dir, transformed_dir, tmp_path)
    out = tmp_path / "out"
    assert run(command, *flags, "--out", out) == 0
    recorded = manifest(out)
    assert recorded["subcommand"] == command
    assert "threads" not in recorded
    assert recorded["parameters"] == parameters
    assert len(recorded["input_digests"]) == n_inputs


@pytest.mark.parametrize("command, flag", [
    *((command, "--seed") for command in ("preprocess", "fit", "baseline", "evaluate")),
    *((command, "--threads") for command in ("preprocess", "simulate", "evaluate", "timing")),
    ("simulate", "--out-dir"),
    *((command, "--bogus") for command in SUBCOMMANDS),
])
def test_a_flag_the_subcommand_does_not_take_is_a_usage_error(
    sim_dir, transformed_dir, tmp_path, capsys, command, flag
):
    flags, _, _ = manifest_case(command, sim_dir, transformed_dir, tmp_path)
    out = tmp_path / "out"
    assert run(command, *flags, flag, 2, "--out", out) == 1
    err = capsys.readouterr().err
    # the subcommand's own usage, which lists its flags
    assert err.startswith(f"usage: jointmix {command} [-h] [--out OUT] [--force]")
    assert err.splitlines()[-1] == f"error: unrecognized arguments: {flag} 2"
    assert not out.exists()


@pytest.mark.parametrize("threads", [0, -1])
@pytest.mark.parametrize("argv", [
    lambda data: fit_argv(data, "fit"),
    lambda data: fit_argv(data, "baseline"),
    lambda data: ["benchmark", "--replicates", 2, "--genes", 30],
    # checked before any input is opened
    lambda data: fit_argv(data, "fit", expression=data / "missing.tsv"),
    lambda data: fit_argv(data, "baseline", expression=data / "missing.tsv"),
], ids=["fit", "baseline", "benchmark", "fit-missing-input", "baseline-missing-input"])
def test_threads_below_one_is_one_input_error(transformed_dir, tmp_path, capsys, argv, threads):
    out = tmp_path / "out"
    assert run(*argv(transformed_dir), "--threads", threads, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: threads must be at least 1, got {threads}"
    ]
    assert not out.exists()


def rejected_runs(sim_dir, data, tmp_path, out):
    """Runs rejected after ``--out`` is checked, by name: argv writing to ``out``, and error."""
    pred = tmp_path / "pred.tsv"
    pred.write_text("gene_id\tlabel\nG00001\tE0\n")
    evaluate = ["evaluate", "--truth", sim_dir / "truth.tsv", "--layer", "gene", "--predicted"]
    runs = {
        "fit-k": ([*fit_argv(data, "fit"), "--k", 0], "K must be at least 1, got 0"),
        "fit-quantile": ([*fit_argv(data, "fit"), "--quantile", 0.7],
                         "init quantile must lie in (0, 0.5), got 0.7"),
        "baseline-k": ([*fit_argv(data, "baseline"), "--k", 0], "K must be at least 1, got 0"),
        "preprocess-pseudocount": (preprocess_argv(sim_dir, out, "--pseudocount", 0),
                                   "pseudocount must be finite and above 0, got 0.0"),
        "benchmark-methods": (["benchmark", "--methods", "joint,foo", "--genes", 20],
                              "unknown method 'foo'"),
        "timing-genes": (["timing", "--genes", 0], "n_genes must be at least 1, got 0"),
        "evaluate-missing-input": (
            [*evaluate, tmp_path / "missing.tsv"],
            f"[Errno 2] No such file or directory: {str(tmp_path / 'missing.tsv')!r}",
        ),
        "evaluate-no-map-label": ([*evaluate, pred], f"{pred}: missing column 'map_label'"),
    }
    return {name: ([*argv, "--out", out], message) for name, (argv, message) in runs.items()}


@pytest.mark.parametrize("name", [
    "fit-k", "fit-quantile", "baseline-k", "preprocess-pseudocount", "benchmark-methods",
    "timing-genes", "evaluate-missing-input", "evaluate-no-map-label",
])
def test_a_rejected_run_leaves_no_out_directory(sim_dir, transformed_dir, tmp_path, capsys, name):
    out = tmp_path / "out"
    argv, message = rejected_runs(sim_dir, transformed_dir, tmp_path, out)[name]
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--genes", 20],
    ["benchmark", "--replicates", 2, "--genes", 20],
    ["timing", "--patients", 4, "--genes", 20],
    ["fit", "--expression", "missing.tsv", "--methylation", "missing.tsv"],
], ids=lambda argv: argv[0])
def test_a_missing_out_is_one_input_error(capsys, argv):
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --out is required"]


@pytest.mark.parametrize("argv, seed", [
    (["simulate", "--genes", 20], -1),
    (["benchmark", "--replicates", 2, "--genes", 20], -1),
    (["timing", "--patients", 4, "--genes", 20], -2),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_a_negative_seed_is_one_input_error(tmp_path, capsys, argv, seed):
    out = tmp_path / "out"
    assert run(*argv, "--seed", seed, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: seed must be at least 0, got {seed}"]
    assert not out.exists()


def test_a_fit_error_reaching_main_exits_two(tmp_path, capsys):
    out = tmp_path / "timing"
    assert run("timing", "--patients", 4, "--genes", 2, "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fit error: cannot fit 3 gene clusters to 2 genes"
    ]
    assert not (out / "timing.tsv").exists() and not out.exists()


@pytest.mark.parametrize(
    "argv, out_name, message",
    [
        (["timing", "--genes", 0], "afile", "[Errno 17] File exists"),
        (["fit", "--expression", "missing.tsv", "--methylation", "missing.tsv"], "afile/sub",
         "[Errno 20] Not a directory"),
    ],
    ids=["a-file", "below-a-file"],
)
def test_an_out_on_a_file_is_rejected_before_the_flags_or_inputs_are_read(
    tmp_path, capsys, argv, out_name, message
):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = tmp_path / out_name
    argv = [tmp_path / a if str(a).endswith(".tsv") else a for a in argv]
    assert run(*argv, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}: {str(out)!r}"]
    assert afile.read_text() == ""


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

    def run_with(self, sim_dir, command, files, out, layer="expression"):
        """Run ``command`` on ``files``; ``baseline`` fits the table of ``layer``."""
        if command == "preprocess":
            return preprocess(sim_dir, out, **{name: files[name] for name in CONDITION_FILES})
        if command == "fit":
            return run("fit", "--expression", files["expression"],
                       "--methylation", files["methylation"], "--out", out)
        if command == "baseline":
            return run("baseline", "--input", files[layer], "--layer", layer, "--out", out)
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

    @pytest.mark.parametrize("command, name", [
        *(("preprocess", name) for name in CONDITION_FILES),
        ("fit", "expression"), ("fit", "methylation"),
        ("baseline", "expression"), ("baseline", "methylation"),
        ("evaluate", "truth"),
    ])
    def test_table_without_rows_is_one_input_error(
        self, sim_dir, transformed_dir, tmp_path, capsys, command, name
    ):
        files = self.inputs(sim_dir, transformed_dir, tmp_path)
        empty = tmp_path / "empty" / files[name].name
        empty.parent.mkdir()
        empty.write_text(files[name].read_text().splitlines()[0] + "\n")
        out = tmp_path / "out"
        assert self.run_with(sim_dir, command, {**files, name: empty}, out, layer=name) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {empty}: no data rows"]
        assert not out.exists()

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
