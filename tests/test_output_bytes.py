"""Every data TSV of ``simulate``, ``preprocess``, ``fit`` and ``baseline``, byte for byte.

Each table the commands write is rebuilt from its in-memory arrays by
``reference_tsv``, which formats one cell at a time by the scalar rule
``_format_number``, and compared with the file. The input spreads its
genes over three interleaved chromosomes, so the per-chromosome fits
are placed back in input order; the result tables are also written in
ranges of a few rows, which cut across the chromosomes. The one TSV
writer beneath them is checked at one and at two workers, and
``write_tsv`` against ``format_cell`` cell by cell.
"""

import os

import numpy as np
import pytest

import jointmix.dataset
from conftest import scalar_lines
from jointmix.baseline import fit_independent
from jointmix.cli import main
from jointmix.dataset import (
    _block_rows,
    _data_table,
    _write_tables,
    load_paired_dataset,
    read_expression_table,
    read_methylation_table,
    split_by_chromosome,
)
from jointmix.joint_em import fit_all_chromosomes
from jointmix.preprocess import derive_model_inputs
from jointmix.reports import format_cell, write_tsv
from jointmix.simulate import SimConfig, replicate_batch

GENE_POSTERIORS = ["posterior_Eminus", "posterior_E0", "posterior_Eplus"]
CPG_POSTERIORS = ["posterior_Mminus", "posterior_M0", "posterior_Mplus"]
CHROMOSOMES = ["2", "X", "1"]
# High enough to drop some of the simulated genes and their CpGs.
COUNT_THRESHOLD = 60000


def run(*argv):
    return main([str(a) for a in argv])


def reference_tsv(header, columns) -> bytes:
    """A TSV written cell by cell, by :func:`conftest.scalar_lines`."""
    return "".join(line + "\n" for line in ["\t".join(header), *scalar_lines(columns)]).encode()


def raw_tables(sim, gene_chrom):
    """The simulation's four raw tables and its truth table, as ``{file name: bytes}``."""
    t = sim.truth
    cpg_gene_ids = [t.gene_ids[i] for i in t.cpg_gene_idx]
    cpg_chrom = [gene_chrom[i] for i in t.cpg_gene_idx]
    tables = {}
    for cond in "ab":
        tables[f"expression_{cond}.tsv"] = reference_tsv(
            ["gene_id", "chromosome", *sim.patients],
            [t.gene_ids, gene_chrom, getattr(sim, f"counts_{cond}")],
        )
        tables[f"methylation_{cond}.tsv"] = reference_tsv(
            ["cpg_id", "gene_id", "chromosome", *sim.patients],
            [t.cpg_ids, cpg_gene_ids, cpg_chrom, getattr(sim, f"betas_{cond}")],
        )
    tables["truth.tsv"] = reference_tsv(
        ["entity_id", "layer", "label"],
        [[*t.gene_ids, *t.cpg_ids], ["gene"] * len(t.gene_ids) + ["cpg"] * len(t.cpg_ids),
         [*t.gene_labels, *t.cpg_labels]],
    )
    return tables


def assert_files(out, expected):
    for name, data in expected.items():
        assert (out / name).read_bytes() == data, name


def result_columns(n_rows, parts, layers, names):
    """Posteriors, MAP label names and uncertainties of per-chromosome fits, in input order.

    ``parts`` holds each chromosome's input rows and ``layers`` its fitted layer.
    """
    resp = np.full((n_rows, len(names)), np.nan)
    labels = np.empty(n_rows, dtype=object)
    uncertainty = np.full((n_rows, 1), np.nan)
    for rows, layer in zip(parts, layers):
        resp[rows] = layer.resp
        labels[rows] = [names[m - 1] for m in layer.map_labels.tolist()]
        uncertainty[rows, 0] = layer.uncertainty
    return [resp, labels, uncertainty]


@pytest.fixture(scope="module")
def sim():
    return next(replicate_batch(SimConfig(n_genes=90, seed=11), 1))


@pytest.fixture(scope="module")
def gene_chrom(sim):
    return [CHROMOSOMES[i % 3] for i in range(len(sim.truth.gene_ids))]


@pytest.fixture(scope="module")
def raw_dir(sim, gene_chrom, tmp_path_factory):
    out = tmp_path_factory.mktemp("raw")
    for name, data in raw_tables(sim, gene_chrom).items():
        (out / name).write_bytes(data)
    return out


@pytest.fixture(scope="module")
def prep_dir(raw_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    flags = [a for name in ("expression_a", "expression_b", "methylation_a", "methylation_b")
             for a in (f"--{name.replace('_', '-')}", raw_dir / f"{name}.tsv")]
    assert run("preprocess", *flags, "--count-threshold", COUNT_THRESHOLD, "--out", out) == 0
    return out


def test_simulate_writes_the_arrays_it_draws(tmp_path):
    cfg = SimConfig(n_genes=40, n_patients=3, case=2, seed=7)
    assert run("simulate", "--genes", 40, "--patients", 3, "--case", 2, "--seed", 7,
               "--out", tmp_path / "one") == 0
    assert run("simulate", "--genes", 40, "--patients", 3, "--case", 2, "--seed", 7,
               "--replicates", 2, "--out", tmp_path / "two") == 0
    sims = list(replicate_batch(cfg, 2))
    assert_files(tmp_path / "one", raw_tables(sims[0], ["1"] * 40))
    for r, sim in enumerate(sims):
        assert_files(tmp_path / "two" / f"rep{r:03d}", raw_tables(sim, ["1"] * 40))


def test_preprocess_writes_the_model_inputs_it_derives(sim, gene_chrom, prep_dir):
    t = sim.truth
    kept_g, x, kept_c, y = derive_model_inputs(
        sim.counts_a.astype(float), sim.counts_b.astype(float), sim.betas_a, sim.betas_b,
        t.cpg_gene_idx, count_threshold=COUNT_THRESHOLD,
    )
    assert 0 < len(kept_g) < len(t.gene_ids)
    gene_ids, chrom = np.array(t.gene_ids), np.array(gene_chrom)
    parent = t.cpg_gene_idx[kept_c]
    assert_files(prep_dir, {
        "expression.tsv": reference_tsv(
            ["gene_id", "chromosome", *sim.patients], [gene_ids[kept_g], chrom[kept_g], x]
        ),
        "methylation.tsv": reference_tsv(
            ["cpg_id", "gene_id", "chromosome", *sim.patients],
            [np.array(t.cpg_ids)[kept_c], gene_ids[parent], chrom[parent], y],
        ),
    })


@pytest.fixture(params=["one block", "small blocks"])
def block_cells(request, monkeypatch):
    """The result writer at its own range size, and at ranges of a few rows each."""
    if request.param == "small blocks":
        monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 64)


@pytest.mark.parametrize("threads", [1, 2])
def test_fit_writes_the_layers_it_fits(prep_dir, tmp_path, threads, block_cells):
    out = tmp_path / "fit"
    assert run("fit", "--expression", prep_dir / "expression.tsv",
               "--methylation", prep_dir / "methylation.tsv",
               "--threads", threads, "--out", out) == 0
    ds = load_paired_dataset(prep_dir / "expression.tsv", prep_dir / "methylation.tsv")
    results, failures = fit_all_chromosomes(ds)
    parts = split_by_chromosome(ds)
    assert failures == {} and sorted(results) == sorted(CHROMOSOMES) == [p.label for p in parts]
    fits = [results[p.label] for p in parts]
    parent = ds.cpg_gene_idx
    assert_files(out, {
        "gene_results.tsv": reference_tsv(
            ["gene_id", "chromosome", *GENE_POSTERIORS, "map_label", "uncertainty"],
            [ds.gene_ids, ds.chromosomes,
             *result_columns(ds.n_genes, [p.genes for p in parts], [r.gene for r in fits],
                             ["E-", "E0", "E+"])],
        ),
        "cpg_results.tsv": reference_tsv(
            ["cpg_id", "gene_id", "chromosome", *CPG_POSTERIORS, "map_label", "uncertainty"],
            [ds.cpg_ids, ds.gene_ids[parent], ds.chromosomes[parent],
             *result_columns(ds.n_cpgs, [p.cpgs for p in parts], [r.cpg for r in fits],
                             ["M-", "M0", "M+"])],
        ),
    })


@pytest.mark.parametrize("layer, reader, results, posteriors, names", [
    ("expression", read_expression_table, "gene_results.tsv", GENE_POSTERIORS,
     ["E-", "E0", "E+"]),
    ("methylation", read_methylation_table, "cpg_results.tsv", CPG_POSTERIORS,
     ["M-", "M0", "M+"]),
])
@pytest.mark.parametrize("threads", [1, 2])
def test_baseline_writes_the_layer_it_fits(
    prep_dir, tmp_path, layer, reader, results, posteriors, names, threads, block_cells
):
    out = tmp_path / "baseline"
    assert run("baseline", "--input", prep_dir / f"{layer}.tsv", "--layer", layer,
               "--threads", threads, "--out", out) == 0
    _, table = reader(prep_dir / f"{layer}.tsv")
    parts = [np.flatnonzero(table["chromosome"] == label) for label in sorted(CHROMOSOMES)]
    fits = [fit_independent(table.values[rows]).layer for rows in parts]
    assert_files(out, {
        results: reference_tsv(
            [*table.columns, *posteriors, "map_label", "uncertainty"],
            [*table.columns.values(), *result_columns(len(table), parts, fits, names)],
        ),
    })


def separated_inputs(out):
    """Model-ready tables whose fitted CpG posteriors reach 0 and run through [1e-9, 1e-4).

    On chromosome 1 the CpG clusters lie 30 apart, so that the posterior
    of a far component underflows to 0; on chromosome 2 they lie 8 apart
    with CpGs spread between them, so that posteriors run through the
    small magnitudes.
    """
    rng = np.random.default_rng(0)
    genes, per, patients = 32, 6, ["P1", "P2", "P3", "P4"]
    x, y = [], []
    for gap, spread in ((30.0, 0.0), (8.0, 4.0)):
        state = np.repeat([-1, 0, 1], [8, 16, 8])
        x.append(state[:, None] * 2.0 + rng.normal(0, 0.3, (genes, 4)))
        cpg_state = rng.choice([-1, 0, 1], genes * per)
        y.append(cpg_state[:, None] * gap + rng.uniform(-spread, spread, (genes * per, 1))
                 + rng.normal(0, 0.3, (genes * per, 4)))
    gene_ids, chrom = [f"G{g:02d}" for g in range(2 * genes)], ["1"] * genes + ["2"] * genes
    parent = np.arange(2 * genes).repeat(per)
    out.mkdir()
    (out / "expression.tsv").write_bytes(reference_tsv(
        ["gene_id", "chromosome", *patients], [gene_ids, chrom, np.vstack(x)]
    ))
    (out / "methylation.tsv").write_bytes(reference_tsv(
        ["cpg_id", "gene_id", "chromosome", *patients],
        [[f"C{c:03d}" for c in range(len(parent))], [gene_ids[g] for g in parent],
         [chrom[g] for g in parent], np.vstack(y)],
    ))
    return out


@pytest.fixture(scope="module")
def separated_fit(tmp_path_factory):
    """The ``fit`` output of :func:`separated_inputs` and the CpG result table's columns."""
    data = separated_inputs(tmp_path_factory.mktemp("separated") / "data")
    out = data.parent / "fit"
    assert run("fit", "--expression", data / "expression.tsv",
               "--methylation", data / "methylation.tsv", "--out", out) == 0
    ds = load_paired_dataset(data / "expression.tsv", data / "methylation.tsv")
    results, failures = fit_all_chromosomes(ds)
    parts = split_by_chromosome(ds)
    assert failures == {} and [p.label for p in parts] == ["1", "2"]
    parent = ds.cpg_gene_idx
    return out, [ds.cpg_ids, ds.gene_ids[parent], ds.chromosomes[parent], *result_columns(
        ds.n_cpgs, [p.cpgs for p in parts], [results[p.label].cpg for p in parts],
        ["M-", "M0", "M+"],
    )]


def test_fit_writes_posteriors_near_zero_by_the_scalar_rule(separated_fit):
    out, columns = separated_fit
    size = np.abs(columns[3])
    # each class of cell whose ``orjson`` text differs from ``repr``'s
    assert (size == 0).any()
    assert ((size >= 1e-9) & (size < 1e-5)).any()
    assert ((size >= 1e-5) & (size < 1e-4)).any()
    assert_files(out, {"cpg_results.tsv": reference_tsv(
        ["cpg_id", "gene_id", "chromosome", *CPG_POSTERIORS, "map_label", "uncertainty"], columns,
    )})


def test_only_non_finite_and_huge_cells_take_the_scalar_rule(separated_fit, monkeypatch):
    resp = separated_fit[1][3]
    block = np.vstack([resp, -resp, [[np.nan, np.inf, -np.inf], [1e16, -1e300, 0.5]]])
    seen = []

    def spy(v):
        seen.append(v)
        return format_number(v)

    format_number = jointmix.dataset._format_number
    monkeypatch.setattr(jointmix.dataset, "_format_number", spy)
    assert jointmix.dataset._block_lines(block) == scalar_lines([block])
    size = np.abs(block)
    assert sorted(map(repr, seen)) == sorted(map(repr, block[~(size < 1e16)].tolist()))
    assert len(seen) == 5


def test_the_writer_gives_the_same_bytes_on_one_and_on_two_workers(tmp_path, monkeypatch):
    # the data tables are written on one worker: only here do their ranges meet the pool
    monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(5)
    values = rng.normal(size=(300, 5))
    values[::7] = np.round(values[::7] * 1e3)  # integral floats lose the ``.0``
    tables = {
        "data.tsv": (["row_id", *(f"P{j}" for j in range(5))],
                     [np.array([f"R{i}" for i in range(300)]), values]),
        "counts.tsv": (["id", "kind", "a", "b"],
                       [[f"c{i}" for i in range(90)], ["x%s"] * 90,
                        rng.integers(-(2**40), 2**40, (90, 2))]),
    }
    assert all(len(cols[0]) > 3 * _block_rows(len(header)) for header, cols in tables.values())
    for threads in (1, 2):
        (tmp_path / str(threads)).mkdir()
        _write_tables([_data_table(tmp_path / str(threads) / name, header, cols)
                       for name, (header, cols) in tables.items()], threads)
    for name, (header, cols) in tables.items():
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes() == (
            reference_tsv(header, cols))


def test_write_tsv_writes_each_cell_by_format_cell(tmp_path):
    rows = [
        ("none", None, 3, np.int64(-(2**62))),
        ("floats", 2.0, np.float64(-0.0), 1e22),
        ("more", 0.1, np.float32(0.5), float("nan")),
        ("text", "a b", "%s", "%%r"),
    ]
    write_tsv(tmp_path / "table.tsv", ["what", "a", "b", "c"], rows)
    lines = (tmp_path / "table.tsv").read_text().splitlines()
    assert lines == ["what\ta\tb\tc", *("\t".join(map(format_cell, row)) for row in rows)]
    assert lines[1:4] == ["none\tNA\t3\t-4611686018427387904",
                          "floats\t2\t0\t10000000000000000000000", "more\t0.1\t0.5\tnan"]
    write_tsv(tmp_path / "empty.tsv", ["what", "a"], [])
    assert (tmp_path / "empty.tsv").read_text() == "what\ta\n"
