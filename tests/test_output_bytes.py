"""Every data TSV of ``simulate``, ``preprocess``, ``fit`` and ``baseline``, byte for byte.

Each table the commands write is rebuilt from its in-memory arrays by
``reference_tsv``, which formats one cell at a time by the scalar rule
``_format_number``, and compared with the file. The input spreads its
genes over three interleaved chromosomes, so the per-chromosome fits
are placed back in input order; the result tables are also written in
ranges of a few rows, which cut across the chromosomes. The one TSV
writer beneath them is checked at one and at two workers, and
``write_tsv`` against ``format_cell`` cell by cell. The writer refuses
columns of unequal length before it opens any file, and
``write_layer_tables`` is checked called directly.
"""

import json
import os

import numpy as np
import pytest

import jointmix.dataset
import jointmix.reports
from conftest import scalar_lines
from jointmix.baseline import fit_independent
from jointmix.cli import main
from jointmix.dataset import (
    _block_rows,
    _format_number,
    _write_tables,
    load_paired_dataset,
    read_expression_table,
    read_methylation_table,
    split_by_chromosome,
    write_expression_table,
    write_methylation_table,
)
from jointmix.joint_em import LayerFit, fit_all_chromosomes
from jointmix.preprocess import derive_model_inputs
from jointmix.reports import (
    format_cell,
    joint_params_payload,
    write_joint_results,
    write_layer_tables,
    write_tsv,
)
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


def test_a_fit_of_every_row_hands_the_writer_the_datasets_own_id_columns(
    prep_dir, tmp_path, monkeypatch
):
    ds = load_paired_dataset(prep_dir / "expression.tsv", prep_dir / "methylation.tsv")
    results, failures = fit_all_chromosomes(ds)
    assert failures == {}
    tables = []
    monkeypatch.setattr(jointmix.reports, "_write_tables",
                        lambda entries, threads: tables.extend(entries))
    write_joint_results(tmp_path, ds, results)
    (_, _, genes), (_, _, cpgs) = tables
    assert genes[0] is ds.gene_ids and genes[1] is ds.chromosomes and cpgs[0] is ds.cpg_ids


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


@pytest.mark.parametrize("K, L, gene_names, cpg_names", [
    (2, 4, ["E1", "E2"], ["M1", "M2", "M3", "M4"]),
    (1, 3, ["E1"], ["M-", "M0", "M+"]),
])
def test_the_writers_take_the_sizes_and_state_names_of_the_fits(
    prep_dir, tmp_path, K, L, gene_names, cpg_names
):
    """``fit`` and ``baseline`` at sizes other than 3: the sizes and state names of the fits."""
    def posteriors(names):
        return [f"posterior_{n.replace('-', 'minus').replace('+', 'plus')}" for n in names]

    def model_json(payload):
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    assert run("fit", "--expression", prep_dir / "expression.tsv",
               "--methylation", prep_dir / "methylation.tsv", "--k", K, "--l", L,
               "--threads", 2, "--out", tmp_path / "fit") == 0
    ds = load_paired_dataset(prep_dir / "expression.tsv", prep_dir / "methylation.tsv")
    results, failures = fit_all_chromosomes(ds, K=K, L=L)
    assert failures == {}
    parts = split_by_chromosome(ds)
    fits, parent = [results[p.label] for p in parts], ds.cpg_gene_idx
    assert_files(tmp_path / "fit", {
        "gene_results.tsv": reference_tsv(
            ["gene_id", "chromosome", *posteriors(gene_names), "map_label", "uncertainty"],
            [ds.gene_ids, ds.chromosomes, *result_columns(
                ds.n_genes, [p.genes for p in parts], [r.gene for r in fits], gene_names)],
        ),
        "cpg_results.tsv": reference_tsv(
            ["cpg_id", "gene_id", "chromosome", *posteriors(cpg_names), "map_label",
             "uncertainty"],
            [ds.cpg_ids, ds.gene_ids[parent], ds.chromosomes[parent], *result_columns(
                ds.n_cpgs, [p.cpgs for p in parts], [r.cpg for r in fits], cpg_names)],
        ),
        "model.json": model_json({"model": "joint", "K": K, "L": L, "chromosomes": {
            label: joint_params_payload(r) for label, r in sorted(results.items())}}),
    })
    for layer, reader, name, names in (
        ("expression", read_expression_table, "gene_results.tsv", gene_names),
        ("methylation", read_methylation_table, "cpg_results.tsv",
         [n.replace("E", "M") for n in gene_names]),
    ):
        out = tmp_path / layer
        assert run("baseline", "--input", prep_dir / f"{layer}.tsv", "--layer", layer,
                   "--k", K, "--out", out) == 0
        _, table = reader(prep_dir / f"{layer}.tsv")
        labels = sorted(CHROMOSOMES)
        rows = [np.flatnonzero(table["chromosome"] == label) for label in labels]
        base = [fit_independent(table.values[r], K=K) for r in rows]
        assert_files(out, {
            name: reference_tsv(
                [*table.columns, *posteriors(names), "map_label", "uncertainty"],
                [*table.columns.values(),
                 *result_columns(len(table), rows, [b.layer for b in base], names)],
            ),
            "model.json": model_json({"model": "independent", "K": K, "chromosomes": {
                label: {"weights": b.params.weights.tolist(), "means": b.params.means.tolist(),
                        "variance": float(b.params.variance), "n_iters": b.n_iters,
                        "converged": b.converged}
                for label, b in zip(labels, base)}}),
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
        _write_tables([(tmp_path / str(threads) / name, header, cols)
                       for name, (header, cols) in tables.items()], threads)
    for name, (header, cols) in tables.items():
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes() == (
            reference_tsv(header, cols))


@pytest.mark.parametrize("n_ids, n_values", [(8192, 8197), (8191, 8192)])
def test_columns_of_unequal_length_are_refused_before_any_file_is_opened(
    tmp_path, n_ids, n_values
):
    # ranges of 4,096 rows: the first case's two ranges each hold ids and values of one
    # length, and the second case's first range does
    assert _block_rows(4) == 4096
    ids, path = [f"c{i}" for i in range(n_ids)], tmp_path / "out" / "methylation.tsv"
    with pytest.raises(ValueError) as exc:
        write_methylation_table(path, ids, ids, ["1"] * n_ids, ["P1"], np.zeros((n_values, 1)))
    assert str(exc.value) == (
        f"{path}: columns of unequal lengths [{n_ids}, {n_ids}, {n_ids}, {n_values}]")
    assert not (tmp_path / "out").exists()


def test_one_table_of_unequal_columns_stops_every_table_of_the_call(tmp_path):
    good = (tmp_path / "a" / "good.tsv", ["id"], [["x", "y"]])
    bad = (tmp_path / "b" / "bad.tsv", ["id", "v"], [["x"], np.zeros((2, 1))])
    with pytest.raises(ValueError, match=r"bad\.tsv: columns of unequal lengths \[1, 2\]$"):
        _write_tables([good, bad], threads=2)
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize("write, message", [
    (lambda p: write_expression_table(p, ["a"], ["1"], ["P1"], np.zeros((1, 2))),
     "a header of 3 cells over rows of 4"),
    (lambda p: write_expression_table(p, ["a"], ["1"], ["P\t1"], np.zeros((1, 1))),
     "a header of 4 cells over rows of 3"),
    (lambda p: write_tsv(p, ["x", "y", "z"], [(1, 2), (3, 4)]),
     "a header of 3 cells over rows of 2"),
    (lambda p: write_tsv(p, ["x", "y\rz"], [(1, 2)]),
     "a header of 2 cells over rows of 2, broken by a line end"),
], ids=["short patient list", "patient holding a tab", "short rows", "header holding a CR"])
def test_a_header_that_does_not_match_its_rows_is_refused_before_any_file_is_made(
    tmp_path, write, message
):
    path = tmp_path / "out" / "table.tsv"
    with pytest.raises(ValueError) as exc:
        write(path)
    assert str(exc.value) == f"{path}: {message}"
    assert not (tmp_path / "out").exists()


def test_one_table_whose_header_does_not_match_its_rows_stops_every_table_of_the_call(tmp_path):
    good = (tmp_path / "a" / "good.tsv", ["id"], [["x", "y"]])
    bad = (tmp_path / "b" / "bad.tsv", ["id", "v"], [["x", "y"], np.zeros((2, 2))])
    with pytest.raises(ValueError, match=r"bad\.tsv: a header of 2 cells over rows of 3$"):
        _write_tables([good, bad], threads=2)
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def layer_fit(n_rows, k):
    """A fitted layer of ``n_rows`` rows over ``k`` states, every row in state 1."""
    resp = np.zeros((n_rows, k))
    resp[:, 0] = 1.0
    return LayerFit(resp, np.ones(n_rows, dtype=int), np.zeros(n_rows))


def test_write_layer_tables_refuses_a_layer_other_than_gene_or_cpg(tmp_path):
    table = (tmp_path / "out" / "results.tsv", {"row_id": np.array(["r0", "r1"])},
             [(np.array([0, 1]), layer_fit(2, 3))], "genes")
    with pytest.raises(ValueError, match="^layer must be 'gene' or 'cpg', got 'genes'$"):
        write_layer_tables([table])
    assert not (tmp_path / "out").exists()


def test_parts_of_two_posterior_widths_are_refused_before_any_file_is_opened(tmp_path):
    good = (tmp_path / "a" / "good.tsv", {"row_id": np.array(["r0", "r1"])},
            [(np.array([0, 1]), layer_fit(2, 3))], "gene")
    mixed = (tmp_path / "b" / "mixed.tsv", {"row_id": np.array(["r0", "r1", "r2"])},
             [(np.array([0, 2]), layer_fit(2, 3)), (np.array([1]), layer_fit(1, 2))], "cpg")
    with pytest.raises(ValueError):
        write_layer_tables([good, mixed], threads=2)
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

def test_write_layer_tables_puts_the_parts_rows_in_table_order(tmp_path, monkeypatch):
    # ranges of two rows, rendered on two workers
    monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 14)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(8)
    annotations = {"row_id": np.array([f"r{i}" for i in range(11)]),
                   "chromosome": np.array(list("22211133322"))}
    names = ["E-", "E0", "E+"]
    parts = []
    for rows in ([6, 7, 8, 9, 10], [0, 2, 4], [1, 3]):  # out of label order; row 5 in none
        resp = rng.dirichlet(np.ones(3), size=len(rows))
        resp[0] = [0.0, 1.0, 0.0]  # integral cells lose their ``.0``
        parts.append((np.array(rows), LayerFit(resp, resp.argmax(axis=1) + 1,
                                               1.0 - resp.max(axis=1))))
    path = tmp_path / "results.tsv"
    write_layer_tables([(path, annotations, parts, "gene")], threads=2)
    fitted = {r: (layer, i) for rows, layer in parts for i, r in enumerate(rows.tolist())}
    want = ["row_id\tchromosome\tposterior_Eminus\tposterior_E0\tposterior_Eplus\t"
            "map_label\tuncertainty"]
    for r, (layer, i) in sorted(fitted.items()):
        want.append("\t".join([
            *(str(col[r]) for col in annotations.values()),
            *(_format_number(v) for v in layer.resp[i]), names[layer.map_labels[i] - 1],
            _format_number(layer.uncertainty[i]),
        ]))
    assert len(want) == 11
    assert path.read_text().splitlines() == want


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
