import multiprocessing

import numpy as np
import pytest

from jointmix.dataset import Table, _format_number, build_paired_dataset


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a worker process running: every pool must join its workers."""
    yield
    assert multiprocessing.active_children() == []


def scalar_lines(columns):
    """Each row of ``columns`` cell by cell: strings as they are, numbers by ``_format_number``.

    The reference for the block renderer: a column is a 1-D sequence of
    strings or a 2-D number array.
    """
    return [
        "\t".join(
            cell
            for col in columns
            for cell in ([_format_number(v) for v in col[i]] if np.ndim(col) == 2 else [col[i]])
        )
        for i in range(len(columns[0]))
    ]


def make_dataset(x, cpg_of_gene, y, chromosomes=None, patients=None):
    """Build a PairedDataset from plain arrays.

    ``cpg_of_gene`` holds, for each CpG row of ``y``, the index of its
    parent gene in ``x``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(len(cpg_of_gene), -1) if len(cpg_of_gene) else np.zeros((0, x.shape[1]))
    g = x.shape[0]
    chromosomes = np.asarray(chromosomes or ["1"] * g, dtype=str)
    patients = patients or [f"P{j + 1}" for j in range(x.shape[1])]
    gene_ids = np.array([f"G{i:04d}" for i in range(g)])
    parent = np.asarray(cpg_of_gene, dtype=np.intp)
    genes = Table({"gene_id": gene_ids, "chromosome": chromosomes}, x)
    cpgs = Table(
        {"cpg_id": [f"C{j:04d}" for j in range(len(parent))],
         "gene_id": gene_ids[parent], "chromosome": chromosomes[parent]},
        y,
    )
    return build_paired_dataset(genes, cpgs, patients, mode="strict")


def random_mixture_dataset(rng, n_genes=30, n_patients=3, max_cpgs=5,
                           gene_means=(-3.0, 0.0, 3.0), cpg_means=(-4.0, 0.0, 4.0),
                           gene_sd=1.0, cpg_sd=1.0, include_empty_genes=True):
    """Dataset drawn from separated per-layer mixtures (clusters stay alive)."""
    gene_lab = rng.integers(0, len(gene_means), n_genes)
    x = rng.normal(np.array(gene_means)[gene_lab][:, None], gene_sd, (n_genes, n_patients))
    lo = 0 if include_empty_genes else 1
    counts = rng.integers(lo, max_cpgs + 1, n_genes)
    cpg_of_gene = np.repeat(np.arange(n_genes), counts)
    cpg_lab = rng.integers(0, len(cpg_means), len(cpg_of_gene))
    y = rng.normal(np.array(cpg_means)[cpg_lab][:, None], cpg_sd, (len(cpg_of_gene), n_patients))
    return make_dataset(x, cpg_of_gene, y)


@pytest.fixture
def tiny_pair_files(tmp_path):
    """Well-formed 3-gene / 5-CpG transformed tables (mapping 3, 2, 0)."""
    expr = tmp_path / "expression.tsv"
    expr.write_text(
        "gene_id\tchromosome\tP1\tP2\n"
        "GA\t1\t0.5\t-0.25\n"
        "GB\t1\t1.5\t2.0\n"
        "GC\t7\t-3.0\t0.0\n"
    )
    meth = tmp_path / "methylation.tsv"
    meth.write_text(
        "cpg_id\tgene_id\tchromosome\tP1\tP2\n"
        "c1\tGA\t1\t0.1\t0.2\n"
        "c2\tGA\t1\t-0.3\t0.4\n"
        "c3\tGA\t1\t2.5\t-1.5\n"
        "c4\tGB\t1\t0.0\t0.0\n"
        "c5\tGB\t1\t1.0\t-1.0\n"
    )
    return expr, meth
