"""Property checks of the table I/O, the chromosome split and the fits."""

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_mixture_dataset
from jointmix import dataset
from jointmix.baseline import fit_independent
from jointmix.dataset import (
    MAX_ABS_VALUE,
    _format_number,
    _format_rows,
    load_paired_dataset,
    read_expression_table,
    read_methylation_table,
    split_by_chromosome,
    write_expression_table,
    write_methylation_table,
)
from jointmix.errors import FitError, FormatError
from jointmix.joint_em import fit, fit_all_chromosomes

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
# Values whose text is easy to get wrong: signed zeros, the smallest
# subnormal, the switches to exponent notation, and integral floats (up
# to 1e300) that are written without their ``.0``.
edge_finite = st.one_of(
    finite,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, -1e16, 1e15, 2.0**53, 1e300]),
    st.floats(-1e300, 1e300).map(math.trunc).map(float),
)
edge_floats = st.one_of(edge_finite, st.sampled_from([math.nan, math.inf, -math.inf]))
# The same kinds of values, as far as the table reader accepts them: up
# to MAX_ABS_VALUE in magnitude, the bound itself included.
readable = st.one_of(
    st.floats(-MAX_ABS_VALUE, MAX_ABS_VALUE),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, -1e16, 1e15, 2.0**53,
                     MAX_ABS_VALUE, -MAX_ABS_VALUE]),
    st.floats(-MAX_ABS_VALUE, MAX_ABS_VALUE).map(math.trunc).map(float),
)
# What it rejects: nan, the infinities and every float beyond the bound.
unreadable = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=MAX_ABS_VALUE, exclude_min=True, allow_infinity=False),
    st.floats(max_value=-MAX_ABS_VALUE, exclude_max=True, allow_infinity=False),
)
labels = st.text("abcXY12", min_size=1, max_size=3)


@st.composite
def tables(draw):
    """(ids, gene_ids, chromosomes, patients, values) for a small table."""
    rows = draw(st.integers(0, 6))
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(labels, min_size=rows, max_size=rows, unique=True))
    gene_ids = draw(st.lists(labels, min_size=rows, max_size=rows))
    chromosomes = draw(st.lists(labels, min_size=rows, max_size=rows))
    values = np.array(
        draw(st.lists(readable, min_size=rows * n, max_size=rows * n)), dtype=float
    ).reshape(rows, n)
    return ids, gene_ids, chromosomes, [f"P{j + 1}" for j in range(n)], values


@st.composite
def datasets(draw, values=finite):
    """A small valid dataset: genes on a few chromosomes, CpGs under them."""
    g = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3))
    chromosomes = draw(st.lists(st.sampled_from(["1", "2", "10", "X"]), min_size=g, max_size=g))
    parents = draw(st.lists(st.integers(0, g - 1), max_size=12))
    x = draw(st.lists(values, min_size=g * n, max_size=g * n))
    y = draw(st.lists(values, min_size=len(parents) * n, max_size=len(parents) * n))
    return make_dataset(np.reshape(x, (g, n)), parents, np.reshape(y, (len(parents), n)),
                        chromosomes=chromosomes)


@st.composite
def matrices(draw, cells):
    rows = draw(st.integers(0, 7))
    n = draw(st.integers(1, 5))
    return rows, n, draw(st.lists(cells, min_size=rows * n, max_size=rows * n))


@PROPERTY
@given(matrices(edge_floats), st.integers(1, 9))
def test_block_formatter_matches_the_scalar_rule_on_floats(matrix, block_cells):
    rows, n, cells = matrix
    values = np.array(cells, dtype=float).reshape(rows, n)
    with mock.patch.object(dataset, "FORMAT_BLOCK_CELLS", block_cells):
        got = list(_format_rows(values))
    assert got == ["\t".join(_format_number(v) for v in row) for row in values]


@PROPERTY
@given(matrices(st.integers(-(2**63), 2**63 - 1)), st.integers(1, 9))
def test_block_formatter_matches_the_scalar_rule_on_int64(matrix, block_cells):
    rows, n, cells = matrix
    values = np.array(cells, dtype=np.int64).reshape(rows, n)
    with mock.patch.object(dataset, "FORMAT_BLOCK_CELLS", block_cells):
        got = list(_format_rows(values))
    assert got == ["\t".join(_format_number(v) for v in row) for row in values]


@PROPERTY
@given(tables())
def test_expression_table_round_trip_is_exact(tmp_path_factory, table):
    ids, _, chromosomes, patients, values = table
    path = tmp_path_factory.mktemp("rt") / "expression.tsv"
    write_expression_table(path, ids, chromosomes, patients, values)
    read_patients, t = read_expression_table(path)
    assert read_patients == patients
    assert len(t) == len(ids)
    assert t["gene_id"].tolist() == ids
    assert t["chromosome"].tolist() == chromosomes
    assert np.array_equal(t.values, values)


@PROPERTY
@given(tables())
def test_methylation_table_round_trip_is_exact(tmp_path_factory, table):
    ids, gene_ids, chromosomes, patients, values = table
    path = tmp_path_factory.mktemp("rt") / "methylation.tsv"
    write_methylation_table(path, ids, gene_ids, chromosomes, patients, values)
    read_patients, t = read_methylation_table(path)
    assert read_patients == patients
    assert len(t) == len(ids)
    assert t["cpg_id"].tolist() == ids
    assert t["gene_id"].tolist() == gene_ids
    assert t["chromosome"].tolist() == chromosomes
    assert np.array_equal(t.values, values)


@PROPERTY
@given(tables(), st.data())
def test_a_value_beyond_the_bound_is_rejected_with_its_cell(tmp_path_factory, table, data):
    ids, _, chromosomes, patients, values = table
    if not len(ids):
        return
    row = data.draw(st.integers(0, len(ids) - 1))
    col = data.draw(st.integers(0, len(patients) - 1))
    values[row, col] = data.draw(unreadable)
    path = tmp_path_factory.mktemp("bound") / "expression.tsv"
    write_expression_table(path, ids, chromosomes, patients, values)
    with pytest.raises(FormatError) as exc:
        read_expression_table(path)
    first = np.flatnonzero(~(np.abs(values) <= MAX_ABS_VALUE))[0]
    line, column = divmod(int(first), len(patients))
    assert str(exc.value).startswith(f"{path}:{line + 2}:{column + 3}: ")
    assert str(exc.value).endswith(f" for patient {patients[column]!r}")


@PROPERTY
@given(datasets(readable), st.randoms(use_true_random=False))
def test_patient_column_order_does_not_change_the_data(tmp_path_factory, ds, rnd):
    out = tmp_path_factory.mktemp("perm")
    expr, meth, meth_perm = out / "e.tsv", out / "m.tsv", out / "m_perm.tsv"
    cpg_gene_ids = ds.gene_ids[ds.cpg_gene_idx]
    cpg_chroms = ds.chromosomes[ds.cpg_gene_idx]
    write_expression_table(expr, ds.gene_ids, ds.chromosomes, ds.patients, ds.x)
    write_methylation_table(meth, ds.cpg_ids, cpg_gene_ids, cpg_chroms, ds.patients, ds.y)
    order = list(range(ds.n_patients))
    rnd.shuffle(order)
    write_methylation_table(meth_perm, ds.cpg_ids, cpg_gene_ids, cpg_chroms,
                            [ds.patients[j] for j in order], ds.y[:, order])
    plain = load_paired_dataset(expr, meth)
    permuted = load_paired_dataset(expr, meth_perm)
    assert permuted.patients == plain.patients
    assert np.array_equal(permuted.x, plain.x)
    assert np.array_equal(permuted.y, plain.y)
    assert np.array_equal(permuted.cpg_gene_idx, plain.cpg_gene_idx)


@PROPERTY
@given(datasets())
def test_split_is_a_partition_that_keeps_cpgs_with_their_gene(ds):
    parts = split_by_chromosome(ds)
    assert [p.label for p in parts] == sorted(set(ds.chromosomes.tolist()))
    gene_rows = np.concatenate([p.genes for p in parts])
    cpg_rows = np.concatenate([p.cpgs for p in parts])
    assert sorted(gene_rows.tolist()) == list(range(ds.n_genes))
    assert sorted(cpg_rows.tolist()) == list(range(ds.n_cpgs))

    subs = [ds.subset(p.genes, p.cpgs) for p in parts]
    x = np.empty_like(ds.x)
    y = np.empty_like(ds.y)
    x[gene_rows] = np.concatenate([s.x for s in subs])
    y[cpg_rows] = np.concatenate([s.y for s in subs])
    assert np.array_equal(x, ds.x)
    assert np.array_equal(y, ds.y)
    for part, sub in zip(parts, subs):
        assert (sub.chromosomes == part.label).all()
        assert np.array_equal(sub.gene_ids[sub.cpg_gene_idx],
                              ds.gene_ids[ds.cpg_gene_idx[part.cpgs]])


@st.composite
def mixtures(draw):
    """A small dataset drawn from separated gene and CpG mixtures."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_mixture_dataset(rng, n_genes=draw(st.integers(9, 24)),
                                  n_patients=draw(st.integers(1, 4)),
                                  max_cpgs=draw(st.integers(1, 4)))


def assert_simplex_rows(p):
    assert ((0.0 <= p) & (p <= 1.0)).all()
    assert np.abs(p.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-12


@PROPERTY
@given(mixtures())
def test_posterior_rows_are_simplex_rows(ds):
    try:
        res = fit(ds)
    except FitError:
        pass
    else:
        assert_simplex_rows(res.gene.resp)
        assert_simplex_rows(res.cpg.resp)
    for values in (ds.x, ds.y):
        try:
            assert_simplex_rows(fit_independent(values).layer.resp)
        except FitError:
            pass


@PROPERTY
@given(mixtures(), st.lists(st.sampled_from(["1", "2", "X"]), min_size=24, max_size=24))
def test_thread_count_does_not_change_results(ds, labels):
    ds = make_dataset(ds.x, ds.cpg_gene_idx, ds.y, chromosomes=labels[: ds.n_genes])
    one, one_failed = fit_all_chromosomes(ds, threads=1)
    two, two_failed = fit_all_chromosomes(ds, threads=2)
    assert sorted(one) == sorted(two)
    assert {k: str(e) for k, e in one_failed.items()} == {k: str(e) for k, e in two_failed.items()}
    for label, res in one.items():
        other = two[label]
        assert np.array_equal(res.params.flatten(), other.params.flatten())
        assert np.array_equal(res.gene.resp, other.gene.resp)
        assert np.array_equal(res.cpg.resp, other.cpg.resp)
        assert res.n_outer_iters == other.n_outer_iters


def tied_order(means, want, got):
    """The column order of ``got`` closest to ``want``, moving only components whose means tie.

    A fit orders its components by ascending mean; two components that
    collapsed onto one mean come out in an order set by rounding, so
    only their order may differ between two row orders.
    """
    orders = [list(p) for p in itertools.permutations(range(len(means)))
              if np.abs(means[list(p)] - means).max() <= 1e-9]
    return min(orders, key=lambda p: np.abs(got[:, p] - want).max(initial=0.0))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(10, 39), st.integers(1, 4), st.randoms())
# two gene components collapse onto one mean, and this shuffle swaps their order
@example(1_169_271_180, 34, 1, random.Random(0))
def test_row_permutation_permutes_the_fit(seed, n_genes, n_patients, shuffler):
    ds = random_mixture_dataset(np.random.default_rng(seed), n_genes=n_genes,
                                n_patients=n_patients)
    genes = list(range(ds.n_genes))
    cpgs = list(range(ds.n_cpgs))
    shuffler.shuffle(genes)
    shuffler.shuffle(cpgs)
    permuted = make_dataset(ds.x[genes], np.argsort(genes)[ds.cpg_gene_idx[cpgs]], ds.y[cpgs])
    try:
        res = fit(ds, outer_tol=1e-12)
    except FitError:
        return
    other = fit(permuted, outer_tol=1e-12)
    for want, got, means, labels, got_labels in (
        (res.gene.resp[genes], other.gene.resp, res.params.mu, res.gene.map_labels[genes],
         other.gene.map_labels),
        (res.cpg.resp[cpgs], other.cpg.resp, res.params.lam, res.cpg.map_labels[cpgs],
         other.cpg.map_labels),
    ):
        order = tied_order(means, want, got)
        assert np.abs(got[:, order] - want).max() <= 1e-9
        assert np.array_equal(np.argsort(order)[got_labels - 1] + 1, labels)
