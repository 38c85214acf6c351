"""Property checks of the table I/O, the chromosome split and the fits."""

import itertools
import math
import random
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, random_mixture_dataset, scalar_lines
from oracle_utils import row_major_e_step, row_major_indep_e_step, row_major_scores
from jointmix import dataset
from jointmix.baseline import IndepParams, _e_step, fit_independent
from jointmix.dataset import (
    MAX_ABS_VALUE,
    _format_number,
    _render_rows,
    _write_tables,
    load_paired_dataset,
    read_expression_table,
    read_methylation_table,
    split_by_chromosome,
    write_expression_table,
    write_methylation_table,
)
from jointmix.errors import FitError, FormatError, NumericalError, ParameterError
from jointmix.joint_em import (
    JointParams,
    Responsibilities,
    _LayerBuffers,
    _gauss_row_scores,
    e_step_fixed_point,
    fit,
    fit_all_chromosomes,
)

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
# Where the block renderer's text changes: between orjson's digits and
# ``_format_number`` (1e-9, 1e-4, 1e16 and the zeros), where orjson's
# notation turns from exponent to fixed (1e-5) and ``repr``'s (1e-4),
# where every float is integral (2**53), and the smallest subnormal.
RENDER_CUTS = [1e-9, 1e-5, 1e-4, 2.0**53, 1e16, 0.0, 5e-324]
# Each cut point, of either sign, with its neighbours on either side.
render_edges = [float(v) for cut in RENDER_CUTS for point in (cut, -cut)
                for v in (np.nextafter(point, -math.inf), point, np.nextafter(point, math.inf))]
# Values whose text is easy to get wrong: the cuts above, and integral
# floats (up to 1e300) that are written without their ``.0``.
edge_finite = st.one_of(
    finite,
    st.sampled_from([*render_edges, 1e15, 1e300]),
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
def datasets(draw, values=finite, min_cpgs=0):
    """A small valid dataset: genes on a few chromosomes, CpGs under them."""
    g = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3))
    chromosomes = draw(st.lists(st.sampled_from(["1", "2", "10", "X"]), min_size=g, max_size=g))
    parents = draw(st.lists(st.integers(0, g - 1), min_size=min_cpgs, max_size=12))
    x = draw(st.lists(values, min_size=g * n, max_size=g * n))
    y = draw(st.lists(values, min_size=len(parents) * n, max_size=len(parents) * n))
    return make_dataset(np.reshape(x, (g, n)), parents, np.reshape(y, (len(parents), n)),
                        chromosomes=chromosomes)


@st.composite
def matrices(draw, cells):
    rows = draw(st.integers(0, 7))
    n = draw(st.integers(1, 5))
    return rows, n, draw(st.lists(cells, min_size=rows * n, max_size=rows * n))


def assert_no_data_rows(read, *paths):
    """``read(*paths)`` rejects the last path, a table with a header and no data lines."""
    with pytest.raises(FormatError) as exc:
        read(*paths)
    assert str(exc.value) == f"{paths[-1]}: no data rows"


def rendered_lines(columns, block_cells):
    """The data lines :func:`_write_tables` writes of ``columns`` in ranges of ``block_cells``.

    Checks that the file is its header line and then the rendered
    ranges in order, and that every range is non-empty, ends in a
    newline and holds no more rows than ``block_cells`` allows.
    """
    width = sum(np.shape(col)[1] if np.ndim(col) == 2 else 1 for col in columns)
    header = [f"c{j}" for j in range(width)]
    ranges = []

    def render(range_columns):
        ranges.append(_render_rows(range_columns))
        return ranges[-1]

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "FORMAT_BLOCK_CELLS", block_cells), \
            mock.patch.object(dataset, "_render_rows", render):
        path = Path(tmp) / "table.tsv"
        _write_tables([(path, header, columns)])
        text = path.read_bytes().decode("utf-8")
    assert text == "\t".join(header) + "\n" + "".join(ranges)
    assert all(0 < r.count("\n") <= max(1, block_cells // width) for r in ranges)
    assert all(r.endswith("\n") for r in ranges)
    return [line for r in ranges for line in r.split("\n")[:-1]]


@PROPERTY
@given(matrices(edge_floats), st.integers(1, 9))
def test_block_renderer_matches_the_scalar_rule_on_floats(matrix, block_cells):
    rows, n, cells = matrix
    values = np.array(cells, dtype=float).reshape(rows, n)
    assert rendered_lines([values], block_cells) == scalar_lines([values])


@PROPERTY
@given(matrices(st.integers(-(2**63), 2**63 - 1)), st.integers(1, 9))
def test_block_renderer_matches_the_scalar_rule_on_int64(matrix, block_cells):
    rows, n, cells = matrix
    values = np.array(cells, dtype=np.int64).reshape(rows, n)
    assert rendered_lines([values], block_cells) == scalar_lines([values])


# Text that a ``%`` template would misread if it were ever put into one.
string_cells = st.lists(
    st.sampled_from(["%", "%s", "%%", "%r", "%(x)s", "\\", "\\t", "é", "λ", "中", "a", " "]),
    max_size=4,
).map("".join)


@st.composite
def mixed_columns(draw):
    """String columns and float and int64 blocks of one length, in any order."""
    rows = draw(st.integers(0, 6))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["str", "float", "int64"]), min_size=1, max_size=5)):
        if kind == "str":
            col = draw(st.lists(string_cells, min_size=rows, max_size=rows))
            columns.append(np.array(col, dtype=str) if draw(st.booleans()) else col)
            continue
        n = draw(st.integers(1, 3))
        if kind == "float":
            cells = st.one_of(edge_floats, st.sampled_from([-0.0, 1e16, 1e22, math.nan, math.inf]))
        else:
            cells = st.integers(-(2**63), 2**63 - 1)
        values = draw(st.lists(cells, min_size=rows * n, max_size=rows * n))
        columns.append(np.array(values, dtype=float if kind == "float" else np.int64)
                       .reshape(rows, n))
    return columns


@PROPERTY
@given(mixed_columns(), st.integers(1, 9))
@example([[], np.zeros((0, 2)), np.zeros((0, 1), dtype=np.int64)], 1)
@example([["%s", "中%%"], np.array([[-0.0, 1e16], [1e22, math.inf]]), np.array(["\\", "%r"]),
          np.array([[2**63 - 1], [-(2**63)]], dtype=np.int64)], 2)
def test_block_renderer_matches_the_scalar_rule_on_mixed_columns(columns, block_cells):
    assert rendered_lines(columns, block_cells) == scalar_lines(columns)


def every_binade(rng, n, dtype):
    """``n`` floats of ``dtype`` from uniform bits of sign, exponent and mantissa.

    Every binade is as likely as any other, the subnormals, infinities
    and nans included.
    """
    info = np.finfo(dtype)
    uint = np.dtype(f"u{info.bits // 8}").type
    sign = rng.integers(0, 2, n).astype(uint) << uint(info.bits - 1)
    exponent = rng.integers(0, 2**info.nexp, n).astype(uint) << uint(info.nmant)
    return (sign | exponent | rng.integers(0, 2**info.nmant, n).astype(uint)).view(dtype)


def test_block_renderer_matches_the_scalar_rule_on_every_binade():
    rng = np.random.default_rng(27)
    dense = rng.standard_normal(40_000) * 10.0 ** rng.integers(-12, 18, 40_000)
    ints = rng.integers(-(2**63), 2**63 - 1, (50, 4), endpoint=True)
    blocks = [
        every_binade(rng, 210_000, np.float64).reshape(-1, 7),
        every_binade(rng, 21_000, np.float32).reshape(-1, 3),
        rng.integers(0, 2, (500, 4)).astype(bool),
        # mostly cells orjson writes, integral and not
        dense.reshape(-1, 8),
        np.trunc(dense).reshape(-1, 5),
        # layouts and byte orders the dump cannot take as they are, and other widths
        dense[:4000].reshape(-1, 8).T,
        dense[:4000].reshape(-1, 8)[::3, 1::2],
        dense[:4000].reshape(-1, 8).astype(">f8"),
        ints.astype(">i8"),
        ints.view(np.uint64),
        ints.astype(np.int8),
        np.array(render_edges).reshape(-1, 6),
        np.array(render_edges).reshape(-1, 1),
        np.zeros((3, 0)),
    ]
    for block in blocks:
        want = "".join(line + "\n" for line in scalar_lines([block]))
        assert _render_rows([block]) == want, block.dtype


@PROPERTY
@given(tables())
def test_expression_table_round_trip_is_exact(tmp_path_factory, table):
    ids, _, chromosomes, patients, values = table
    path = tmp_path_factory.mktemp("rt") / "expression.tsv"
    write_expression_table(path, ids, chromosomes, patients, values)
    if not ids:
        assert_no_data_rows(read_expression_table, path)
        return
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
    if not ids:
        assert_no_data_rows(read_methylation_table, path)
        return
    read_patients, t = read_methylation_table(path)
    assert read_patients == patients
    assert len(t) == len(ids)
    assert t["cpg_id"].tolist() == ids
    assert t["gene_id"].tolist() == gene_ids
    assert t["chromosome"].tolist() == chromosomes
    assert np.array_equal(t.values, values)


# ids the parse keeps as they are: spaces, quotes, "#" and characters of 2 and 3 UTF-8 bytes
twin_ids = st.text(" ab1#\"é中", min_size=1, max_size=4)


@PROPERTY
@given(st.data(), st.booleans())
def test_a_table_read_through_its_twin_is_the_parsed_table(tmp_path_factory, data, methylation):
    rows, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    fixed = 3 if methylation else 2
    columns = [data.draw(st.lists(twin_ids, min_size=rows, max_size=rows, unique=True))]
    columns += [data.draw(st.lists(twin_ids, min_size=rows, max_size=rows))
                for _ in range(fixed - 1)]
    patients = data.draw(st.lists(twin_ids, min_size=n, max_size=n, unique=True))
    values = np.array(data.draw(st.lists(readable, min_size=rows * n, max_size=rows * n)),
                      dtype=float).reshape(rows, n)
    path = tmp_path_factory.mktemp("twin") / "table.tsv"
    write, read = ((write_methylation_table, read_methylation_table) if methylation
                   else (write_expression_table, read_expression_table))
    write(path, *columns, patients, values)
    dataset._write_twin(path, patients, columns, values)
    with mock.patch.object(dataset, "_load_rows", side_effect=AssertionError("parsed")):
        twin_patients, twin = read(path)
    dataset._twin_path(path).unlink()
    want_patients, want = read(path)
    assert twin_patients == want_patients == patients
    assert twin.path == want.path == path
    assert list(twin.columns) == list(want.columns)
    for name, col in want.columns.items():
        assert twin[name].dtype == col.dtype and twin[name].tolist() == col.tolist()
    assert twin.values.dtype == want.values.dtype and twin.values.shape == want.values.shape
    assert twin.values.tobytes() == want.values.tobytes()


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
@given(datasets(readable, min_cpgs=1), st.randoms(use_true_random=False))
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


def _outcome(step):
    """``step()``'s result, or the entity its NumericalError names; a score may overflow."""
    try:
        with np.errstate(over="ignore"):
            return step()
    except NumericalError as exc:
        return exc.entity


def _mixture_values(rng, m, n, means, scale, broken):
    """(m, n) values around ``means``; the rows in ``broken`` overflow every score to -inf."""
    values = rng.choice(means, m)[:, np.newaxis] + rng.normal(0.0, scale, (m, n))
    values[broken] = 1e200
    return values


# (gap between component means, variance). Means close together keep every
# component of a row in its sum; far apart with a small variance, the
# scores of a row differ by thousands, so that exp underflows to
# subnormals and zeros.
spreads = st.sampled_from([(0.01, 1.0), (1.0, 1.0), (30.0, 0.05), (300.0, 1e-3)])


@settings(max_examples=60, derandomize=True, deadline=None)
# one gene cluster: the genes settle at once while the CpGs still move
@example(K=1, L=3, N=2, G=3, seed=0, spread=(1.0, 1.0), broken="none", inner_max=4,
         inner_tol=1e-3)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(1, 12),
       st.integers(0, 2**32 - 1), spreads, st.sampled_from(["none", "gene", "cpg"]),
       st.integers(1, 8), st.sampled_from([0.0, 1e-6, 1e-3, 0.05]))
def test_the_e_step_is_bit_equal_to_the_row_major_e_step(K, L, N, G, seed, spread, broken,
                                                         inner_max, inner_tol):
    rng = np.random.default_rng(seed)
    gap, var = spread
    parents = rng.integers(0, G, rng.integers(0, 3 * G + 1))
    C = len(parents)
    bad_genes = rng.integers(0, G, 2) if broken == "gene" else []
    bad_cpgs = rng.integers(0, C, 2) if broken == "cpg" and C else []
    gene_means, cpg_means = gap * rng.normal(size=K), gap * rng.normal(size=L)
    ds = make_dataset(_mixture_values(rng, G, N, gene_means, np.sqrt(var), bad_genes), parents,
                      _mixture_values(rng, C, N, cpg_means, np.sqrt(var), bad_cpgs))
    pi = rng.dirichlet(np.ones(L), K).T
    pi[rng.random(pi.shape) < 0.2] = 0.0  # log clipped to about -690
    params = JointParams(rng.dirichlet(np.ones(K)), pi, gene_means, var, cpg_means, var)
    u0, v0 = rng.dirichlet(np.ones(K), G), rng.dirichlet(np.ones(L), C)

    def component_major():
        res = e_step_fixed_point(ds, params, Responsibilities(u0, v0), inner_tol, inner_max)
        return res.u_hat, res.v_hat, res.n_sweeps

    got = _outcome(component_major)
    want = _outcome(lambda: row_major_e_step(ds, params, u0, v0, inner_tol, inner_max))
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# decimal exponents of the values and means: from subnormal to beyond 1e154,
# where z**2 overflows to inf; or all subnormal, so that z is too
exponents = st.sampled_from([(-320, 200), (-323, -307)])


@settings(max_examples=60, derandomize=True, deadline=None)
@example(N=45, K=9, M=3, seed=0, exponent=(-323, -307), var=1.0)
@given(st.integers(1, 45), st.integers(1, 9), st.integers(1, 60), st.integers(0, 2**32 - 1),
       exponents, st.sampled_from([1e-300, 1e-8, 0.37, 1.0, 123.4, 1e300]))
def test_the_score_kernel_gives_the_same_bits_on_column_major_values(N, K, M, seed, exponent,
                                                                      var):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(M, N)) * 10.0 ** rng.integers(*exponent, (M, N))
    means = rng.normal(size=K) * 10.0 ** rng.integers(*exponent, K)
    values[rng.random((M, N)) < 0.1] = means[0]  # z = 0
    with np.errstate(all="ignore"):
        want = row_major_scores(values, means, var).T
        by_rows = _gauss_row_scores(values, means, var)
        by_columns = _gauss_row_scores(np.asfortranarray(values), means, var)
    assert np.array_equal(by_columns.view(np.int64), by_rows.view(np.int64))
    assert np.array_equal(by_columns.view(np.int64), want.view(np.int64))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 40), st.integers(0, 2**32 - 1),
       spreads, st.booleans())
def test_the_baseline_e_step_is_bit_equal_to_the_row_major_e_step(K, N, M, seed, spread, broken):
    rng = np.random.default_rng(seed)
    gap, var = spread
    means = gap * rng.normal(size=K)
    values = _mixture_values(rng, M, N, means, np.sqrt(var), rng.integers(0, M, 2) if broken else [])
    params = IndepParams(rng.dirichlet(np.ones(K)), means, var)
    got = _outcome(lambda: _e_step(values, params, _LayerBuffers(values, K)))
    want = _outcome(lambda: row_major_indep_e_step(values, params.weights, means, var))
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert np.array_equal(got, want)


@PROPERTY
@given(st.sampled_from(["x", "y"]), st.integers(0, 10**6), st.integers(0, 10**6),
       st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1.5e100, 2e200]))
def test_a_corrupt_value_is_a_parameter_error_of_both_fits(matrix, i, j, value):
    ds = random_mixture_dataset(np.random.default_rng(11), n_genes=12, n_patients=3)
    values, ids, what = (ds.x, ds.gene_ids, "gene") if matrix == "x" else (ds.y, ds.cpg_ids, "CpG")
    row, col = i % len(values), j % ds.n_patients
    values[row, col] = value
    where = f"for {what} {str(ids[row])!r}, patient {ds.patients[col]!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f" {re.escape(where)}$"):
            fit(ds)
        with pytest.raises(ParameterError, match=f" in row {row}, column {col}$"):
            fit_independent(values)


@PROPERTY
@given(st.integers(0, 10**6), st.sampled_from([-1, -12, 12, 40]))
def test_a_parent_index_outside_the_genes_is_a_parameter_error(i, parent):
    ds = random_mixture_dataset(np.random.default_rng(11), n_genes=12, n_patients=3)
    c = i % ds.n_cpgs
    ds.cpg_gene_idx[c] = parent
    message = f"CpG {str(ds.cpg_ids[c])!r} has gene row {parent}, outside [0, 12)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            fit(ds)
