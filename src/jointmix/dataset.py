"""Paired gene/CpG tables and their nested mapping, held as arrays.

A dataset couples a gene-level matrix ``x`` (one row per gene, one
column per patient) with a CpG-level matrix ``y`` whose rows each
belong to exactly one gene: row j of ``y`` is a CpG of gene
``cpg_gene_idx[j]``. Gene ids and chromosome labels run along the rows
of ``x``, CpG ids along the rows of ``y``; a CpG's gene id and
chromosome are those of its parent gene. Values may be raw
(counts / beta values) or model-ready (log-fold changes / M-value
differences); this module only cares about the structure, not the
scale.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DuplicateIdError, FormatError, MappingError

logger = logging.getLogger(__name__)

EXPRESSION_FIXED_COLUMNS = ("gene_id", "chromosome")
METHYLATION_FIXED_COLUMNS = ("cpg_id", "gene_id", "chromosome")


@dataclass
class Table:
    """One parsed TSV: its fixed annotation columns and its value matrix.

    ``columns`` maps each fixed column name, in file order, to a string
    array with one entry per row; ``values`` has shape (rows, patients).
    The first column is the row identifier.
    """

    columns: dict[str, np.ndarray]
    values: np.ndarray

    def __post_init__(self):
        self.columns = {name: np.asarray(col, dtype=str) for name, col in self.columns.items()}
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, name) -> np.ndarray:
        return self.columns[name]

    @property
    def ids(self) -> np.ndarray:
        return next(iter(self.columns.values()))


@dataclass
class PairedDataset:
    """Aligned gene and CpG tables in columnar form.

    ``gene_ids``, ``chromosomes`` and the rows of ``x`` (G, N) describe
    the genes; ``cpg_ids``, ``cpg_gene_idx`` and the rows of ``y`` (C, N)
    describe the CpGs, ``cpg_gene_idx[j]`` being the row of CpG j's
    gene. Instances are treated as read-only after construction and are
    safe to share across threads.
    """

    patients: list[str]
    gene_ids: np.ndarray
    chromosomes: np.ndarray
    x: np.ndarray
    cpg_ids: np.ndarray
    cpg_gene_idx: np.ndarray
    y: np.ndarray

    @property
    def n_genes(self) -> int:
        return len(self.gene_ids)

    @property
    def n_cpgs(self) -> int:
        return len(self.cpg_ids)

    @property
    def n_patients(self) -> int:
        return len(self.patients)

    @cached_property
    def cpg_counts(self) -> np.ndarray:
        """Number of CpGs per gene (C_g), length G."""
        return np.bincount(self.cpg_gene_idx, minlength=self.n_genes)

    def gene_cpg_indices(self, gene_index: int) -> np.ndarray:
        return np.flatnonzero(self.cpg_gene_idx == gene_index)

    def subset(self, gene_rows, cpg_rows) -> "PairedDataset":
        """The given rows, not validated again.

        ``gene_rows`` must ascend and hold the parent of every CpG in
        ``cpg_rows``.
        """
        return PairedDataset(
            patients=self.patients,
            gene_ids=self.gene_ids[gene_rows],
            chromosomes=self.chromosomes[gene_rows],
            x=self.x[gene_rows],
            cpg_ids=self.cpg_ids[cpg_rows],
            cpg_gene_idx=np.searchsorted(gene_rows, self.cpg_gene_idx[cpg_rows]),
            y=self.y[cpg_rows],
        )


def require_unique(ids, what) -> None:
    """Raise :class:`DuplicateIdError` naming the first repeated id."""
    ids = np.asarray(ids).tolist()
    if len(set(ids)) == len(ids):
        return
    seen = set()
    for i in ids:
        if i in seen:
            raise DuplicateIdError(f"duplicate {what} {i!r}")
        seen.add(i)


def resolve_cpg_parents(genes: Table, cpgs: Table, mode="strict"):
    """Match each CpG to its parent gene under the strict/lenient policy.

    A CpG whose gene_id names no gene, or whose chromosome differs from
    its gene's, raises :class:`MappingError` in ``strict`` mode and is
    dropped with a warning in ``lenient`` mode. Returns ``(kept,
    parents)``: the kept CpG rows and, for each, its gene's row.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown mode {mode!r}")
    row_of = {gid: i for i, gid in enumerate(genes["gene_id"].tolist())}
    parents = np.array([row_of.get(g, -1) for g in cpgs["gene_id"].tolist()], dtype=np.intp)
    ok = parents >= 0
    ok[ok] = genes["chromosome"][parents[ok]] == cpgs["chromosome"][ok]
    for j in np.flatnonzero(~ok):
        cpg_id, gene_id, chrom = (str(cpgs[c][j]) for c in METHYLATION_FIXED_COLUMNS)
        if parents[j] < 0:
            problem = f"CpG {cpg_id!r} references unknown gene_id {gene_id!r}"
        else:
            problem = (
                f"CpG {cpg_id!r} on chromosome {chrom!r} but its gene "
                f"{gene_id!r} is on {str(genes['chromosome'][parents[j]])!r}"
            )
        if mode == "strict":
            raise MappingError(problem)
        logger.warning("%s; dropping it (lenient mode)", problem)
    kept = np.flatnonzero(ok)
    return kept, parents[kept]


def build_paired_dataset(genes: Table, cpgs: Table, patients, mode="strict") -> PairedDataset:
    """Validate a gene table and a CpG table and pair them.

    Ids must be unique within each table and every table must have one
    value column per patient. ``mode`` is the CpG→gene policy of
    :func:`resolve_cpg_parents`.
    """
    n = len(patients)
    if n < 1:
        raise FormatError("dataset must have at least one patient column")
    if not len(genes):
        raise FormatError("dataset must have at least one gene row")
    for table, what in ((genes, "gene"), (cpgs, "CpG")):
        width = table.values.shape[1]
        if width != n:
            raise FormatError(f"{what} table has {width} value columns, expected {n}")
    require_unique(genes["gene_id"], "gene_id")
    require_unique(cpgs["cpg_id"], "cpg_id")
    kept, parents = resolve_cpg_parents(genes, cpgs, mode)
    return PairedDataset(
        patients=list(patients),
        gene_ids=genes["gene_id"],
        chromosomes=genes["chromosome"],
        x=np.ascontiguousarray(genes.values),
        cpg_ids=cpgs["cpg_id"][kept],
        cpg_gene_idx=parents,
        y=np.ascontiguousarray(cpgs.values[kept]),
    )


@contextlib.contextmanager
def _open_text(path):
    """``path`` opened as UTF-8 text; a byte that does not decode is a FormatError.

    The message names the first line that does not decode, found by
    reading the file again as bytes and splitting it at the line ends
    text mode uses (LF, CRLF and CR), so it agrees with the line numbers
    of every other message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                lines = raw.read().splitlines()
            for lineno, line in enumerate(lines, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(
                        f"{path}:{lineno}: not UTF-8 text (byte {line[exc.start]:#04x})"
                    ) from None
            raise


def _parse_table(path, fixed_columns) -> tuple[list[str], Table]:
    """Parse a TSV with fixed leading columns followed by patient columns.

    One streaming pass checks the header and each line's column count
    and keeps the fixed columns; blank lines are skipped and do not shift
    the line numbers in messages. The values are then read by numpy's C
    ``loadtxt``, which parses each number with the same routine as
    ``float()`` (so the arrays are bit for bit the same) without a Python
    call per value. It accepts decimal and exponent notation, ``inf`` and
    ``nan`` in any case, a leading sign and surrounding whitespace;
    unlike ``float()`` it rejects ``_`` between digits and non-ASCII
    digits. Non-finite values are then rejected with their column.
    """
    path = Path(path)
    k = len(fixed_columns)
    with _open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header:
            raise FormatError(f"{path}: empty file")
        cols = header.split("\t")
        if tuple(cols[:k]) != tuple(fixed_columns):
            raise FormatError(
                f"{path}: header must start with {list(fixed_columns)}, got {cols[:k]}"
            )
        patients = cols[k:]
        if not patients:
            raise FormatError(f"{path}: no patient columns in header")
        if len(set(patients)) != len(patients):
            raise FormatError(f"{path}: duplicate patient column names")
        width = len(cols)
        fixed, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            n_cols = line.count("\t") + 1
            if n_cols != width:
                raise FormatError(f"{path}:{lineno}: expected {width} columns, got {n_cols}")
            fixed.append(line.split("\t", k)[:k])
            linenos.append(lineno)
    if not linenos:
        values = np.empty((0, len(patients)))
    else:
        try:
            values = _read_values(path, k, width, skiprows=1)
        except ValueError as exc:
            found = _first_unparsable_value(path, k, width)
            if found is None:
                raise FormatError(f"{path}: non-numeric value ({exc})") from None
            lineno, col, text = found
            raise FormatError(
                f"{path}:{lineno}:{col + 1}: non-numeric value {text!r} "
                f"for patient {patients[col - k]!r}"
            ) from None
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        row, col = divmod(int(bad[0]), len(patients))
        raise FormatError(
            f"{path}:{linenos[row]}:{k + col + 1}: non-finite value "
            f"{float(values[row, col])!r} for patient {patients[col]!r}"
        )
    annotations = np.array(fixed, dtype=str).reshape(-1, k)
    return patients, Table(dict(zip(fixed_columns, annotations.T)), values)


def _read_values(source, k, width, skiprows) -> np.ndarray:
    """Columns ``k:width`` of a tab-separated file or list of lines, as floats."""
    return np.loadtxt(
        source, delimiter="\t", skiprows=skiprows, usecols=range(k, width), dtype=float,
        ndmin=2, encoding="utf-8", comments=None,
    )


def _first_unparsable_value(path, k, width):
    """``(line number, column, text)`` of the first value ``loadtxt`` rejects.

    Each data line is parsed alone, then each column of the first line
    that fails, so the check is the reader's own; ``None`` if every line
    parses alone.
    """
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for lineno, line in enumerate(fh, start=2):
            if not line.rstrip("\n"):
                continue
            try:
                _read_values([line], k, width, skiprows=0)
            except ValueError:
                for col in range(k, width):
                    try:
                        _read_values([line], col, col + 1, skiprows=0)
                    except ValueError:
                        return lineno, col, line.rstrip("\n").split("\t")[col]
    return None


def read_expression_table(path) -> tuple[list[str], Table]:
    """Read an expression TSV: gene_id, chromosome, then patient columns."""
    return _parse_table(path, EXPRESSION_FIXED_COLUMNS)


def read_methylation_table(path) -> tuple[list[str], Table]:
    """Read a methylation TSV: cpg_id, gene_id, chromosome, then patients."""
    return _parse_table(path, METHYLATION_FIXED_COLUMNS)


def load_paired_dataset(expression_path, methylation_path, mode="strict") -> PairedDataset:
    """Load and pair the two tables, aligning patients by header name.

    Patient columns are matched by name, not position; the methylation
    columns are reordered to the expression order. Disjoint or unequal
    header sets are a format error.
    """
    expr_patients, genes = read_expression_table(expression_path)
    meth_patients, cpgs = read_methylation_table(methylation_path)
    if set(expr_patients) != set(meth_patients):
        missing = sorted(set(expr_patients) ^ set(meth_patients))
        raise FormatError(
            f"patient columns differ between {expression_path} and {methylation_path}: {missing}"
        )
    if meth_patients != expr_patients:
        order = [meth_patients.index(p) for p in expr_patients]
        cpgs = Table(cpgs.columns, cpgs.values[:, order])
    return build_paired_dataset(genes, cpgs, expr_patients, mode=mode)


class ChromosomeRows(NamedTuple):
    """One chromosome's gene rows and CpG rows in the parent dataset."""

    label: str
    genes: np.ndarray
    cpgs: np.ndarray


def split_by_chromosome(ds: PairedDataset) -> list[ChromosomeRows]:
    """Partition the rows by chromosome, each CpG going with its gene.

    Chromosomes come in sorted label order; the row indices of each
    ascend, so ``ds.subset(part.genes, part.cpgs)`` keeps input order.
    Together the parts hold every gene row and every CpG row once.
    """
    labels, gene_chrom = np.unique(ds.chromosomes, return_inverse=True)
    cpg_chrom = gene_chrom[ds.cpg_gene_idx]
    return [
        ChromosomeRows(label, np.flatnonzero(gene_chrom == i), np.flatnonzero(cpg_chrom == i))
        for i, label in enumerate(labels.tolist())
    ]


def _format_number(v) -> str:
    """Shortest round-trip text of a number; integral floats lose the ``.0``."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if f.is_integer():
        return str(int(f))
    return repr(f)


# Cells converted to text per block: bounds the temporaries of a write.
FORMAT_BLOCK_CELLS = 1 << 16


def _format_rows(values):
    """Yield each row of a 2-D array as tab-joined text, by :func:`_format_number`'s rules.

    Rows are converted a block of about ``FORMAT_BLOCK_CELLS`` cells at a
    time, with one ``str``/``repr`` per cell and no per-cell Python call
    of our own, so memory does not grow with the table.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        values = values.astype(float, copy=False)
    step = max(1, FORMAT_BLOCK_CELLS // max(1, values.shape[1]))
    for start in range(0, len(values), step):
        block = values[start : start + step]
        if block.dtype.kind == "f":
            integral = np.isfinite(block) & (np.trunc(block) == block)
            if integral.any():
                block = block.astype(object)
                block[integral] = [int(v) for v in block[integral].tolist()]
        for row in block.tolist():
            yield "\t".join(map(str, row))


def _write_table(path, fixed_columns, annotations, patients, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join([*fixed_columns, *patients]) + "\n")
        fh.writelines(
            "\t".join([*ann, text]) + "\n"
            for ann, text in zip(zip(*annotations, strict=True), _format_rows(values), strict=True)
        )


def write_expression_table(path, gene_ids, chromosomes, patients, values) -> None:
    """Write an expression TSV; float values use shortest round-trip form."""
    _write_table(path, EXPRESSION_FIXED_COLUMNS, (gene_ids, chromosomes), patients, values)


def write_methylation_table(path, cpg_ids, gene_ids, chromosomes, patients, values) -> None:
    """Write a methylation TSV; float values use shortest round-trip form."""
    _write_table(
        path, METHYLATION_FIXED_COLUMNS, (cpg_ids, gene_ids, chromosomes), patients, values
    )
