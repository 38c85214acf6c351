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
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DuplicateIdError, FormatError, MappingError

logger = logging.getLogger(__name__)

EXPRESSION_FIXED_COLUMNS = ("gene_id", "chromosome")
METHYLATION_FIXED_COLUMNS = ("cpg_id", "gene_id", "chromosome")
# Largest magnitude of a table value: the fits square values and sum the
# squares, which must stay finite.
MAX_ABS_VALUE = 1e100


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

    Every table must have one value column per patient; repeated ids are
    left to the table readers. ``mode`` is the CpG→gene policy of :func:`resolve_cpg_parents`.
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

    The message names the line of the first such byte, counting the line
    ends text mode uses (LF, CRLF and CR), so it agrees with the line
    numbers of every other message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = len((raw[: exc.start] + b".").splitlines())
                raise FormatError(
                    f"{path}:{lineno}: not UTF-8 text (byte {raw[exc.start]:#04x})"
                ) from None
            raise


def _read_tsv(path, check_header) -> tuple[list[str], list[int], list[tuple[str, ...]]]:
    """The header cells, data line numbers and data rows of a TSV.

    ``check_header(cells)`` raises a :class:`FormatError` for a header it
    rejects, else returns the indices (two or more) of the cells each row
    keeps, as a tuple; a line is split no further than the last of them.
    Blank lines are skipped but counted, the header being line 1; a line
    with another cell count than the header's is a FormatError.
    """
    with _open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header:
            raise FormatError(f"{path}: empty file")
        cells = header.split("\t")
        columns = check_header(cells)
        keep, last, width = itemgetter(*columns), max(columns) + 1, len(cells)
        linenos, rows = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            n_cols = line.count("\t") + 1
            if n_cols != width:
                raise FormatError(f"{path}:{lineno}: expected {width} columns, got {n_cols}")
            rows.append(keep(line.split("\t", last)))
            linenos.append(lineno)
    return cells, linenos, rows


def _require_unique(path, numbered_ids, what) -> None:
    """An id repeated among ``(line number, id)`` pairs is a DuplicateIdError naming its line."""
    seen = set()
    for lineno, i in numbered_ids:
        if i in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate {what} {i!r}")
        seen.add(i)


def _parse_table(path, fixed_columns) -> tuple[list[str], Table]:
    """Parse a TSV with fixed leading columns followed by patient columns.

    :func:`_read_tsv` checks the lines and keeps the fixed columns, whose
    first column, the row id, must not repeat. The values are then read
    by numpy's C ``loadtxt``, which parses each number with the same
    routine as ``float()`` (so the arrays are bit for bit the same)
    without a Python call per value. It accepts decimal and exponent
    notation, ``inf`` and ``nan`` in any case, a leading sign and
    surrounding whitespace; unlike ``float()`` it rejects ``_`` between
    digits and non-ASCII digits. Values that are not finite or exceed
    ``MAX_ABS_VALUE`` in magnitude are then rejected with their column.
    """
    k = len(fixed_columns)

    def check_header(cols):
        if tuple(cols[:k]) != tuple(fixed_columns):
            raise FormatError(
                f"{path}: header must start with {list(fixed_columns)}, got {cols[:k]}"
            )
        if len(cols) == k:
            raise FormatError(f"{path}: no patient columns in header")
        if len(set(cols[k:])) != len(cols) - k:
            raise FormatError(f"{path}: duplicate patient column names")
        return range(k)

    cols, linenos, fixed = _read_tsv(path, check_header)
    patients, width = cols[k:], len(cols)
    _require_unique(path, zip(linenos, [row[0] for row in fixed]), fixed_columns[0])
    if not linenos:
        values = np.empty((0, len(patients)))
    else:
        try:
            values = _read_values(path, k, width, skiprows=1)
        except ValueError as exc:
            _raise_unparsable(path, k, patients, exc)
    # max and min allocate nothing; a nan makes both comparisons fail
    if not (values.max(initial=-np.inf) <= MAX_ABS_VALUE
            and values.min(initial=np.inf) >= -MAX_ABS_VALUE):
        bad = int(np.flatnonzero(~(np.abs(values) <= MAX_ABS_VALUE))[0])
        row, col = divmod(bad, len(patients))
        v = float(values[row, col])
        what = (f"non-finite value {v!r}" if not np.isfinite(v)
                else f"value {v!r} outside [-{MAX_ABS_VALUE:g}, {MAX_ABS_VALUE:g}]")
        raise FormatError(
            f"{path}:{linenos[row]}:{k + col + 1}: {what} for patient {patients[col]!r}"
        )
    annotations = np.array(fixed, dtype=str).reshape(-1, k)
    return patients, Table(dict(zip(fixed_columns, annotations.T)), values)


def _read_values(source, k, width, skiprows) -> np.ndarray:
    """Columns ``k:width`` of a tab-separated file or list of lines, as floats."""
    return np.loadtxt(
        source, delimiter="\t", skiprows=skiprows, usecols=range(k, width), dtype=float,
        ndmin=2, encoding="utf-8", comments=None,
    )


def _raise_unparsable(path, k, patients, exc):
    """Raise the :class:`FormatError` for the first value ``loadtxt`` rejects.

    Each data line is parsed alone, then each column of the first line that
    fails, so the check is the reader's own; ``exc`` is named if none fails.
    """
    _, linenos, rows = _read_tsv(path, lambda cells: range(len(cells)))
    for lineno, row in zip(linenos, rows):
        line = "\t".join(row)
        try:
            _read_values([line], k, len(row), skiprows=0)
        except ValueError:
            for col in range(k, len(row)):
                try:
                    _read_values([line], col, col + 1, skiprows=0)
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}:{col + 1}: non-numeric value {row[col]!r} "
                        f"for patient {patients[col - k]!r}"
                    ) from None
    raise FormatError(f"{path}: non-numeric value ({exc})") from None


def read_expression_table(path) -> tuple[list[str], Table]:
    """Read an expression TSV: gene_id, chromosome, then patient columns."""
    return _parse_table(path, EXPRESSION_FIXED_COLUMNS)


def read_methylation_table(path) -> tuple[list[str], Table]:
    """Read a methylation TSV: cpg_id, gene_id, chromosome, then patients."""
    return _parse_table(path, METHYLATION_FIXED_COLUMNS)


def align_patients(path_a, patients_a, path_b, patients_b) -> list[int]:
    """The column order that puts ``patients_b`` in the order of ``patients_a``.

    Other patient sets are a FormatError naming both paths and the patients that differ.
    """
    differ = sorted(set(patients_a) ^ set(patients_b))
    if differ:
        raise FormatError(f"patient columns differ between {path_a} and {path_b}: {differ}")
    return [patients_b.index(p) for p in patients_a]


def read_truth_table(path) -> dict[str, dict[str, str]]:
    """``truth.tsv`` (entity_id, layer, label) as ``{layer: {id: label}}``, layer gene or cpg."""
    def check_header(cells):
        if cells != ["entity_id", "layer", "label"]:
            raise FormatError(f"{path}: expected header entity_id/layer/label")
        return 0, 1, 2

    _, linenos, rows = _read_tsv(path, check_header)
    truth: dict[str, dict[str, str]] = {"gene": {}, "cpg": {}}
    for lineno, (entity, layer, label) in zip(linenos, rows):
        if layer not in truth:
            raise FormatError(f"{path}:{lineno}: unknown layer {layer!r}")
        truth[layer][entity] = label
    if sum(map(len, truth.values())) < len(rows):  # an id repeats within a layer
        for layer in truth:
            mine = ((n, entity) for n, (entity, of, _) in zip(linenos, rows) if of == layer)
            _require_unique(path, mine, f"{layer} id")
    return truth


def read_predicted_labels(path, layer) -> tuple[list[int], list[tuple[str, str]]]:
    """Line numbers and ``(id, map_label)`` rows of a ``gene`` or ``cpg`` layer results table."""
    id_col = "gene_id" if layer == "gene" else "cpg_id"

    def check_header(cells):
        for col in (id_col, "map_label"):
            if col not in cells:
                raise FormatError(f"{path}: missing column {col!r}")
        return cells.index(id_col), cells.index("map_label")

    _, linenos, pairs = _read_tsv(path, check_header)
    _require_unique(path, zip(linenos, [i for i, _ in pairs]), id_col)
    return linenos, pairs


def load_paired_dataset(expression_path, methylation_path, mode="strict") -> PairedDataset:
    """Load and pair the two tables, aligning patients by header name.

    Patient columns are matched by name, not position, with
    :func:`align_patients`; the methylation columns take the expression order.
    """
    expr_patients, genes = read_expression_table(expression_path)
    if not len(genes):
        raise FormatError(f"{expression_path}: no data rows")
    meth_patients, cpgs = read_methylation_table(methylation_path)
    order = align_patients(expression_path, expr_patients, methylation_path, meth_patients)
    if meth_patients != expr_patients:
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
