"""Paired gene/CpG tables and their nested mapping, held as arrays.

A dataset couples a gene-level matrix ``x`` (one row per gene, one
column per patient) with a CpG-level matrix ``y`` whose rows each
belong to exactly one gene: row j of ``y`` is a CpG of gene
``cpg_gene_idx[j]``. Gene ids and chromosome labels run along the rows
of ``x``, CpG ids along the rows of ``y``; a CpG's gene id and
chromosome are those of its parent gene. Values may be raw
(counts / beta values) or model-ready (log-fold changes / M-value
differences): only their structure matters here. Every output file
is written here too, a TSV by :func:`_write_tables` on the pool of
:func:`_each` and a JSON file by :func:`write_json`, each making its
file's directory if it is missing. A TSV's numbers
are written a block at a time by ``orjson`` (:func:`_block_lines`),
to the rule :func:`_format_number` gives for one number. A table may
have a binary twin (:func:`_write_twin`), which its reader takes in
place of parsing the TSV again when the twin records the TSV's sha256.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import logging
import os
import signal
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

from .errors import DuplicateIdError, FormatError, MappingError, ParameterError

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
    The first column is the row identifier. ``path`` is the file the
    table was read from, None for a table built in memory.
    """

    columns: dict[str, np.ndarray]
    values: np.ndarray
    path: str | Path | None = None

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

    def locate(self, problem, row, col=None) -> str:
        """``problem`` prefixed by the ``path:line`` of data row ``row``, bare if built in memory.

        A 0-based value column ``col`` adds its file column. The reader
        keeps no line numbers, so the line loop of :func:`_read_tsv`
        counts them here, for a message only.
        """
        if self.path is None:
            return problem
        _, linenos, _ = _read_tsv(self.path, (0, 1))
        where = f"{self.path}:{linenos[row]}"
        if col is not None:
            where += f":{len(self.columns) + col + 1}"
        return f"{where}: {problem}"


@dataclass
class PairedDataset:
    """Aligned gene and CpG tables in columnar form.

    ``gene_ids``, ``chromosomes`` and the rows of ``x`` (G, N) describe
    the genes; ``cpg_ids``, ``cpg_gene_idx`` and the rows of ``y`` (C, N)
    describe the CpGs, ``cpg_gene_idx[j]`` being the row of CpG j's
    gene. Instances are treated as read-only after construction, so
    forked worker processes read the parent's copy.
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
        """The given rows, not validated again; ``x`` and ``y`` are taken by :func:`gather`.

        ``gene_rows`` must ascend and hold the parent of every CpG in
        ``cpg_rows``. A subset of every row in order holds ``x`` and
        ``y`` themselves, if they are C-contiguous, not copies.
        """
        return PairedDataset(
            patients=self.patients,
            gene_ids=self.gene_ids[gene_rows],
            chromosomes=self.chromosomes[gene_rows],
            x=gather(self.x, gene_rows),
            cpg_ids=self.cpg_ids[cpg_rows],
            cpg_gene_idx=np.searchsorted(gene_rows, self.cpg_gene_idx[cpg_rows]),
            y=gather(self.y, cpg_rows),
        )


def gather(values, rows=None, cols=None) -> np.ndarray:
    """``values[np.ix_(rows, cols)]``, C-contiguous; ``None`` takes every row or every column.

    Every column in order is one row take; with every row in order too,
    that is ``values`` itself if it is C-contiguous, so an aligned table
    is not copied. Any other selection is one ``np.ix_`` gather.
    """
    values = np.asarray(values)
    n_rows, n_cols = values.shape
    rows = np.arange(n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
    if cols is not None and not np.array_equal(cols, np.arange(n_cols)):
        return values[np.ix_(rows, np.asarray(cols, dtype=np.intp))]
    if np.array_equal(rows, np.arange(n_rows)):
        return np.ascontiguousarray(values)
    return values[rows]


def resolve_cpg_parents(genes: Table, cpgs: Table, mode="strict"):
    """Match each CpG to its parent gene under the strict/lenient policy.

    A CpG whose gene_id names no gene, or whose chromosome differs from
    its gene's, raises :class:`MappingError` in ``strict`` mode, naming the
    first one's line of the file ``cpgs`` was read from (:meth:`Table.locate`);
    ``lenient`` mode drops them all with one warning naming their number and
    the first one's problem. Returns ``(kept, parents)``: the kept CpG rows
    and, for each, its gene's row.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown mode {mode!r}")
    row_of = {gid: i for i, gid in enumerate(genes["gene_id"].tolist())}
    parents = np.array([row_of.get(g, -1) for g in cpgs["gene_id"].tolist()], dtype=np.intp)
    ok = parents >= 0
    ok[ok] = genes["chromosome"][parents[ok]] == cpgs["chromosome"][ok]
    bad = np.flatnonzero(~ok)
    for j in bad[:1]:
        cpg_id, gene_id, chrom = (str(cpgs[c][j]) for c in METHYLATION_FIXED_COLUMNS)
        if parents[j] < 0:
            problem = f"CpG {cpg_id!r} references unknown gene_id {gene_id!r}"
        else:
            problem = (
                f"CpG {cpg_id!r} on chromosome {chrom!r} but its gene "
                f"{gene_id!r} is on {str(genes['chromosome'][parents[j]])!r}"
            )
        if mode == "strict":
            raise MappingError(cpgs.locate(problem, j))
        logger.warning("dropping %d CpG(s) (lenient mode); the first: %s", len(bad), problem)
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
        y=gather(cpgs.values, kept),
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


def _read_header(path) -> list[str]:
    """The cells of the first line of the table at ``path``; an empty line is a FormatError."""
    with _open_text(path) as fh:
        header = fh.readline().rstrip("\n")
    if not header:
        raise FormatError(f"{path}: empty file")
    return header.split("\t")


def _read_tsv(path, columns) -> tuple[list[str], list[int], list[tuple[str, ...]]]:
    """The header cells, data line numbers and data rows of a TSV, by a Python line loop.

    Each row keeps, as a tuple, the cells at the indices ``columns`` (two
    or more); a line is split no further than the last of them. The
    caller checks the header first. Blank lines are skipped but counted,
    the header being line 1; a line with another cell count than the
    header's, or a table without data lines, is a FormatError. The data
    tables and ``truth.tsv`` are read by :func:`_load_rows`; for them
    this loop runs only to name the line of a fault.
    """
    cells = _read_header(path)
    keep, last, width = itemgetter(*columns), max(columns) + 1, len(cells)
    linenos, rows = [], []
    with _open_text(path) as fh:
        next(fh)  # the header
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            n_cols = line.count("\t") + 1
            if n_cols != width:
                raise FormatError(f"{path}:{lineno}: expected {width} columns, got {n_cols}")
            rows.append(keep(line.split("\t", last)))
            linenos.append(lineno)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return cells, linenos, rows


def _load_rows(path, dtype) -> np.ndarray | None:
    """The data lines of a TSV as one structured array of ``dtype``, None if rejected.

    The lines below the header are read by one pass of ``loadtxt``,
    which rejects a line with another cell count, a value that does not
    parse, a byte that is not UTF-8 and a table without data lines.
    Blank lines are skipped. An ``object`` field keeps its cell's text
    as it is: nothing is stripped, ``#`` and ``"`` are literal, and no
    fixed width cuts it short. The caller names the fault of a rejected
    table with the line loop of :func:`_read_tsv`.
    """
    with warnings.catch_warnings():
        # a table without data lines warns "input contained no data"
        warnings.simplefilter("error", UserWarning)
        try:
            return np.loadtxt(path, delimiter="\t", skiprows=1, dtype=dtype, ndmin=1,
                              encoding="utf-8", comments=None)
        except (ValueError, UserWarning):  # a UnicodeDecodeError is a ValueError
            return None


def _sha256(path) -> str:
    """The hex sha256 of the file at ``path``."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# Appended to a TSV's name to name its twin: expression.tsv.arrays.
TWIN_SUFFIX = ".arrays"


def _twin_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + TWIN_SUFFIX)


def _write_twin(path, patients, columns, values) -> None:
    """Write the twin of the TSV just written at ``path`` from ``columns`` and ``values``.

    The twin holds four ``np.lib.format`` records, written without
    pickles: the TSV's sha256, the patients, the fixed ``columns`` as
    one (columns, rows) ``<U`` block in the width :func:`_parse_table`
    gives them, and the (rows, patients) float64 values as the TSV reads
    back: a zero of either sign is ``0`` in the TSV, so +0.0 here. The
    bytes depend only on these arrays. The values are written a row
    block at a time, so no copy of them is held. A twin costs 8 bytes
    per value, plus 4 per character of the widest fixed cell, times the
    fixed cells.
    """
    columns = [np.asarray(col, dtype=str) for col in columns]
    width = max(1, *(int(np.char.str_len(col).max(initial=0)) for col in columns))
    values = np.asarray(values, dtype=float)
    with open(_twin_path(path), "wb") as fh:
        for record in (np.array(_sha256(path)), np.array(patients, dtype=str),
                       np.array(columns, dtype=f"<U{width}")):
            np.lib.format.write_array(fh, record, allow_pickle=False)
        # the header np.lib.format.write_array gives the whole matrix
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(values.dtype), "fortran_order": False,
            "shape": values.shape})
        step = _block_rows(values.shape[1])
        for start in range(0, len(values), step):
            fh.write((values[start:start + step] + 0.0).tobytes())  # -0.0 + 0.0 is +0.0


def _read_twin(path, k, patients, digests) -> tuple[np.ndarray, np.ndarray] | None:
    """The fixed-column block and values held by the twin of the TSV ``path``, None if unfit.

    A twin is taken only if it opens, its first record is the sha256 of
    the TSV as it is now, its patients are ``patients``, its block is a
    native ``<U`` array of ``k`` rows and its values a C-ordered float64
    array of a column per patient and of as many rows, at least one, and
    nothing follows them. A missing, stale, truncated or foreign twin, or one
    holding an object array, is therefore passed over, and the caller
    parses the TSV. The TSV is hashed only if the twin opens; its digest
    goes into the dict ``digests`` under ``Path(path)`` unless that is None.
    """
    try:
        fh = open(_twin_path(path), "rb")
    except OSError:
        return None
    with fh:
        digest = _sha256(path)
        if digests is not None:
            digests[Path(path)] = digest
        read = functools.partial(np.lib.format.read_array, fh, allow_pickle=False)
        try:
            if read().tolist() != digest or read().tolist() != patients:
                return None
            block, values = read(), read()
            if fh.read(1):
                return None
        except (OSError, ValueError):  # a truncated or malformed record, or an object array
            return None
    fits = (values.dtype == np.float64 and values.ndim == 2 and values.flags.c_contiguous
            and len(values) > 0 and values.shape[1] == len(patients)
            and block.shape == (k, len(values))
            and block.dtype.kind == "U" and block.dtype.isnative)
    return (block, values) if fits else None


def _require_unique(ids, what, locate) -> None:
    """Raise a :class:`DuplicateIdError` at the first id of the list ``ids`` that repeats one.

    Its message is ``locate(f"duplicate {what} {id!r}", row)``, ``row``
    being the repeat's index in ``ids``: every reader names a repeated
    id by this rule, each locating the row its own way. One set of
    ``ids`` is built when they all differ.
    """
    if len(set(ids)) != len(ids):
        first = {}
        row = next(row for row, i in enumerate(ids) if first.setdefault(i, row) != row)
        raise DuplicateIdError(locate(f"duplicate {what} {ids[row]!r}", row))


def _unnamed_fault(path) -> FormatError:
    """The error for a table that the C pass rejects and the line loop finds no fault in."""
    return FormatError(f"{path}: rejected by the table reader, no line at fault")


def _parse_table(path, fixed_columns, digests=None) -> tuple[list[str], Table]:
    """Parse a TSV with fixed leading columns followed by patient columns.

    The header must start with ``fixed_columns`` and name one or more
    patients, each once. If the TSV has a twin that :func:`_read_twin`
    takes (one ``preprocess`` wrote with it, the TSV unchanged since),
    the rows are the twin's arrays, read without parsing a value; the
    TSV's sha256, taken to check the twin, goes into ``digests``.
    Otherwise the data lines are read by one pass of numpy's
    C ``loadtxt`` (:func:`_load_rows`), with an ``object`` field per
    fixed column and a float per patient. It parses each number with the
    same routine as ``float()``, so the values are bit for bit the same,
    without a Python call per value. It accepts decimal and exponent
    notation, ``inf`` and ``nan`` in any case, a leading sign and
    surrounding whitespace; unlike ``float()`` it rejects ``_`` between
    digits and non-ASCII digits. Either way the row id, the first fixed
    column, must not repeat, and a value that is not finite or exceeds
    ``MAX_ABS_VALUE`` in magnitude is rejected; both are checked on the
    arrays read and named by :meth:`Table.locate`. The table
    records ``path``. :func:`_raise_unreadable` names the fault of a
    table the pass could not read.
    """
    k = len(fixed_columns)
    cols = _read_header(path)
    patients = cols[k:]
    if tuple(cols[:k]) != tuple(fixed_columns):
        raise FormatError(f"{path}: header must start with {list(fixed_columns)}, got {cols[:k]}")
    if not patients:
        raise FormatError(f"{path}: no patient columns in header")
    if len(set(patients)) != len(patients):
        raise FormatError(f"{path}: duplicate patient column names")
    twin = _read_twin(path, k, patients, digests)
    if twin is not None:
        annotations, values = twin
        ids = annotations[0].tolist()
    else:
        rows = _load_rows(path, [*((name, object) for name in fixed_columns),
                                 ("values", float, (len(patients),))])
        if rows is None:
            _raise_unreadable(path, fixed_columns, patients)
        ids, values = rows[fixed_columns[0]].tolist(), np.ascontiguousarray(rows["values"])
        # one block, in the width a row-wise np.array(..., dtype=str) gives every column
        width = max(1, *(max(map(len, rows[name])) for name in fixed_columns))
        annotations = np.empty((k, len(rows)), dtype=f"<U{width}")
        for i, name in enumerate(fixed_columns):
            annotations[i] = rows[name]
            rows[name] = None  # frees the column's str objects before the next is filled
    table = Table(dict(zip(fixed_columns, annotations)), values, path)
    _require_unique(ids, fixed_columns[0], table.locate)
    _check_values(values, lambda row, col, problem: FormatError(
        table.locate(f"{problem} for patient {patients[col]!r}", row, col)))
    return patients, table


def _check_values(values, error) -> None:
    """Raise ``error(row, col, problem)`` for the first value of 2-D ``values`` out of range.

    A value must be finite and at most ``MAX_ABS_VALUE`` in magnitude.
    The table reader and the fits check their values by this test, which
    reads ``values`` twice and allocates nothing while they pass.
    """
    # max and min allocate nothing; a nan makes both comparisons fail
    if values.size and not (values.max() <= MAX_ABS_VALUE and values.min() >= -MAX_ABS_VALUE):
        bad = np.flatnonzero(~(np.abs(values) <= MAX_ABS_VALUE))[0]
        row, col = divmod(int(bad), values.shape[1])
        v = float(values[row, col])
        raise error(row, col, f"non-finite value {v!r}" if not np.isfinite(v)
                    else f"value {v!r} outside [-{MAX_ABS_VALUE:g}, {MAX_ABS_VALUE:g}]")


def _raise_unreadable(path, fixed_columns, patients):
    """Raise the :class:`FormatError` for the first fault of a table the C pass could not read.

    The lines are read again once, by :func:`_read_tsv`, which names a
    line with another cell count; then come a repeated id and the first
    value ``loadtxt`` rejects. Its line is found by halving the lines
    that fail one ``loadtxt`` call, about two passes over the table in
    all, and its column by parsing each column of that line alone, so
    the check is the reader's own.
    """
    k = len(fixed_columns)
    width = len(patients) + k
    _, linenos, rows = _read_tsv(path, range(width))
    _require_unique([row[0] for row in rows], fixed_columns[0],
                    lambda problem, row: f"{path}:{linenos[row]}: {problem}")

    def parses(lines, cols):
        try:
            np.loadtxt(lines, delimiter="\t", usecols=cols, dtype=float,
                       encoding="utf-8", comments=None)
        except ValueError:
            return False
        return True

    lines = ["\t".join(row) for row in rows]
    lo, hi = 0, len(lines)  # the lines before lo parse; the first that fails is below hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if parses(lines[lo:mid], range(k, width)):
            lo = mid
        else:
            hi = mid
    for col in range(k, width):
        if not parses(lines[lo:hi], [col]):
            raise FormatError(
                f"{path}:{linenos[lo]}:{col + 1}: non-numeric value {rows[lo][col]!r} "
                f"for patient {patients[col - k]!r}"
            )
    raise _unnamed_fault(path)


def read_expression_table(path, digests=None) -> tuple[list[str], Table]:
    """Read an expression TSV: gene_id, chromosome, then patient columns.

    Its rows come from its twin when :func:`_parse_table` takes one; the
    TSV's sha256, if the twin check took it, goes into the dict ``digests``.
    """
    return _parse_table(path, EXPRESSION_FIXED_COLUMNS, digests)


def read_methylation_table(path, digests=None) -> tuple[list[str], Table]:
    """Read a methylation TSV: cpg_id, gene_id, chromosome, then patients.

    Its rows come from its twin when :func:`_parse_table` takes one; the
    TSV's sha256, if the twin check took it, goes into the dict ``digests``.
    """
    return _parse_table(path, METHYLATION_FIXED_COLUMNS, digests)


def align_patients(path_a, patients_a, path_b, patients_b) -> list[int]:
    """The column order that puts ``patients_b`` in the order of ``patients_a``.

    Other patient sets are a FormatError naming both paths and the patients that differ.
    """
    differ = sorted(set(patients_a) ^ set(patients_b))
    if differ:
        raise FormatError(f"patient columns differ between {path_a} and {path_b}: {differ}")
    return [patients_b.index(p) for p in patients_a]


TRUTH_COLUMNS = ("entity_id", "layer", "label")
TRUTH_LAYERS = ("gene", "cpg")


def read_truth_table(path, layer) -> dict[str, str]:
    """The ``{id: label}`` of one layer, ``gene`` or ``cpg``, of ``truth.tsv`` (entity_id, layer, label).

    The whole table is read by one C pass (:func:`_load_rows`) and
    checked: every row's layer must be ``gene`` or ``cpg``, and no id may
    repeat within its layer. The first line with an unknown layer is
    named, then the first repeated gene id, then the first repeated CpG
    id, by :func:`_require_unique`; of a table the pass could not read,
    the fault :func:`_read_tsv` finds. The dict is built from the id list
    the check of ``layer`` took.
    """
    if tuple(_read_header(path)) != TRUTH_COLUMNS:
        raise FormatError(f"{path}: expected header entity_id/layer/label")
    rows = _load_rows(path, [(name, object) for name in TRUTH_COLUMNS])
    if rows is None:
        _read_tsv(path, range(len(TRUTH_COLUMNS)))
        raise _unnamed_fault(path)
    ids, layers = rows["entity_id"], rows["layer"]
    locate = Table({}, np.empty((len(rows), 0)), path).locate  # a row's line; no cell is needed
    of_rows = {of: np.flatnonzero(layers == of) for of in TRUTH_LAYERS}
    if sum(map(len, of_rows.values())) < len(rows):
        row = np.flatnonzero(~np.isin(layers, TRUTH_LAYERS))[0]
        raise FormatError(locate(f"unknown layer {layers[row]!r}", row))
    truth = {}
    for of, where in of_rows.items():
        of_ids = ids[where].tolist()
        _require_unique(of_ids, f"{of} id", lambda problem, i: locate(problem, where[i]))
        if of == layer:
            # one str per distinct label, not one per row
            truth = dict(zip(of_ids, map(sys.intern, rows["label"][where].tolist())))
    return truth


def read_predicted_labels(path, layer) -> tuple[list[int], list[tuple[str, str]]]:
    """Line numbers and ``(id, map_label)`` rows of a ``gene`` or ``cpg`` layer results table.

    The header must hold the layer's id column and ``map_label``, checked
    in that order before any data line is read by :func:`_read_tsv`; an
    id that repeats is named by :func:`_require_unique` at its line.
    """
    id_col = "gene_id" if layer == "gene" else "cpg_id"
    cells = _read_header(path)
    for col in (id_col, "map_label"):
        if col not in cells:
            raise FormatError(f"{path}: missing column {col!r}")
    _, linenos, pairs = _read_tsv(path, (cells.index(id_col), cells.index("map_label")))
    _require_unique([i for i, _ in pairs], id_col,
                    lambda problem, row: f"{path}:{linenos[row]}: {problem}")
    return linenos, pairs


def load_paired_dataset(expression_path, methylation_path, mode="strict",
                        digests=None) -> PairedDataset:
    """Load and pair the two tables, aligning patients by header name.

    Patient columns are matched by name, not position, with
    :func:`align_patients`; the methylation columns take the expression
    order. ``digests`` is passed to both readers.
    """
    expr_patients, genes = read_expression_table(expression_path, digests)
    meth_patients, cpgs = read_methylation_table(methylation_path, digests)
    order = align_patients(expression_path, expr_patients, methylation_path, meth_patients)
    cpgs = Table(cpgs.columns, gather(cpgs.values, cols=order), cpgs.path)
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
    """Shortest round-trip text of a number; integral floats lose the ``.0``.

    The rule every table's numbers follow, one number at a time: the
    reference that :func:`_block_lines` is tested against.
    """
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if f.is_integer():
        return str(int(f))
    return repr(f)


# Rows per rendered range: bounds the temporaries of a write, while one
# dump serves each block of numbers of all of its rows.
FORMAT_BLOCK_CELLS = 1 << 14


def _block_rows(width) -> int:
    """Rows per range of :func:`_write_tables` for rows of ``width`` cells."""
    return max(1, FORMAT_BLOCK_CELLS // max(1, width))


def _dump(values) -> str:
    """``orjson``'s text of the number array ``values``: brackets, commas, ``null`` for ``nan``."""
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).decode()


def _e05_cells(values) -> list[str]:
    """The texts of the 1-D float64 array ``values``, all of magnitude in [1e-5, 1e-4).

    ``orjson`` writes each as ``0.0000`` and its digits, ``repr`` as its
    digits with a point after the first and ``e-05``: ``0.000012`` is
    ``1.2e-05``, ``-0.00001`` is ``-1e-05``. The digits are moved in
    numpy, with no Python call per cell.
    """
    text = _dump(values)[1:-1].replace("0.0000", "").encode()  # "-0.000012" -> "-12"
    chars = np.frombuffer(text, dtype=np.uint8)
    first = np.r_[0, np.flatnonzero(chars == ord(",")) + 1]  # each cell's sign or first digit
    first += chars[first] == ord("-")
    text = np.insert(chars, first + 1, ord(".")).tobytes().decode()  # "-12" -> "-1.2"
    return (text.replace(",", "e-05,") + "e-05").replace(".e", "e").split(",")


def _off_dump_cells(values) -> list[str]:
    """The text of each cell of the 1-D float64 array ``values``, by :func:`_format_number`'s rule.

    For the cells whose ``orjson`` text is not ``repr``'s, each class
    written apart. A zero of either sign is ``0``. A magnitude in
    [1e-9, 1e-5) is dumped in ``orjson``'s notation, ``repr``'s but for
    its one exponent digit, which ``repr`` pads: ``3.5e-6`` is
    ``3.5e-06``. One in [1e-5, 1e-4) is written by :func:`_e05_cells`.
    Only ``nan``, the infinities and magnitudes of 1e16 and above take
    :func:`_format_number`, a Python call each.
    """
    size = np.abs(values)
    cells = np.full(len(values), "0", dtype=object)
    tiny = (size >= 1e-9) & (size < 1e-5)
    if tiny.any():
        cells[tiny] = _dump(values[tiny])[1:-1].replace("e-", "e-0").split(",")
    small = (size >= 1e-5) & (size < 1e-4)
    if small.any():
        cells[small] = _e05_cells(values[small])
    rest = ~(size < 1e16)
    if rest.any():
        cells[rest] = list(map(_format_number, values[rest].tolist()))
    return cells.tolist()


def _block_lines(block) -> list[str]:
    """The rows of the 2-D number array ``block`` as text, cells by :func:`_format_number`'s rule.

    One ``orjson`` dump writes the whole block; its tabs and row breaks
    replace the dump's commas and brackets. ``orjson``'s shortest
    round-trip digits (Ryu) and notation are ``repr``'s for a float of
    magnitude in [1e-4, 1e16) or in (0, 1e-9); of those, an integral
    one loses its ``.0``, the only ``.0`` the dump ends a number with.
    Every other float is dumped as ``nan``, which it writes ``null``,
    and the ``null`` is filled, in order, from :func:`_off_dump_cells`:
    the zeros, [1e-9, 1e-5) and [1e-5, 1e-4) in C, each class apart, and
    only ``nan``, the infinities and 1e16 and above by
    :func:`_format_number`. The zeros stay off the main dump, as a block
    holding an integral cell pays both ``.0`` passes over all its text.
    The CpG result blocks of a 65,939-row fit at N = 4, 117,038 of their
    263,756 cells in [1e-9, 1e-4), render in 69–75 ms, against 165–185
    ms with those cells by :func:`_format_number` (2 cores, in-process).
    The dump takes a C-contiguous array of native byte order: float64
    for every non-integer kind, integers of their own width.
    """
    fill, integral = (), False
    if block.dtype.kind in "iu":
        block = np.ascontiguousarray(block, dtype=block.dtype.newbyteorder("="))
    else:
        with np.errstate(invalid="ignore"):  # a float32 signalling nan is still nan
            values = np.ascontiguousarray(block, dtype=float)
        size = np.abs(values)
        fast = ((size >= 1e-4) & (size < 1e16)) | ((size > 0) & (size < 1e-9))
        fill = _off_dump_cells(values[~fast])
        block = np.where(fast, values, np.nan)
        integral = (np.trunc(block) == block).any()
    text = _dump(block)
    if integral:
        text = text.replace(".0,", ",").replace(".0]", "]")
    if fill:
        parts = text.split("null")
        text = "".join(itertools.chain.from_iterable(zip(parts, fill))) + parts[-1]
    return text[2:-2].replace(",", "\t").split("]\t[")


def _render_rows(columns) -> str:
    """The rows of ``columns`` as text, each tab-separated and ending in a newline.

    A column is a 1-D sequence of strings, written as they are, or a 2-D
    number array, each row of which :func:`_block_lines` writes as one
    string. The rows are joined by ``str.join`` over ``zip``: no Python
    call of ours per row or cell.
    """
    (_,) = {len(col) for col in columns}  # a ValueError unless all are one length
    texts = []
    for col in columns:
        if isinstance(col, np.ndarray):  # its own str objects, not a numpy scalar per cell
            col = _block_lines(col) if col.ndim == 2 else col.tolist()
        texts.append(col)
    return "\n".join(map("\t".join, zip(*texts))) + "\n"


# The (fn, items) of the pool a worker process serves; set only in workers.
_work = None
# prctl(2) option: the signal a process gets when its parent ends (Linux).
_PR_SET_PDEATHSIG = 1


def _require_at_least(name, value, least) -> None:
    """Raise :class:`ParameterError` unless ``value >= least``; nan never is."""
    if not value >= least:
        raise ParameterError(f"{name} must be at least {least}, got {value}")


def _work_on(fn, items, parent) -> None:
    """Worker initializer: a forked worker inherits ``fn`` and ``items``, never pickled.

    The worker also ends with its ``parent`` process, however that ends:
    a worker waiting on the pool's task pipe would otherwise wait for
    good, as every forked worker holds the pipe's write end too. Linux
    sends it ``SIGKILL`` when the parent goes (``PR_SET_PDEATHSIG``); a
    parent already gone before that was set ends it here.
    """
    import ctypes  # only in a worker

    global _work
    _work = fn, items
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)


def _call(key):
    """``fn(items[key])`` in a worker, for the ``fn`` and ``items`` it was started with."""
    fn, items = _work
    return fn(items[key])


def _each(fn, items: dict, threads: int, catch):
    """Yield ``(key, result, error)`` for every item, in the order of ``items``.

    ``result`` is ``fn(item)``; a call that raises ``catch`` yields None
    and the exception as ``error`` instead, and does not stop the others.
    Any other exception propagates, with the calls not yet started
    cancelled. ``threads`` below 1 is a :class:`ParameterError`, raised
    before any call.

    The pool has ``min(threads, len(items), usable CPUs)`` workers; with
    one, the calls run in this process, one after the other. Workers are
    forked, so they inherit ``fn`` and ``items``, and only keys, results
    and exceptions cross the pipe: a result and an exception must pickle.
    A result is yielded as soon as it and those before it have arrived,
    and is not held here after that. Every worker is joined before the
    generator ends, raises or is closed, and ends with this process if
    it is killed.
    """
    _require_at_least("threads", threads, 1)
    workers, pool = min(threads, len(items), len(os.sched_getaffinity(0))), None
    if workers > 1:
        # imported only for a pool: every run would pay them, in memory and start-up time
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_work_on, initargs=(fn, items, os.getpid()),
        )
    try:
        if pool is None:
            calls = ((key, functools.partial(fn, item)) for key, item in items.items())
        else:
            futures = {key: pool.submit(_call, key) for key in items}
            calls = ((key, futures.pop(key).result) for key in items)
        for key, call in calls:
            try:
                result, error = call(), None
            except catch as exc:
                result, error = None, exc
            yield key, result, error
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _run_each(fn, items: dict, threads: int, catch):
    """:func:`_each`'s calls as ``(results, failures)``, keyed like ``items`` and in its order."""
    done = list(_each(fn, items, threads, catch))
    results = {key: result for key, result, error in done if error is None}
    return results, {key: error for key, _, error in done if error is not None}


def _write_tables(tables, threads=1) -> None:
    """Write TSVs, their rows rendered on up to ``threads`` workers.

    A table is ``(path, header, n_rows, columns)``, ``columns(span)``
    giving the columns :func:`_render_rows` takes of the rows in the
    slice ``span``. One run of :func:`_each` renders every table in
    ranges of :func:`_block_rows` rows, each gathered where it is
    rendered and written once it and those before it have arrived. The
    directory of each path is made just before the file is opened.
    """
    ranges = {}
    for t, (_, header, n_rows, _) in enumerate(tables):
        step = _block_rows(len(header))
        ranges.update(((t, i), (t, slice(i, i + step))) for i in range(0, n_rows, step))

    def render(item):
        t, span = item
        return _render_rows(tables[t][3](span))

    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(_parent_made(path), "w", encoding="utf-8"))
                 for path, *_ in tables]
        for fh, (_, header, _, _) in zip(files, tables):
            fh.write("\t".join(header) + "\n")
        texts = stack.enter_context(contextlib.closing(_each(render, ranges, threads, ())))
        for (t, _), text, _ in texts:
            files[t].write(text)


def _data_table(path, header, columns):
    """The :func:`_write_tables` entry of a table held whole in ``columns``."""
    return path, header, len(columns[0]), lambda span: [col[span] for col in columns]


def _parent_made(path) -> Path:
    """``path`` as a :class:`Path`, its directory made if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path, payload) -> None:
    """Write ``payload`` as sorted, indented JSON, making the directory of ``path`` first.

    A numpy scalar is written as its Python value, so a numpy integer
    gives the bytes of the int it equals; any other object ``json``
    cannot write is a TypeError.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, default=np.generic.item)
    _parent_made(path).write_text(text + "\n")


def write_expression_table(path, gene_ids, chromosomes, patients, values) -> None:
    """Write an expression TSV; float values use shortest round-trip form."""
    header = [*EXPRESSION_FIXED_COLUMNS, *patients]
    _write_tables([_data_table(path, header, [gene_ids, chromosomes, np.asarray(values)])])


def write_methylation_table(path, cpg_ids, gene_ids, chromosomes, patients, values) -> None:
    """Write a methylation TSV; float values use shortest round-trip form."""
    header = [*METHYLATION_FIXED_COLUMNS, *patients]
    _write_tables([_data_table(path, header, [cpg_ids, gene_ids, chromosomes, np.asarray(values)])])
