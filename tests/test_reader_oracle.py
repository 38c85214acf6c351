"""The C-pass table readers against the line loop they replaced, on generated file bytes.

Every input must give an equal result (equal patients, equal columns of
an equal ``<U`` dtype, bit-equal values) or raise the same exception
type with the same message.
"""

import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jointmix.dataset import (
    EXPRESSION_FIXED_COLUMNS,
    METHYLATION_FIXED_COLUMNS,
    TRUTH_LAYERS,
    read_expression_table,
    read_methylation_table,
    read_truth_table,
)
from jointmix.errors import FormatError, JointmixError
from oracle_utils import line_loop_table, line_loop_truth

DIFFERENTIAL = settings(max_examples=300, derandomize=True, deadline=None)

READERS = {EXPRESSION_FIXED_COLUMNS: read_expression_table,
           METHYLATION_FIXED_COLUMNS: read_methylation_table}

# Cells that are easy to read wrong: spaces, "#" and '"' (literal: no
# comments, no quoting), non-ASCII text and the empty cell.
TEXT_CELLS = ["g 1", " g1", "g1 ", "#g", '"g"', "中é", "", "1", "g1", "g2", "X"]
# Values the reader accepts, then values it rejects, as text or beyond the bound.
GOOD_VALUES = ["0.5", "-1e-05", "3", " 2 ", "+4", ".5", "1e100", "-1e100", "5e-324", "-0", "7e-3"]
BAD_VALUES = ["1_0", "１", "0x10", "", "abc", "nan", "-inf", "1e309", "1.5e100"]
LABEL_CELLS = ["down", "null", "up", "", "#"]
PATIENTS = ["P1", "P2", "P 3", "中", "#p", '"p"']
ENDINGS = ["\n", "\r\n", "\r"]
# Up to two of these per file, each at a drawn line: no data rows, lines
# the readers must reject for their cell count, a cell too few or too
# many, a value they reject, a repeated id, an unknown truth layer, a bad
# header, and a byte that is not UTF-8, in the last line or past 8 KiB.
FAULTS = ["no rows", "space line", "tab line", "short row", "long row", "bad value",
          "repeated id", "bad layer", "bad header", "bad byte", "bad byte past 8 KiB"]


def outcome(read, *args):
    """``("ok", result)``, or the type and message of the package error ``read`` raised."""
    try:
        return "ok", read(*args)
    except JointmixError as exc:
        return type(exc), str(exc)


def file_bytes(header, rows, endings, final_newline, bad_byte, pad):
    """The bytes of a table: ``rows`` are lists of cells or blank-line strings.

    ``bad_byte`` puts a byte that is not UTF-8 into the last line, or
    into a line past the first 8 KiB, after enough copies of the row
    ``pad`` (its id numbered) to fill them.
    """
    lines = ["\t".join(header), *("\t".join(r) if isinstance(r, list) else r for r in rows)]
    if bad_byte == "past 8 KiB":
        lines[1:1] = ["\t".join([f"{pad[0]}{i}", *pad[1:]]) for i in range(8192 // len(pad))]
    text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
    if not final_newline:
        text = text.rstrip("\r\n")
    raw = text.encode("utf-8")
    if bad_byte:
        cut = raw.rstrip(b"\r\n").rfind(b"\t") + 1
        raw = raw[:cut] + b"\xe9" + raw[cut:]
    return raw


@st.composite
def text_files(draw, header, cell_choices, bad_headers, pad, first_value=None):
    """Bytes of a table with ``header`` whose row cells come from ``cell_choices``.

    The rows have distinct ids, with blank lines between them; up to two
    ``FAULTS`` are then put in at drawn lines. Values start at cell
    ``first_value``; a table without one is ``truth.tsv``.
    """
    ids = draw(st.lists(st.sampled_from(TEXT_CELLS), min_size=1, max_size=6, unique=True))

    def row(i):
        return [i, *(draw(st.sampled_from(c)) for c in cell_choices[1:])]

    rows = [row(i) for i in ids]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), "")
    faults = [draw(st.sampled_from([None, *FAULTS])), *draw(st.lists(st.sampled_from(FAULTS),
                                                                    max_size=1))]
    for fault in faults:
        at = draw(st.integers(0, len(rows)))
        target = rows[at % len(rows)] if rows else ""
        if fault == "no rows":
            rows = [r for r in rows if r == ""]
        elif fault == "space line":
            rows.insert(at, " ")
        elif fault == "tab line":
            rows.insert(at, "\t" * draw(st.integers(1, 3)))
        elif fault == "repeated id" and ids:
            rows.insert(at, row(draw(st.sampled_from(ids))))
        elif fault == "bad header":
            header = draw(st.sampled_from(bad_headers))
        elif not isinstance(target, list):
            continue
        elif fault == "short row":
            target.pop()
        elif fault == "long row":
            target.append("0")
        elif fault == "bad value" and first_value and len(target) > first_value:
            target[draw(st.integers(first_value, len(target) - 1))] = draw(st.sampled_from(BAD_VALUES))
        elif fault == "bad layer" and not first_value:
            target[1] = draw(st.sampled_from(["Gene", "gene ", "x", ""]))
    bad_byte = ("past 8 KiB" if "bad byte past 8 KiB" in faults
                else "last line" if "bad byte" in faults else None)
    endings = draw(st.lists(st.sampled_from(ENDINGS), min_size=1, max_size=3))
    return file_bytes(header, rows, endings, draw(st.booleans()), bad_byte, pad)


@st.composite
def table_files(draw, fixed_columns):
    """(fixed_columns, bytes) of a data table."""
    k = len(fixed_columns)
    patients = draw(st.lists(st.sampled_from(PATIENTS), min_size=1, max_size=3, unique=True))
    bad_headers = [[*fixed_columns], [*fixed_columns, "P1", "P1"], ["id", *patients]]
    pad = ["pad", *["1"] * (k - 1), *["0"] * len(patients)]
    cells = [TEXT_CELLS] * k + [GOOD_VALUES] * len(patients)
    return fixed_columns, draw(text_files([*fixed_columns, *patients], cells, bad_headers, pad, k))


def truth_files():
    """Bytes of a ``truth.tsv``."""
    return text_files(["entity_id", "layer", "label"], [TEXT_CELLS, ["gene", "cpg"], LABEL_CELLS],
                      [["entity_id", "layer"], ["id", "layer", "label"]], ["pad", "gene", "up"])


def assert_tables_agree(path, fixed_columns):
    got, want = outcome(READERS[fixed_columns], path), outcome(line_loop_table, path, fixed_columns)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    (patients, table), (want_patients, want_columns, want_values) = got[1], want[1]
    assert patients == want_patients
    assert list(table.columns) == list(want_columns) == list(fixed_columns)
    for name, col in want_columns.items():
        assert table[name].dtype == col.dtype
        assert table[name].tolist() == col.tolist()
    assert table.values.flags.c_contiguous
    assert table.values.shape == want_values.shape
    assert table.values.tobytes() == want_values.tobytes()


def assert_truth_agrees(path):
    want = outcome(line_loop_truth, path)
    for layer in TRUTH_LAYERS:
        got = outcome(read_truth_table, path, layer)
        assert got[0] == want[0]
        assert got[1] == (want[1][layer] if want[0] == "ok" else want[1])


E, M = EXPRESSION_FIXED_COLUMNS, METHYLATION_FIXED_COLUMNS
HEADER = "gene_id\tchromosome\tP1\tP2\n"


@pytest.mark.parametrize("raw", [
    HEADER + "g 1\t#1\t0.5\t1\n\" g\"\t中é\t-1e-05\t2\n",
    HEADER + "g\x001\x00\t\x00\t0.5\t1\n😀\t\x0c\t-1e-05\t2\n",
    HEADER + "g1\t1\t0.5\t1\n\n \ng2\t1\t2\t3\n",
    HEADER + "g1\t1\t0.5\t1\n\t\t\t\n",
    HEADER + "g1\t1\t0.5\t1\n\t\t\n",
    (HEADER + "g1\t1\t0.5\t1\n\ng2\tX\t3\t0.1").replace("\n", "\r\n"),
    (HEADER + "g1\t1\t0.5\t1\ng2\tX\t3\t0.1\n").replace("\n", "\r"),
    HEADER, HEADER + "\n", HEADER + "\r\n\r\n",
    HEADER + "g1\t1\t0.5\n", HEADER + "g1\t1\t0.5\t1\t2\n",
    *(HEADER + "g1\t1\t0.5\t1\ng2\t1\t2\t" + v + "\n"
      for v in ["1_0", "１", "0x10", "", "nan", "1e309", "1e100", "-1.5e100", " 7 "]),
    HEADER + "g1\t1\t0.5\t1\ng1\t1\t2\t3\n",
    HEADER + "g1\t1\t1e309\t1\ng1\t1\t2\t3\n",
    (HEADER + "g\t1\t0\t0\n" * 1200).encode() + b"g\xe9\t1\t0\t0\n",
    HEADER.encode() + b"g1\t1\t0\t0\r\n\r\ng\xe92\t1\t0\t0\r\n",
    "gene_id\tchromosome\n", "gene_id\tchromosome\tP1\tP1\ng\t1\t0\t0\n", "", "\n",
])
def test_expression_cases_agree_with_the_line_loop(tmp_path, raw):
    path = tmp_path / "expression.tsv"
    path.write_bytes(raw if isinstance(raw, bytes) else raw.encode("utf-8"))
    assert_tables_agree(path, E)


@pytest.mark.parametrize("raw", [
    "entity_id\tlayer\tlabel\ng1\tgene\tup\ng1\tcpg\tdown\n",
    "entity_id\tlayer\tlabel\ng1\tgene\tup\n\ng1\tgene\tdown\n",
    "entity_id\tlayer\tlabel\ng1\tcpg\tup\ng1\tcpg\tdown\ng2\tgene\tup\ng2\tgene\tup\n",
    "entity_id\tlayer\tlabel\ng1\tGene\tup\n",
    "entity_id\tlayer\tlabel\n\t\t\n",
    "entity_id\tlayer\tlabel\ng1\tgene\n",
    "entity_id\tlayer\tlabel\n", "entity_id\tlayer\tlabel\n\n",
    "entity_id\tlayer\tlabel\r\n#g\tgene\t\"up\"\r\n 中 \tcpg\tnull",
])
def test_truth_cases_agree_with_the_line_loop(tmp_path, raw):
    path = tmp_path / "truth.tsv"
    path.write_bytes(raw.encode("utf-8"))
    assert_truth_agrees(path)


@pytest.mark.parametrize("read, header", [
    (read_expression_table, HEADER), (lambda path: read_truth_table(path, "gene"),
                                      "entity_id\tlayer\tlabel\n"),
])
def test_a_table_without_rows_is_rejected_without_a_warning(tmp_path, read, header):
    # pytest makes a UserWarning an error; outside it, numpy's would only be printed
    path = tmp_path / "table.tsv"
    path.write_text(header + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        with pytest.raises(FormatError) as exc:
            read(path)
    assert str(exc.value) == f"{path}: no data rows"
    assert caught == []


@DIFFERENTIAL
@given(st.one_of(table_files(E), table_files(M)))
def test_table_readers_agree_with_the_line_loop(tmp_path_factory, case):
    fixed_columns, raw = case
    path = tmp_path_factory.mktemp("diff") / "table.tsv"
    path.write_bytes(raw)
    assert_tables_agree(path, fixed_columns)


@DIFFERENTIAL
@given(truth_files())
@example(file_bytes(["entity_id", "layer", "label"], [["g1", "gene", "up"]] * 2, ["\n"], True,
                    "past 8 KiB", ["pad", "gene", "up"]))
def test_truth_reader_agrees_with_the_line_loop(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("diff") / "truth.tsv"
    path.write_bytes(raw)
    assert_truth_agrees(path)
