import hashlib
import io

import numpy as np
import pytest

import jointmix.dataset
from jointmix.dataset import (
    Table,
    _write_twin,
    build_paired_dataset,
    gather,
    load_paired_dataset,
    read_expression_table,
    resolve_cpg_parents,
    split_by_chromosome,
    write_expression_table,
    write_json,
)
from jointmix.errors import DuplicateIdError, FormatError, InputError, MappingError


def swap_patients(text):
    """A two-patient methylation table's text with its patient columns swapped."""
    rows = (line.split("\t") for line in text.splitlines())
    return "".join("\t".join([*r[:3], r[4], r[3]]) + "\n" for r in rows)


class TestLoadPairedDataset:
    def test_well_formed_pair(self, tiny_pair_files):
        ds = load_paired_dataset(*tiny_pair_files)
        assert ds.n_genes == 3
        assert ds.n_cpgs == 5
        assert ds.n_patients == 2
        lengths = [len(ds.gene_cpg_indices(g)) for g in range(ds.n_genes)]
        assert lengths == [3, 2, 0]
        assert ds.cpg_gene_idx.tolist() == [0, 0, 0, 1, 1]
        np.testing.assert_allclose(ds.x[0], [0.5, -0.25])
        np.testing.assert_allclose(ds.y[4], [1.0, -1.0])

    def test_orphan_cpg_strict(self, tiny_pair_files, tmp_path):
        expr, meth = tiny_pair_files
        bad = tmp_path / "meth_orphan.tsv"
        bad.write_text(meth.read_text() + "c6\tGX\t1\t0.0\t0.0\n")
        with pytest.raises(MappingError):
            load_paired_dataset(expr, bad, mode="strict")

    @pytest.mark.parametrize("edit, line, problem", [
        (lambda text: text + "\nc6\tGX\t1\t0.0\t0.0\n", 8,
         "CpG 'c6' references unknown gene_id 'GX'"),
        (lambda text: text.replace("c4\tGB\t1", "c4\tGB\t9"), 5,
         "CpG 'c4' on chromosome '9' but its gene 'GB' is on '1'"),
        # patient columns in another order than the expression file's
        (lambda text: swap_patients(text + "c6\tGX\t1\t0.0\t0.0\n"), 7,
         "CpG 'c6' references unknown gene_id 'GX'"),
    ])
    def test_a_strict_mapping_error_names_the_cpg_line(
        self, tiny_pair_files, tmp_path, edit, line, problem
    ):
        expr, meth = tiny_pair_files
        bad = tmp_path / "meth_bad.tsv"
        bad.write_text(edit(meth.read_text()))
        with pytest.raises(MappingError) as exc:
            load_paired_dataset(expr, bad, mode="strict")
        assert str(exc.value) == f"{bad}:{line}: {problem}"

    def test_orphan_cpg_lenient_drops(self, tiny_pair_files, tmp_path):
        expr, meth = tiny_pair_files
        bad = tmp_path / "meth_orphan.tsv"
        bad.write_text(meth.read_text() + "c6\tGX\t1\t0.0\t0.0\n")
        ds = load_paired_dataset(expr, bad, mode="lenient")
        assert ds.n_cpgs == 5
        assert "c6" not in ds.cpg_ids.tolist()

    def test_duplicate_gene_id(self, tiny_pair_files, tmp_path):
        expr, meth = tiny_pair_files
        dup = tmp_path / "expr_dup.tsv"
        dup.write_text(expr.read_text() + "GA\t1\t9\t9\n")
        with pytest.raises(DuplicateIdError):
            load_paired_dataset(dup, meth)

    def test_patient_set_mismatch(self, tiny_pair_files, tmp_path):
        expr, meth = tiny_pair_files
        bad = tmp_path / "meth_cols.tsv"
        lines = meth.read_text().splitlines()
        lines[0] = "cpg_id\tgene_id\tchromosome\tP1\tP9"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            load_paired_dataset(expr, bad)
        assert "P9" in str(exc.value)

    def test_patient_alignment_by_name(self, tiny_pair_files, tmp_path):
        expr, meth = tiny_pair_files
        swapped = tmp_path / "meth_swapped.tsv"
        rows = [line.split("\t") for line in meth.read_text().splitlines()]
        out = ["\t".join([r[0], r[1], r[2], r[4], r[3]]) for r in rows]
        swapped.write_text("\n".join(out) + "\n")
        ds = load_paired_dataset(expr, swapped)
        np.testing.assert_allclose(ds.y[0], [0.1, 0.2])

    def test_chromosome_mismatch_strict(self, tiny_pair_files, tmp_path):
        expr, meth = tiny_pair_files
        bad = tmp_path / "meth_chrom.tsv"
        bad.write_text(meth.read_text().replace("c4\tGB\t1", "c4\tGB\t9"))
        with pytest.raises(MappingError):
            load_paired_dataset(expr, bad)

    def test_mapping_totality(self, tiny_pair_files):
        ds = load_paired_dataset(*tiny_pair_files)
        per_gene = [ds.gene_cpg_indices(g).tolist() for g in range(ds.n_genes)]
        assert sum(len(v) for v in per_gene) == ds.n_cpgs
        assert sorted(i for v in per_gene for i in v) == list(range(ds.n_cpgs))


def gene_table(ids, chromosomes, values):
    return Table({"gene_id": ids, "chromosome": chromosomes}, values)


def cpg_table(ids, gene_ids, chromosomes, values):
    return Table({"cpg_id": ids, "gene_id": gene_ids, "chromosome": chromosomes}, values)


def test_an_unknown_mapping_mode_is_named():
    genes = gene_table(["g1"], ["1"], [[1.0]])
    cpgs = cpg_table(["c1"], ["g1"], ["1"], [[0.5]])
    with pytest.raises(ValueError, match="^unknown mode 'loose'$"):
        resolve_cpg_parents(genes, cpgs, mode="loose")


def test_a_mapping_error_of_tables_built_in_memory_is_the_bare_problem():
    genes = gene_table(["g1"], ["1"], [[1.0]])
    cpgs = cpg_table(["c1", "c2"], ["g1", "gX"], ["1", "1"], [[0.5], [0.5]])
    with pytest.raises(MappingError) as exc:
        resolve_cpg_parents(genes, cpgs)
    assert str(exc.value) == "CpG 'c2' references unknown gene_id 'gX'"


class TestGather:
    VALUES = np.arange(20.0).reshape(5, 4)

    @pytest.mark.parametrize("rows, cols", [
        (None, None), (range(5), None), (None, [0, 1, 2, 3]), (np.arange(5), np.arange(4)),
    ])
    def test_every_row_and_column_in_order_is_the_matrix_itself(self, rows, cols):
        got = gather(self.VALUES, rows, cols)
        assert got is self.VALUES and np.shares_memory(got, self.VALUES)

    @pytest.mark.parametrize("rows, cols", [
        ([4, 3, 2, 1, 0], None),  # rows reordered
        ([0, 1, 3, 4], None),  # a row dropped
        (None, [2, 0, 3, 1]),  # columns permuted
        ([1, 0, 2, 4], [3, 2, 1, 0]),
        ([0, 1, 2, 3, 4], [0, 1, 2]),  # every row, a column dropped
    ])
    def test_any_other_selection_is_one_equal_copy(self, rows, cols):
        rows = range(5) if rows is None else rows
        cols = range(4) if cols is None else cols
        got = gather(self.VALUES, rows, cols)
        assert not np.shares_memory(got, self.VALUES)
        assert got.flags.c_contiguous
        assert got.tolist() == [[self.VALUES[r, c] for c in cols] for r in rows]

    def test_a_strided_matrix_taken_whole_is_made_contiguous(self):
        got = gather(self.VALUES.T)
        assert got.flags.c_contiguous and np.array_equal(got, self.VALUES.T)

    @pytest.mark.parametrize("rows", [[3, 0], range(4)])
    def test_a_row_take_of_a_fortran_matrix_is_contiguous(self, rows):
        values = np.asfortranarray(self.VALUES)
        got = gather(values, rows)
        assert got.flags.c_contiguous and np.array_equal(got, self.VALUES[list(rows)])


    COLUMN = np.array(["g1", "g2", "g3", "g4", "g5"])

    @pytest.mark.parametrize("rows", [None, range(5), np.arange(5)])
    def test_every_row_of_a_column_in_order_is_the_column_itself(self, rows):
        assert gather(self.COLUMN, rows) is self.COLUMN

    @pytest.mark.parametrize("rows", [[4, 3, 2, 1, 0], [0, 1, 3, 4], [2]])
    def test_any_other_take_of_a_column_is_one_contiguous_copy(self, rows):
        got = gather(self.COLUMN, rows)
        assert not np.shares_memory(got, self.COLUMN)
        assert got.flags.c_contiguous
        assert got.tolist() == [self.COLUMN[r] for r in rows]

    def test_a_strided_column_taken_whole_is_made_contiguous(self):
        got = gather(self.COLUMN[::2])
        assert got.flags.c_contiguous and got.tolist() == ["g1", "g3", "g5"]


class TestSplitByChromosome:
    def test_two_chromosomes(self, tiny_pair_files):
        ds = load_paired_dataset(*tiny_pair_files)
        parts = split_by_chromosome(ds)
        assert [p.label for p in parts] == ["1", "7"]
        assert [len(p.genes) for p in parts] == [2, 1]
        assert [len(p.cpgs) for p in parts] == [5, 0]

    def test_single_chromosome_identity(self):
        genes = gene_table(["g1", "g2"], ["3", "3"], [[1.0], [2.0]])
        cpgs = cpg_table(["c1"], ["g1"], ["3"], [[0.5]])
        ds = build_paired_dataset(genes, cpgs, ["P1"])
        (part,) = split_by_chromosome(ds)
        sub = ds.subset(part.genes, part.cpgs)
        assert sub.x is ds.x and sub.y is ds.y
        assert sub.gene_ids.tolist() == ["g1", "g2"]
        assert sub.cpg_ids.tolist() == ["c1"]
        assert sub.cpg_gene_idx.tolist() == [0]

    def test_many_chromosomes_conserve_counts(self):
        rng = np.random.default_rng(0)
        genes = gene_table(
            [f"g{i}" for i in range(66)], [str(1 + i % 22) for i in range(66)],
            np.vstack([rng.normal(size=2) for _ in range(66)]),
        )
        ds = build_paired_dataset(genes, cpg_table([], [], [], np.zeros((0, 2))), ["P1", "P2"])
        parts = split_by_chromosome(ds)
        assert len(parts) == 22
        assert sum(len(p.genes) for p in parts) == 66

    def test_partition_conservation(self, tiny_pair_files):
        ds = load_paired_dataset(*tiny_pair_files)
        subs = [ds.subset(p.genes, p.cpgs) for p in split_by_chromosome(ds)]
        gene_ids = sorted(g for s in subs for g in s.gene_ids.tolist())
        cpg_ids = sorted(c for s in subs for c in s.cpg_ids.tolist())
        assert gene_ids == sorted(ds.gene_ids.tolist())
        assert cpg_ids == sorted(ds.cpg_ids.tolist())


class TestTableFormats:
    def test_value_length_mismatch(self):
        genes = gene_table(["g1"], ["1"], [[1.0, 2.0]])
        with pytest.raises(FormatError):
            build_paired_dataset(genes, cpg_table([], [], [], np.zeros((0, 2))), ["P1"])

    @pytest.mark.parametrize("genes, patients, message", [
        (gene_table(["g1"], ["1"], np.zeros((1, 0))), [],
         "dataset must have at least one patient column"),
        (gene_table([], [], np.zeros((0, 1))), ["P1"], "dataset must have at least one gene row"),
    ])
    def test_no_patient_or_no_gene_is_named(self, genes, patients, message):
        cpgs = cpg_table([], [], [], np.zeros((0, len(patients))))
        with pytest.raises(FormatError, match=f"^{message}$"):
            build_paired_dataset(genes, cpgs, patients)

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "expr.tsv"
        values = np.array([[0.1234567890123456, -2.0], [3.0, 0.5]])
        write_expression_table(path, ["a", "b"], ["1", "2"], ["P1", "P2"], values)
        patients, genes = read_expression_table(path)
        assert patients == ["P1", "P2"]
        np.testing.assert_array_equal(genes.values, values)

    def test_writers_make_the_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b"
        write_expression_table(out / "expr.tsv", ["a"], ["1"], ["P1"], np.array([[1.5]]))
        write_json(out / "c" / "d.json", {"k": 1})
        assert (out / "expr.tsv").read_text() == "gene_id\tchromosome\tP1\na\t1\t1.5\n"
        assert (out / "c" / "d.json").read_text() == '{\n  "k": 1\n}\n'

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("gene_id\tchromosome\tP1\ng1\t1\tabc\n")
        with pytest.raises(FormatError):
            read_expression_table(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text("id\tchrom\tP1\ng1\t1\t2\n")
        with pytest.raises(FormatError):
            read_expression_table(path)


class TestReaderEdgeCases:
    HEADER = "gene_id\tchromosome\tP1\tP2\n"

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "expr.tsv"
        path.write_text(self.HEADER + "\ng1\t1\t0.5\t1\n\n\ng2\t1\t2\tinf\n")
        with pytest.raises(FormatError) as exc:
            read_expression_table(path)
        assert str(exc.value) == f"{path}:6:4: non-finite value inf for patient 'P2'"

    def test_crlf_reads_like_lf(self, tmp_path):
        text = self.HEADER + "g1\t1\t0.5\t-1e-05\n\ng2\tX\t3\t0.1\n"
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        (p_lf, t_lf), (p_crlf, t_crlf) = read_expression_table(lf), read_expression_table(crlf)
        assert p_crlf == p_lf == ["P1", "P2"]
        assert t_crlf.ids.tolist() == t_lf.ids.tolist() == ["g1", "g2"]
        assert t_crlf["chromosome"].tolist() == ["1", "X"]
        assert np.array_equal(t_crlf.values, t_lf.values)
        assert t_lf.values.tolist() == [[0.5, -1e-05], [3.0, 0.1]]

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_header_without_rows_is_a_format_error(self, tmp_path, body):
        path = tmp_path / "expr.tsv"
        path.write_text(self.HEADER + body)
        with pytest.raises(FormatError) as exc:
            read_expression_table(path)
        assert str(exc.value) == f"{path}: no data rows"

    @pytest.mark.parametrize("raw, lineno", [
        (b"gene_id\tchromosome\tP\xe91\tP2\ng1\t1\t0\t0\n", 1),
        (HEADER.encode() + b"g1\t1\t0\t0\r\n\r\ng\xe92\t1\t0\t0\r\n", 4),
        (HEADER.encode() + b"g1\t1\t0\t0\rg\xe92\t1\t0\t0\r", 3),
        (HEADER.encode() + b"g\t1\t0\t0\n" * 3000 + b"g\xe9\t1\t0\t0\n", 3002),
    ])
    def test_non_utf8_byte_names_its_line(self, tmp_path, raw, lineno):
        path = tmp_path / "expr.tsv"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as exc:
            read_expression_table(path)
        assert str(exc.value) == f"{path}:{lineno}: not UTF-8 text (byte 0xe9)"

    @pytest.mark.parametrize("row, got", [("g1\t1\t0.5", 3), ("g1\t1\t0.5\t1\t2", 5)])
    def test_short_and_long_rows(self, tmp_path, row, got):
        path = tmp_path / "expr.tsv"
        path.write_text(self.HEADER + "g0\t1\t0\t0\n\n" + row + "\n")
        with pytest.raises(FormatError) as exc:
            read_expression_table(path)
        assert str(exc.value) == f"{path}:4: expected 4 columns, got {got}"

    @pytest.mark.parametrize("text", ["1_0", "abc", "", "0x10", "１"])
    def test_value_the_reader_rejects_names_its_line(self, tmp_path, text):
        # float() accepts "1_0" and the full-width digit; the reader does not
        path = tmp_path / "expr.tsv"
        path.write_text(self.HEADER + "g1\t1\t0.5\t1\n\ng2\t1\t2\t" + text + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            read_expression_table(path)
        assert str(exc.value) == f"{path}:4:4: non-numeric value {text!r} for patient 'P2'"

    def test_a_bad_last_value_is_found_in_a_logarithmic_number_of_parses(
        self, tmp_path, monkeypatch
    ):
        n = 2000
        path = tmp_path / "expr.tsv"
        lines = [f"g{i}\t1\t{i}\t0.5\n" for i in range(n - 1)] + [f"g{n}\t1\t1\tabc\n"]
        path.write_text(self.HEADER + "".join(lines))
        calls, loadtxt = [], np.loadtxt

        def counted(*args, **kwargs):
            calls.append(1)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        with pytest.raises(FormatError) as exc:
            read_expression_table(path)
        assert str(exc.value) == f"{path}:{n + 1}:4: non-numeric value 'abc' for patient 'P2'"
        # the C pass, one parse per halving of the n lines, one per value column of the last
        assert len(calls) <= 1 + n.bit_length() + 2

    @pytest.mark.parametrize("row, cells", [
        ("g1\t1\t9\t9", 2),  # a repeated id: the C pass parsed every value
        ("g2\t1\t1e101\t9", 2),  # a value beyond the bound: likewise
        ("g2\t1\tabc\t9", 4),  # a value the C pass could not parse
    ])
    def test_a_rejected_table_is_read_again_once(self, tmp_path, monkeypatch, row, cells):
        path = tmp_path / "expr.tsv"
        path.write_text(self.HEADER + "g1\t1\t0.5\t1\n" + row + "\n")
        reads, read_tsv = [], jointmix.dataset._read_tsv

        def counted(*args):
            header, linenos, rows = read_tsv(*args)
            reads.append({len(r) for r in rows})
            return header, linenos, rows

        monkeypatch.setattr(jointmix.dataset, "_read_tsv", counted)
        with pytest.raises(InputError):
            read_expression_table(path)
        assert reads == [{cells}]


class TestTwin:
    """A table's binary twin is read in place of the parse only when it matches the TSV."""

    PATIENTS = ["P1", "P2"]

    def write(self, path, ids=("g1", "g2", "g3"), values=((0.5, -0.0), (1e-7, 2.0), (3.0, 4.5))):
        """An expression TSV of ``ids`` and ``values`` on chromosome 1, with its twin."""
        chromosomes = ["1"] * len(ids)
        write_expression_table(path, list(ids), chromosomes, self.PATIENTS, np.array(values))
        _write_twin(path, self.PATIENTS, [list(ids), chromosomes], values)
        return path

    @staticmethod
    def read(path, monkeypatch):
        """``read_expression_table(path)`` and whether it parsed the TSV's values."""
        parses, load_rows = [], jointmix.dataset._load_rows
        with monkeypatch.context() as m:
            m.setattr(jointmix.dataset, "_load_rows",
                      lambda *args: parses.append(1) or load_rows(*args))
            return read_expression_table(path), bool(parses)

    def assert_parsed(self, path, monkeypatch):
        """Reading ``path`` parses it, and gives what it gives with no twin."""
        (patients, table), parsed = self.read(path, monkeypatch)
        assert parsed
        twin = jointmix.dataset._twin_path(path)
        twin.rename(path.with_name("aside"))
        try:
            want_patients, want = read_expression_table(path)
        finally:
            path.with_name("aside").rename(twin)
        assert patients == want_patients
        assert table.values.tobytes() == want.values.tobytes()
        assert {k: c.tolist() for k, c in table.columns.items()} == {
            k: c.tolist() for k, c in want.columns.items()}

    def test_a_matching_twin_is_read_and_its_digest_kept(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "e.tsv")
        (patients, table), parsed = self.read(path, monkeypatch)
        assert not parsed and patients == self.PATIENTS and table.path == path
        assert table.values.tolist() == [[0.5, 0.0], [1e-7, 2.0], [3.0, 4.5]]
        assert np.signbit(table.values).sum() == 0  # the TSV's "0" is +0.0
        assert table["gene_id"].tolist() == ["g1", "g2", "g3"] and table["gene_id"].dtype == "<U2"
        digests = {}
        read_expression_table(path, digests)
        assert digests == {path: hashlib.sha256(path.read_bytes()).hexdigest()}

    def test_values_written_in_row_blocks_make_one_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jointmix.dataset, "FORMAT_BLOCK_CELLS", 4)  # two rows a block
        values = np.arange(10.0).reshape(5, 2) - 4.5
        values[1, 1] = -0.0
        path = self.write(tmp_path / "e.tsv", [f"g{i}" for i in range(5)], values)
        with open(jointmix.dataset._twin_path(path), "rb") as fh:
            for _ in range(3):
                np.lib.format.read_array(fh)
            record = fh.read()
        whole = io.BytesIO()
        np.lib.format.write_array(whole, values + 0.0)
        assert record == whole.getvalue()

    def test_twins_of_one_table_are_byte_identical(self, tmp_path):
        a, b = self.write(tmp_path / "a" / "e.tsv"), self.write(tmp_path / "b" / "e.tsv")
        twin = jointmix.dataset._twin_path
        assert twin(a).read_bytes() == twin(b).read_bytes()

    def test_a_stale_twin_is_passed_over(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "e.tsv")
        path.write_text(path.read_text().replace("4.5", "4.25"))
        self.assert_parsed(path, monkeypatch)
        assert read_expression_table(path)[1].values[2, 1] == 4.25

    @pytest.mark.parametrize("keep", [0, 6, 100, -300, -8, -1])
    def test_a_truncated_twin_is_passed_over(self, tmp_path, monkeypatch, keep):
        path = self.write(tmp_path / "e.tsv")
        twin = jointmix.dataset._twin_path(path)
        twin.write_bytes(twin.read_bytes()[:keep])
        self.assert_parsed(path, monkeypatch)

    def test_a_twin_with_bytes_after_its_records_is_passed_over(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "e.tsv")
        twin = jointmix.dataset._twin_path(path)
        twin.write_bytes(twin.read_bytes() + b"\0")
        self.assert_parsed(path, monkeypatch)

    def test_the_twin_of_another_table_is_passed_over(self, tmp_path, monkeypatch):
        other = self.write(tmp_path / "other.tsv", values=((9.0, 9.0),) * 3)
        path = self.write(tmp_path / "e.tsv")
        jointmix.dataset._twin_path(path).write_bytes(
            jointmix.dataset._twin_path(other).read_bytes())
        self.assert_parsed(path, monkeypatch)

    @pytest.mark.parametrize("record, change", [
        (1, lambda a: a.astype(object)),
        (2, lambda a: a.astype(object)),
        (3, lambda a: a.astype(object)),
        (3, np.asfortranarray),
        (3, lambda a: a.astype(">f8")),
        (3, lambda a: a.astype(np.float32)),
        (3, lambda a: a[:, :1]),
        (2, lambda a: a.astype(">U2")),
        (2, lambda a: a.astype("S2")),
        (2, lambda a: a[:1]),
    ], ids=["object-patients", "object-columns", "object-values", "fortran-values",
            "big-endian-values", "float32-values", "one-patient", "big-endian-columns",
            "bytes-columns", "one-column"])
    def test_a_twin_holding_other_arrays_is_passed_over(self, tmp_path, monkeypatch, record, change):
        path = self.write(tmp_path / "e.tsv")
        twin = jointmix.dataset._twin_path(path)
        with open(twin, "rb") as fh:
            records = [np.lib.format.read_array(fh) for _ in range(4)]
        records[record] = change(records[record])
        with open(twin, "wb") as fh:
            for r in records:
                np.lib.format.write_array(fh, r, allow_pickle=True)
        self.assert_parsed(path, monkeypatch)

    @pytest.mark.parametrize("ids, values, error", [
        (("g1", "g2", "g1"), ((1.0, 2.0),) * 3, DuplicateIdError),
        (("g1", "g2", "g3"), ((1.0, 2.0), (1.0, 1e300), (1.0, 2.0)), FormatError),
    ], ids=["repeated-id", "1e300"])
    def test_a_twin_of_a_bad_table_raises_the_parse_message(
        self, tmp_path, monkeypatch, ids, values, error
    ):
        path = self.write(tmp_path / "e.tsv", ids, values)
        with monkeypatch.context() as m:
            m.setattr(jointmix.dataset, "_load_rows", lambda *args: pytest.fail("parsed"))
            with pytest.raises(error) as via_twin:
                read_expression_table(path)
        jointmix.dataset._twin_path(path).unlink()
        with pytest.raises(error) as parsed:
            read_expression_table(path)
        assert str(via_twin.value) == str(parsed.value)
        assert str(parsed.value).startswith(f"{path}:")
