"""``cli.main`` on generated input tables, well formed or not.

Every run of ``preprocess``, ``fit`` and ``baseline`` must end with a
defined exit code and no traceback or warning, and a failed run must
say where its input is at fault: a file, or a chromosome and the
entity it could not fit.
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from jointmix.cli import main

CLI_PROPERTY = settings(max_examples=100, derandomize=True, deadline=None)

# Ids and names with a tab or a line end in them break their line; the
# others hold text the reader must keep as it is.
IDS = ["g1", "g2", "g3", "g#4", 'g"5', "gé6", "g 7", "中8", "g\t9", "g\r10"]
PATIENTS = ["P1", "P2", "P#3", 'P"4', "Pé5", "P\t6"]
CHROMOSOMES = ["1", "2", "X"]
ENDINGS = ["\n", "\r\n", "\r"]
# Raw counts and beta values: in their domains, at and past the reader's
# bound, and outside the domain.
COUNTS = [0.0, 1.0, 3.0, 17.0, 250.0, 1e100, 1.5e100, -1e100, -2.0]
BETAS = [0.0, 0.1, 0.5, 0.9, 1.0, 1e100, -1e100, 1.5, -0.5]
# Model-ready values: log-fold changes and M-value differences.
CHANGES = [-4.0, -1.0, 0.0, 0.5, 3.0, 1e100, -1e100, 1.5e100]


@st.composite
def cohorts(draw):
    """Genes on a few chromosomes, CpGs under them (none under some) and, maybe, orphans."""
    genes = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=7, unique=True))
    chroms = [draw(st.sampled_from(CHROMOSOMES)) for _ in genes]
    cpgs = [(f"c{len(genes)}_{i}{j}", g, c) for i, (g, c) in enumerate(zip(genes, chroms))
            for j in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):  # a CpG whose gene is in no expression table
        cpgs.insert(draw(st.integers(0, len(cpgs))), ("c_orphan", "gX", "1"))
    patients = draw(st.lists(st.sampled_from(PATIENTS), min_size=1, max_size=3, unique=True))
    return genes, chroms, cpgs, patients


@st.composite
def value_block(draw, rows, cols, values):
    """A rows x cols block: free values, or constant rows, or one constant."""
    shape = draw(st.sampled_from(["free", "free", "constant rows", "constant"]))
    if shape == "constant":
        v = draw(st.sampled_from(values))
        return [[v] * cols for _ in range(rows)]
    if shape == "constant rows":
        return [[draw(st.sampled_from(values))] * cols for _ in range(rows)]
    return [[draw(st.sampled_from(values)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def table_text(draw, header, fixed, values):
    """The text of a table: ``fixed`` cells then ``values`` per row, blank lines and line ends drawn."""
    lines = ["\t".join(header)]
    for cells, row in zip(fixed, values):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        lines.append("\t".join([*cells, *map(repr, row)]))
    end = draw(st.sampled_from(ENDINGS))
    return end.join(lines) + end * draw(st.integers(0, 1))


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def run(argv, inputs):
    """Run ``main`` and check its exit code and stderr; returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err and "Warning" not in err, err
    if code:
        failures = [line for line in err.splitlines()
                    if line.startswith(("error: ", "fit error: ", "chromosome "))]
        assert failures, err
        for line in failures:
            assert names_its_fault(line, inputs), line
    return code


def names_its_fault(line, inputs):
    """Whether ``line`` names an input file, or a chromosome and the entity it could not fit.

    The entities are genes and CpGs, which the baseline calls the rows
    of its one table. A filter that keeps no gene or no CpG is a fault
    of no one file, and says which filter it was.
    """
    if any(str(path) in line for path in inputs):
        return True
    if re.match(r"chromosome .+ failed: .*\b(gene|genes|CpG|cpg|rows)\b", line):
        return True
    return line in ("error: no gene has a total count above the count threshold 5",
                    "error: no CpG is left: none maps to a gene that passed filtering")


@CLI_PROPERTY
@given(cohorts(), st.sampled_from(["strict", "lenient"]), st.data())
def test_every_run_ends_in_a_defined_exit_and_names_its_fault(tmp_path_factory, cohort, mode,
                                                               data):
    genes, chroms, cpgs, patients = cohort
    out = tmp_path_factory.mktemp("cli")
    n = len(patients)
    gene_cells = [[g, c] for g, c in zip(genes, chroms)]
    cpg_cells = [list(c) for c in cpgs]

    def table(name, fixed_header, fixed, values):
        header = [*fixed_header, *patients]
        block = data.draw(value_block(len(fixed), n, values))
        return write(out / f"{name}.tsv", data.draw(table_text(header, fixed, block)))

    raw = {
        f"expression_{c}": table(f"expression_{c}", ["gene_id", "chromosome"], gene_cells, COUNTS)
        for c in "ab"
    } | {
        f"methylation_{c}": table(f"methylation_{c}", ["cpg_id", "gene_id", "chromosome"],
                                  cpg_cells, BETAS)
        for c in "ab"
    }
    flags = [a for name, path in raw.items() for a in (f"--{name.replace('_', '-')}", path)]
    run(["preprocess", *flags, "--mode", mode, "--out", out / "prep"], raw.values())

    expr = table("expression", ["gene_id", "chromosome"], gene_cells, CHANGES)
    meth = table("methylation", ["cpg_id", "gene_id", "chromosome"], cpg_cells, CHANGES)
    run(["fit", "--expression", expr, "--methylation", meth, "--mode", mode,
         "--out", out / "fit"], [expr, meth])
    for layer, path in (("expression", expr), ("methylation", meth)):
        run(["baseline", "--input", path, "--layer", layer, "--out", out / layer], [path])
