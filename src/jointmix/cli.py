"""Single executable exposing the full workflow.

Subcommands: preprocess, simulate, fit, baseline, evaluate, benchmark,
timing. Every subcommand takes ``--out``, ``--force`` and
``--log-level``; ``simulate``, ``benchmark`` and ``timing`` also take
``--seed``, and ``fit``, ``baseline`` and ``benchmark`` ``--threads``,
the most worker processes that fit chromosomes or replicates, or render
row ranges of the result tables, at once.
Every run writes a ``manifest.json`` recording resolved parameters,
input digests and wall-clock duration; data outputs are
byte-reproducible given identical inputs and seed, for any ``--threads``
value. Exit codes: 0 success, 1 input/validation error, 2 numerical or
convergence failure, 3 partial per-chromosome failure with the
remaining outputs written. An input table without data rows is an input
error, and so is a ``preprocess`` run that keeps no gene or no CpG.
``fit`` and ``baseline`` log their non-convergence and collapsed-fit
warnings first, then print one failure line per failed chromosome, each
in label order.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, joint_em
from .baseline import fit_independent
from .dataset import (
    TWIN_SUFFIX,
    _open_text,
    _require_at_least,
    _run_each,
    _sha256,
    _write_twin,
    align_patients,
    gather,
    load_paired_dataset,
    read_expression_table,
    read_methylation_table,
    read_predicted_labels,
    read_truth_table,
    resolve_cpg_parents,
    write_expression_table,
    write_json,
    write_methylation_table,
)
from .errors import DataDomainError, FitError, FormatError, InputError
from .evaluate import benchmark, score_labels, simulated_dataset
from .joint_em import _check_settings, _collapse, _warn_if_collapsed, fit, fit_all_chromosomes
from .preprocess import (
    DEFAULT_BETA_EPS,
    DEFAULT_COUNT_THRESHOLD,
    DEFAULT_PSEUDOCOUNT,
    derive_model_inputs,
)
from .reports import (
    independent_model_payload,
    label_names,
    write_benchmark_tables,
    write_joint_results,
    write_layer_tables,
    write_metric_report,
    write_tsv,
)
from .simulate import SimConfig, replicate_batch, simulate, write_simulation

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class _CommandParser(_Parser):
    """A subcommand's parser, which reports an argument it does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, rest = super().parse_known_args(args, namespace)
        if rest:
            self.error(f"unrecognized arguments: {' '.join(rest)}")
        return namespace, rest


def _common_parser() -> _Parser:
    """The flags every subcommand accepts; they set up a run and are not its parameters."""
    common = _Parser(add_help=False)
    common.add_argument("--out", help="output directory (required)")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")
    common.add_argument(
        "--log-level", default="warning",
        choices=["debug", "info", "warning", "error"], help="stderr log level",
    )
    return common


_NOT_OWN = {"subcommand", "func", *(action.dest for action in _common_parser()._actions)}


def _own_flags(args, *leave_out) -> dict:
    """The values of the subcommand's own flags by destination, less ``leave_out``."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_OWN and k not in leave_out}


def _write_manifest(out_dir, args, input_paths, started, parameters=None, digests=None,
                    **extra) -> None:
    """Write ``manifest.json``; ``parameters`` default to the subcommand's own flags.

    An input in the dict ``digests``, where the table readers put the
    sha256 they took to check a twin, is not hashed again.
    """
    payload = {
        "tool": "jointmix",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": _own_flags(args) if parameters is None else parameters,
        "input_digests": {str(Path(p)): (digests or {}).get(Path(p)) or _sha256(p)
                          for p in input_paths},
        "duration_s": round(time.perf_counter() - started, 6),
        **extra,
    }
    write_json(Path(out_dir) / "manifest.json", payload)


def _prepare_out(args, filenames) -> Path:
    """The ``--out`` directory: it must be given, and hold none of ``filenames`` unless ``--force``.

    Nothing is created: the writers, ``dataset._write_tables`` and
    ``dataset.write_json``, make the directory as they open the first file,
    so a rejected run leaves no ``--out`` behind. An ``--out`` that is a
    file, or lies below one, raises here the error that making it would
    raise, before any input is read.
    """
    if not args.out:
        raise InputError("--out is required")
    out = Path(args.out)
    try:
        out.stat()  # raises the NotADirectoryError of an --out below a file
    except FileNotFoundError:
        pass
    else:
        if not out.is_dir():
            out.mkdir()  # raises the FileExistsError of an --out that is a file
    clobber = [n for n in filenames if (out / n).exists()]
    if clobber and not args.force:
        raise InputError(
            f"would overwrite {', '.join(clobber)} in {out}; pass --force to allow"
        )
    return out


def _read_in_domain(path, reader, outside, what):
    """``reader(path)``; a value for which ``outside`` holds is a DataDomainError naming its cell.

    The message describes the value as ``what.format(value)``.
    """
    patients, table = reader(path)
    rows, cols = np.nonzero(outside(table.values))
    if len(rows):
        row, col = int(rows[0]), int(cols[0])
        raise DataDomainError(table.locate(
            f"{what.format(float(table.values[row, col]))} for patient {patients[col]!r}", row, col
        ))
    return patients, table


def _aligned_condition_pair(path_a, path_b, reader, outside, what):
    """Read one omics layer's two condition files and align rows/columns.

    A value for which ``outside`` holds is rejected at its cell (see
    :func:`_read_in_domain`). Rows align by identifier (first column),
    patients by header name; identifier sets and the other annotation
    columns must agree. Returns the patients and table of file A, file
    B's values, and the rows and columns of those values that put them in
    file A's order, for the caller to :func:`gather` with a selection of
    its own.
    """
    patients_a, a = _read_in_domain(path_a, reader, outside, what)
    patients_b, b = _read_in_domain(path_b, reader, outside, what)
    order = align_patients(path_a, patients_a, path_b, patients_b)
    if np.array_equal(a.ids, b.ids):  # the rows in one order: no id to look up
        rows_b = np.arange(len(b))
    else:
        row_of = {rid: i for i, rid in enumerate(b.ids.tolist())}
        rows_b = np.array([row_of.get(rid, -1) for rid in a.ids.tolist()], dtype=np.intp)
    if len(a) != len(b) or (rows_b < 0).any():
        only_a, only_b = a.ids[rows_b < 0], b.ids[~np.isin(b.ids, a.ids)]
        lacking, rid = (path_b, only_a[0]) if len(only_a) else (path_a, only_b[0])
        raise FormatError(
            f"row sets differ between {path_a} and {path_b}: {lacking} lacks {str(rid)!r}"
        )
    for name, col in a.columns.items():
        differ = np.flatnonzero(col != b[name][rows_b])
        if len(differ):
            row = differ[0]
            raise FormatError(
                f"annotation mismatch for {str(a.ids[row])!r} between {path_a} and {path_b}: "
                f"{name} {str(col[row])!r} against {str(b[name][rows_b[row]])!r}"
            )
    return patients_a, a, b.values, rows_b, np.asarray(order, dtype=np.intp)


def cmd_preprocess(args) -> int:
    """Derive the model inputs, ``expression.tsv`` and ``methylation.tsv``, from raw condition pairs.

    Next to each table it writes its binary twin (``expression.tsv.arrays``,
    ``dataset._write_twin``): the table's arrays and the sha256 of its
    bytes, which ``fit`` and ``baseline`` read in place of parsing the
    table again. The raw inputs are parsed.
    """
    t0 = time.perf_counter()
    out = _prepare_out(args, ["expression.tsv", f"expression.tsv{TWIN_SUFFIX}", "methylation.tsv",
                              f"methylation.tsv{TWIN_SUFFIX}", "manifest.json"])
    patients, genes, counts_b, rows_b, cols_b = _aligned_condition_pair(
        args.expression_a, args.expression_b, read_expression_table,
        lambda v: v < 0, "negative count {!r}",
    )
    counts_a, counts_b = genes.values, gather(counts_b, rows_b, cols_b)
    mpatients, cpgs, betas_b, rows_b, cols_b = _aligned_condition_pair(
        args.methylation_a, args.methylation_b, read_methylation_table,
        lambda v: (v < 0) | (v > 1), "beta value {!r} outside [0, 1]",
    )
    morder = align_patients(args.expression_a, patients, args.methylation_a, mpatients)
    kept, gene_idx = resolve_cpg_parents(genes, cpgs, args.mode)
    # one gather per matrix at most: none when the files align and every CpG is kept
    betas_a = gather(cpgs.values, kept, morder)
    betas_b = gather(betas_b, rows_b[kept], cols_b[morder])

    try:
        kept_g, x, kept_c, y = derive_model_inputs(
            counts_a, counts_b, betas_a, betas_b, gene_idx,
            count_threshold=args.count_threshold,
            pseudocount=args.pseudocount,
            beta_eps=args.beta_eps,
        )
    except DataDomainError as exc:
        if exc.where is None:
            raise
        condition, column = exc.where
        path = args.expression_a if condition == "a" else args.expression_b
        raise DataDomainError(
            f"{path}: patient {patients[column]!r} has zero library size after filtering"
        ) from None
    gene_cols = [col[kept_g] for col in genes.columns.values()]
    write_expression_table(out / "expression.tsv", *gene_cols, patients, x)
    _write_twin(out / "expression.tsv", patients, gene_cols, x)
    cpg_cols = [col[kept[kept_c]] for col in cpgs.columns.values()]
    write_methylation_table(out / "methylation.tsv", *cpg_cols, patients, y)
    _write_twin(out / "methylation.tsv", patients, cpg_cols, y)
    inputs = [args.expression_a, args.expression_b, args.methylation_a, args.methylation_b]
    _write_manifest(out, args, inputs, t0)
    return 0


def _read_pi_file(path) -> list[list[float]]:
    """The whitespace-separated matrix of ``--pi-file``, one row per line.

    Blank lines and text after ``#`` are skipped. A cell that is not a
    finite number, or a row whose length differs from the first row's,
    is a :class:`FormatError` naming ``path:line``; the 3 x 3 shape and
    the column sums are checked by ``SimConfig.resolve_pi``.
    """
    rows = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.split("#", 1)[0].split()
            if not cells:
                continue
            where = f"{path}:{lineno}"
            try:
                row = [float(cell) for cell in cells]
            except ValueError:
                raise FormatError(f"{where}: expected numbers, got {line.strip()!r}") from None
            if not np.isfinite(row).all():
                raise FormatError(f"{where}: non-finite entry in {line.strip()!r}")
            if rows and len(row) != len(rows[0]):
                raise FormatError(f"{where}: {len(row)} entries, expected {len(rows[0])}")
            rows.append(row)
    return rows


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    pi = None
    if args.pi_file:
        pi = _read_pi_file(args.pi_file)
    cfg = SimConfig(
        n_genes=args.genes,
        n_patients=args.patients,
        case=args.case,
        pi=pi,
        seed=args.seed,
    )
    cfg.validate()
    cfg.resolve_pi()
    if args.replicates < 1:
        raise InputError(f"--replicates must be at least 1, got {args.replicates}")
    single = ["expression_a.tsv", "expression_b.tsv", "methylation_a.tsv",
              "methylation_b.tsv", "truth.tsv", "sim_config.json"]
    if args.replicates == 1:
        out = _prepare_out(args, single + ["manifest.json"])
        write_simulation(simulate(cfg), out)
    else:
        names = [f"rep{r:03d}" for r in range(args.replicates)]
        out = _prepare_out(args, names + ["manifest.json"])
        for r, sim in enumerate(replicate_batch(cfg, args.replicates)):
            write_simulation(sim, out / f"rep{r:03d}")
    inputs = [args.pi_file] if args.pi_file else []
    _write_manifest(out, args, inputs, t0, {**cfg.to_dict(), "replicates": args.replicates})
    return 0


def _finish_fits(out, args, input_paths, digests, started, results, failures) -> int:
    """End a per-chromosome fit command once its results are written.

    Prints a ``chromosome ... failed`` line per failure in label order,
    writes the manifest, taking the input digests the readers put in
    ``digests``, with the unconverged labels and the collapsed
    ones (those warned of by ``joint_em._warn_if_collapsed``) and returns
    the exit code: 0, 3 if some chromosomes failed, 2 if all did.
    """
    for label in sorted(failures):
        print(f"chromosome {label} failed: {failures[label]}", file=sys.stderr)
    _write_manifest(
        out, args, input_paths, started, digests=digests,
        unconverged=sorted(label for label, r in results.items() if not r.converged),
        collapsed=sorted(label for label, r in results.items() if any(_collapse(r.params))),
    )
    if failures:
        return 3 if results else 2
    return 0


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    out = _prepare_out(args, ["model.json", "gene_results.tsv", "cpg_results.tsv", "manifest.json"])
    _require_at_least("threads", args.threads, 1)
    settings = _own_flags(args, "expression", "methylation", "mode", "threads")
    _check_settings(**settings)
    digests = {}
    ds = load_paired_dataset(args.expression, args.methylation, args.mode, digests)
    results, failures = fit_all_chromosomes(ds, args.threads, **settings)
    if results:
        write_joint_results(out, ds, results, args.K, args.L, args.threads)
    return _finish_fits(out, args, [args.expression, args.methylation], digests, t0,
                        results, failures)


def cmd_baseline(args) -> int:
    t0 = time.perf_counter()
    expression = args.layer == "expression"
    results_name = "gene_results.tsv" if expression else "cpg_results.tsv"
    out = _prepare_out(args, [results_name, "model.json", "manifest.json"])
    _require_at_least("threads", args.threads, 1)
    _check_settings(args.k, args.quantile, args.tol, args.max_iter)
    digests = {}
    _, table = (read_expression_table if expression else read_methylation_table)(args.input, digests)
    labels, chrom = np.unique(table["chromosome"], return_inverse=True)
    rows_of = {label: np.flatnonzero(chrom == i) for i, label in enumerate(labels.tolist())}
    fits, failures = _run_each(
        lambda rows: fit_independent(gather(table.values, rows), K=args.k, q=args.quantile,
                                     tol=args.tol, max_iter=args.max_iter),
        rows_of, args.threads, FitError,
    )
    for label, res in fits.items():
        if not res.converged:
            logger.warning("chromosome %s did not converge in %d iterations", label, res.n_iters)
        _warn_if_collapsed(label, res.params)
    if fits:
        write_layer_tables([(
            out / results_name, table.columns,
            lambda rows: [col[rows] for col in table.columns.values()],
            [(rows_of[label], res.layer) for label, res in fits.items()],
            label_names("gene" if expression else "cpg", args.k),
        )], args.threads)
        write_json(out / "model.json", independent_model_payload(args.k, fits))
    return _finish_fits(out, args, [args.input], digests, t0, fits, failures)


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    out = _prepare_out(args, ["evaluation.tsv", "evaluation.json", "manifest.json"])
    truth = read_truth_table(args.truth, args.layer)
    linenos, pairs = read_predicted_labels(args.predicted, args.layer)
    unknown = [(lineno, i) for lineno, (i, _) in zip(linenos, pairs) if i not in truth]
    if unknown:
        lineno, rid = unknown[0]
        raise InputError(
            f"{args.predicted}:{lineno}: {args.layer} id {rid!r} is not in {args.truth} "
            f"({len(unknown)} predicted ids missing from truth)"
        )
    report = score_labels([truth[i] for i, _ in pairs], [lab for _, lab in pairs])
    write_metric_report(out, report, args.layer)
    _write_manifest(out, args, [args.truth, args.predicted], t0)
    return 0


def cmd_benchmark(args) -> int:
    t0 = time.perf_counter()
    if args.replicates < 2:
        raise InputError(f"--replicates must be at least 2, got {args.replicates}")
    out = _prepare_out(
        args,
        ["benchmark_summary.tsv", "benchmark_replicates.tsv", "benchmark.json", "manifest.json"],
    )
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    cfg = SimConfig(n_genes=args.genes, n_patients=args.patients, seed=args.seed)
    result = benchmark(
        args.case, args.replicates, methods=methods, cfg=cfg, threads=args.threads
    )
    write_benchmark_tables(out, result)
    _write_manifest(out, args, [], t0, {**_own_flags(args), "methods": list(methods)})
    if result.failures and len(result.failures) == args.replicates:
        return 2
    return 0


# The same outer iterations and inner sweeps at every patient count.
TIMING_FIT_BUDGET = dict(outer_max=20, outer_tol=0.0, inner_max=10, inner_tol=0.0)


def timing_probe(patient_counts, base_cfg: SimConfig, repeats=1):
    """Simulate and fit at each patient count, reporting fit wall-clock.

    Fits run under the fixed ``TIMING_FIT_BUDGET`` so the wall-clock
    reflects per-iteration cost rather than data-dependent convergence
    speed. Returns rows (n_patients, n_genes, n_cpgs, seconds); seconds
    is the minimum over ``repeats`` timed fits of the same dataset;
    ``repeats`` below 1 is a :class:`ParameterError`.
    """
    _require_at_least("repeats", repeats, 1)
    rows = []
    for n in patient_counts:
        sim = simulate(replace(base_cfg, n_patients=int(n)))
        ds, _, _ = simulated_dataset(sim)
        elapsed = []
        for _ in range(repeats):
            started = time.perf_counter()
            fit(ds, **TIMING_FIT_BUDGET)
            elapsed.append(time.perf_counter() - started)
        rows.append((int(n), ds.n_genes, ds.n_cpgs, min(elapsed)))
    return rows


def cmd_timing(args) -> int:
    t0 = time.perf_counter()
    counts = []
    for cell in filter(None, (s.strip() for s in args.patients.split(","))):
        try:
            counts.append(int(cell))
        except ValueError:
            raise InputError(f"--patients: {cell!r} is not a whole number") from None
    if not counts:
        raise InputError("--patients must list at least one patient count")
    if args.repeats < 1:
        raise InputError(f"--repeats must be at least 1, got {args.repeats}")
    out = _prepare_out(args, ["timing.tsv", "manifest.json"])
    cfg = SimConfig(n_genes=args.genes, seed=args.seed)
    rows = timing_probe(counts, cfg, repeats=args.repeats)
    write_tsv(out / "timing.tsv", ["n_patients", "n_genes", "n_cpgs", "seconds"], rows)
    _write_manifest(out, args, [], t0, {**_own_flags(args), "patients": counts})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="jointmix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jointmix {__version__}")

    common = _common_parser()
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_CommandParser)

    p = sub.add_parser("preprocess", parents=[common],
                       help="raw condition pairs -> log-fold changes and M-value differences")
    p.add_argument("--expression-a", required=True)
    p.add_argument("--expression-b", required=True)
    p.add_argument("--methylation-a", required=True)
    p.add_argument("--methylation-b", required=True)
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    p.add_argument("--count-threshold", type=int, default=DEFAULT_COUNT_THRESHOLD)
    p.add_argument("--pseudocount", type=float, default=DEFAULT_PSEUDOCOUNT)
    p.add_argument("--beta-eps", type=float, default=DEFAULT_BETA_EPS)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate synthetic raw datasets with truth labels")
    p.add_argument("--case", type=int, choices=[1, 2, 3], default=1)
    p.add_argument("--pi-file", help="explicit 3x3 dependency matrix (whitespace table)")
    p.add_argument("--genes", type=int, default=500)
    p.add_argument("--patients", type=int, default=4)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common],
                       help="fit the joint model per chromosome")
    p.add_argument("--expression", required=True)
    p.add_argument("--methylation", required=True)
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    p.add_argument("--k", dest="K", type=int, default=3, help="gene clusters")
    p.add_argument("--l", dest="L", type=int, default=3, help="CpG clusters")
    p.add_argument("--quantile", dest="q", metavar="QUANTILE", type=float,
                   default=joint_em.DEFAULT_INIT_QUANTILE)
    p.add_argument("--outer-tol", type=float, default=joint_em.DEFAULT_OUTER_TOL)
    p.add_argument("--outer-max", type=int, default=joint_em.DEFAULT_OUTER_MAX)
    p.add_argument("--inner-tol", type=float, default=joint_em.DEFAULT_INNER_TOL)
    p.add_argument("--inner-max", type=int, default=joint_em.DEFAULT_INNER_MAX)
    p.add_argument("--threads", type=int, default=1, help="max worker processes")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("baseline", parents=[common],
                       help="independent per-layer mixture fit")
    p.add_argument("--input", required=True)
    p.add_argument("--layer", choices=["expression", "methylation"], required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--quantile", type=float, default=joint_em.DEFAULT_INIT_QUANTILE)
    p.add_argument("--tol", type=float, default=joint_em.DEFAULT_OUTER_TOL)
    p.add_argument("--max-iter", type=int, default=joint_em.DEFAULT_OUTER_MAX)
    p.add_argument("--threads", type=int, default=1, help="max worker processes")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score predicted labels against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--predicted", required=True)
    p.add_argument("--layer", choices=["gene", "cpg"], required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", parents=[common],
                       help="replicate simulations scored and aggregated")
    p.add_argument("--case", type=int, choices=[1, 2, 3], default=1)
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--methods", default="joint,independent")
    p.add_argument("--genes", type=int, default=500)
    p.add_argument("--patients", type=int, default=4)
    p.add_argument("--threads", type=int, default=1, help="max worker processes")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("timing", parents=[common],
                       help="fit wall-clock across patient counts")
    p.add_argument("--patients", default="4,40", help="comma-separated patient counts")
    p.add_argument("--genes", type=int, default=500)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
