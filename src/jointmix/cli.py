"""Single executable exposing the full workflow.

Subcommands: preprocess, simulate, fit, baseline, evaluate, benchmark,
timing. Every run writes a ``manifest.json`` recording resolved
parameters, input digests and wall-clock duration; data outputs are
byte-reproducible given identical inputs and seed, for any ``--threads``
value. Exit codes: 0 success, 1 input/validation error, 2 numerical or
convergence failure, 3 partial per-chromosome failure with the
remaining outputs written.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, joint_em
from .baseline import fit_independent
from .dataset import (
    _open_text,
    align_patients,
    load_paired_dataset,
    read_expression_table,
    read_methylation_table,
    read_predicted_labels,
    read_truth_table,
    resolve_cpg_parents,
    write_expression_table,
    write_methylation_table,
)
from .errors import FitError, FormatError, InputError, JointmixError
from .evaluate import benchmark, score_labels, simulated_dataset
from .joint_em import _run_each, fit, fit_all_chromosomes
from .preprocess import (
    DEFAULT_BETA_EPS,
    DEFAULT_COUNT_THRESHOLD,
    DEFAULT_PSEUDOCOUNT,
    derive_model_inputs,
)
from .reports import (
    format_lines,
    independent_model_payload,
    label_names,
    result_rows,
    results_header,
    write_benchmark_tables,
    write_json,
    write_joint_results,
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


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _common_parser() -> _Parser:
    """The flags every subcommand accepts; they set up a run and are not its parameters."""
    common = _Parser(add_help=False)
    common.add_argument("--out", help="output directory (required)")
    common.add_argument("--threads", type=int, default=1, help="max worker threads")
    common.add_argument("--seed", type=int, default=0, help="base random seed")
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


def _write_manifest(out_dir, args, input_paths, started, parameters=None, **extra) -> None:
    """Write ``manifest.json``; ``parameters`` default to the subcommand's own flags."""
    payload = {
        "tool": "jointmix",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": _own_flags(args) if parameters is None else parameters,
        "input_digests": {str(Path(p)): _sha256(p) for p in input_paths},
        "duration_s": round(time.perf_counter() - started, 6),
        "threads": args.threads,
        **extra,
    }
    write_json(Path(out_dir) / "manifest.json", payload)


def _prepare_out(args, filenames) -> Path:
    if not args.out:
        raise InputError("--out is required")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clobber = [n for n in filenames if (out / n).exists()]
    if clobber and not args.force:
        raise InputError(
            f"would overwrite {', '.join(clobber)} in {out}; pass --force to allow"
        )
    return out


def _aligned_condition_pair(path_a, path_b, reader):
    """Read one omics layer's two condition files and align rows/columns.

    Rows align by identifier (first column), patients by header name;
    identifier sets and the other annotation columns must agree.
    Returns the patients and table of file A and both value matrices
    in file A's row and column order.
    """
    patients_a, a = reader(path_a)
    patients_b, b = reader(path_b)
    order = align_patients(path_a, patients_a, path_b, patients_b)
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
    return patients_a, a, a.values, np.ascontiguousarray(b.values[rows_b][:, order])


def cmd_preprocess(args) -> int:
    t0 = time.perf_counter()
    out = _prepare_out(args, ["expression.tsv", "methylation.tsv", "manifest.json"])
    patients, genes, counts_a, counts_b = _aligned_condition_pair(
        args.expression_a, args.expression_b, read_expression_table
    )
    mpatients, cpgs, betas_a, betas_b = _aligned_condition_pair(
        args.methylation_a, args.methylation_b, read_methylation_table
    )
    morder = align_patients(args.expression_a, patients, args.methylation_a, mpatients)
    kept, gene_idx = resolve_cpg_parents(genes, cpgs, args.mode)
    betas_a = betas_a[np.ix_(kept, morder)]
    betas_b = betas_b[np.ix_(kept, morder)]

    kept_g, x, kept_c, y = derive_model_inputs(
        counts_a, counts_b, betas_a, betas_b, gene_idx,
        count_threshold=args.count_threshold,
        pseudocount=args.pseudocount,
        beta_eps=args.beta_eps,
    )
    write_expression_table(
        out / "expression.tsv",
        genes["gene_id"][kept_g].tolist(),
        genes["chromosome"][kept_g].tolist(),
        patients,
        x,
    )
    cpg_rows = kept[kept_c]
    write_methylation_table(
        out / "methylation.tsv",
        *(cpgs[name][cpg_rows].tolist() for name in cpgs.columns),
        patients,
        y,
    )
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


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    out = _prepare_out(args, ["model.json", "gene_results.tsv", "cpg_results.tsv", "manifest.json"])
    ds = load_paired_dataset(args.expression, args.methylation, mode=args.mode)
    results, failures = fit_all_chromosomes(
        ds, threads=args.threads, **_own_flags(args, "expression", "methylation", "mode")
    )
    for label in sorted(failures):
        print(f"chromosome {label} failed: {failures[label]}", file=sys.stderr)
    if results:
        write_joint_results(out, ds, results, args.K, args.L)
    _write_manifest(
        out, args, [args.expression, args.methylation], t0,
        unconverged=sorted(label for label, r in results.items() if not r.converged),
    )
    if failures:
        return 3 if results else 2
    return 0


def cmd_baseline(args) -> int:
    t0 = time.perf_counter()
    expression = args.layer == "expression"
    results_name = "gene_results.tsv" if expression else "cpg_results.tsv"
    out = _prepare_out(args, [results_name, "model.json", "manifest.json"])
    _, table = (read_expression_table if expression else read_methylation_table)(args.input)
    if not len(table):
        raise InputError(f"{args.input}: no data rows")
    labels, chrom = np.unique(table["chromosome"], return_inverse=True)
    rows_of = {label: np.flatnonzero(chrom == i) for i, label in enumerate(labels.tolist())}
    fits, failures = _run_each(
        lambda rows: fit_independent(table.values[rows], K=args.k, q=args.quantile,
                                     tol=args.tol, max_iter=args.max_iter),
        rows_of, args.threads, FitError,
    )
    covered = []
    for label, rows in rows_of.items():
        if label in failures:
            print(f"chromosome {label} failed: {failures[label]}", file=sys.stderr)
            continue
        res = fits[label]
        if not res.converged:
            logger.warning("chromosome %s did not converge in %d iterations", label, res.n_iters)
        covered.append((rows, res.layer))

    if fits:
        names = label_names("gene" if expression else "cpg", args.k)
        write_tsv(
            out / results_name,
            results_header(table.columns, names),
            result_rows(list(table.columns.values()), covered, names),
        )
        write_json(out / "model.json", independent_model_payload(args.k, fits))
    _write_manifest(
        out, args, [args.input], t0,
        unconverged=sorted(label for label, r in fits.items() if not r.converged),
    )
    if failures:
        return 3 if fits else 2
    return 0


def cmd_evaluate(args) -> int:
    t0 = time.perf_counter()
    out = _prepare_out(args, ["evaluation.tsv", "evaluation.json", "manifest.json"])
    truth = read_truth_table(args.truth)[args.layer]
    linenos, pairs = read_predicted_labels(args.predicted, args.layer)
    if not pairs:
        raise InputError(f"{args.predicted}: no data rows")
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
    _write_manifest(
        out, args, [], t0, {**_own_flags(args), "methods": list(methods), "seed": args.seed}
    )
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
    is the minimum over ``repeats`` timed fits of the same dataset.
    """
    rows = []
    for n in patient_counts:
        sim = simulate(replace(base_cfg, n_patients=int(n)))
        ds, _, _ = simulated_dataset(sim)
        best = None
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            fit(ds, **TIMING_FIT_BUDGET)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        rows.append((int(n), ds.n_genes, ds.n_cpgs, best))
    return rows


def cmd_timing(args) -> int:
    t0 = time.perf_counter()
    out = _prepare_out(args, ["timing.tsv", "manifest.json"])
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
    cfg = SimConfig(n_genes=args.genes, seed=args.seed)
    rows = timing_probe(counts, cfg, repeats=args.repeats)
    write_tsv(
        out / "timing.tsv", ["n_patients", "n_genes", "n_cpgs", "seconds"], format_lines(rows)
    )
    _write_manifest(out, args, [], t0, {**_own_flags(args), "patients": counts, "seed": args.seed})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="jointmix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jointmix {__version__}")

    common = _common_parser()
    sub = parser.add_subparsers(dest="subcommand", required=True)

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
    p.add_argument("--out-dir", dest="out", help=argparse.SUPPRESS)
    p.add_argument("--case", type=int, choices=[1, 2, 3], default=1)
    p.add_argument("--pi-file", help="explicit 3x3 dependency matrix (whitespace table)")
    p.add_argument("--genes", type=int, default=500)
    p.add_argument("--patients", type=int, default=4)
    p.add_argument("--replicates", type=int, default=1)
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
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("baseline", parents=[common],
                       help="independent per-layer mixture fit")
    p.add_argument("--input", required=True)
    p.add_argument("--layer", choices=["expression", "methylation"], required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--quantile", type=float, default=joint_em.DEFAULT_INIT_QUANTILE)
    p.add_argument("--tol", type=float, default=joint_em.DEFAULT_OUTER_TOL)
    p.add_argument("--max-iter", type=int, default=joint_em.DEFAULT_OUTER_MAX)
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
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("timing", parents=[common],
                       help="fit wall-clock across patient counts")
    p.add_argument("--patients", default="4,40", help="comma-separated patient counts")
    p.add_argument("--genes", type=int, default=500)
    p.add_argument("--repeats", type=int, default=1)
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
    except JointmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
