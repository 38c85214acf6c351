"""In-memory span tracing of the ``jointmix`` package, and the per-layer metrics.

A :class:`Tracer` wraps the public functions of the package modules from
outside: every name that holds one of them, in every ``jointmix`` module,
is rebound to a wrapper that records a span (name, start, end, parent
span, thread id) and, for a few functions, counts of the work done.
Nothing inside the program changes; :meth:`Tracer.uninstall` puts the
original objects back.

:func:`layer_metrics` turns the spans into the per-layer metrics named in
``LAYER_METRICS``. Each entry names the end-to-end metric the layer
should move, and on which workload.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

TRACED_MODULES = (
    "dataset", "preprocess", "joint_em", "baseline", "simulate", "evaluate", "reports", "cli",
)
# Called once per table cell; a span each would dwarf the work. Its time
# is inside the reports.write_tsv span.
NOT_WRAPPED = frozenset({"reports.format_cell"})

_current = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks start inside the submitter's span."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _values_read(args, kwargs, result):
    patients, rows = result
    return {"values": len(patients) * len(rows)}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _kept(args, kwargs, result):
    counts_a = args[0]
    cpg_gene_idx = args[4] if len(args) > 4 else kwargs["cpg_gene_idx"]
    kept_genes, _, kept_cpgs, _ = result
    return {
        "genes_in": len(counts_a), "genes_kept": len(kept_genes),
        "cpgs_in": len(cpg_gene_idx), "cpgs_kept": len(kept_cpgs),
    }


def _sweeps(args, kwargs, result):
    ds, params = args[0], args[1]
    per_sweep = ds.n_patients * (
        ds.n_genes * params.n_gene_clusters + ds.n_cpgs * params.n_cpg_clusters
    )
    return {"sweeps": result.n_sweeps, "score_evals": result.n_sweeps * per_sweep}


def _outer(args, kwargs, result):
    return {"outer_iters": result.n_outer_iters, "unconverged": int(not result.converged)}


def _threads(args, kwargs, result):
    return {"threads": kwargs.get("threads", 1)}


def _baseline_iters(args, kwargs, result):
    return {"iters": result.n_iters}


def _rows(args, kwargs, result):
    return {"rows": len(args[2])}


COUNTERS = {
    "dataset.read_expression_table": _values_read,
    "dataset.read_methylation_table": _values_read,
    "dataset.write_expression_table": _bytes_written,
    "dataset.write_methylation_table": _bytes_written,
    "preprocess.derive_model_inputs": _kept,
    "joint_em.e_step_fixed_point": _sweeps,
    "joint_em.fit": _outer,
    "joint_em.fit_all_chromosomes": _threads,
    "baseline.fit_independent": _baseline_iters,
    "reports.write_tsv": _rows,
}


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._lock = threading.Lock()
        self._rebound: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around the caller's own block; nested spans become its children."""
        span = Span(name, _current.get())
        self.spans.append(span)
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)

    @contextlib.contextmanager
    def installed(self, name):
        """The package traced, inside one span called ``name``, for the block."""
        self.install()
        try:
            with self.span(name):
                yield
        finally:
            self.uninstall()

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                self._count(name, counter(args, kwargs, result))
            return result

        return traced

    def _count(self, name, values) -> None:
        with self._lock:
            total = self.counts.setdefault(name, {})
            for key, v in values.items():
                total[key] = total.get(key, 0) + v
            total["calls"] = total.get("calls", 0) + 1

    def install(self) -> None:
        """Rebind every name that holds a traced function or the thread pool."""
        replacements = {id(ThreadPoolExecutor): _ContextPool}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"jointmix.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in NOT_WRAPPED):
                    replacements[id(obj)] = self._wrap(name, obj)
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "jointmix" or n.startswith("jointmix."))]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                new = replacements.get(id(obj))
                if new is not None:
                    self._rebound.append((module, attr, obj))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._rebound):
            setattr(module, attr, obj)
        self._rebound.clear()

    def export(self) -> list[list]:
        """Spans as [name, start, end, parent index, thread id] rows."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, None if s.parent is None else index[id(s.parent)], s.thread]
            for s in self.spans
        ]


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    covered = 0.0
    run_start = run_end = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return span.duration - covered


# name, unit, better, what it should move (end-to-end metric on workload)
LAYER_METRICS = (
    ("dataset.read_s", "s", "lower", "preprocess_s, fit_s on both cohorts"),
    ("dataset.values_read", "count", "lower", "preprocess_s, fit_s on both cohorts"),
    ("dataset.read_ns_per_value", "ns", "lower", "preprocess_s, fit_s; most on cohort_n40"),
    ("dataset.build_s", "s", "lower", "fit_s on cohort_n4; fit_s on simstudy_case3"),
    ("dataset.load_s", "s", "lower", "fit_s on cohort_n4"),
    ("dataset.split_s", "s", "lower", "fit_s on cohort_n4 only"),
    ("dataset.split_calls", "count", "lower", "fit_s on cohort_n4 only"),
    ("dataset.write_s", "s", "lower", "preprocess_s (most on cohort_n40), setup_s"),
    ("dataset.bytes_written", "bytes", "lower", "preprocess_s, setup_s"),
    ("preprocess.derive_s", "s", "lower", "preprocess_s; expected not to move"),
    ("preprocess.genes_kept_frac", "frac", "higher", "preprocess_s; a property of the input"),
    ("preprocess.cpgs_kept_frac", "frac", "higher", "preprocess_s; a property of the input"),
    ("joint_em.fit_all_s", "s", "lower", "fit_s on cohort_n4 only"),
    ("joint_em.chrom_fit_sum_s", "s", "lower", "fit_s on cohort_n4 only"),
    ("joint_em.chrom_fit_max_s", "s", "lower", "fit_s on cohort_n4 only"),
    ("joint_em.parallel_eff", "frac", "higher", "fit_s on cohort_n4 only"),
    ("joint_em.estep_s", "s", "lower", "fit_s on simstudy_case3, then cohort_n4; little on cohort_n40"),
    ("joint_em.estep_calls", "count", "lower", "fit_s on simstudy_case3, cohort_n4"),
    ("joint_em.inner_sweeps", "count", "lower", "fit_s on simstudy_case3, cohort_n4"),
    ("joint_em.estep_ms_per_sweep", "ms", "lower", "fit_s on simstudy_case3, cohort_n4"),
    ("joint_em.score_evals", "count_computed", "lower", "fit_s on simstudy_case3, cohort_n4"),
    ("joint_em.ns_per_score_eval", "ns", "lower", "fit_s on simstudy_case3, cohort_n4"),
    ("joint_em.mstep_s", "s", "lower", "fit_s on simstudy_case3"),
    ("joint_em.mstep_calls", "count", "lower", "fit_s on simstudy_case3"),
    ("joint_em.init_s", "s", "lower", "fit_s on simstudy_case3"),
    ("joint_em.outer_iters", "count", "lower", "fit_s on simstudy_case3"),
    ("joint_em.unconverged", "count", "lower", "fit_s on simstudy_case3"),
    ("baseline.fit_s", "s", "lower", "fit_s on simstudy_case3; pipeline_s on cohorts"),
    ("baseline.iters", "count", "lower", "fit_s on simstudy_case3; pipeline_s on cohorts"),
    ("simulate.simulate_s", "s", "lower", "fit_s on simstudy_case3; setup_s"),
    ("evaluate.simulated_dataset_s", "s", "lower", "fit_s on simstudy_case3"),
    ("evaluate.replicate_s", "s", "lower", "fit_s on simstudy_case3"),
    ("evaluate.score_s", "s", "lower", "fit_s on simstudy_case3"),
    ("reports.assemble_s", "s", "lower", "fit_s on cohort_n4 (most), cohort_n40"),
    ("reports.write_tsv_s", "s", "lower", "fit_s on cohort_n4 (most), cohort_n40"),
    ("reports.rows_written", "count", "lower", "fit_s on both cohorts"),
    ("reports.write_results_s", "s", "lower", "fit_s on cohort_n4 (most), cohort_n40"),
    ("cli.preprocess_self_s", "s", "lower", "preprocess_s"),
    ("cli.fit_self_s", "s", "lower", "fit_s on cohorts"),
    ("cli.baseline_self_s", "s", "lower", "pipeline_s on cohorts"),
    ("cli.evaluate_self_s", "s", "lower", "pipeline_s on cohorts"),
    ("cli.benchmark_self_s", "s", "lower", "fit_s on simstudy_case3"),
    ("trace.overhead_frac", "frac", "lower", "none: cost of tracing itself"),
)


def layer_metrics(tracer: Tracer, overhead_frac: float):
    """Per-layer metric values, plus a note for each that has no work to measure.

    Returns ``(values, notes)``; a metric without work reads 0 and its
    note says why.
    """
    spans = [s for s in tracer.spans if s.end is not None]
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def busy(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def count(name, key):
        return tracer.counts.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def under(span, ancestor):
        p = span.parent
        while p is not None:
            if p.name == ancestor:
                return True
            p = p.parent
        return False

    def cmd_self(cmd):
        spans_of_cmd = by_name.get(f"cli.cmd_{cmd}", ())
        return sum(self_time(s, children.get(id(s), [])) for s in spans_of_cmd)

    fit_all = "joint_em.fit_all_chromosomes"
    readers = ("dataset.read_expression_table", "dataset.read_methylation_table")
    chrom_fits = [s.duration for s in by_name.get("joint_em.fit", ()) if under(s, fit_all)]
    fit_all_s = busy(fit_all)
    threads = count(fit_all, "threads") / max(1, calls(fit_all))
    read_s = busy(*readers)
    values_read = sum(count(r, "values") for r in readers)
    estep_s = busy("joint_em.e_step_fixed_point")
    sweeps = count("joint_em.e_step_fixed_point", "sweeps")
    score_evals = count("joint_em.e_step_fixed_point", "score_evals")
    derive = "preprocess.derive_model_inputs"

    values = {
        "dataset.read_s": read_s,
        "dataset.values_read": values_read,
        "dataset.read_ns_per_value": ratio(read_s, values_read, 1e9),
        "dataset.build_s": busy("dataset.build_paired_dataset"),
        "dataset.load_s": busy("dataset.load_paired_dataset"),
        "dataset.split_s": busy("dataset.split_by_chromosome"),
        "dataset.split_calls": calls("dataset.split_by_chromosome"),
        "dataset.write_s": busy("dataset.write_expression_table", "dataset.write_methylation_table"),
        "dataset.bytes_written": count("dataset.write_expression_table", "bytes")
        + count("dataset.write_methylation_table", "bytes"),
        "preprocess.derive_s": busy(derive),
        "preprocess.genes_kept_frac": ratio(count(derive, "genes_kept"), count(derive, "genes_in")),
        "preprocess.cpgs_kept_frac": ratio(count(derive, "cpgs_kept"), count(derive, "cpgs_in")),
        "joint_em.fit_all_s": fit_all_s,
        "joint_em.chrom_fit_sum_s": sum(chrom_fits),
        "joint_em.chrom_fit_max_s": max(chrom_fits, default=0.0),
        "joint_em.parallel_eff": ratio(sum(chrom_fits), threads * fit_all_s),
        "joint_em.estep_s": estep_s,
        "joint_em.estep_calls": calls("joint_em.e_step_fixed_point"),
        "joint_em.inner_sweeps": sweeps,
        "joint_em.estep_ms_per_sweep": ratio(estep_s, sweeps, 1e3),
        "joint_em.score_evals": score_evals,
        "joint_em.ns_per_score_eval": ratio(estep_s, score_evals, 1e9),
        "joint_em.mstep_s": busy("joint_em.m_step"),
        "joint_em.mstep_calls": calls("joint_em.m_step"),
        "joint_em.init_s": busy("joint_em.initialize_quantile"),
        "joint_em.outer_iters": count("joint_em.fit", "outer_iters"),
        "joint_em.unconverged": count("joint_em.fit", "unconverged"),
        "baseline.fit_s": busy("baseline.fit_independent"),
        "baseline.iters": count("baseline.fit_independent", "iters"),
        "simulate.simulate_s": busy("simulate.simulate"),
        "evaluate.simulated_dataset_s": busy("evaluate.simulated_dataset"),
        "evaluate.replicate_s": busy("evaluate.run_replicate"),
        "evaluate.score_s": busy("evaluate.score_labels"),
        "reports.assemble_s": busy("reports.assemble_joint_result_rows"),
        "reports.write_tsv_s": busy("reports.write_tsv"),
        "reports.rows_written": count("reports.write_tsv", "rows"),
        "reports.write_results_s": busy("reports.write_joint_results"),
        "cli.preprocess_self_s": cmd_self("preprocess"),
        "cli.fit_self_s": cmd_self("fit"),
        "cli.baseline_self_s": cmd_self("baseline"),
        "cli.evaluate_self_s": cmd_self("evaluate"),
        "cli.benchmark_self_s": cmd_self("benchmark"),
        "trace.overhead_frac": overhead_frac,
    }

    # metric: (the span that does its work, why a workload may have none)
    absent = {
        "dataset.read_s": ("dataset.read_methylation_table", "no table was read"),
        "dataset.load_s": ("dataset.load_paired_dataset", "no paired dataset was loaded from files"),
        "dataset.split_s": ("dataset.split_by_chromosome",
                            "no chromosome split: datasets are built in memory"),
        "joint_em.fit_all_s": ("joint_em.fit_all_chromosomes",
                               "no per-chromosome fit: replicates call fit directly"),
        "baseline.fit_s": ("baseline.fit_independent", "no independent fit ran"),
        "evaluate.replicate_s": ("evaluate.run_replicate", "no replicate study ran"),
        "evaluate.simulated_dataset_s": ("evaluate.simulated_dataset",
                                         "no in-memory simulated dataset was built"),
        "reports.assemble_s": ("reports.assemble_joint_result_rows",
                               "no joint result table was written"),
    }
    for cmd in ("fit", "baseline", "evaluate", "benchmark"):
        absent[f"cli.{cmd}_self_s"] = (f"cli.cmd_{cmd}", f"the workload runs no {cmd} subcommand")
    follows = {
        "dataset.values_read": "dataset.read_s", "dataset.read_ns_per_value": "dataset.read_s",
        "dataset.split_calls": "dataset.split_s", "joint_em.chrom_fit_sum_s": "joint_em.fit_all_s",
        "joint_em.chrom_fit_max_s": "joint_em.fit_all_s", "joint_em.parallel_eff": "joint_em.fit_all_s",
        "baseline.iters": "baseline.fit_s", "reports.write_results_s": "reports.assemble_s",
    }
    notes = {metric: why for metric, (span, why) in absent.items() if not calls(span)}
    for metric, source in follows.items():
        if source in notes:
            notes[metric] = notes[source]
    return values, notes
