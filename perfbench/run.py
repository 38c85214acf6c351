"""Benchmark of the jointmix CLI: three workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cohort_n4 --seed 1 --seconds 35 --trace 0

Each run first writes the workload's raw input tables from ``--seed`` with
the package's own ``simulate`` and ``write_*_table`` (the set-up, timed
several times). Then:

* ``--trace 0`` runs the workload's subcommands through the real
  ``jointmix`` CLI in child processes, one pass after another until
  ``--seconds`` have passed, and reports the end-to-end metrics as
  medians over the passes. Every time is adjusted for the speed of the
  host while it was taken, as a speed probe measured it (see
  ``SpeedProbe``);
* ``--trace 1`` runs the same subcommands in this process through
  ``jointmix.cli.main``, once plain and once with every public function of
  the package wrapped in a span (see ``spans.py``), and reports the
  per-layer metrics.

Every operation (one subcommand) has its outputs checked. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
operation failed. A record of the run, with the environment, the sha256 of
every result file and, for a traced run, every span, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = HERE / "probe.py"
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

# By module path: the package re-exports the function ``simulate`` under
# the name of its module.
jm_cli = importlib.import_module("jointmix.cli")
jm_dataset = importlib.import_module("jointmix.dataset")
jm_simulate = importlib.import_module("jointmix.simulate")

from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

# name, unit, better; as in BENCHMARK.json
END_TO_END = (
    ("pipeline_s", "s", "lower"),
    ("preprocess_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("gene_ari", "ari", "higher"),
    ("cpg_ari", "ari", "higher"),
    ("success_frac", "frac", "higher"),
)
# A run that goes past this many seconds stops its children and fails.
RUN_DEADLINE_S = 165.0
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
# How a wall time is adjusted to the host's speed; see SpeedProbe.
PROBE_QUIET_S = 1.5e-3
SPEED_ELASTICITY = 0.7
PROBE_MIN_SAMPLES = 3
GENE_LABELS = ("E-", "E0", "E+")
CPG_LABELS = ("M-", "M0", "M+")
POSTERIOR_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; ``replicates > 0`` makes it the simulation study."""

    name: str
    genes: int
    patients: int
    case: int
    chromosomes: int
    threads: int
    replicates: int = 0


# Why each workload is here, and what it should and should not move, is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cohort_n4", genes=4_000, patients=4, case=1, chromosomes=22, threads=2),
        Workload("cohort_n40", genes=1_000, patients=40, case=1, chromosomes=1, threads=1),
        Workload("simstudy_case3", genes=500, patients=4, case=3, chromosomes=1, threads=1,
                 replicates=50),
    )
}


@dataclass
class Step:
    name: str
    argv: list
    check: Callable[[dict], list]  # problems found in the step's outputs
    threads: int = 1


@dataclass
class PassOutcome:
    walls: dict = field(default_factory=dict)
    # step -> (start, end, threads); start and end in time.monotonic()
    spans: dict = field(default_factory=dict)
    rss_mb: list = field(default_factory=list)
    ctx: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def total_s(self) -> float:
        return sum(self.walls.values())


# ---------------------------------------------------------------- set-up


def write_inputs(w: Workload, seed: int, out: Path) -> dict:
    """Raw two-condition tables and truth labels for the workload, from the seed.

    Genes lie in contiguous blocks over ``w.chromosomes`` labels; each CpG
    takes its gene's chromosome.
    """
    out.mkdir(parents=True, exist_ok=True)
    cfg = jm_simulate.SimConfig(n_genes=w.genes, n_patients=w.patients, case=w.case, seed=seed)
    sim = jm_simulate.simulate(cfg)
    t = sim.truth
    n = len(t.gene_ids)
    gene_chrom = [str(1 + i * w.chromosomes // n) for i in range(n)]
    cpg_chrom = [gene_chrom[i] for i in t.cpg_gene_idx]
    cpg_gene = [t.gene_ids[i] for i in t.cpg_gene_idx]
    for cond, values in (("a", sim.counts_a), ("b", sim.counts_b)):
        jm_dataset.write_expression_table(
            out / f"expression_{cond}.tsv", t.gene_ids, gene_chrom, sim.patients, values
        )
    for cond, values in (("a", sim.betas_a), ("b", sim.betas_b)):
        jm_dataset.write_methylation_table(
            out / f"methylation_{cond}.tsv", t.cpg_ids, cpg_gene, cpg_chrom, sim.patients, values
        )
    with open(out / "truth.tsv", "w", encoding="utf-8") as fh:
        fh.write("entity_id\tlayer\tlabel\n")
        fh.writelines(f"{i}\tgene\t{lab}\n" for i, lab in zip(t.gene_ids, t.gene_labels))
        fh.writelines(f"{i}\tcpg\t{lab}\n" for i, lab in zip(t.cpg_ids, t.cpg_labels))
    return {"genes": n, "cpgs": len(t.cpg_ids), "patients": len(sim.patients)}


def set_up(w: Workload, seed: int, inputs: Path, tracer: Tracer | None):
    """Write the inputs, timed: several times, or once under the tracer.

    Returns the sizes of the inputs and, for each repeat, its wall time and
    its ``(start, end)`` in ``time.monotonic()``.
    """
    if tracer is not None:
        started = time.perf_counter()
        with tracer.installed("run.setup"):
            sizes = write_inputs(w, seed, inputs)
        return sizes, [(time.perf_counter() - started, None)]
    repeats = []
    while len(repeats) < SETUP_MIN_REPEATS or sum(r[0] for r in repeats) < SETUP_MIN_S:
        started, span_start = time.perf_counter(), time.monotonic()
        sizes = write_inputs(w, seed, inputs)
        repeats.append((time.perf_counter() - started, (span_start, time.monotonic())))
    return sizes, repeats


class SpeedProbe:
    """Measures the host's speed while a timed run goes on, and adjusts times to it.

    On a shared host, speed drifts by 30-70% over tens of seconds to
    minutes, and a process's processor time drifts with it; the processors
    of a small guest also differ from second to second. So a wall time
    alone, or a processor time, spreads 30-40% between runs minutes apart.

    One ``probe.py`` process runs on each processor this process may use
    and times a small fixed task ten times a second, in processor time, so
    that waiting for the benchmark's own processes does not count. This
    process, and so every step it starts, is pinned to the first of them,
    ``home``; a step with more than one thread runs on all of them. A wall
    time taken while the probes that watch its processors read a median of
    ``p`` is scaled by ``(PROBE_QUIET_S / p) ** SPEED_ELASTICITY``: it reads
    as the time the step would take in the host's quiet phases. Both are
    constants, so two commits measured on the same host compare as their
    wall times do in a steady phase. How they were measured, and how much
    steadier the times are, is in README.md.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.cpus = os.sched_getaffinity(0)  # restored on exit
        self.home = min(self.cpus)
        self.procs = {}
        self.samples = {}  # processor -> [(time.monotonic() at the end, seconds)]

    def __enter__(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        os.sched_setaffinity(0, {self.home})
        try:
            for cpu in sorted(self.cpus):
                self.procs[cpu] = subprocess.Popen(
                    [sys.executable, str(PROBE), str(self.out_dir / f"cpu{cpu}.txt")],
                    stdin=subprocess.DEVNULL)
                os.sched_setaffinity(self.procs[cpu].pid, {cpu})
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for proc in self.procs.values():
            proc.terminate()
        for proc in self.procs.values():
            proc.wait()
        os.sched_setaffinity(0, self.cpus)
        for cpu in self.procs:
            self.samples[cpu] = []
            path = self.out_dir / f"cpu{cpu}.txt"
            if not path.exists():  # stopped before it wrote anything
                continue
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    fields = line.split()
                    if len(fields) == 2:  # the last line may be cut short
                        self.samples[cpu].append((float(fields[0]), float(fields[1])))
        return False

    def probe_s(self, start: float, end: float, threads: int = 1) -> float:
        """The median probe time in the interval, on the processors a step used.

        That is ``home`` alone, or every processor for a step with more
        than one thread. With fewer than ``PROBE_MIN_SAMPLES`` samples
        inside the interval, the median of the samples nearest its middle.
        """
        cpus = self.samples if threads > 1 else [self.home]
        samples = [sample for cpu in cpus for sample in self.samples[cpu]]
        inside = [dt for t, dt in samples if start <= t <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [dt for _, dt in nearest[:PROBE_MIN_SAMPLES]]
        return statistics.median(inside)

    @staticmethod
    def adjust(wall: float, probe_s: float) -> float:
        return wall * (PROBE_QUIET_S / probe_s) ** SPEED_ELASTICITY


# ---------------------------------------------------------- output checks


def _rows(path: Path):
    """Header, then each row, of a TSV file, as lists of fields."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield line.rstrip("\n").split("\t")


def _leading_columns(path: Path, width: int, keep: int) -> list:
    """The first ``keep`` fields of every data row; each row must have ``width`` fields."""
    out = []
    for line, row in enumerate(_rows(path), start=1):
        if len(row) != width:
            raise ValueError(f"{path.name}:{line}: {len(row)} columns, expected {width}")
        if line > 1:
            out.append(row[:keep])
    return out


def check_preprocess(prep: Path, sizes: dict, ctx: dict) -> list:
    """Model-input tables: shape, unique ids, every CpG's gene kept."""
    n = sizes["patients"]
    gene_ids = [r[0] for r in _leading_columns(prep / "expression.tsv", 2 + n, 1)]
    cpg_rows = _leading_columns(prep / "methylation.tsv", 3 + n, 2)
    cpg_ids = [r[0] for r in cpg_rows]
    kept = set(gene_ids)
    if not 0 < len(gene_ids) <= sizes["genes"] or not 0 < len(cpg_ids) <= sizes["cpgs"]:
        return [f"kept {len(gene_ids)} genes and {len(cpg_ids)} CpGs of "
                f"{sizes['genes']} and {sizes['cpgs']}"]
    if len(kept) != len(gene_ids) or len(set(cpg_ids)) != len(cpg_ids):
        return ["duplicate ids in the model-input tables"]
    orphans = sum(gene not in kept for _, gene in cpg_rows)
    if orphans:
        return [f"{orphans} CpGs reference a gene that was not kept"]
    ctx["gene_ids"], ctx["cpg_ids"] = gene_ids, cpg_ids
    return []


def check_results(path: Path, ids: list, labels: tuple) -> list:
    """One row per kept entity, in order; posteriors sum to 1; map_label is the argmax."""
    k = len(labels)
    rows = _rows(path)
    header = next(rows)
    if header[-2:] != ["map_label", "uncertainty"]:
        return [f"{path.name}: header ends with {header[-2:]}"]
    post = slice(len(header) - 2 - k, len(header) - 2)
    count = 0
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            return [f"{path.name}:{line}: {len(row)} columns, expected {len(header)}"]
        if count >= len(ids) or row[0] != ids[count]:
            return [f"{path.name}:{line}: id {row[0]!r} out of order or not kept"]
        p = [float(v) for v in row[post]]
        if abs(sum(p) - 1.0) > POSTERIOR_TOL:
            return [f"{path.name}:{line}: posteriors sum to {sum(p)!r}"]
        if row[-2] != labels[p.index(max(p))]:
            return [f"{path.name}:{line}: map_label {row[-2]!r} is not the argmax"]
        count += 1
    if count != len(ids):
        return [f"{path.name}: {count} rows for {len(ids)} kept entities"]
    return []


def check_evaluation(out: Path, n_rows: int, ctx: dict, key: str) -> list:
    report = json.loads((out / "evaluation.json").read_text())
    n = report["tp"] + report["fp"] + report["tn"] + report["fn"]
    if n != n_rows:
        return [f"evaluation counts {n} entities, expected {n_rows}"]
    if not isinstance(report["ari"], float) or not math.isfinite(report["ari"]):
        return [f"ari is {report['ari']!r}"]
    ctx[key] = report["ari"]
    return []


def check_benchmark(out: Path, replicates: int, ctx: dict) -> list:
    payload = json.loads((out / "benchmark.json").read_text())
    if payload["n_replicates"] != replicates or payload["failures"]:
        return [f"{len(payload['failures'])} of {payload['n_replicates']} replicates failed"]
    for row in payload["summary"]:
        if row["method"] == "joint" and row["metric"] == "ari":
            if row["n"] != replicates or not math.isfinite(row["mean"]):
                return [f"joint {row['layer']} ari over {row['n']} replicates: {row['mean']!r}"]
            ctx[f"{row['layer']}_ari"] = row["mean"]
    if "gene_ari" not in ctx or "cpg_ari" not in ctx:
        return ["benchmark.json has no joint ari"]
    return []


# ------------------------------------------------------------------ passes


def workload_steps(w: Workload, seed: int, inputs: Path, sizes: dict, out: Path) -> list:
    """The workload's subcommands, in order, each with the check of its outputs."""
    prep, fit, base = out / "preprocess", out / "fit", out / "baseline"
    steps = [Step(
        "preprocess",
        ["preprocess",
         "--expression-a", inputs / "expression_a.tsv", "--expression-b", inputs / "expression_b.tsv",
         "--methylation-a", inputs / "methylation_a.tsv", "--methylation-b", inputs / "methylation_b.tsv",
         "--out", prep],
        lambda ctx: check_preprocess(prep, sizes, ctx),
    )]
    if w.replicates:
        bench = out / "benchmark"
        steps.append(Step(
            "benchmark",
            ["benchmark", "--case", w.case, "--replicates", w.replicates, "--genes", w.genes,
             "--patients", w.patients, "--methods", "joint,independent", "--threads", w.threads,
             "--seed", seed, "--out", bench],
            lambda ctx: check_benchmark(bench, w.replicates, ctx),
            threads=w.threads,
        ))
    else:
        steps += [
            Step("fit",
                 ["fit", "--expression", prep / "expression.tsv",
                  "--methylation", prep / "methylation.tsv", "--threads", w.threads, "--out", fit],
                 lambda ctx: check_results(fit / "gene_results.tsv", ctx["gene_ids"], GENE_LABELS)
                 + check_results(fit / "cpg_results.tsv", ctx["cpg_ids"], CPG_LABELS),
                 threads=w.threads),
            Step("baseline",
                 ["baseline", "--input", prep / "expression.tsv", "--layer", "expression",
                  "--out", base],
                 lambda ctx: check_results(base / "gene_results.tsv", ctx["gene_ids"], GENE_LABELS)),
        ]
        for layer in ("gene", "cpg"):
            ev = out / f"evaluate_{layer}"
            steps.append(Step(
                f"evaluate_{layer}",
                ["evaluate", "--truth", inputs / "truth.tsv",
                 "--predicted", fit / f"{layer}_results.tsv", "--layer", layer, "--out", ev],
                lambda ctx, ev=ev, layer=layer:
                    check_evaluation(ev, len(ctx[f"{layer}_ids"]), ctx, f"{layer}_ari"),
            ))
    return [replace(s, argv=[str(a) for a in s.argv]) for s in steps]


def child_runner(log_dir: Path, deadline: float, cpus: set):
    """Run one subcommand as ``python -m jointmix.cli``; wall time, exit code, max RSS.

    A subcommand with more than one thread may run on all of ``cpus``; the
    others stay on the processor this process is pinned to.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    log_dir.mkdir(parents=True, exist_ok=True)

    def run(argv, threads):
        with open(log_dir / f"{argv[0]}.log", "ab") as log:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "jointmix.cli", *argv],
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env)
            if threads > 1:
                try:
                    os.sched_setaffinity(proc.pid, cpus)
                except ProcessLookupError:  # it has already exited
                    pass
            watchdog = threading.Timer(max(0.0, deadline - started), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    return run


def in_process_runner(tracer: Tracer | None = None):
    """Run one subcommand through ``jointmix.cli.main`` in this process."""

    def run(argv, threads):
        started = time.perf_counter()
        try:
            if tracer is None:
                rc = jm_cli.main(argv)
            else:
                with tracer.span(f"run.{argv[0]}"):
                    rc = jm_cli.main(argv)
        except Exception:  # noqa: BLE001 - reported as a failed operation
            traceback.print_exc()
            rc = -1
        return time.perf_counter() - started, rc, None

    return run


def run_pass(steps: list, runner) -> PassOutcome:
    """Run the steps in order; a failed step fails the steps after it too."""
    outcome = PassOutcome()
    for i, step in enumerate(steps):
        span_start = time.monotonic()
        wall, rc, rss = runner(step.argv, step.threads)
        outcome.walls[step.name] = wall
        outcome.spans[step.name] = (span_start, time.monotonic(), step.threads)
        outcome.attempted += 1
        if rss is not None:
            outcome.rss_mb.append(rss)
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            try:
                problems = step.check(outcome.ctx)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            outcome.errors += [f"{step.name}: {p}" for p in problems]
            outcome.errors += [f"{s.name}: not run" for s in steps[i + 1:]]
            outcome.attempted += len(steps) - i - 1
            outcome.failed = len(steps) - i
            break
    return outcome


def timed_passes(w: Workload, seed: int, inputs: Path, sizes: dict, work: Path,
                 seconds: float, deadline: float, cpus: set) -> list:
    """Passes through the CLI in child processes until ``seconds`` have passed.

    At least one; another starts only if it should end in time, and none
    after a failed one.
    """
    runner = child_runner(work / "logs", deadline, cpus)
    passes, durations = [], []
    measure_start = time.perf_counter()
    while True:
        started = time.perf_counter()
        steps = workload_steps(w, seed, inputs, sizes, work / f"pass{len(passes)}")
        passes.append(run_pass(steps, runner))
        now = time.perf_counter()
        durations.append(now - started)
        if (passes[-1].failed or now + max(durations) > deadline
                or now - measure_start + statistics.median(durations) > seconds):
            return passes


# --------------------------------------------------------------- reporting


def file_digests(out: Path) -> dict:
    """sha256 of every result file under ``out``; manifests carry timings, so not them."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json" and path.suffix != ".log":
            digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=False)
            git_sha = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "jointmix").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; prints a report and returns the result object."""
    run_start = time.perf_counter()
    deadline = run_start + RUN_DEADLINE_S
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    tracer = Tracer() if trace else None

    if not trace:
        with SpeedProbe(work / "probe") as probe:
            sizes, setup = set_up(w, seed, inputs, tracer)
            passes = timed_passes(w, seed, inputs, sizes, work, seconds, deadline, probe.cpus)
        out = work / f"pass{len(passes) - 1}"
    else:
        sizes, setup = set_up(w, seed, inputs, tracer)
        passes = []
        out = work / "plain"
        steps = workload_steps(w, seed, inputs, sizes, out)
        passes.append(run_pass(steps, in_process_runner()))
        out = work / "traced"
        steps = workload_steps(w, seed, inputs, sizes, out)
        with tracer.installed("run.pass"):
            passes.append(run_pass(steps, in_process_runner(tracer)))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = file_digests(out)
    notes, raw, adjusted, timings = {}, {}, {}, {}
    if not trace:
        fit_step = "benchmark" if w.replicates else "fit"
        last = passes[-1].ctx
        # (wall, probe) of every timing; medians per step, as measured and adjusted
        timings = {"setup": [(wall, probe.probe_s(*span)) for wall, span in setup]}
        for name in passes[0].walls:
            timings[name] = [(p.walls[name], probe.probe_s(*p.spans[name]))
                             for p in passes if name in p.walls]
        for name, pairs in timings.items():
            raw[name] = statistics.median(wall for wall, _ in pairs)
            adjusted[name] = statistics.median(probe.adjust(*pair) for pair in pairs)
        for cpu, samples in probe.samples.items():
            raw[f"probe_cpu{cpu}"] = statistics.median(dt for _, dt in samples)
        values = {
            "pipeline_s": sum(v for k, v in adjusted.items() if k != "setup"),
            "preprocess_s": adjusted.get("preprocess", 0.0),
            "fit_s": adjusted.get(fit_step, 0.0),
            "setup_s": adjusted["setup"],
            "peak_rss_mb": max((r for p in passes for r in p.rss_mb), default=0.0),
            "gene_ari": last.get("gene_ari", 0.0),
            "cpg_ari": last.get("cpg_ari", 0.0),
            "success_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        plain, traced = passes
        overhead = (traced.total_s - plain.total_s) / plain.total_s
        values, notes = layer_metrics(tracer, overhead)
        units = LAYER_METRICS
    metrics = {m[0]: {"value": values[m[0]], "unit": m[1]} for m in units}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = environment()
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "sha256": digests, "wall_and_probe_s": timings,
        "median_walls_s": raw,
        "median_adjusted_s": adjusted, "errors": [e for p in passes for e in p.errors],
        "notes": notes, "result": result,
    }
    if trace:
        record["spans"] = tracer.export()
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)

    targets = {name: target for name, _, _, target in LAYER_METRICS}
    print(f"workload {w.name}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
          f"operations {attempted}  failed {failed}  run {time.perf_counter() - run_start:.1f} s")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for rel, digest in digests.items():
        print(f"sha256 {digest}  {rel}")
    for error in record["errors"]:
        print(f"FAILED {error}")
    if raw:
        print("median wall times as measured: " + "  ".join(
            f"{name} {wall:.3f} s" for name, wall in raw.items()))
    if failed:
        print(f"outputs and logs kept in {os.path.relpath(work)}")
    for name, m in metrics.items():
        line = f"{name:<30} {m['value']:>16.6g} {m['unit']}"
        if name in targets:
            line += f"   -> {targets[name]}"
        if name in notes:
            line += f"   (absent: {notes[name]})"
        print(line)
    if trace:
        print("joint_em.score_evals is computed: sweeps x N x (G*K + C*L) per E-step, summed")
    print(f"record {os.path.relpath(record_path)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not Path(jm_cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: jointmix was imported from {jm_cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = HERE / "work" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    result = run_workload(w, args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
