"""Tests of the benchmark itself, at toy sizes.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import run
import spans

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY = {
    "cohort_n4": dict(genes=150, chromosomes=3),
    "cohort_n40": dict(genes=60, patients=6),
    "simstudy_case3": dict(genes=60, replicates=2),
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Toy-size workloads, with work and records under a temporary directory."""
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    toys = {name: replace(w, **TOY[name]) for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", toys)
    return tmp_path


def run_main(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK_JSON["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK_JSON["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK_JSON["per_layer"]] == [
        m[:3] for m in spans.LAYER_METRICS
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TOY))
def test_toy_run_prints_every_metric_with_its_unit(toy, capsys, workload, trace):
    code, out, result = run_main(capsys, workload, trace)
    expected = BENCHMARK_JSON["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result.keys()) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line
                   for line in out.splitlines()), m["name"]
    record = json.loads((toy / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["environment"]["numpy"] and record["environment"]["nproc"] >= 1
    assert record["sha256"] and all(len(d) == 64 for d in record["sha256"].values())
    assert not (toy / "work").exists() or not any((toy / "work").iterdir())


def test_traced_run_records_nested_spans(toy, capsys):
    code, _, _ = run_main(capsys, "cohort_n4", 1)
    record = json.loads((toy / "results" / "cohort_n4-seed3-trace1.json").read_text())
    names = [s[0] for s in record["spans"]]
    fits = [s for s in record["spans"] if s[0] == "joint_em.fit"]
    assert code == 0
    assert {"run.setup", "cli.main", "dataset.split_by_chromosome"} <= set(names)
    # chromosome fits run on pool threads but keep fit_all_chromosomes as an ancestor
    for span in fits:
        parent = span[3]
        while record["spans"][parent][0] != "joint_em.fit_all_chromosomes":
            parent = record["spans"][parent][3]
            assert parent is not None


def test_broken_output_is_counted_as_a_failure(toy, capsys, monkeypatch):
    real_check = run.check_results

    def corrupt_then_check(path, ids, labels):
        lines = path.read_text().splitlines(keepends=True)
        row = lines[1].split("\t")
        row[-2] = labels[0] if row[-2] != labels[0] else labels[-1]
        lines[1] = "\t".join(row)
        path.write_text("".join(lines))
        return real_check(path, ids, labels)

    monkeypatch.setattr(run, "check_results", corrupt_then_check)
    code, out, result = run_main(capsys, "cohort_n4", 0)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 4  # fit, and the three steps after it that did not run
    assert result["metrics"]["success_frac"]["value"] == pytest.approx(
        (result["attempted"] - 4) / result["attempted"]
    )
    assert "FAILED fit: gene_results.tsv:2: map_label" in out


def test_failing_subcommand_is_counted_as_a_failure(toy, capsys, monkeypatch):
    real_steps = run.workload_steps

    def steps_with_bad_flag(*args):
        steps = real_steps(*args)
        steps[1].argv.append("--no-such-flag")
        return steps

    monkeypatch.setattr(run, "workload_steps", steps_with_bad_flag)
    code, out, result = run_main(capsys, "simstudy_case3", 0)
    assert (code, result["correct"], result["failed"]) == (1, False, 1)
    assert "FAILED benchmark: exit code 1" in out


def write_results(path, rows):
    header = ["gene_id", "chromosome", "posterior_Eminus", "posterior_E0", "posterior_Eplus",
              "map_label", "uncertainty"]
    path.write_text("".join("\t".join(r) + "\n" for r in [header, *rows]))


@pytest.mark.parametrize("rows, problem", [
    ([["G1", "1", "0.2", "0.7", "0.1", "E0", "0.3"]], None),
    ([["G1", "1", "0.2", "0.7", "0.2", "E0", "0.3"]], "posteriors sum to"),
    ([["G1", "1", "0.2", "0.7", "0.1", "E+", "0.3"]], "is not the argmax"),
    ([["G2", "1", "0.2", "0.7", "0.1", "E0", "0.3"]], "out of order"),
    ([], "0 rows for 1 kept entities"),
    ([["G1", "1", "0.2", "0.7", "0.1", "E0"]], "6 columns, expected 7"),
])
def test_check_results(tmp_path, rows, problem):
    path = tmp_path / "gene_results.tsv"
    write_results(path, rows)
    problems = run.check_results(path, ["G1"], run.GENE_LABELS)
    if problem is None:
        assert problems == []
    else:
        assert len(problems) == 1 and problem in problems[0]


def test_speed_probe_takes_the_median_inside_the_interval_or_the_nearest():
    probe = run.SpeedProbe(Path("unused"))
    other = probe.home + 1
    probe.samples = {
        probe.home: [(float(t), dt) for t, dt in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 9.0])],
        other: [(1.5, 7.0), (2.5, 8.0)],
    }
    assert probe.probe_s(1.0, 3.0) == 3.0  # samples 1, 2 and 3 of home inside
    assert probe.probe_s(5.4, 5.6) == 9.0  # none inside: the three nearest, 4, 5 and 6
    assert probe.probe_s(1.0, 3.0, threads=2) == 4.0  # 2, 3, 4, 7 and 8: every processor
    quiet = run.PROBE_QUIET_S
    assert run.SpeedProbe.adjust(2.0, quiet) == 2.0
    assert run.SpeedProbe.adjust(2.0, 2 * quiet) == pytest.approx(2.0 * 0.5 ** run.SPEED_ELASTICITY)


def test_speed_probe_samples_every_processor_and_stops(tmp_path):
    allowed = os.sched_getaffinity(0)
    with run.SpeedProbe(tmp_path / "probe") as probe:
        assert os.sched_getaffinity(0) == {min(allowed)}
        time.sleep(1.0)
    assert os.sched_getaffinity(0) == allowed
    assert set(probe.samples) == allowed
    assert all(proc.poll() is not None for proc in probe.procs.values())
    for samples in probe.samples.values():
        assert len(samples) >= 3 and all(0 < dt < 1 for _, dt in samples)


def test_self_time_subtracts_the_union_of_children():
    def span(start, end):
        s = spans.Span("x", None)
        s.start, s.end = start, end
        return s

    parent = span(0.0, 10.0)
    children = [span(1.0, 3.0), span(2.0, 4.0), span(6.0, 7.0), span(9.5, 12.0)]
    assert spans.self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)


def test_tracer_rebinds_every_holder_and_restores_them():
    import jointmix.dataset
    import jointmix.joint_em
    import jointmix.reports

    original = jointmix.dataset.split_by_chromosome
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = jointmix.dataset.split_by_chromosome
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert jointmix.joint_em.split_by_chromosome is wrapped
        assert jointmix.reports.split_by_chromosome is wrapped
        assert jointmix.reports.format_cell.__module__ == "jointmix.reports"
        assert not hasattr(jointmix.reports.format_cell, "__wrapped__")
    finally:
        tracer.uninstall()
    assert jointmix.joint_em.split_by_chromosome is original
    assert jointmix.reports.split_by_chromosome is original


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort_n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
