"""Rendering of fitted models, result tables, and benchmark tables.

All writers are deterministic: rows follow input order (or replicate
order), floats are written in shortest round-trip form, and undefined
ratios appear as ``NA`` in TSVs and ``null`` in JSON. Every file is
written by ``dataset._write_tables`` or ``dataset.write_json``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import (
    EXPRESSION_FIXED_COLUMNS,
    METHYLATION_FIXED_COLUMNS,
    _format_number,
    _write_tables,
    split_by_chromosome,
    write_json,
)
from .evaluate import BenchmarkResult, MetricReport
from .simulate import CPG_LABELS, GENE_LABELS


def format_cell(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, (float, np.floating, int, np.integer)):
        return _format_number(v)
    return str(v)


def write_tsv(path, header, rows) -> None:
    """Write a TSV from its header cells and its rows, each cell through :func:`format_cell`."""
    columns = [list(map(format_cell, col)) for col in zip(*rows, strict=True)]
    _write_tables([(path, header, len(rows), lambda span: [col[span] for col in columns])])


def label_names(layer: str, k: int) -> list[str]:
    """MAP label names of the ``"gene"`` or ``"cpg"`` layer with ``k`` states.

    At k = 3 they are the simulated states (E-, E0, E+ or M-, M0, M+);
    otherwise the layer's letter numbered from 1 (E1, E2, ...).
    """
    states = GENE_LABELS if layer == "gene" else CPG_LABELS
    return list(states) if k == 3 else [f"{states[0][0]}{i + 1}" for i in range(k)]


def results_header(columns, names) -> list[str]:
    """A result TSV's header: ``columns``, one posterior per state name, the MAP columns.

    ``E-`` gives ``posterior_Eminus``, ``E+`` ``posterior_Eplus`` and
    ``E2`` ``posterior_E2``.
    """
    posteriors = [f"posterior_{n.replace('-', 'minus').replace('+', 'plus')}" for n in names]
    return [*columns, *posteriors, "map_label", "uncertainty"]


def joint_params_payload(result) -> dict:
    """JSON payload for one fitted chromosome of the joint model."""
    p = result.params
    return {
        "tau": p.tau.tolist(),
        "pi": p.pi.tolist(),
        "mu": p.mu.tolist(),
        "sigma2": float(p.sigma2),
        "lambda": p.lam.tolist(),
        "rho2": float(p.rho2),
        "n_outer_iters": int(result.n_outer_iters),
        "converged": bool(result.converged),
    }


def joint_model_payload(K, L, results: dict) -> dict:
    """Nested per-chromosome model JSON for the joint fit."""
    return {
        "model": "joint",
        "K": int(K),
        "L": int(L),
        "chromosomes": {label: joint_params_payload(r) for label, r in sorted(results.items())},
    }


def independent_model_payload(K, per_chrom: dict) -> dict:
    chroms = {}
    for label, res in sorted(per_chrom.items()):
        chroms[label] = {
            "weights": res.params.weights.tolist(),
            "means": res.params.means.tolist(),
            "variance": float(res.params.variance),
            "n_iters": int(res.n_iters),
            "converged": bool(res.converged),
        }
    return {"model": "independent", "K": int(K), "chromosomes": chroms}


def write_layer_tables(tables, threads=1) -> None:
    """Write fitted layers' result tables, rendered on up to ``threads`` workers.

    Each table is ``(path, columns, annotations, parts, names)``.
    ``annotations(rows)`` gives the leading columns, named ``columns``,
    of the ascending table rows ``rows``; ``parts`` pairs each fitted
    part's rows with its :class:`~jointmix.joint_em.LayerFit`, whose MAP
    labels index ``names`` from 1. A row is its annotations, posteriors,
    MAP label name and uncertainty, in table order, written by
    ``dataset._write_tables``; rows no part holds are left out.
    """
    def table(path, columns, annotations, parts, names):
        rows = np.concatenate([part_rows for part_rows, _ in parts])
        order = np.argsort(rows, kind="stable")
        fields = zip(*((layer.resp, layer.map_labels, layer.uncertainty) for _, layer in parts))
        resp, labels, uncertainty = (np.concatenate(f)[order] for f in fields)
        rows, label_of = rows[order], np.array(names, dtype=object)
        return path, results_header(columns, names), len(rows), lambda span: [
            *annotations(rows[span]), resp[span], label_of[labels[span] - 1],
            uncertainty[span, np.newaxis],
        ]

    _write_tables([table(*t) for t in tables], threads)


def write_joint_results(out_dir, ds, results, K, L, threads=1) -> None:
    """Write ``model.json`` and the result tables, less the chromosomes ``results`` lacks."""
    out, parts = Path(out_dir), [p for p in split_by_chromosome(ds) if p.label in results]
    gene_columns = ds.gene_ids, ds.chromosomes
    write_layer_tables([
        (out / "gene_results.tsv", EXPRESSION_FIXED_COLUMNS,
         lambda rows: [col[rows] for col in gene_columns],
         [(p.genes, results[p.label].gene) for p in parts], label_names("gene", K)),
        (out / "cpg_results.tsv", METHYLATION_FIXED_COLUMNS,
         lambda rows: [ds.cpg_ids[rows], *(col[ds.cpg_gene_idx[rows]] for col in gene_columns)],
         [(p.cpgs, results[p.label].cpg) for p in parts], label_names("cpg", L)),
    ], threads)
    write_json(out / "model.json", joint_model_payload(K, L, results))


def write_metric_report(out_dir, report: MetricReport, layer: str) -> None:
    out = Path(out_dir)
    items = [("layer", layer), ("n", report.tp + report.fp + report.tn + report.fn)]
    items += [(k, v) for k, v in report.as_dict().items()]
    write_tsv(out / "evaluation.tsv", ["metric", "value"], items)
    write_json(out / "evaluation.json", {"layer": layer, **report.as_dict()})


def write_benchmark_tables(out_dir, result: BenchmarkResult) -> None:
    out, header = Path(out_dir), ["method", "layer", "metric", "mean", "sd", "n"]
    write_tsv(out / "benchmark_summary.tsv", header, result.summary_rows)
    write_tsv(out / "benchmark_replicates.tsv", ["replicate", *header[:3], "value"],
              result.replicate_rows)
    write_json(out / "benchmark.json", {
        "config": result.config.to_dict(),
        "methods": list(result.methods),
        "n_replicates": result.n_replicates,
        "failures": {str(k): v for k, v in result.failures.items()},
        "summary": [dict(zip(header, row)) for row in result.summary_rows],
    })
