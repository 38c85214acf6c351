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
    gather,
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
    _write_tables([(path, header, columns)])


def label_names(layer: str, k: int) -> list[str]:
    """MAP label names of the ``"gene"`` or ``"cpg"`` layer with ``k`` states.

    At k = 3 they are the simulated states (E-, E0, E+ or M-, M0, M+);
    otherwise the layer's letter numbered from 1 (E1, E2, ...). Any other
    ``layer`` is a ValueError.
    """
    if layer not in ("gene", "cpg"):
        raise ValueError(f"layer must be 'gene' or 'cpg', got {layer!r}")
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


def joint_model_payload(results: dict) -> dict:
    """Nested per-chromosome model JSON for the joint fit, its K and L those of the fits."""
    params = next(iter(results.values())).params
    return {
        "model": "joint",
        "K": params.n_gene_clusters,
        "L": params.n_cpg_clusters,
        "chromosomes": {label: joint_params_payload(r) for label, r in sorted(results.items())},
    }


def independent_model_payload(per_chrom: dict) -> dict:
    """Per-chromosome model JSON for the independent fit, its K that of the fits."""
    chroms = {}
    for label, res in sorted(per_chrom.items()):
        chroms[label] = {
            "weights": res.params.weights.tolist(),
            "means": res.params.means.tolist(),
            "variance": float(res.params.variance),
            "n_iters": int(res.n_iters),
            "converged": bool(res.converged),
        }
    K = len(next(iter(per_chrom.values())).params.weights)
    return {"model": "independent", "K": K, "chromosomes": chroms}


def write_layer_tables(tables, threads=1) -> None:
    """Write fitted layers' result tables, rendered on up to ``threads`` workers.

    Each table is ``(path, annotations, parts, layer)``. ``annotations``
    maps each leading column's name to its values, one per table row;
    ``parts`` pairs each fitted part's rows with its
    :class:`~jointmix.joint_em.LayerFit`, all of one posterior width k
    (parts of two widths are numpy's ValueError). Their MAP labels, from
    1, index the :func:`label_names` of ``layer`` (``"gene"`` or
    ``"cpg"``) at k. A row is its annotations, posteriors, MAP label name and
    uncertainty, in table order, written by ``dataset._write_tables``;
    rows no part holds are left out. Each annotation column is taken
    through ``dataset.gather``, so a table of every row holds the
    column itself, not a copy. Every table is checked before any file
    is opened.
    """
    def table(path, annotations, parts, layer):
        rows = np.concatenate([part_rows for part_rows, _ in parts])
        order = np.argsort(rows, kind="stable")
        fields = zip(*((fit.resp, fit.map_labels, fit.uncertainty) for _, fit in parts))
        resp, labels, uncertainty = (np.concatenate(f)[order] for f in fields)
        names = label_names(layer, resp.shape[1])
        rows, label_of = rows[order], np.array(names, dtype=object)
        return path, results_header(annotations, names), [
            *(gather(col, rows) for col in annotations.values()), resp, label_of[labels - 1],
            uncertainty[:, np.newaxis],
        ]

    _write_tables([table(*t) for t in tables], threads)


def write_joint_results(out_dir, ds, results, threads=1) -> None:
    """Write ``model.json`` and the result tables, less the chromosomes ``results`` lacks.

    K and L, and so the state names, are those of the fits in ``results``.
    """
    out, parts = Path(out_dir), [p for p in split_by_chromosome(ds) if p.label in results]
    gene_columns = ds.gene_ids, ds.chromosomes
    # a CpG's gene cells point at its gene's str objects: 8 bytes a row, not 4 a character
    cpg_columns = ds.cpg_ids, *(col.astype(object)[ds.cpg_gene_idx] for col in gene_columns)
    write_layer_tables([
        (out / "gene_results.tsv", dict(zip(EXPRESSION_FIXED_COLUMNS, gene_columns)),
         [(p.genes, results[p.label].gene) for p in parts], "gene"),
        (out / "cpg_results.tsv", dict(zip(METHYLATION_FIXED_COLUMNS, cpg_columns)),
         [(p.cpgs, results[p.label].cpg) for p in parts], "cpg"),
    ], threads)
    write_json(out / "model.json", joint_model_payload(results))


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
