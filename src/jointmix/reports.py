"""Rendering of fitted models, result tables, and benchmark tables.

All writers are deterministic: rows follow input order (or replicate
order), floats are written in shortest round-trip form, and undefined
ratios appear as ``NA`` in TSVs and ``null`` in JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dataset import PairedDataset, _format_number, _format_rows, split_by_chromosome
from .evaluate import BenchmarkResult, MetricReport
from .simulate import CPG_LABELS, GENE_LABELS

GENE_POSTERIOR_COLUMNS = ("posterior_Eminus", "posterior_E0", "posterior_Eplus")
CPG_POSTERIOR_COLUMNS = ("posterior_Mminus", "posterior_M0", "posterior_Mplus")


def format_cell(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating, int, np.integer)):
        return _format_number(v)
    return str(v)


def format_lines(rows) -> list[str]:
    """Each row's cells through :func:`format_cell`, tab-joined."""
    return ["\t".join(map(format_cell, row)) for row in rows]


def write_tsv(path, header, lines) -> None:
    """Write a TSV from its header cells and its already formatted row lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def gene_label_names(k: int) -> list[str]:
    return list(GENE_LABELS) if k == 3 else [f"E{i + 1}" for i in range(k)]


def cpg_label_names(l: int) -> list[str]:
    return list(CPG_LABELS) if l == 3 else [f"M{i + 1}" for i in range(l)]


def gene_posterior_columns(k: int) -> list[str]:
    if k == 3:
        return list(GENE_POSTERIOR_COLUMNS)
    return [f"posterior_E{i + 1}" for i in range(k)]


def cpg_posterior_columns(l: int) -> list[str]:
    if l == 3:
        return list(CPG_POSTERIOR_COLUMNS)
    return [f"posterior_M{i + 1}" for i in range(l)]


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


def result_rows(annotations, fits, names) -> list[str]:
    """One layer's result lines in input order, skipping rows no fit covers.

    ``annotations`` holds the leading per-row columns. Each entry of
    ``fits`` is ``(rows, posteriors, map_labels, uncertainties)`` for
    the input rows one fit covered; map labels are 1-based indices
    into ``names``. Each line is the tab-joined annotations, posteriors,
    MAP label name and uncertainty.
    """
    n = len(annotations[0])
    post = np.empty((n, len(names)))
    labels = np.zeros(n, dtype=np.intp)
    unc = np.empty(n)
    for rows, p, m, u in fits:
        post[rows] = p
        labels[rows] = m
        unc[rows] = u
    covered = np.flatnonzero(labels)
    cols = zip(*(np.asarray(a)[covered].tolist() for a in annotations))
    return [
        "\t".join([*ann, p, names[m - 1], u])
        for ann, p, m, u in zip(
            cols,
            _format_rows(post[covered]),
            labels[covered].tolist(),
            _format_rows(unc[covered, np.newaxis]),
        )
    ]


def assemble_joint_result_rows(ds: PairedDataset, results: dict, K: int, L: int):
    """Per-entity output rows in the input dataset's row order.

    Entities on chromosomes without a successful fit are skipped.
    """
    fitted = [(part, results[part.label]) for part in split_by_chromosome(ds)
              if part.label in results]
    gene_rows = result_rows(
        [ds.gene_ids, ds.chromosomes],
        [(part.genes, r.resp.u_hat, r.map_gene, r.uncertainty_gene) for part, r in fitted],
        gene_label_names(K),
    )
    cpg_rows = result_rows(
        [ds.cpg_ids, ds.gene_ids[ds.cpg_gene_idx], ds.chromosomes[ds.cpg_gene_idx]],
        [(part.cpgs, r.resp.v_hat, r.map_cpg, r.uncertainty_cpg) for part, r in fitted],
        cpg_label_names(L),
    )
    return gene_rows, cpg_rows


def write_joint_results(out_dir, ds, results, K, L) -> list[Path]:
    out = Path(out_dir)
    gene_rows, cpg_rows = assemble_joint_result_rows(ds, results, K, L)
    gene_path = out / "gene_results.tsv"
    write_tsv(
        gene_path,
        ["gene_id", "chromosome", *gene_posterior_columns(K), "map_label", "uncertainty"],
        gene_rows,
    )
    cpg_path = out / "cpg_results.tsv"
    write_tsv(
        cpg_path,
        ["cpg_id", "gene_id", "chromosome", *cpg_posterior_columns(L), "map_label", "uncertainty"],
        cpg_rows,
    )
    model_path = out / "model.json"
    write_json(model_path, joint_model_payload(K, L, results))
    return [gene_path, cpg_path, model_path]


def metric_report_payload(report: MetricReport) -> dict:
    return report.as_dict()


def write_metric_report(out_dir, report: MetricReport, layer: str) -> list[Path]:
    out = Path(out_dir)
    tsv = out / "evaluation.tsv"
    items = [("layer", layer), ("n", report.tp + report.fp + report.tn + report.fn)]
    items += [(k, v) for k, v in report.as_dict().items()]
    write_tsv(tsv, ["metric", "value"], format_lines(items))
    js = out / "evaluation.json"
    write_json(js, {"layer": layer, **report.as_dict()})
    return [tsv, js]


def write_benchmark_tables(out_dir, result: BenchmarkResult) -> list[Path]:
    out = Path(out_dir)
    summary_path = out / "benchmark_summary.tsv"
    write_tsv(
        summary_path,
        ["method", "layer", "metric", "mean", "sd", "n"],
        format_lines(result.summary_rows),
    )
    reps_path = out / "benchmark_replicates.tsv"
    write_tsv(
        reps_path,
        ["replicate", "method", "layer", "metric", "value"],
        format_lines(result.replicate_rows),
    )
    json_path = out / "benchmark.json"
    payload = {
        "config": result.config.to_dict(),
        "methods": list(result.methods),
        "n_replicates": result.n_replicates,
        "failures": {str(k): v for k, v in result.failures.items()},
        "summary": [
            {
                "method": m, "layer": lay, "metric": met,
                "mean": mean, "sd": sd, "n": n,
            }
            for m, lay, met, mean, sd, n in result.summary_rows
        ],
    }
    write_json(json_path, payload)
    return [summary_path, reps_path, json_path]
