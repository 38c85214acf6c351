"""Scoring of predicted labels against truth, and benchmark aggregation.

FDR, sensitivity and specificity are computed after collapsing the
three states to differential (down or up) versus null, which is the
only way a single rate per layer is well defined; the adjusted Rand
index is computed on the full three-class partition. Ratios with an
empty denominator are reported as ``None``, never coerced to 0 or 1.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baseline import compare_partitions, fit_independent
from .dataset import PairedDataset, _run_each
from .errors import JointmixError, ParameterError
from .joint_em import fit
from .preprocess import derive_model_inputs
from .simulate import CPG_LABELS, GENE_LABELS, NULL_STATE, SimConfig, simulate

logger = logging.getLogger(__name__)

NULL_LABELS = frozenset({GENE_LABELS[NULL_STATE], CPG_LABELS[NULL_STATE]})
METRIC_NAMES = ("fdr", "sensitivity", "specificity", "ari")
KNOWN_METHODS = ("joint", "independent")
AGREEMENT_METHOD = "joint_vs_independent"


@dataclass
class MetricReport:
    """Binary confusion counts plus derived rates and the 3-class ARI."""

    tp: int
    fp: int
    tn: int
    fn: int
    fdr: float | None
    sensitivity: float | None
    specificity: float | None
    ari: float

    def as_dict(self) -> dict:
        return asdict(self)


def _ratio(num, den):
    return num / den if den > 0 else None


def score_labels(truth, predicted, null=NULL_LABELS) -> MetricReport:
    """Score one labelling: the differential-vs-null 2x2 table, its rates and the ARI.

    A label in ``null`` is null, any other differential: the label names
    by default, ``(NULL_STATE,)`` for the integer states of a simulation.
    Labels of unequal length, or none at all, are a :class:`ParameterError`.
    """
    t = np.asarray(truth)
    p = np.asarray(predicted)
    if t.shape != p.shape:
        raise ParameterError("truth and prediction differ in length")
    if not t.size:
        raise ParameterError("no labels to score")
    # a sort-based test is the faster one for names and small integer states alike
    t_pos = ~np.isin(t, list(null), kind="sort")
    p_pos = ~np.isin(p, list(null), kind="sort")
    tp = int(np.sum(t_pos & p_pos))
    fp = int(np.sum(~t_pos & p_pos))
    tn = int(np.sum(~t_pos & ~p_pos))
    fn = int(np.sum(t_pos & ~p_pos))
    return MetricReport(
        tp=tp, fp=fp, tn=tn, fn=fn,
        fdr=_ratio(fp, tp + fp),
        sensitivity=_ratio(tp, tp + fn),
        specificity=_ratio(tn, tn + fp),
        ari=compare_partitions(t, p),
    )


def simulated_dataset(sim):
    """Preprocess one simulation with the ``preprocess`` defaults.

    Returns ``(ds, gene_truth, cpg_truth)`` restricted to the genes that
    survive low-count filtering (and their CpGs); the truths are integer
    states, as in :class:`~jointmix.simulate.SimTruth`.
    """
    t = sim.truth
    kept_g, x, kept_c, y = derive_model_inputs(
        sim.counts_a, sim.counts_b, sim.betas_a, sim.betas_b, t.cpg_gene_idx
    )
    ds = PairedDataset(
        patients=list(sim.patients),
        gene_ids=np.asarray(t.gene_ids, dtype=str)[kept_g],
        chromosomes=np.full(len(kept_g), "1"),
        x=x,
        cpg_ids=np.asarray(t.cpg_ids, dtype=str)[kept_c],
        cpg_gene_idx=np.searchsorted(kept_g, t.cpg_gene_idx[kept_c]),
        y=y,
    )
    return ds, t.gene_states[kept_g], t.cpg_states[kept_c]


def run_replicate(cfg: SimConfig, methods=KNOWN_METHODS) -> list:
    """Simulate, preprocess, fit the requested methods and score them.

    Returns ``(method, layer, metric, value)`` rows: the
    ``METRIC_NAMES`` of each layer of each fitted method, joint before
    independent, then the two joint-vs-independent ARIs when both ran.
    The MAP labels are scored as states, ``map_labels - 1``, against the
    truth states: the values are those of scoring the label names.
    """
    sim = simulate(cfg)
    ds, gene_truth, cpg_truth = simulated_dataset(sim)

    layers: dict = {}  # method -> (gene LayerFit, CpG LayerFit)
    if "joint" in methods:
        res = fit(ds)
        layers["joint"] = (res.gene, res.cpg)
    if "independent" in methods:
        layers["independent"] = tuple(fit_independent(v, K=3).layer for v in (ds.x, ds.y))
    truths = (("gene", gene_truth), ("cpg", cpg_truth))
    states: dict = {}  # (method, layer) -> predicted states
    rows = []
    for method, fits in layers.items():
        for (layer, truth), lf in zip(truths, fits):
            states[method, layer] = lf.map_labels - 1
            report = score_labels(truth, states[method, layer], null=(NULL_STATE,))
            rows += [(method, layer, metric, getattr(report, metric)) for metric in METRIC_NAMES]
    if len(layers) == 2:
        rows += [
            (AGREEMENT_METHOD, layer, "ari",
             compare_partitions(states["joint", layer], states["independent", layer]))
            for layer in ("gene", "cpg")
        ]
    return rows


@dataclass
class BenchmarkResult:
    """Per-replicate metric values and their mean/sd aggregation.

    ``replicate_rows`` holds (replicate, method, layer, metric, value)
    with value possibly None; ``summary_rows`` holds
    (method, layer, metric, mean, sd, n) where n counts the defined
    per-replicate values entering the mean.
    """

    config: SimConfig
    methods: tuple
    n_replicates: int
    replicate_rows: list
    summary_rows: list
    failures: dict


def _aggregate(rows, methods_layers_metrics):
    summary = []
    for method, layer, metric in methods_layers_metrics:
        values = [
            v for (_, m, lay, met, v) in rows
            if m == method and lay == layer and met == metric and v is not None
        ]
        if values:
            arr = np.array(values, dtype=float)
            mean = float(arr.mean())
            sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        else:
            mean = None
            sd = None
        summary.append((method, layer, metric, mean, sd, len(values)))
    return summary


def benchmark(
    case,
    n_datasets,
    methods=KNOWN_METHODS,
    cfg: SimConfig | None = None,
    threads=1,
) -> BenchmarkResult:
    """Score ``n_datasets`` replicates of ``case`` and aggregate to mean/sd tables.

    Replicates are independent and run on up to ``threads`` worker
    processes (see :func:`~jointmix.dataset._run_each`); rows are
    assembled in replicate order, so the output is identical for any
    worker count. Replicates whose fit fails are
    recorded in ``failures`` and excluded from the aggregation. An
    empty ``methods``, an unknown or repeated method, ``threads`` below 1
    and a ``cfg`` ``SimConfig.validate`` rejects are a :class:`ParameterError`.
    """
    if n_datasets < 2:
        raise ParameterError("benchmark needs at least 2 replicates")
    if not methods:
        raise ParameterError("benchmark needs at least one method")
    for i, m in enumerate(methods):
        if m not in KNOWN_METHODS:
            raise ParameterError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ParameterError(f"method {m!r} is listed twice")
    base = replace(cfg if cfg is not None else SimConfig(), case=case)
    base.validate()
    results, failed = _run_each(
        lambda r: run_replicate(replace(base, replicate=base.replicate + r), methods),
        {r: r for r in range(n_datasets)}, threads, JointmixError,
    )
    failures = {r: str(exc) for r, exc in failed.items()}
    if failures:
        logger.warning("%d of %d replicates failed to fit", len(failures), n_datasets)

    rows = [(r, *row) for r, replicate in results.items() for row in replicate]
    combos = [(m, lay, met) for m in methods for lay in ("gene", "cpg") for met in METRIC_NAMES]
    if set(methods) == set(KNOWN_METHODS):
        combos += [(AGREEMENT_METHOD, "gene", "ari"), (AGREEMENT_METHOD, "cpg", "ari")]
    summary = _aggregate(rows, combos)
    return BenchmarkResult(
        config=base,
        methods=tuple(methods),
        n_replicates=n_datasets,
        replicate_rows=rows,
        summary_rows=summary,
        failures=failures,
    )
