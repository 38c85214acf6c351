"""Joint mixture modelling of paired gene/CpG differential data."""

__version__ = "0.1.0"

from .baseline import IndepParams, compare_partitions, fit_independent
from .dataset import (
    PairedDataset,
    load_paired_dataset,
    split_by_chromosome,
)
from .evaluate import MetricReport, benchmark, score_labels
from .joint_em import (
    FitResult,
    JointParams,
    LayerFit,
    Responsibilities,
    e_step_fixed_point,
    exact_gene_posterior,
    fit,
    fit_all_chromosomes,
    gene_given_cpg,
    initialize_quantile,
    m_step,
    observed_loglik,
)
from .simulate import SimConfig, SimData, SimTruth, replicate_batch, simulate, write_simulation

__all__ = [
    "FitResult",
    "IndepParams",
    "JointParams",
    "LayerFit",
    "MetricReport",
    "PairedDataset",
    "Responsibilities",
    "SimConfig",
    "SimData",
    "SimTruth",
    "benchmark",
    "compare_partitions",
    "e_step_fixed_point",
    "exact_gene_posterior",
    "fit",
    "fit_all_chromosomes",
    "fit_independent",
    "gene_given_cpg",
    "initialize_quantile",
    "load_paired_dataset",
    "m_step",
    "observed_loglik",
    "replicate_batch",
    "score_labels",
    "simulate",
    "split_by_chromosome",
    "write_simulation",
    "__version__",
]
