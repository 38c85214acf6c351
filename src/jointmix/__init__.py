"""Joint mixture modelling of paired gene/CpG differential data."""

__version__ = "0.1.0"

from .baseline import IndepParams, compare_partitions, fit_independent
from .dataset import (
    PairedDataset,
    load_paired_dataset,
    split_by_chromosome,
)
from .evaluate import MetricReport, benchmark, binary_metrics, three_class_ari
from .joint_em import (
    FitResult,
    JointParams,
    Responsibilities,
    e_step_fixed_point,
    exact_gene_posterior,
    fit,
    fit_all_chromosomes,
    gene_given_cpg,
    initialize_quantile,
    m_step,
    map_assign,
    observed_loglik,
)
from .simulate import SimConfig, SimData, SimTruth, replicate_batch, simulate, write_simulation

__all__ = [
    "FitResult",
    "IndepParams",
    "JointParams",
    "MetricReport",
    "PairedDataset",
    "Responsibilities",
    "SimConfig",
    "SimData",
    "SimTruth",
    "benchmark",
    "binary_metrics",
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
    "map_assign",
    "observed_loglik",
    "replicate_batch",
    "simulate",
    "split_by_chromosome",
    "three_class_ari",
    "write_simulation",
    "__version__",
]
