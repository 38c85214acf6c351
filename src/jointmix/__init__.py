"""Joint mixture modelling of paired gene/CpG differential data."""

import os
import sys

__version__ = "0.1.0"


def _load_numpy_on_one_blas_thread():
    """Import numpy with its BLAS on one thread, then give back the caller's environment.

    A layer's M-step sums over its rows with BLAS dot products, and
    OpenBLAS splits one of more than 10,000 elements over its threads,
    which reorders the sum: the output bytes would depend on the host's
    core count. The fits run in parallel on the process pool, where a BLAS
    pool per worker only contends for the same cores. OpenBLAS reads these
    variables once, when numpy loads it, and forked workers inherit the
    loaded library; the old values go back at once, so that child
    processes see the environment they were given. A caller that imported
    numpy first keeps its own BLAS threads.
    """
    given = {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    os.environ.update(dict.fromkeys(given, "1"))
    try:
        import numpy  # noqa: F401
    finally:
        for name, value in given.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


if "numpy" not in sys.modules:
    _load_numpy_on_one_blas_thread()

from .baseline import IndepParams, compare_partitions, fit_independent  # noqa: E402
from .dataset import (  # noqa: E402
    PairedDataset,
    load_paired_dataset,
    split_by_chromosome,
)
from .evaluate import MetricReport, benchmark, score_labels  # noqa: E402
from .joint_em import (  # noqa: E402
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
from .simulate import (  # noqa: E402
    SimConfig,
    SimData,
    SimTruth,
    replicate_batch,
    simulate,
    write_simulation,
)

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
