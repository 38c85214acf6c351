"""Transforms from raw measurements to model inputs.

Expression counts become log2 counts-per-million and then per-patient
log-fold changes (condition B minus condition A). Methylation beta
values become M-values via a base-2 logit and then per-patient
differences (B minus A). Library normalization is total-count: each
sample's library size is its summed counts after low-count filtering.
"""

from __future__ import annotations

import numpy as np

from .dataset import _block_rows
from .errors import DataDomainError, ParameterError

DEFAULT_COUNT_THRESHOLD = 5
DEFAULT_PSEUDOCOUNT = 0.5
DEFAULT_BETA_EPS = 1e-6


def filter_low_counts(counts_a, counts_b, threshold=DEFAULT_COUNT_THRESHOLD):
    """Indices of genes whose total count across both conditions exceeds ``threshold``.

    The inequality is strict: a gene summing to exactly ``threshold``
    is dropped.
    """
    counts_a = np.asarray(counts_a)
    counts_b = np.asarray(counts_b)
    if counts_a.shape != counts_b.shape:
        raise DataDomainError(
            f"count matrices differ in shape: {counts_a.shape} vs {counts_b.shape}"
        )
    if (counts_a < 0).any() or (counts_b < 0).any():
        raise DataDomainError("negative counts are not allowed")
    totals = counts_a.sum(axis=1) + counts_b.sum(axis=1)
    return np.flatnonzero(totals > threshold)


def total_count_library_sizes(counts):
    """Per-sample library sizes: column sums of the (filtered) count matrix."""
    return np.asarray(counts, dtype=float).sum(axis=0)


def counts_to_logcpm(counts, libs, pseudocount=DEFAULT_PSEUDOCOUNT):
    """log2 of counts-per-million with a pseudocount added on the CPM scale."""
    counts = np.asarray(counts, dtype=float)
    libs = np.asarray(libs, dtype=float)
    if (libs <= 0).any():
        raise DataDomainError("library sizes must be strictly positive")
    cpm = counts / libs[np.newaxis, :] * 1e6
    return np.log2(cpm + pseudocount)


def logfold_change(logcpm_a, logcpm_b):
    """Per-entry log-fold change, condition B minus condition A."""
    a = np.asarray(logcpm_a, dtype=float)
    b = np.asarray(logcpm_b, dtype=float)
    if a.shape != b.shape:
        raise DataDomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    return b - a


def _to_mvalues_in_place(arr, eps):
    """Overwrite the float array ``arr`` of beta values with their M-values; returns ``arr``.

    The clamp, the quotient and the ``log2`` write into ``arr``, and only
    ``1 - clamped`` is a temporary; each is the ufunc that a fresh array
    would get, so the values are the same bit for bit.
    """
    if (arr < 0).any() or (arr > 1).any():
        raise DataDomainError("beta values must lie in [0, 1]")
    np.clip(arr, eps, 1.0 - eps, out=arr)
    np.divide(arr, 1.0 - arr, out=arr)
    return np.log2(arr, out=arr)


def beta_to_mvalue(beta, eps=DEFAULT_BETA_EPS):
    """Base-2 logit of a beta value, clamped to [eps, 1 - eps] first."""
    m = _to_mvalues_in_place(np.array(beta, dtype=float), eps)
    if np.isscalar(beta) or np.ndim(beta) == 0:
        return float(m)
    return m


def mvalue_difference(m_a, m_b, out=None):
    """Per-entry M-value difference, condition B minus condition A, into ``out`` if given."""
    a = np.asarray(m_a, dtype=float)
    b = np.asarray(m_b, dtype=float)
    if a.shape != b.shape:
        raise DataDomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.subtract(b, a, out=out)


def derive_model_inputs(
    counts_a,
    counts_b,
    betas_a,
    betas_b,
    cpg_gene_idx,
    count_threshold=DEFAULT_COUNT_THRESHOLD,
    pseudocount=DEFAULT_PSEUDOCOUNT,
    beta_eps=DEFAULT_BETA_EPS,
):
    """Full raw-to-model pipeline for one paired two-condition dataset.

    Returns ``(kept_genes, x, kept_cpgs, y)`` where ``kept_genes`` and
    ``kept_cpgs`` index into the input rows (CpGs of filtered-out genes
    are removed), ``x`` holds log-fold changes for the retained genes
    and ``y`` holds M-value differences for the retained CpGs. A
    ``pseudocount`` that is not finite and above 0, or a ``beta_eps``
    outside (0, 0.5), is a :class:`ParameterError`; keeping no gene or
    no CpG is a :class:`DataDomainError`, and so is a zero library size,
    whose error's ``where`` locates it.

    ``y`` is filled a block of :func:`dataset._block_rows` rows at a time:
    each block of kept beta rows is gathered and turned into M-values in
    place, so no full-size copy or temporary of a beta matrix is made
    beside ``y``.
    """
    if not 0 < pseudocount < np.inf:
        raise ParameterError(f"pseudocount must be finite and above 0, got {pseudocount}")
    if not 0 < beta_eps < 0.5:
        raise ParameterError(f"beta_eps must lie in (0, 0.5), got {beta_eps}")
    counts_a = np.asarray(counts_a)
    counts_b = np.asarray(counts_b)
    kept_genes = filter_low_counts(counts_a, counts_b, count_threshold)
    if not len(kept_genes):
        raise DataDomainError(
            f"no gene has a total count above the count threshold {count_threshold}"
        )
    keep_mask = np.zeros(counts_a.shape[0], dtype=bool)
    keep_mask[kept_genes] = True
    kept_cpgs = np.flatnonzero(keep_mask[np.asarray(cpg_gene_idx, dtype=np.intp)])
    if not len(kept_cpgs):
        raise DataDomainError("no CpG is left: none maps to a gene that passed filtering")
    fa, fb = counts_a[kept_genes], counts_b[kept_genes]
    libs = total_count_library_sizes(fa), total_count_library_sizes(fb)
    for condition, lib in zip("ab", libs):
        for column in np.flatnonzero(lib <= 0)[:1]:
            raise DataDomainError("a sample has zero library size after filtering",
                                  (condition, int(column)))
    x = logfold_change(
        counts_to_logcpm(fa, libs[0], pseudocount), counts_to_logcpm(fb, libs[1], pseudocount)
    )
    betas_a, betas_b = np.asarray(betas_a), np.asarray(betas_b)
    shape_a, shape_b = ((len(kept_cpgs), b.shape[1]) for b in (betas_a, betas_b))
    if shape_a != shape_b:
        raise DataDomainError(f"shape mismatch: {shape_a} vs {shape_b}")
    y = np.empty(shape_a)
    step = _block_rows(shape_a[1])
    for start in range(0, len(kept_cpgs), step):
        rows = kept_cpgs[start : start + step]
        # a gather is a fresh array, which the M-values may overwrite
        mvalue_difference(
            _to_mvalues_in_place(betas_a[rows].astype(float, copy=False), beta_eps),
            _to_mvalues_in_place(betas_b[rows].astype(float, copy=False), beta_eps),
            out=y[start : start + step],
        )
    return kept_genes, x, kept_cpgs, y
