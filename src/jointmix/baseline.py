"""Independent per-layer Gaussian mixture: the no-coupling reference.

Each row of the input matrix is one entity with N conditionally iid
observations; components share a single pooled variance. Initialization,
convergence rule, component relabelling and MAP conventions mirror the
joint model so the two are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .joint_em import (
    DEFAULT_INIT_QUANTILE,
    DEFAULT_OUTER_MAX,
    DEFAULT_OUTER_TOL,
    _LayerBuffers,
    _gauss_row_scores,
    _layer_m_step,
    _log_clip,
    _one_hot,
    _rank_tail_labels,
    _softmax_rows,
)


@dataclass
class IndepParams:
    weights: np.ndarray
    means: np.ndarray
    variance: float

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.weights, self.means, [self.variance]])


@dataclass
class IndepFitResult:
    params: IndepParams
    resp: np.ndarray
    map_labels: np.ndarray
    uncertainty: np.ndarray
    n_iters: int
    converged: bool


def fit_independent(
    values,
    K=3,
    q=DEFAULT_INIT_QUANTILE,
    tol=DEFAULT_OUTER_TOL,
    max_iter=DEFAULT_OUTER_MAX,
    init_labels=None,
) -> IndepFitResult:
    """EM for a K-component equal-variance Gaussian mixture over rows.

    Starts from the quantile initialization (or explicit hard
    ``init_labels``), converges when every parameter entry changes by
    less than ``tol``, and relabels components so means ascend. One
    :class:`_LayerBuffers` per call holds the arrays every iteration
    writes.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise FitError("values must be a 2-d matrix (entities x patients)")
    m = values.shape[0]
    if m < K:
        raise FitError(f"cannot fit {K} clusters to {m} rows")

    if init_labels is None:
        labels = _rank_tail_labels(values, K, q)
    else:
        labels = np.asarray(init_labels, dtype=np.intp)
    resp = _one_hot(labels, K)
    buf = _LayerBuffers(values, K)
    params = IndepParams(*_layer_m_step(values, resp, "independent", buf))

    converged = False
    iters = 0
    for t in range(1, max_iter + 1):
        # the posteriors overwrite the scores they come from, in buf.scores
        scores = _gauss_row_scores(
            values, params.means, params.variance, out=buf.scores, z=buf.z
        )
        scores += _log_clip(params.weights)
        resp = _softmax_rows(
            scores, lambda i: f"row {i}", out=scores, top=buf.top, total=buf.total
        )
        new_params = IndepParams(*_layer_m_step(values, resp, "independent", buf))
        delta = float(np.abs(new_params.flatten() - params.flatten()).max())
        params = new_params
        iters = t
        if delta < tol:
            converged = True
            break

    order = np.argsort(params.means, kind="stable")
    params = IndepParams(
        weights=params.weights[order], means=params.means[order], variance=params.variance
    )
    resp = resp[:, order]
    map_labels = resp.argmax(axis=1) + 1
    uncertainty = 1.0 - resp.max(axis=1)
    return IndepFitResult(
        params=params,
        resp=resp,
        map_labels=map_labels,
        uncertainty=uncertainty,
        n_iters=iters,
        converged=converged,
    )


def compare_partitions(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings of the same entities.

    Computed from the pairwise contingency table. Returns 1.0 in the
    degenerate case where the index is 0/0 (both partitions trivial).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-d and of equal length")
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))
