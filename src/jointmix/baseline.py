"""Independent per-layer Gaussian mixture: the no-coupling reference.

Each row of the input matrix is one entity with N conditionally iid
observations; components share a single pooled variance. The fit runs
the joint model's EM outer loop with its initialization, convergence
rule, and relabels components and takes MAP labels through the same
``joint_em._layer_fit``, so both fits yield the same ``LayerFit`` and
are directly comparable; only its E-step is its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _check_values
from .errors import FitError, ParameterError
from .joint_em import (
    DEFAULT_INIT_QUANTILE,
    DEFAULT_OUTER_MAX,
    DEFAULT_OUTER_TOL,
    LayerFit,
    _LayerBuffers,
    _check_settings,
    _em,
    _gauss_row_scores,
    _layer_fit,
    _layer_m_step,
    _log_clip,
    _quantile_start,
    _softmax_rows,
)


@dataclass
class IndepParams:
    weights: np.ndarray
    means: np.ndarray
    variance: float

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.weights, self.means, [self.variance]])

    def layers(self) -> tuple:
        """The layer: ``(means_key, means, variance_key, variance)``, by ``model.json``'s keys."""
        return (("means", self.means, "variance", self.variance),)


@dataclass
class IndepFitResult:
    params: IndepParams
    layer: LayerFit
    n_iters: int
    converged: bool


def _e_step(values: np.ndarray, params: IndepParams, buf: _LayerBuffers) -> np.ndarray:
    """Row posteriors, a softmax of ``log weights + scores``, in ``buf.rows``.

    The scores are component-major in ``buf.scores``, as in the joint
    E-step, and the softmax writes the posteriors row-major, as the
    M-step reads them. The weights are added one row at a time, as
    :func:`joint_em._gauss_row_scores` explains.
    """
    scores = _gauss_row_scores(values, params.means, params.variance, out=buf.scores, z=buf.z)
    log_weights = _log_clip(params.weights)
    for j in range(len(log_weights)):
        scores[j] += log_weights[j]
    _softmax_rows(scores, lambda i: f"row {i}", out=buf.rows.T, top=buf.top, total=buf.total)
    return buf.rows


def fit_independent(
    values,
    K=3,
    q=DEFAULT_INIT_QUANTILE,
    tol=DEFAULT_OUTER_TOL,
    max_iter=DEFAULT_OUTER_MAX,
) -> IndepFitResult:
    """EM for a K-component equal-variance Gaussian mixture over rows.

    Runs the joint fit's outer loop, :func:`joint_em._em`, from the same
    quantile start and with the same stopping rule, but with this
    model's own E-step, a softmax of ``log weights + scores`` per row.
    Components are then relabelled so means ascend. ``values`` that are
    not a 2-d matrix of at least one column, a setting out of range
    (``joint_em._check_settings``), and a value the table reader would
    reject (named by its 0-based row and column), are a
    :class:`ParameterError`. One :class:`_LayerBuffers`
    per call holds the arrays every iteration writes. ``values`` are read
    as C-contiguous float64, copied only if they are not already, so the
    bits of a fit do not depend on their memory layout, as with ``joint_em.fit``.
    """
    values = np.asarray(values, dtype=float, order="C")
    if values.ndim != 2 or values.shape[1] < 1:
        raise ParameterError(
            f"values must be a 2-d matrix (entities x patients) with a patient, "
            f"got shape {values.shape}"
        )
    _check_settings(K, q, tol, max_iter)
    _check_values(values, lambda row, col, problem: ParameterError(
        f"{problem} in row {row}, column {col}"))
    resp = _quantile_start(values, K, q)
    m = values.shape[0]
    if m < K:
        raise FitError(f"cannot fit {K} clusters to {m} rows")
    buf = _LayerBuffers(values, K)

    def m_step(resp):
        return IndepParams(*_layer_m_step(values, resp, "independent", buf))

    params, resp, trace, converged = _em(
        lambda params, _: _e_step(values, params, buf), m_step, resp, tol, max_iter
    )
    order, layer = _layer_fit(params.means, resp)
    params = IndepParams(params.weights[order], params.means[order], params.variance)
    return IndepFitResult(params, layer, len(trace), converged)


def compare_partitions(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings of the same entities.

    Computed from the pairwise contingency table. Returns 1.0 in the
    degenerate case where the index is 0/0 (both partitions trivial, as
    two labelings of no entity or of one are).
    Its sums are of whole numbers, exact below 2**53 (about 10**8
    labels): the index does not depend on the order of the labels, nor
    on whether they are names or integers.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be 1-d and of equal length")
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    cols = bi.max(initial=0) + 1
    table = np.bincount(ai * cols + bi, minlength=(ai.max(initial=0) + 1) * cols).reshape(-1, cols)

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
