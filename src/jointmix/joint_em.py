"""Joint nested two-level mixture model fitted by EM.

Genes carry a K-component Gaussian mixture over per-patient log-fold
changes; each gene's CpG sites carry an L-component Gaussian mixture
over per-patient M-value differences, with the CpG cluster distribution
conditioned on the gene's cluster through a column-stochastic L x K
matrix ``pi``. Both layers share one pooled variance each.

The posterior cluster memberships of a gene and its CpGs are mutually
coupled, so the E-step runs a small fixed-point iteration that
alternates the two conditional responsibility updates until they stop
moving, then approximates the joint expectation by the product of the
converged marginals. An exact per-gene marginalization is available as
a test oracle and as an observed-likelihood diagnostic.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataset import PairedDataset, split_by_chromosome
from .errors import (
    DegenerateClusterError,
    FitError,
    NumericalError,
    ParameterError,
    UndefinedColumnError,
)

logger = logging.getLogger(__name__)

MASS_EPS = 1e-8
VARIANCE_FLOOR = 1e-8

DEFAULT_OUTER_TOL = 1e-5
DEFAULT_OUTER_MAX = 500
DEFAULT_INNER_TOL = 1e-6
DEFAULT_INNER_MAX = 50
DEFAULT_INIT_QUANTILE = 0.10

# log(sqrt(2 pi)), computed as scipy.stats computes its normal-density constant
LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


def logsumexp(a, axis=None, keepdims=False):
    """``log(sum(exp(a)))`` over ``axis``, shifted by the maximum for stability.

    A non-finite maximum shifts by 0, so a slice of all ``-inf`` gives
    ``-inf`` (without a warning) and one holding ``inf`` gives ``inf``.
    ``axis=None`` reduces over every element and returns a scalar.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        shift = np.max(a, axis=axis, keepdims=True)
        shift[~np.isfinite(shift)] = 0.0
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    if keepdims:
        return out
    if axis is None:
        return out.reshape(())[()]
    return np.squeeze(out, axis=axis)


@dataclass
class JointParams:
    """Model parameters.

    ``tau``: gene cluster weights (K,). ``pi``: L x K matrix whose
    column k is the CpG-cluster distribution given gene cluster k.
    ``mu``/``sigma2``: gene component means and pooled variance.
    ``lam``/``rho2``: CpG component means and pooled variance.
    """

    tau: np.ndarray
    pi: np.ndarray
    mu: np.ndarray
    sigma2: float
    lam: np.ndarray
    rho2: float

    @property
    def n_gene_clusters(self) -> int:
        return len(self.tau)

    @property
    def n_cpg_clusters(self) -> int:
        return len(self.lam)

    def validate(self, atol=1e-10) -> None:
        if abs(self.tau.sum() - 1.0) > atol:
            raise ValueError("tau does not sum to 1")
        if np.abs(self.pi.sum(axis=0) - 1.0).max() > atol:
            raise ValueError("pi columns do not sum to 1")
        if self.sigma2 <= 0 or self.rho2 <= 0:
            raise ValueError("variances must be positive")

    def flatten(self) -> np.ndarray:
        return np.concatenate(
            [self.tau, self.pi.ravel(), self.mu, [self.sigma2], self.lam, [self.rho2]]
        )

    def copy(self) -> "JointParams":
        return JointParams(
            self.tau.copy(), self.pi.copy(), self.mu.copy(), self.sigma2,
            self.lam.copy(), self.rho2,
        )


@dataclass
class Responsibilities:
    """Posterior membership estimates from one E-step.

    ``u_hat``: (G, K) gene posteriors. ``v_hat``: (C, L) CpG posteriors.
    The joint expectation of CpG c in CpG cluster l with its parent gene
    in gene cluster k is the product of the two converged marginals,
    ``u_hat[cpg_gene_idx[c], k] * v_hat[c, l]``; it is never stored.

    Returned by :func:`e_step_fixed_point` with a workspace passed, the
    arrays alias that workspace and the next E-step on it overwrites
    them; each sweep still recomputes the Gaussian scores, on purpose
    (see there).
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    n_sweeps: int = 0


@dataclass
class LayerFit:
    """One fitted mixture layer, its components in ascending order of their means.

    ``resp``: (M, k) posteriors. ``map_labels``: 1-based MAP labels.
    ``uncertainty``: one minus the winning posterior. Built only by
    :func:`_layer_fit`, for the joint fit's gene and CpG layers and for
    the independent baseline alike.
    """

    resp: np.ndarray
    map_labels: np.ndarray
    uncertainty: np.ndarray


@dataclass
class FitResult:
    """A joint fit: relabelled ``params``, the ``gene`` and ``cpg`` layers, the EM record."""

    params: JointParams
    gene: LayerFit
    cpg: LayerFit
    n_outer_iters: int
    converged: bool
    param_change_trace: np.ndarray


def _quantile_start(values: np.ndarray, k: int, q: float) -> np.ndarray:
    """One-hot start of one layer's k clusters from its ranked row means.

    The bottom q-fraction of rows starts in cluster 0, the top one in
    cluster k-1 and the rest in between, split evenly; k = 2 splits at
    the median and k = 1 takes every row. Ties break by input order
    (stable sort). The tail size is max(1, floor(q*m)), so the extreme
    clusters are never empty. A ``q`` outside (0, 0.5) is a
    :class:`ParameterError`.
    """
    if not 0.0 < q < 0.5:
        raise ParameterError(f"init quantile must lie in (0, 0.5), got {q}")
    m = values.shape[0]
    order = np.argsort(values.mean(axis=1), kind="stable")
    labels = np.zeros(m, dtype=np.intp)
    if k == 2:
        labels[order[m // 2:]] = 1
    elif k > 2:
        n_tail = max(1, int(q * m))
        labels[order[m - n_tail:]] = k - 1
        for j, block in enumerate(np.array_split(order[n_tail: m - n_tail], k - 2)):
            labels[block] = 1 + j
    out = np.zeros((m, k))
    out[np.arange(m), labels] = 1.0
    return out


def initialize_quantile(ds: PairedDataset, K=3, L=3, q=DEFAULT_INIT_QUANTILE):
    """Hard initial memberships from ranked per-entity means.

    Genes with the lowest q-fraction of mean values start in cluster 1,
    the highest q-fraction in cluster K, the rest in the middle; CpGs
    are ranked the same way into L clusters.
    """
    return _quantile_start(ds.x, K, q), _quantile_start(ds.y, L, q)


class _LayerBuffers:
    """The arrays one mixture layer over ``values`` (M, N) with k components writes.

    ``scores`` and ``z`` hold the Gaussian score sums and their
    per-patient term, ``top`` and ``total`` the softmax row maxima and
    row sums, ``dev`` and ``dev_sums`` the M-step's squared deviations
    and their row sums. ``row_sums`` is the loop invariant
    ``values.sum(axis=1)``.
    """

    def __init__(self, values: np.ndarray, k: int):
        m, n = values.shape
        self.scores = np.empty((m, k))
        self.z = np.empty((m, k))
        self.top = np.empty(m)
        self.total = np.empty(m)
        self.dev = np.empty((m, n))
        self.dev_sums = np.empty(m)
        self.row_sums = values.sum(axis=1)


class _Workspace:
    """Every array the E- and M-steps of one fit write, built once per fit.

    A fit reuses it on every sweep, so no sweep allocates or frees a
    (C, K) or (C, N) temporary. It is private to one fit and never
    shared: fits run concurrently on pool threads. ``u`` and ``v`` are
    ping-pong pairs for the responsibilities, ``gene_to_cpg`` holds
    ``u @ log(pi).T`` before its gather to the CpGs, ``u_of_cpg`` the
    gathered ``u[cpg_gene_idx]`` of the M-step, ``flat_gidx`` the index
    ``cpg_gene_idx * L + l`` of the CpG posteriors flattened row-major
    (one ``bincount`` sums them per gene and cluster), and
    ``cpg_counts`` the per-gene CpG counts as floats.
    """

    def __init__(self, ds: PairedDataset, K: int, L: int):
        G, C = ds.n_genes, ds.n_cpgs
        self.gene = _LayerBuffers(ds.x, K)
        self.cpg = _LayerBuffers(ds.y, L)
        self.u = (np.empty((G, K)), np.empty((G, K)))
        self.v = (np.empty((C, L)), np.empty((C, L)))
        self.gene_to_cpg = np.empty((G, L))
        self.u_of_cpg = np.empty((C, K))
        self.flat_gidx = (ds.cpg_gene_idx[:, np.newaxis] * L + np.arange(L)).ravel()
        self.cpg_counts = ds.cpg_counts.astype(float)


def _other(pair, current):
    """The buffer of ``pair`` that is not ``current``."""
    return pair[1] if current is pair[0] else pair[0]


def _row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` into ``out``, bit for bit.

    numpy sums a row of fewer than 8 elements one element after the
    other, so there adding column after column gives the same bits at a
    fraction of the cost of a reduction along the short last axis. From
    8 on numpy sums pairwise, and so does this function.
    """
    if not 0 < a.shape[1] < 8:
        return np.sum(a, axis=1, out=out)
    np.copyto(out, a[:, 0])
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _column_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)``, bit for bit.

    For a C-contiguous ``a`` of at least 2 columns numpy adds the rows
    one after the other, as ``einsum`` does, but ``einsum`` does it
    without the reduction's short inner loop over the columns. A single
    column numpy sums pairwise, and a Fortran-ordered ``a`` column by
    column; there the reduction itself is used.
    """
    if a.shape[1] >= 2 and a.flags.c_contiguous:
        return np.einsum("ck->k", a)
    return a.sum(axis=0)


def _gauss_row_scores(values: np.ndarray, means: np.ndarray, var: float, out=None, z=None):
    """Summed log N(value; mean_k, var) over the patient axis, shape (M, K).

    The arithmetic is ``scipy.stats.norm.logpdf``'s, in its operation
    order, and patients are accumulated one at a time in column order:
    the sums are then bit-for-bit those of the per-patient scipy loop,
    so fitted posteriors and result files stay byte-identical, without
    scipy's per-call argument checking. The sums go to ``out`` and each
    patient's term to the scratch ``z``, both (M, K) and allocated when
    not given.

    No operand of an (M, K) operation here, or in the E-steps that add
    log-weights to these scores, is broadcast: a (K,) or (M, 1) operand
    sends every row through numpy's iterator buffers, which is slower
    and allocates. Each is applied one column ``[:, j]`` at a time, a
    contiguous pass with a scalar or a vector of the column's length.
    """
    shape = (values.shape[0], len(means))
    total = np.empty(shape) if out is None else out
    z = np.empty(shape) if z is None else z
    scale = np.sqrt(var)
    log_scale = np.log(scale)
    total.fill(0.0)
    for n in range(values.shape[1]):
        # (-z**2 / 2.0 - LOG_SQRT_2PI) - log_scale with z = (x - mean) / scale,
        # step by step in place; dividing by -2 is exactly negating, then halving
        for j in range(len(means)):
            np.subtract(values[:, n], means[j], out=z[:, j])
        z /= scale
        np.square(z, out=z)
        z /= -2.0
        z -= LOG_SQRT_2PI
        z -= log_scale
        total += z
    return total


def _softmax_rows(logits: np.ndarray, entity_ids, out=None, top=None, total=None):
    """Row-wise softmax; a non-finite row raises for ``entity_ids(row)``.

    The result goes to ``out``, which may be ``logits`` itself; ``top``
    and ``total`` take the row maxima and row sums. Each is allocated
    when not given.
    """
    m = logits.shape[0]
    out = np.empty(logits.shape) if out is None else out
    top = np.empty(m) if top is None else top
    total = np.empty(m) if total is None else total
    # a running maximum over the columns is exact in any order and much
    # cheaper than a reduction along the short last axis
    np.copyto(top, logits[:, 0])
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    # a row of all -inf, or one holding +inf or nan, turns all nan here;
    # every other row has entries in [0, 1] and one of exactly 1, so a
    # row sum in [1, K]: a non-finite row sum marks exactly the bad rows,
    # and the sum of the row sums, which cannot overflow, is non-finite
    # exactly when one of them is.
    # Column by column, the (M, 1) operand is not broadcast: numpy would
    # copy it through buffers, which is slower and allocates.
    with np.errstate(invalid="ignore"):
        for j in range(logits.shape[1]):
            np.subtract(logits[:, j], top, out=out[:, j])
        np.exp(out, out=out)
        _row_sums(out, total)
        for j in range(out.shape[1]):
            out[:, j] /= total
    if not np.isfinite(total.sum()):
        bad = int(np.flatnonzero(~np.isfinite(total))[0])
        raise NumericalError(entity_ids(bad))
    return out


def _max_abs_diff(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """``np.abs(a - b).max(initial=0.0)``, computed in ``scratch``."""
    np.subtract(a, b, out=scratch)
    np.abs(scratch, out=scratch)
    return scratch.max(initial=0.0)


def _log_clip(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, 1e-300))


def e_step_fixed_point(
    ds: PairedDataset,
    params: JointParams,
    warm: Responsibilities,
    inner_tol=DEFAULT_INNER_TOL,
    inner_max=DEFAULT_INNER_MAX,
    work=None,
) -> Responsibilities:
    """Alternating responsibility updates until stationarity.

    Each sweep recomputes the gene update from the current CpG
    responsibilities and then the CpG update from the fresh gene
    responsibilities, both in the log domain. Terminates when no entry
    moves by more than ``inner_tol`` or after ``inner_max`` sweeps.

    The Gaussian score sums do not change inside one E-step, yet every
    sweep evaluates them in full, on purpose: this keeps the E-step's
    cost proportional to the number of patients, which acceptance
    criterion 8 (fit time linear in N) requires. Computing them once
    per E-step gives identical results but breaks that criterion.

    Every array a sweep writes lives in ``work``, the fit's
    :class:`_Workspace`; without one a fresh workspace is built. The
    arrays of ``warm`` are only read. When ``work`` is passed, the
    returned ``u_hat`` and ``v_hat`` alias it: the next E-step on the
    same workspace overwrites them.
    """
    if work is None:
        work = _Workspace(ds, params.n_gene_clusters, params.n_cpg_clusters)
    gidx = ds.cpg_gene_idx
    G = ds.n_genes
    L = params.n_cpg_clusters
    log_tau = _log_clip(params.tau)
    log_pi = _log_clip(params.pi)
    gene, cpg = work.gene, work.cpg

    def gene_id(i):
        return str(ds.gene_ids[i])

    def cpg_id(i):
        return str(ds.cpg_ids[i])

    u = warm.u_hat
    v = warm.v_hat
    sweeps = 0
    for s in range(1, inner_max + 1):
        # gene update: softmax(log_tau + log_px + sv @ log_pi)
        log_px = _gauss_row_scores(ds.x, params.mu, params.sigma2, out=gene.scores, z=gene.z)
        for k in range(len(log_tau)):
            log_px[:, k] += log_tau[k]
        sv = np.bincount(work.flat_gidx, weights=v.ravel(), minlength=G * L).reshape(G, L)
        u_new = np.matmul(sv, log_pi, out=_other(work.u, u))
        u_new += log_px
        _softmax_rows(u_new, gene_id, out=u_new, top=gene.top, total=gene.total)
        # CpG update: softmax(log_py + (u_new @ log_pi.T)[gidx])
        log_py = _gauss_row_scores(ds.y, params.lam, params.rho2, out=cpg.scores, z=cpg.z)
        np.matmul(u_new, log_pi.T, out=work.gene_to_cpg)
        # the indices were checked when the dataset was built; "clip" spares
        # the full copy that take(out=...) buffers under the default "raise"
        v_new = np.take(work.gene_to_cpg, gidx, axis=0, out=_other(work.v, v), mode="clip")
        v_new += log_py
        _softmax_rows(v_new, cpg_id, out=v_new, top=cpg.top, total=cpg.total)
        # the score scratch is free again: it takes the differences
        delta = max(_max_abs_diff(u_new, u, gene.z), _max_abs_diff(v_new, v, cpg.z))
        u, v = u_new, v_new
        sweeps = s
        if delta < inner_tol:
            break
    return Responsibilities(u_hat=u, v_hat=v, n_sweeps=sweeps)


def exact_gene_posterior(ds: PairedDataset, params: JointParams, gene_index: int):
    """Exact marginal posteriors for one gene and its CpGs.

    The posterior factorizes over a gene's CpGs given the gene cluster,
    so the gene posterior needs only a sum over L per CpG and the CpG
    posterior is the gene-cluster mixture of conditional assignments.
    Used as a test oracle for the fixed-point approximation.
    """
    idx = ds.gene_cpg_indices(gene_index)
    log_pi = _log_clip(params.pi)
    log_px = _gauss_row_scores(ds.x[gene_index : gene_index + 1], params.mu, params.sigma2)[0]
    log_py = _gauss_row_scores(ds.y[idx], params.lam, params.rho2)
    inner = log_pi.T[np.newaxis, :, :] + log_py[:, np.newaxis, :]  # (C_g, K, L)
    log_u = _log_clip(params.tau) + log_px
    if len(idx):
        log_u = log_u + logsumexp(inner, axis=2).sum(axis=0)
    u = np.exp(log_u - logsumexp(log_u))
    u /= u.sum()
    if len(idx):
        cond = np.exp(inner - logsumexp(inner, axis=2, keepdims=True))
        v = np.einsum("k,ckl->cl", u, cond)
    else:
        v = np.zeros((0, params.n_cpg_clusters))
    return u, v


def observed_loglik(ds: PairedDataset, params: JointParams) -> float:
    """Observed-data log-likelihood under exact per-gene marginalization.

    Diagnostic only: the EM convergence rule is on parameter change.
    """
    log_pi = _log_clip(params.pi)
    log_px = _gauss_row_scores(ds.x, params.mu, params.sigma2)
    scores = _log_clip(params.tau) + log_px
    if ds.n_cpgs:
        log_py = _gauss_row_scores(ds.y, params.lam, params.rho2)
        log_mix = logsumexp(
            log_pi.T[np.newaxis, :, :] + log_py[:, np.newaxis, :], axis=2
        )  # (C, K)
        per_gene = np.zeros((ds.n_genes, params.n_gene_clusters))
        np.add.at(per_gene, ds.cpg_gene_idx, log_mix)
        scores = scores + per_gene
    return float(logsumexp(scores, axis=1).sum())


def expected_complete_loglik(ds: PairedDataset, u, v, params: JointParams) -> float:
    """Expected complete-data log-likelihood at fixed responsibilities."""
    q = float((u * _gauss_row_scores(ds.x, params.mu, params.sigma2)).sum())
    q += float(u.sum(axis=0) @ _log_clip(params.tau))
    if ds.n_cpgs:
        q += float((v * _gauss_row_scores(ds.y, params.lam, params.rho2)).sum())
        q += float(np.einsum("ck,cl,lk->", u[ds.cpg_gene_idx], v, _log_clip(params.pi)))
    return q


def _layer_m_step(values: np.ndarray, resp: np.ndarray, layer: str, buf: _LayerBuffers):
    """Weights, means and pooled variance of one equal-variance layer.

    Component variances are estimated per cluster and then pooled; the
    pooling weights are the cluster mass fractions, which makes the
    pooled value the maximizer of the expected complete-data
    log-likelihood under the equal-variance constraint. A cluster whose
    mass falls below ``MASS_EPS`` raises
    :class:`DegenerateClusterError` for ``layer``. The deviations are
    formed in ``buf``, the layer's :class:`_LayerBuffers`.
    """
    m, k = resp.shape
    n = values.shape[1]
    mass = _column_sums(resp)
    for j in range(k):
        if mass[j] < MASS_EPS:
            raise DegenerateClusterError(layer, j)
    weights = mass / m
    means = (resp.T @ buf.row_sums) / (n * mass)
    var_j = np.empty(k)
    for j in range(k):
        dev = np.subtract(values, means[j], out=buf.dev)
        np.multiply(dev, dev, out=dev)
        var_j[j] = (resp[:, j] @ _row_sums(dev, buf.dev_sums)) / (n * mass[j])
    variance = max(float(weights @ var_j), VARIANCE_FLOOR)
    return weights, means, variance


def m_step(ds: PairedDataset, u, v, work=None) -> JointParams:
    """Closed-form parameter updates for fixed responsibilities.

    Each layer gets its weights, means and pooled variance from
    :func:`_layer_m_step`; ``pi`` is the CpG-cluster mass per gene
    cluster over that cluster's CpG count. The scratch arrays live in
    ``work``, the fit's :class:`_Workspace`, built when not given.
    """
    K = u.shape[1]
    L = v.shape[1]
    if work is None:
        work = _Workspace(ds, K, L)
    tau, mu, sigma2 = _layer_m_step(ds.x, u, "gene", work.gene)
    _, lam, rho2 = _layer_m_step(ds.y, v, "cpg", work.cpg)

    # summed joint expectations u[gene of c, k] * v[c, l] over CpGs c: einsum
    # is bit for bit the sum of that (C, K, L) product, a BLAS product is not
    u_of_cpg = np.take(u, ds.cpg_gene_idx, axis=0, out=work.u_of_cpg, mode="clip")
    num = np.einsum("ck,cl->lk", u_of_cpg, v)
    den = u.T @ work.cpg_counts
    pi = np.empty((L, K))
    for k in range(K):
        if den[k] < MASS_EPS:
            logger.warning(
                "gene cluster %d has no CpG mass; resetting its pi column to uniform", k
            )
            pi[:, k] = 1.0 / L
        else:
            pi[:, k] = num[:, k] / den[k]

    return JointParams(tau=tau, pi=pi, mu=mu, sigma2=sigma2, lam=lam, rho2=rho2)


def _layer_fit(means: np.ndarray, resp: np.ndarray):
    """The components of one layer in ascending order of ``means``, and its :class:`LayerFit`.

    Returns ``(order, layer)``: ``order`` is the stable ``argsort`` of
    ``means``, which the caller applies to the layer's parameters, and
    ``layer`` holds ``resp`` with its columns in that order, the MAP
    labels (1-based, ties to the lowest index) and the uncertainties.
    """
    order = np.argsort(means, kind="stable")
    resp = resp[:, order]
    return order, LayerFit(resp, resp.argmax(axis=1) + 1, 1.0 - resp.max(axis=1))


def gene_given_cpg(params: JointParams) -> np.ndarray:
    """Bayes inversion: column l holds P(gene cluster k | CpG cluster l)."""
    joint = params.tau[:, np.newaxis] * params.pi.T  # (K, L)
    marginal = joint.sum(axis=0)
    if (marginal <= 0).any():
        bad = int(np.flatnonzero(marginal <= 0)[0])
        raise UndefinedColumnError(f"CpG cluster {bad} has zero marginal mass")
    return joint / marginal


def _pin_independent_columns(params: JointParams, v_hat: np.ndarray) -> JointParams:
    """Test hook: force all pi columns equal to the empirical CpG proportions."""
    p = v_hat.sum(axis=0) / v_hat.shape[0]
    params.pi = np.tile(p[:, np.newaxis], (1, params.n_gene_clusters))
    return params


def _require_at_least(name, value, least) -> None:
    """Raise :class:`ParameterError` unless ``value >= least``; nan never is."""
    if not value >= least:
        raise ParameterError(f"{name} must be at least {least}, got {value}")


def _em(e_step, m_step, resp, tol, max_iter):
    """The EM outer loop of every fit: M-step, then E- and M-steps in turn.

    ``m_step(resp)`` returns parameters with a ``flatten()`` method and
    ``e_step(params, resp)`` the next responsibilities. From
    ``m_step(resp)`` the loop runs until the largest absolute change of
    any parameter entry falls below ``tol``, or for ``max_iter``
    iterations. A :class:`FitError` in iteration t is raised again as
    ``outer iteration t: ...``. Returns ``(params, resp, trace,
    converged)``; ``trace`` holds each iteration's parameter change.
    A negative ``max_iter`` or a negative or nan ``tol`` is a ParameterError.
    """
    _require_at_least("outer iteration limit", max_iter, 0)
    _require_at_least("outer tolerance", tol, 0)
    params = m_step(resp)
    trace = []
    for t in range(1, max_iter + 1):
        try:
            resp = e_step(params, resp)
            new_params = m_step(resp)
        except FitError as exc:
            raise FitError(f"outer iteration {t}: {exc}") from exc
        delta = float(np.abs(new_params.flatten() - params.flatten()).max())
        trace.append(delta)
        params = new_params
        if delta < tol:
            return params, resp, trace, True
    return params, resp, trace, False


def fit(
    ds: PairedDataset,
    K=3,
    L=3,
    q=DEFAULT_INIT_QUANTILE,
    outer_tol=DEFAULT_OUTER_TOL,
    outer_max=DEFAULT_OUTER_MAX,
    inner_tol=DEFAULT_INNER_TOL,
    inner_max=DEFAULT_INNER_MAX,
    force_independent=False,
    init=None,
) -> FitResult:
    """Fit the joint model by EM. Deterministic: no randomness anywhere.

    Starts from the quantile initialization (or an explicit hard
    ``init`` pair) and runs :func:`_em` with the fixed-point E-step
    until the largest absolute change across all parameter entries
    falls below ``outer_tol``. After convergence, :func:`_layer_fit`
    relabels the components so both mean vectors ascend, making cluster 1
    the down-shifted state, 2 the null state and 3 the up-shifted state.
    K, L or ``inner_max`` below 1 and a negative or nan ``inner_tol`` are
    a :class:`ParameterError`, as are the outer settings :func:`_em` rejects.

    Every E- and M-step writes into one :class:`_Workspace` built for
    this call; the ``init`` arrays are only read, and the posteriors of
    the returned layers share no memory with the workspace.

    ``force_independent`` pins all columns of ``pi`` equal after every
    M-step, reducing the model to two independent mixtures (test hook).
    """
    for name, value, least in (("K", K, 1), ("L", L, 1), ("inner iteration limit", inner_max, 1),
                               ("inner tolerance", inner_tol, 0)):
        _require_at_least(name, value, least)
    if init is None:
        u0, v0 = initialize_quantile(ds, K, L, q)
    else:
        # float, as the gathers into the workspace do not cast
        u0, v0 = (np.asarray(r, dtype=float) for r in init)
    if ds.n_genes < K:
        raise FitError(f"cannot fit {K} gene clusters to {ds.n_genes} genes")
    if ds.n_cpgs < L:
        raise FitError(f"cannot fit {L} CpG clusters to {ds.n_cpgs} CpG sites")
    work = _Workspace(ds, K, L)

    def e_step(params, resp):
        return e_step_fixed_point(ds, params, resp, inner_tol, inner_max, work=work)

    def pinned_m_step(resp):
        params = m_step(ds, resp.u_hat, resp.v_hat, work=work)
        return _pin_independent_columns(params, resp.v_hat) if force_independent else params

    params, resp, trace, converged = _em(
        e_step, pinned_m_step, Responsibilities(u_hat=u0, v_hat=v0), outer_tol, outer_max
    )
    pk, gene = _layer_fit(params.mu, resp.u_hat)
    pl, cpg = _layer_fit(params.lam, resp.v_hat)
    params = JointParams(
        tau=params.tau[pk],
        pi=params.pi[np.ix_(pl, pk)],
        mu=params.mu[pk],
        sigma2=params.sigma2,
        lam=params.lam[pl],
        rho2=params.rho2,
    )
    return FitResult(params, gene, cpg, len(trace), converged, np.array(trace))


def _run_each(fn, items: dict, threads: int, catch):
    """``fn(item)`` for every value of ``items`` on up to ``threads`` pool threads.

    Returns ``(results, failures)``, keyed like ``items`` and in its
    order: a call that raises ``catch`` lands in ``failures`` and does
    not stop the others; any other exception propagates.
    """
    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(items)))) as pool:
        futures = {key: pool.submit(fn, item) for key, item in items.items()}
    results, failures = {}, {}
    for key, future in futures.items():
        try:
            results[key] = future.result()
        except catch as exc:
            failures[key] = exc
    return results, failures


def fit_all_chromosomes(ds: PairedDataset, threads=1, **fit_kwargs):
    """Fit each chromosome independently; failures do not abort siblings.

    Returns ``(results, failures)``, both keyed by chromosome label. A
    :class:`FitError` lands in ``failures``; any other error, such as a
    :class:`ParameterError`, propagates.
    Output is identical for any thread count: each per-chromosome fit
    is pure and deterministic, and results are keyed, not ordered.
    """
    subs = {part.label: ds.subset(part.genes, part.cpgs) for part in split_by_chromosome(ds)}
    results, failures = _run_each(lambda sub: fit(sub, **fit_kwargs), subs, threads, FitError)
    for label, res in results.items():
        if not res.converged:
            logger.warning(
                "chromosome %s did not converge in %d outer iterations", label, res.n_outer_iters
            )
    return results, failures
