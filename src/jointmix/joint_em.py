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
    """

    u_hat: np.ndarray
    v_hat: np.ndarray
    n_sweeps: int = 0


@dataclass
class FitResult:
    params: JointParams
    resp: Responsibilities
    map_gene: np.ndarray
    map_cpg: np.ndarray
    uncertainty_gene: np.ndarray
    uncertainty_cpg: np.ndarray
    n_outer_iters: int
    converged: bool
    param_change_trace: np.ndarray
    chromosome: str | None = None


def _rank_tail_labels(values: np.ndarray, k: int, q: float) -> np.ndarray:
    """Hard labels by ranking row means: bottom q-fraction -> 0, top -> k-1.

    Ties break by input order (stable sort). The tail size is
    max(1, floor(q*m)) so the extreme clusters are never empty.
    """
    m = values.shape[0]
    means = values.mean(axis=1)
    order = np.argsort(means, kind="stable")
    labels = np.empty(m, dtype=np.intp)
    if k == 1:
        labels[:] = 0
        return labels
    n_tail = max(1, int(q * m))
    if k == 2:
        half = m // 2
        labels[order[:half]] = 0
        labels[order[half:]] = 1
        return labels
    labels[order] = 1
    labels[order[:n_tail]] = 0
    labels[order[m - n_tail:]] = k - 1
    if k > 3:
        interior = order[n_tail: m - n_tail]
        for j, block in enumerate(np.array_split(interior, k - 2)):
            labels[block] = 1 + j
    return labels


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def initialize_quantile(ds: PairedDataset, K=3, L=3, q=DEFAULT_INIT_QUANTILE):
    """Hard initial memberships from ranked per-entity means.

    Genes with the lowest q-fraction of mean values start in cluster 1,
    the highest q-fraction in cluster K, the rest in the middle; CpGs
    are ranked the same way into L clusters.
    """
    if not 0.0 < q < 0.5:
        raise ParameterError(f"init quantile must lie in (0, 0.5), got {q}")
    u0 = _one_hot(_rank_tail_labels(ds.x, K, q), K)
    v0 = _one_hot(_rank_tail_labels(ds.y, L, q), L)
    return u0, v0


def _gauss_row_scores(values: np.ndarray, means: np.ndarray, var: float) -> np.ndarray:
    """Summed log N(value; mean_k, var) over the patient axis, shape (M, K).

    The arithmetic is ``scipy.stats.norm.logpdf``'s, in its operation
    order, and patients are accumulated one at a time in column order:
    the sums are then bit-for-bit those of the per-patient scipy loop,
    so fitted posteriors and result files stay byte-identical, without
    scipy's per-call argument checking.
    """
    scale = np.sqrt(var)
    log_scale = np.log(scale)
    total = np.zeros((values.shape[0], len(means)))
    for n in range(values.shape[1]):
        z = (values[:, n, np.newaxis] - means) / scale
        total += (-z**2 / 2.0 - LOG_SQRT_2PI) - log_scale
    return total


def _softmax_rows(logits: np.ndarray, entity_ids) -> np.ndarray:
    """Row-wise softmax; a non-finite row raises for ``entity_ids(row)``."""
    if logits.shape[0] == 0:
        return logits.copy()
    # a running maximum over the columns is exact in any order and much
    # cheaper than a reduction along the short last axis
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    # all-(-inf) rows turn into nan here, which is exactly the signal
    # the finiteness check below raises on
    with np.errstate(invalid="ignore"):
        e = np.exp(logits - top[:, np.newaxis])
        out = e / e.sum(axis=1, keepdims=True)
    if not np.isfinite(out).all():
        bad = int(np.flatnonzero(~np.isfinite(out).all(axis=1))[0])
        raise NumericalError(entity_ids(bad))
    return out


def _log_clip(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, 1e-300))


def e_step_fixed_point(
    ds: PairedDataset,
    params: JointParams,
    warm: Responsibilities,
    inner_tol=DEFAULT_INNER_TOL,
    inner_max=DEFAULT_INNER_MAX,
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
    """
    x, y, gidx = ds.x, ds.y, ds.cpg_gene_idx
    G = ds.n_genes
    L = params.n_cpg_clusters
    log_tau = _log_clip(params.tau)
    log_pi = _log_clip(params.pi)

    def gene_id(i):
        return str(ds.gene_ids[i])

    def cpg_id(i):
        return str(ds.cpg_ids[i])

    u = warm.u_hat
    v = warm.v_hat
    sweeps = 0
    for s in range(1, inner_max + 1):
        log_px = _gauss_row_scores(x, params.mu, params.sigma2)
        sv = np.column_stack(
            [np.bincount(gidx, weights=v[:, l], minlength=G) for l in range(L)]
        )
        u_new = _softmax_rows(log_tau + log_px + sv @ log_pi, gene_id)
        log_py = _gauss_row_scores(y, params.lam, params.rho2)
        v_new = _softmax_rows(log_py + np.take(u_new @ log_pi.T, gidx, axis=0), cpg_id)
        delta = max(
            np.abs(u_new - u).max(initial=0.0), np.abs(v_new - v).max(initial=0.0)
        )
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


def _layer_m_step(values: np.ndarray, resp: np.ndarray, layer: str):
    """Weights, means and pooled variance of one equal-variance layer.

    Component variances are estimated per cluster and then pooled; the
    pooling weights are the cluster mass fractions, which makes the
    pooled value the maximizer of the expected complete-data
    log-likelihood under the equal-variance constraint. A cluster whose
    mass falls below ``MASS_EPS`` raises
    :class:`DegenerateClusterError` for ``layer``.
    """
    m, k = resp.shape
    n = values.shape[1]
    mass = resp.sum(axis=0)
    for j in range(k):
        if mass[j] < MASS_EPS:
            raise DegenerateClusterError(layer, j)
    weights = mass / m
    means = (resp.T @ values.sum(axis=1)) / (n * mass)
    var_j = np.empty(k)
    for j in range(k):
        dev = values - means[j]
        var_j[j] = (resp[:, j] @ (dev * dev).sum(axis=1)) / (n * mass[j])
    variance = max(float(weights @ var_j), VARIANCE_FLOOR)
    return weights, means, variance


def m_step(ds: PairedDataset, u, v) -> JointParams:
    """Closed-form parameter updates for fixed responsibilities.

    Each layer gets its weights, means and pooled variance from
    :func:`_layer_m_step`; ``pi`` is the CpG-cluster mass per gene
    cluster over that cluster's CpG count.
    """
    K = u.shape[1]
    L = v.shape[1]
    tau, mu, sigma2 = _layer_m_step(ds.x, u, "gene")
    _, lam, rho2 = _layer_m_step(ds.y, v, "cpg")

    # summed joint expectations u[gene of c, k] * v[c, l] over CpGs c: einsum
    # is bit for bit the sum of that (C, K, L) product, a BLAS product is not
    num = np.einsum("ck,cl->lk", u[ds.cpg_gene_idx], v)
    den = u.T @ ds.cpg_counts.astype(float)
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


def map_assign(resp: Responsibilities):
    """MAP labels (1-based) and assignment uncertainties for both layers.

    Ties resolve to the lowest index; uncertainty is one minus the
    winning posterior.
    """
    def one_layer(r):
        if not len(r):
            return np.zeros(0, dtype=np.intp), np.zeros(0)
        return r.argmax(axis=1) + 1, 1.0 - r.max(axis=1)

    map_gene, unc_gene = one_layer(resp.u_hat)
    map_cpg, unc_cpg = one_layer(resp.v_hat)
    return map_gene, map_cpg, unc_gene, unc_cpg


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


def _relabel_ascending(params: JointParams, resp: Responsibilities):
    """Reorder components so gene means and CpG means are both ascending."""
    pk = np.argsort(params.mu, kind="stable")
    pl = np.argsort(params.lam, kind="stable")
    params = JointParams(
        tau=params.tau[pk],
        pi=params.pi[np.ix_(pl, pk)],
        mu=params.mu[pk],
        sigma2=params.sigma2,
        lam=params.lam[pl],
        rho2=params.rho2,
    )
    resp = Responsibilities(
        u_hat=resp.u_hat[:, pk], v_hat=resp.v_hat[:, pl], n_sweeps=resp.n_sweeps
    )
    return params, resp


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
    ``init`` pair), alternates E and M steps, and stops once the
    largest absolute change across all parameter entries falls below
    ``outer_tol``. After convergence, components are relabelled so
    both mean vectors ascend, making cluster 1 the down-shifted state,
    2 the null state and 3 the up-shifted state.

    ``force_independent`` pins all columns of ``pi`` equal after every
    M-step, reducing the model to two independent mixtures (test hook).
    """
    if ds.n_genes < K:
        raise FitError(f"cannot fit {K} gene clusters to {ds.n_genes} genes")
    if ds.n_cpgs < L:
        raise FitError(f"cannot fit {L} CpG clusters to {ds.n_cpgs} CpG sites")

    if init is None:
        u0, v0 = initialize_quantile(ds, K, L, q)
    else:
        u0, v0 = init
    resp = Responsibilities(u_hat=u0, v_hat=v0)
    params = m_step(ds, u0, v0)
    if force_independent:
        params = _pin_independent_columns(params, v0)

    trace = []
    converged = False
    iters = 0
    for t in range(1, outer_max + 1):
        try:
            resp = e_step_fixed_point(ds, params, resp, inner_tol, inner_max)
            new_params = m_step(ds, resp.u_hat, resp.v_hat)
        except FitError as exc:
            raise FitError(f"outer iteration {t}: {exc}") from exc
        if force_independent:
            new_params = _pin_independent_columns(new_params, resp.v_hat)
        delta = float(np.abs(new_params.flatten() - params.flatten()).max())
        trace.append(delta)
        params = new_params
        iters = t
        if delta < outer_tol:
            converged = True
            break

    params, resp = _relabel_ascending(params, resp)
    map_gene, map_cpg, unc_gene, unc_cpg = map_assign(resp)
    return FitResult(
        params=params,
        resp=resp,
        map_gene=map_gene,
        map_cpg=map_cpg,
        uncertainty_gene=unc_gene,
        uncertainty_cpg=unc_cpg,
        n_outer_iters=iters,
        converged=converged,
        param_change_trace=np.array(trace),
    )


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

    Returns ``(results, failures)``, both keyed by chromosome label.
    Output is identical for any thread count: each per-chromosome fit
    is pure and deterministic, and results are keyed, not ordered.
    """
    subs = {part.label: ds.subset(part.genes, part.cpgs) for part in split_by_chromosome(ds)}
    results, failures = _run_each(lambda sub: fit(sub, **fit_kwargs), subs, threads, Exception)
    for label, res in results.items():
        res.chromosome = label
        if not res.converged:
            logger.warning(
                "chromosome %s did not converge in %d outer iterations", label, res.n_outer_iters
            )
    return results, failures
