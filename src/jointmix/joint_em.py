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
converged marginals. One exact pass sums each gene's CpGs out in closed
form: it gives the observed log-likelihood, a diagnostic, and the exact
posteriors that test oracles compare the fixed point against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .dataset import (
    PairedDataset,
    _check_values,
    _require_at_least,
    _run_each,
    split_by_chromosome,
)
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
# Two adjacent means of a layer closer than this many of its standard
# deviations have collapsed onto one component.
TIED_MEANS_TOL = 1e-6

DEFAULT_OUTER_TOL = 1e-5
DEFAULT_OUTER_MAX = 500
DEFAULT_INNER_TOL = 1e-6
DEFAULT_INNER_MAX = 50
DEFAULT_INIT_QUANTILE = 0.10

# log(sqrt(2 pi)), computed as scipy.stats computes its normal-density constant
LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


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

    def layers(self) -> tuple:
        """Each layer's ``(means_key, means, variance_key, variance)``, by ``model.json``'s keys."""
        return ("mu", self.mu, "sigma2", self.sigma2), ("lambda", self.lam, "rho2", self.rho2)

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
    """A joint fit: relabelled ``params``, the ``gene`` and ``cpg`` layers, the EM record.

    ``no_cpg_mass`` holds the 1-based labels of the gene clusters that
    carry no CpG mass at the final M-step, so that their ``pi`` column
    is uniform.
    """

    params: JointParams
    gene: LayerFit
    cpg: LayerFit
    n_outer_iters: int
    converged: bool
    param_change_trace: np.ndarray
    no_cpg_mass: list[int]


def _check_quantile(q) -> None:
    """Raise :class:`ParameterError` unless the start quantile ``q`` lies in (0, 0.5); nan never does."""
    if not 0.0 < q < 0.5:
        raise ParameterError(f"init quantile must lie in (0, 0.5), got {q}")


def _check_settings(K, q, outer_tol, outer_max, L=1, inner_tol=0.0, inner_max=1) -> None:
    """Raise :class:`ParameterError` for the first setting of a fit out of range.

    The settings are :func:`fit`'s; ``baseline.fit_independent`` leaves
    ``L`` and the inner ones at values that pass. K, L and ``inner_max``
    must be at least 1, ``inner_tol`` at least 0, ``q`` must lie in (0,
    0.5), and ``outer_max`` and ``outer_tol`` must be at least 0, nan
    failing each test; they are checked in that order. Both fits call
    this before reading their data, and the CLI before reading an input.
    """
    for name, value, least in (("K", K, 1), ("L", L, 1), ("inner iteration limit", inner_max, 1),
                               ("inner tolerance", inner_tol, 0)):
        _require_at_least(name, value, least)
    _check_quantile(q)
    _require_at_least("outer iteration limit", outer_max, 0)
    _require_at_least("outer tolerance", outer_tol, 0)


def _quantile_start(values: np.ndarray, k: int, q: float) -> np.ndarray:
    """One-hot start of one layer's k clusters from its ranked row means.

    The bottom q-fraction of rows starts in cluster 0, the top one in
    cluster k-1 and the rest in between, split evenly; k = 2 splits at
    the median and k = 1 takes every row. Ties break by input order
    (stable sort). The tail size is max(1, floor(q*m)), so the extreme
    clusters are never empty. A ``q`` outside (0, 0.5) is a
    :class:`ParameterError`.
    """
    _check_quantile(q)
    m = values.shape[0]
    means = values.mean(axis=1)
    # the default sort is several times faster than a stable one, and gives
    # its order whenever the sorted means strictly ascend (no tie, no nan)
    order = np.argsort(means)
    ranked = means[order]
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(means, kind="stable")
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

    The E-step's scores and logits are component-major, (k, M), so that
    every pass over one component's M rows is contiguous: ``scores`` and
    ``z`` hold the Gaussian score sums and their per-patient term, then
    the logits of the softmax, and ``top`` and ``total`` its maxima and
    sums over the components. ``rows`` is the memory of ``z`` viewed
    row-major, (M, k): the baseline's E-step writes its posteriors there,
    and the joint one the change of its posteriors. ``dev`` and
    ``dev_sums`` hold the M-step's squared deviations and their row sums,
    and ``row_sums`` the loop invariant ``values.sum(axis=1)``.
    """

    def __init__(self, values: np.ndarray, k: int):
        m, n = values.shape
        self.scores = np.empty((k, m))
        self.z = np.empty((k, m))
        self.rows = self.z.reshape(m, k)
        self.top = np.empty(m)
        self.total = np.empty(m)
        self.dev = np.empty((m, n))
        self.dev_sums = np.empty(m)
        self.row_sums = values.sum(axis=1)


class _Workspace:
    """Every array the E- and M-steps of one fit write, built once per fit.

    A fit reuses it on every sweep, so no sweep allocates or frees a
    (C, K) or (C, N) temporary, except that a layer of 8 or more
    components sums its softmax over a row-major copy (see
    :func:`_row_sums`). It is private to one fit. ``u`` and ``v`` are
    ping-pong pairs for the responsibilities, row-major (G, K) and
    (C, L) as the M-step reads them; ``gene_to_cpg`` holds
    ``log(pi) @ u.T``, component-major (L, G), before its gather to the
    CpG logits; ``u_of_cpg`` the gathered ``u[cpg_gene_idx]`` of the
    M-step, ``flat_gidx`` the index ``cpg_gene_idx * L + l`` of the CpG
    posteriors flattened row-major (one ``bincount`` sums them per gene
    and cluster), and ``cpg_counts`` the per-gene CpG counts as floats.
    """

    def __init__(self, ds: PairedDataset, K: int, L: int):
        G, C = ds.n_genes, ds.n_cpgs
        self.gene = _LayerBuffers(ds.x, K)
        self.cpg = _LayerBuffers(ds.y, L)
        self.u = (np.empty((G, K)), np.empty((G, K)))
        self.v = (np.empty((C, L)), np.empty((C, L)))
        self.gene_to_cpg = np.empty((L, G))
        self.u_of_cpg = np.empty((C, K))
        self.flat_gidx = (ds.cpg_gene_idx[:, np.newaxis] * L + np.arange(L)).ravel()
        self.cpg_counts = ds.cpg_counts.astype(float)


def _other(pair, current):
    """The buffer of ``pair`` that is not ``current``."""
    return pair[1] if current is pair[0] else pair[0]


def _row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` into ``out``, bit for bit as for a C-contiguous ``a``.

    numpy sums a row of fewer than 8 elements one element after the
    other, so there adding column after column gives the same bits at a
    fraction of the cost of a reduction along the short last axis; the
    columns of a transposed component-major table are its contiguous
    rows. From 8 on numpy sums a row pairwise, and so does this
    function, on a C-contiguous copy of ``a`` if it is not one.
    """
    if not 0 < a.shape[1] < 8:
        return np.sum(np.ascontiguousarray(a), axis=1, out=out)
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
    """Summed log N(value; mean_k, var) over the patient axis, component-major (K, M).

    The arithmetic is ``scipy.stats.norm.logpdf``'s, in its operation
    order, and patients are accumulated one at a time in column order:
    the sums are then bit-for-bit those of the per-patient scipy loop,
    so fitted posteriors and result files stay byte-identical, without
    scipy's per-call argument checking. The first patient's term is
    written straight into the sums, as adding it to a zero would give
    the same bits (no term is -0.0). The sums go to ``out`` and each
    later patient's term to the scratch ``z``, both (K, M) and allocated
    when not given.

    No operand of a (K, M) operation here, or in the E-steps that add
    log-weights to these scores and take their softmax, is broadcast:
    numpy sends a broadcast over rows of up to a few thousand elements
    (a gene layer of 500 rows) through its iterator buffers, which
    allocates. Each is applied one component row ``[j]`` at a time, a
    contiguous pass with a scalar or a vector of the row's length.
    """
    shape = (len(means), values.shape[0])
    total = np.empty(shape) if out is None else out
    z = np.empty(shape) if z is None else z
    scale = np.sqrt(var)
    log_scale = np.log(scale)
    for n in range(values.shape[1]):
        # (-z**2 / 2.0 - LOG_SQRT_2PI) - log_scale with z = (x - mean) / scale,
        # step by step in place. Dividing by -2 is exactly negating, then
        # halving, and so is the cheaper multiply by -0.5: both are the correctly
        # rounded value of one real number, the same bits for every double
        term = z if n else total
        for j in range(len(means)):
            np.subtract(values[:, n], means[j], out=term[j])
        term /= scale
        np.square(term, out=term)
        term *= -0.5
        term -= LOG_SQRT_2PI
        term -= log_scale
        if n:
            total += term
    return total


def _softmax_rows(logits: np.ndarray, entity_ids, out=None, top=None, total=None):
    """Softmax over the components of each row of component-major (K, M) ``logits``.

    A non-finite row raises for ``entity_ids(row)``. The result goes to
    ``out``, any (K, M) array: ``logits`` itself, or the transposed view
    ``table.T`` of a row-major (M, K) table. ``logits`` is left holding
    the exponentials. ``top`` and ``total`` take the (M,) row maxima and
    row sums. Each is allocated when not given. The bits are those of
    the softmax of the row-major (M, K) table.
    """
    k, m = logits.shape
    out = np.empty(logits.shape) if out is None else out
    top = np.empty(m) if top is None else top
    total = np.empty(m) if total is None else total
    # a running maximum over the components is exact in any order and
    # cheaper than a reduction over the outer axis
    np.copyto(top, logits[0])
    for j in range(1, k):
        np.maximum(top, logits[j], out=top)
    # a row of all -inf, or one holding +inf or nan, turns all nan here;
    # every other row has entries in [0, 1] and one of exactly 1, so a
    # row sum in [1, K]: a non-finite row sum marks exactly the bad rows,
    # and the sum of the row sums, which cannot overflow, is non-finite
    # exactly when one of them is.
    # Row by row, the (M,) operand is not broadcast (see _gauss_row_scores).
    with np.errstate(invalid="ignore"):
        for j in range(k):
            logits[j] -= top
        np.exp(logits, out=logits)
        _row_sums(logits.T, total)
        for j in range(k):
            np.divide(logits[j], total, out=out[j])
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

    The scores and logits of a sweep are component-major, (K, M), so that
    each pass over one component's rows is contiguous; the softmax
    writes the posteriors row-major, as the M-step reads them. The bits
    are those of the same updates on row-major arrays.

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
        # gene update: softmax(log_tau + log_px + sv @ log_pi), its logits in gene.z
        log_px = _gauss_row_scores(ds.x, params.mu, params.sigma2, out=gene.scores, z=gene.z)
        for k in range(len(log_tau)):
            log_px[k] += log_tau[k]
        sv = np.bincount(work.flat_gidx, weights=v.ravel(), minlength=G * L).reshape(G, L)
        logits = np.matmul(sv, log_pi, out=gene.z.T).T
        logits += log_px
        u_new = _other(work.u, u)
        _softmax_rows(logits, gene_id, out=u_new.T, top=gene.top, total=gene.total)
        # CpG update: softmax(log_py + (u_new @ log_pi.T)[gidx]), its logits in cpg.z
        log_py = _gauss_row_scores(ds.y, params.lam, params.rho2, out=cpg.scores, z=cpg.z)
        np.matmul(u_new, log_pi.T, out=work.gene_to_cpg.T)
        # the indices were checked when the dataset was built; "clip" spares
        # the full copy that take(out=...) buffers under the default "raise"
        logits = np.take(work.gene_to_cpg, gidx, axis=1, out=cpg.z, mode="clip")
        logits += log_py
        v_new = _other(work.v, v)
        _softmax_rows(logits, cpg_id, out=v_new.T, top=cpg.top, total=cpg.total)
        # z is free again: it takes the differences. While the genes move by
        # inner_tol or more the sweeps go on, whatever the CpGs do, so only
        # then are the CpG differences needed.
        delta = _max_abs_diff(u_new, u, gene.rows)
        if delta < inner_tol:
            delta = max(delta, _max_abs_diff(v_new, v, cpg.rows))
        u, v = u_new, v_new
        sweeps = s
        if delta < inner_tol:
            break
    return Responsibilities(u_hat=u, v_hat=v, n_sweeps=sweeps)


def _exact_pass(ds: PairedDataset, params: JointParams):
    """The exact marginalization of every gene: ``(loglik, u, v)``.

    Given its gene's cluster the CpGs of a gene are independent, so each
    CpG's L clusters sum out in closed form, ``log_mix`` (C, K), and the
    gene's logits are ``log tau`` plus its scores plus the ``log_mix`` of
    its CpGs. ``u`` (G, K) is their row softmax and each row's normalizer
    that gene's log-likelihood; ``loglik`` is their sum. ``v`` (C, L) is
    the mixture over gene clusters, by ``u``, of the CpG's conditional
    assignments. ``np.logaddexp.reduce`` gives ``-inf`` for a row of all
    ``-inf`` and ``inf`` for one holding ``inf``, without a warning.

    A ``tau`` or ``pi`` entry of 0 scores ``-inf``, not a floor, so a
    configuration it forbids gets no mass however strongly the data favour
    it. Every ``pi`` column sums to 1, so ``log_mix`` stays finite.
    """
    gidx = ds.cpg_gene_idx
    with np.errstate(divide="ignore"):
        log_tau, log_pi = np.log(params.tau), np.log(params.pi)
    logits = log_tau + _gauss_row_scores(ds.x, params.mu, params.sigma2).T
    log_py = _gauss_row_scores(ds.y, params.lam, params.rho2).T
    inner = log_pi.T + log_py[:, np.newaxis, :]  # (C, K, L)
    log_mix = np.logaddexp.reduce(inner, axis=2)
    np.add.at(logits, gidx, log_mix)
    norm = np.logaddexp.reduce(logits, axis=1)
    u = np.exp(logits - norm[:, np.newaxis])
    u /= u.sum(axis=1, keepdims=True)
    v = np.einsum("ck,ckl->cl", u[gidx], np.exp(inner - log_mix[:, :, np.newaxis]))
    return float(norm.sum()), u, v


def exact_gene_posterior(ds: PairedDataset, params: JointParams, gene_index: int):
    """Exact marginal posteriors ``(u, v)`` of one gene, (K,), and its CpGs, (C_g, L).

    :func:`_exact_pass` on the gene's rows alone. Used as a test oracle
    for the fixed-point approximation.
    """
    _, u, v = _exact_pass(ds.subset([gene_index], ds.gene_cpg_indices(gene_index)), params)
    return u[0], v


def observed_loglik(ds: PairedDataset, params: JointParams) -> float:
    """Observed-data log-likelihood under exact per-gene marginalization.

    Diagnostic only: the EM convergence rule is on parameter change.
    """
    return _exact_pass(ds, params)[0]


def expected_complete_loglik(ds: PairedDataset, u, v, params: JointParams) -> float:
    """Expected complete-data log-likelihood at fixed responsibilities."""
    q = float((u * _gauss_row_scores(ds.x, params.mu, params.sigma2).T.copy()).sum())
    q += float(u.sum(axis=0) @ _log_clip(params.tau))
    if ds.n_cpgs:
        q += float((v * _gauss_row_scores(ds.y, params.lam, params.rho2).T.copy()).sum())
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
    cluster over that cluster's CpG count, uniform where that count is
    below ``MASS_EPS``. The scratch arrays live in ``work``, the fit's
    :class:`_Workspace`, built when not given.
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


def _em(e_step, m_step, resp, tol, max_iter):
    """The EM outer loop of every fit: M-step, then E- and M-steps in turn.

    ``m_step(resp)`` returns parameters with a ``flatten()`` method and
    ``e_step(params, resp)`` the next responsibilities. From
    ``m_step(resp)`` the loop runs until the largest absolute change of
    any parameter entry falls below ``tol``, or for ``max_iter``
    iterations. A :class:`FitError` in iteration t is raised again as
    ``outer iteration t: ...``. Returns ``(params, resp, trace,
    converged)``; ``trace`` holds each iteration's parameter change.
    Its callers check ``tol`` and ``max_iter`` (:func:`_check_settings`).
    """
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


def _check_layout(ds: PairedDataset) -> None:
    """Raise :class:`ParameterError` unless the arrays of ``ds`` fit together.

    There must be a patient. ``x`` needs a row per gene id and
    chromosome, ``y`` a row per CpG id and ``cpg_gene_idx`` entry, and
    both a column per patient; a message names both sizes. Every
    ``cpg_gene_idx`` entry must lie in ``[0, G)``.
    """
    n = ds.n_patients
    if n < 1:
        raise ParameterError("the dataset has no patients")
    for name, values, arrays in (
        ("x", ds.x, (("gene_ids", ds.gene_ids), ("chromosomes", ds.chromosomes))),
        ("y", ds.y, (("cpg_ids", ds.cpg_ids), ("cpg_gene_idx", ds.cpg_gene_idx))),
    ):
        if np.ndim(values) != 2 or np.shape(values)[1] != n:
            raise ParameterError(f"{name} has shape {np.shape(values)}, but there are {n} patients")
        for what, a in arrays:
            if len(a) != len(values):
                raise ParameterError(f"{what} has {len(a)} entries, but {name} has {len(values)} rows")
    parents = ds.cpg_gene_idx
    if ds.n_cpgs and not (parents.min() >= 0 and parents.max() < ds.n_genes):
        j = int(np.flatnonzero((parents < 0) | (parents >= ds.n_genes))[0])
        raise ParameterError(f"CpG {str(ds.cpg_ids[j])!r} has gene row {parents[j]}, "
                             f"outside [0, {ds.n_genes})")


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
    A setting out of range is a :class:`ParameterError`, raised first
    (:func:`_check_settings`; ``q`` is checked even with an ``init``), as
    are arrays of ``ds`` that do not fit together (:func:`_check_layout`)
    and a value the table reader would reject (named by its row id and
    patient).

    Every E- and M-step writes into one :class:`_Workspace` built for
    this call; the ``init`` arrays are only read, and the posteriors of
    the returned layers share no memory with the workspace. ``x`` and
    ``y`` are read as C-contiguous float64, copied only if they are not
    already, so the bits of a fit do not depend on their memory layout:
    numpy sums a row of 8 or more values pairwise only when it is contiguous.

    ``force_independent`` pins all columns of ``pi`` equal after every
    M-step, reducing the model to two independent mixtures (test hook).
    """
    _check_settings(K, q, outer_tol, outer_max, L, inner_tol, inner_max)
    _check_layout(ds)
    ds = replace(ds, x=np.asarray(ds.x, dtype=float, order="C"),
                 y=np.asarray(ds.y, dtype=float, order="C"))
    for values, ids, what in ((ds.x, ds.gene_ids, "gene"), (ds.y, ds.cpg_ids, "CpG")):
        _check_values(values, lambda row, col, problem: ParameterError(
            f"{problem} for {what} {str(ids[row])!r}, patient {ds.patients[col]!r}"))
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
    # the final M-step's reset test: the M-step runs every iteration
    no_cpg_mass = (np.flatnonzero((resp.u_hat.T @ work.cpg_counts)[pk] < MASS_EPS) + 1).tolist()
    params = JointParams(
        tau=params.tau[pk],
        pi=params.pi[np.ix_(pl, pk)],
        mu=params.mu[pk],
        sigma2=params.sigma2,
        lam=params.lam[pl],
        rho2=params.rho2,
    )
    return FitResult(params, gene, cpg, len(trace), converged, np.array(trace), no_cpg_mass)


def _collapse(params) -> tuple[list[str], list[str]]:
    """The keys of ``params``' variances at their floor, and of its means with two tied.

    ``params.layers()`` gives each layer as ``(means_key, means,
    variance_key, variance)``, named by its ``model.json`` keys, its means
    ascending. A variance held at ``VARIANCE_FLOOR`` means the rows sit on
    their component means, as with a table of one repeated value. Above
    the floor, two adjacent means within ``TIED_MEANS_TOL`` standard
    deviations mean that two components fit one cluster. A fit is
    collapsed if either list is not empty.
    """
    layers = params.layers()
    floored = [var_key for _, _, var_key, var in layers if var <= VARIANCE_FLOOR]
    tied = [key for key, means, _, var in layers
            if var > VARIANCE_FLOOR and (np.diff(means) <= TIED_MEANS_TOL * np.sqrt(var)).any()]
    return floored, tied


def _warn_if_collapsed(label, params) -> None:
    """Warn for chromosome ``label`` once if a variance is floored, once if two means tie.

    By :func:`_collapse` of the fitted ``params``, a :class:`JointParams`
    or a ``baseline.IndepParams``.
    """
    floored, tied = _collapse(params)
    if floored:
        logger.warning(
            "chromosome %s: %s at the variance floor %g; the fit has collapsed",
            label, " and ".join(floored), VARIANCE_FLOOR,
        )
    if tied:
        logger.warning(
            "chromosome %s: two %s lie within %g standard deviations; the fit has collapsed",
            label, " and two ".join(tied), TIED_MEANS_TOL,
        )


def fit_all_chromosomes(ds: PairedDataset, threads=1, **fit_kwargs):
    """Fit each chromosome independently; failures do not abort siblings.

    Returns ``(results, failures)``, both keyed by chromosome label in
    sorted label order. A :class:`FitError` lands in ``failures``; any
    other error, such as a :class:`ParameterError`, propagates. Up to
    ``threads`` worker processes fit the chromosomes (see ``dataset._each``).

    The warnings are logged here, never in a worker, chromosome by
    chromosome in label order: each gene cluster without CpG mass, then
    a non-convergence, then a variance at its floor or two tied means
    (:func:`_warn_if_collapsed`). Output is identical for any worker
    count and any BLAS thread setting: each per-chromosome fit is pure and
    deterministic, results are keyed, not ordered, and ``import jointmix``
    loads numpy's BLAS on one thread. A caller that imported numpy first
    keeps its own BLAS threads; a layer of more than 10,000 rows may then
    differ in its last bits, as OpenBLAS splits the M-step's longer dot
    products over its threads. Each chromosome is fitted on its
    :meth:`PairedDataset.subset`, which for a chromosome of every row holds
    ``ds.x`` and ``ds.y`` themselves, not copies. ``ds`` is checked by
    :func:`_check_layout` before it is split.
    """
    _check_layout(ds)
    parts = {part.label: part for part in split_by_chromosome(ds)}
    results, failures = _run_each(lambda part: fit(ds.subset(part.genes, part.cpgs), **fit_kwargs),
                                  parts, threads, FitError)
    for label, res in results.items():
        for cluster in res.no_cpg_mass:
            logger.warning(
                "chromosome %s: gene cluster %d has no CpG mass; its pi column is uniform",
                label, cluster,
            )
        if not res.converged:
            logger.warning(
                "chromosome %s did not converge in %d outer iterations", label, res.n_outer_iters
            )
        _warn_if_collapsed(label, res.params)
    return results, failures
