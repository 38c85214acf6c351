"""Independent oracles used by the unit and acceptance tests.

Everything here is written from the model definition directly (plain
loops, math.log/exp) and deliberately shares no code paths with the
package internals it checks.
"""

import contextlib
import itertools
import math
from operator import itemgetter
from pathlib import Path

import numpy as np

from jointmix.dataset import MAX_ABS_VALUE
from jointmix.errors import DuplicateIdError, FormatError, NumericalError


def _log_normal(x, mean, var):
    return -0.5 * math.log(2.0 * math.pi * var) - 0.5 * (x - mean) ** 2 / var


def _config_logps(ds, params, gene_index):
    """``{(k, l_1, ..., l_Cg): log density}`` of every hard configuration of one gene.

    Enumerates all K * L^C_g assignments of the gene and its CpGs and
    scores each with the joint density written out term by term. A
    ``pi`` entry of 0 scores its configurations ``-inf``.
    """
    K = len(params.tau)
    L = len(params.lam)
    x_row = ds.x[gene_index]
    idx = ds.gene_cpg_indices(gene_index)

    config_logp = {}
    for k in range(K):
        base = math.log(params.tau[k]) + sum(
            _log_normal(v, params.mu[k], params.sigma2) for v in x_row
        )
        for ls in itertools.product(range(L), repeat=len(idx)):
            logp = base
            for c, l in enumerate(ls):
                pi_lk = params.pi[l, k]
                logp += math.log(pi_lk) if pi_lk > 0 else -math.inf
                logp += sum(
                    _log_normal(v, params.lam[l], params.rho2) for v in ds.y[idx[c]]
                )
            config_logp[(k,) + ls] = logp
    return config_logp


def brute_force_gene_posterior(ds, params, gene_index):
    """Posteriors by literal enumeration of every hard configuration.

    Normalizes the densities of :func:`_config_logps` by direct summation.
    """
    config_logp = _config_logps(ds, params, gene_index)
    c_g = len(ds.gene_cpg_indices(gene_index))
    shift = max(config_logp.values())
    weights = {cfg: math.exp(lp - shift) for cfg, lp in config_logp.items()}
    total = sum(weights.values())

    u = np.zeros(len(params.tau))
    v = np.zeros((c_g, len(params.lam)))
    for cfg, w in weights.items():
        u[cfg[0]] += w
        for c in range(c_g):
            v[c, cfg[1 + c]] += w
    return u / total, v / total if c_g else v


def brute_force_loglik(ds, params):
    """Observed-data log-likelihood: per gene, the log of its configurations' summed densities."""
    loglik = 0.0
    for g in range(ds.n_genes):
        logps = _config_logps(ds, params, g).values()
        shift = max(logps)
        loglik += shift + math.log(math.fsum(math.exp(lp - shift) for lp in logps))
    return loglik


def naive_weighted_moments(values, resp):
    """Per-cluster weighted means and variances by plain Python loops."""
    m, n = values.shape
    k = resp.shape[1]
    means = np.zeros(k)
    variances = np.zeros(k)
    for j in range(k):
        wsum = 0.0
        acc = 0.0
        for i in range(m):
            for p in range(n):
                acc += resp[i, j] * values[i, p]
            wsum += resp[i, j]
        means[j] = acc / (n * wsum)
        acc = 0.0
        for i in range(m):
            for p in range(n):
                acc += resp[i, j] * (values[i, p] - means[j]) ** 2
        variances[j] = acc / (n * wsum)
    return means, variances


def random_responsibilities(rng, m, k):
    """Random strictly-positive row-stochastic matrix."""
    r = rng.gamma(2.0, 1.0, (m, k)) + 0.05
    return r / r.sum(axis=1, keepdims=True)


# The E-steps as they were on row-major (M, K) arrays, walked one strided
# column ``[:, j]`` at a time, before their arrays went component-major:
# the reference the component-major kernels must match bit for bit.


def row_major_scores(values, means, var):
    """Summed Gaussian log densities, (M, K), one patient and one column at a time."""
    total = np.zeros((values.shape[0], len(means)))
    z = np.empty_like(total)
    scale = np.sqrt(var)
    log_scale = np.log(scale)
    for n in range(values.shape[1]):
        for j in range(len(means)):
            np.subtract(values[:, n], means[j], out=z[:, j])
        z /= scale
        np.square(z, out=z)
        z /= -2.0
        z -= np.log(np.sqrt(2 * np.pi))
        z -= log_scale
        total += z
    return total


def row_major_softmax(logits, entity_ids):
    """Row softmax of (M, K) ``logits`` in place; a non-finite row raises for its entity."""
    top = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    with np.errstate(invalid="ignore"):
        for j in range(logits.shape[1]):
            np.subtract(logits[:, j], top, out=logits[:, j])
        np.exp(logits, out=logits)
        total = logits.sum(axis=1)
        for j in range(logits.shape[1]):
            logits[:, j] /= total
    if not np.isfinite(total.sum()):
        raise NumericalError(entity_ids(int(np.flatnonzero(~np.isfinite(total))[0])))
    return logits


def _log_clipped(p):
    return np.log(np.maximum(p, 1e-300))


def row_major_e_step(ds, params, u, v, inner_tol, inner_max):
    """The fixed-point E-step on (G, K) and (C, L) arrays: ``(u, v, sweeps)``."""
    G, L = ds.n_genes, len(params.lam)
    gidx = ds.cpg_gene_idx
    log_tau, log_pi = _log_clipped(params.tau), _log_clipped(params.pi)
    flat_gidx = (gidx[:, np.newaxis] * L + np.arange(L)).ravel()
    sweeps = 0
    for s in range(1, inner_max + 1):
        log_px = row_major_scores(ds.x, params.mu, params.sigma2)
        for k in range(len(log_tau)):
            log_px[:, k] += log_tau[k]
        sv = np.bincount(flat_gidx, weights=v.ravel(), minlength=G * L).reshape(G, L)
        u_new = sv @ log_pi
        u_new += log_px
        row_major_softmax(u_new, lambda i: str(ds.gene_ids[i]))
        log_py = row_major_scores(ds.y, params.lam, params.rho2)
        v_new = (u_new @ log_pi.T)[gidx]
        v_new += log_py
        row_major_softmax(v_new, lambda i: str(ds.cpg_ids[i]))
        delta = max(np.abs(u_new - u).max(initial=0.0), np.abs(v_new - v).max(initial=0.0))
        u, v, sweeps = u_new, v_new, s
        if delta < inner_tol:
            break
    return u, v, sweeps


def row_major_indep_e_step(values, weights, means, variance):
    """The independent mixture's E-step: row softmax of ``log weights + scores``, (M, K)."""
    scores = row_major_scores(values, means, variance)
    log_weights = _log_clipped(weights)
    for j in range(len(log_weights)):
        scores[:, j] += log_weights[j]
    return row_major_softmax(scores, lambda i: f"row {i}")


# The simulation study's scoring as it was on label names, before it scored
# integer states: ``np.isin`` against the null names, and the contingency
# table of the ARI summed by ``np.add.at``. The reference the replicate rows
# of ``evaluate.run_replicate`` must match exactly.

NULL_NAMES = ["E0", "M0"]


def ari_of_names(labels_a, labels_b):
    """Adjusted Rand index of two labelings, its table built by ``np.add.at``."""
    _, ai = np.unique(np.asarray(labels_a), return_inverse=True)
    _, bi = np.unique(np.asarray(labels_b), return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    total = comb2(len(ai))
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def scores_of_names(truth, predicted):
    """``{metric: value}`` of fdr, sensitivity, specificity and ARI on label names."""
    t_pos = ~np.isin(truth, NULL_NAMES)
    p_pos = ~np.isin(predicted, NULL_NAMES)
    tp, fp = int(np.sum(t_pos & p_pos)), int(np.sum(~t_pos & p_pos))
    tn, fn = int(np.sum(~t_pos & ~p_pos)), int(np.sum(t_pos & ~p_pos))

    def ratio(num, den):
        return num / den if den > 0 else None

    return {"fdr": ratio(fp, tp + fp), "sensitivity": ratio(tp, tp + fn),
            "specificity": ratio(tn, tn + fp), "ari": ari_of_names(truth, predicted)}


def replicate_rows_of_names(truths, layers):
    """``run_replicate``'s rows, scored on names.

    ``truths`` holds the gene and CpG truth names; ``layers`` maps each
    method, joint first, to its fitted gene and CpG layers.
    """
    names = (("gene", ("E-", "E0", "E+")), ("cpg", ("M-", "M0", "M+")))
    predicted, rows = {}, []
    for method, fits in layers.items():
        for (layer, labels), truth, lf in zip(names, truths, fits):
            predicted[method, layer] = np.array(labels)[lf.map_labels - 1]
            scores = scores_of_names(truth, predicted[method, layer])
            rows += [(method, layer, metric, value) for metric, value in scores.items()]
    if len(layers) == 2:
        rows += [("joint_vs_independent", layer, "ari",
                  ari_of_names(predicted["joint", layer], predicted["independent", layer]))
                 for layer in ("gene", "cpg")]
    return rows


def central_difference(f, h=1e-5):
    return (f(h) - f(-h)) / (2.0 * h)


def simplex_perturbations(vec, index):
    """Perturb one simplex entry and renormalize; returns f(delta) arg maps."""

    def apply(delta):
        out = np.array(vec, dtype=float)
        out[index] += delta
        return out / out.sum()

    return apply


# The table readers as a Python line loop, as they were before the C pass
# of ``dataset._load_rows`` took over: the reference its results and
# messages are compared against. ``line_loop_table`` returns
# ``(patients, {column: str array}, values)`` and ``line_loop_truth``
# ``{layer: {id: label}}`` for both layers.


@contextlib.contextmanager
def _open_text(path):
    """``path`` opened as UTF-8 text; a byte that does not decode is a FormatError.

    The message names the line of the first such byte, counting the line
    ends text mode uses (LF, CRLF and CR), so it agrees with the line
    numbers of every other message.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raw = Path(path).read_bytes()
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = len((raw[: exc.start] + b".").splitlines())
                raise FormatError(
                    f"{path}:{lineno}: not UTF-8 text (byte {raw[exc.start]:#04x})"
                ) from None
            raise


def _read_tsv(path, check_header) -> tuple[list[str], list[int], list[tuple[str, ...]]]:
    """The header cells, data line numbers and data rows of a TSV.

    ``check_header(cells)`` raises a :class:`FormatError` for a header it
    rejects, else returns the indices (two or more) of the cells each row
    keeps, as a tuple; a line is split no further than the last of them.
    Blank lines are skipped but counted, the header being line 1; a line
    with another cell count than the header's, or a table without data
    lines, is a FormatError.
    """
    with _open_text(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header:
            raise FormatError(f"{path}: empty file")
        cells = header.split("\t")
        columns = check_header(cells)
        keep, last, width = itemgetter(*columns), max(columns) + 1, len(cells)
        linenos, rows = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            n_cols = line.count("\t") + 1
            if n_cols != width:
                raise FormatError(f"{path}:{lineno}: expected {width} columns, got {n_cols}")
            rows.append(keep(line.split("\t", last)))
            linenos.append(lineno)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return cells, linenos, rows


def _require_unique(path, numbered_ids, what) -> None:
    """An id repeated among ``(line number, id)`` pairs is a DuplicateIdError naming its line."""
    seen = set()
    for lineno, i in numbered_ids:
        if i in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate {what} {i!r}")
        seen.add(i)


def line_loop_table(path, fixed_columns):
    """Parse a TSV with fixed leading columns followed by patient columns.

    :func:`_read_tsv` checks the lines and keeps the fixed columns, whose
    first column, the row id, must not repeat. The values are then read
    by numpy's C ``loadtxt``, which parses each number with the same
    routine as ``float()`` (so the arrays are bit for bit the same)
    without a Python call per value. It accepts decimal and exponent
    notation, ``inf`` and ``nan`` in any case, a leading sign and
    surrounding whitespace; unlike ``float()`` it rejects ``_`` between
    digits and non-ASCII digits. Values that are not finite or exceed
    ``MAX_ABS_VALUE`` in magnitude are then rejected with their column.
    """
    k = len(fixed_columns)

    def check_header(cols):
        if tuple(cols[:k]) != tuple(fixed_columns):
            raise FormatError(
                f"{path}: header must start with {list(fixed_columns)}, got {cols[:k]}"
            )
        if len(cols) == k:
            raise FormatError(f"{path}: no patient columns in header")
        if len(set(cols[k:])) != len(cols) - k:
            raise FormatError(f"{path}: duplicate patient column names")
        return range(k)

    cols, linenos, fixed = _read_tsv(path, check_header)
    patients, width = cols[k:], len(cols)
    _require_unique(path, zip(linenos, [row[0] for row in fixed]), fixed_columns[0])
    try:
        values = _read_values(path, k, width, skiprows=1)
    except ValueError as exc:
        _raise_unparsable(path, k, patients, exc)
    # max and min allocate nothing; a nan makes both comparisons fail
    if not (values.max() <= MAX_ABS_VALUE and values.min() >= -MAX_ABS_VALUE):
        bad = int(np.flatnonzero(~(np.abs(values) <= MAX_ABS_VALUE))[0])
        row, col = divmod(bad, len(patients))
        v = float(values[row, col])
        what = (f"non-finite value {v!r}" if not np.isfinite(v)
                else f"value {v!r} outside [-{MAX_ABS_VALUE:g}, {MAX_ABS_VALUE:g}]")
        raise FormatError(
            f"{path}:{linenos[row]}:{k + col + 1}: {what} for patient {patients[col]!r}"
        )
    annotations = np.array(fixed, dtype=str)
    return patients, dict(zip(fixed_columns, annotations.T)), values


def _read_values(source, k, width, skiprows) -> np.ndarray:
    """Columns ``k:width`` of a tab-separated file or list of lines, as floats."""
    return np.loadtxt(
        source, delimiter="\t", skiprows=skiprows, usecols=range(k, width), dtype=float,
        ndmin=2, encoding="utf-8", comments=None,
    )


def _raise_unparsable(path, k, patients, exc):
    """Raise the :class:`FormatError` for the first value ``loadtxt`` rejects.

    Each data line is parsed alone, then each column of the first line that
    fails, so the check is the reader's own; ``exc`` is named if none fails.
    """
    _, linenos, rows = _read_tsv(path, lambda cells: range(len(cells)))
    for lineno, row in zip(linenos, rows):
        line = "\t".join(row)
        try:
            _read_values([line], k, len(row), skiprows=0)
        except ValueError:
            for col in range(k, len(row)):
                try:
                    _read_values([line], col, col + 1, skiprows=0)
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}:{col + 1}: non-numeric value {row[col]!r} "
                        f"for patient {patients[col - k]!r}"
                    ) from None
    raise FormatError(f"{path}: non-numeric value ({exc})") from None


def line_loop_truth(path):
    """``truth.tsv`` (entity_id, layer, label) as ``{layer: {id: label}}``, layer gene or cpg."""
    def check_header(cells):
        if cells != ["entity_id", "layer", "label"]:
            raise FormatError(f"{path}: expected header entity_id/layer/label")
        return 0, 1, 2

    _, linenos, rows = _read_tsv(path, check_header)
    truth: dict[str, dict[str, str]] = {"gene": {}, "cpg": {}}
    for lineno, (entity, layer, label) in zip(linenos, rows):
        if layer not in truth:
            raise FormatError(f"{path}:{lineno}: unknown layer {layer!r}")
        truth[layer][entity] = label
    if sum(map(len, truth.values())) < len(rows):  # an id repeats within a layer
        for layer in truth:
            mine = ((n, entity) for n, (entity, of, _) in zip(linenos, rows) if of == layer)
            _require_unique(path, mine, f"{layer} id")
    return truth
