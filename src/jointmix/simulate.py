"""Synthetic paired-dataset generator with ground-truth labels.

Counts for condition A come from a negative binomial; condition B
counts shift the mean down/up for differential genes; every count is
then replaced by a Poisson draw centred on it. Each gene gets a
uniform number of CpG sites whose cluster is drawn from the dependency
matrix column of the gene's cluster, and beta values per cluster come
from the protocol's Beta distributions plus clamped Gaussian noise.

All draws flow from one ``default_rng((seed, replicate))`` stream, so a
(seed, replicate) pair pins every output bit.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dataset import (
    _data_table,
    _write_tables,
    write_expression_table,
    write_json,
    write_methylation_table,
)
from .errors import ParameterError

GENE_LABELS = ("E-", "E0", "E+")
CPG_LABELS = ("M-", "M0", "M+")
# The state of each layer's null label: a state indexes GENE_LABELS or CPG_LABELS.
NULL_STATE = 1

# Dependency settings between gene state (columns: down, null, up) and
# CpG state (rows: down, null, up). Each column is a distribution over
# CpG states. Case 1 mirrors a fitted real-data matrix, case 2 couples
# the layers strongly, case 3 makes them independent.
CASE_PI = {
    1: np.array([[0.1, 0.05, 0.4],
                 [0.5, 0.90, 0.5],
                 [0.4, 0.05, 0.1]]),
    2: np.array([[0.1, 0.1, 0.8],
                 [0.1, 0.8, 0.1],
                 [0.8, 0.1, 0.1]]),
    3: np.array([[0.2, 0.2, 0.2],
                 [0.6, 0.6, 0.6],
                 [0.2, 0.2, 0.2]]),
}


# The protocol every simulation follows, in the form ``sim_config.json``
# records it: the shares of down and up genes; the negative-binomial
# means (condition A: base; condition B by gene state: down, base, up)
# and size; the range of CpGs per gene; the Beta shapes of each
# methylation state; the noise sd; and the clamp of noisy betas, where
# 0.005 caps M-values at ~7.6 so boundary pileups cannot swamp the
# within-cluster variance.
PROTOCOL = {
    "prop_down": 0.10, "prop_up": 0.10,
    "nb_mean_base": 10_000.0, "nb_mean_down": 4_000.0, "nb_mean_up": 60_000.0, "nb_size": 5.0,
    "cpg_min": 3, "cpg_max": 30,
    "beta_hypo": [3.0, 20.0], "beta_hyper": [20.0, 3.0], "beta_hemi": [4.0, 3.0],
    "noise_sd": 0.05, "beta_eps": 0.005,
}


@dataclass
class SimConfig:
    """What a run chooses; the rest of the generator is :data:`PROTOCOL`."""

    n_genes: int = 500
    n_patients: int = 4
    case: int = 1
    pi: list | None = None  # explicit 3x3 matrix overrides `case`
    seed: int = 0
    replicate: int = 0

    def validate(self) -> None:
        """Raise a :class:`ParameterError` naming the first field no run can take.

        ``n_genes`` and ``n_patients`` must be integers of at least 1, ``seed`` and
        ``replicate`` of at least 0 (a numpy integer is one, a bool is not); without
        a ``pi``, ``case`` must be a key of :data:`CASE_PI`.
        """
        for name, least in (("n_genes", 1), ("n_patients", 1), ("seed", 0), ("replicate", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ParameterError(f"{name} must be at least {least}, got {value}")
        if self.pi is None and self.case not in CASE_PI:
            raise ParameterError(f"case must be one of {sorted(CASE_PI)}")

    def resolve_pi(self) -> np.ndarray:
        pi = CASE_PI[self.case] if self.pi is None else np.asarray(self.pi, dtype=float)
        if pi.shape != (3, 3):
            raise ParameterError("dependency matrix must be 3x3")
        bad = ~np.isfinite(pi) | (pi < 0)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            what = "not finite" if not np.isfinite(pi[row, col]) else "negative"
            raise ParameterError(f"dependency matrix entry at row {row + 1}, column "
                                 f"{col + 1} is {what}: {pi[row, col]:g}")
        if np.abs(pi.sum(axis=0) - 1.0).max() > 1e-8:
            raise ParameterError("dependency matrix columns must each sum to 1")
        return pi

    def to_dict(self) -> dict:
        """The run's values and the protocol, as ``sim_config.json`` records them."""
        d = {**asdict(self), **copy.deepcopy(PROTOCOL)}
        if self.pi is not None:
            d["pi"] = np.asarray(self.pi, dtype=float).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """The config :meth:`to_dict` recorded; a protocol entry must equal :data:`PROTOCOL`'s.

        A key that is neither a protocol entry nor a field is a :class:`ParameterError`.
        """
        d = dict(d)
        for key, fixed in PROTOCOL.items():
            value = d.pop(key, fixed)
            if (list(value) if isinstance(value, (list, tuple)) else value) != fixed:
                raise ParameterError(
                    f"{key} is fixed at {fixed} by the simulation protocol, got {value!r}"
                )
        unknown = [key for key in d if key not in {f.name for f in fields(cls)}]
        if unknown:
            raise ParameterError(f"unknown simulation setting {unknown[0]!r}")
        return cls(**d)


@dataclass
class SimTruth:
    """Ground-truth cluster states and the gene/CpG mapping.

    A state is 0 (down), 1 (null) or 2 (up); ``gene_labels`` and
    ``cpg_labels`` name them from GENE_LABELS and CPG_LABELS.
    """

    gene_ids: list[str]
    gene_states: np.ndarray
    cpg_ids: list[str]
    cpg_states: np.ndarray
    cpg_gene_idx: np.ndarray

    @property
    def gene_labels(self) -> np.ndarray:
        return np.array(GENE_LABELS)[self.gene_states]

    @property
    def cpg_labels(self) -> np.ndarray:
        return np.array(CPG_LABELS)[self.cpg_states]


@dataclass
class SimData:
    counts_a: np.ndarray
    counts_b: np.ndarray
    betas_a: np.ndarray
    betas_b: np.ndarray
    truth: SimTruth
    patients: list[str]
    config: SimConfig


def _sample_categorical(rng, probs_by_column: np.ndarray) -> np.ndarray:
    """One draw per column of a stacked (L, M) probability matrix."""
    cum = np.cumsum(probs_by_column, axis=0)
    u = rng.random(probs_by_column.shape[1])
    labels = (u[np.newaxis, :] > cum).sum(axis=0)
    return np.minimum(labels, probs_by_column.shape[0] - 1)


def _numbered_ids(template: str, n: int) -> list[str]:
    """``template % i`` for i = 1..n, formatted by one ``%`` on a block of n templates."""
    return ((template + "\n") * n % tuple(range(1, n + 1))).split("\n")[:-1]


def simulate(cfg: SimConfig) -> SimData:
    """Generate one raw two-condition dataset plus its truth labels."""
    cfg.validate()
    pi = cfg.resolve_pi()
    rng = np.random.default_rng((cfg.seed, cfg.replicate))
    G, N = cfg.n_genes, cfg.n_patients

    P = PROTOCOL
    n_down, n_up = int(P["prop_down"] * G), int(P["prop_up"] * G)
    gene_lab = np.repeat(np.arange(3), [n_down, G - n_down - n_up, n_up])
    rng.shuffle(gene_lab)

    size = P["nb_size"]
    counts_a = rng.negative_binomial(size, size / (size + P["nb_mean_base"]), (G, N))
    means_b = np.array([P["nb_mean_down"], P["nb_mean_base"], P["nb_mean_up"]])[gene_lab]
    counts_b = rng.negative_binomial(size, (size / (size + means_b))[:, np.newaxis], (G, N))
    counts_a = rng.poisson(counts_a.astype(float))
    counts_b = rng.poisson(counts_b.astype(float))

    cpg_per_gene = rng.integers(P["cpg_min"], P["cpg_max"] + 1, G)
    cpg_gene_idx = np.repeat(np.arange(G), cpg_per_gene)
    C = int(cpg_per_gene.sum())
    cpg_lab = _sample_categorical(rng, pi[:, gene_lab[cpg_gene_idx]])
    null_state = rng.integers(0, 3, C)  # drawn for every CpG, used only by nulls

    # Beta shapes by (hypo, hyper, hemi): a down CpG is hyper in A and hypo
    # in B, an up CpG the reverse, and a null CpG keeps its drawn state in both.
    shapes = np.array([P["beta_hypo"], P["beta_hyper"], P["beta_hemi"]])
    null = cpg_lab == NULL_STATE
    shapes_a = shapes[np.where(null, null_state, 1 - cpg_lab // 2)]
    shapes_b = shapes[np.where(null, null_state, cpg_lab // 2)]

    betas_a = rng.beta(shapes_a[:, :1], shapes_a[:, 1:], (C, N))
    betas_b = rng.beta(shapes_b[:, :1], shapes_b[:, 1:], (C, N))
    eps, sd = P["beta_eps"], P["noise_sd"]
    betas_a = np.clip(betas_a + rng.normal(0.0, sd, (C, N)), eps, 1 - eps)
    betas_b = np.clip(betas_b + rng.normal(0.0, sd, (C, N)), eps, 1 - eps)

    truth = SimTruth(
        gene_ids=_numbered_ids("G%05d", G),
        gene_states=gene_lab,
        cpg_ids=_numbered_ids("C%06d", C),
        cpg_states=cpg_lab,
        cpg_gene_idx=cpg_gene_idx,
    )
    return SimData(
        counts_a=counts_a,
        counts_b=counts_b,
        betas_a=betas_a,
        betas_b=betas_b,
        truth=truth,
        patients=[f"P{j + 1}" for j in range(N)],
        config=cfg,
    )


def replicate_batch(cfg: SimConfig, n_datasets: int):
    """Yield ``n_datasets`` independent simulations.

    Replicate r uses the stream ``default_rng((seed, replicate + r))``,
    so batches are reproducible and mutually independent.
    """
    if n_datasets < 1:
        raise ParameterError("n_datasets must be >= 1")
    for r in range(n_datasets):
        yield simulate(replace(cfg, replicate=cfg.replicate + r))


def write_simulation(sim: SimData, out_dir) -> None:
    """Write the four raw tables, truth labels, and the generator config."""
    out = Path(out_dir)
    t = sim.truth
    genes, cpgs = len(t.gene_ids), len(t.cpg_ids)
    cpg_gene_ids = [t.gene_ids[i] for i in t.cpg_gene_idx]
    paths = [out / f"{name}.tsv" for name in
             ("expression_a", "expression_b", "methylation_a", "methylation_b", "truth")]
    for path, values in zip(paths, (sim.counts_a, sim.counts_b)):
        write_expression_table(path, t.gene_ids, ["1"] * genes, sim.patients, values)
    for path, values in zip(paths[2:], (sim.betas_a, sim.betas_b)):
        write_methylation_table(path, t.cpg_ids, cpg_gene_ids, ["1"] * cpgs, sim.patients, values)
    _write_tables([_data_table(paths[4], ["entity_id", "layer", "label"],
                               [[*t.gene_ids, *t.cpg_ids], ["gene"] * genes + ["cpg"] * cpgs,
                                np.concatenate([t.gene_labels, t.cpg_labels])])])
    write_json(out / "sim_config.json", sim.config.to_dict())
