"""Synthetic paired-dataset generator with ground-truth labels.

Counts for condition A come from a negative binomial; condition B
counts shift the mean down/up for differential genes; every count is
then replaced by a Poisson draw centred on it. Each gene gets a
uniform number of CpG sites whose cluster is drawn from the dependency
matrix column of the gene's cluster, and beta values per cluster come
from the configured Beta distributions plus clamped Gaussian noise.

All draws flow from one ``default_rng((seed, replicate))`` stream, so a
(seed, replicate) pair pins every output bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import _write_table, write_expression_table, write_methylation_table
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
    1: np.array(
        [
            [0.1, 0.05, 0.4],
            [0.5, 0.90, 0.5],
            [0.4, 0.05, 0.1],
        ]
    ),
    2: np.array(
        [
            [0.1, 0.1, 0.8],
            [0.1, 0.8, 0.1],
            [0.8, 0.1, 0.1],
        ]
    ),
    3: np.array(
        [
            [0.2, 0.2, 0.2],
            [0.6, 0.6, 0.6],
            [0.2, 0.2, 0.2],
        ]
    ),
}


@dataclass
class SimConfig:
    """Generator settings; defaults mirror the benchmark protocol."""

    n_genes: int = 500
    n_patients: int = 4
    case: int = 1
    pi: list | None = None  # explicit 3x3 matrix overrides `case`
    prop_down: float = 0.10
    prop_up: float = 0.10
    nb_mean_base: float = 10_000.0
    nb_mean_down: float = 4_000.0
    nb_mean_up: float = 60_000.0
    nb_size: float = 5.0
    cpg_min: int = 3
    cpg_max: int = 30
    beta_hypo: tuple = (3.0, 20.0)
    beta_hyper: tuple = (20.0, 3.0)
    beta_hemi: tuple = (4.0, 3.0)
    noise_sd: float = 0.05
    # clamp for noisy betas; 0.005 caps M-values at ~7.6 so boundary
    # pileups cannot swamp the within-cluster variance
    beta_eps: float = 0.005
    seed: int = 0
    replicate: int = 0

    def validate(self) -> None:
        for name in ("n_genes", "n_patients"):
            if not getattr(self, name) >= 1:
                raise ParameterError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.prop_down + self.prop_up >= 1.0:
            raise ParameterError("prop_down + prop_up must be < 1")
        if self.cpg_min > self.cpg_max or self.cpg_min < 0:
            raise ParameterError("need 0 <= cpg_min <= cpg_max")
        for name in ("nb_mean_base", "nb_mean_down", "nb_mean_up", "nb_size"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("beta_hypo", "beta_hyper", "beta_hemi"):
            a, b = getattr(self, name)
            if a <= 0 or b <= 0:
                raise ParameterError(f"{name} shape parameters must be positive")
        if self.pi is None and self.case not in CASE_PI:
            raise ParameterError(f"case must be one of {sorted(CASE_PI)}")

    def resolve_pi(self) -> np.ndarray:
        pi = CASE_PI[self.case] if self.pi is None else np.asarray(self.pi, dtype=float)
        if pi.shape != (3, 3):
            raise ParameterError("dependency matrix must be 3x3")
        if (pi < 0).any() or np.abs(pi.sum(axis=0) - 1.0).max() > 1e-8:
            raise ParameterError("dependency matrix columns must each sum to 1")
        return pi

    def to_dict(self) -> dict:
        d = asdict(self)
        d["beta_hypo"] = list(self.beta_hypo)
        d["beta_hyper"] = list(self.beta_hyper)
        d["beta_hemi"] = list(self.beta_hemi)
        if self.pi is not None:
            d["pi"] = np.asarray(self.pi, dtype=float).tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        d = dict(d)
        for key in ("beta_hypo", "beta_hyper", "beta_hemi"):
            if key in d:
                d[key] = tuple(d[key])
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

    n_down = int(cfg.prop_down * G)
    n_up = int(cfg.prop_up * G)
    gene_lab = np.concatenate(
        [np.zeros(n_down, dtype=np.intp), np.full(G - n_down - n_up, 1, dtype=np.intp),
         np.full(n_up, 2, dtype=np.intp)]
    )
    rng.shuffle(gene_lab)

    size = cfg.nb_size
    p_base = size / (size + cfg.nb_mean_base)
    counts_a = rng.negative_binomial(size, p_base, (G, N))
    means_b = np.array([cfg.nb_mean_down, cfg.nb_mean_base, cfg.nb_mean_up])[gene_lab]
    p_b = size / (size + means_b)
    counts_b = rng.negative_binomial(size, p_b[:, np.newaxis], (G, N))
    counts_a = rng.poisson(counts_a.astype(float))
    counts_b = rng.poisson(counts_b.astype(float))

    cpg_per_gene = rng.integers(cfg.cpg_min, cfg.cpg_max + 1, G)
    cpg_gene_idx = np.repeat(np.arange(G), cpg_per_gene)
    C = int(cpg_per_gene.sum())
    cpg_lab = _sample_categorical(rng, pi[:, gene_lab[cpg_gene_idx]])
    null_state = rng.integers(0, 3, C)  # drawn for every CpG, used only by nulls

    hypo, hyper, hemi = cfg.beta_hypo, cfg.beta_hyper, cfg.beta_hemi
    shapes_a = np.empty((C, 2))
    shapes_b = np.empty((C, 2))
    down = cpg_lab == 0
    up = cpg_lab == 2
    null = cpg_lab == 1
    shapes_a[down] = hyper
    shapes_b[down] = hypo
    shapes_a[up] = hypo
    shapes_b[up] = hyper
    null_shapes = np.array([hypo, hyper, hemi])[null_state]
    shapes_a[null] = null_shapes[null]
    shapes_b[null] = null_shapes[null]

    betas_a = rng.beta(shapes_a[:, :1], shapes_a[:, 1:], (C, N))
    betas_b = rng.beta(shapes_b[:, :1], shapes_b[:, 1:], (C, N))
    betas_a = np.clip(betas_a + rng.normal(0.0, cfg.noise_sd, (C, N)), cfg.beta_eps, 1 - cfg.beta_eps)
    betas_b = np.clip(betas_b + rng.normal(0.0, cfg.noise_sd, (C, N)), cfg.beta_eps, 1 - cfg.beta_eps)

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


def write_simulation(sim: SimData, out_dir) -> list[Path]:
    """Write the four raw tables, truth labels, and the generator config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t = sim.truth
    genes, cpgs = len(t.gene_ids), len(t.cpg_ids)
    cpg_gene_ids = [t.gene_ids[i] for i in t.cpg_gene_idx]
    paths = [out / f"{name}.tsv" for name in
             ("expression_a", "expression_b", "methylation_a", "methylation_b", "truth")]
    for path, values in zip(paths, (sim.counts_a, sim.counts_b)):
        write_expression_table(path, t.gene_ids, ["1"] * genes, sim.patients, values)
    for path, values in zip(paths[2:], (sim.betas_a, sim.betas_b)):
        write_methylation_table(path, t.cpg_ids, cpg_gene_ids, ["1"] * cpgs, sim.patients, values)
    _write_table(paths[4], ["entity_id", "layer", "label"],
                 [[*t.gene_ids, *t.cpg_ids], ["gene"] * genes + ["cpg"] * cpgs,
                  np.concatenate([t.gene_labels, t.cpg_labels])])
    paths.append(out / "sim_config.json")
    paths[-1].write_text(json.dumps(sim.config.to_dict(), indent=2, sort_keys=True) + "\n")
    return paths
