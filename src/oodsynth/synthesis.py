"""Batch synthesis of virtual outliers from midpoint-seeded Markov chains.

One synthesis call builds a chain for every (class, adjacent class) pair:
the chain starts at the normalized midpoint of the two prototypes, its
hard-margin threshold is computed once from that midpoint, and the chain
then runs a fixed number of rounds. Accepted positions across all chains
form the outlier batch; rejected rounds contribute nothing. Pairs whose
prototypes are antipodal have no midpoint and are skipped (and reported).

All chains of a batch advance in lockstep (``samplers.advance``): their
positions form one (M, d) array, so each energy evaluation, margin test
and integrator step covers every chain at once, and all thresholds come
from one KDE evaluation at the M midpoints. Chains stay independent given
the frozen store snapshot: each owns an RNG spawned deterministically
from the batch seed and draws from it alone, so results do not depend on
how the chains are grouped, and the batch is listed canonically by
(class id, adjacency rank, round).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .energy import EnergyContext, neg_log_max_id_prob
from .errors import AntipodalPrototypesError, BadArgError, InsufficientDataError
from .metrics import write_csv
from .samplers import ChainState, HmcConfig, TransitionRecord, advance
from .sphere import normalize
from .store import ClusterPair, IdSnapshot


@dataclass
class ChainRun:
    """Provenance of one chain inside a batch."""

    chain_index: int
    class_id: int
    rank: int  # adjacency rank of the partner cluster (0 = closest)
    pair: ClusterPair
    t_minus: float
    start: np.ndarray
    accepted: int
    records: list[TransitionRecord] = field(default_factory=list)


@dataclass
class OutlierSample:
    position: np.ndarray
    pair: ClusterPair
    chain_index: int
    round: int


@dataclass
class OutlierBatch:
    samples: list[OutlierSample]
    chains: list[ChainRun]
    skipped: list[ClusterPair]
    config: HmcConfig | None
    k: int | None
    delta: float | None
    kappa: float | None
    n_adj: int

    def positions(self) -> np.ndarray:
        if not self.samples:
            return np.empty((0, 0))
        return np.array([s.position for s in self.samples])

    def __len__(self) -> int:
        return len(self.samples)


def _pair_chains(store: IdSnapshot, n_adj: int) -> tuple[list[ChainRun], list[ClusterPair]]:
    """One fresh chain per (class, adjacent class) pair, started at the pair midpoint.

    Listed by (class id, adjacency rank); pairs with antipodal prototypes
    get no chain and are returned as skipped.
    """
    chains: list[ChainRun] = []
    skipped: list[ClusterPair] = []
    for c in range(store.num_classes):
        for rank, j in enumerate(store.adjacent_clusters(c, n_adj)):
            pair = ClusterPair(c, j)
            try:
                start = store.midpoint(pair)
            except AntipodalPrototypesError:
                skipped.append(pair)
                continue
            chains.append(
                ChainRun(
                    chain_index=len(chains),
                    class_id=c,
                    rank=rank,
                    pair=pair,
                    t_minus=math.nan,
                    start=start,
                    accepted=0,
                )
            )
    return chains, skipped


def synthesize_batch(
    store: IdSnapshot,
    cfg: HmcConfig,
    k: int,
    delta: float,
    kappa: float,
    n_adj: int,
    grad_mode: str = "analytic",
) -> OutlierBatch:
    """Run all chains for one batch of virtual outliers, in lockstep.

    ``store`` is a frozen snapshot of the ID store. Every class
    buffer must hold at least ``k`` embeddings.
    """
    C = store.num_classes
    if C < 2:
        raise BadArgError(f"need at least 2 classes, got {C}")
    for c in range(C):
        if store.count(c) < k:
            raise InsufficientDataError(
                f"class {c} holds {store.count(c)} embeddings, fewer than k={k}; warm up buffers"
            )
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(C * n_adj)
    chains, skipped = _pair_chains(store, n_adj)
    rngs = [np.random.default_rng(seeds[run.class_id * n_adj + run.rank]) for run in chains]
    if chains:
        starts = np.array([run.start for run in chains])
        t_minus = neg_log_max_id_prob(store, starts, kappa) - delta
        for run, t in zip(chains, t_minus.tolist()):
            run.t_minus = t
        ctx = EnergyContext(
            store=store, pairs=[run.pair for run in chains], k=k, kappa=kappa, grad_mode=grad_mode
        )
        state = ChainState(positions=starts, t_minus=t_minus, rngs=rngs)
        for _ in range(cfg.rounds):
            for run, rec in zip(chains, advance(ctx, state, cfg)):
                run.records.append(rec)
                run.accepted += rec.accepted
    samples = [
        OutlierSample(
            position=rec.proposed, pair=run.pair, chain_index=run.chain_index, round=r
        )
        for run in chains
        for r, rec in enumerate(run.records, start=1)
        if rec.accepted
    ]
    return OutlierBatch(
        samples=samples,
        chains=chains,
        skipped=skipped,
        config=cfg,
        k=k,
        delta=delta,
        kappa=kappa,
        n_adj=n_adj,
    )


@dataclass
class RoundScores:
    round: int
    mean: float
    std: float
    min: float
    max: float
    scores: np.ndarray


def round_wise_scores(batch: OutlierBatch, scores: np.ndarray) -> list[RoundScores]:
    """The batch's detection scores (one per sample, in order) grouped by synthesis round."""
    if not batch.samples:
        raise BadArgError("cannot compute round-wise scores of an empty batch")
    all_scores = np.asarray(scores, dtype=float)
    if all_scores.shape != (len(batch),):
        raise BadArgError(f"{all_scores.shape} scores for a batch of {len(batch)} samples")
    rounds = np.array([s.round for s in batch.samples])
    out = []
    for r in np.unique(rounds).tolist():
        scores = all_scores[rounds == r]
        out.append(
            RoundScores(
                round=r,
                mean=float(scores.mean()),
                std=float(scores.std()),
                min=float(scores.min()),
                max=float(scores.max()),
                scores=scores,
            )
        )
    return out


def gaussian_baseline_batch(
    store: IdSnapshot,
    sigma: float,
    count_per_pair: int,
    n_adj: int,
    seed: int = 0,
) -> OutlierBatch:
    """Gaussian-perturbation baseline: noise around each pair midpoint.

    Shares the batch shape of ``synthesize_batch`` so the two synthesis
    routes can be compared sample-for-sample.
    """
    rng = np.random.default_rng(seed)
    samples: list[OutlierSample] = []
    chains, skipped = _pair_chains(store, n_adj)
    for run in chains:
        run.accepted = count_per_pair
        for i in range(count_per_pair):
            g = rng.standard_normal(store.dim)
            pos = normalize(run.start + sigma * g) if sigma > 0 else run.start.copy()
            samples.append(
                OutlierSample(
                    position=pos, pair=run.pair, chain_index=run.chain_index, round=i + 1
                )
            )
    return OutlierBatch(
        samples=samples,
        chains=chains,
        skipped=skipped,
        config=None,
        k=None,
        delta=None,
        kappa=None,
        n_adj=n_adj,
    )


# -- export ----------------------------------------------------------------


def batch_to_dict(batch: OutlierBatch) -> dict:
    """JSON-ready representation of a batch (samples plus chain metadata)."""
    return {
        "n_adj": batch.n_adj,
        "k": batch.k,
        "delta": batch.delta,
        "kappa": batch.kappa,
        "config": None
        if batch.config is None
        else {
            "leapfrog_steps": batch.config.leapfrog_steps,
            "step_size": batch.config.step_size,
            "rounds": batch.config.rounds,
            "variant": batch.config.variant.value,
            "rng_seed": batch.config.rng_seed,
        },
        "skipped": [[p.u, p.v] for p in batch.skipped],
        "chains": [
            {
                "chain_index": c.chain_index,
                "class_id": c.class_id,
                "rank": c.rank,
                "pair": [c.pair.u, c.pair.v],
                "t_minus": c.t_minus,
                "accepted": c.accepted,
            }
            for c in batch.chains
        ],
        "samples": [
            {
                "chain_index": s.chain_index,
                "pair": [s.pair.u, s.pair.v],
                "round": s.round,
                "position": s.position.tolist(),
            }
            for s in batch.samples
        ],
    }


def write_batch_json(batch: OutlierBatch, path: str | Path) -> None:
    Path(path).write_text(json.dumps(batch_to_dict(batch), sort_keys=True))


def write_batch_csv(batch: OutlierBatch, path: str | Path) -> None:
    """One row per sample: chain metadata then the raw coordinates."""
    dim = batch.samples[0].position.shape[0] if batch.samples else 0
    write_csv(
        path,
        ["chain_index", "class_u", "class_v", "round"] + [f"x{i}" for i in range(dim)],
        ([s.chain_index, s.pair.u, s.pair.v, s.round, *s.position] for s in batch.samples),
    )


def write_trace_jsonl(batch: OutlierBatch, path: str | Path) -> None:
    """Per-transition trace (one JSON object per line) for debugging and figures."""

    def _num(x: float):
        return None if x != x else x  # NaN -> null

    with open(path, "w") as fh:
        for c in batch.chains:
            for i, rec in enumerate(c.records, start=1):
                fh.write(
                    json.dumps(
                        {
                            "chain_index": c.chain_index,
                            "pair": [c.pair.u, c.pair.v],
                            "round": i,
                            "alpha": _num(min(rec.alpha, 1e308)),
                            "h_init": _num(rec.h_init),
                            "h_prop": _num(rec.h_prop),
                            "mh_accept": rec.mh_accept,
                            "margin_pass": rec.margin_pass,
                            "accepted": rec.accepted,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
