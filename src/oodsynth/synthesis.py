"""Batch synthesis of virtual outliers from midpoint-seeded Markov chains.

One synthesis call builds a chain for every (class, adjacent class) pair
of the snapshot's ``pair_table``: the chain starts at the normalized
midpoint of the two prototypes, its hard-margin threshold is computed once
from that midpoint, and the chain then runs a fixed number of rounds.
Accepted positions across all chains form the outlier batch; rejected
rounds contribute nothing. Pairs whose prototypes are antipodal have no
midpoint and are skipped, and reported in ``OutlierBatch.skipped``, an
(S, 2) array of class ids.

All chains of a batch advance in lockstep (``samplers.advance``): their
positions form one (M, d) array, so each energy evaluation, margin test
and integrator step covers every chain at once. All thresholds, and the
chains' starting potential and gradient, come from one ``endpoint``
evaluation at the M midpoints. Chains stay independent given the frozen
store snapshot: each owns an RNG spawned deterministically from the
batch seed (the pair's index in ``pair_table``) and draws from it alone,
so results do not depend on how the chains are grouped, and the batch is
listed canonically by (class id, adjacency rank, round).
``OutlierBatch.chains`` is one record array, a row per chain:
``chain_index``, the adjacency ``rank`` of the partner class, the (2,)
``pair`` (class id first), ``t_minus``, the (d,) ``start`` and the count
of ``accepted`` rounds. ``OutlierBatch.samples`` holds one record per
outlier, whose ``chain_index`` is its chain's row in ``chains``; read
rounds as ``samples["round"]``, since ``samples.round`` is ndarray's
method. ``OutlierBatch.rounds`` keeps the log as one (rounds x chains)
``samplers.transition_log``, whose row r is the record array that
``advance`` returned for round r + 1.

The columns are the only model down to disk: ``round_wise_scores``
returns the ``round_scores.csv`` rows, and the exporters write the batch
JSON, CSV and trace straight from the record arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .energy import EnergyContext
from .errors import BadArgError, InsufficientDataError
from .metrics import write_csv
from .samplers import ChainState, HmcConfig, advance, transition_log
from .sphere import normalize
from .store import IdSnapshot


@dataclass
class OutlierBatch:
    samples: np.recarray  # see _sample_table
    chains: np.recarray  # see _chain_table
    skipped: np.ndarray  # (S, 2) class ids of the antipodal pairs
    config: HmcConfig | None
    k: int | None
    delta: float | None
    kappa: float | None
    n_adj: int
    rounds: np.recarray  # (rounds, chains) transition log; (0, chains) for the baseline

    def __len__(self) -> int:
        return len(self.samples)


def _sample_table(chain_index, rounds, positions: np.ndarray) -> np.recarray:
    """One record per outlier: chain index, 1-based round, (d,) position."""
    dtype = [("chain_index", np.intp), ("round", np.intp), ("position", float, positions.shape[1:])]
    table = np.recarray(len(positions), dtype=dtype)
    table["chain_index"], table["round"], table["position"] = chain_index, rounds, positions
    return table


def _chain_table(store: IdSnapshot, n_adj: int) -> tuple[np.recarray, np.ndarray, np.ndarray]:
    """One fresh chain per (class, adjacent class) pair, started at the pair midpoint.

    Returns the chains, listed by (class id, adjacency rank) with ``t_minus``
    NaN and ``accepted`` 0, the (S, 2) antipodal pairs, which get no chain,
    and each chain's index in ``store.pair_table``.
    """
    pairs, midpoints, antipodal = store.pair_table(n_adj)
    live = np.flatnonzero(~antipodal)
    dtype = [
        ("chain_index", np.intp),
        ("rank", np.intp),
        ("pair", np.intp, (2,)),
        ("t_minus", float),
        ("start", float, (store.dim,)),
        ("accepted", np.intp),
    ]
    chains = np.recarray(len(live), dtype=dtype)
    chains["chain_index"] = np.arange(len(live))
    chains["rank"] = live % n_adj
    chains["pair"] = pairs[live]
    chains["t_minus"] = np.nan
    chains["start"] = midpoints[live]
    chains["accepted"] = 0
    return chains, pairs[antipodal], live


def synthesize_batch(
    store: IdSnapshot,
    cfg: HmcConfig,
    k: int,
    delta: float,
    kappa: float,
    n_adj: int,
    grad_mode: str = "analytic",  # read by perfbench/workloads.py until ROADMAP item 2
) -> OutlierBatch:
    """Run all chains for one batch of virtual outliers, in lockstep.

    ``store`` is a frozen snapshot of the ID store. Every class
    buffer must hold at least ``k`` embeddings.
    """
    if grad_mode != "analytic":
        raise BadArgError(f"grad_mode must be 'analytic', got {grad_mode!r}")
    C = store.num_classes
    if C < 2:
        raise BadArgError(f"need at least 2 classes, got {C}")
    for c in range(C):
        if store.count(c) < k:
            raise InsufficientDataError(
                f"class {c} holds {store.count(c)} embeddings, fewer than k={k}; warm up buffers"
            )
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(C * n_adj)
    chains, skipped, flat = _chain_table(store, n_adj)
    rounds = transition_log((cfg.rounds, len(chains)), store.dim)
    if len(chains):
        starts = chains.start.copy()  # contiguous, as the GEMMs take it
        ctx = EnergyContext(store=store, pairs=chains.pair, k=k, kappa=kappa)
        potential, grad, score = ctx.endpoint(starts)
        t_minus = chains["t_minus"] = score - delta
        rngs = [np.random.default_rng(seeds[f]) for f in flat]
        state = ChainState(starts, t_minus, rngs, potential=potential, grad=grad)
        for r in range(cfg.rounds):
            rounds[r] = advance(ctx, state, cfg)
    chains["accepted"] = rounds.accepted.sum(axis=0)
    i, r = np.nonzero(rounds.accepted.T)  # by chain, then by round
    return OutlierBatch(
        samples=_sample_table(i, r + 1, rounds.proposed[r, i]),
        chains=chains,
        skipped=skipped,
        config=cfg,
        k=k,
        delta=delta,
        kappa=kappa,
        n_adj=n_adj,
        rounds=rounds,
    )


def round_summary(batch: OutlierBatch) -> dict:
    """MH acceptance rate, and why rounds produced no outlier, summed over ``batch.rounds``.

    A NaN ``h_init`` marks a degenerate rejection (the proposal met a
    degenerate point); otherwise a failed MH test is an MH rejection, and a
    passed MH test with a failed margin test is a margin rejection. The
    rate is NaN for an empty log.
    """
    mh, margin = batch.rounds.mh_accept, batch.rounds.margin_pass
    degenerate = np.isnan(batch.rounds.h_init)
    return {
        "mh_acceptance": float(mh.mean()) if mh.size else math.nan,
        "mh_rejections": int(np.count_nonzero(~mh & ~degenerate)),
        "margin_rejections": int(np.count_nonzero(mh & ~margin)),
        "degenerate_rejections": int(np.count_nonzero(degenerate)),
        "skipped_pairs": len(batch.skipped),
    }


def round_wise_scores(batch: OutlierBatch, scores: np.ndarray) -> list[list]:
    """The batch's detection scores (one per sample, in order) grouped by synthesis round.

    One ``round_scores.csv`` row per round that has a sample: the round,
    the count of its samples, and their mean, std, min and max score.
    """
    if not len(batch):
        raise BadArgError("cannot compute round-wise scores of an empty batch")
    all_scores = np.asarray(scores, dtype=float)
    if all_scores.shape != (len(batch),):
        raise BadArgError(f"{all_scores.shape} scores for a batch of {len(batch)} samples")
    rounds = batch.samples["round"]
    rows = []
    for r in np.unique(rounds).tolist():
        s = all_scores[rounds == r]
        rows.append([r, len(s), float(s.mean()), float(s.std()), float(s.min()), float(s.max())])
    return rows


def gaussian_baseline_batch(
    store: IdSnapshot,
    sigma: float,
    count_per_pair: int,
    n_adj: int,
    seed: int = 0,
) -> OutlierBatch:
    """Gaussian-perturbation baseline: noise around each pair midpoint.

    Shares the batch shape of ``synthesize_batch`` so the two synthesis
    routes can be compared sample-for-sample: a chain per pair, whose
    ``accepted`` is ``count_per_pair`` and whose ``t_minus`` is NaN.
    """
    chains, skipped, _ = _chain_table(store, n_adj)
    chains["accepted"] = count_per_pair
    positions = np.repeat(chains.start, count_per_pair, axis=0)
    if sigma > 0:  # one 1-D normalize per row: a 2-D normalize rounds differently
        noisy = positions + sigma * np.random.default_rng(seed).standard_normal(positions.shape)
        positions = np.array([normalize(row) for row in noisy]).reshape(positions.shape)
    return OutlierBatch(
        samples=_sample_table(
            np.repeat(np.arange(len(chains)), count_per_pair),
            np.tile(np.arange(1, count_per_pair + 1), len(chains)),
            positions,
        ),
        chains=chains,
        skipped=skipped,
        config=None,
        k=None,
        delta=None,
        kappa=None,
        n_adj=n_adj,
        rounds=transition_log((0, len(chains)), store.dim),
    )


# -- export ----------------------------------------------------------------


def _records(columns: dict[str, list]) -> list[dict]:
    """One dict per row of equal-length column lists, keyed by column name."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def batch_to_dict(batch: OutlierBatch) -> dict:
    """JSON-ready representation of a batch (samples plus chain metadata)."""
    chains, samples = batch.chains, batch.samples
    names = ("chain_index", "rank", "pair", "t_minus", "accepted")
    return {
        "n_adj": batch.n_adj,
        "k": batch.k,
        "delta": batch.delta,
        "kappa": batch.kappa,
        "config": None if batch.config is None else asdict(batch.config),
        "skipped": batch.skipped.tolist(),
        "chains": _records(
            {name: chains[name].tolist() for name in names}
            | {"class_id": chains.pair[:, 0].tolist()}
        ),
        "samples": _records(
            {
                "chain_index": samples.chain_index.tolist(),
                "pair": chains.pair[samples.chain_index].tolist(),
                "round": samples["round"].tolist(),
                "position": samples.position.tolist(),
            }
        ),
    }


def write_batch_json(batch: OutlierBatch, path: str | Path) -> None:
    Path(path).write_text(json.dumps(batch_to_dict(batch), sort_keys=True))


def write_batch_csv(batch: OutlierBatch, path: str | Path) -> None:
    """One row per sample: chain metadata then the raw coordinates."""
    s = batch.samples
    coords = s.position.T.tolist()
    pairs = batch.chains.pair[s.chain_index].T.tolist()
    write_csv(
        path,
        ["chain_index", "class_u", "class_v", "round"] + [f"x{i}" for i in range(len(coords))],
        zip(s.chain_index.tolist(), *pairs, s["round"].tolist(), *coords),
    )


def write_trace_jsonl(batch: OutlierBatch, path: str | Path) -> None:
    """Per-transition trace (one JSON object per line, by chain then round); NaN is null."""
    log = batch.rounds.T  # (chains, rounds)
    columns = {name: log[name].ravel() for name in log.dtype.names if name != "proposed"}
    columns["alpha"] = np.minimum(columns["alpha"], 1e308)
    columns = {name: [None if x != x else x for x in col.tolist()] for name, col in columns.items()}
    rounds = log.shape[1]
    columns["chain_index"] = np.repeat(batch.chains.chain_index, rounds).tolist()
    columns["pair"] = np.repeat(batch.chains.pair, rounds, axis=0).tolist()
    columns["round"] = np.tile(np.arange(1, rounds + 1), len(log)).tolist()
    with open(path, "w") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in _records(columns))
