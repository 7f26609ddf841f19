import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import class_rows, cluster_store, degenerate_store
from oodsynth.bench import BenchConfig, generate_synthetic_id
from oodsynth.energy import passes_margin
from oodsynth.errors import BadArgError, InsufficientDataError
from oodsynth.metrics import knn_scores, write_csv
from oodsynth.samplers import HmcConfig, SamplerVariant, transition_log
from oodsynth.sphere import normalize
from oodsynth.store import ANTIPODAL_TOL, IdStore
from oodsynth.synthesis import (
    OutlierBatch,
    batch_to_dict,
    gaussian_baseline_batch,
    round_summary,
    round_wise_scores,
    synthesize_batch,
    write_batch_csv,
    write_batch_json,
    write_trace_jsonl,
)

SYNTH_ARGS = dict(k=5, delta=0.1, kappa=2.0, n_adj=1)


def test_batch_size_bounded_by_chains_times_rounds():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=1).snapshot()
    batch = synthesize_batch(store, HmcConfig(rounds=5), **SYNTH_ARGS)
    assert len(batch.chains) == 2  # C * n_adj
    assert len(batch) <= 2 * 1 * 5
    for run in batch.chains:
        assert run.accepted <= 5


def test_defaults_batch_bound_200():
    store = cluster_store(num_classes=10, dim=8, n_per_class=40, seed=2).snapshot()
    batch = synthesize_batch(store, HmcConfig(), k=5, delta=0.1, kappa=2.0, n_adj=4)
    assert len(batch.chains) == 40
    assert len(batch) <= 200  # 20 outliers per class at most


def test_insufficient_buffer_raises():
    store = cluster_store(num_classes=2, dim=6, n_per_class=3, seed=3).snapshot()
    with pytest.raises(InsufficientDataError):
        synthesize_batch(store, HmcConfig(), k=5, delta=0.1, kappa=2.0, n_adj=1)
    # k = 0 leaves the kNN energy no neighbor to select
    with pytest.raises(BadArgError, match="k must be >= 1"):
        synthesize_batch(store, HmcConfig(), k=0, delta=0.1, kappa=2.0, n_adj=1)


def test_batch_is_deterministic_and_canonically_ordered():
    store = cluster_store(num_classes=3, dim=8, n_per_class=30, seed=4).snapshot()
    cfg = HmcConfig(rng_seed=99)
    one = synthesize_batch(store, cfg, k=5, delta=0.1, kappa=2.0, n_adj=2)
    two = synthesize_batch(store, cfg, k=5, delta=0.1, kappa=2.0, n_adj=2)
    assert json.dumps(batch_to_dict(one), sort_keys=True) == json.dumps(
        batch_to_dict(two), sort_keys=True
    )
    keys = list(zip(one.samples.chain_index.tolist(), one.samples["round"].tolist()))
    assert keys == sorted(keys)


def test_every_sample_passes_its_chain_margin():
    store = cluster_store(num_classes=3, dim=8, n_per_class=30, seed=5).snapshot()
    batch = synthesize_batch(store, HmcConfig(rng_seed=6), k=5, delta=0.1, kappa=2.0, n_adj=2)
    assert len(batch) > 0
    t_by_chain = {c.chain_index: c.t_minus for c in batch.chains}
    for s in batch.samples:
        assert passes_margin(store, s.position, 2.0, t_by_chain[s.chain_index])
        assert abs(np.linalg.norm(s.position) - 1.0) <= 1e-9


def test_unreachable_margin_yields_valid_empty_batch():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=7).snapshot()
    batch = synthesize_batch(store, HmcConfig(), k=5, delta=-10.0, kappa=2.0, n_adj=1)
    # a strongly negative margin slack makes the threshold unbeatable near the
    # midpoint, so every round is margin-rejected
    assert len(batch) == 0
    assert [c.accepted for c in batch.chains] == [0, 0]
    assert len(batch.chains) == 2
    # the empty table keeps its width, so the detector scores it like any batch
    assert batch.samples.position.shape == (0, 8)
    assert knn_scores(store.embeddings, batch.samples.position, 5).shape == (0,)


def test_antipodal_pairs_are_skipped_and_reported():
    store = IdStore(2, 3, capacity=4)
    e1 = np.eye(3)[0]
    store.insert(0, e1)
    store.update_prototype(0, e1)
    store.insert(1, -e1)
    store.update_prototype(1, -e1)
    batch = synthesize_batch(store.snapshot(), HmcConfig(), k=1, delta=0.1, kappa=2.0, n_adj=1)
    assert len(batch.chains) == 0
    assert len(batch.skipped) == 2  # (0,1) and (1,0)
    assert len(batch) == 0
    # the log keeps one row per round, over no chains
    assert batch.rounds.shape == (HmcConfig().rounds, 0)
    summary = round_summary(batch)
    assert math.isnan(summary["mh_acceptance"])
    assert summary["mh_rejections"] == summary["margin_rejections"] == 0
    assert summary["degenerate_rejections"] == 0
    assert summary["skipped_pairs"] == 2


def test_chains_are_one_table_by_class_and_adjacency_rank():
    store = cluster_store(num_classes=4, dim=8, n_per_class=30, seed=5).snapshot()
    batch = synthesize_batch(store, HmcConfig(rng_seed=1), **(SYNTH_ARGS | {"n_adj": 3}))
    chains = batch.chains
    assert chains.dtype.names == ("chain_index", "rank", "pair", "t_minus", "start", "accepted")
    assert chains.shape == (12,) and batch.skipped.shape == (0, 2)
    assert chains.chain_index.tolist() == list(range(12))
    assert chains.rank.tolist() == [0, 1, 2] * 4
    adjacency = store.adjacency(3)
    assert chains.pair.tolist() == [[c, j] for c in range(4) for j in adjacency[c].tolist()]
    assert np.array_equal(chains.start, store.pair_table(3)[1])
    assert np.array_equal(chains.accepted, batch.rounds.accepted.sum(axis=0))
    assert np.isfinite(chains.t_minus).all()


def axis_store(dim=3, n_per_class=20, seed=0):
    """Classes 0 and 1 about e0 and -e0 (an antipodal pair), class c >= 2 about e(c - 1)."""
    centers = np.concatenate([np.eye(dim)[:1], -np.eye(dim)[:1], np.eye(dim)[1:]])
    rng = np.random.default_rng(seed)
    store = IdStore(len(centers), dim, n_per_class)
    for c, mu in enumerate(centers):
        rows = mu + 0.3 * rng.standard_normal((n_per_class, dim))
        store.insert(c, rows / np.linalg.norm(rows, axis=1, keepdims=True))
        store.update_prototype(c, mu)
    return store.snapshot()


@pytest.mark.parametrize("variant", [SamplerVariant.HMC, SamplerVariant.RANDOM_WALK])
def test_a_skipped_antipodal_pair_leaves_every_other_chain_its_own_rng(variant):
    # each chain draws from the seed of its pair's flat (class, rank) index, so
    # the chains after a skipped pair see the random numbers they would see alone
    store = axis_store()
    cfg = HmcConfig(variant=variant, rng_seed=3)
    batch = _assert_parity(store, cfg, k=3, delta=0.1, kappa=2.0, n_adj=3)
    assert sorted(batch.skipped.tolist()) == [[0, 1], [1, 0]]
    assert len(batch.chains) == 4 * 3 - 2
    assert len(batch) > 0


def test_requires_two_classes():
    store = cluster_store(num_classes=2, dim=6, n_per_class=10, seed=8).snapshot()
    with pytest.raises(BadArgError):
        synthesize_batch(store, HmcConfig(), k=2, delta=0.1, kappa=2.0, n_adj=2)


# -- round-wise scores ---------------------------------------------------------


def test_round_wise_single_round():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=9).snapshot()
    batch = synthesize_batch(store, HmcConfig(rounds=1, rng_seed=2), **SYNTH_ARGS)
    assert len(batch) > 0
    scores = knn_scores(store.embeddings, batch.samples.position, 5)
    [(r, count, mean, std, low, high)] = round_wise_scores(batch, scores)
    assert (r, count) == (1, len(batch))
    assert [mean, std, low, high] == [scores.mean(), scores.std(), scores.min(), scores.max()]


def test_round_wise_identical_samples_zero_std():
    # sigma=0 baseline puts every sample of a two-class store at the shared
    # midpoint, so each round group has zero spread
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=10).snapshot()
    batch = gaussian_baseline_batch(store, sigma=0.0, count_per_pair=3, n_adj=1, seed=0)
    rws = round_wise_scores(batch, knn_scores(store.embeddings, batch.samples.position, 5))
    assert [row[:2] for row in rws] == [[1, 2], [2, 2], [3, 2]]  # round, count
    for row in rws:
        assert row[3] <= 1e-12  # std


def test_round_wise_trend_on_cluster_benchmark():
    store = cluster_store(num_classes=4, dim=8, n_per_class=50, seed=11).snapshot()
    batch = synthesize_batch(store, HmcConfig(rng_seed=3), k=8, delta=0.1, kappa=2.0, n_adj=2)
    rws = round_wise_scores(batch, knn_scores(store.embeddings, batch.samples.position, 8))
    # scores are negative distances: later rounds drift to higher OOD-ness
    assert -rws[-1][2] >= -rws[0][2]  # column 2: the mean


def test_round_wise_empty_batch_raises():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=12).snapshot()
    batch = gaussian_baseline_batch(store, sigma=0.0, count_per_pair=0, n_adj=1)
    with pytest.raises(BadArgError):
        round_wise_scores(batch, np.empty(0))


def test_round_wise_scores_must_match_the_batch():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=9).snapshot()
    batch = gaussian_baseline_batch(store, sigma=0.1, count_per_pair=3, n_adj=1)
    with pytest.raises(BadArgError):
        round_wise_scores(batch, np.zeros(len(batch) - 1))


def test_unknown_grad_mode_is_a_bad_arg_error():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=9).snapshot()
    with pytest.raises(BadArgError, match="grad_mode"):
        synthesize_batch(store, HmcConfig(rounds=1), **SYNTH_ARGS, grad_mode="bogus")


# -- gaussian baseline ----------------------------------------------------------


def test_baseline_sigma_zero_equals_midpoints():
    store = cluster_store(num_classes=3, dim=8, n_per_class=20, seed=13).snapshot()
    batch = gaussian_baseline_batch(store, sigma=0.0, count_per_pair=4, n_adj=2, seed=1)
    mids = {c.chain_index: c.start for c in batch.chains}
    for s in batch.samples:
        assert np.allclose(s.position, mids[s.chain_index], atol=1e-12)


def test_baseline_exact_count():
    store = cluster_store(num_classes=3, dim=8, n_per_class=20, seed=14).snapshot()
    batch = gaussian_baseline_batch(store, sigma=0.3, count_per_pair=7, n_adj=2, seed=1)
    assert len(batch) == len(batch.chains) * 7
    assert len(batch.chains) == 3 * 2
    # the baseline runs no Markov chain, so its log has no rounds
    assert batch.rounds.shape == (0, len(batch.chains))


@pytest.mark.parametrize("sigma, count", [(0.3, 7), (1e-3, 1), (0.5, 0)])
def test_baseline_positions_equal_a_per_row_draw_and_normalize(sigma, count):
    store = cluster_store(num_classes=4, dim=8, n_per_class=20, seed=14).snapshot()
    batch = gaussian_baseline_batch(store, sigma=sigma, count_per_pair=count, n_adj=2, seed=6)
    rng = np.random.default_rng(6)
    want = [
        normalize(start + sigma * rng.standard_normal(8))
        for start in batch.chains.start
        for _ in range(count)
    ]
    assert batch.samples.position.shape == (len(want), 8)
    assert np.array_equal(batch.samples.position, np.reshape(want, (-1, 8)))
    assert np.array_equal(batch.chains.start, store.pair_table(2)[1])
    assert batch.chains.accepted.tolist() == [count] * 8
    assert np.isnan(batch.chains.t_minus).all()


def test_baseline_small_sigma_stays_within_five_degrees():
    store = cluster_store(num_classes=2, dim=16, n_per_class=20, seed=15).snapshot()
    batch = gaussian_baseline_batch(store, sigma=0.01, count_per_pair=500, n_adj=1, seed=2)
    mids = {c.chain_index: c.start for c in batch.chains}
    angles = np.array(
        [
            np.degrees(np.arccos(np.clip(s.position @ mids[s.chain_index], -1, 1)))
            for s in batch.samples
        ]
    )
    assert np.mean(angles <= 5.0) >= 0.99


# -- export ----------------------------------------------------------------------


def test_batch_export_round_trip(tmp_path):
    store = cluster_store(num_classes=2, dim=6, n_per_class=30, seed=16).snapshot()
    batch = synthesize_batch(store, HmcConfig(rng_seed=4), **SYNTH_ARGS)
    jpath = tmp_path / "batch.json"
    cpath = tmp_path / "batch.csv"
    tpath = tmp_path / "trace.jsonl"
    write_batch_json(batch, jpath)
    write_batch_csv(batch, cpath)
    write_trace_jsonl(batch, tpath)
    doc = json.loads(jpath.read_text())
    assert len(doc["samples"]) == len(batch)
    assert doc["config"]["rng_seed"] == 4
    with open(cpath, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header[:4] == ["chain_index", "class_u", "class_v", "round"]
    assert len(rows) == len(batch) > 0
    for row, s in zip(rows, batch.samples):
        pair = batch.chains[s.chain_index].pair
        assert [int(v) for v in row[:4]] == [s.chain_index, *pair, s["round"]]
        assert [float(v) for v in row[4:]] == s.position.tolist()
    traces = [json.loads(line) for line in tpath.read_text().splitlines()]
    assert len(traces) == len(batch.chains) * len(batch.rounds)
    assert {t["accepted"] for t in traces} <= {True, False}


def _hand_batch(baseline: bool) -> OutlierBatch:
    """Two chains, three samples; unless ``baseline``, a two-round log with an
    infinite alpha and a degenerate round (NaN energies, alpha 0)."""
    chains = np.rec.array(
        [
            (0, 0, (0, 1), math.nan if baseline else 0.25, (0.6, 0.8), 2),
            (1, 0, (1, 0), math.nan if baseline else -0.5, (0.6, 0.8), 1),
        ],
        dtype=[
            ("chain_index", np.intp),
            ("rank", np.intp),
            ("pair", np.intp, (2,)),
            ("t_minus", float),
            ("start", float, (2,)),
            ("accepted", np.intp),
        ],
    )
    samples = np.rec.array(
        [(0, 1, (1.0, 0.0)), (0, 2, (0.0, 1.0)), (1, 2, (0.0, -1.0))],
        dtype=[("chain_index", np.intp), ("round", np.intp), ("position", float, (2,))],
    )
    rounds = transition_log((0 if baseline else 2, 2), 2)
    if not baseline:
        rounds[0] = [
            ((1.0, 0.0), 1.5, 1.25, math.inf, True, True, True),
            ((0.6, 0.8), math.nan, math.nan, 0.0, False, False, False),
        ]
        rounds[1] = [
            ((0.0, 1.0), 0.5, 0.75, 0.5, True, True, True),
            ((0.0, -1.0), -0.25, -1.0, 1.0, True, True, True),
        ]
    cfg = HmcConfig(leapfrog_steps=2, step_size=0.125, rounds=2, rng_seed=7)
    return OutlierBatch(
        samples=samples,
        chains=chains,
        skipped=np.array([[2, 1]]),
        config=None if baseline else cfg,
        k=None if baseline else 3,
        delta=None if baseline else 0.1,
        kappa=None if baseline else 2.0,
        n_adj=1,
        rounds=rounds,
    )


_HAND_CHAINS = (
    '"chains": [{"accepted": 2, "chain_index": 0, "class_id": 0, "pair": [0, 1], "rank": 0, '
    '"t_minus": %s}, {"accepted": 1, "chain_index": 1, "class_id": 1, "pair": [1, 0], '
    '"rank": 0, "t_minus": %s}]'
)
_HAND_SAMPLES = (
    '"samples": [{"chain_index": 0, "pair": [0, 1], "position": [1.0, 0.0], "round": 1}, '
    '{"chain_index": 0, "pair": [0, 1], "position": [0.0, 1.0], "round": 2}, '
    '{"chain_index": 1, "pair": [1, 0], "position": [0.0, -1.0], "round": 2}], '
    '"skipped": [[2, 1]]}'
)


def test_exports_of_a_hand_built_batch_are_pinned_to_the_byte(tmp_path):
    batch = _hand_batch(baseline=False)
    write_batch_json(batch, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_text() == (
        "{" + _HAND_CHAINS % ("0.25", "-0.5") + ', "config": {"leapfrog_steps": 2, '
        '"rng_seed": 7, "rounds": 2, "step_size": 0.125, "variant": "hmc"}, "delta": 0.1, '
        '"k": 3, "kappa": 2.0, "n_adj": 1, ' + _HAND_SAMPLES
    )
    write_batch_csv(batch, tmp_path / "b.csv")
    assert (tmp_path / "b.csv").read_bytes() == (
        b"chain_index,class_u,class_v,round,x0,x1\r\n"
        b"0,0,1,1,1.0,0.0\r\n0,0,1,2,0.0,1.0\r\n1,1,0,2,0.0,-1.0\r\n"
    )
    # by chain then round; NaN is null and an infinite alpha 1e308
    write_trace_jsonl(batch, tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text() == (
        '{"accepted": true, "alpha": 1e+308, "chain_index": 0, "h_init": 1.5, "h_prop": 1.25, '
        '"margin_pass": true, "mh_accept": true, "pair": [0, 1], "round": 1}\n'
        '{"accepted": true, "alpha": 0.5, "chain_index": 0, "h_init": 0.5, "h_prop": 0.75, '
        '"margin_pass": true, "mh_accept": true, "pair": [0, 1], "round": 2}\n'
        '{"accepted": false, "alpha": 0.0, "chain_index": 1, "h_init": null, "h_prop": null, '
        '"margin_pass": false, "mh_accept": false, "pair": [1, 0], "round": 1}\n'
        '{"accepted": true, "alpha": 1.0, "chain_index": 1, "h_init": -0.25, "h_prop": -1.0, '
        '"margin_pass": true, "mh_accept": true, "pair": [1, 0], "round": 2}\n'
    )
    rows = round_wise_scores(batch, np.array([-1.0, -0.5, -0.25]))
    write_csv(tmp_path / "r.csv", ["round", "count", "mean", "std", "min", "max"], rows)
    assert (tmp_path / "r.csv").read_bytes() == (
        b"round,count,mean,std,min,max\r\n1,1,-1.0,0.0,-1.0,-1.0\r\n2,2,-0.375,0.125,-0.5,-0.25\r\n"
    )


def test_exports_of_a_hand_built_baseline_batch_are_pinned_to_the_byte(tmp_path):
    batch = _hand_batch(baseline=True)
    write_batch_json(batch, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_text() == (
        "{" + _HAND_CHAINS % ("NaN", "NaN") + ', "config": null, "delta": null, "k": null, '
        '"kappa": null, "n_adj": 1, ' + _HAND_SAMPLES
    )
    write_trace_jsonl(batch, tmp_path / "t.jsonl")  # a baseline has no transition log
    assert (tmp_path / "t.jsonl").read_text() == ""


def test_empty_batch_csv_holds_only_its_header(tmp_path):
    store = cluster_store(num_classes=2, dim=3, n_per_class=10, seed=12).snapshot()
    batch = gaussian_baseline_batch(store, sigma=0.0, count_per_pair=0, n_adj=1)
    write_batch_csv(batch, tmp_path / "batch.csv")
    header = b"chain_index,class_u,class_v,round,x0,x1,x2\r\n"
    assert (tmp_path / "batch.csv").read_bytes() == header


# -- parity with the per-chain path -----------------------------------------------
# The per-chain sampler that the lockstep one replaced, kept as its oracle: each
# chain ran alone, with two kNN matvecs per energy evaluation (the store's old
# ``knn_distance``, copied below), one KDE matvec and a scipy log-sum-exp per
# margin test, and the 1-D sphere geometry.


class _LegacyDegenerate(Exception):
    pass


def _legacy_knn_distance(emb, z, k):
    """k-th neighbor of z by one matvec on the norm expansion, ties to the lower index."""
    d2 = np.einsum("ij,ij->i", emb, emb) + float(z @ z) - 2.0 * (emb @ z)
    kth_value = d2[np.argpartition(d2, k - 1)[k - 1]] if k < len(emb) else d2.max()
    below = int(np.count_nonzero(d2 < kth_value))
    idx = int(np.flatnonzero(d2 == kth_value)[k - 1 - below])
    return float(np.linalg.norm(emb[idx] - z)), emb[idx].copy()


def _legacy_tangent(q, z):
    return q - z * (z @ q)


def _legacy_geodesic(z, q, eps):
    speed = float(np.linalg.norm(q))
    if speed == 0.0:
        return z, q
    c, s = np.cos(speed * eps), np.sin(speed * eps)
    z_new = z * c + (q / speed) * s
    return z_new / float(np.linalg.norm(z_new)), -z * (speed * s) + q * c


def _legacy_neg_log_max(store, z, kappa):
    offsets = store.offsets
    counts = np.diff(offsets)
    ips = kappa * (store.embeddings @ z)
    highs = np.maximum.reduceat(ips, offsets[:-1])
    sums = np.add.reduceat(np.exp(ips - np.repeat(highs, counts)), offsets[:-1])
    logs = highs + np.log(sums) - np.log(counts)
    return float(logsumexp(logs) - logs.max())


class _LegacyEnergy:
    def __init__(self, store, pair, k, grad_mode):
        self.store, self.pair, self.k, self.grad_mode = store, pair, k, grad_mode

    def _query(self, z):
        d_u, n_u = _legacy_knn_distance(class_rows(self.store, self.pair[0]), z, self.k)
        d_v, n_v = _legacy_knn_distance(class_rows(self.store, self.pair[1]), z, self.k)
        return d_u, n_u, d_v, n_v

    def value_and_grad(self, z):
        d_u, n_u, d_v, n_v = self._query(z)
        if d_u == 0.0 or d_v == 0.0:
            raise _LegacyDegenerate
        p = 0.5 * (d_u + d_v)
        dirs = (z - n_u) / d_u + (z - n_v) / d_v
        grad = -p * dirs if self.grad_mode == "scaled" else -dirs / (2.0 * p)
        return -math.log(p), grad


def _legacy_kinetic(q):
    return 0.5 * float(q @ q)


def _legacy_proposal(energy, z, rng, cfg):
    """One attempt: (proposed, h_init, h_prop, u); raises _LegacyDegenerate."""
    if cfg.variant == SamplerVariant.RANDOM_WALK:
        g = rng.standard_normal(z.shape[0])
        u = rng.uniform()
        z_prop = z + cfg.step_size * g
        z_prop = z_prop / float(np.linalg.norm(z_prop)) if cfg.step_size > 0 else z.copy()
        return z_prop, energy.value_and_grad(z)[0], energy.value_and_grad(z_prop)[0], u
    q0 = _legacy_tangent(rng.standard_normal(z.shape[0]), z)
    u = rng.uniform()
    eps = cfg.step_size
    u_init, grad = energy.value_and_grad(z)
    z_prop, q = z, q0
    for _ in range(cfg.leapfrog_steps):
        q = q - 0.5 * eps * _legacy_tangent(grad, z_prop)
        z_prop, q = _legacy_geodesic(z_prop, q, eps)
        u_prop, grad = energy.value_and_grad(z_prop)
        q = q - 0.5 * eps * _legacy_tangent(grad, z_prop)
    return z_prop, u_init + _legacy_kinetic(q0), u_prop + _legacy_kinetic(q), u


def legacy_synthesize_batch(store, cfg, k, delta, kappa, n_adj, grad_mode="analytic"):
    """(skipped pairs, [(pair, t_minus, [(proposed, h_init, h_prop, mh, margin)])])."""
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(store.num_classes * n_adj)
    skipped, chains = [], []
    for c in range(store.num_classes):
        cos = store.prototypes @ store.prototypes[c]
        others = np.array([j for j in range(store.num_classes) if j != c])
        adjacent = others[np.lexsort((others, -cos[others]))][:n_adj].tolist()
        for rank, j in enumerate(adjacent):
            pair = (c, j)
            total = store.prototypes[c] + store.prototypes[j]
            norm = np.linalg.norm(total)
            if norm < ANTIPODAL_TOL:
                skipped.append(pair)
                continue
            z = total / norm
            t_minus = _legacy_neg_log_max(store, z, kappa) - delta
            energy = _LegacyEnergy(store, pair, k, grad_mode)
            rng = np.random.default_rng(seeds[c * n_adj + rank])
            records = []
            for _ in range(cfg.rounds):
                try:
                    z_prop, h_init, h_prop, u = _legacy_proposal(energy, z, rng, cfg)
                except _LegacyDegenerate:
                    rec = (z.copy(), math.nan, math.nan, False, False)
                else:
                    try:
                        alpha = math.exp(h_init - h_prop)
                    except OverflowError:
                        alpha = math.inf
                    margin = _legacy_neg_log_max(store, z_prop, kappa) > t_minus
                    rec = (z_prop, h_init, h_prop, u < min(1.0, alpha), margin)
                records.append(rec)
                if rec[3] and rec[4]:
                    z = rec[0]
            chains.append((pair, t_minus, records))
    return skipped, chains


def _assert_parity(store, cfg, **kwargs):
    skipped, want = legacy_synthesize_batch(store, cfg, **kwargs)
    got = synthesize_batch(store, cfg, **kwargs)
    assert got.skipped.tolist() == [list(pair) for pair in skipped]
    assert len(got.chains) == len(want)
    size = 0
    for i, (run, (pair, t_minus, records)) in enumerate(zip(got.chains, want)):
        assert (run.chain_index, run.pair.tolist()) == (i, list(pair))
        assert abs(run.t_minus - t_minus) <= 1e-10
        assert len(got.rounds) == len(records)
        for rec, (proposed, h_init, h_prop, mh, margin) in zip(got.rounds, records):
            flags = (rec.mh_accept[i], rec.margin_pass[i], rec.accepted[i])
            assert flags == (mh, margin, mh and margin)
            assert np.abs(rec.proposed[i] - proposed).max() <= 1e-10
            for a, b in ((rec.h_init[i], h_init), (rec.h_prop[i], h_prop)):
                assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-10
        assert run.accepted == sum(mh and margin for _, _, _, mh, margin in records)
        size += run.accepted
    assert len(got) == size
    return got


DEFAULT = BenchConfig()


def _default_store(seed):
    return generate_synthetic_id(dataclasses.replace(DEFAULT, seed=seed)).snapshot()


def _default_args(store):
    return dict(
        k=DEFAULT.effective_k(store),
        delta=DEFAULT.delta,
        kappa=DEFAULT.kappa,
        n_adj=DEFAULT.effective_n_adj(),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_matches_per_chain_path_on_default_config(seed):
    store = _default_store(seed)
    _assert_parity(store, dataclasses.replace(DEFAULT.hmc, rng_seed=seed), **_default_args(store))


@pytest.mark.parametrize("variant", list(SamplerVariant))
def test_lockstep_matches_per_chain_path_for_every_variant(variant):
    store = _default_store(3)
    cfg = HmcConfig(variant=variant, rng_seed=5, rounds=8)
    _assert_parity(store, cfg, **_default_args(store))


def test_lockstep_matches_per_chain_path_in_scaled_grad_mode():
    store = _default_store(4)
    args = _default_args(store) | {"grad_mode": "scaled"}
    _assert_parity(store, HmcConfig(rng_seed=6), **args)


def test_lockstep_matches_per_chain_path_on_criterion_10_store():
    cfg = BenchConfig(dim=128, num_classes=10, points_per_class=1000, cluster_kappa=60.0)
    store = generate_synthetic_id(cfg).snapshot()
    args = dict(
        k=cfg.effective_k(store), delta=cfg.delta, kappa=cfg.kappa, n_adj=cfg.effective_n_adj()
    )
    _assert_parity(store, cfg.hmc, **args)


@pytest.mark.parametrize("variant", [SamplerVariant.HMC, SamplerVariant.RANDOM_WALK])
def test_lockstep_matches_per_chain_path_through_degenerate_retries(variant):
    store = degenerate_store()
    batch = _assert_parity(
        store, HmcConfig(variant=variant, rng_seed=7), k=1, delta=0.1, kappa=2.0, n_adj=2
    )
    stuck = [run.chain_index for run in batch.chains if set(run.pair.tolist()) == {0, 1}]
    assert len(stuck) == 2
    assert all(np.isnan(rec.h_init[stuck]).all() for rec in batch.rounds)
    assert any(not np.isnan(rec.h_init).all() for rec in batch.rounds)
