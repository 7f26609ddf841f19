import dataclasses
import json
import struct

import numpy as np
import pytest

from conftest import cluster_store
from oodsynth.errors import (
    AntipodalPrototypesError,
    BadArgError,
    BadClassError,
    InsufficientDataError,
    NotUnitError,
    PrototypeUndefinedError,
)
from oodsynth.metrics import kth_neighbors
from oodsynth.sphere import normalize
from oodsynth.store import ClusterPair, IdStore


def unit(v):
    return normalize(np.asarray(v, dtype=float))


def brute_force_knn(embeddings: np.ndarray, z: np.ndarray, k: int) -> tuple[float, int]:
    """Exhaustive sort-based oracle; ties broken by lower insertion index."""
    dists = np.linalg.norm(embeddings - z, axis=1)
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    idx = order[k - 1]
    return float(dists[idx]), idx


def class_kth_neighbor(store: IdStore, class_id: int, z: np.ndarray, k: int):
    """(distance, neighbor) of z's k-th neighbor in one class of the store's snapshot."""
    emb = store.snapshot().class_embeddings(class_id)
    dist, idx = kth_neighbors(emb, z[None, :], k)
    return float(dist[0]), emb[idx[0]]


# -- insertion and eviction ---------------------------------------------------


def test_insert_into_empty_buffer():
    store = IdStore(2, 3, capacity=2)
    z = unit([1, 1, 0])
    store.insert(0, z)
    snap = store.snapshot()
    assert snap.count(0) == 1
    assert np.array_equal(snap.class_embeddings(0)[0], z)


def test_fifo_eviction_keeps_last_two_in_order():
    store = IdStore(2, 2, capacity=2)
    a, b, c = unit([1, 0]), unit([0, 1]), unit([1, 1])
    for z in (a, b, c):
        store.insert(0, z)
    emb = store.snapshot().class_embeddings(0)
    assert np.array_equal(emb, np.stack([b, c]))


def test_capacity_1000_holds_exactly_1000():
    store = IdStore(2, 4, capacity=1000)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        store.insert(0, unit(rng.standard_normal(4)))
    assert store.snapshot().count(0) == 1000


def test_eviction_preserves_most_recent_in_order():
    cap = 5
    store = IdStore(2, 3, capacity=cap)
    rng = np.random.default_rng(1)
    inserted = [unit(rng.standard_normal(3)) for _ in range(13)]
    for z in inserted:
        store.insert(1, z)
    assert np.array_equal(store.snapshot().class_embeddings(1), np.stack(inserted[-cap:]))


def test_insert_errors():
    store = IdStore(2, 3, capacity=4)
    with pytest.raises(BadClassError):
        store.insert(2, unit([1, 0, 0]))
    with pytest.raises(NotUnitError):
        store.insert(0, np.array([1.0, 1.0, 0.0]))  # norm sqrt(2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_insert_rejects_non_finite_embeddings(bad):
    # abs(nan - 1) > tol is False, so a unit-norm check alone lets NaN through
    store = IdStore(2, 3, capacity=4)
    with pytest.raises(NotUnitError):
        store.insert(0, np.array([bad, 0.0, 0.0]))
    assert store.snapshot().count(0) == 0


def test_insert_batch_with_a_bad_row_leaves_the_store_unchanged():
    store = IdStore(2, 3, capacity=4)
    store.insert(1, unit([0, 1, 0]))
    rows = np.array([unit([1, 0, 0]), unit([0, 0, 1]), [np.nan, 0.0, 0.0]])
    with pytest.raises(NotUnitError):
        store.insert_batch(rows, [0, 1, 0])
    with pytest.raises(BadClassError):
        store.insert_batch(rows[:2], [0, 2])
    snap = store.snapshot()
    assert (snap.count(0), snap.count(1)) == (0, 1)


@pytest.mark.parametrize("batches", [[3], [5], [7], [2, 3], [4, 13], [1, 2, 17, 1]])
def test_block_insert_equals_row_by_row_insert(tmp_path, batches):
    # capacity 5: below, at and over capacity, including batches over
    # capacity and batches that evict part of a full buffer
    rng = np.random.default_rng(sum(batches))
    by_block = IdStore(2, 4, capacity=5)
    by_row = IdStore(2, 4, capacity=5)
    for n in batches:
        rows = rng.standard_normal((n, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        labels = rng.integers(0, 2, size=n)
        by_block.insert_batch(rows, labels)
        for z, label in zip(rows, labels):
            by_row.insert(int(label), z)
    block_snap, row_snap = by_block.snapshot(), by_row.snapshot()
    for c in range(2):
        assert block_snap.count(c) == row_snap.count(c)
        assert np.array_equal(block_snap.class_embeddings(c), row_snap.class_embeddings(c))
        by_block.update_prototype(c, np.ones(4))
        by_row.update_prototype(c, np.ones(4))
    by_block.save(tmp_path / "block.idstore")
    by_row.save(tmp_path / "row.idstore")
    assert (tmp_path / "block.idstore").read_bytes() == (tmp_path / "row.idstore").read_bytes()


# -- prototypes ---------------------------------------------------------------


def test_prototype_first_update_normalizes_mean():
    store = IdStore(2, 3, capacity=4)
    store.insert(0, unit([1, 0, 0]))
    store.update_prototype(0, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(store.snapshot().prototype(0), [1, 0, 0], atol=1e-12)


def test_prototype_fixed_point():
    store = IdStore(2, 3, capacity=4, ema_factor=0.95)
    e1 = np.array([1.0, 0.0, 0.0])
    store.insert(0, e1)
    store.update_prototype(0, e1)
    store.update_prototype(0, e1)
    assert np.allclose(store.snapshot().prototype(0), e1, atol=1e-12)


def test_prototype_symmetric_blend():
    store = IdStore(2, 3, capacity=4, ema_factor=0.5)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    store.insert(0, e1)
    store.update_prototype(0, e1)
    store.update_prototype(0, e2)
    assert np.allclose(
        store.snapshot().prototype(0), [1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-12
    )


def test_prototype_undefined_raises():
    store = IdStore(2, 3, capacity=4)
    with pytest.raises(PrototypeUndefinedError):
        store.snapshot().prototype(0)


# -- kNN queries --------------------------------------------------------------


def test_knn_self_distance_zero():
    store = IdStore(2, 3, capacity=4)
    z = unit([1, 2, 3])
    store.insert(0, z)
    dist, neighbor = class_kth_neighbor(store, 0, z, 1)
    assert dist == 0.0
    assert np.array_equal(neighbor, z)


def test_knn_orthogonal_pair():
    store = IdStore(2, 3, capacity=4)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    store.insert(0, e1)
    store.insert(0, e2)
    dist, neighbor = class_kth_neighbor(store, 0, e1, 2)
    assert np.isclose(dist, np.sqrt(2), atol=1e-12)
    assert np.array_equal(neighbor, e2)


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    store = IdStore(2, 16, capacity=200)
    for _ in range(200):
        store.insert(0, unit(rng.standard_normal(16)))
    emb = store.snapshot().class_embeddings(0)
    for trial in range(20):
        z = unit(rng.standard_normal(16))
        k = int(rng.integers(1, 31))
        dist, neighbor = class_kth_neighbor(store, 0, z, k)
        want_dist, want_idx = brute_force_knn(emb, z, k)
        assert dist == want_dist
        assert np.array_equal(neighbor, emb[want_idx])


def test_knn_matches_oracle_at_two_thousand_entries():
    rng = np.random.default_rng(17)
    store = IdStore(2, 8, capacity=2000)
    for _ in range(2000):
        store.insert(0, unit(rng.standard_normal(8)))
    emb = store.snapshot().class_embeddings(0)
    for k in (1, 200, 1999, 2000):
        z = unit(rng.standard_normal(8))
        dist, neighbor = class_kth_neighbor(store, 0, z, k)
        want_dist, want_idx = brute_force_knn(emb, z, k)
        assert dist == want_dist
        assert np.array_equal(neighbor, emb[want_idx])


def test_knn_monotone_in_k():
    rng = np.random.default_rng(8)
    store = IdStore(2, 8, capacity=64)
    for _ in range(64):
        store.insert(0, unit(rng.standard_normal(8)))
    z = unit(rng.standard_normal(8))
    dists = [class_kth_neighbor(store, 0, z, k)[0] for k in range(1, 65)]
    assert all(d1 <= d2 for d1, d2 in zip(dists, dists[1:]))


def test_knn_tie_broken_by_insertion_order():
    store = IdStore(2, 2, capacity=4)
    first, second = np.array([0.0, 1.0]), np.array([0.0, -1.0])
    store.insert(0, first)
    store.insert(0, second)
    z = np.array([1.0, 0.0])  # equidistant from both
    _, n1 = class_kth_neighbor(store, 0, z, 1)
    _, n2 = class_kth_neighbor(store, 0, z, 2)
    assert np.array_equal(n1, first)
    assert np.array_equal(n2, second)


def test_knn_insufficient_data():
    store = IdStore(2, 3, capacity=4)
    store.insert(0, unit([1, 0, 0]))
    with pytest.raises(InsufficientDataError):
        class_kth_neighbor(store, 0, unit([0, 1, 0]), 2)


# -- adjacency and midpoints --------------------------------------------------


def test_adjacency_two_classes():
    store = cluster_store(num_classes=2).snapshot()
    assert store.adjacent_clusters(0, 1) == [1]
    assert store.adjacent_clusters(1, 1) == [0]


def test_adjacency_forced_ordering():
    store = IdStore(3, 3, capacity=2)
    protos = [np.eye(3)[0], np.eye(3)[1], -np.eye(3)[0]]
    for c, mu in enumerate(protos):
        store.insert(c, unit(mu))
        store.update_prototype(c, mu)
    snap = store.snapshot()
    assert snap.adjacent_clusters(0, 1) == [1]  # cos 0 beats cos -1
    assert snap.adjacent_clusters(0, 2) == [1, 2]


def test_adjacency_matches_brute_force():
    store = cluster_store(num_classes=10, dim=6, n_per_class=5, seed=4).snapshot()
    protos = np.array([store.prototype(c) for c in range(10)])
    for c in range(10):
        got = store.adjacent_clusters(c, 4)
        cos = protos @ protos[c]
        want = sorted((j for j in range(10) if j != c), key=lambda j: (-cos[j], j))[:4]
        assert got == want


def test_adjacency_is_cosine_descending():
    store = cluster_store(num_classes=8, dim=5, n_per_class=4, seed=9).snapshot()
    protos = np.array([store.prototype(c) for c in range(8)])
    order = store.adjacent_clusters(3, 7)
    cos = [protos[j] @ protos[3] for j in order]
    assert all(a >= b for a, b in zip(cos, cos[1:]))


def test_adjacency_bad_arg():
    store = cluster_store(num_classes=3).snapshot()
    with pytest.raises(BadArgError):
        store.adjacent_clusters(0, 3)
    with pytest.raises(BadArgError):
        store.adjacent_clusters(0, 0)


def test_midpoint_identical_prototypes():
    store = IdStore(2, 3, capacity=2)
    e1 = np.eye(3)[0]
    for c in range(2):
        store.insert(c, e1)
        store.update_prototype(c, e1)
    assert np.allclose(store.snapshot().midpoint(ClusterPair(0, 1)), e1, atol=1e-12)


def test_midpoint_symmetric():
    store = IdStore(2, 3, capacity=2)
    for c, mu in enumerate(np.eye(3)[:2]):
        store.insert(c, mu)
        store.update_prototype(c, mu)
    assert np.allclose(
        store.snapshot().midpoint(ClusterPair(0, 1)),
        [1 / np.sqrt(2), 1 / np.sqrt(2), 0],
        atol=1e-12,
    )


def test_midpoint_antipodal_raises():
    store = IdStore(2, 3, capacity=2)
    e1 = np.eye(3)[0]
    store.insert(0, e1)
    store.update_prototype(0, e1)
    store.insert(1, -e1)
    store.update_prototype(1, -e1)
    with pytest.raises(AntipodalPrototypesError):
        store.snapshot().midpoint(ClusterPair(0, 1))


def test_cluster_pair_validates():
    with pytest.raises(BadArgError):
        ClusterPair(1, 1)


# -- snapshots and serialization ----------------------------------------------


def test_snapshot_is_independent(small_store):
    snap = small_store.snapshot()
    before = snap.class_embeddings(0).copy()
    small_store.insert(0, unit(np.ones(small_store.dim)))
    small_store.update_prototype(0, np.ones(small_store.dim))
    assert np.array_equal(snap.class_embeddings(0), before)
    # nothing a snapshot hands out can be written through
    for name, array in [
        ("embeddings", snap.embeddings),
        ("class_embeddings", snap.class_embeddings(0)),
        ("prototypes", snap.prototypes),
        ("prototype", snap.prototype(0)),
        ("offsets", snap.offsets),
        ("has_prototype", snap.has_prototype),
    ]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
        assert not array.flags.writeable, name
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.embeddings = before
    assert np.array_equal(snap.class_embeddings(0), before)


def wrapped_store() -> IdStore:
    """Capacity-5 buffers, one overfilled, one prototype left undefined."""
    rng = np.random.default_rng(3)
    store = IdStore(3, 4, capacity=5, ema_factor=0.9)
    for c, n in enumerate((13, 5, 2)):
        rows = rng.standard_normal((n, 4))
        store.insert_batch(rows / np.linalg.norm(rows, axis=1, keepdims=True), np.full(n, c))
    store.update_prototype(0, np.ones(4))
    store.update_prototype(2, -np.ones(4))
    return store


@pytest.mark.parametrize("suffix", [".idstore", ".json"])
def test_load_rejects_corrupt_files(tmp_path, suffix):
    from oodsynth.errors import CorruptStoreError

    path = tmp_path / f"bad{suffix}"
    path.write_bytes(b"{not a store" if suffix == ".json" else b"garbage bytes")
    with pytest.raises(CorruptStoreError):
        IdStore.load(path)


@pytest.mark.parametrize("suffix", [".idstore", ".json"])
def test_load_rejects_rows_over_capacity(tmp_path, small_store, suffix):
    # a FIFO insert would silently evict the oldest rows
    from oodsynth.errors import CorruptStoreError

    path = tmp_path / f"store{suffix}"
    small_store.save(path)
    if suffix == ".json":
        doc = json.loads(path.read_text())
        doc["capacity"] -= 1
        path.write_text(json.dumps(doc))
    else:
        raw = bytearray(path.read_bytes())
        # header: magic, then uint32 C, uint32 d, uint32 B at byte 16
        struct.pack_into("<I", raw, 16, small_store.capacity - 1)
        path.write_bytes(bytes(raw))
    with pytest.raises(CorruptStoreError, match="capacity"):
        IdStore.load(path)


def test_load_rejects_trailing_bytes(tmp_path, small_store):
    from oodsynth.errors import CorruptStoreError

    path = tmp_path / "store.idstore"
    small_store.save(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CorruptStoreError, match="after the last class"):
        IdStore.load(path)


def test_load_names_a_missing_path(tmp_path):
    from oodsynth.errors import CorruptStoreError

    for name in ("missing.idstore", "missing.json"):
        with pytest.raises(CorruptStoreError, match=name):
            IdStore.load(tmp_path / name)


@pytest.mark.parametrize("suffix", [".idstore", ".json"])
def test_save_load_round_trip(tmp_path, suffix, small_store):
    for name, store in [("small", small_store), ("wrapped", wrapped_store())]:
        path = tmp_path / f"{name}{suffix}"
        store.save(path)
        loaded = IdStore.load(path)
        assert loaded.num_classes == store.num_classes
        assert loaded.dim == store.dim
        assert loaded.capacity == store.capacity
        assert loaded.ema_factor == store.ema_factor
        want, got = store.snapshot(), loaded.snapshot()
        for field in ("embeddings", "offsets", "prototypes", "has_prototype"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), (name, field)
        # the reloaded buffers also continue as the original's do
        row = unit(np.arange(1.0, store.dim + 1))
        store.insert(1, row)
        loaded.insert(1, row)
        assert np.array_equal(loaded.snapshot().embeddings, store.snapshot().embeddings), name
