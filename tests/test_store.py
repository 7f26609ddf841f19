import dataclasses
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import class_rows, cluster_store
from oodsynth.errors import (
    BadArgError,
    BadClassError,
    InsufficientDataError,
    NotUnitError,
    PrototypeUndefinedError,
)
from oodsynth.metrics import kth_neighbors
from oodsynth.sphere import normalize
from oodsynth.store import (
    ANTIPODAL_TOL,
    MAX_CLASSES,
    MAX_DIM,
    MAX_PROTOTYPE_ENTRIES,
    IdStore,
    _midpoints,
    _read_exactly,
)


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
    emb = class_rows(store.snapshot(), class_id)
    dist, idx = kth_neighbors(emb, z[None, :], k)
    return float(dist[0]), emb[idx[0]]


# -- insertion and eviction ---------------------------------------------------


def test_insert_into_empty_buffer():
    store = IdStore(2, 3, capacity=2)
    z = unit([1, 1, 0])
    store.insert(0, z)
    snap = store.snapshot()
    assert snap.count(0) == 1
    assert np.array_equal(class_rows(snap, 0)[0], z)


def test_fifo_eviction_keeps_last_two_in_order():
    store = IdStore(2, 2, capacity=2)
    a, b, c = unit([1, 0]), unit([0, 1]), unit([1, 1])
    for z in (a, b, c):
        store.insert(0, z)
    emb = class_rows(store.snapshot(), 0)
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
    assert np.array_equal(class_rows(store.snapshot(), 1), np.stack(inserted[-cap:]))


def test_insert_errors():
    store = IdStore(2, 3, capacity=4)
    with pytest.raises(BadClassError):
        store.insert(2, unit([1, 0, 0]))
    with pytest.raises(NotUnitError):
        store.insert(0, np.array([1.0, 1.0, 0.0]))  # norm sqrt(2)
    # a 3-D array, a block or row of the wrong width, a scalar
    for rows in (np.ones((1, 1, 3)) / np.sqrt(3), np.eye(4)[:2], np.eye(2)[0], np.float64(1.0)):
        with pytest.raises(BadArgError):
            store.insert(0, rows)
    assert store.snapshot().count(0) == 0


def test_dimension_is_bounded_by_max_dim():
    # an IDSTORE1 header's d sizes the prototypes before any row is read
    assert IdStore(2, MAX_DIM, capacity=1).snapshot().prototypes.shape == (2, MAX_DIM)
    with pytest.raises(BadArgError, match="dimension"):
        IdStore(2, MAX_DIM + 1, capacity=1)


def test_class_count_times_dimension_is_bounded():
    # 5-byte empty class records let a small header name many classes
    dim = MAX_PROTOTYPE_ENTRIES // 16
    assert IdStore(16, dim, capacity=1).snapshot().prototypes.shape == (16, dim)
    with pytest.raises(BadArgError, match="classes"):
        IdStore(17, dim, capacity=1)


def test_class_count_is_bounded_by_max_classes():
    # the C x d bound alone leaves C = 2**19 at d = 2
    assert IdStore(MAX_CLASSES, 2, capacity=1).snapshot().prototypes.shape == (MAX_CLASSES, 2)
    with pytest.raises(BadArgError, match="classes"):
        IdStore(MAX_CLASSES + 1, 2, capacity=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_insert_rejects_non_finite_embeddings(bad):
    # abs(nan - 1) > tol is False, so a unit-norm check alone lets NaN through
    store = IdStore(2, 3, capacity=4)
    with pytest.raises(NotUnitError):
        store.insert(0, np.array([bad, 0.0, 0.0]))
    assert store.snapshot().count(0) == 0


def test_insert_with_a_bad_row_leaves_the_store_unchanged():
    store = IdStore(2, 3, capacity=4)
    store.insert(1, unit([0, 1, 0]))
    rows = np.array([unit([1, 0, 0]), unit([0, 0, 1]), [np.nan, 0.0, 0.0]])
    for c in range(2):
        with pytest.raises(NotUnitError):
            store.insert(c, rows)
    with pytest.raises(BadClassError):
        store.insert(2, rows[:2])
    snap = store.snapshot()
    assert (snap.count(0), snap.count(1)) == (0, 1)
    assert np.array_equal(class_rows(snap, 1), [unit([0, 1, 0])])


def test_insert_takes_a_block_or_one_row():
    store = IdStore(2, 3, capacity=4)
    block = np.array([unit([1, 0, 0]), unit([0, 1, 0]), unit([0, 0, 1])])
    store.insert(0, block)
    store.insert(0, unit([1, 1, 0]))
    want = np.concatenate([block, [unit([1, 1, 0])]])
    block[0] = unit([1, 1, 1])  # the store keeps its own copy
    assert np.array_equal(class_rows(store.snapshot(), 0), want)


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
        for c in range(2):
            by_block.insert(c, rows[labels == c])
        for z, label in zip(rows, labels):
            by_row.insert(int(label), z)
    block_snap, row_snap = by_block.snapshot(), by_row.snapshot()
    for c in range(2):
        assert block_snap.count(c) == row_snap.count(c)
        assert np.array_equal(class_rows(block_snap, c), class_rows(row_snap, c))
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
    assert np.allclose(store.snapshot().prototypes[0], [1, 0, 0], atol=1e-12)


def test_prototype_fixed_point():
    store = IdStore(2, 3, capacity=4, ema_factor=0.95)
    e1 = np.array([1.0, 0.0, 0.0])
    store.insert(0, e1)
    store.update_prototype(0, e1)
    store.update_prototype(0, e1)
    assert np.allclose(store.snapshot().prototypes[0], e1, atol=1e-12)


def test_prototype_symmetric_blend():
    store = IdStore(2, 3, capacity=4, ema_factor=0.5)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    store.insert(0, e1)
    store.update_prototype(0, e1)
    store.update_prototype(0, e2)
    assert np.allclose(
        store.snapshot().prototypes[0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0], atol=1e-12
    )


@pytest.mark.parametrize(
    "bad", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], ids=["nan", "inf", "d+1"]
)
def test_update_prototype_rejects_a_mean_that_is_not_a_finite_d_vector(bad):
    store = IdStore(2, 3, capacity=4)
    store.insert(0, unit([1, 0, 0]))
    store.insert(1, unit([0, 1, 0]))
    store.update_prototype(1, np.array([0.0, 1.0, 0.0]))
    for c in range(2):
        with pytest.raises(BadArgError):
            store.update_prototype(c, np.array(bad))
    snap = store.snapshot()
    assert snap.has_prototype.tolist() == [False, True]
    assert np.array_equal(snap.prototypes, [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


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
    emb = class_rows(store.snapshot(), 0)
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
    emb = class_rows(store.snapshot(), 0)
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
    assert store.adjacency(1)[0].tolist() == [1]
    assert store.adjacency(1)[1].tolist() == [0]
    assert store.adjacency(1).shape == (2, 1)


def test_adjacency_forced_ordering():
    store = IdStore(3, 3, capacity=2)
    protos = [np.eye(3)[0], np.eye(3)[1], -np.eye(3)[0]]
    for c, mu in enumerate(protos):
        store.insert(c, unit(mu))
        store.update_prototype(c, mu)
    snap = store.snapshot()
    assert snap.adjacency(1)[0].tolist() == [1]  # cos 0 beats cos -1
    assert snap.adjacency(2)[0].tolist() == [1, 2]


def test_adjacency_matches_brute_force():
    store = cluster_store(num_classes=10, dim=6, n_per_class=5, seed=4).snapshot()
    protos = store.prototypes
    for c in range(10):
        got = store.adjacency(4)[c].tolist()
        cos = protos @ protos[c]
        want = sorted((j for j in range(10) if j != c), key=lambda j: (-cos[j], j))[:4]
        assert got == want


def test_adjacency_is_cosine_descending():
    store = cluster_store(num_classes=8, dim=5, n_per_class=4, seed=9).snapshot()
    protos = store.prototypes
    order = store.adjacency(7)[3]
    cos = [protos[j] @ protos[3] for j in order]
    assert all(a >= b for a, b in zip(cos, cos[1:]))


def test_adjacency_bad_arg():
    store = cluster_store(num_classes=3).snapshot()
    with pytest.raises(BadArgError):
        store.adjacency(3)
    with pytest.raises(BadArgError):
        store.adjacency(0)
    partial = IdStore(3, 3, capacity=2)
    for c in range(3):
        partial.insert(c, np.eye(3)[c])
    partial.update_prototype(0, np.eye(3)[0])
    with pytest.raises(PrototypeUndefinedError, match=r"\[1, 2\]"):
        partial.snapshot().adjacency(1)


def prototype_store(prototypes) -> IdStore:
    """One row per class, each class's prototype set to the given vector."""
    prototypes = np.asarray(prototypes, dtype=float)
    store = IdStore(len(prototypes), prototypes.shape[1], capacity=1)
    for c, mu in enumerate(prototypes):
        store.insert(c, unit(mu))
        store.update_prototype(c, mu)
    return store


def lexsort_adjacency(snap, n_adj):
    """Per-class oracle: one matvec per class, then a lexsort on (-cos, class id)."""
    rows = []
    for c in range(snap.num_classes):
        cos = snap.prototypes @ snap.prototypes[c]
        others = np.array([j for j in range(snap.num_classes) if j != c])
        rows.append(others[np.lexsort((others, -cos[others]))][:n_adj])
    return np.array(rows)


_TIED_PROTOTYPES = {
    # every cosine 0 or -1: the order is the class ids, past the negation
    "axis-aligned": np.concatenate([np.eye(4), -np.eye(4)]),
    # classes 0, 2 and 5 share one prototype: cosine 1 ties
    "duplicated": np.eye(5)[[0, 1, 0, 2, 3, 0, 4]] + 0.5,
    # each prototype and its negation, in shuffled order
    "negated": np.random.default_rng(1).standard_normal((4, 6))[[0, 1, 2, 3, 0, 1, 2, 3]]
    * np.array([1, 1, -1, 1, -1, -1, 1, -1])[:, None],
}


@pytest.mark.parametrize("case", list(_TIED_PROTOTYPES))
def test_adjacency_equals_the_per_class_lexsort_on_planted_ties(case):
    snap = prototype_store(_TIED_PROTOTYPES[case]).snapshot()
    for n_adj in range(1, snap.num_classes):
        got = snap.adjacency(n_adj)
        assert got.shape == (snap.num_classes, n_adj)
        assert (got == lexsort_adjacency(snap, n_adj)).all(), n_adj


def test_pair_table_lists_pairs_by_class_and_rank_with_their_midpoints():
    snap = prototype_store(_TIED_PROTOTYPES["negated"]).snapshot()
    n_adj = 7
    pairs, midpoints, antipodal = snap.pair_table(n_adj)
    adjacency = snap.adjacency(n_adj)
    assert pairs.tolist() == [[c, j] for c in range(8) for j in adjacency[c].tolist()]
    assert antipodal.tolist() == [
        bool(np.all(snap.prototypes[u] == -snap.prototypes[v])) for u, v in pairs.tolist()
    ]
    assert antipodal.sum() == 8  # each class against its negation
    for (u, v), midpoint, skip in zip(pairs.tolist(), midpoints, antipodal):
        if skip:
            assert np.isnan(midpoint).all()
        else:  # the bits of a 1-D normalize of the prototype sum
            assert np.array_equal(midpoint, normalize(snap.prototypes[u] + snap.prototypes[v]))


@pytest.mark.parametrize("dim", [2, 3, 16, 128])
def test_midpoints_agree_with_the_blas_row_norms_to_a_few_ulps(dim):
    # each row's norm as first written: a 1-D np.linalg.norm, whose BLAS dot rounds per kernel
    rng = np.random.default_rng(dim)
    mu_u, mu_v = (normalize(rng.standard_normal((40, dim))) for _ in range(2))
    mu_v[0] = -mu_u[0]
    got, antipodal = _midpoints(mu_u, mu_v)
    sums = mu_u + mu_v
    norms = np.array([np.linalg.norm(row) for row in sums])
    assert antipodal.tolist() == (norms < ANTIPODAL_TOL).tolist() == [True] + [False] * 39
    assert np.isnan(got[0]).all()
    assert np.abs(got[1:] - sums[1:] / norms[1:, None]).max() <= 4 * np.finfo(float).eps


def test_midpoint_identical_prototypes():
    store = IdStore(2, 3, capacity=2)
    e1 = np.eye(3)[0]
    for c in range(2):
        store.insert(c, e1)
        store.update_prototype(c, e1)
    assert np.allclose(store.snapshot().pair_table(1)[1], [e1, e1], atol=1e-12)


def test_midpoint_symmetric():
    store = IdStore(2, 3, capacity=2)
    for c, mu in enumerate(np.eye(3)[:2]):
        store.insert(c, mu)
        store.update_prototype(c, mu)
    pairs, midpoints, _ = store.snapshot().pair_table(1)
    assert pairs.tolist() == [[0, 1], [1, 0]]
    assert np.allclose(midpoints, [[1 / np.sqrt(2), 1 / np.sqrt(2), 0]] * 2, atol=1e-12)


# -- snapshots and serialization ----------------------------------------------


def generated_and_loaded(store: IdStore, tmp_path) -> dict[str, IdStore]:
    """The store itself and its copy after ``save`` and ``load``, whose snapshots share its rows."""
    path = tmp_path / "copy.idstore"
    store.save(path)
    return {"generated": store, "loaded": IdStore.load(path)}


def test_snapshot_is_independent(small_store, tmp_path):
    for kind, store in generated_and_loaded(small_store, tmp_path).items():
        snap = store.snapshot()
        before = class_rows(snap, 0).copy()
        store.insert(0, unit(np.ones(store.dim)))
        store.update_prototype(0, np.ones(store.dim))
        assert np.array_equal(class_rows(snap, 0), before), kind
        # nothing a snapshot hands out can be written through
        for name, array in [
            ("embeddings", snap.embeddings),
            ("prototypes", snap.prototypes),
            ("offsets", snap.offsets),
            ("has_prototype", snap.has_prototype),
        ]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
            assert not array.flags.writeable, (kind, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.embeddings = before
        assert np.array_equal(class_rows(snap, 0), before), kind


def test_snapshot_squared_norms_are_its_own_read_only_copy(small_store, tmp_path):
    for kind, store in generated_and_loaded(small_store, tmp_path).items():
        snap = store.snapshot()
        want = np.einsum("ij,ij->i", snap.embeddings, snap.embeddings)
        assert snap.sq_norms.shape == (snap.embeddings.shape[0],), kind
        assert np.array_equal(snap.sq_norms, want), kind
        with pytest.raises(ValueError, match="read-only"):
            snap.sq_norms[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.sq_norms = want
        for array in (snap.embeddings, *store._bufs):
            assert not np.shares_memory(snap.sq_norms, array), kind
        store.insert(0, np.tile(unit(np.ones(store.dim)), (5, 1)))
        assert np.array_equal(snap.sq_norms, want), kind


def test_a_loaded_store_shares_only_read_only_rows_until_the_first_insert(small_store, tmp_path):
    loaded = generated_and_loaded(small_store, tmp_path)["loaded"]
    snap = loaded.snapshot()
    assert snap.embeddings.flags.c_contiguous
    assert np.array_equal(snap.embeddings, small_store.snapshot().embeddings)
    for buf in loaded._bufs:  # each class array is a read-only slice of the snapshot's rows
        assert np.shares_memory(buf, snap.embeddings) and not buf.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            buf[0] = 0
    assert loaded.snapshot().embeddings is snap.embeddings
    loaded.update_prototype(1, np.ones(loaded.dim))  # writes no row
    assert loaded.snapshot().embeddings is snap.embeddings
    row = unit(np.ones(loaded.dim))
    loaded.insert(1, row)
    after = loaded.snapshot()
    assert not np.shares_memory(after.embeddings, snap.embeddings)
    assert np.array_equal(class_rows(after, 1)[-1], row)
    assert np.array_equal(class_rows(after, 0), class_rows(snap, 0))


def test_load_and_snapshot_copy_the_rows_about_once(tmp_path):
    # the rows are read into the one buffer the snapshot holds: no file-sized
    # bytes, no per-class concatenation and no second copy in snapshot()
    store = cluster_store(num_classes=10, dim=128, n_per_class=1000, seed=6)
    path = tmp_path / "c10.idstore"
    store.save(path)
    rows_bytes = 10_000 * 128 * 8
    del store
    tracemalloc.start()
    try:
        snap = IdStore.load(path).snapshot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert snap.embeddings.nbytes == rows_bytes
    assert peak < 1.25 * rows_bytes


def wrapped_store() -> IdStore:
    """Capacity-5 buffers, one overfilled, one prototype left undefined."""
    rng = np.random.default_rng(3)
    store = IdStore(3, 4, capacity=5, ema_factor=0.9)
    for c, n in enumerate((13, 5, 2)):
        rows = rng.standard_normal((n, 4))
        store.insert(c, rows / np.linalg.norm(rows, axis=1, keepdims=True))
    store.update_prototype(0, np.ones(4))
    store.update_prototype(2, -np.ones(4))
    return store


@pytest.mark.parametrize("suffix", [".idstore"])
def test_load_rejects_corrupt_files(tmp_path, suffix):
    from oodsynth.errors import CorruptStoreError

    path = tmp_path / f"bad{suffix}"
    path.write_bytes(b"garbage bytes")
    with pytest.raises(CorruptStoreError, match="IDSTORE1"):
        IdStore.load(path)


@pytest.mark.parametrize("suffix", [".idstore"])
def test_load_rejects_rows_over_capacity(tmp_path, small_store, suffix):
    # a FIFO insert would silently evict the oldest rows
    from oodsynth.errors import CorruptStoreError

    path = tmp_path / f"store{suffix}"
    small_store.save(path)
    raw = bytearray(path.read_bytes())
    # header: magic, then uint32 C, uint32 d, uint32 B at byte 16
    struct.pack_into("<I", raw, 16, small_store.capacity - 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptStoreError, match="capacity"):
        IdStore.load(path)


def test_save_refuses_a_json_path_and_load_reads_no_json(tmp_path, small_store):
    from oodsynth.errors import CorruptStoreError

    path = tmp_path / "store.json"
    with pytest.raises(BadArgError, match="IDSTORE1"):
        small_store.save(path)
    assert not path.exists()
    path.write_text(json.dumps({"num_classes": 3, "dim": 8, "capacity": 40, "ema_factor": 0.95}))
    with pytest.raises(CorruptStoreError, match="IDSTORE1"):
        IdStore.load(path)


def test_load_rejects_trailing_bytes(tmp_path, small_store):
    from oodsynth.errors import CorruptStoreError

    path = tmp_path / "store.idstore"
    small_store.save(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CorruptStoreError, match="after the last class"):
        IdStore.load(path)


def test_a_short_read_is_a_corrupt_store():
    from oodsynth.errors import CorruptStoreError

    with pytest.raises(CorruptStoreError, match="read 8 of 16 bytes"):
        _read_exactly(io.BytesIO(bytes(8)), np.empty(2))


def test_load_names_a_missing_path(tmp_path):
    from oodsynth.errors import CorruptStoreError

    for name in ("missing.idstore", "missing.json"):
        with pytest.raises(CorruptStoreError, match=name):
            IdStore.load(tmp_path / name)


def _joined_bytes(store: IdStore) -> bytes:
    """The IDSTORE1 bytes as first written: every record joined, then written at once."""
    chunks = [
        b"IDSTORE1",
        struct.pack("<IIId", store.num_classes, store.dim, store.capacity, store.ema_factor),
    ]
    snap = store.snapshot()
    for c in range(store.num_classes):
        rows = class_rows(snap, c)
        chunks.append(struct.pack("<IB", len(rows), int(snap.has_prototype[c])))
        if snap.has_prototype[c]:
            chunks.append(snap.prototypes[c].tobytes())
        chunks.append(rows.tobytes())
    return b"".join(chunks)


def sparse_store() -> IdStore:
    """Class 0 stocked, class 1 with rows but no prototype, class 2 with no rows."""
    store = cluster_store(num_classes=3, dim=5, n_per_class=7, seed=4)
    sparse = IdStore(3, 5, capacity=7, ema_factor=0.95)
    sparse.insert(0, class_rows(store.snapshot(), 0))
    sparse.update_prototype(0, np.ones(5))
    sparse.insert(1, class_rows(store.snapshot(), 1))
    return sparse


def test_save_writes_the_joined_record_bytes(tmp_path):
    from oodsynth.bench import BenchConfig, generate_synthetic_id

    stores = {
        "stock": generate_synthetic_id(BenchConfig()),
        "d2": cluster_store(num_classes=4, dim=2, n_per_class=9, seed=5),
        "sparse": sparse_store(),
        "wrapped": wrapped_store(),
    }
    for name, store in stores.items():
        path = tmp_path / f"{name}.idstore"
        store.save(path)
        assert path.read_bytes() == _joined_bytes(store), name
        loaded = IdStore.load(path).snapshot()
        assert np.array_equal(loaded.embeddings, store.snapshot().embeddings), name
        assert np.array_equal(loaded.has_prototype, store.snapshot().has_prototype), name


@pytest.mark.parametrize("suffix", [".idstore"])
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
