import numpy as np
import pytest

from oodsynth.sphere import normalize
from oodsynth.store import IdSnapshot, IdStore


def cluster_store(
    num_classes: int = 3,
    dim: int = 8,
    n_per_class: int = 40,
    capacity: int | None = None,
    spread: float = 0.25,
    seed: int = 0,
    ema_factor: float = 0.95,
) -> IdStore:
    """Store filled with simple Gaussian-bump clusters around random unit centers."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    store = IdStore(num_classes, dim, capacity or n_per_class, ema_factor)
    for c in range(num_classes):
        pts = np.array(
            [normalize(centers[c] + spread * rng.standard_normal(dim)) for _ in range(n_per_class)]
        )
        store.insert(c, pts)
        store.update_prototype(c, pts.mean(axis=0))
    return store


def midpoint(snapshot: IdSnapshot, u: int, v: int) -> np.ndarray:
    """The chain start of pair (u, v): the bits of its row in ``pair_table``."""
    return normalize(snapshot.prototypes[u] + snapshot.prototypes[v])


def class_rows(snapshot: IdSnapshot, class_id: int) -> np.ndarray:
    """The buffered rows of one class, oldest first: a slice of ``embeddings``."""
    return snapshot.embeddings[snapshot.offsets[class_id] : snapshot.offsets[class_id + 1]]


def degenerate_store() -> IdSnapshot:
    """4 classes, d = 8, whose pair (0, 1) midpoint is buffered in classes 0 and 1.

    At k = 1 chains (0, 1) and (1, 0) started there sit on a neighbor of
    each class, and a chain of pair (0, 2) started there on a neighbor of
    class 0 alone: for every kernel each of them is degenerate.
    """
    store = cluster_store(num_classes=4, dim=8, n_per_class=30, capacity=31, seed=17)
    mid = midpoint(store.snapshot(), 0, 1)
    store.insert(0, mid)
    store.insert(1, mid)
    return store.snapshot()


@pytest.fixture
def small_store() -> IdStore:
    return cluster_store()


@pytest.fixture
def small_snapshot() -> IdSnapshot:
    return cluster_store().snapshot()
