"""Class-conditional embedding buffers, EMA prototypes, and frozen snapshots.

An IdStore keeps, for each of C classes, a fixed-capacity FIFO buffer of
unit-norm embeddings plus one exponentially-averaged unit-norm prototype.
It is the write side only: ``snapshot()`` freezes its current state into
an IdSnapshot, the in-distribution prior every downstream component
queries.

Concurrency contract: one writer, readers hold immutable snapshots.
``insert``, ``insert_batch`` and ``update_prototype`` need exclusive access
to the store; an IdSnapshot shares no memory with it and every array it
holds is read-only, so any number of readers may query one concurrently
while the store keeps changing.

Serialization: ``save``/``load`` support two formats, chosen by file
extension. ``.json`` produces a plain JSON document. Any other extension
writes the columnar binary layout (all little-endian):

    magic   8 bytes  b"IDSTORE1"
    header  uint32 C, uint32 d, uint32 B, float64 gamma
    then for each class c = 0..C-1:
        uint32 n_c             number of buffered embeddings
        uint8  has_prototype   1 if the prototype is defined
        float64[d]             prototype coordinates (only if defined)
        float64[n_c * d]       buffer rows, row-major, oldest first
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AntipodalPrototypesError,
    BadArgError,
    BadClassError,
    CorruptStoreError,
    EmptyBufferError,
    NotUnitError,
    PrototypeUndefinedError,
)
from .sphere import normalize

UNIT_TOL = 1e-6  # accepted deviation of ||z|| from 1 on insert
ANTIPODAL_TOL = 1e-8

_MAGIC = b"IDSTORE1"


@dataclass(frozen=True)
class ClusterPair:
    """An unordered-in-meaning, ordered-in-storage pair of class ids."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise BadArgError(f"cluster pair needs two distinct classes, got ({self.u}, {self.v})")


def _check_class(class_id: int, num_classes: int) -> None:
    if not 0 <= class_id < num_classes:
        raise BadClassError(f"class id {class_id} outside [0, {num_classes})")


@dataclass(frozen=True, eq=False, repr=False)
class IdSnapshot:
    """Frozen state of an IdStore: the only object that answers queries.

    ``embeddings`` holds every buffered embedding in one (N, d) array,
    classes in order and oldest first within a class; class c owns rows
    ``offsets[c]:offsets[c + 1]``. ``prototypes`` is (C, d), with the rows
    where ``has_prototype`` is False left at zero. Every array is
    read-only, and the views handed out are too.
    """

    embeddings: np.ndarray
    offsets: np.ndarray
    prototypes: np.ndarray
    has_prototype: np.ndarray

    def __post_init__(self):
        for array in (self.embeddings, self.offsets, self.prototypes, self.has_prototype):
            array.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]

    def count(self, class_id: int) -> int:
        _check_class(class_id, self.num_classes)
        return int(self.offsets[class_id + 1] - self.offsets[class_id])

    def prototype(self, class_id: int) -> np.ndarray:
        _check_class(class_id, self.num_classes)
        if not self.has_prototype[class_id]:
            raise PrototypeUndefinedError(f"prototype of class {class_id} was never updated")
        return self.prototypes[class_id]

    def class_embeddings(self, class_id: int) -> np.ndarray:
        """Buffered embeddings of one class, oldest first (a read-only view)."""
        _check_class(class_id, self.num_classes)
        return self.embeddings[self.offsets[class_id] : self.offsets[class_id + 1]]

    def class_offsets(self) -> np.ndarray:
        """``offsets``; the FLOP counter in ``perfbench/layers.py`` reads it by this name."""
        return self.offsets

    def adjacent_clusters(self, class_id: int, n_adj: int) -> list[int]:
        """The n_adj classes whose prototypes are most cosine-similar to this one.

        Returned in descending similarity; ties broken by lower class id.
        """
        _check_class(class_id, self.num_classes)
        if not 1 <= n_adj <= self.num_classes - 1:
            raise BadArgError(f"n_adj={n_adj} outside [1, {self.num_classes - 1}]")
        missing = np.flatnonzero(~self.has_prototype).tolist()
        if missing:
            raise PrototypeUndefinedError(f"prototypes undefined for classes {missing}")
        cos = self.prototypes @ self.prototypes[class_id]
        others = np.array([c for c in range(self.num_classes) if c != class_id])
        order = np.lexsort((others, -cos[others]))
        return [int(others[i]) for i in order[:n_adj]]

    def midpoint(self, pair: ClusterPair) -> np.ndarray:
        """Normalized sum of the two prototypes of a cluster pair."""
        mu_u = self.prototype(pair.u)
        mu_v = self.prototype(pair.v)
        s = mu_u + mu_v
        if np.linalg.norm(s) < ANTIPODAL_TOL:
            raise AntipodalPrototypesError(
                f"prototypes of classes {pair.u} and {pair.v} are antipodal"
            )
        return normalize(s)


class IdStore:
    """Per-class FIFO embedding buffers with EMA prototypes (the write side)."""

    def __init__(self, num_classes: int, dim: int, capacity: int, ema_factor: float = 0.95):
        if num_classes < 2:
            raise BadArgError(f"need at least 2 classes, got {num_classes}")
        if dim < 2:
            raise BadArgError(f"need dimension >= 2, got {dim}")
        if capacity < 1:
            raise BadArgError(f"need capacity >= 1, got {capacity}")
        if not 0.0 < ema_factor < 1.0:
            raise BadArgError(f"ema_factor must lie in (0, 1), got {ema_factor}")
        self.num_classes = num_classes
        self.dim = dim
        self.capacity = capacity
        self.ema_factor = ema_factor
        self._bufs = [np.empty((0, dim)) for _ in range(num_classes)]  # oldest row first
        self._protos = np.zeros((num_classes, dim))
        self._has_proto = [False] * num_classes

    def insert(self, class_id: int, z: np.ndarray) -> None:
        """Append z to the class buffer, evicting the oldest entry when full."""
        _check_class(class_id, self.num_classes)
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise BadArgError(f"embedding shape {z.shape} does not match dim {self.dim}")
        self.insert_batch(z[None, :], [class_id])

    def insert_batch(self, embeddings: np.ndarray, labels: np.ndarray) -> None:
        """Append rows to their classes' buffers, in order, as repeated ``insert`` would.

        Every row is validated before any is stored, so a bad row leaves the
        store unchanged. Each class's buffer is then replaced by its newest
        ``capacity`` rows, old and new together.
        """
        embeddings = np.asarray(embeddings, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if embeddings.ndim != 2 or embeddings.shape[1] != self.dim:
            raise BadArgError(f"embeddings shape {embeddings.shape} does not match dim {self.dim}")
        if labels.shape != (embeddings.shape[0],):
            raise BadArgError(f"{labels.shape} labels for {embeddings.shape[0]} embeddings")
        classes = np.unique(labels).tolist()
        for c in classes:
            _check_class(c, self.num_classes)
        finite = np.isfinite(embeddings).all(axis=1)
        if not finite.all():
            raise NotUnitError(f"embedding {np.flatnonzero(~finite)[0]} has non-finite entries")
        deviation = np.abs(np.linalg.norm(embeddings, axis=1) - 1.0)
        if np.any(deviation > UNIT_TOL):
            i = int(np.argmax(deviation > UNIT_TOL))
            norm = np.linalg.norm(embeddings[i])
            raise NotUnitError(f"embedding {i} norm {norm:.8f} deviates from 1")
        for c in classes:
            new = embeddings[labels == c][-self.capacity :]
            old = self._bufs[c]
            kept = old[max(0, len(old) + len(new) - self.capacity) :]  # a slice, not a copy
            self._bufs[c] = np.concatenate([kept, new])

    def update_prototype(self, class_id: int, batch_mean: np.ndarray) -> None:
        """EMA-blend the prototype with a batch mean and re-normalize.

        First call defines the prototype directly as normalize(batch_mean).
        """
        _check_class(class_id, self.num_classes)
        if len(self._bufs[class_id]) == 0:
            raise EmptyBufferError(f"class {class_id} has no embeddings yet")
        batch_mean = np.asarray(batch_mean, dtype=float)
        if self._has_proto[class_id]:
            g = self.ema_factor
            blended = g * self._protos[class_id] + (1.0 - g) * batch_mean
        else:
            blended = batch_mean
        self._protos[class_id] = normalize(blended)
        self._has_proto[class_id] = True

    def snapshot(self) -> IdSnapshot:
        """Freeze the current state: every buffer copied once, oldest row first."""
        return IdSnapshot(
            np.concatenate(self._bufs),
            np.concatenate([[0], np.cumsum([len(buf) for buf in self._bufs])]),
            self._protos.copy(),
            np.array(self._has_proto),
        )

    # -- io ----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        path = Path(path)
        snap = self.snapshot()
        if path.suffix == ".json":
            doc = {
                "num_classes": self.num_classes,
                "dim": self.dim,
                "capacity": self.capacity,
                "ema_factor": self.ema_factor,
                "classes": [
                    {
                        "prototype": snap.prototypes[c].tolist() if snap.has_prototype[c] else None,
                        "buffer": snap.class_embeddings(c).tolist(),
                    }
                    for c in range(self.num_classes)
                ],
            }
            path.write_text(json.dumps(doc))
            return
        chunks = [
            _MAGIC,
            struct.pack("<IIId", self.num_classes, self.dim, self.capacity, self.ema_factor),
        ]
        for c in range(self.num_classes):
            emb = snap.class_embeddings(c)
            chunks.append(struct.pack("<IB", emb.shape[0], int(snap.has_prototype[c])))
            if snap.has_prototype[c]:
                chunks.append(snap.prototypes[c].tobytes())
            chunks.append(emb.tobytes())
        path.write_bytes(b"".join(chunks))

    @classmethod
    def load(cls, path: str | Path) -> "IdStore":
        """Read a store written by ``save``; a file that is not one raises CorruptStoreError.

        The header must be one the constructor accepts, a JSON file must
        list exactly ``num_classes`` classes, and every prototype must be a
        finite unit vector of dimension d, as ``update_prototype`` leaves it.
        """
        path = Path(path)
        try:
            return cls._read(path)
        except (  # JSONDecodeError is a ValueError; BadArgError is a header the store rejects
            OSError, KeyError, TypeError, ValueError, struct.error,
            BadArgError, NotUnitError, CorruptStoreError,
        ) as err:
            raise CorruptStoreError(f"cannot read id-store file {path}: {err}") from err

    @classmethod
    def _read(cls, path: Path) -> "IdStore":
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            store = cls(doc["num_classes"], doc["dim"], doc["capacity"], doc["ema_factor"])
            if len(doc["classes"]) != store.num_classes:
                raise CorruptStoreError(
                    f"{len(doc['classes'])} classes listed for a header of {store.num_classes}"
                )
            for c, entry in enumerate(doc["classes"]):
                rows = np.asarray(entry["buffer"], dtype=float).reshape(-1, store.dim)
                store._load_class(c, rows)
                if entry["prototype"] is not None:
                    store._load_prototype(c, np.asarray(entry["prototype"], dtype=float))
            return store
        raw = path.read_bytes()
        if raw[: len(_MAGIC)] != _MAGIC:
            raise CorruptStoreError("not an id-store file")
        off = len(_MAGIC)
        num_classes, dim, capacity, gamma = struct.unpack_from("<IIId", raw, off)
        off += struct.calcsize("<IIId")
        store = cls(num_classes, dim, capacity, gamma)
        for c in range(num_classes):
            n_c, has_proto = struct.unpack_from("<IB", raw, off)
            off += struct.calcsize("<IB")
            if has_proto:
                store._load_prototype(c, np.frombuffer(raw, dtype="<f8", count=dim, offset=off))
                off += dim * 8
            rows = np.frombuffer(raw, dtype="<f8", count=n_c * dim, offset=off)
            off += n_c * dim * 8
            store._load_class(c, rows.reshape(n_c, dim))
        if off != len(raw):
            raise CorruptStoreError(f"{len(raw) - off} bytes after the last class")
        return store

    def _load_class(self, class_id: int, rows: np.ndarray) -> None:
        if rows.shape[0] > self.capacity:
            raise CorruptStoreError(
                f"class {class_id} holds {rows.shape[0]} rows, over the capacity {self.capacity}"
            )
        self.insert_batch(rows, np.full(rows.shape[0], class_id))

    def _load_prototype(self, class_id: int, proto: np.ndarray) -> None:
        if (
            proto.shape != (self.dim,)
            or not np.isfinite(proto).all()
            or abs(np.linalg.norm(proto) - 1.0) > UNIT_TOL
        ):
            raise CorruptStoreError(
                f"prototype of class {class_id} is not a finite unit vector of dimension {self.dim}"
            )
        self._protos[class_id] = proto
        self._has_proto[class_id] = True
