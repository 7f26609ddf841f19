"""Class-conditional embedding buffers, EMA prototypes, and frozen snapshots.

An IdStore keeps, for each of C classes, a fixed-capacity FIFO buffer of
unit-norm embeddings plus one exponentially-averaged unit-norm prototype.
It is the write side only: ``snapshot()`` freezes its current state into
an IdSnapshot, the in-distribution prior every downstream component
queries.

Concurrency contract: one writer, readers hold immutable snapshots. The
two writes, ``insert`` (the one method that adds rows) and
``update_prototype``, need exclusive access to the store. An IdSnapshot
shares only read-only memory with it and every array it holds is
read-only, so any number of readers may query one concurrently while the
store keeps changing. The one memory shared is a loaded or generated
store's rows: ``from_rows`` (which ``load`` and
``bench.generate_synthetic_id`` build through) takes one read-only (N, d)
buffer whose slices are the class arrays, and ``snapshot()`` hands that
buffer out as its ``embeddings`` until the first ``insert``. The store
never writes a row array in place (``insert`` builds a new class array),
so the snapshot stays unchanged.

Serialization: ``save``/``load`` use one columnar binary format, IDSTORE1
(all little-endian); ``save`` refuses a path with a ``.json`` suffix:

    magic   8 bytes  b"IDSTORE1"
    header  uint32 C, uint32 d, uint32 B, float64 gamma
    then for each class c = 0..C-1:
        uint32 n_c             number of buffered embeddings
        uint8  has_prototype   1 if the prototype is defined
        float64[d]             prototype coordinates (only if defined)
        float64[n_c * d]       buffer rows, row-major, oldest first
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    BadArgError,
    BadClassError,
    CorruptStoreError,
    EmptyBufferError,
    NotUnitError,
    PrototypeUndefinedError,
)
from .sphere import normalize

UNIT_TOL = 1e-6  # accepted deviation of ||z|| from 1 on insert
# largest embedding dimension a store accepts: an IDSTORE1 header names d,
# and a store saved before any insert is valid, so this bound, not the file
# size, keeps a header from sizing C x d prototypes of any size
MAX_DIM = 2**16
# largest num_classes x dim a store accepts (8 MB of float64 prototypes): an
# empty class record is 5 bytes, so the file size does not bound C x d either;
# 228 bytes name C = 40 empty classes at d = MAX_DIM
MAX_PROTOTYPE_ENTRIES = 2**20
# largest class count a store accepts: room for ImageNet-1k's 1000 classes.
# Loading, pairing and the KDE loop over classes in Python, and a 2.6 MB file
# of 5-byte empty records names C = 2**19 within the C x d bound
MAX_CLASSES = 2**12
ANTIPODAL_TOL = 1e-8

_MAGIC = b"IDSTORE1"


def _check_class(class_id: int, num_classes: int) -> None:
    if not 0 <= class_id < num_classes:
        raise BadClassError(f"class id {class_id} outside [0, {num_classes})")


@dataclass(frozen=True, eq=False, repr=False)
class IdSnapshot:
    """Frozen state of an IdStore: the only object that answers queries.

    ``embeddings`` holds every buffered embedding in one (N, d) array,
    classes in order and oldest first within a class; class c owns rows
    ``offsets[c]:offsets[c + 1]``. ``prototypes`` is (C, d), with the rows
    where ``has_prototype`` is False left at zero. ``sq_norms`` is the
    (N,) squared norms of the ``embeddings`` rows, computed once here so
    that kNN queries need not. Every array is read-only, and the views
    handed out are too. ``embeddings`` may be a loaded store's own
    read-only row buffer (see the module docstring): a snapshot shares
    only read-only memory with its store.
    """

    embeddings: np.ndarray
    offsets: np.ndarray
    prototypes: np.ndarray
    has_prototype: np.ndarray
    sq_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "sq_norms", np.einsum("ij,ij->i", self.embeddings, self.embeddings)
        )
        for array in (
            self.embeddings, self.offsets, self.prototypes, self.has_prototype, self.sq_norms
        ):
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

    def class_offsets(self) -> np.ndarray:
        """``offsets``; the FLOP counter in ``perfbench/layers.py`` reads it by this name."""
        return self.offsets

    def adjacency(self, n_adj: int) -> np.ndarray:
        """(C, n_adj) class ids: row c lists the n_adj classes whose prototypes
        are most cosine-similar to class c's, in descending similarity, ties
        broken by lower class id.

        Per class, the row sums of the prototypes times its prototype: every
        cosine sums its d products in one order on any BLAS kernel, so exact
        ties stay exact (a GEMM rounds some of them differently). Then the
        diagonal is masked to -inf and one stable argsort orders every row.
        """
        if not 1 <= n_adj <= self.num_classes - 1:
            raise BadArgError(f"n_adj={n_adj} outside [1, {self.num_classes - 1}]")
        missing = np.flatnonzero(~self.has_prototype).tolist()
        if missing:
            raise PrototypeUndefinedError(f"prototypes undefined for classes {missing}")
        cos = np.array([(self.prototypes * mu).sum(axis=1) for mu in self.prototypes])
        np.fill_diagonal(cos, -np.inf)
        return np.argsort(-cos, axis=1, kind="stable")[:, :n_adj]

    def pair_table(self, n_adj: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (class, adjacent class) pair, its midpoint, and whether it is antipodal.

        Returns the (C * n_adj, 2) pairs, by class id and then adjacency
        rank (pair i is class i // n_adj and its rank i % n_adj neighbor),
        their (C * n_adj, d) midpoints, NaN where the pair is antipodal, and
        the (C * n_adj,) antipodal mask.
        """
        adjacent = self.adjacency(n_adj)
        pairs = np.stack([np.repeat(np.arange(self.num_classes), n_adj), adjacent.ravel()], axis=1)
        mu = self.prototypes
        midpoints, antipodal = _midpoints(mu[pairs[:, 0]], mu[pairs[:, 1]])
        return pairs, midpoints, antipodal


def _check_unit_rows(rows: np.ndarray) -> None:
    """Raise NotUnitError unless every row of an (n, d) array is finite and unit-norm.

    The norms come from one row-wise ``einsum``, which makes no (n, d)
    temporary; a NaN or inf entry gives a non-finite norm, and only then
    are the entries themselves tested.
    """
    with np.errstate(over="ignore"):  # an entry near float max has an inf norm: not unit
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if not np.isfinite(norms).all():
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise NotUnitError(f"embedding {np.flatnonzero(~finite)[0]} has non-finite entries")
    deviation = np.abs(norms - 1.0)
    if np.any(deviation > UNIT_TOL):
        i = int(np.argmax(deviation > UNIT_TOL))
        raise NotUnitError(f"embedding {i} norm {norms[i]:.8f} deviates from 1")


def _unpack(fh: BinaryIO, fmt: str) -> tuple:
    """The next ``fmt`` record of a file; one cut short raises struct.error."""
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def _read_exactly(fh: BinaryIO, array: np.ndarray) -> None:
    """Fill a C-contiguous array from the file's next bytes; a short read is corrupt."""
    want = array.nbytes
    got = fh.readinto(memoryview(array).cast("B")) if want else 0  # no cast of an empty view
    if got != want:
        raise CorruptStoreError(f"read {got} of {want} bytes")


def _midpoints(mu_u: np.ndarray, mu_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized row sums of two (n, d) prototype arrays, NaN where antipodal, and that mask."""
    sums = mu_u + mu_v
    norms = np.sqrt((sums * sums).sum(axis=1))
    antipodal = norms < ANTIPODAL_TOL
    return sums / np.where(antipodal, np.nan, norms)[:, None], antipodal


def _check_store_args(num_classes: int, dim: int, capacity: int, ema_factor: float) -> None:
    """Raise BadArgError unless ``IdStore`` accepts these arguments."""
    if not 2 <= num_classes <= MAX_CLASSES:
        raise BadArgError(f"number of classes must lie in [2, {MAX_CLASSES}], got {num_classes}")
    if not 2 <= dim <= MAX_DIM:
        raise BadArgError(f"dimension must lie in [2, {MAX_DIM}], got {dim}")
    if num_classes * dim > MAX_PROTOTYPE_ENTRIES:
        raise BadArgError(
            f"{num_classes} classes x dimension {dim} exceed {MAX_PROTOTYPE_ENTRIES} entries"
        )
    if capacity < 1:
        raise BadArgError(f"need capacity >= 1, got {capacity}")
    if not 0.0 < ema_factor < 1.0:
        raise BadArgError(f"ema_factor must lie in (0, 1), got {ema_factor}")


class IdStore:
    """Per-class FIFO embedding buffers with EMA prototypes (the write side)."""

    def __init__(self, num_classes: int, dim: int, capacity: int, ema_factor: float = 0.95):
        _check_store_args(num_classes, dim, capacity, ema_factor)
        self.num_classes = num_classes
        self.dim = dim
        self.capacity = capacity
        self.ema_factor = ema_factor
        self._bufs = [np.empty((0, dim)) for _ in range(num_classes)]  # oldest row first
        # the read-only (N, d) rows of ``from_rows``, whose slices are ``_bufs``:
        # the snapshot's embeddings until the first insert
        self._rows: np.ndarray | None = None
        self._protos = np.zeros((num_classes, dim))
        self._has_proto = [False] * num_classes

    def insert(self, class_id: int, rows: np.ndarray) -> None:
        """Append an (n, d) block or one (d,) row to a class buffer, oldest first.

        Every row is validated before any is stored, so a bad row leaves the
        store unchanged. The buffer then keeps its newest ``capacity`` rows,
        old and new together.
        """
        _check_class(class_id, self.num_classes)
        rows = np.asarray(rows, dtype=float)
        if rows.ndim not in (1, 2) or rows.shape[-1] != self.dim:
            raise BadArgError(f"embeddings shape {rows.shape} does not match dim {self.dim}")
        rows = rows.reshape(-1, self.dim)
        _check_unit_rows(rows)
        new = rows[-self.capacity :]
        old = self._bufs[class_id]
        kept = old[max(0, len(old) + len(new) - self.capacity) :]  # a slice, not a copy
        self._bufs[class_id] = np.concatenate([kept, new])
        self._rows = None

    @classmethod
    def from_rows(
        cls, rows: np.ndarray, counts, capacity: int, ema_factor: float = 0.95
    ) -> "IdStore":
        """A store whose class c holds the next ``counts[c]`` rows of one (N, d) buffer.

        ``rows`` must be a C-contiguous float64 array whose N rows are the
        classes in order, oldest first, each class's slice finite and
        unit-norm as ``insert`` checks it. The store takes the buffer
        itself: it marks it read-only, makes each class array a slice of
        it and hands it to ``snapshot()`` until the first ``insert``. No
        prototype is defined.
        """
        # dtype char "d": float64 of either byte order (``load`` reads little-endian)
        if rows.ndim != 2 or rows.dtype.char != "d" or not rows.flags.c_contiguous:
            raise BadArgError("rows must be one C-contiguous float64 (N, d) array")
        counts = [int(n) for n in counts]
        store = cls(len(counts), rows.shape[1], capacity, ema_factor)
        if sum(counts) != len(rows) or min(counts) < 0 or max(counts) > capacity:
            raise BadArgError(
                f"class counts {counts} must be at most {capacity} each and sum to {len(rows)} rows"
            )
        bounds = list(zip(np.cumsum([0] + counts[:-1]), np.cumsum(counts)))
        for a, b in bounds:
            _check_unit_rows(rows[a:b])
        rows.setflags(write=False)  # before slicing, so every class array is read-only
        store._bufs, store._rows = [rows[a:b] for a, b in bounds], rows
        return store

    def update_prototype(self, class_id: int, batch_mean: np.ndarray) -> None:
        """EMA-blend the prototype with a batch mean and re-normalize.

        First call defines the prototype directly as normalize(batch_mean).
        A batch mean that is not a finite (d,) vector is a BadArgError and
        leaves the prototype unchanged.
        """
        _check_class(class_id, self.num_classes)
        if len(self._bufs[class_id]) == 0:
            raise EmptyBufferError(f"class {class_id} has no embeddings yet")
        batch_mean = np.asarray(batch_mean, dtype=float)
        if batch_mean.shape != (self.dim,) or not np.isfinite(batch_mean).all():
            raise BadArgError(f"batch mean must be a finite vector of dimension {self.dim}")
        if self._has_proto[class_id]:
            g = self.ema_factor
            blended = g * self._protos[class_id] + (1.0 - g) * batch_mean
        else:
            blended = batch_mean
        self._protos[class_id] = normalize(blended)
        self._has_proto[class_id] = True

    def snapshot(self) -> IdSnapshot:
        """Freeze the current state: every buffer copied once, oldest row first.

        A store built by ``from_rows`` and not inserted into since hands out
        its read-only row buffer instead, which already holds the buffers in
        that order.
        """
        rows = self._rows
        return IdSnapshot(
            np.concatenate(self._bufs) if rows is None else rows,
            np.concatenate([[0], np.cumsum([len(buf) for buf in self._bufs])]),
            self._protos.copy(),
            np.array(self._has_proto),
        )

    # -- io ----------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the store in the binary IDSTORE1 format; a ``.json`` path is a BadArgError."""
        path = Path(path)
        if path.suffix == ".json":
            raise BadArgError(f"id-store files use the binary IDSTORE1 format, not JSON: {path}")
        with open(path, "wb") as fh:
            header = (self.num_classes, self.dim, self.capacity, self.ema_factor)
            fh.write(_MAGIC + struct.pack("<IIId", *header))
            for buf, proto, has in zip(self._bufs, self._protos, self._has_proto):
                fh.write(struct.pack("<IB", len(buf), int(has)))
                if has:
                    fh.write(proto.tobytes())
                fh.write(buf)  # straight from the C-contiguous buffer, zero rows too

    @classmethod
    def load(cls, path: str | Path) -> "IdStore":
        """Read a store written by ``save``; a file that is not one raises CorruptStoreError.

        The file must be in the binary IDSTORE1 format, its header one the
        constructor accepts, and every prototype a finite unit vector of
        dimension d over at least one row, as ``update_prototype`` leaves it.
        """
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                return cls._read(fh)
        except (  # BadArgError is a header the store rejects
            OSError, ValueError, struct.error,
            BadArgError, NotUnitError, CorruptStoreError,
        ) as err:
            raise CorruptStoreError(f"cannot read id-store file {path}: {err}") from err

    @classmethod
    def _read(cls, fh: BinaryIO) -> "IdStore":
        """Check the header and every class record's size; only then read the rows.

        The first pass reads each record's row count and prototype flag and
        seeks past the rest, so the file size bounds the one (N, d) row
        buffer before it is made. The second reads each prototype and each
        class's rows straight into its slice of that buffer, which
        ``from_rows`` then checks as ``insert`` does and keeps.
        """
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CorruptStoreError("not an id-store file in the binary IDSTORE1 format")
        header = _unpack(fh, "<IIId")
        _check_store_args(*header)  # C and d are bounded before any record is read
        num_classes, dim, capacity, ema_factor = header
        size = os.fstat(fh.fileno()).st_size
        records = []  # (file offset after the record's counts, rows, has a prototype)
        for c in range(num_classes):
            n_c, has_proto = _unpack(fh, "<IB")
            start, has_proto = fh.tell(), bool(has_proto)
            end = start + 8 * dim * (n_c + has_proto)
            if end > size:
                raise CorruptStoreError(f"class {c} runs {end - size} bytes past the end")
            if n_c > capacity:
                raise CorruptStoreError(f"class {c} holds {n_c} rows, over the capacity {capacity}")
            if has_proto and n_c == 0:
                raise CorruptStoreError(f"class {c} has a prototype but no rows")
            records.append((start, n_c, has_proto))
            fh.seek(end)
        if fh.tell() != size:
            raise CorruptStoreError(f"{size - fh.tell()} bytes after the last class")
        counts = [n_c for _, n_c, _ in records]
        offsets = np.cumsum([0] + counts)
        rows = np.empty((offsets[-1], dim), "<f8")
        protos = {}
        for c, (start, _, has_proto) in enumerate(records):
            fh.seek(start)
            if has_proto:
                protos[c] = np.empty(dim, "<f8")
                _read_exactly(fh, protos[c])
            _read_exactly(fh, rows[offsets[c] : offsets[c + 1]])
        store = cls.from_rows(rows, counts, capacity, ema_factor)
        for c, proto in protos.items():
            store._load_prototype(c, proto)
        return store

    def _load_prototype(self, class_id: int, proto: np.ndarray) -> None:
        with np.errstate(over="ignore"):  # as in ``insert``: an inf norm is not unit
            norm = np.sqrt((proto * proto).sum())
        if not np.isfinite(proto).all() or abs(norm - 1.0) > UNIT_TOL:
            raise CorruptStoreError(f"prototype of class {class_id} is not a finite unit vector")
        self._protos[class_id] = proto
        self._has_proto[class_id] = True
