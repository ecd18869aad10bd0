"""Memory-mappable per-shard result spill for out-of-core campaigns.

A sharded engine run (:mod:`repro.runtime.sharding`) must not hold every
shard's results in RAM at once — that is the whole point.  After each
shard completes, the coordinator writes its ordered result list into a
columnar on-disk layout under a per-run spill directory and drops the
in-memory objects; :class:`SpilledResults` then presents all shards as
one lazy sequence that rehydrates a single result at a time.

Layout — four ``.npy`` files per shard, every one loadable with
``np.load(..., mmap_mode="r")``:

* ``shard-NN.blobs.npy`` — ``uint8`` concatenation of one pickle blob
  per result.  Results are pickled **individually** (not as one list)
  so random access never deserialises a whole shard.
* ``shard-NN.items.npy`` — structured ``(offset, length)`` row per
  result: where its blob lives.
* ``shard-NN.arrays.npy`` — ``uint8`` concatenation of the raw bytes of
  every large array.  The pickler externalises them with the
  persistent-id protocol, so blobs stay small and the array payload is
  read straight off the memory map on access.
* ``shard-NN.arrmeta.npy`` — structured ``(offset, nbytes, dtype, ndim,
  shape)`` row per externalised array.

Rehydrated results are byte-identical to the originals under
``pickle.dumps``: externalised arrays come back as plain C-contiguous
``np.ndarray`` objects re-viewed onto the process-canonical dtype
singleton (:func:`_canonical_dtype_view`), never as ``np.memmap`` views.

Ownership follows one rule — **the coordinator writes, the coordinator
deletes** (docs/dev.md): the engine creates the spill directory, cleans
it up itself if the sharded run fails mid-shard, and otherwise hands
ownership to the returned :class:`SpilledResults`, whose finalizer
removes the directory when the results are garbage-collected (or at
interpreter exit).  Workers and readers never delete spill files.
"""

from __future__ import annotations

import io
import os
import pickle
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from ..obs.metrics import get_registry
from . import envconfig

__all__ = [
    "SpillDir",
    "SpilledResults",
    "resolve_spill_parent",
]

#: Arrays at or above this size are externalised into the columnar
#: buffer; smaller ones stay inline in the pickle blob (a descriptor
#: would cost more than the payload).
MIN_SPILL_ARRAY_BYTES = 64

#: Most array dimensions the columnar metadata row can describe.
_MAX_DIMS = 4

#: Persistent-id tag marking an externalised array reference.
_PID_TAG = "repro-spill-array"

_ITEM_DTYPE = np.dtype([("offset", "<u8"), ("length", "<u8")])
_ARRAY_DTYPE = np.dtype(
    [
        ("offset", "<u8"),
        ("nbytes", "<u8"),
        ("dtype", "S16"),
        ("ndim", "u1"),
        ("shape", "<i8", (_MAX_DIMS,)),
    ]
)


def resolve_spill_parent() -> str | None:
    """Parent directory for per-run spill dirs (``REPRO_SPILL_DIR``).

    Unset or empty defers to the system temp directory.  The variable
    points at a *parent*: every sharded run still gets its own
    ``repro-spill-*`` subdirectory so concurrent runs never collide.
    """
    return envconfig.raw("REPRO_SPILL_DIR") or None


def _canonical_dtype_view(arr: np.ndarray) -> np.ndarray:
    # Arrays rebuilt from raw bytes carry a dtype *instance* distinct
    # from numpy's interned singleton; re-viewing onto ``arr.dtype.type``
    # restores the singleton so rehydrated graphs pickle byte-identically
    # to in-memory ones (same values, same memo structure).  Spilled
    # arrays are arbitrary, so dtypes the bare scalar type cannot
    # reproduce — parametric units (``M8[s]``) and non-native byteorder —
    # are left alone, where the view would reinterpret the data.
    if np.dtype(arr.dtype.type) == arr.dtype:
        return arr.view(arr.dtype.type)
    return arr


def _spillable(obj: Any) -> bool:
    """Only plain, C-contiguous, fixed-dtype ndarrays are externalised.

    Subclasses (``np.memmap``, masked arrays) pickle their class and
    must stay inline; object/structured dtypes cannot round-trip through
    a raw-bytes buffer; tiny arrays are cheaper inline.
    """
    return (
        type(obj) is np.ndarray
        and obj.flags.c_contiguous
        and obj.ndim <= _MAX_DIMS
        and obj.dtype.kind in "biufcmM"
        and len(obj.dtype.str) <= 16
        and obj.nbytes >= MIN_SPILL_ARRAY_BYTES
    )


class _ArrayCollector:
    """Accumulates externalised array payloads for one shard."""

    def __init__(self) -> None:
        self.payload = bytearray()
        self.meta: list[tuple[int, int, bytes, int, tuple[int, ...]]] = []

    def add(self, arr: np.ndarray) -> int:
        index = len(self.meta)
        offset = len(self.payload)
        self.payload += arr.tobytes()
        shape = tuple(arr.shape) + (0,) * (_MAX_DIMS - arr.ndim)
        self.meta.append((offset, arr.nbytes, arr.dtype.str.encode(), arr.ndim, shape))
        return index

    def meta_array(self) -> np.ndarray:
        out = np.zeros(len(self.meta), dtype=_ARRAY_DTYPE)
        for i, (offset, nbytes, dtype, ndim, shape) in enumerate(self.meta):
            out[i] = (offset, nbytes, dtype, ndim, shape)
        return out


class _SpillPickler(pickle.Pickler):
    """Pickler that swaps large arrays for columnar-buffer references.

    Persistent-id saves bypass pickle's memo, so an array referenced
    twice in one result would spill twice and rehydrate as two distinct
    objects — changing the re-pickled memo structure.  Deduplicating by
    object id here (and memoising loads in :class:`_SpillUnpickler`)
    keeps intra-result aliasing, and therefore pickle bytes, intact.
    """

    def __init__(self, file: io.BytesIO, collector: _ArrayCollector) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._collector = collector
        self._seen: dict[int, int] = {}

    def persistent_id(self, obj: Any) -> Any:
        if _spillable(obj):
            index = self._seen.get(id(obj))
            if index is None:
                index = self._collector.add(obj)
                self._seen[id(obj)] = index
            return (_PID_TAG, index)
        return None


class _SpillUnpickler(pickle.Unpickler):
    """Unpickler that resolves array references from one shard's buffer."""

    def __init__(self, file: io.BytesIO, shard: "_ShardReader") -> None:
        super().__init__(file)
        self._shard = shard
        self._loaded: dict[int, np.ndarray] = {}

    def persistent_load(self, pid: Any) -> Any:
        if (
            isinstance(pid, tuple)
            and len(pid) == 2
            and pid[0] == _PID_TAG
            and isinstance(pid[1], int)
        ):
            index = pid[1]
            arr = self._loaded.get(index)
            if arr is None:
                arr = self._shard.load_array(index)
                self._loaded[index] = arr
            return arr
        raise pickle.UnpicklingError(f"unknown persistent id: {pid!r}")


class _ShardReader:
    """Lazy random access into one spilled shard.

    The four ``.npy`` files are opened with ``mmap_mode="r"`` on first
    use and can be released (dropping the maps) at any time — the next
    access simply reopens them.  ``load(i)`` copies exactly one result's
    blob and arrays out of the maps, so resident memory tracks the
    working set, not the shard size.
    """

    def __init__(self, directory: Path, shard_id: int, n_items: int) -> None:
        self.directory = directory
        self.shard_id = shard_id
        self.n_items = n_items
        self._blobs: np.ndarray | None = None
        self._items: np.ndarray | None = None
        self._arrays: np.ndarray | None = None
        self._arrmeta: np.ndarray | None = None

    def _path(self, part: str) -> Path:
        return self.directory / f"shard-{self.shard_id:02d}.{part}.npy"

    @staticmethod
    def _mmap_load(path: Path) -> np.ndarray:
        arr: np.ndarray
        try:
            arr = np.load(path, mmap_mode="r")
        except (ValueError, OSError):
            # zero-length arrays cannot be memory-mapped; tiny by
            # definition, so an eager load costs nothing
            arr = np.load(path)
        return arr

    def _ensure_open(self) -> None:
        if self._items is None:
            self._blobs = self._mmap_load(self._path("blobs"))
            self._items = self._mmap_load(self._path("items"))
            self._arrays = self._mmap_load(self._path("arrays"))
            self._arrmeta = self._mmap_load(self._path("arrmeta"))

    def release(self) -> None:
        """Drop the open memory maps (reopened on next access)."""
        self._blobs = self._items = self._arrays = self._arrmeta = None

    def load_array(self, index: int) -> np.ndarray:
        assert self._arrays is not None and self._arrmeta is not None
        meta = self._arrmeta[index]
        lo = int(meta["offset"])
        hi = lo + int(meta["nbytes"])
        dtype = np.dtype(bytes(meta["dtype"]).decode())
        shape = tuple(int(s) for s in meta["shape"][: int(meta["ndim"])])
        # one copy out of the map, then the canonical-dtype re-view: the
        # result must be a plain writeable ndarray indistinguishable
        # from the original, never a view pinning the mmap open
        arr = np.frombuffer(self._arrays[lo:hi].tobytes(), dtype=dtype)
        return _canonical_dtype_view(arr.reshape(shape).copy())

    def load(self, index: int) -> Any:
        if not 0 <= index < self.n_items:
            raise IndexError(f"item {index} outside shard of {self.n_items}")
        self._ensure_open()
        assert self._items is not None and self._blobs is not None
        row = self._items[index]
        lo = int(row["offset"])
        hi = lo + int(row["length"])
        blob = self._blobs[lo:hi].tobytes()
        return _SpillUnpickler(io.BytesIO(blob), self).load()


def _remove_tree(path: str) -> None:
    """Finalizer target: must not hold a reference back to the owner."""
    shutil.rmtree(path, ignore_errors=True)


class SpillDir:
    """One sharded run's spill directory and its write path.

    Created under ``REPRO_SPILL_DIR`` (or the system temp dir) with a
    unique ``repro-spill-`` prefix.  Only the coordinating engine writes
    here, and only the coordinator (directly on failure, or through the
    :class:`SpilledResults` finalizer on success) deletes it.
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)
        self.bytes_written = 0
        self.n_items = 0
        self._finalizer = weakref.finalize(self, _remove_tree, str(self.directory))

    @classmethod
    def create(cls) -> "SpillDir":
        parent = resolve_spill_parent()
        if parent is not None:
            Path(parent).mkdir(parents=True, exist_ok=True)
        return cls(tempfile.mkdtemp(prefix="repro-spill-", dir=parent))

    def write_shard(self, shard_id: int, results: Sequence[Any]) -> _ShardReader:
        """Spill one shard's ordered results; returns its lazy reader."""
        collector = _ArrayCollector()
        blobs = io.BytesIO()
        items = np.zeros(len(results), dtype=_ITEM_DTYPE)
        for i, result in enumerate(results):
            offset = blobs.tell()
            _SpillPickler(blobs, collector).dump(result)
            items[i] = (offset, blobs.tell() - offset)
        written = 0
        for part, payload in (
            ("blobs", np.frombuffer(blobs.getbuffer(), dtype=np.uint8)),
            ("items", items),
            ("arrays", np.frombuffer(bytes(collector.payload), dtype=np.uint8)),
            ("arrmeta", collector.meta_array()),
        ):
            path = self.directory / f"shard-{shard_id:02d}.{part}.npy"
            np.save(path, payload)
            written += path.stat().st_size
        self.bytes_written += written
        self.n_items += len(results)
        get_registry().counter("spill.bytes.written").inc(written)
        return _ShardReader(self.directory, shard_id, len(results))

    def cleanup(self) -> None:
        """Remove the directory now (idempotent; detaches the finalizer)."""
        if self._finalizer.detach() is not None:
            _remove_tree(str(self.directory))

    @property
    def alive(self) -> bool:
        return self._finalizer.alive


#: How many shards keep their memory maps open at once.  Sequential
#: scans (the mapping iteration pattern) touch shards in order, so two
#: is enough to make the boundary between shards free.
_OPEN_SHARD_CAP = 2


class SpilledResults(Sequence[Any]):
    """All shards of one run as a lazy, ordered result sequence.

    ``results[i]`` rehydrates exactly one result from the owning shard's
    memory maps; nothing else is resident.  Owns the spill directory:
    when this object is garbage-collected (or the process exits) the
    directory is removed — callers that need results past the engine
    run's lifetime simply keep the sequence alive.
    """

    def __init__(self, spill: SpillDir, shards: Sequence[_ShardReader]) -> None:
        self._spill = spill
        self._shards = list(shards)
        self._starts: list[int] = []
        total = 0
        for reader in self._shards:
            self._starts.append(total)
            total += reader.n_items
        self._total = total
        self._open_order: list[int] = []

    @property
    def spill_dir(self) -> Path:
        return self._spill.directory

    @property
    def spilled_bytes(self) -> int:
        return self._spill.bytes_written

    def __len__(self) -> int:
        return self._total

    def _locate(self, index: int) -> tuple[int, int]:
        shard = int(np.searchsorted(np.asarray(self._starts), index, side="right")) - 1
        return shard, index - self._starts[shard]

    def _touch(self, shard_index: int) -> None:
        if shard_index in self._open_order:
            self._open_order.remove(shard_index)
        self._open_order.append(shard_index)
        while len(self._open_order) > _OPEN_SHARD_CAP:
            self._shards[self._open_order.pop(0)].release()

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        i = int(index)
        if i < 0:
            i += self._total
        if not 0 <= i < self._total:
            raise IndexError(f"result index {index} outside [0, {self._total})")
        shard_index, local = self._locate(i)
        self._touch(shard_index)
        return self._shards[shard_index].load(local)

    def __iter__(self) -> Iterator[Any]:
        for shard_index, reader in enumerate(self._shards):
            self._touch(shard_index)
            for local in range(reader.n_items):
                yield reader.load(local)
