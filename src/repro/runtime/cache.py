"""Content-addressed per-block result cache for the campaign engine.

Every per-block job in this repo is a pure function of frozen inputs
(world seed and scenario, block spec, analysis window, pipeline
parameters), so its result can be keyed by a stable hash of those inputs
and reused across engine runs and CLI invocations.  fig3/fig5/table3
and the covid/control campaigns share worlds; with a cache directory
they stop re-simulating them.

Key schema
----------
A key is ``sha256(stable_token((kind, CACHE_SCHEMA, inputs)))`` where
``stable_token`` renders the inputs canonically: primitives by ``repr``,
dates by isoformat, dicts with sorted keys, sets sorted, dataclasses as
``(qualified name, field tokens)``, numpy arrays as (dtype, shape, raw
bytes), and any object exposing ``cache_token()`` by recursing into
that.  The qualified class names mean a renamed or restructured config
class invalidates naturally; bumping :data:`CACHE_SCHEMA` invalidates
everything at once (do this whenever a kernel or pipeline change alters
results without changing any input field).  Objects the tokenizer does
not understand make the task *uncacheable* (``task_key`` returns
``None``) rather than wrongly cacheable.

Storage
-------
Entries live only on disk (``--cache DIR`` / ``REPRO_CACHE``): pickles
under ``DIR/<k[:2]>/<k>.pkl``, written with atomic renames, so parallel
runs and repeated invocations are safe.  Nothing stays in memory, so a
cached run holds no more results than an uncached one (a sharded run
keeps to its one-shard bound).  A key hashes the job inputs only, never
a shard id, so one directory serves unsharded and sharded runs of any
shard count alike.  A hit unpickles exactly the bytes stored — the
engine guarantees cached, serial, and parallel runs stay byte-identical.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import enum
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from ..obs.metrics import get_registry
from . import envconfig

__all__ = [
    "AnalysisCache",
    "CACHE_SCHEMA",
    "default_cache",
    "stable_token",
    "task_key",
]

#: Bump to invalidate every existing cache entry (result-affecting
#: change that is invisible in the job's input fields).
#: 2: cumsum moving average + extended LOESS fast path changed
#: per-block result bits at the float-rounding level.
CACHE_SCHEMA = 2


def stable_token(obj: Any) -> str:
    """Canonical string for ``obj``; raises TypeError when unrepresentable.

    Two objects that would make a per-block job behave identically must
    tokenize identically; objects that could differ must not collide.
    """
    if obj is None or isinstance(obj, (bool, int)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips float64 exactly
    if isinstance(obj, str):
        return "s" + repr(obj)
    if isinstance(obj, bytes):
        return "b" + hashlib.sha256(obj).hexdigest()
    if isinstance(obj, enum.Enum):
        return f"e({type(obj).__qualname__}:{obj.name})"
    if isinstance(obj, (_dt.datetime, _dt.date, _dt.time)):
        return f"t({obj.isoformat()})"
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        return f"a({arr.dtype.str},{arr.shape},{digest})"
    if isinstance(obj, np.generic):
        return stable_token(obj.item())
    token = getattr(obj, "cache_token", None)
    if token is not None and not dataclasses.is_dataclass(obj):
        return f"o({type(obj).__qualname__},{stable_token(token())})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={stable_token(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"d({type(obj).__qualname__},{fields})"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(stable_token(v) for v in obj) + ")"
    if isinstance(obj, dict):
        items = sorted((stable_token(k), stable_token(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (set, frozenset)):
        return "f{" + ",".join(sorted(stable_token(v) for v in obj)) + "}"
    raise TypeError(f"cannot build a stable cache token for {type(obj)!r}")


def task_key(kind: str, inputs: dict[str, Any]) -> str | None:
    """Cache key for one job call, or None when inputs are uncacheable."""
    try:
        token = stable_token((kind, CACHE_SCHEMA, inputs))
    except TypeError:
        return None
    return hashlib.sha256(token.encode()).hexdigest()


class AnalysisCache:
    """Directory-backed result store.

    The cache is dumb on purpose: it maps keys to pickled results and
    never interprets them.  Correctness rests entirely on the key —
    see the module docstring for the schema.
    """

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)
        self._bytes_written = 0  # cumulative bytes stored, this instance

    def get(self, key: str) -> tuple[bool, Any]:
        """(hit, value); unreadable entries count as misses."""
        try:
            with open(self._path(key), "rb") as fh:
                blob = fh.read()
            value = pickle.loads(blob)
        except (OSError, pickle.PickleError, EOFError):
            return False, None
        get_registry().counter("cache.bytes.hit").inc(len(blob))
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Store a result; True when it is durably stored."""
        path = self._path(key)
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)  # atomic: parallel writers race safely
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        registry = get_registry()
        registry.counter("cache.bytes.store").inc(len(blob))
        self._bytes_written += len(blob)
        registry.max_gauge("cache.bytes.at_rest").set(self._bytes_written)
        return True

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"


def default_cache() -> AnalysisCache | None:
    """Cache for callers that did not pick one: ``REPRO_CACHE`` decides.

    Unset or empty means no caching (every run recomputes, as before);
    a directory path enables the cache rooted there.  The CLI's
    ``--cache DIR`` flag sets this variable for the whole run.
    """
    raw = envconfig.raw("REPRO_CACHE")
    if not raw:
        return None
    return AnalysisCache(raw)
