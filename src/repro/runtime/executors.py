"""Pluggable task executors for the campaign engine.

The executor contract is a single method::

    map(fn, tasks, on_result=None) -> list   # results in task order

``fn`` must be picklable for the pool executors (the repo's jobs are
frozen dataclasses with ``__call__`` — see :mod:`repro.runtime.jobs`),
and every executor must return *identical* results for a deterministic
``fn``: the parallel path only changes wall-clock, never values.

``on_result`` is an optional observation hook invoked once per completed
result, in task order, as results stream in — the engine uses it to
drive the live progress heartbeat.  Hooks must not mutate results.

Two executors ship:

* :class:`SerialExecutor` — in-process reference semantics;
* :class:`ParallelExecutor` — a process pool spawned per ``map()``,
  shipping pickled tasks and results (chunked dispatch, serial
  fallback).

Payload accounting: when a real pool dispatches, the executor accounts
the bytes it moved — callable + task bytes out, result bytes back.
Those numbers require *re*-pickling everything, so they are gated
behind :func:`payload_accounting_enabled` (``REPRO_PAYLOAD_ACCOUNTING``;
auto mode turns accounting on only for traced runs — the CLI also sets
it for ``--metrics``/``--trace``).  Totals accumulate on ``.payload``
and in the ``executor.payload.*`` counters; the engine reports the
per-run delta under ``RunMetrics.resources``.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from ..obs.metrics import get_registry
from . import envconfig

__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "payload_accounting_enabled",
]

#: Signature of the per-result observation hook.
OnResult = Callable[[Any], None]


@runtime_checkable
class Executor(Protocol):
    """Maps a picklable callable over tasks, preserving order."""

    name: str

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]: ...


def payload_accounting_enabled() -> bool:
    """Resolve the payload-accounting gate (``REPRO_PAYLOAD_ACCOUNTING``).

    Measuring the pickle path's payload means re-pickling the callable,
    every task, and every result — pure overhead when nobody reads the
    numbers.  Explicit ``1``/``0`` wins; unset means *auto*: on when the
    ambient tracer is recording (the run is shipping telemetry anyway),
    off otherwise.  The CLI sets the variable for ``--metrics`` and
    ``--trace`` runs so their reports keep the pool payload section.
    Accounting never changes results, only whether bytes are counted.
    """
    raw = envconfig.raw("REPRO_PAYLOAD_ACCOUNTING").lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    from ..obs.trace import get_tracer

    return bool(get_tracer().enabled)


def _run_serial(
    fn: Callable[[Any], Any], tasks: Iterable[Any], on_result: OnResult | None
) -> list[Any]:
    results = []
    for task in tasks:
        result = fn(task)
        if on_result is not None:
            on_result(result)
        results.append(result)
    return results


class SerialExecutor:
    """In-process, single-threaded execution (the reference semantics)."""

    name = "serial"

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]:
        return _run_serial(fn, tasks, on_result)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Process-pool execution with chunked dispatch and serial fallback.

    Parameters
    ----------
    workers:
        Pool size; ``None`` uses ``os.cpu_count()``.  ``workers <= 1``
        degenerates to serial execution (no pool is spawned).

    Tasks go out in chunks sized to give each worker several (amortizes
    pickling the job closure while keeping the pool load-balanced).
    Results are returned in task order regardless of completion order.
    If the pool cannot be spawned, or breaks mid-run (e.g. a worker is
    OOM-killed), the executor falls back to in-process execution so no
    block is lost; ``fallback_reason`` records why.  Exceptions raised
    by ``fn`` itself are *not* swallowed — they propagate to the caller
    exactly as they would serially.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = os.cpu_count() or 1 if workers is None else int(workers)
        self.fallback_reason: str | None = None
        #: Cumulative pool payload accounting (bytes re-pickled for
        #: measurement; only counted when a real pool dispatched and
        #: :func:`payload_accounting_enabled` says so).  Each byte is
        #: counted exactly once: ``fn_bytes`` is the pickled callable,
        #: ``task_bytes`` the pickled tasks, ``result_bytes`` the
        #: pickled results — their sum is the total payload moved.
        self.payload: dict[str, int] = {
            "fn_bytes": 0,
            "task_bytes": 0,
            "result_bytes": 0,
            "maps": 0,
        }

    @property
    def name(self) -> str:
        return f"parallel[{self.workers}]"

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        on_result: OnResult | None = None,
    ) -> list[Any]:
        tasks = list(tasks)
        self.fallback_reason = None
        if self.workers <= 1 or len(tasks) <= 1:
            return _run_serial(fn, tasks, on_result)

        n_workers = min(self.workers, len(tasks))
        chunk = max(1, -(-len(tasks) // (n_workers * 4)))
        registry = get_registry()
        accounting = payload_accounting_enabled()
        try:
            pool = ProcessPoolExecutor(max_workers=n_workers)
        except (OSError, ValueError, RuntimeError) as exc:
            self.fallback_reason = f"pool spawn failed: {type(exc).__name__}: {exc}"
            registry.counter("executor.fallbacks").inc()
            return _run_serial(fn, tasks, on_result)
        try:
            with pool:
                # gauges describe a pool that actually exists; emitting
                # them before the spawn would report a pool that fell
                # back to serial — and emitting them before `with pool`
                # could leak the pool if a meter raised (REP006)
                registry.gauge("executor.pool_workers").set(n_workers)
                registry.gauge("executor.chunk_size").set(chunk)
                registry.counter("executor.pool_spawns").inc()
                proto = pickle.HIGHEST_PROTOCOL
                fn_bytes = task_bytes = 0
                if accounting:
                    fn_bytes = len(pickle.dumps(fn, protocol=proto))
                    task_bytes = sum(
                        len(pickle.dumps(t, protocol=proto)) for t in tasks
                    )
                results = []
                result_bytes = 0
                for result in pool.map(fn, tasks, chunksize=chunk):
                    if accounting:
                        result_bytes += len(pickle.dumps(result, protocol=proto))
                    if on_result is not None:
                        on_result(result)
                    results.append(result)
                self.payload["maps"] += 1
                if accounting:
                    self.payload["fn_bytes"] += fn_bytes
                    self.payload["task_bytes"] += task_bytes
                    self.payload["result_bytes"] += result_bytes
                    registry.counter("executor.payload.task_bytes").inc(
                        fn_bytes + task_bytes
                    )
                    registry.counter("executor.payload.result_bytes").inc(result_bytes)
                return results
        except (BrokenProcessPool, pickle.PicklingError, OSError) as exc:
            # Pool infrastructure failure (not a task error): rerun
            # everything in-process.  Tasks are deterministic and
            # side-effect free, so re-execution is safe.
            self.fallback_reason = f"pool failed: {type(exc).__name__}: {exc}"
            registry.counter("executor.fallbacks").inc()
            return _run_serial(fn, tasks, on_result)

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers})"
