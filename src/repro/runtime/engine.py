"""The staged campaign engine and its per-run instrumentation.

:class:`CampaignEngine` maps a picklable task function over an iterable
of block tasks through a pluggable :class:`~repro.runtime.executors.Executor`
and aggregates the per-stage :class:`~repro.core.stages.StageRecord`
entries each :class:`BlockResult` carries into one :class:`RunMetrics`
(per-stage wall-time totals, funnel counters, blocks/sec).

Every run is also appended to a bounded module-level log so callers
that did not thread the engine through (e.g. ``repro --metrics``) can
still print what happened.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from ..core.pipeline import BlockAnalysis
from ..core.stages import PIPELINE_STAGES, StageRecord
from ..obs.metrics import MetricsRegistry, get_registry, scoped_registry
from ..obs.names import metric_name
from ..obs.progress import get_progress
from ..obs.resources import ResourceTracker, cpu_seconds, format_bytes, peak_rss_bytes
from ..obs.trace import NoopTracer, SpanRecord, Tracer, get_tracer, use_tracer
from . import envconfig
from .cache import AnalysisCache, default_cache
from .executors import Executor, ParallelExecutor, SerialExecutor
from .sharding import ShardPlan, resolve_shards
from .spill import SpillDir, SpilledResults

__all__ = [
    "BlockResult",
    "CampaignEngine",
    "EngineRun",
    "RunMetrics",
    "ShippedResult",
    "StageTotals",
    "TracedCall",
    "default_engine",
    "drain_run_log",
    "peek_run_log",
]


@dataclass(frozen=True)
class BlockResult:
    """One block's analysis plus the stage records that produced it."""

    key: str
    analysis: BlockAnalysis
    stages: tuple[StageRecord, ...] = ()


@dataclass(frozen=True)
class ShippedResult:
    """A task result plus the telemetry recorded while producing it.

    Worker processes cannot write into the parent's tracer or metrics
    registry, so a traced run wraps every task in :class:`TracedCall`,
    which records into process-local fragments and ships them home
    inside this envelope.  The engine unwraps ``value`` before
    aggregation, so task functions and their callers never see it.
    """

    value: Any
    spans: tuple[SpanRecord, ...] = ()
    meters: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TracedCall:
    """Picklable wrapper that records one task's spans and metrics.

    Opens a ``block`` span parented under the campaign span (so worker
    fragments re-attach into one rooted tree), swaps in a fresh metrics
    registry for the task body, and ships both back with the result.
    The serial executor runs the exact same wrapper in-process, keeping
    serial and parallel telemetry — and results — identical.
    """

    fn: Callable[[Any], Any]
    trace_id: str
    parent_id: str | None
    #: block-range tasks open one "block" span per block themselves (so
    #: block-span accounting still counts exactly one span per block);
    #: every other task gets one "block" span here
    ranged: bool = False

    def __call__(self, task: Any) -> ShippedResult:
        tracer = Tracer(trace_id=self.trace_id, root_parent_id=self.parent_id)
        with scoped_registry() as registry, use_tracer(tracer):
            cpu_start = cpu_seconds()
            if self.ranged:
                value = self.fn(task)
                n_items = max(len(value), 1)
            else:
                with tracer.span("block", attrs={"pid": os.getpid()}):
                    value = self.fn(task)
                n_items = 1
            # per-worker accounting rides home in the meter snapshot:
            # the histogram's sum/count aggregate CPU across tasks (a
            # range task observes each block's share) and the max-gauge
            # keeps each worker process's RSS high-water
            cpu_share = (cpu_seconds() - cpu_start) / n_items
            cpu_hist = registry.histogram("resources.worker.cpu_s")
            for _ in range(n_items):
                cpu_hist.observe(cpu_share)
            registry.max_gauge("resources.worker.rss_peak_bytes").set(peak_rss_bytes())
        return ShippedResult(
            value=value, spans=tuple(tracer.finished), meters=registry.snapshot()
        )


@dataclass
class StageTotals:
    """Aggregated stage instrumentation across one engine run."""

    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_delta: int = 0  # summed RSS high-water rise across calls, bytes
    n_in: int = 0
    n_out: int = 0
    skips: dict[str, int] = field(default_factory=dict)

    @property
    def touched(self) -> int:
        """Blocks that reached this stage (ran or recorded a skip)."""
        return self.calls + sum(self.skips.values())

    def add(self, record: StageRecord) -> None:
        if record.skipped is not None:
            self.skips[record.skipped] = self.skips.get(record.skipped, 0) + 1
            return
        self.calls += 1
        self.wall_s += record.wall_s
        self.cpu_s += record.cpu_s
        self.rss_delta += record.rss_delta
        self.n_in += record.n_in
        self.n_out += record.n_out

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "rss_delta": self.rss_delta,
            "n_in": self.n_in,
            "n_out": self.n_out,
            "skips": dict(self.skips),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "StageTotals":
        return cls(
            calls=d["calls"],
            wall_s=d["wall_s"],
            cpu_s=d.get("cpu_s", 0.0),  # absent in pre-resource saved traces
            rss_delta=d.get("rss_delta", 0),
            n_in=d["n_in"],
            n_out=d["n_out"],
            skips=dict(d.get("skips") or {}),
        )


@dataclass
class RunMetrics:
    """What one engine run did, where the time went, and what survived."""

    label: str
    executor: str
    n_tasks: int
    wall_s: float
    stages: dict[str, StageTotals] = field(default_factory=dict)
    funnel: dict[str, int] = field(default_factory=dict)
    fallback: str | None = None
    meters: dict[str, Any] | None = None  # merged registry snapshot (traced runs)
    cache: dict[str, int] | None = None  # hits/misses/stores (cached runs only)
    resources: dict[str, Any] | None = None  # cpu/rss/pool-payload accounting
    shards: dict[str, int] | None = None  # shard count + spill totals (sharded runs)

    @property
    def blocks_per_sec(self) -> float:
        # Empty or zero-time runs report 0.0, never inf/nan: the dict
        # export feeds json.dumps, which would emit the non-standard
        # ``Infinity`` token and break strict JSON readers.
        if self.wall_s <= 0.0 or self.n_tasks <= 0:
            return 0.0
        return self.n_tasks / self.wall_s

    @property
    def stage_wall_s(self) -> float:
        """Summed in-stage wall time (< ``wall_s`` — excludes simulation
        overheads not recorded as a stage, > ``wall_s`` when parallel)."""
        return sum(t.wall_s for t in self.stages.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "executor": self.executor,
            "n_tasks": self.n_tasks,
            "wall_s": self.wall_s,
            "blocks_per_sec": self.blocks_per_sec,
            "stages": {name: t.as_dict() for name, t in self.stages.items()},
            "funnel": dict(self.funnel),
            "fallback": self.fallback,
            "meters": self.meters,
            "cache": self.cache,
            "resources": self.resources,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunMetrics":
        """Rebuild from :meth:`as_dict` output (e.g. a saved trace).

        Keys this version no longer writes (``batched``) are ignored, so
        older ``run.json`` files still load."""
        return cls(
            label=d["label"],
            executor=d["executor"],
            n_tasks=d["n_tasks"],
            wall_s=d["wall_s"],
            stages={
                name: StageTotals.from_dict(t)
                for name, t in (d.get("stages") or {}).items()
            },
            funnel=dict(d.get("funnel") or {}),
            fallback=d.get("fallback"),
            meters=d.get("meters"),
            cache=d.get("cache"),  # absent in pre-cache saved traces
            resources=d.get("resources"),  # absent in pre-resource saved traces
            shards=d.get("shards"),  # absent in pre-sharding saved traces
        )

    def report(self) -> str:
        """Aligned plain-text run report (the ``--metrics`` output)."""
        lines = [
            f"run {self.label!r}: {self.n_tasks} blocks in {self.wall_s:.2f}s "
            f"({self.blocks_per_sec:.1f} blocks/s) on {self.executor}"
        ]
        if self.fallback:
            lines.append(f"  ! fell back to serial: {self.fallback}")
        if self.stages:
            rows = [["stage", "calls", "skipped", "wall_s", "cpu_s", "rss+", "n_in", "n_out"]]
            ordered = [n for n in PIPELINE_STAGES if n in self.stages]
            ordered += [n for n in self.stages if n not in PIPELINE_STAGES]
            for name in ordered:
                t = self.stages[name]
                rows.append(
                    [
                        name,
                        str(t.calls),
                        str(sum(t.skips.values())),
                        f"{t.wall_s:.3f}",
                        f"{t.cpu_s:.3f}",
                        format_bytes(t.rss_delta),
                        str(t.n_in),
                        str(t.n_out),
                    ]
                )
            widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
            for i, row in enumerate(rows):
                lines.append("  " + "  ".join(c.rjust(w) for c, w in zip(row, widths)))
                if i == 0:
                    lines.append("  " + "  ".join("-" * w for w in widths))
        if self.funnel:
            funnel = "  ".join(f"{k}={v}" for k, v in self.funnel.items())
            lines.append(f"  funnel: {funnel}")
        if self.cache is not None:
            hits = self.cache.get("hits", 0)
            looked = hits + self.cache.get("misses", 0)
            rate = 100.0 * hits / looked if looked else 0.0
            lines.append(
                f"  cache: {hits}/{looked} hits ({rate:.0f}%), "
                f"{self.cache.get('stores', 0)} stored"
            )
        if self.shards is not None:
            lines.append(
                f"  shards: merged {self.shards.get('shards', 0)} shards, "
                f"{self.shards.get('spilled_items', 0)} results spilled "
                f"({format_bytes(self.shards.get('spill_bytes', 0))})"
            )
        if self.resources is not None:
            res = self.resources
            line = (
                f"  resources: cpu {res.get('cpu_s', 0.0):.2f}s / "
                f"{res.get('wall_s', 0.0):.2f}s wall "
                f"({100.0 * res.get('cpu_utilization', 0.0):.0f}%), "
                f"rss {format_bytes(res.get('rss_bytes', 0))} "
                f"(peak {format_bytes(res.get('rss_peak_bytes', 0))}, "
                f"run +{format_bytes(res.get('rss_peak_delta_bytes', 0))})"
            )
            lines.append(line)
            tm = res.get("tracemalloc")
            if tm:
                lines.append(
                    f"  tracemalloc: {format_bytes(tm.get('current_bytes', 0))} live, "
                    f"{format_bytes(tm.get('peak_bytes', 0))} peak"
                )
            pool = res.get("pool")
            if pool:
                lines.append(
                    f"  pool: {format_bytes(pool.get('task_bytes', 0))} payload out, "
                    f"{format_bytes(pool.get('result_bytes', 0))} results back "
                    f"over {pool.get('maps', 0)} dispatches"
                )
            workers = res.get("workers")
            if workers:
                lines.append(
                    f"  workers: cpu {workers.get('cpu_s', 0.0):.2f}s over "
                    f"{workers.get('tasks', 0)} tasks, "
                    f"rss peak {format_bytes(workers.get('rss_peak_bytes', 0))}"
                )
        return "\n".join(lines)


@dataclass
class EngineRun:
    """Ordered task results plus the aggregated run metrics.

    ``results`` is a plain list for in-memory runs and a lazy,
    disk-backed :class:`~repro.runtime.spill.SpilledResults` for sharded
    runs — both index and iterate in task order."""

    results: "Sequence[Any]"
    metrics: RunMetrics


@dataclass(frozen=True)
class _TracedDispatch:
    """Where a traced run's shipped telemetry fragments accumulate."""

    tracer: Tracer
    registry: MetricsRegistry
    parent_id: str | None


def _block_ranges(tasks: list[Any], workers: int) -> list[tuple[Any, ...]]:
    """Split a range job's tasks into contiguous ranges, one per worker.

    A serial executor gets the whole list as one range, so every block
    of the run (or shard) can join one lockstep probing batch; a pool
    gets about one range per worker.
    """
    n = max(min(workers, len(tasks)), 1)
    size = -(-len(tasks) // n) if tasks else 1
    return [tuple(tasks[i : i + size]) for i in range(0, len(tasks), size)]


#: Table 1 funnel counters, in report order.
_FUNNEL_KEYS = ("routed", "responsive", "diurnal", "wide_swing", "change_sensitive")


def _fold_results(metrics: RunMetrics, results: list[Any]) -> None:
    """Add the stage records and funnel counts of ``results`` to ``metrics``.

    The funnel stays empty until the run has seen a :class:`BlockResult`."""
    for result in results:
        if not isinstance(result, BlockResult):
            continue
        for record in result.stages:
            metrics.stages.setdefault(record.name, StageTotals()).add(record)
        c = result.analysis.classification
        counts = (1, 0, 0, 0, 0)
        if c.responsive:
            counts = (1, 1, c.is_diurnal, c.is_wide_swing, c.is_change_sensitive)
        for key, n in zip(_FUNNEL_KEYS, counts):
            metrics.funnel[key] = metrics.funnel.get(key, 0) + int(n)


#: Bounded history of recent runs, drained by ``repro --metrics``.
_RUN_LOG: deque[RunMetrics] = deque(maxlen=64)


def drain_run_log() -> list[RunMetrics]:
    """Return and clear the recent-run log."""
    out = list(_RUN_LOG)
    _RUN_LOG.clear()
    return out


def peek_run_log() -> list[RunMetrics]:
    return list(_RUN_LOG)


class CampaignEngine:
    """Runs block tasks through an executor and aggregates instrumentation.

    One engine is reusable across runs; ``history`` keeps that engine's
    own :class:`RunMetrics` in order (the module-level run log keeps a
    process-wide view for the CLI).
    """

    def __init__(
        self,
        executor: Executor | None = None,
        cache: AnalysisCache | None = None,
        batched: bool | None = None,
        shards: int | None = None,
    ) -> None:
        """``shards`` partitions each run's task list into contiguous
        ranges streamed one at a time with results spilled to disk
        between shards; ``None`` defers to ``REPRO_SHARDS`` (the CLI's
        ``--shards``), defaulting to unsharded.  Results are identical
        either way — the setting only changes how the work is executed.

        ``batched`` may only be ``True`` or ``None`` (the one dispatch
        shape there is); ``False`` asked for per-block dispatch, which no
        longer exists, and raises ``ValueError``."""
        if batched is not None and not batched:
            raise ValueError(
                "per-block dispatch was removed: range jobs always run the "
                "batched analysis tail (pass batched=True or omit it)"
            )
        self.executor: Executor = executor or SerialExecutor()
        self.cache = cache
        self.shards = resolve_shards(shards)
        self.history: list[RunMetrics] = []

    def close(self) -> None:
        """Nothing to release: executors shut their pools down inside
        ``map()``.  Kept so callers may use the engine as a context
        manager."""

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Iterable[Any],
        *,
        label: str = "campaign",
        tracer: Tracer | NoopTracer | None = None,
    ) -> EngineRun:
        """Map ``fn`` over ``tasks`` and aggregate any stage records.

        Results keep task order for any executor.  Task results that are
        :class:`BlockResult` contribute stage totals and funnel counters;
        other result types are simply counted and timed.

        A run is one loop over the contiguous task ranges of a
        :class:`ShardPlan`; an unsharded run is a single range whose
        results stay in a list.  For each range the loop consults the
        cache, dispatches the pending tasks, stores their results and
        folds them into the run's stage totals and funnel.  When the
        engine is sharded (``shards > 1``) each completed range's results
        also spill to a memory-mapped on-disk layout before the next
        range starts, so coordinator RSS is bounded by one shard's
        working set, not the world, and ``results`` comes back as a lazy
        :class:`~repro.runtime.spill.SpilledResults` — contiguity makes
        the slot order, and therefore every downstream output, byte-
        identical to an unsharded run.  Either way the run has one
        resource bracket and one :class:`RunMetrics`.

        When the engine has a cache and ``fn`` exposes a
        ``cache_key(task)`` method, each task's key is consulted before
        dispatch and its result stored after; hits bypass the executor
        entirely (their :class:`BlockResult` carries no stage records,
        because no stage ran) but land in the same result slot, so
        cached runs stay byte-identical to computed ones.  Jobs without
        ``cache_key`` run uncached, as do tasks whose key comes back
        ``None`` (uncacheable inputs).

        When the ambient (or given) tracer is enabled, the run opens one
        ``campaign`` span, runs each task through :class:`TracedCall`
        so per-block spans and worker metric snapshots ship back, and
        collects the run's meters in its own registry, which lands in
        :attr:`RunMetrics.meters` and merges into the process-wide
        registry (untraced runs emit straight into the process-wide
        one).  Tracing never touches task results: serial and parallel
        runs stay byte-identical with it on or off.

        When ``fn`` is a range job (its class sets ``range_job``, as
        :class:`~repro.runtime.jobs.BlockAnalysisJob` does), the pending
        tasks are split into contiguous ranges — one per run (or shard)
        when serial, about one per worker on a pool — and ``fn`` is
        called once per range, returning one result per task in order.
        Cache keys stay per task.  Any other callable is mapped task by
        task.
        """
        tasks = list(tasks)
        tracer = get_tracer() if tracer is None else tracer
        plan = ShardPlan.plan(self.shards, len(tasks))
        tracker = ResourceTracker()
        payload_before = self._payload_snapshot()
        start = time.perf_counter()
        metrics = RunMetrics(
            label=label, executor=self.executor.name, n_tasks=len(tasks), wall_s=0.0
        )
        keyfn = getattr(fn, "cache_key", None) if self.cache is not None else None
        if keyfn is not None:
            metrics.cache = {"hits": 0, "misses": 0, "stores": 0}
        # the spill directory is owned here: written by this coordinator,
        # deleted by it on failure, and handed to the returned
        # SpilledResults on success (whose finalizer deletes it)
        spill = SpillDir.create() if plan.n_shards > 1 else None
        readers = []
        results: list[Any] = []
        progress = get_progress()
        campaign: AbstractContextManager[None] = (
            progress.campaign_scope(label, total=len(tasks), n_shards=plan.n_shards)
            if spill is not None
            else nullcontext()
        )
        attrs = {"label": label, "executor": self.executor.name, "n_tasks": len(tasks)}
        try:
            with campaign, tracer.span("campaign", attrs=attrs) as span:
                traced = None
                if isinstance(tracer, Tracer):
                    traced = _TracedDispatch(
                        tracer=tracer,
                        registry=MetricsRegistry(),
                        parent_id=tracer.current_span_id,
                    )
                registry = get_registry() if traced is None else traced.registry
                for i, (lo, hi) in enumerate(plan.ranges):
                    # shard ids only reach heartbeats inside a campaign scope
                    with progress.shard_scope(i, lo):
                        chunk = self._run_range(fn, tasks[lo:hi], keyfn, traced, metrics)
                    if spill is None:
                        results = chunk
                    else:
                        readers.append(spill.write_shard(i, chunk))
                metrics.wall_s = time.perf_counter() - start
                metrics.fallback = getattr(self.executor, "fallback_reason", None)
                if spill is not None:
                    metrics.shards = {
                        "shards": plan.n_shards,
                        "spilled_items": spill.n_items,
                        "spill_bytes": spill.bytes_written,
                    }
                    registry.counter("engine.shards").inc(plan.n_shards)
                self._emit_run_meters(registry, metrics)
                # worker meters have merged by now: summarise them into the
                # resources section, then emit the coordinator's own meters
                # so the final snapshot carries the full resource picture
                metrics.resources = self._finish_resources(
                    tracker,
                    payload_before,
                    meters=registry.snapshot() if traced is not None else None,
                )
                self._emit_resource_meters(registry, metrics.resources)
                if traced is not None:
                    metrics.meters = registry.snapshot()
                    # the process-wide registry sees worker metrics too, so
                    # the manifest's snapshot covers the whole run
                    get_registry().merge(metrics.meters)
                span.set(wall_s=round(metrics.wall_s, 6), fallback=metrics.fallback)
                if metrics.cache is not None:
                    span.set(cache_hits=metrics.cache["hits"])
        except BaseException:
            if spill is not None:
                spill.cleanup()
            raise
        self.history.append(metrics)
        _RUN_LOG.append(metrics)
        if spill is not None:
            return EngineRun(results=SpilledResults(spill, readers), metrics=metrics)
        return EngineRun(results=results, metrics=metrics)

    def _run_range(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        keyfn: Callable[[Any], str | None] | None,
        traced: "_TracedDispatch | None",
        metrics: RunMetrics,
    ) -> list[Any]:
        """One range of a run: cache lookups, dispatch of the misses and
        stores, with the range's results folded into ``metrics``."""
        keys, hits, pending = self._consult_cache(keyfn, tasks)
        progress = get_progress()
        progress.begin(
            metrics.label,
            len(tasks),
            done=len(hits),
            cache_hits=len(hits),
            cache_misses=len(pending) if keys is not None else 0,
        )
        try:
            computed = self._dispatch(fn, [tasks[i] for i in pending], traced)
            results = self._merge_results(len(tasks), hits, pending, computed)
            stores = self._store_results(keys, pending, computed)
            if metrics.cache is not None:
                metrics.cache["hits"] += len(hits)
                metrics.cache["misses"] += len(pending)
                metrics.cache["stores"] += stores
            _fold_results(metrics, results)
        finally:
            progress.finish()
        return results

    # -- caching -----------------------------------------------------------
    def _consult_cache(
        self, keyfn: Callable[[Any], str | None] | None, tasks: list[Any]
    ) -> tuple[list[str | None] | None, dict[int, Any], list[int]]:
        """Split tasks into cache hits and indices still to compute."""
        if self.cache is None or keyfn is None:
            return None, {}, list(range(len(tasks)))
        keys: list[str | None] = [keyfn(task) for task in tasks]
        hits: dict[int, Any] = {}
        pending: list[int] = []
        for i, key in enumerate(keys):
            if key is not None:
                found, value = self.cache.get(key)
                if found:
                    hits[i] = value
                    continue
            pending.append(i)
        return keys, hits, pending

    def _store_results(
        self, keys: list[str | None] | None, pending: list[int], computed: list[Any]
    ) -> int:
        if self.cache is None or keys is None:
            return 0
        stores = 0
        for i, value in zip(pending, computed):
            key = keys[i]
            if key is None:
                continue
            if isinstance(value, BlockResult) and value.stages:
                # stage records describe the compute that just happened;
                # a later hit must not replay them as if it ran stages
                value = replace(value, stages=())
            stores += int(self.cache.put(key, value))
        return stores

    @staticmethod
    def _merge_results(
        n: int, hits: dict[int, Any], pending: list[int], computed: list[Any]
    ) -> list[Any]:
        results: list[Any] = [None] * n
        for i, value in hits.items():
            results[i] = value
        for i, value in zip(pending, computed):
            results[i] = value
        return results

    @staticmethod
    def _emit_run_meters(registry: MetricsRegistry, metrics: RunMetrics) -> None:
        if metrics.cache is not None:
            registry.counter("cache.hit").inc(metrics.cache["hits"])
            registry.counter("cache.miss").inc(metrics.cache["misses"])
            registry.counter("cache.store").inc(metrics.cache["stores"])
        registry.counter("engine.tasks").inc(metrics.n_tasks)
        registry.histogram("engine.run_wall_s").observe(metrics.wall_s)
        for key, n in metrics.funnel.items():
            registry.counter(metric_name("funnel", key)).inc(n)

    # -- resource accounting ------------------------------------------------
    def _payload_snapshot(self) -> dict[str, int] | None:
        """Copy of the executor's cumulative payload counters, if it has any."""
        payload = getattr(self.executor, "payload", None)
        return dict(payload) if isinstance(payload, dict) else None

    def _finish_resources(
        self,
        tracker: ResourceTracker,
        payload_before: dict[str, int] | None,
        *,
        meters: dict[str, Any] | None,
    ) -> dict[str, Any]:
        """Close the run's resource bracket and assemble the summary.

        ``pool`` is the pool payload delta attributable to this run (only
        present when a real pool dispatched); ``workers`` summarises the
        per-worker meters shipped home by :class:`TracedCall` (traced
        runs only — untraced parallel runs have no shipping envelope).
        """
        res = tracker.summary()
        payload_after = self._payload_snapshot()
        if payload_after is not None and payload_before is not None:
            delta = {
                k: payload_after.get(k, 0) - payload_before.get(k, 0)
                for k in payload_after
            }
            if delta.get("maps", 0) > 0:
                res["pool"] = {
                    key: delta.get(key, 0)
                    for key in ("fn_bytes", "task_bytes", "result_bytes", "maps")
                }
        if meters is not None:
            workers: dict[str, Any] = {}
            cpu = meters.get("resources.worker.cpu_s")
            if cpu is not None:
                workers["cpu_s"] = cpu.get("sum", 0.0)
                workers["tasks"] = cpu.get("count", 0)
            rss = meters.get("resources.worker.rss_peak_bytes")
            if rss is not None:
                workers["rss_peak_bytes"] = int(rss.get("value", 0))
            if workers:
                res["workers"] = workers
        return res

    @staticmethod
    def _emit_resource_meters(registry: MetricsRegistry, res: dict[str, Any]) -> None:
        registry.histogram("resources.cpu_s").observe(res.get("cpu_s", 0.0))
        registry.max_gauge("resources.rss_peak_bytes").set(res.get("rss_peak_bytes", 0))

    # -- dispatch -----------------------------------------------------------
    def _dispatch(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        traced: "_TracedDispatch | None",
    ) -> list[Any]:
        """Run ``fn`` over ``tasks``: one call per block range for range
        jobs (flattened back to one result per task), one per task
        otherwise."""
        if not getattr(fn, "range_job", False):
            return self._map_tasks(fn, tasks, traced, ranged=False)
        workers = getattr(self.executor, "workers", 1)
        ranges = _block_ranges(tasks, workers)
        return [
            result
            for results in self._map_tasks(fn, ranges, traced, ranged=True)
            for result in results
        ]

    def _map_tasks(
        self,
        fn: Callable[[Any], Any],
        tasks: list[Any],
        traced: "_TracedDispatch | None",
        *,
        ranged: bool,
    ) -> list[Any]:
        """One executor fan-out, through :class:`TracedCall` when traced.

        Every completed result ticks the ambient progress emitter by the
        blocks it covers — the range length for block-range tasks, 1
        otherwise — so ``done`` converges to the task total exactly once
        per block.
        """
        progress = get_progress()

        def weigh(result: Any) -> int:
            return len(result) if ranged else 1

        def on_result(result: Any) -> None:
            progress.tick(weigh(result))

        if traced is None:
            return self.executor.map(fn, tasks, on_result)
        call = TracedCall(
            fn=fn,
            trace_id=traced.tracer.trace_id,
            parent_id=traced.parent_id,
            ranged=ranged,
        )

        def on_shipped(shipped: Any) -> None:
            progress.tick(weigh(shipped.value))

        shipped = self.executor.map(call, tasks, on_shipped)
        values = []
        for s in shipped:
            traced.tracer.adopt(s.spans)
            traced.registry.merge(s.meters)
            values.append(s.value)
        return values


def default_engine() -> CampaignEngine:
    """Engine for callers that did not pick one: ``REPRO_WORKERS`` decides.

    ``REPRO_WORKERS`` unset, empty, ``0`` or ``1`` means serial; any
    larger value selects a process pool of that size.  A value that is
    not an integer, or is negative, also runs serial — but loudly, via
    ``warnings.warn``, instead of silently ignoring the setting.  The
    CLI's ``--workers N`` flag sets this variable for the whole run.

    ``REPRO_CACHE=DIR`` (the CLI's ``--cache DIR``) additionally attaches
    the content-addressed analysis cache rooted at that directory.

    ``REPRO_SHARDS`` (the CLI's ``--shards N``) is resolved by the
    engine itself: each run streams through N contiguous shards with
    results spilled to disk between them, bounding coordinator RSS.
    """
    raw = envconfig.raw("REPRO_WORKERS")
    workers = 1
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            warnings.warn(
                f"REPRO_WORKERS={raw!r} is not an integer; running serial",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
        if workers < 0:
            warnings.warn(
                f"REPRO_WORKERS={raw!r} is negative; clamping to serial",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1
    cache = default_cache()
    if workers <= 1:
        return CampaignEngine(SerialExecutor(), cache)
    return CampaignEngine(ParallelExecutor(workers=workers), cache)
