"""Streaming dataset builder: simulate, observe, analyze, tabulate.

The builder glues the substrate to the pipeline: for each block of a
:class:`~repro.net.world.WorldModel` it generates ground truth, runs the
requested observers over a dataset window (with per-path loss models),
and hands the probe logs to a :class:`~repro.core.pipeline.BlockPipeline`.

Observations are cached per (block, observer) and *sliced* for narrower
windows — mirroring the paper, which reuses one measurement stream for
every analysis window (quarters, months, halves).  Both caches evict
least-recently-used entries by bytes at rest (array payload size), not
entry count, so a handful of huge blocks cannot balloon memory while
many small blocks still fit; experiments stream block-by-block either
way, and eviction never changes results (evicted windows are
re-simulated deterministically).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core.pipeline import BlockAnalysis, BlockPipeline
from ..core.aggregate import BlockRecord
from ..core.reconstruction import Reconstruction
from ..core.stages import StageContext
from ..net.bayesian import BayesianTrinocularObserver
from ..net.observations import ObservationSeries
from ..net.prober import AdditionalProber, ProbeLane, TrinocularObserver, probe_order
from ..net.survey import SurveyObserver
from ..net.usage import ROUND_SECONDS, BlockTruth
from ..net.world import BlockSpec, WorldModel
from ..obs.resources import thread_cpu_seconds
from ..runtime.engine import CampaignEngine, RunMetrics, default_engine
from ..runtime.jobs import BlockAnalysisJob
from ..runtime.spill import SpilledResults
from .catalog import TRINOCULAR_SITES, DatasetSpec, dataset

__all__ = [
    "LOCKSTEP_MIN_LANES",
    "LOCKSTEP_TABLE_BYTES",
    "DatasetBuilder",
    "DatasetResult",
    "FunnelCounts",
    "SpilledAnalyses",
    "block_record",
    "unresponsive_analysis",
]


#: Next-active table bytes one lockstep probing batch may hold (one byte
#: per probed round column per E(b) address, see
#: :meth:`TrinocularObserver.observe_batch`).  It bounds the range
#: path's extra memory; a block over budget still runs, alone.
LOCKSTEP_TABLE_BYTES = 32 << 20
#: Fewest lanes a batch needs to probe in lockstep.  The round loop's
#: per-round cost is shared by all lanes, so narrower batches probe lane
#: by lane through :meth:`TrinocularObserver.observe` instead.
LOCKSTEP_MIN_LANES = 16


class SpilledAnalyses(Mapping[str, BlockAnalysis]):
    """Lazy cidr → :class:`BlockAnalysis` view over spilled engine results.

    A sharded :meth:`DatasetBuilder.analyze` run keeps its per-block
    results on disk (:class:`~repro.runtime.spill.SpilledResults`);
    materialising ``{cidr: analysis}`` would pull the whole world back
    into RAM and defeat the point.  This mapping rehydrates exactly one
    block's analysis per lookup, and iterating items in key order walks
    the spill shards sequentially.  ``dict(analyses)`` still works for
    callers that want the eager behaviour on a small subset.
    """

    def __init__(self, keys: Sequence[str], results: "Sequence[Any]") -> None:
        self._keys = list(keys)
        self._results = results
        self._index = {key: i for i, key in enumerate(self._keys)}

    def __getitem__(self, key: str) -> BlockAnalysis:
        analysis = self._results[self._index[key]].analysis
        assert isinstance(analysis, BlockAnalysis)
        return analysis

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._index


@dataclass(frozen=True)
class FunnelCounts:
    """Table 2's per-dataset filtering funnel."""

    routed: int = 0
    not_responsive: int = 0
    responsive: int = 0
    not_diurnal: int = 0
    diurnal: int = 0
    narrow_swing: int = 0
    wide_swing: int = 0
    not_change_sensitive: int = 0
    change_sensitive: int = 0

    @property
    def change_sensitive_fraction(self) -> float:
        """Share of responsive blocks that are change-sensitive."""
        return self.change_sensitive / self.responsive if self.responsive else 0.0

    def rows(self) -> list[tuple[str, int]]:
        """(label, count) rows in Table 2 order."""
        return [
            ("routed blocks", self.routed),
            ("not responsive", self.not_responsive),
            ("responsive", self.responsive),
            ("not diurnal", self.not_diurnal),
            ("diurnal", self.diurnal),
            ("narrow swing", self.narrow_swing),
            ("wide swing", self.wide_swing),
            ("not change-sensitive", self.not_change_sensitive),
            ("change-sensitive", self.change_sensitive),
        ]


@dataclass
class DatasetResult:
    """All per-block analyses for one dataset window.

    ``analyses`` is a plain dict for in-memory runs and a lazy
    :class:`SpilledAnalyses` view for sharded runs — both map cidr to
    analysis and iterate in block order."""

    spec: DatasetSpec
    world: WorldModel
    analyses: Mapping[str, BlockAnalysis] = field(default_factory=dict)  # key: cidr
    block_specs: dict[str, BlockSpec] = field(default_factory=dict)
    metrics: RunMetrics | None = None  # instrumentation of the engine run

    def funnel(self) -> FunnelCounts:
        routed = len(self.analyses)
        responsive = diurnal = wide = cs = 0
        for analysis in self.analyses.values():
            c = analysis.classification
            if not c.responsive:
                continue
            responsive += 1
            diurnal += int(c.is_diurnal)
            wide += int(c.is_wide_swing)
            cs += int(c.is_change_sensitive)
        return FunnelCounts(
            routed=routed,
            not_responsive=routed - responsive,
            responsive=responsive,
            not_diurnal=responsive - diurnal,
            diurnal=diurnal,
            narrow_swing=responsive - wide,
            wide_swing=wide,
            not_change_sensitive=responsive - cs,
            change_sensitive=cs,
        )

    def records(self) -> list[BlockRecord]:
        """Aggregation records (geolocation + change days) per block."""
        return [
            block_record(self.block_specs[cidr], analysis)
            for cidr, analysis in self.analyses.items()
        ]

    def change_sensitive(self) -> list[str]:
        return [c for c, a in self.analyses.items() if a.is_change_sensitive]


class DatasetBuilder:
    """Simulates observers over a world and runs the analysis pipeline."""

    def __init__(
        self,
        world: WorldModel,
        pipeline: BlockPipeline | None = None,
        *,
        observer_style: str = "adaptive",
        cache_blocks: int = 4,
        cache_bytes: int | None = None,
    ) -> None:
        """``observer_style`` picks the probing algorithm: "adaptive" is
        the paper's stop-at-first-positive description; "bayesian" is the
        full belief-driven Trinocular of [71] (see repro.net.bayesian).

        ``cache_bytes`` bounds each of the truth and observation caches
        by total array bytes at rest; when None it defaults to
        ``cache_blocks`` x 8 MiB — roomy enough that the legacy
        "last few blocks" working set never evicts early."""
        self.world = world
        self.pipeline = pipeline or BlockPipeline()
        if observer_style == "adaptive":
            observer_cls = TrinocularObserver
        elif observer_style == "bayesian":
            observer_cls = BayesianTrinocularObserver
        else:
            raise ValueError(f"unknown observer_style: {observer_style!r}")
        self.observer_style = observer_style
        self.observers = {
            name: observer_cls(name, phase_offset_s=phase)
            for name, phase in TRINOCULAR_SITES.items()
        }
        self.additional = AdditionalProber(name="a", phase_offset_s=601.0)
        self.survey = SurveyObserver(name="survey", phase_offset_s=0.0)
        self._cache_blocks = cache_blocks
        self._cache_bytes = (
            cache_blocks * 8 * 1024 * 1024 if cache_bytes is None else cache_bytes
        )
        self._obs_cache: OrderedDict[tuple[str, str], tuple[float, float, ObservationSeries]] = (
            OrderedDict()
        )
        self._truth_cache: OrderedDict[str, tuple[float, BlockTruth]] = OrderedDict()
        self._obs_cache_bytes = 0
        self._truth_cache_bytes = 0

    # -- simulation -------------------------------------------------------
    @staticmethod
    def _truth_nbytes(truth: BlockTruth) -> int:
        return truth.addresses.nbytes + truth.active.nbytes + truth.col_times.nbytes

    @staticmethod
    def _series_nbytes(series: ObservationSeries) -> int:
        n = series.times.nbytes + series.addresses.nbytes + series.results.nbytes
        if series.sources is not None:
            n += series.sources.nbytes
        return n

    def truth(self, spec: BlockSpec, start_s: float, duration_s: float) -> BlockTruth:
        """Ground truth covering at least ``[0, start+duration)``, cached."""
        end = start_s + duration_s
        cached = self._truth_cache.get(spec.block.cidr)
        if cached is not None and cached[0] >= end:
            self._truth_cache.move_to_end(spec.block.cidr)
            return cached[1]
        truth = self.world.truth(spec, end)
        if cached is not None:
            self._truth_cache_bytes -= self._truth_nbytes(cached[1])
        self._truth_cache[spec.block.cidr] = (end, truth)
        self._truth_cache.move_to_end(spec.block.cidr)
        self._truth_cache_bytes += self._truth_nbytes(truth)
        # evict coldest-first by bytes at rest, always keeping the newest
        while self._truth_cache_bytes > self._cache_bytes and len(self._truth_cache) > 1:
            _, (_, old) = self._truth_cache.popitem(last=False)
            self._truth_cache_bytes -= self._truth_nbytes(old)
        return truth

    def observe(
        self, spec: BlockSpec, observer: str, start_s: float, duration_s: float
    ) -> ObservationSeries:
        """One observer's probe log for a window (cached + sliced)."""
        key = (spec.block.cidr, observer)
        end_s = start_s + duration_s
        cached = self._obs_cache.get(key)
        if cached is not None and cached[0] <= start_s and cached[1] >= end_s:
            self._obs_cache.move_to_end(key)
            return cached[2].slice_time(start_s, end_s)

        sim_start = start_s if cached is None else min(cached[0], start_s)
        sim_end = end_s if cached is None else max(cached[1], end_s)
        series = self._simulate(spec, observer, sim_start, sim_end - sim_start)
        if cached is not None:
            self._obs_cache_bytes -= self._series_nbytes(cached[2])
        self._obs_cache[key] = (sim_start, sim_end, series)
        self._obs_cache.move_to_end(key)
        self._obs_cache_bytes += self._series_nbytes(series)
        while self._obs_cache_bytes > self._cache_bytes and len(self._obs_cache) > 1:
            _, (_, _, old) = self._obs_cache.popitem(last=False)
            self._obs_cache_bytes -= self._series_nbytes(old)
        return series.slice_time(start_s, end_s)

    def _simulate(
        self, spec: BlockSpec, observer: str, start_s: float, duration_s: float
    ) -> ObservationSeries:
        truth = self.truth(spec, start_s, duration_s)
        order = probe_order(truth.n_addresses, spec.seed)
        if observer not in ("survey", "a"):
            return self._lane(spec, observer, truth, order, start_s, duration_s).observe()
        rng = np.random.default_rng([spec.seed, 0xC, _observer_stream(observer)])
        loss = self.world.loss_model(spec, observer)
        if observer == "survey":
            return self.survey.observe(
                truth, None, loss, rng, start_s=start_s, duration_s=duration_s
            )
        return self.additional.observe(
            truth, order, loss, rng, start_s=start_s, duration_s=duration_s
        )

    def _lane(
        self,
        spec: BlockSpec,
        observer: str,
        truth: BlockTruth,
        order: np.ndarray,
        start_s: float,
        duration_s: float,
    ) -> ProbeLane:
        """One site's probing of one block, seeded per (block, site)."""
        stream = _observer_stream(observer)
        # each observer starts its cursor at an independent position
        cursor = np.random.default_rng([spec.seed, 0xD, stream]).integers(truth.n_addresses)
        return ProbeLane(
            self.observers[observer],
            truth,
            order,
            self.world.loss_model(spec, observer),
            np.random.default_rng([spec.seed, 0xC, stream]),
            start_s=start_s,
            duration_s=duration_s,
            start_cursor=int(cursor),
        )

    def observe_dataset(
        self, spec: BlockSpec, ds: DatasetSpec | str
    ) -> list[ObservationSeries]:
        """All of a dataset's observer logs for one block."""
        ds = dataset(ds) if isinstance(ds, str) else ds
        start = ds.start_s(self.world.epoch)
        return [self.observe(spec, obs, start, ds.duration_s) for obs in ds.observers]

    # -- analysis -----------------------------------------------------------
    def reconstruct_block(
        self,
        spec: BlockSpec,
        ds: DatasetSpec | str,
        pipeline: BlockPipeline | None = None,
        *,
        ctx: StageContext | None = None,
    ) -> Reconstruction:
        """Simulate one block's observers and reconstruct its count series.

        This is the front half of :meth:`analyze_block` (truth, simulate,
        repair, combine, reconstruct).  :meth:`reconstruct_blocks` runs
        it for a block range, probing the range in lockstep.
        """
        ds = dataset(ds) if isinstance(ds, str) else ds
        pipeline = pipeline or self.pipeline
        ctx = ctx if ctx is not None else StageContext()
        start = ds.start_s(self.world.epoch)
        with ctx.stage("truth") as active:
            truth = self.truth(spec, start, ds.duration_s)
            active.n_out = truth.n_addresses
        with ctx.stage("simulate") as active:
            logs = self.observe_dataset(spec, ds)
            active.n_out = sum(len(log) for log in logs)
        grid = start + np.arange(int(ds.duration_s / ROUND_SECONDS)) * ROUND_SECONDS
        per_observer = pipeline.stage_repair(logs, ctx)
        merged = pipeline.stage_combine(per_observer, ctx)
        return pipeline.stage_reconstruct(merged, truth.addresses, grid, ctx)

    def reconstruct_blocks(
        self,
        specs: Sequence[BlockSpec],
        ds: DatasetSpec | str,
        pipeline: BlockPipeline | None = None,
        *,
        ctxs: Sequence[StageContext] | None = None,
        block_scope: Callable[[BlockSpec], AbstractContextManager[Any]] | None = None,
    ) -> list[Reconstruction]:
        """:meth:`reconstruct_block` for a range of blocks, probed in lockstep.

        Returns each spec's reconstruction, equal to what
        :meth:`reconstruct_block` returns for it, and records the same
        stages into ``ctxs[i]``.  The range splits into consecutive
        batches whose next-active tables fit :data:`LOCKSTEP_TABLE_BYTES`;
        a batch's (block, observer) lanes, seeded as :meth:`_simulate`
        seeds them, run through one
        :meth:`TrinocularObserver.observe_batch` call.  Then each block's
        probe logs are assembled and repaired, combined and
        reconstructed before the next block's.  A block's ``truth``
        record carries its own truth generation, and its ``simulate``
        record its share of the batch's probing time (the batch's wall
        less its truths) plus its own log assembly.  Batches narrower than
        :data:`LOCKSTEP_MIN_LANES` lanes, and observers other than the
        adaptive Trinocular sites, go block by block.

        ``block_scope(spec)`` is entered around each block's own work
        (the engine opens its per-block trace span there).
        """
        ds = dataset(ds) if isinstance(ds, str) else ds
        pipeline = pipeline or self.pipeline
        ctxs = list(ctxs) if ctxs is not None else [StageContext() for _ in specs]
        scope = block_scope or (lambda spec: nullcontext())
        lockstep = self.observer_style == "adaptive" and all(
            name in self.observers for name in ds.observers
        )
        out: list[Reconstruction] = []
        for batch in self._probe_batches(specs, ds):
            batch_ctxs = ctxs[len(out) : len(out) + len(batch)]
            if lockstep and len(batch) * len(ds.observers) >= LOCKSTEP_MIN_LANES:
                out.extend(self._reconstruct_lockstep(batch, ds, pipeline, batch_ctxs, scope))
                continue
            for spec, ctx in zip(batch, batch_ctxs):
                with scope(spec):
                    out.append(self.reconstruct_block(spec, ds, pipeline, ctx=ctx))
        return out

    def _probe_batches(
        self, specs: Sequence[BlockSpec], ds: DatasetSpec
    ) -> Iterator[list[BlockSpec]]:
        """Consecutive runs of ``specs`` whose tables fit the byte budget."""
        n_cols = int(ds.duration_s // ROUND_SECONDS) + 2
        batch: list[BlockSpec] = []
        held = 0
        for spec in specs:
            nbytes = n_cols * self.world.usage_model(spec).eb_size()
            if batch and held + nbytes > LOCKSTEP_TABLE_BYTES:
                yield batch
                batch, held = [], 0
            batch.append(spec)
            held += nbytes
        if batch:
            yield batch

    def _reconstruct_lockstep(
        self,
        batch: list[BlockSpec],
        ds: DatasetSpec,
        pipeline: BlockPipeline,
        ctxs: Sequence[StageContext],
        scope: Callable[[BlockSpec], AbstractContextManager[Any]],
    ) -> list[Reconstruction]:
        start = ds.start_s(self.world.epoch)
        end = start + ds.duration_s
        grid = start + np.arange(int(ds.duration_s / ROUND_SECONDS)) * ROUND_SECONDS
        addresses: list[np.ndarray] = []
        truth_times: list[tuple[float, float]] = []  # per block: (wall, cpu)

        def lanes() -> Iterator[ProbeLane]:
            # truths stream in one block at a time: the kernel keeps only
            # its table, so a batch never holds all of them.  Uncached
            # (as a fresh per-block builder would be), and built over the
            # window only: the columns of self.truth(spec, start, duration)
            # from the one covering ``start`` on.
            for spec in batch:
                t0, cpu0 = time.perf_counter(), thread_cpu_seconds()
                truth = self.world.truth(spec, ds.duration_s, start_s=start)
                truth_times.append((time.perf_counter() - t0, thread_cpu_seconds() - cpu0))
                addresses.append(truth.addresses)
                order = probe_order(truth.n_addresses, spec.seed)
                for name in ds.observers:
                    yield self._lane(spec, name, truth, order, start, ds.duration_s)

        t0, cpu0 = time.perf_counter(), thread_cpu_seconds()
        logs = TrinocularObserver.observe_batch(lanes())
        shared_s = (time.perf_counter() - t0 - sum(w for w, _ in truth_times)) / len(batch)
        shared_cpu = (thread_cpu_seconds() - cpu0 - sum(c for _, c in truth_times)) / len(batch)
        out: list[Reconstruction] = []
        for spec, ctx, addrs, (truth_s, truth_cpu) in zip(batch, ctxs, addresses, truth_times):
            with scope(spec):
                ctx.record_batched("truth", wall_s=truth_s, cpu_s=truth_cpu, n_out=addrs.size)
                t0, cpu0 = time.perf_counter(), thread_cpu_seconds()
                block_logs = [next(logs).slice_time(start, end) for _ in ds.observers]
                ctx.record_batched(
                    "simulate",
                    wall_s=shared_s + time.perf_counter() - t0,
                    cpu_s=shared_cpu + thread_cpu_seconds() - cpu0,
                    n_out=sum(len(log) for log in block_logs),
                    n_batch=len(batch),
                )
                per_observer = pipeline.stage_repair(block_logs, ctx)
                merged = pipeline.stage_combine(per_observer, ctx)
                out.append(pipeline.stage_reconstruct(merged, addrs, grid, ctx))
        return out

    def analyze_block(
        self,
        spec: BlockSpec,
        ds: DatasetSpec | str,
        pipeline: BlockPipeline | None = None,
        *,
        ctx: StageContext | None = None,
    ) -> BlockAnalysis:
        """Run the pipeline on one block for one dataset window."""
        pipeline = pipeline or self.pipeline
        ctx = ctx if ctx is not None else StageContext()
        recon = self.reconstruct_block(spec, ds, pipeline, ctx=ctx)
        return pipeline.analyze_tail(recon, ctx)

    def analyze(
        self,
        ds: DatasetSpec | str,
        *,
        blocks: list[BlockSpec] | None = None,
        pipeline: BlockPipeline | None = None,
        engine: CampaignEngine | None = None,
    ) -> DatasetResult:
        """Analyze a whole dataset (all world blocks unless given).

        Blocks are dispatched through ``engine`` (the ``REPRO_WORKERS``
        default when not given) to one :class:`BlockAnalysisJob`, which
        the engine calls once per contiguous block range; firewalled
        blocks short-circuit inside the job.  The engine's
        :class:`~repro.runtime.engine.RunMetrics` lands on the returned
        result.
        """
        ds = dataset(ds) if isinstance(ds, str) else ds
        blocks = list(self.world.blocks) if blocks is None else blocks
        engine = engine if engine is not None else default_engine()
        job = BlockAnalysisJob(
            world=self.world,
            ds=ds,
            pipeline=pipeline or self.pipeline,
            observer_style=self.observer_style,
        )
        run = engine.run(job, blocks, label=f"analyze:{ds.name}")
        result = DatasetResult(spec=ds, world=self.world, metrics=run.metrics)
        if isinstance(run.results, SpilledResults):
            # sharded run: results live on disk — expose a lazy view
            # instead of rehydrating the whole world into one dict
            # (jobs key results by cidr, so keys come from the specs)
            keys = [spec.block.cidr for spec in blocks]
            result.analyses = SpilledAnalyses(keys, run.results)
            result.block_specs = dict(zip(keys, blocks))
            return result
        analyses: dict[str, BlockAnalysis] = {}
        for spec, block_result in zip(blocks, run.results):
            analyses[block_result.key] = block_result.analysis
            result.block_specs[block_result.key] = spec
        result.analyses = analyses
        return result

    # -- block statistics ----------------------------------------------------
    def availability(self, spec: BlockSpec, start_s: float, duration_s: float) -> float:
        """Long-run availability A: mean activity over E(b) and time (§3.2.3)."""
        truth = self.truth(spec, start_s, duration_s)
        if not truth.n_cols:
            return 0.0
        lo = truth.column_of(start_s)
        hi = truth.column_of(start_s + duration_s - 1.0) + 1
        window = truth.active[:, lo:hi]
        return float(window.mean()) if window.size else 0.0


def _observer_stream(observer: str) -> int:
    """Stable small integer per observer name for seeding."""
    return sum(ord(ch) << (8 * i) for i, ch in enumerate(observer[:4]))


def block_record(
    spec: BlockSpec,
    analysis: BlockAnalysis,
    *,
    responsive: bool | None = None,
    change_sensitive: bool | None = None,
) -> BlockRecord:
    """The aggregation record for one analyzed block.

    ``responsive``/``change_sensitive`` override the analysis's own
    classification — campaign runs label blocks by their *baseline*
    verdict while the change days come from the detection window.
    """
    return BlockRecord(
        geo=spec.geo,
        responsive=(
            analysis.classification.responsive if responsive is None else responsive
        ),
        change_sensitive=(
            analysis.is_change_sensitive
            if change_sensitive is None
            else change_sensitive
        ),
        downward_days=analysis.downward_change_days(),
        upward_days=analysis.upward_change_days(),
    )


def unresponsive_analysis() -> BlockAnalysis:
    """A constant analysis object for blocks that never answer probes."""
    from ..core.reconstruction import Reconstruction
    from ..core.sensitivity import BlockClassification
    from ..timeseries.series import TimeSeries

    empty = TimeSeries(np.array([]), np.array([]))
    return BlockAnalysis(
        reconstruction=Reconstruction(
            counts=empty,
            complete_time_s=float("nan"),
            eb_size=0,
            observed_addresses=np.array([], dtype=np.int16),
        ),
        classification=BlockClassification(responsive=False, diurnal=None, swing=None),
        trend=None,
        changes=None,
    )
