"""Streaming dataset builder: simulate, observe, analyze, tabulate.

The builder glues the substrate to the pipeline: for each block of a
:class:`~repro.net.world.WorldModel` it generates ground truth, runs the
requested observers over a dataset window (with per-path loss models),
and hands the probe logs to a :class:`~repro.core.pipeline.BlockPipeline`.

Every probe log is a pure function of the block, the observer and the
window: each request simulates exactly the window asked for, so what a
builder returns never depends on what it was asked before.  The only
state kept between calls is the last truth built, reused when the same
(block, window) is asked for again.
"""

from __future__ import annotations

import time
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
from ..net.prober import AdditionalProber, ProbeLane, Prober, TrinocularObserver, probe_order
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
    ) -> None:
        """``observer_style`` picks the probing algorithm: "adaptive" is
        the paper's stop-at-first-positive description; "bayesian" is the
        full belief-driven Trinocular of [71] (see repro.net.bayesian)."""
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
        self._last_truth: tuple[tuple[BlockSpec, float, float], BlockTruth] | None = None

    # -- simulation -------------------------------------------------------
    def truth(self, spec: BlockSpec, start_s: float, duration_s: float) -> BlockTruth:
        """Ground truth over ``[start_s, start_s+duration_s)``.

        Its columns start at the one covering ``start_s``.  The last
        truth built is kept, so asking again for the same block and
        window (as :meth:`observe_dataset` does after it) reuses it.
        """
        key = (spec, start_s, duration_s)
        if self._last_truth is None or self._last_truth[0] != key:
            self._last_truth = (key, self.world.truth(spec, duration_s, start_s=start_s))
        return self._last_truth[1]

    def observe(
        self, spec: BlockSpec, observer: str, start_s: float, duration_s: float
    ) -> ObservationSeries:
        """One observer's probe log over ``[start_s, start_s+duration_s)``."""
        truth = self.truth(spec, *self._lane_window(start_s, duration_s))
        order = probe_order(truth.n_addresses, spec.seed)
        lane = self._lane(spec, observer, truth, order, start_s, duration_s)
        return lane.observe().slice_time(start_s, start_s + duration_s)

    def _lane_window(self, start_s: float, duration_s: float) -> tuple[float, float]:
        """(start, duration) of the truth a block's lanes probe: the window
        itself, except under Bayesian probing, whose availability estimate
        averages the whole truth it is given and so reads one from time zero."""
        if self.observer_style == "bayesian":
            return 0.0, start_s + duration_s
        return start_s, duration_s

    def _lane(
        self,
        spec: BlockSpec,
        observer: str,
        truth: BlockTruth,
        order: np.ndarray,
        start_s: float,
        duration_s: float,
    ) -> ProbeLane:
        """One observer's probing of one block, seeded per (block, observer).

        The Trinocular sites start their cursors at independent positions
        in ``order``; the additional prober starts at its head, and the
        survey walks E(b) in address order.
        """
        stream = _observer_stream(observer)
        cursor = 0
        prober: Prober
        if observer in self.observers:
            prober = self.observers[observer]
            cursor_rng = np.random.default_rng([spec.seed, 0xD, stream])
            cursor = int(cursor_rng.integers(truth.n_addresses))
        elif observer == "a":
            prober = self.additional
        elif observer == "survey":
            prober = self.survey
            order = np.arange(truth.n_addresses)
        else:
            raise KeyError(f"unknown observer: {observer!r}")
        return ProbeLane(
            prober,
            truth,
            order,
            self.world.loss_model(spec, observer),
            np.random.default_rng([spec.seed, 0xC, stream]),
            start_s=start_s,
            duration_s=duration_s,
            start_cursor=cursor,
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
        """:meth:`reconstruct_blocks` for one block."""
        ctxs = None if ctx is None else [ctx]
        return self.reconstruct_blocks([spec], ds, pipeline, ctxs=ctxs)[0]

    def reconstruct_blocks(
        self,
        specs: Sequence[BlockSpec],
        ds: DatasetSpec | str,
        pipeline: BlockPipeline | None = None,
        *,
        ctxs: Sequence[StageContext] | None = None,
        block_scope: Callable[[BlockSpec], AbstractContextManager[Any]] | None = None,
    ) -> list[Reconstruction]:
        """Simulate a range of blocks' observers and reconstruct their counts.

        This is the front half of :meth:`analyze_block` (truth, simulate,
        repair, combine, reconstruct): it returns each spec's
        reconstruction and records its stages into ``ctxs[i]``.  The range
        splits into consecutive batches whose next-active tables fit
        :data:`LOCKSTEP_TABLE_BYTES`.  Per batch, each block's truth is
        built and its (block, observer) lanes seeded as :meth:`_lane`
        seeds them; truths stream in one block at a time, so a batch never
        holds all of them.  The batch is probed, then each block's probe
        logs are repaired, combined and reconstructed before the next
        block's.

        An adaptive batch of at least :data:`LOCKSTEP_MIN_LANES` Trinocular
        lanes is probed up front by one
        :meth:`TrinocularObserver.observe_batch` call; any other batch
        probes each lane through its own ``observe`` as its block comes up.
        A block's ``truth`` record carries its own truth generation, and
        its ``simulate`` record its share of the batch call (less the
        truths) plus its own probing and log assembly.

        ``block_scope(spec)`` is entered around each block's own work
        (the engine opens its per-block trace span there).
        """
        ds = dataset(ds) if isinstance(ds, str) else ds
        pipeline = pipeline or self.pipeline
        ctxs = list(ctxs) if ctxs is not None else [StageContext() for _ in specs]
        scope = block_scope or (lambda spec: nullcontext())
        start = ds.start_s(self.world.epoch)
        end = start + ds.duration_s
        grid = start + np.arange(int(ds.duration_s / ROUND_SECONDS)) * ROUND_SECONDS
        truth_start, truth_duration = self._lane_window(start, ds.duration_s)
        sites = self.observer_style == "adaptive" and all(
            name in self.observers for name in ds.observers
        )
        out: list[Reconstruction] = []
        for batch in self._probe_batches(specs, ds):
            truths: list[tuple[np.ndarray, float, float]] = []  # per block: E(b), wall, cpu

            def lanes() -> Iterator[ProbeLane]:
                for spec in batch:
                    t0, cpu0 = time.perf_counter(), thread_cpu_seconds()
                    # built here, not through the truth memo: the kernel
                    # keeps only its table, so no truth outlives its block
                    truth = self.world.truth(spec, truth_duration, start_s=truth_start)
                    truths.append(
                        (truth.addresses, time.perf_counter() - t0, thread_cpu_seconds() - cpu0)
                    )
                    order = probe_order(truth.n_addresses, spec.seed)
                    for name in ds.observers:
                        yield self._lane(spec, name, truth, order, start, ds.duration_s)

            lockstep = sites and len(batch) * len(ds.observers) >= LOCKSTEP_MIN_LANES
            batch_grid = grid.copy()
            t0, cpu0 = time.perf_counter(), thread_cpu_seconds()
            if lockstep:
                logs = TrinocularObserver.observe_batch(lanes())
            else:
                logs = (lane.observe() for lane in lanes())
            shared_s = (time.perf_counter() - t0 - sum(t[1] for t in truths)) / len(batch)
            shared_cpu = (thread_cpu_seconds() - cpu0 - sum(t[2] for t in truths)) / len(batch)
            for i, spec in enumerate(batch):
                ctx = ctxs[len(out)]
                with scope(spec):
                    t0, cpu0 = time.perf_counter(), thread_cpu_seconds()
                    block_logs = [next(logs).slice_time(start, end) for _ in ds.observers]
                    wall_s, cpu_s = time.perf_counter() - t0, thread_cpu_seconds() - cpu0
                    addrs, truth_s, truth_cpu = truths[i]
                    if not lockstep:  # this block's truth was built while probing it
                        wall_s, cpu_s = wall_s - truth_s, cpu_s - truth_cpu
                    ctx.record_batched("truth", wall_s=truth_s, cpu_s=truth_cpu, n_out=addrs.size)
                    ctx.record_batched(
                        "simulate",
                        wall_s=shared_s + wall_s,
                        cpu_s=shared_cpu + cpu_s,
                        n_out=sum(len(log) for log in block_logs),
                        n_batch=len(batch) if lockstep else 1,
                    )
                    per_observer = pipeline.stage_repair(block_logs, ctx)
                    merged = pipeline.stage_combine(per_observer, ctx)
                    # a lockstep batch's reconstructions share one sample
                    # grid, other blocks own theirs (pickles show sharing)
                    block_grid = batch_grid if lockstep else grid.copy()
                    out.append(pipeline.stage_reconstruct(merged, addrs, block_grid, ctx))
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
