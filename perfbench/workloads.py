"""The benchmark's workloads, and the two ways each one is computed.

Every workload analyses one fixed synthetic world (``scenario_covid2020``,
``diurnal_boost=3``, world seed 11 unless told otherwise).  ``--seed``
does not change the world: it permutes the order in which the world's
blocks are handed to the engine.  That changes chunking, batch
composition, cache-fill order and which half of the blocks a resumed run
finds cached, but never a block's result, so the detection-quality
metrics repeat bit for bit across seeds.  At the world sizes a run can
afford (a few hundred blocks, a few dozen change-sensitive ones) a new
world per seed would move WFH recall by tens of percent.

Each workload is computed two ways:

* :func:`engine_path` is what a user runs: ``DatasetBuilder.analyze``
  dispatched through a ``CampaignEngine``.  Timed runs measure it.
* :func:`layer_path` calls the same public layer functions the engine's
  jobs call (truth, observe, repair, combine, reconstruct, batched tail,
  aggregation) directly and serially, with a span around each call.  It
  is the traced run and the correctness oracle at once: every engine
  run's per-block results must pickle-equal it.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.aggregate import BlockRecord, GridAggregator
from repro.core.pipeline import BlockAnalysis, BlockPipeline
from repro.core.stages import StageContext
from repro.datasets.builder import (
    DatasetBuilder,
    DatasetResult,
    FunnelCounts,
    block_record,
    unresponsive_analysis,
)
from repro.datasets.catalog import DatasetSpec, dataset
from repro.net.usage import ROUND_SECONDS
from repro.net.world import BlockSpec, WorldModel, scenario_covid2020
from repro.runtime.cache import AnalysisCache
from repro.runtime.engine import CampaignEngine
from repro.runtime.executors import ParallelExecutor, SerialExecutor
from repro.timeseries.series import group_block_matrices

from score import WfhScore, score_wfh
from spans import NULL_SPANS, Spans

WORLD_SEED = 11
DIURNAL_BOOST = 3.0

#: §3.4 protocol windows (as in ``repro.experiments.common``)
BASELINE = "2020m1-ejnw"
WINDOW = "2020h1-ejnw"
#: single-observer quarter of the tail-heavy workloads
QUARTER = "2020q1-w"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which protocol, how big, on which engine."""

    name: str
    protocol: str  # "campaign" (§3.4 two-window protocol) | "quarter"
    n_blocks: int
    workers: int = 1
    shards: int = 1
    resume: bool = False  # runs start from a disk cache holding half the blocks
    sibling: str = ""  # workload with identical inputs and results


# World sizes keep one timed run at a few seconds, so a run holds several.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # the paper's §3.4 headline job on one core: probing dominates and
        # dispatch does nothing
        Workload("campaign-serial", "campaign", 120, sibling="campaign-parallel"),
        # the same job on a 2-worker process pool: the only workload where
        # the executors and the coordinator do work
        Workload("campaign-parallel", "campaign", 120, workers=2, sibling="campaign-serial"),
        # one observer, 12 weeks, detection on every block: the
        # classify/trend/detect tail has its largest share here
        Workload("quarter-tail", "quarter", 240, sibling="quarter-resume"),
        # the quarter job resumed on 2 shards from a disk cache holding half
        # the blocks: the only workload using the cache and the spill
        Workload(
            "quarter-resume", "quarter", 240, shards=2, resume=True, sibling="quarter-tail"
        ),
    )
}


def build_world(workload: Workload, world_seed: int = WORLD_SEED) -> WorldModel:
    return WorldModel(
        scenario_covid2020(),
        n_blocks=workload.n_blocks,
        seed=world_seed,
        diurnal_boost=DIURNAL_BOOST,
    )


def dispatch_order(world: WorldModel, seed: int) -> list[BlockSpec]:
    """The world's blocks in the order ``seed`` hands them to the engine."""
    order = np.random.default_rng(seed).permutation(len(world.blocks))
    return [world.blocks[i] for i in order]


def make_engine(workload: Workload, cache: AnalysisCache | None = None) -> CampaignEngine:
    """The workload's engine, every setting explicit (no ``REPRO_*`` lookups)."""
    executor = (
        ParallelExecutor(workers=workload.workers)
        if workload.workers > 1
        else SerialExecutor()
    )
    return CampaignEngine(executor, cache=cache, batched=True, shards=workload.shards)


@dataclass
class Outcome:
    """What one computation of a workload produced.

    ``analyses`` maps cidr to the detection-window analysis (the quarter
    for quarter workloads); ``baseline`` holds the campaign's baseline
    analyses.  Both may be lazy, disk-backed mappings.
    """

    world: WorldModel
    ds: DatasetSpec
    analyses: Mapping[str, BlockAnalysis]
    baseline: Mapping[str, BlockAnalysis] = field(default_factory=dict)
    change_sensitive: frozenset[str] = frozenset()
    funnel: FunnelCounts = field(default_factory=FunnelCounts)  # first window's
    fractions: dict[str, np.ndarray] | None = None  # campaign aggregation

    def digests(self) -> dict[str, str]:
        """cidr -> sha256 of the block's pickled result(s), one block at a time."""
        out: dict[str, str] = {}
        for spec in self.world.blocks:
            cidr = spec.block.cidr
            h = hashlib.sha256()
            for mapping in (self.baseline, self.analyses):
                if cidr in mapping:
                    h.update(pickle.dumps(mapping[cidr], protocol=pickle.HIGHEST_PROTOCOL))
                else:
                    h.update(b"-")
            out[cidr] = h.hexdigest()
        return out

    def aggregate_digest(self) -> str:
        if self.fractions is None:
            return ""
        items = sorted(self.fractions.items())
        return hashlib.sha256(pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()

    def score(self) -> WfhScore:
        first_day = int(self.ds.start_s(self.world.epoch) // 86_400)
        specs = {spec.block.cidr: spec for spec in self.world.blocks}
        return score_wfh(
            (
                (specs[cidr], _downward_candidates(self.analyses.get(cidr)))
                for cidr in sorted(self.change_sensitive)
            ),
            wfh_dates=self.world.scenario.wfh_dates,
            epoch=self.world.epoch.date(),
            first_day=first_day,
            n_days=int(self.ds.duration_days),
        )


def _downward_candidates(analysis: BlockAnalysis | None) -> tuple[Any, ...]:
    if analysis is None or analysis.changes is None:
        return ()
    return tuple(e for e in analysis.changes.human_candidates if e.is_downward)


def _campaign_aggregate(
    world: WorldModel,
    baseline: Mapping[str, BlockAnalysis],
    windowed: Mapping[str, BlockAnalysis],
    ds: DatasetSpec,
) -> dict[str, np.ndarray]:
    """Aggregation step of the §3.4 protocol (as ``experiments.common``)."""
    records: list[BlockRecord] = []
    for spec in world.blocks:
        cidr = spec.block.cidr
        analysis = windowed.get(cidr)
        if analysis is not None:
            records.append(
                block_record(spec, analysis, responsive=True, change_sensitive=True)
            )
        else:
            base = baseline.get(cidr)
            records.append(
                BlockRecord(
                    geo=spec.geo,
                    responsive=base is not None and base.classification.responsive,
                    change_sensitive=False,
                )
            )
    agg = GridAggregator().add_all(records)
    first_day = int(ds.start_s(world.epoch) // 86_400)
    return agg.continent_daily_fractions(first_day, int(ds.duration_days))


def _cs_targets(
    tasks: Sequence[BlockSpec], baseline: Mapping[str, BlockAnalysis]
) -> list[BlockSpec]:
    """Blocks the baseline calls change-sensitive, in dispatch order."""
    return [
        spec
        for spec in tasks
        if baseline[spec.block.cidr].is_change_sensitive
        and baseline[spec.block.cidr].classification.responsive
    ]


# ---------------------------------------------------------------------------
# the engine path: what users run
# ---------------------------------------------------------------------------
def engine_path(
    workload: Workload,
    world: WorldModel,
    tasks: Sequence[BlockSpec],
    engine: CampaignEngine,
) -> Outcome:
    """Run the workload the way its users do; results consumed before return."""
    builder = DatasetBuilder(world)
    if workload.protocol == "quarter":
        ds = dataset(QUARTER)
        result = builder.analyze(
            ds, blocks=list(tasks), pipeline=BlockPipeline(detect_on_all=True), engine=engine
        )
        return Outcome(
            world=world,
            ds=ds,
            analyses=result.analyses,
            change_sensitive=frozenset(result.change_sensitive()),
            funnel=result.funnel(),
        )
    base = builder.analyze(BASELINE, blocks=list(tasks), engine=engine)
    targets = _cs_targets(tasks, base.analyses)
    ds = dataset(WINDOW)
    windowed = builder.analyze(
        ds, blocks=targets, pipeline=BlockPipeline(detect_on_all=True), engine=engine
    )
    fractions = _campaign_aggregate(world, base.analyses, windowed.analyses, ds)
    return Outcome(
        world=world,
        ds=ds,
        analyses=windowed.analyses,
        baseline=base.analyses,
        change_sensitive=frozenset(t.block.cidr for t in targets),
        funnel=base.funnel(),
        fractions=fractions,
    )


# ---------------------------------------------------------------------------
# the layer path: traced run and correctness oracle
# ---------------------------------------------------------------------------
TAIL_STAGES = ("classify", "trend", "detect")
#: spans of the layers an engine run executes, in pipeline order
ENGINE_LAYERS = (
    "net.usage.truth",
    "net.prober.observe",
    "core.repair",
    "core.combine",
    "core.reconstruction",
    "core.pipeline.tail",
)


def layer_analyze(
    world: WorldModel,
    ds: DatasetSpec,
    tasks: Sequence[BlockSpec],
    pipeline: BlockPipeline,
    tr: Spans = NULL_SPANS,
) -> dict[str, BlockAnalysis]:
    """One dataset window, one public layer call at a time.

    Mirrors the engine's batched jobs: per block a fresh builder
    simulates and reconstructs (firewalled blocks short-circuit), then
    one batched tail call analyses every reconstruction.
    """
    start = ds.start_s(world.epoch)
    grid = start + np.arange(int(ds.duration_s / ROUND_SECONDS)) * ROUND_SECONDS
    out: dict[str, BlockAnalysis] = {}
    keys: list[str] = []
    recons = []
    for spec in tasks:
        cidr = spec.block.cidr
        if not spec.responsive_by_design:
            out[cidr] = unresponsive_analysis()
            continue
        builder = DatasetBuilder(world, pipeline)
        ctx = StageContext()
        with tr.span("net.usage.truth"):
            truth = builder.truth(spec, start, ds.duration_s)
        with tr.span("net.prober.observe"):
            logs = builder.observe_dataset(spec, ds)
        tr.count("net.prober.probes", sum(len(log) for log in logs))
        with tr.span("core.repair"):
            repaired = pipeline.stage_repair(logs, ctx)
        with tr.span("core.combine"):
            merged = pipeline.stage_combine(repaired, ctx)
        with tr.span("core.reconstruction"):
            recon = pipeline.stage_reconstruct(merged, truth.addresses, grid, ctx)
        keys.append(cidr)
        recons.append(recon)
    if recons:
        if tr.enabled:
            groups = group_block_matrices([r.counts for r in recons])
            tr.count("core.pipeline.batches", len(groups))
            tr.count("core.pipeline.batch_rows", len(recons))
        ctxs = [StageContext() for _ in recons]
        with tr.span("core.pipeline.tail"):
            analyses = pipeline.analyze_tail_batch(recons, ctxs)
        for name in TAIL_STAGES:
            tr.count(
                f"core.pipeline.stage.{name}_s",
                sum(r.wall_s for c in ctxs for r in c.records if r.name == name and r.ran),
            )
        out.update(zip(keys, analyses))
    return {spec.block.cidr: out[spec.block.cidr] for spec in tasks}


def layer_path(
    workload: Workload,
    world: WorldModel,
    tasks: Sequence[BlockSpec],
    tr: Spans = NULL_SPANS,
) -> Outcome:
    """The workload computed by direct, serial layer calls."""
    if workload.protocol == "quarter":
        ds = dataset(QUARTER)
        result = DatasetResult(
            spec=ds,
            world=world,
            analyses=layer_analyze(world, ds, tasks, BlockPipeline(detect_on_all=True), tr),
        )
        return Outcome(
            world=world,
            ds=ds,
            analyses=result.analyses,
            change_sensitive=frozenset(result.change_sensitive()),
            funnel=result.funnel(),
        )
    base = layer_analyze(world, dataset(BASELINE), tasks, BlockPipeline(), tr)
    targets = _cs_targets(tasks, base)
    ds = dataset(WINDOW)
    windowed = layer_analyze(world, ds, targets, BlockPipeline(detect_on_all=True), tr)
    with tr.span("core.aggregate"):
        fractions = _campaign_aggregate(world, base, windowed, ds)
    return Outcome(
        world=world,
        ds=ds,
        analyses=windowed,
        baseline=base,
        change_sensitive=frozenset(t.block.cidr for t in targets),
        funnel=DatasetResult(spec=dataset(BASELINE), world=world, analyses=base).funnel(),
        fractions=fractions,
    )


def prefill_cache(world: WorldModel, cache: AnalysisCache) -> None:
    """Leave ``cache`` holding the first half of the world's blocks.

    As an earlier, unsharded run over those blocks would have left it;
    the half is taken in world order, so every dispatch order finds the
    same blocks cached and has the same work left to do.
    """
    half = list(world.blocks[: len(world.blocks) // 2])
    with CampaignEngine(SerialExecutor(), cache=cache, batched=True, shards=1) as engine:
        DatasetBuilder(world).analyze(
            dataset(QUARTER),
            blocks=half,
            pipeline=BlockPipeline(detect_on_all=True),
            engine=engine,
        )


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Spans, n_blocks: int, passes: int = 1) -> dict[str, float]:
    """Per-layer metrics of ``passes`` traced :func:`layer_path` runs.

    Times are per pass and per world block (firewalled blocks included),
    except the world build (once per process) and the aggregation (once
    per pass).
    """
    n = n_blocks * passes
    observe = tr.total("net.prober.observe")
    probes = tr.counts.get("net.prober.probes", 0)
    stage = {name: tr.counts.get(f"core.pipeline.stage.{name}_s", 0.0) for name in TAIL_STAGES}
    return {
        "net.world.build_s": tr.total("net.world.build"),
        "net.usage.truth_s_per_block": tr.total("net.usage.truth") / n,
        "net.prober.observe_s_per_block": observe / n,
        "net.prober.probes_per_block": probes / n,
        "net.prober.ns_per_probe": ratio(observe * 1e9, probes),
        "core.repair.s_per_block": tr.total("core.repair") / n,
        "core.combine.s_per_block": tr.total("core.combine") / n,
        "core.reconstruction.s_per_block": tr.total("core.reconstruction") / n,
        "core.pipeline.tail_s_per_block": tr.total("core.pipeline.tail") / n,
        "core.sensitivity.classify_s_per_block": stage["classify"] / n,
        "core.trend.trend_s_per_block": stage["trend"] / n,
        "core.changes.detect_s_per_block": stage["detect"] / n,
        "core.pipeline.rows_per_batch": ratio(
            tr.counts.get("core.pipeline.batch_rows", 0),
            tr.counts.get("core.pipeline.batches", 0),
        ),
        "core.aggregate.s": tr.total("core.aggregate") / passes,
    }
