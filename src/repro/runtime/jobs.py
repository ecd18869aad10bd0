"""Picklable per-block task callables dispatched by the engine.

A job is a frozen dataclass whose fields are the deterministic inputs
(world, dataset window, pipeline config) and whose ``__call__`` runs one
block end to end.  Frozen dataclasses pickle cheaply, so the same job
object is shipped once per chunk to pool workers; each call constructs
its own :class:`~repro.datasets.builder.DatasetBuilder`, which keeps
results byte-identical between serial and parallel execution (no shared
mutable caches).

The batched dispatch path splits :class:`BlockAnalysisJob` in two via
:meth:`BlockAnalysisJob.batched_split`: a :class:`BlockReconstructJob`
that simulates and reconstructs a contiguous block range (probing its
blocks in lockstep) and a :class:`BatchTailJob` that runs the analysis
tail — classify, trend, detect — over a whole chunk of reconstructions
at once through the batched columnar kernels.

Jobs are transport-agnostic: under the shared-memory tier
(:class:`~repro.runtime.executors.SharedMemoryExecutor`) the large
arrays inside a task — a tail chunk's reconstruction series, notably —
arrive as read-only zero-copy views attached from shm segments instead
of unpickled copies.  That is safe precisely because jobs only ever
*read* their inputs (every kernel copies before mutating), and it is
why lint REP003 forbids ``*Job`` classes from capturing live
``SharedMemory`` handles or memoryviews: a job may carry only plain
data and :class:`~repro.runtime.shm.ArrayDescriptor`-style records, so
the same pickled job works on every executor.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.pipeline import BlockPipeline
from ..core.reconstruction import Reconstruction
from ..core.stages import PIPELINE_STAGES, StageContext, StageRecord
from ..datasets.catalog import DatasetSpec
from ..net.world import BlockSpec, WorldModel
from ..obs.metrics import get_registry
from ..obs.trace import annotate, get_tracer
from .cache import task_key
from .engine import BlockResult

__all__ = [
    "BatchTailJob",
    "BlockAnalysisJob",
    "BlockReconstructJob",
    "ReconstructedBlock",
]


@dataclass(frozen=True)
class ReconstructedBlock:
    """Phase-A output of the batched path: one block, reconstructed.

    Carries the stage records of the front half (simulate, repair,
    combine, reconstruct) so the tail job can prepend them to its own
    and return a :class:`BlockResult` indistinguishable from the
    per-block path's.
    """

    key: str
    reconstruction: Reconstruction
    stages: tuple[StageRecord, ...] = ()


@dataclass(frozen=True)
class BlockAnalysisJob:
    """Simulate a block's observers and run the Table 1 pipeline on it.

    Firewalled blocks (``responsive_by_design`` False) short-circuit to
    the constant unresponsive analysis with every stage recorded as
    skipped — they still count in the routed funnel, as in the paper's
    Table 2.
    """

    world: WorldModel
    ds: DatasetSpec
    pipeline: BlockPipeline
    observer_style: str = "adaptive"

    def cache_key(self, spec: BlockSpec) -> str | None:
        """Content address of this job's result for one block.

        Covers everything ``__call__`` derives its output from: world
        identity, dataset window + observers, pipeline parameters, the
        probing algorithm, and the block spec itself (seed, kind,
        events, loss).  None (uncacheable) if any of it fails to
        tokenize — the engine then just computes as usual.
        """
        return task_key(
            "block-analysis",
            {
                "world": self.world,
                "ds": self.ds,
                "pipeline": self.pipeline,
                "observer_style": self.observer_style,
                "spec": spec,
            },
        )

    def batched_split(self) -> "tuple[BlockReconstructJob, BatchTailJob]":
        """The (per-block, per-batch) job pair of the batched dispatch path.

        The engine maps the reconstruct job over blocks exactly like
        this job, regroups surviving reconstructions by sample grid,
        and maps the tail job over chunks; per-chunk results carry the
        same keys, analyses, and stage-record shapes as ``self`` would
        produce, byte for byte.
        """
        return (
            BlockReconstructJob(
                world=self.world,
                ds=self.ds,
                pipeline=self.pipeline,
                observer_style=self.observer_style,
            ),
            BatchTailJob(pipeline=self.pipeline),
        )

    def __call__(self, spec: BlockSpec) -> BlockResult:
        # Imported here: datasets.builder composes over this package, so
        # a module-level import would be circular.
        from ..datasets.builder import DatasetBuilder

        # label the engine's per-task "block" span (no-op when untraced)
        annotate(block=spec.block.cidr, dataset=self.ds.name)
        short = _firewalled_result(spec)
        if short is not None:
            return short
        get_registry().counter("blocks.analyzed").inc()
        ctx = StageContext()
        builder = DatasetBuilder(
            self.world, self.pipeline, observer_style=self.observer_style
        )
        analysis = builder.analyze_block(spec, self.ds, ctx=ctx)
        return BlockResult(
            key=spec.block.cidr, analysis=analysis, stages=tuple(ctx.records)
        )


@dataclass(frozen=True)
class BlockReconstructJob:
    """Phase A of the batched path: simulate + reconstruct a block range.

    One call takes a contiguous range of specs and returns one result
    per spec, in order.  Per block it mirrors :class:`BlockAnalysisJob`
    exactly up to the reconstruction: same firewalled short-circuit
    (returning the finished :class:`BlockResult` — those blocks never
    reach the tail), same funnel counters, one ``block`` span each.  The
    range's responsive blocks are probed together through
    :meth:`~repro.datasets.builder.DatasetBuilder.reconstruct_blocks`.
    """

    world: WorldModel
    ds: DatasetSpec
    pipeline: BlockPipeline
    observer_style: str = "adaptive"

    def __call__(
        self, specs: tuple[BlockSpec, ...]
    ) -> tuple[BlockResult | ReconstructedBlock, ...]:
        from ..datasets.builder import DatasetBuilder

        out: list[BlockResult | ReconstructedBlock | None] = [None] * len(specs)
        live: list[int] = []
        for i, spec in enumerate(specs):
            if spec.responsive_by_design:
                live.append(i)
                continue
            with self._block_span(spec):
                out[i] = _firewalled_result(spec)
        if live:
            get_registry().counter("blocks.analyzed").inc(len(live))
            ctxs = [StageContext() for _ in live]
            builder = DatasetBuilder(
                self.world, self.pipeline, observer_style=self.observer_style
            )
            recons = builder.reconstruct_blocks(
                [specs[i] for i in live],
                self.ds,
                ctxs=ctxs,
                block_scope=self._block_span,
            )
            for i, recon, ctx in zip(live, recons, ctxs):
                out[i] = ReconstructedBlock(
                    key=specs[i].block.cidr,
                    reconstruction=recon,
                    stages=tuple(ctx.records),
                )
        return tuple(r for r in out if r is not None)

    def _block_span(self, spec: BlockSpec) -> AbstractContextManager[Any]:
        """The engine's per-block span, opened here (no-op when untraced).

        The engine runs range tasks without a wrapping span (see
        :class:`~repro.runtime.engine.TracedCall`), so each block's span
        still hangs directly off the campaign span.
        """
        return get_tracer().span(
            "block",
            attrs={"pid": os.getpid(), "block": spec.block.cidr, "dataset": self.ds.name},
        )


@dataclass(frozen=True)
class BatchTailJob:
    """Phase B of the batched path: the analysis tail over one chunk.

    One call runs classify/trend/detect for every block in the chunk
    through :meth:`~repro.core.pipeline.BlockPipeline.analyze_tail_batch`
    (per-row bit-identical to the scalar stages) and stitches each
    block's front-half stage records back in front of its tail records,
    so downstream aggregation cannot tell the paths apart.
    """

    pipeline: BlockPipeline

    def __call__(
        self, chunk: tuple[ReconstructedBlock, ...]
    ) -> tuple[BlockResult, ...]:
        # label the engine's per-chunk "batch" span (no-op when untraced)
        annotate(n_blocks=len(chunk))
        ctxs = [StageContext() for _ in chunk]
        analyses = self.pipeline.analyze_tail_batch(
            [_canonical_reconstruction(rb.reconstruction) for rb in chunk], ctxs
        )
        return tuple(
            BlockResult(
                key=rb.key,
                analysis=analysis,
                stages=rb.stages + tuple(ctx.records),
            )
            for rb, analysis, ctx in zip(chunk, analyses, ctxs)
        )


def _canonical_dtype_view(arr: np.ndarray) -> np.ndarray:
    """Re-view an array onto the process-canonical dtype singleton.

    Unpickled arrays (a reconstruction shipped to a pool worker) carry a
    dtype *instance* distinct from numpy's interned singleton, and ufunc
    results inherit whichever instance their input held.  Left alone,
    the tail's output graph would mix both objects and its pickle bytes
    would differ from the serial path's — same values, different memo
    structure.  Viewing onto ``arr.dtype.type`` (which numpy resolves to
    the singleton) restores one dtype object per graph.
    """
    return arr.view(arr.dtype.type)


def _canonical_reconstruction(recon: Reconstruction) -> Reconstruction:
    from dataclasses import replace

    from ..timeseries.series import TimeSeries

    return replace(
        recon,
        counts=TimeSeries(
            _canonical_dtype_view(recon.counts.times),
            _canonical_dtype_view(recon.counts.values),
        ),
        observed_addresses=_canonical_dtype_view(recon.observed_addresses),
    )


def _firewalled_result(spec: BlockSpec) -> BlockResult | None:
    """The shared short-circuit for blocks that never answer probes."""
    from ..datasets.builder import unresponsive_analysis

    if spec.responsive_by_design:
        return None
    get_registry().counter("blocks.firewalled").inc()
    ctx = StageContext()
    for name in PIPELINE_STAGES:
        ctx.skip(name, "firewalled")
    return BlockResult(
        key=spec.block.cidr,
        analysis=unresponsive_analysis(),
        stages=tuple(ctx.records),
    )
