"""The picklable block-range task the engine dispatches.

A job is a frozen dataclass whose fields are the deterministic inputs
(world, dataset window, pipeline config).  :class:`BlockAnalysisJob`
is a *range job*: one call takes a contiguous range of block specs and
runs every block in it end to end — simulate, reconstruct, then the
analysis tail — returning one :class:`~repro.runtime.engine.BlockResult`
per spec, in order.  Frozen dataclasses pickle cheaply, so the same job
object ships once per range to pool workers; each call constructs its
own :class:`~repro.datasets.builder.DatasetBuilder`, which keeps results
byte-identical between serial and parallel execution (no shared mutable
caches).  Reconstructions never leave the worker: only the compact
results cross the pool boundary.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Any, ClassVar

from ..core.pipeline import BlockPipeline
from ..core.stages import PIPELINE_STAGES, StageContext
from ..datasets.catalog import DatasetSpec
from ..net.world import BlockSpec, WorldModel
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .cache import task_key
from .engine import BlockResult

__all__ = ["BlockAnalysisJob"]


@dataclass(frozen=True)
class BlockAnalysisJob:
    """Simulate a block range's observers and run the Table 1 pipeline.

    Firewalled blocks (``responsive_by_design`` False) short-circuit to
    the constant unresponsive analysis with every stage recorded as
    skipped — they still count in the routed funnel, as in the paper's
    Table 2.  The range's responsive blocks are probed together through
    :meth:`~repro.datasets.builder.DatasetBuilder.reconstruct_blocks`,
    then grouped by sample grid, and each group runs the analysis tail
    once through the batched columnar kernels
    (:meth:`~repro.core.pipeline.BlockPipeline.analyze_tail_batch`,
    per-row bit-identical to the scalar stages).
    """

    world: WorldModel
    ds: DatasetSpec
    pipeline: BlockPipeline
    observer_style: str = "adaptive"

    #: Tells the engine to map this job over contiguous block ranges
    #: (``__call__`` takes a tuple of specs) instead of single tasks.
    range_job: ClassVar[bool] = True

    def cache_key(self, spec: BlockSpec) -> str | None:
        """Content address of this job's result for one block.

        Covers everything ``__call__`` derives a block's output from:
        world identity, dataset window + observers, pipeline parameters,
        the probing algorithm, and the block spec itself (seed, kind,
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

    def __call__(self, specs: tuple[BlockSpec, ...]) -> tuple[BlockResult, ...]:
        # Imported here: datasets.builder composes over this package, so
        # a module-level import would be circular.
        from ..datasets.builder import DatasetBuilder

        out: list[BlockResult | None] = [None] * len(specs)
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
            # the builder is dropped before the tail runs
            recons = DatasetBuilder(
                self.world, self.pipeline, observer_style=self.observer_style
            ).reconstruct_blocks(
                [specs[i] for i in live],
                self.ds,
                ctxs=ctxs,
                block_scope=self._block_span,
            )
            groups: dict[bytes, list[int]] = {}
            for j, recon in enumerate(recons):
                groups.setdefault(recon.counts.times.tobytes(), []).append(j)
            for members in groups.values():
                # tail records land after each block's front-half records
                with get_tracer().span(
                    "batch", attrs={"pid": os.getpid(), "n_blocks": len(members)}
                ):
                    analyses = self.pipeline.analyze_tail_batch(
                        [recons[j] for j in members], [ctxs[j] for j in members]
                    )
                for j, analysis in zip(members, analyses):
                    i = live[j]
                    out[i] = BlockResult(
                        key=specs[i].block.cidr,
                        analysis=analysis,
                        stages=tuple(ctxs[j].records),
                    )
        return tuple(r for r in out if r is not None)

    def _block_span(self, spec: BlockSpec) -> AbstractContextManager[Any]:
        """One block's span (no-op when untraced).

        The engine runs range tasks without a wrapping span (see
        :class:`~repro.runtime.engine.TracedCall`), so each block's span
        hangs directly off the campaign span.
        """
        return get_tracer().span(
            "block",
            attrs={"pid": os.getpid(), "block": spec.block.cidr, "dataset": self.ds.name},
        )


def _firewalled_result(spec: BlockSpec) -> BlockResult:
    """The short-circuit for blocks that never answer probes."""
    from ..datasets.builder import unresponsive_analysis

    get_registry().counter("blocks.firewalled").inc()
    ctx = StageContext()
    for name in PIPELINE_STAGES:
        ctx.skip(name, "firewalled")
    return BlockResult(
        key=spec.block.cidr,
        analysis=unresponsive_analysis(),
        stages=tuple(ctx.records),
    )
