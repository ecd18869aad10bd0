"""One fresh process of a benchmark run: a timed run, the oracle, or the trace.

Started by ``run.py`` as ``python3 perfbench/child.py MODE --workload W
--seed N --out FILE [...]`` with ``src`` on ``PYTHONPATH``.  It writes
one JSON object to ``FILE``.  A timed run also prints ``timed`` on
standard output the moment its timed region ends, so the parent stops
sampling memory there.

Modes:

``timed``   set up (imports, world, engine, cache restore), run the
            workload through the engine, report wall/CPU, per-block
            result digests, funnel and WFH score.
``oracle``  compute the workload by direct serial layer calls (no
            spans) and report its digests; for a resumed workload also
            leave the half-filled cache template the timed runs restore.
``trace``   the traced run: spans around every layer call, then the
            workload's engine instrumented and plain, then its sibling
            workload's engine; reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any
from unittest import mock

from repro.obs.metrics import get_registry
from repro.obs.resources import peak_rss_bytes
from repro.runtime import envconfig
from repro.runtime.cache import AnalysisCache
from repro.runtime.engine import CampaignEngine
from repro.runtime.spill import SpillDir

from run import compare_digests
from spans import NULL_SPANS, Spans, wrap_method
from workloads import (
    ENGINE_LAYERS,
    WORKLOADS,
    Outcome,
    Workload,
    build_world,
    dispatch_order,
    engine_path,
    layer_metrics,
    layer_path,
    make_engine,
    prefill_cache,
    ratio,
)


def _cpu() -> tuple[float, float]:
    """(self, children) CPU seconds; children counts reaped pool workers."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _summary(outcome: Outcome) -> dict[str, Any]:
    score = outcome.score()
    return {
        "digests": outcome.digests(),
        "aggregate": outcome.aggregate_digest(),
        "funnel": dataclasses.asdict(outcome.funnel),
        "score": {
            "relevant": score.relevant,
            "true_pos": score.true_pos,
            "false_pos": score.false_pos,
            "recall": score.recall,
            "precision": score.precision,
            "onset_err_days": score.onset_err_days,
        },
    }


def _fresh_cache(workload: Workload, template: Path, workdir: Path) -> AnalysisCache | None:
    """A resumed workload's cache: a fresh copy of the half-filled template
    (None for the other workloads, which run uncached)."""
    if not workload.resume:
        return None
    target = workdir / f"cache-{time.monotonic_ns()}"
    shutil.copytree(template, target)
    return AnalysisCache(target)


def timed(args: argparse.Namespace, workload: Workload) -> dict[str, Any]:
    world = build_world(workload, args.world_seed)
    tasks = dispatch_order(world, args.seed)
    cache = _fresh_cache(workload, args.template, args.workdir)
    engine = make_engine(workload, cache)
    t_dispatch = time.monotonic()
    cpu0 = _cpu()
    outcome = engine_path(workload, world, tasks, engine)
    t_end = time.monotonic()
    cpu1 = _cpu()
    own_peak = peak_rss_bytes()
    sys.stdout.write("timed\n")
    sys.stdout.flush()
    out = {
        "t_dispatch": t_dispatch,
        "wall_s": t_end - t_dispatch,
        "cpu_self_s": cpu1[0] - cpu0[0],
        "cpu_children_s": cpu1[1] - cpu0[1],
        "own_peak_rss_bytes": own_peak,
        "n_blocks": workload.n_blocks,
    }
    out.update(_summary(outcome))
    engine.close()
    if cache is not None:
        shutil.rmtree(cache.directory)
    return out


def oracle(args: argparse.Namespace, workload: Workload) -> dict[str, Any]:
    world = build_world(workload, args.world_seed)
    tasks = dispatch_order(world, args.seed)
    out = _summary(layer_path(workload, world, tasks))
    if workload.resume:
        prefill_cache(world, AnalysisCache(args.template))
    return out


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------
class _EngineMeter:
    """Wall and CPU of every ``CampaignEngine.run`` call on one engine."""

    def __init__(self, engine: CampaignEngine) -> None:
        self.wall_s = self.cpu_self_s = self.cpu_children_s = 0.0
        run = engine.run

        def metered(*a: Any, **kw: Any) -> Any:
            cpu0, t0 = _cpu(), time.perf_counter()
            try:
                return run(*a, **kw)
            finally:
                cpu1 = _cpu()
                self.wall_s += time.perf_counter() - t0
                self.cpu_self_s += cpu1[0] - cpu0[0]
                self.cpu_children_s += cpu1[1] - cpu0[1]

        engine.run = metered  # type: ignore[method-assign]


def _tree_bytes(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*.pkl") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


#: traced (and as many untraced) passes of the layer path per trace run
LAYER_PASSES = 2
WARMUP_BLOCKS = 8


def trace(args: argparse.Namespace, workload: Workload) -> dict[str, Any]:
    tr = Spans()
    with tr.span("net.world.build"):
        world = build_world(workload, args.world_seed)
    tasks = dispatch_order(world, args.seed)
    n = workload.n_blocks
    compared = failed = 0

    def check(outcome: Outcome) -> None:
        nonlocal compared, failed
        compared += n
        failed += compare_digests(reference, outcome.digests())
        if outcome.aggregate_digest() != reference_agg:
            failed += 1

    # the layer path untraced (the first pass is the reference) and
    # traced, alternating after a short warm-up so that neither side pays
    # first-call costs or sees only one phase of the machine's load
    layer_path(workload, world, tasks[:WARMUP_BLOCKS], NULL_SPANS)
    walls = {False: 0.0, True: 0.0}
    for i, traced in enumerate((False, True) * LAYER_PASSES):
        t0 = time.perf_counter()
        outcome = layer_path(workload, world, tasks, tr if traced else NULL_SPANS)
        walls[traced] += time.perf_counter() - t0
        if i == 0:
            reference = outcome.digests()
            reference_agg = outcome.aggregate_digest()
            funnel = dataclasses.asdict(outcome.funnel)
        else:
            check(outcome)
        del outcome

    template = args.template
    if workload.resume or WORKLOADS[workload.sibling].resume:
        prefill_cache(world, AnalysisCache(template))

    # the workload's engine, instrumented: payload accounting on, spans
    # around AnalysisCache.get/put and SpillDir.write_shard
    registry = get_registry()
    spill_before = registry.counter("spill.bytes.written").value
    cache = _fresh_cache(workload, template, args.workdir)
    with contextlib.ExitStack() as stack:
        stack.enter_context(envconfig.overriding("REPRO_PAYLOAD_ACCOUNTING", "1"))
        for owner, attr, name_of in (
            (AnalysisCache, "get", lambda r: f"runtime.cache.get.{'hit' if r[0] else 'miss'}"),
            (AnalysisCache, "put", lambda r: "runtime.cache.put"),
            (SpillDir, "write_shard", lambda r: "runtime.spill.write"),
        ):
            wrapped = wrap_method(tr, getattr(owner, attr), name_of)
            stack.enter_context(mock.patch.object(owner, attr, wrapped))
        engine = stack.enter_context(make_engine(workload, cache))
        payload0 = dict(getattr(engine.executor, "payload", {}))
        check(engine_path(workload, world, tasks, engine))
        payload1 = dict(getattr(engine.executor, "payload", {}))
    cache_bytes, cache_entries = _tree_bytes(cache.directory) if cache is not None else (0, 0)
    spill_bytes = registry.counter("spill.bytes.written").value - spill_before

    # the workload's engine, plain: engine wall, CPU split, pool spawns
    spawns_before = registry.counter("executor.pool_spawns").value
    with make_engine(workload, _fresh_cache(workload, template, args.workdir)) as engine:
        meter = _EngineMeter(engine)
        check(engine_path(workload, world, tasks, engine))
    pool_spawns = registry.counter("executor.pool_spawns").value - spawns_before

    # the sibling workload on identical inputs must give identical results
    sibling = WORKLOADS[workload.sibling]
    with make_engine(sibling, _fresh_cache(sibling, template, args.workdir)) as engine:
        check(engine_path(sibling, world, tasks, engine))

    hits = tr.calls("runtime.cache.get.hit")
    misses = tr.calls("runtime.cache.get.miss")
    puts = tr.calls("runtime.cache.put")
    metrics = layer_metrics(tr, n, LAYER_PASSES)
    layer_s = sum(tr.total(name) for name in ENGINE_LAYERS) / LAYER_PASSES
    metrics.update(
        {
            "runtime.engine.run_s_per_block": meter.wall_s / n,
            # derived: engine wall beyond the layers' own time, per worker
            "runtime.engine.overhead_s_per_block": meter.wall_s / n
            - layer_s / n / workload.workers,
            "runtime.executors.task_bytes_per_block": (
                payload1.get("fn_bytes", 0)
                - payload0.get("fn_bytes", 0)
                + payload1.get("task_bytes", 0)
                - payload0.get("task_bytes", 0)
            )
            / n,
            "runtime.executors.result_bytes_per_block": (
                payload1.get("result_bytes", 0) - payload0.get("result_bytes", 0)
            )
            / n,
            "runtime.executors.pool_spawns": pool_spawns,
            "runtime.executors.worker_busy_frac": ratio(
                meter.cpu_children_s, workload.workers * meter.wall_s
            ),
            "runtime.executors.coordinator_cpu_frac": ratio(meter.cpu_self_s, meter.wall_s),
            "runtime.cache.hit_frac": ratio(hits, hits + misses),
            "runtime.cache.get_ms_per_hit": ratio(tr.total("runtime.cache.get.hit") * 1e3, hits),
            "runtime.cache.put_ms_per_store": ratio(tr.total("runtime.cache.put") * 1e3, puts),
            "runtime.cache.bytes_per_entry": ratio(cache_bytes, cache_entries),
            "runtime.spill.bytes_per_block": spill_bytes / n,
            "runtime.spill.write_s_per_block": tr.total("runtime.spill.write") / n,
            "trace_overhead_frac": walls[True] / walls[False] - 1.0,
        }
    )
    tr.write(str(args.spans))
    return {
        "metrics": metrics,
        "compared": compared,
        "failed": failed,
        "funnel": funnel,
        "layer_shares": {
            name: tr.total(name) / walls[True] for name in ENGINE_LAYERS + ("core.aggregate",)
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("timed", "oracle", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--template", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    result = {"timed": timed, "oracle": oracle, "trace": trace}[args.mode](args, workload)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
