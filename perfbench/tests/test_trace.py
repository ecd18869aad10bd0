"""The traced run names a slowed layer, and the engine matches the oracle."""

import dataclasses
import statistics
import time
from unittest import mock

import pytest

from repro.net.prober import TrinocularObserver
from repro.runtime.cache import AnalysisCache

from spans import Spans
from workloads import (
    WORKLOADS,
    build_world,
    dispatch_order,
    engine_path,
    layer_metrics,
    layer_path,
    make_engine,
    prefill_cache,
)

TINY = dataclasses.replace(WORKLOADS["quarter-tail"], n_blocks=24)
#: per-block layer times the slowdown test compares
LAYERS = (
    "net.usage.truth_s_per_block",
    "net.prober.observe_s_per_block",
    "core.repair.s_per_block",
    "core.combine.s_per_block",
    "core.reconstruction.s_per_block",
    "core.pipeline.tail_s_per_block",
)


def _traced_layers(world, tasks):
    tr = Spans()
    layer_path(TINY, world, tasks, tr)
    return layer_metrics(tr, TINY.n_blocks)


def _slow_observe():
    """``TrinocularObserver.observe`` made 50% slower."""
    observe = TrinocularObserver.observe

    def slow_observe(self, *args, **kwargs):
        start = time.perf_counter()
        result = observe(self, *args, **kwargs)
        # spin rather than sleep: an idle CPU would slow the next layer too
        deadline = time.perf_counter() + 0.5 * (time.perf_counter() - start)
        while time.perf_counter() < deadline:
            pass
        return result

    return mock.patch.object(TrinocularObserver, "observe", slow_observe)


def test_injected_slowdown_names_its_layer():
    world = build_world(TINY)
    tasks = dispatch_order(world, 0)
    _traced_layers(world, tasks)  # warm-up
    # unslowed and slowed passes alternate, so a drift in the machine's
    # speed hits both sides of each pair alike
    base, slowed = [], []
    for _ in range(3):
        base.append(_traced_layers(world, tasks))
        with _slow_observe():
            slowed.append(_traced_layers(world, tasks))

    def change(name, after, before):
        return statistics.median(a[name] / b[name] for a, b in zip(after, before)) - 1.0

    moved = {name: change(name, slowed, base) for name in LAYERS}
    assert max(moved, key=moved.get) == "net.prober.observe_s_per_block", moved
    assert moved["net.prober.observe_s_per_block"] > 0.3, moved
    for name in LAYERS:
        if name == "net.prober.observe_s_per_block":
            continue
        # the unslowed passes' own run-to-run spread, widened for the
        # timer noise of sub-millisecond layers
        spread = max(abs(b[name] / a[name] - 1.0) for a, b in zip(base, base[1:]))
        assert abs(moved[name]) <= 2 * spread + 0.15, (name, moved[name], spread)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engine_matches_layer_oracle(name, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))
    workload = dataclasses.replace(WORKLOADS[name], n_blocks=24)
    world = build_world(workload)
    tasks = dispatch_order(world, 3)
    oracle = layer_path(workload, world, tasks)
    cache = None
    if workload.resume:
        prefill_cache(world, AnalysisCache(tmp_path / "cache"))
        cache = AnalysisCache(tmp_path / "cache")
    with make_engine(workload, cache) as engine:
        outcome = engine_path(workload, world, tasks, engine)
        assert outcome.digests() == oracle.digests()
        assert outcome.aggregate_digest() == oracle.aggregate_digest()
        assert outcome.funnel == oracle.funnel
