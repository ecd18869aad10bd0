"""Tests for the campaign engine, executors, and run metrics."""

from __future__ import annotations

import pickle

import pytest

import repro.runtime.executors as executors_mod
from repro.core.pipeline import BlockPipeline
from repro.core.stages import PIPELINE_STAGES
import repro.datasets.builder as builder_mod
from repro.datasets.builder import DatasetBuilder
from repro.datasets.catalog import dataset
from repro.net.world import WorldModel, scenario_covid2020
from repro.obs.metrics import scoped_registry
from repro.runtime import (
    AnalysisCache,
    BlockAnalysisJob,
    BlockResult,
    CampaignEngine,
    ParallelExecutor,
    SerialExecutor,
    default_engine,
    stable_token,
    task_key,
)

DATASET = "2020it89-match-ejnw"  # two weeks, four observers: cheap but real


@pytest.fixture(scope="module")
def world200() -> WorldModel:
    """The acceptance-scale world: 200 routed blocks."""
    return WorldModel(scenario_covid2020(), n_blocks=200, seed=7)


@pytest.fixture(scope="module")
def serial_result(world200):
    engine = CampaignEngine(SerialExecutor())
    return DatasetBuilder(world200).analyze(DATASET, engine=engine)


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_byte_identical(self, world200, serial_result):
        engine = CampaignEngine(ParallelExecutor(workers=2))
        parallel = DatasetBuilder(world200).analyze(DATASET, engine=engine)
        assert engine.executor.fallback_reason is None
        assert list(parallel.analyses) == list(serial_result.analyses)
        for cidr, analysis in parallel.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(
                serial_result.analyses[cidr]
            ), f"parallel diverged from serial for {cidr}"

    def test_workers_one_degenerates_to_serial(self, world200, serial_result):
        executor = ParallelExecutor(workers=1)
        engine = CampaignEngine(executor)
        result = DatasetBuilder(world200).analyze(DATASET, engine=engine)
        assert result.funnel() == serial_result.funnel()
        assert engine.history[-1].executor == "parallel[1]"


class TestRunMetrics:
    def test_stage_totals_cover_routed_blocks(self, serial_result):
        metrics = serial_result.metrics
        assert metrics is not None
        routed = metrics.funnel["routed"]
        assert routed == 200
        for name in PIPELINE_STAGES:
            totals = metrics.stages[name]
            assert totals.touched >= routed, name

    def test_funnel_matches_dataset_result(self, serial_result):
        funnel = serial_result.funnel()
        assert serial_result.metrics.funnel == {
            "routed": funnel.routed,
            "responsive": funnel.responsive,
            "diurnal": funnel.diurnal,
            "wide_swing": funnel.wide_swing,
            "change_sensitive": funnel.change_sensitive,
        }

    def test_firewalled_blocks_skip_every_stage(self, serial_result):
        # every pipeline stage must see the same firewalled-skip count
        metrics = serial_result.metrics
        firewalled = {
            name: metrics.stages[name].skips.get("firewalled", 0)
            for name in PIPELINE_STAGES
        }
        assert len(set(firewalled.values())) == 1
        assert firewalled["repair"] > 0  # the world does have firewalled blocks

    def test_report_and_dict(self, serial_result):
        metrics = serial_result.metrics
        text = metrics.report()
        assert "blocks/s" in text and "reconstruct" in text and "funnel:" in text
        d = metrics.as_dict()
        assert d["n_tasks"] == 200
        assert set(d["stages"]) >= set(PIPELINE_STAGES)
        assert d["funnel"]["routed"] == 200

    def test_simulate_stage_dominates(self, serial_result):
        # observation simulation is the hot path; the record must exist
        assert serial_result.metrics.stages["simulate"].calls > 0


class TestFallback:
    def test_pool_spawn_failure_falls_back_to_serial(self, monkeypatch, world200):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", ExplodingPool)
        executor = ParallelExecutor(workers=2)
        engine = CampaignEngine(executor)
        blocks = list(world200.blocks)[:20]
        result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert len(result.analyses) == 20  # no block lost
        assert "pool spawn failed" in executor.fallback_reason
        assert engine.history[-1].fallback == executor.fallback_reason

    def test_fallback_results_match_serial(self, monkeypatch, world200, serial_result):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("boom")

        monkeypatch.setattr(executors_mod, "ProcessPoolExecutor", ExplodingPool)
        engine = CampaignEngine(ParallelExecutor(workers=2))
        blocks = list(world200.blocks)[:20]
        result = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(
                serial_result.analyses[cidr]
            )


class TestEngineGenerics:
    def test_ordering_preserved_for_plain_tasks(self):
        engine = CampaignEngine(ParallelExecutor(workers=2, chunk_size=3))
        run = engine.run(_square, list(range(20)), label="squares")
        assert run.results == [i * i for i in range(20)]
        assert run.metrics.n_tasks == 20
        assert run.metrics.funnel == {}  # no BlockResults -> no funnel

    def test_engine_history_accumulates(self):
        engine = CampaignEngine()
        engine.run(_square, [1, 2], label="a")
        engine.run(_square, [3], label="b")
        assert [m.label for m in engine.history] == ["a", "b"]
        assert engine.history[0].executor == "serial"

    def test_task_exception_propagates(self):
        engine = CampaignEngine(ParallelExecutor(workers=2))
        with pytest.raises(ValueError, match="bad task"):
            engine.run(_explode, list(range(8)), label="explode")


class TestDefaultEngine:
    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert isinstance(default_engine().executor, SerialExecutor)

    def test_env_selects_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor = default_engine().executor
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 3

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(RuntimeWarning, match="not an integer"):
            assert isinstance(default_engine().executor, SerialExecutor)


class TestBlockAnalysisJob:
    def test_job_is_picklable(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        clone = pickle.loads(pickle.dumps(job))
        spec = next(s for s in world200.blocks if s.responsive_by_design)
        a = job(spec)
        b = clone(spec)
        assert isinstance(a, BlockResult)
        assert pickle.dumps(a.analysis) == pickle.dumps(b.analysis)

    def test_firewalled_block_short_circuits(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        spec = next(s for s in world200.blocks if not s.responsive_by_design)
        result = job(spec)
        assert not result.analysis.classification.responsive
        assert all(r.skipped == "firewalled" for r in result.stages)


class TestAnalysisCache:
    N = 30  # blocks per cached run: cheap but covers firewalled + responsive

    def _blocks(self, world200):
        return list(world200.blocks)[: self.N]

    def test_cold_then_warm_disk_byte_identical(
        self, world200, serial_result, tmp_path
    ):
        blocks = self._blocks(world200)
        cold_engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        cold = DatasetBuilder(world200).analyze(
            DATASET, blocks=blocks, engine=cold_engine
        )
        assert cold.metrics.cache == {"hits": 0, "misses": self.N, "stores": self.N}
        # a fresh engine + fresh in-memory tier: every hit comes from disk
        warm_engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        warm = DatasetBuilder(world200).analyze(
            DATASET, blocks=blocks, engine=warm_engine
        )
        assert warm.metrics.cache == {"hits": self.N, "misses": 0, "stores": 0}
        assert list(warm.analyses) == list(cold.analyses)
        for cidr, analysis in warm.analyses.items():
            reference = pickle.dumps(serial_result.analyses[cidr])
            assert pickle.dumps(analysis) == reference
            assert pickle.dumps(cold.analyses[cidr]) == reference
        assert warm.funnel() == cold.funnel()
        assert f"cache: {self.N}/{self.N} hits (100%)" in warm.metrics.report()

    def test_parallel_with_cache_matches_serial(
        self, world200, serial_result, tmp_path
    ):
        blocks = self._blocks(world200)
        engine = CampaignEngine(ParallelExecutor(workers=2), AnalysisCache(tmp_path))
        cold = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert engine.executor.fallback_reason is None
        assert cold.metrics.cache == {"hits": 0, "misses": self.N, "stores": self.N}
        warm = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert warm.metrics.cache == {"hits": self.N, "misses": 0, "stores": 0}
        for cidr, analysis in warm.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial_result.analyses[cidr])

    def test_memory_only_tier(self, world200, serial_result):
        blocks = self._blocks(world200)
        engine = CampaignEngine(SerialExecutor(), AnalysisCache())  # no disk
        DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        warm = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        assert warm.metrics.cache == {"hits": self.N, "misses": 0, "stores": 0}
        for cidr, analysis in warm.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial_result.analyses[cidr])

    def test_corrupt_disk_entries_recompute(self, world200, serial_result, tmp_path):
        blocks = self._blocks(world200)
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        for pkl in tmp_path.rglob("*.pkl"):
            pkl.write_bytes(b"not a pickle")
        fresh = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        result = DatasetBuilder(world200).analyze(
            DATASET, blocks=blocks, engine=fresh
        )
        assert result.metrics.cache["hits"] == 0  # every load failed -> recompute
        assert result.metrics.cache["misses"] == self.N
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(serial_result.analyses[cidr])

    def test_plain_tasks_bypass_cache(self):
        engine = CampaignEngine(SerialExecutor(), AnalysisCache())
        run = engine.run(_square, [1, 2, 3], label="squares")
        assert run.results == [1, 4, 9]
        assert run.metrics.cache is None  # fn has no cache_key: never consulted

    def test_memory_lru_eviction(self):
        cache = AnalysisCache(max_items=2)
        for i in range(3):
            cache.put(f"k{i}", i)
        assert len(cache) == 2
        assert cache.get("k0") == (False, None)  # oldest evicted
        assert cache.get("k2") == (True, 2)

    def test_cached_hits_drop_stage_records(self, world200, tmp_path):
        blocks = self._blocks(world200)
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        warm = DatasetBuilder(world200).analyze(DATASET, blocks=blocks, engine=engine)
        # no stage work happened, so stage totals must not claim any
        assert all(t.calls == 0 for t in warm.metrics.stages.values())
        assert warm.metrics.funnel["routed"] == self.N


class TestTaskKey:
    def test_deterministic_and_spec_sensitive(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        specs = list(world200.blocks)[:2]
        key = job.cache_key(specs[0])
        assert isinstance(key, str) and len(key) == 64
        assert key == job.cache_key(specs[0])
        assert key != job.cache_key(specs[1])

    def test_pipeline_parameters_change_the_key(self, world200):
        spec = list(world200.blocks)[0]
        a = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        b = BlockAnalysisJob(
            world=world200,
            ds=dataset(DATASET),
            pipeline=BlockPipeline(),
            observer_style="bayesian",
        )
        assert a.cache_key(spec) != b.cache_key(spec)

    def test_unkeyable_inputs_return_none(self):
        assert task_key("kind", {"fn": lambda: None}) is None

    def test_stable_token_dict_order_insensitive(self):
        assert stable_token({"a": 1, "b": 2}) == stable_token({"b": 2, "a": 1})


def _square(x: int) -> int:
    return x * x


def _explode(x: int) -> int:
    if x == 5:
        raise ValueError("bad task")
    return x


class TestBatchedDispatch:
    """The batched columnar path must be invisible in every output."""

    @pytest.fixture(scope="class")
    def per_block_result(self, world200):
        engine = CampaignEngine(SerialExecutor(), batched=False)
        result = DatasetBuilder(world200).analyze(DATASET, engine=engine)
        assert result.metrics.batched is None
        return result

    def test_batched_serial_matches_per_block(self, serial_result, per_block_result):
        # serial_result runs through the batched default path
        assert serial_result.metrics.batched is not None
        assert list(serial_result.analyses) == list(per_block_result.analyses)
        for cidr, analysis in serial_result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(
                per_block_result.analyses[cidr]
            ), f"batched diverged from per-block for {cidr}"

    def test_batched_parallel_matches_per_block(self, world200, per_block_result):
        engine = CampaignEngine(ParallelExecutor(workers=2), batched=True)
        result = DatasetBuilder(world200).analyze(DATASET, engine=engine)
        assert engine.executor.fallback_reason is None
        stats = result.metrics.batched
        assert stats is not None and stats["chunks"] > 1  # genuinely fanned out
        for cidr, analysis in result.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(
                per_block_result.analyses[cidr]
            ), f"parallel batched diverged from per-block for {cidr}"

    def test_stage_records_match_per_block(self, serial_result, per_block_result):
        batched = serial_result.metrics
        scalar = per_block_result.metrics
        for name in PIPELINE_STAGES:
            b, s = batched.stages[name], scalar.stages[name]
            assert (b.calls, b.n_in, b.n_out, b.skips) == (
                s.calls,
                s.n_in,
                s.n_out,
                s.skips,
            ), name

    def test_batched_stats_shape(self, serial_result):
        stats = serial_result.metrics.batched
        assert set(stats) == {"blocks", "groups", "chunks"}
        # every non-firewalled block survives reconstruction; one shared
        # grid -> one group; serial execution -> one chunk per group
        assert stats["blocks"] > 0
        assert stats["groups"] == stats["chunks"] == 1

    def test_metrics_roundtrip_carries_batched(self, serial_result):
        from repro.runtime import RunMetrics

        metrics = serial_result.metrics
        again = RunMetrics.from_dict(metrics.as_dict())
        assert again.batched == metrics.batched
        assert "batched:" in again.report()

    def test_split_jobs_are_picklable(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        recon_fn, tail_fn = job.batched_split()
        # WorldModel has identity equality; compare via the stable token
        assert stable_token(pickle.loads(pickle.dumps(recon_fn))) == stable_token(
            recon_fn
        )
        assert pickle.loads(pickle.dumps(tail_fn)) == tail_fn

    def test_firewalled_short_circuits_reconstruction(self, world200):
        from repro.runtime import BlockReconstructJob

        spec = next(s for s in world200.blocks if not s.responsive_by_design)
        job = BlockReconstructJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        (result,) = job((spec,))
        assert isinstance(result, BlockResult)
        assert all(r.skipped for r in result.stages)

    def test_cache_is_path_agnostic(self, world200, serial_result, tmp_path):
        # a cache written by the per-block path must be served verbatim
        # by the batched path (same keys, same bytes) — and hits must
        # bypass both phases.
        cache = AnalysisCache(tmp_path)
        cold = CampaignEngine(SerialExecutor(), cache=cache, batched=False)
        first = DatasetBuilder(world200).analyze(DATASET, engine=cold)
        assert cold.history[-1].cache["misses"] == 200
        warm = CampaignEngine(SerialExecutor(), cache=cache, batched=True)
        second = DatasetBuilder(world200).analyze(DATASET, engine=warm)
        assert warm.history[-1].cache["hits"] == 200
        # hits bypass both phases: nothing was reconstructed or chunked
        assert warm.history[-1].batched == {"blocks": 0, "groups": 0, "chunks": 0}
        for cidr, analysis in second.analyses.items():
            assert pickle.dumps(analysis) == pickle.dumps(first.analyses[cidr])

    def test_env_var_controls_default(self, monkeypatch):
        from repro.runtime.engine import _resolve_batched

        monkeypatch.delenv("REPRO_BATCHED", raising=False)
        assert _resolve_batched(None) is True
        for raw, expected in [
            ("1", True),
            ("true", True),
            ("ON", True),
            ("0", False),
            ("no", False),
            ("Off", False),
            ("", True),
        ]:
            monkeypatch.setenv("REPRO_BATCHED", raw)
            assert _resolve_batched(None) is expected, raw
        # explicit argument beats the environment
        monkeypatch.setenv("REPRO_BATCHED", "0")
        assert _resolve_batched(True) is True

    def test_garbage_env_warns_and_defaults_on(self, monkeypatch):
        from repro.runtime.engine import _resolve_batched

        monkeypatch.setenv("REPRO_BATCHED", "sideways")
        with pytest.warns(RuntimeWarning, match="REPRO_BATCHED"):
            assert _resolve_batched(None) is True


def _analysis_bytes(result) -> dict[str, bytes]:
    return {cidr: pickle.dumps(a) for cidr, a in result.analyses.items()}


class TestRangeDispatch:
    """Phase A probes contiguous block ranges in lockstep, invisibly."""

    @pytest.fixture(scope="class")
    def world(self) -> WorldModel:
        return WorldModel(scenario_covid2020(), n_blocks=48, seed=5)

    @pytest.fixture(scope="class")
    def tasks(self, world):
        """The world's blocks, firewalled ones interleaved as generated."""
        return list(world.blocks)

    @staticmethod
    def split(world, n):
        """n firewalled then n responsive blocks: a 2-way split leaves one
        range with no responsive block at all."""
        firewalled = [s for s in world.blocks if not s.responsive_by_design][:n]
        responsive = [s for s in world.blocks if s.responsive_by_design][:n]
        assert len(firewalled) == len(responsive) == n
        return firewalled + responsive

    @pytest.fixture(scope="class")
    def per_block(self, world, tasks):
        with scoped_registry() as meters:
            engine = CampaignEngine(SerialExecutor(), batched=False)
            result = DatasetBuilder(world).analyze(DATASET, blocks=tasks, engine=engine)
        return result, meters.snapshot()

    def _run(self, world, tasks, engine):
        with scoped_registry() as meters:
            result = DatasetBuilder(world).analyze(DATASET, blocks=tasks, engine=engine)
        return result, meters.snapshot()

    @pytest.mark.parametrize("budget_blocks", [None, 3])
    def test_serial_ranges_match_per_block(
        self, world, tasks, per_block, budget_blocks, monkeypatch
    ):
        if budget_blocks is not None:
            # a budget of a few blocks' tables splits the range into
            # batches, some narrow enough to probe lane by lane
            n_cols = int(dataset(DATASET).duration_s // 660) + 2
            monkeypatch.setattr(builder_mod, "LOCKSTEP_TABLE_BYTES", budget_blocks * 64 * n_cols)
        result, meters = self._run(world, tasks, CampaignEngine(SerialExecutor(), batched=True))
        expected, expected_meters = per_block
        assert _analysis_bytes(result) == _analysis_bytes(expected)
        for name in ("probes.sent.trinocular", "probes.positive.trinocular"):
            assert meters[name]["value"] == expected_meters[name]["value"] > 0
        assert meters["prober.batch.lanes"]["count"] >= 1
        if budget_blocks is not None:
            assert meters["prober.batch.lanes"]["count"] >= 2
        # per-block stage records keep their shape: simulate carries the
        # block's probe count, and every responsive block records it once
        simulate = result.metrics.stages["simulate"]
        assert simulate.calls == expected.metrics.stages["simulate"].calls
        assert simulate.n_out == expected.metrics.stages["simulate"].n_out

    def test_pool_and_cached_shards_match_per_block(self, world, tasks, per_block, tmp_path):
        expected = _analysis_bytes(per_block[0])
        pooled, _ = self._run(world, tasks, CampaignEngine(ParallelExecutor(workers=2)))
        assert _analysis_bytes(pooled) == expected
        split, _ = self._run(
            world, self.split(world, 8), CampaignEngine(ParallelExecutor(workers=2))
        )
        for cidr, blob in _analysis_bytes(split).items():
            assert blob == expected[cidr]
        for _ in range(2):  # cold, then warm from the cache
            engine = CampaignEngine(
                SerialExecutor(), cache=AnalysisCache(tmp_path), batched=True, shards=2
            )
            sharded, _ = self._run(world, tasks, engine)
            assert _analysis_bytes(sharded) == expected
        assert engine.history[-1].cache["hits"] == len(tasks)

    def test_one_block_ranges(self, world, per_block):
        expected = _analysis_bytes(per_block[0])
        live = [s for s in world.blocks if s.responsive_by_design][:2]
        for engine in (
            CampaignEngine(SerialExecutor(), batched=True),
            CampaignEngine(ParallelExecutor(workers=2), batched=True),
        ):
            result, _ = self._run(world, live, engine)
            for cidr, blob in _analysis_bytes(result).items():
                assert blob == expected[cidr]

    def test_one_block_span_per_block(self, world, tasks):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            DatasetBuilder(world).analyze(
                DATASET, blocks=tasks, engine=CampaignEngine(SerialExecutor(), batched=True)
            )
        campaign = next(s for s in tracer.finished if s.name == "campaign")
        blocks = [s for s in tracer.finished if s.name == "block"]
        assert sorted(b.attrs["block"] for b in blocks) == sorted(s.block.cidr for s in tasks)
        assert all(b.parent_id == campaign.span_id for b in blocks)
        block_ids = {b.span_id for b in blocks}
        simulate = [s for s in tracer.finished if s.name == "stage:simulate"]
        assert len(simulate) == sum(s.responsive_by_design for s in tasks)
        assert all(s.parent_id in block_ids for s in simulate)

    def test_progress_done_reaches_total_once(self, world, tasks, tmp_path):
        import json

        from repro.obs.progress import ProgressEmitter, use_progress

        emitter = ProgressEmitter(tmp_path, interval_s=0.0)
        with use_progress(emitter):
            DatasetBuilder(world).analyze(
                DATASET,
                blocks=tasks,
                engine=CampaignEngine(ParallelExecutor(workers=2), batched=True),
            )
        done = [json.loads(line)["done"] for line in emitter.path.read_text().splitlines()]
        assert done == sorted(done) and done[-1] == len(tasks)
        assert max(done) == len(tasks)
