"""Tests for the campaign engine, executors, and run metrics."""

from __future__ import annotations

import json
import pickle

import pytest

import repro.runtime.executors as executors_mod
from repro.core.pipeline import BlockPipeline
from repro.cli import main as cli_main
from repro.core.stages import PIPELINE_STAGES, StageContext
import repro.datasets.builder as builder_mod
from repro.datasets.builder import DatasetBuilder, unresponsive_analysis
from repro.datasets.catalog import dataset
from repro.net.world import WorldModel, scenario_covid2020
from repro.obs.metrics import scoped_registry
from repro.runtime import (
    AnalysisCache,
    BlockAnalysisJob,
    BlockResult,
    CampaignEngine,
    ParallelExecutor,
    RunMetrics,
    SerialExecutor,
    StageTotals,
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

    def test_legacy_run_json_still_loads(self, serial_result, tmp_path, capsys):
        # a run.json saved before the batched section and the shm tier
        # were removed carries both; it must load and render without them
        legacy = serial_result.metrics.as_dict()
        legacy["batched"] = {"blocks": 150, "groups": 1, "chunks": 2}
        legacy["resources"] = dict(
            legacy["resources"],
            pool={
                "fn_bytes": 512,
                "task_bytes": 2048,
                "result_bytes": 4096,
                "shm_bytes": 54886,
                "maps": 2,
            },
        )
        metrics = RunMetrics.from_dict(json.loads(json.dumps(legacy)))
        assert metrics.funnel == serial_result.metrics.funnel
        assert "batched" not in metrics.as_dict()
        text = metrics.report()
        assert "pool: 2.0 KiB payload out, 4.0 KiB results back over 2 dispatches" in text
        assert "batched:" not in text and "via shm" not in text

        (tmp_path / "run.json").write_text(json.dumps({"label": "legacy"}))
        (tmp_path / "metrics.jsonl").write_text(json.dumps(legacy) + "\n")
        assert cli_main(["report", str(tmp_path)]) == 0
        assert text in capsys.readouterr().out


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
        engine = CampaignEngine(ParallelExecutor(workers=2))
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

    def test_engine_close_is_noop_for_serial_and_parallel(self):
        for executor in (SerialExecutor(), ParallelExecutor(workers=2)):
            with CampaignEngine(executor) as engine:
                assert engine.run(_square, [1, 2, 3], label="x").results == [1, 4, 9]
            engine.close()  # idempotent


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
        (a,) = job((spec,))
        (b,) = clone((spec,))
        assert isinstance(a, BlockResult)
        assert pickle.dumps(a.analysis) == pickle.dumps(b.analysis)

    def test_firewalled_block_short_circuits(self, world200):
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        spec = next(s for s in world200.blocks if not s.responsive_by_design)
        (result,) = job((spec,))
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
        # a fresh engine and cache: every hit comes from disk
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

    def test_plain_tasks_bypass_cache(self, tmp_path):
        engine = CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        run = engine.run(_square, [1, 2, 3], label="squares")
        assert run.results == [1, 4, 9]
        assert run.metrics.cache is None  # fn has no cache_key: never consulted

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


def _analysis_bytes(result) -> dict[str, bytes]:
    return {cidr: pickle.dumps(a) for cidr, a in result.analyses.items()}


def _oracle(world, specs, observer_style="adaptive"):
    """The direct per-block oracle: each block analysed on its own.

    Returns ``(analysis bytes by cidr, stage totals, metrics snapshot)``.
    Responsive blocks run ``DatasetBuilder.analyze_block`` on a fresh
    builder (the scalar tail, no engine, no batching); firewalled blocks
    get the constant unresponsive analysis and skip every stage.
    """
    ds = dataset(DATASET)
    blobs: dict[str, bytes] = {}
    totals: dict[str, StageTotals] = {}
    with scoped_registry() as meters:
        for spec in specs:
            ctx = StageContext()
            if spec.responsive_by_design:
                builder = DatasetBuilder(world, observer_style=observer_style)
                analysis = builder.analyze_block(spec, ds, ctx=ctx)
            else:
                analysis = unresponsive_analysis()
                for name in PIPELINE_STAGES:
                    ctx.skip(name, "firewalled")
            blobs[spec.block.cidr] = pickle.dumps(analysis)
            for record in ctx.records:
                totals.setdefault(record.name, StageTotals()).add(record)
    return blobs, totals, meters.snapshot()


def _assert_stages_match(stages, expected):
    """Stage calls, sizes and skips equal the oracle's (wall time aside)."""
    assert set(stages) == set(expected)
    for name, want in expected.items():
        got = stages[name]
        assert (got.calls, got.n_in, got.n_out, got.skips) == (
            want.calls,
            want.n_in,
            want.n_out,
            want.skips,
        ), name


class TestBatchedDispatch:
    """The fused range job must be invisible in every output: each block's
    analysis equals the direct per-block oracle's, byte for byte."""

    @pytest.fixture(scope="class")
    def oracle(self, world200):
        return _oracle(world200, list(world200.blocks))

    def test_batched_serial_matches_per_block(self, serial_result, oracle):
        expected = oracle[0]
        assert list(serial_result.analyses) == list(expected)
        for cidr, blob in _analysis_bytes(serial_result).items():
            assert blob == expected[cidr], f"serial diverged from the oracle for {cidr}"

    def test_batched_parallel_matches_per_block(self, world200, oracle):
        engine = CampaignEngine(ParallelExecutor(workers=2))
        result = DatasetBuilder(world200).analyze(DATASET, engine=engine)
        assert engine.executor.fallback_reason is None
        assert _analysis_bytes(result) == oracle[0]

    def test_stage_records_match_per_block(self, serial_result, oracle):
        _assert_stages_match(serial_result.metrics.stages, oracle[1])

    def test_batched_stats_shape(self, world200):
        # grid grouping happens inside the range job: one "batch" span per
        # (range, grid), covering exactly the range's responsive blocks
        from repro.obs.trace import Tracer, use_tracer

        n_live = sum(s.responsive_by_design for s in world200.blocks)
        for executor, n_ranges in ((SerialExecutor(), 1), (ParallelExecutor(workers=2), 2)):
            tracer = Tracer()
            with use_tracer(tracer):
                DatasetBuilder(world200).analyze(DATASET, engine=CampaignEngine(executor))
            batches = [s for s in tracer.finished if s.name == "batch"]
            assert len(batches) == n_ranges  # one shared grid per range
            assert sum(b.attrs["n_blocks"] for b in batches) == n_live

    def test_firewalled_short_circuits_reconstruction(self, world200, monkeypatch):
        firewalled = next(s for s in world200.blocks if not s.responsive_by_design)
        live = next(s for s in world200.blocks if s.responsive_by_design)
        seen = []
        reconstruct = DatasetBuilder.reconstruct_blocks

        def spy(self, specs, *args, **kwargs):
            seen.append([s.block.cidr for s in specs])
            return reconstruct(self, specs, *args, **kwargs)

        monkeypatch.setattr(DatasetBuilder, "reconstruct_blocks", spy)
        job = BlockAnalysisJob(
            world=world200, ds=dataset(DATASET), pipeline=BlockPipeline()
        )
        results = job((firewalled, live))
        assert [r.key for r in results] == [firewalled.block.cidr, live.block.cidr]
        assert seen == [[live.block.cidr]]  # only the live block reconstructs
        assert all(r.skipped == "firewalled" for r in results[0].stages)
        assert not any(r.skipped == "firewalled" for r in results[1].stages)

    def test_cache_is_path_agnostic(self, world200, serial_result, tmp_path):
        # a cache written by a serial run must be served verbatim to a
        # pool and to a sharded run (same keys, same bytes), and hits
        # must bypass the job entirely
        DatasetBuilder(world200).analyze(
            DATASET, engine=CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path))
        )
        expected = _analysis_bytes(serial_result)
        pool = ParallelExecutor(workers=2)
        for engine in (
            CampaignEngine(pool, AnalysisCache(tmp_path)),
            CampaignEngine(SerialExecutor(), AnalysisCache(tmp_path), shards=2),
        ):
            warm = DatasetBuilder(world200).analyze(DATASET, engine=engine)
            assert warm.metrics.cache == {"hits": 200, "misses": 0, "stores": 0}
            assert all(t.calls == 0 for t in warm.metrics.stages.values())
            assert _analysis_bytes(warm) == expected
        assert pool.payload["maps"] == 0  # nothing left to dispatch

    def test_one_pool_spawn_per_analyze(self, world200):
        with scoped_registry() as meters:
            DatasetBuilder(world200).analyze(
                DATASET, engine=CampaignEngine(ParallelExecutor(workers=2))
            )
        assert meters.snapshot()["executor.pool_spawns"]["value"] == 1

    def test_per_block_mode_is_rejected(self):
        with pytest.raises(ValueError, match="per-block dispatch was removed"):
            CampaignEngine(batched=False)
        CampaignEngine(batched=True)  # the one dispatch shape: accepted


class TestRangeDispatch:
    """Range jobs probe contiguous block ranges in lockstep, invisibly."""

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
        return _oracle(world, tasks)

    def _run(self, world, tasks, engine, observer_style="adaptive"):
        with scoped_registry() as meters:
            builder = DatasetBuilder(world, observer_style=observer_style)
            result = builder.analyze(DATASET, blocks=tasks, engine=engine)
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
        result, meters = self._run(world, tasks, CampaignEngine(SerialExecutor()))
        expected, expected_stages, expected_meters = per_block
        assert _analysis_bytes(result) == expected
        for name in ("probes.sent.trinocular", "probes.positive.trinocular"):
            assert meters[name]["value"] == expected_meters[name]["value"] > 0
        assert meters["prober.batch.lanes"]["count"] >= 1
        if budget_blocks is not None:
            assert meters["prober.batch.lanes"]["count"] >= 2
        # per-block stage records keep their shape: truth carries the
        # block's |E(b)| and simulate its probe count, and every
        # responsive block records each once
        assert result.metrics.stages["simulate"].calls > 0
        _assert_stages_match(result.metrics.stages, expected_stages)

    def test_pool_and_cached_shards_match_per_block(self, world, tasks, per_block, tmp_path):
        expected = per_block[0]
        pooled, _ = self._run(world, tasks, CampaignEngine(ParallelExecutor(workers=2)))
        assert _analysis_bytes(pooled) == expected
        split, _ = self._run(
            world, self.split(world, 8), CampaignEngine(ParallelExecutor(workers=2))
        )
        for cidr, blob in _analysis_bytes(split).items():
            assert blob == expected[cidr]
        for _ in range(2):  # cold, then warm from the cache
            engine = CampaignEngine(SerialExecutor(), cache=AnalysisCache(tmp_path), shards=2)
            sharded, _ = self._run(world, tasks, engine)
            assert _analysis_bytes(sharded) == expected
        assert engine.history[-1].cache["hits"] == len(tasks)

    @pytest.mark.parametrize("observer_style", ["adaptive", "bayesian"])
    def test_observer_styles_match_per_block(self, world, observer_style, tmp_path):
        blocks = list(world.blocks)[:20]
        expected = _oracle(world, blocks, observer_style)[0]
        engines = [
            CampaignEngine(SerialExecutor()),
            CampaignEngine(ParallelExecutor(workers=2)),
        ]
        engines += [  # cold, then warm from the cache
            CampaignEngine(SerialExecutor(), cache=AnalysisCache(tmp_path), shards=2)
            for _ in range(2)
        ]
        for engine in engines:
            result, _ = self._run(world, blocks, engine, observer_style)
            assert _analysis_bytes(result) == expected, engine.executor.name
        assert engines[-1].history[-1].cache["hits"] == len(blocks)

    def test_one_block_ranges(self, world, per_block):
        expected = per_block[0]
        live = [s for s in world.blocks if s.responsive_by_design][:2]
        for engine in (
            CampaignEngine(SerialExecutor()),
            CampaignEngine(ParallelExecutor(workers=2)),
        ):
            result, _ = self._run(world, live, engine)
            for cidr, blob in _analysis_bytes(result).items():
                assert blob == expected[cidr]

    def test_one_block_span_per_block(self, world, tasks):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            DatasetBuilder(world).analyze(
                DATASET, blocks=tasks, engine=CampaignEngine(SerialExecutor())
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
        from repro.obs.progress import ProgressEmitter, use_progress

        emitter = ProgressEmitter(tmp_path, interval_s=0.0)
        with use_progress(emitter):
            DatasetBuilder(world).analyze(
                DATASET,
                blocks=tasks,
                engine=CampaignEngine(ParallelExecutor(workers=2)),
            )
        done = [json.loads(line)["done"] for line in emitter.path.read_text().splitlines()]
        assert done == sorted(done) and done[-1] == len(tasks)
        assert max(done) == len(tasks)
