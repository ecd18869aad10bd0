"""Vectorized kernels against their scalar reference oracles.

Each performance-critical kernel keeps its original scalar
implementation as a ``*_reference`` oracle; these property-style tests
sweep randomized worlds and adversarial edge cases asserting the
vectorized path reproduces the oracle exactly (bit-for-bit for the
prober and reconstruction, exact alarms + allclose traces for CUSUM,
whose running-minimum identity reorders float additions).
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from repro.core.reconstruction import (
    full_scan_durations,
    full_scan_durations_reference,
)
from repro.net.events import Calendar
from repro.net.loss import BernoulliLoss, DiurnalCongestionLoss, NoLoss
from repro.net.observations import ObservationSeries
from repro.net.prober import ProbeLane, TrinocularObserver, probe_order
from repro.net.usage import (
    BlockTruth,
    NatGatewayUsage,
    ServerFarmUsage,
    SparseUsage,
    WorkplaceUsage,
    round_grid,
)
from repro.obs.metrics import scoped_registry
from repro.timeseries.detect import detect_cusum, detect_cusum_reference

EPOCH = datetime(2020, 1, 1)


def make_truth(usage, days=2.0, seed=0, tz_hours=0.0):
    cal = Calendar(epoch=EPOCH, tz_hours=tz_hours)
    return usage.generate(np.random.default_rng(seed), round_grid(days * 86_400.0), cal)


def assert_same_series(fast: ObservationSeries, slow: ObservationSeries) -> None:
    assert np.array_equal(fast.times, slow.times)
    assert np.array_equal(fast.addresses, slow.addresses)
    assert np.array_equal(fast.results, slow.results)


def both_observations(obs, truth, order, loss, seed, **kwargs):
    """Run the vectorized and reference probers on twin RNG streams."""
    rng_fast = np.random.default_rng(seed)
    rng_slow = np.random.default_rng(seed)
    fast = obs.observe(truth, order, loss, rng_fast, **kwargs)
    slow = obs.observe_reference(truth, order, loss, rng_slow, **kwargs)
    assert_same_series(fast, slow)
    # same number of uniforms consumed -> identical generator state after
    assert rng_fast.bit_generator.state == rng_slow.bit_generator.state
    return fast


class TestProberEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_worlds(self, seed):
        """Random usage model / loss / cursor / phase sweeps match exactly."""
        rng = np.random.default_rng(seed)
        usage = [
            WorkplaceUsage(n_desktops=int(rng.integers(5, 60)), n_servers=2),
            SparseUsage(n_addresses=int(rng.integers(8, 48))),
            NatGatewayUsage(n_routers=2, stale_addresses=int(rng.integers(0, 12))),
            ServerFarmUsage(n_servers=int(rng.integers(4, 40))),
        ][seed % 4]
        truth = make_truth(usage, days=float(rng.uniform(0.5, 3.0)), seed=seed)
        order = probe_order(truth.n_addresses, seed)
        loss = BernoulliLoss(p=float(rng.uniform(0.0, 0.7)))
        obs = TrinocularObserver(
            "e",
            phase_offset_s=float(rng.uniform(0.0, 660.0)),
            max_probes_per_round=int(rng.integers(1, 20)),
        )
        log = both_observations(
            obs,
            truth,
            order,
            loss,
            seed,
            start_cursor=int(rng.integers(truth.n_addresses)),
        )
        assert len(log) > 0

    def test_no_loss_fast_path(self):
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=1), days=1.5, seed=3)
        order = probe_order(truth.n_addresses, 3)
        both_observations(TrinocularObserver("e"), truth, order, NoLoss(), 3)

    def test_all_dark_block(self):
        """Every round exhausts its probe budget without a reply."""
        truth = make_truth(SparseUsage(n_addresses=24), days=1.0, seed=1)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 1)
        log = both_observations(
            TrinocularObserver("e", max_probes_per_round=7), truth, order, NoLoss(), 1
        )
        assert not log.results.any()

    def test_heavy_loss(self):
        """Near-total loss: most rounds burn their budget, many draws used."""
        truth = make_truth(ServerFarmUsage(n_servers=16), days=1.0, seed=2)
        order = probe_order(truth.n_addresses, 2)
        log = both_observations(
            TrinocularObserver("e"), truth, order, BernoulliLoss(p=0.99), 2
        )
        assert len(log) > 0 and log.results.mean() < 0.5

    def test_zero_duration(self):
        truth = make_truth(ServerFarmUsage(n_servers=8), days=1.0, seed=4)
        order = probe_order(truth.n_addresses, 4)
        log = both_observations(
            TrinocularObserver("e"), truth, order, NoLoss(), 4, duration_s=0.0
        )
        assert len(log) == 0

    def test_partial_final_round(self):
        """A window ending mid-round truncates that round's probes alike."""
        truth = make_truth(SparseUsage(n_addresses=20), days=1.0, seed=5)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 5)
        both_observations(
            TrinocularObserver("e", max_probes_per_round=15),
            truth,
            order,
            NoLoss(),
            5,
            duration_s=660.0 * 3 + 7.0,  # 4th round fits only 3 probe slots
        )

    def test_single_address_block(self):
        truth = make_truth(ServerFarmUsage(n_servers=1), days=0.5, seed=6)
        order = probe_order(truth.n_addresses, 6)
        both_observations(
            TrinocularObserver("e"), truth, order, BernoulliLoss(p=0.5), 6
        )

    def test_budget_larger_than_block(self):
        """max_probes = min(limit, m) when the block is tiny."""
        truth = make_truth(SparseUsage(n_addresses=4), days=0.5, seed=7)
        truth.active[:] = False
        order = probe_order(truth.n_addresses, 7)
        log = both_observations(
            TrinocularObserver("e", max_probes_per_round=15), truth, order, NoLoss(), 7
        )
        per_round = np.bincount(np.floor(log.times / 660.0).astype(int))
        assert per_round.max() == truth.n_addresses  # budget clamps to m

    def test_phase_straddles_column_boundary(self):
        """Probe windows crossing a truth-column edge pick the right column."""
        truth = make_truth(WorkplaceUsage(n_desktops=40, n_servers=2), days=1.0, seed=8)
        order = probe_order(truth.n_addresses, 8)
        # place round starts a few seconds before each column boundary so
        # the 3s-spaced candidate window crosses into the next column
        obs = TrinocularObserver("e", phase_offset_s=660.0 - 4.0)
        both_observations(obs, truth, order, BernoulliLoss(p=0.3), 8)

    def test_offset_window(self):
        truth = make_truth(WorkplaceUsage(n_desktops=25, n_servers=1), days=3.0, seed=9)
        order = probe_order(truth.n_addresses, 9)
        both_observations(
            TrinocularObserver("e"),
            truth,
            order,
            BernoulliLoss(p=0.2),
            9,
            start_s=86_400.0,
            duration_s=86_400.0,
            start_cursor=11,
        )


def batch_and_single(lanes):
    """Run lanes through ``observe_batch`` and one by one through ``observe``.

    ``lanes`` are ProbeLane templates whose ``rng`` field holds a seed;
    each side gets its own twin generators.  Asserts equal logs, equal
    probe-volume counters and equal generator states afterwards.
    """

    def twins():
        return [replace(lane, rng=np.random.default_rng(lane.rng)) for lane in lanes]

    fast_lanes, slow_lanes = twins(), twins()
    with scoped_registry() as fast_meters:
        fast = list(TrinocularObserver.observe_batch(fast_lanes))
    with scoped_registry() as slow_meters:
        slow = [
            lane.observer.observe(
                lane.truth,
                lane.order,
                lane.loss,
                lane.rng,
                start_s=lane.start_s,
                duration_s=lane.duration_s,
                start_cursor=lane.start_cursor,
            )
            for lane in slow_lanes
        ]
    assert len(fast) == len(slow) == len(lanes)
    for f, s, fl, sl in zip(fast, slow, fast_lanes, slow_lanes):
        assert_same_series(f, s)
        assert f.observer == s.observer
        assert fl.rng.bit_generator.state == sl.rng.bit_generator.state
    for name in ("probes.sent.trinocular", "probes.positive.trinocular"):
        assert fast_meters.counter(name).value == slow_meters.counter(name).value
    return fast


#: the four §3.4 sites at their catalog phases
SITES = [
    TrinocularObserver(name, phase_offset_s=phase)
    for name, phase in zip("ejnw", (137.0, 347.0, 449.0, 551.0))
]


def lanes_of(truth, observers, *, seed, loss=None, **kwargs):
    """One lane per observer over a shared truth and order."""
    order = probe_order(truth.n_addresses, seed)
    return [
        ProbeLane(obs, truth, order, loss, seed * 100 + i, **kwargs)
        for i, obs in enumerate(observers)
    ]


class TestLockstepProberEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_ranges(self, seed):
        """Mixed blocks, limits, phases, losses and windows match exactly."""
        rng = np.random.default_rng(100 + seed)
        lanes = []
        for b in range(int(rng.integers(2, 6))):
            usage = [
                WorkplaceUsage(n_desktops=int(rng.integers(1, 60)), n_servers=2),
                SparseUsage(n_addresses=int(rng.integers(2, 14))),  # m < K
                NatGatewayUsage(n_routers=2, stale_addresses=int(rng.integers(0, 12))),
                ServerFarmUsage(n_servers=int(rng.integers(1, 40))),
            ][int(rng.integers(4))]
            truth = make_truth(usage, days=float(rng.uniform(0.5, 3.0)), seed=seed * 7 + b)
            order = probe_order(truth.n_addresses, seed + b)
            for o in range(int(rng.integers(1, 5))):
                loss = [
                    NoLoss(),
                    BernoulliLoss(p=0.0),
                    BernoulliLoss(p=0.004),
                    BernoulliLoss(p=float(rng.uniform(0.05, 0.99))),
                    DiurnalCongestionLoss(),
                ][int(rng.integers(5))]
                start_s = float(rng.uniform(0.0, 20_000.0))
                duration_s = (
                    float(rng.uniform(0.0, truth.duration_s - start_s))
                    if rng.random() < 0.7
                    else None
                )
                obs = TrinocularObserver(
                    f"o{o}",
                    phase_offset_s=float(rng.uniform(0.0, 660.0)),
                    max_probes_per_round=int(rng.integers(1, 20)),
                )
                lanes.append(
                    ProbeLane(
                        obs,
                        truth,
                        order,
                        loss,
                        seed * 1000 + len(lanes),
                        start_s=start_s,
                        duration_s=duration_s,
                        start_cursor=int(rng.integers(0, 1000)),
                    )
                )
        batch_and_single(lanes)

    def test_limits_up_to_nineteen_and_tiny_blocks(self):
        """Per-round limits 1..19 on blocks both wider and narrower than K."""
        wide = make_truth(WorkplaceUsage(n_desktops=50, n_servers=2), days=1.0, seed=11)
        narrow = make_truth(SparseUsage(n_addresses=5), days=1.0, seed=12)
        lanes = []
        for truth, seed in ((wide, 11), (narrow, 12)):
            lanes += lanes_of(
                truth,
                [TrinocularObserver(f"k{k}", phase_offset_s=17.0 * k, max_probes_per_round=k)
                 for k in range(1, 20)],
                seed=seed,
                loss=BernoulliLoss(p=0.1),
            )
        batch_and_single(lanes)

    def test_column_crossing_phases(self):
        """Rounds starting just before a column edge continue in the next column."""
        truth = make_truth(WorkplaceUsage(n_desktops=40, n_servers=2), days=1.5, seed=13)
        observers = [
            TrinocularObserver(f"x{i}", phase_offset_s=660.0 - gap, max_probes_per_round=k)
            for i, (gap, k) in enumerate(((4.0, 15), (1.0, 19), (30.0, 15), (44.0, 19)))
        ]
        batch_and_single(lanes_of(truth, observers, seed=13, loss=BernoulliLoss(p=0.3)))
        batch_and_single(lanes_of(truth, observers, seed=14, loss=NoLoss()))

    @pytest.mark.parametrize("p", [0.0, 0.004, 0.99])
    def test_bernoulli_loss(self, p):
        truth = make_truth(ServerFarmUsage(n_servers=16), days=1.0, seed=15)
        batch_and_single(lanes_of(truth, SITES, seed=15, loss=BernoulliLoss(p=p)))

    def test_diurnal_congestion_loss(self):
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=2), days=2.0, seed=16)
        batch_and_single(
            lanes_of(truth, SITES, seed=16, loss=DiurnalCongestionLoss(base=0.05, peak=0.6))
        )
        # a zero off-peak rate draws nothing in quiet rounds; such lanes
        # take observe's own path and still match
        batch_and_single(
            lanes_of(truth, SITES, seed=17, loss=DiurnalCongestionLoss(base=0.0, peak=0.6))
        )

    def test_uneven_round_counts_and_zero_duration(self):
        truth = make_truth(WorkplaceUsage(n_desktops=25, n_servers=1), days=3.0, seed=18)
        order = probe_order(truth.n_addresses, 18)
        obs = TrinocularObserver("e", phase_offset_s=137.0)
        windows = [(0.0, None), (86_400.0, 86_400.0), (3_000.0, 660.0 * 3 + 7.0), (500.0, 0.0)]
        lanes = [
            ProbeLane(obs, truth, order, BernoulliLoss(p=0.2), 18 + i, start_s=a, duration_s=d)
            for i, (a, d) in enumerate(windows)
        ]
        logs = batch_and_single(lanes)
        assert len(logs[3]) == 0 and len(logs[0]) > len(logs[1]) > len(logs[2]) > 0

    def test_empty_block_and_empty_batch(self):
        """Lanes the kernel cannot run take observe's path, in lane order."""
        assert list(TrinocularObserver.observe_batch([])) == []
        empty = BlockTruth(
            addresses=np.array([], dtype=np.int16),
            active=np.zeros((0, 100), dtype=bool),
            col_times=np.arange(100) * 660.0,
        )
        truth = make_truth(SparseUsage(n_addresses=20), days=1.0, seed=22)
        lanes = lanes_of(truth, [TrinocularObserver("e")], seed=22, loss=BernoulliLoss(p=0.1))
        lanes.insert(0, ProbeLane(TrinocularObserver("e"), empty, np.arange(0), None, 5))
        logs = batch_and_single(lanes)
        assert len(logs[0]) == 0 and len(logs[1]) > 0

    def test_lanes_share_one_truth(self):
        """A block's observers share one table; interleaved blocks still match."""
        a = make_truth(WorkplaceUsage(n_desktops=35, n_servers=2), days=1.0, seed=19)
        b = make_truth(ServerFarmUsage(n_servers=12), days=1.0, seed=20)
        lanes_a = lanes_of(a, SITES, seed=19, loss=BernoulliLoss(p=0.004))
        lanes_b = lanes_of(b, SITES, seed=20, loss=BernoulliLoss(p=0.004))
        batch_and_single(lanes_a + lanes_b)
        batch_and_single([x for pair in zip(lanes_a, lanes_b) for x in pair])

    def test_lane_draws_past_one_chunk(self):
        """Every probe of an always-on block draws: > 4096 draws refill the stream."""
        truth = make_truth(ServerFarmUsage(n_servers=16), days=4.0, seed=21)
        truth.active[:] = True
        observers = [TrinocularObserver("e", phase_offset_s=137.0), TrinocularObserver("w")]
        logs = batch_and_single(lanes_of(truth, observers, seed=21, loss=BernoulliLoss(p=0.99)))
        assert min(len(log) for log in logs) > 4096


class TestFullScanEquivalence:
    @staticmethod
    def random_series(rng, n, pool):
        times = np.sort(rng.uniform(0.0, 1e5, size=n))
        addrs = rng.choice(pool, size=n).astype(np.int16)
        return ObservationSeries(
            times=times, addresses=addrs, results=rng.random(n) < 0.5
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.arange(1, int(rng.integers(2, 30)), dtype=np.int16)
        obs = self.random_series(rng, int(rng.integers(1, 400)), pool)
        eb = rng.choice(pool, size=int(rng.integers(1, pool.size + 1)), replace=False)
        max_scans = None if seed % 2 else int(rng.integers(1, 5))
        fast = full_scan_durations(obs, eb, max_scans=max_scans)
        slow = full_scan_durations_reference(obs, eb, max_scans=max_scans)
        assert np.array_equal(fast, slow)

    def test_empty_series(self):
        obs = ObservationSeries(
            times=np.array([]), addresses=np.array([], dtype=np.int16),
            results=np.array([], dtype=bool),
        )
        eb = np.array([1, 2], dtype=np.int16)
        assert full_scan_durations(obs, eb).size == 0
        assert full_scan_durations_reference(obs, eb).size == 0

    def test_address_never_probed(self):
        obs = ObservationSeries(
            times=np.array([0.0, 1.0]),
            addresses=np.array([1, 1], dtype=np.int16),
            results=np.array([True, True]),
        )
        eb = np.array([1, 2], dtype=np.int16)
        assert full_scan_durations(obs, eb).size == 0
        assert full_scan_durations_reference(obs, eb).size == 0

    def test_simulated_block(self):
        """End-to-end: a real probe log instead of synthetic indices."""
        truth = make_truth(WorkplaceUsage(n_desktops=30, n_servers=2), days=4.0, seed=10)
        order = probe_order(truth.n_addresses, 10)
        log = TrinocularObserver("e").observe(
            truth, order, NoLoss(), np.random.default_rng(10)
        )
        fast = full_scan_durations(log, truth.addresses)
        slow = full_scan_durations_reference(log, truth.addresses)
        assert np.array_equal(fast, slow)
        assert fast.size > 0


class TestCusumEquivalence:
    @staticmethod
    def check(x, threshold=1.0, drift=0.001, estimate_ending=True):
        fast = detect_cusum(x, threshold, drift, estimate_ending=estimate_ending)
        slow = detect_cusum_reference(
            x, threshold, drift, estimate_ending=estimate_ending
        )
        assert fast.alarms == slow.alarms  # exact: indices, directions, amplitudes
        np.testing.assert_allclose(fast.gp, slow.gp, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(fast.gn, slow.gn, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walks(self, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.normal(0.0, 0.4, size=int(rng.integers(10, 2000))))
        self.check(
            x,
            threshold=float(rng.uniform(0.3, 3.0)),
            drift=float(rng.uniform(0.0, 0.05)),
            estimate_ending=bool(seed % 2),
        )

    def test_constant_series(self):
        self.check(np.full(500, 3.7))

    def test_step_change(self):
        self.check(np.concatenate([np.zeros(100), np.ones(100) * 5.0]))

    def test_empty_and_tiny(self):
        self.check(np.array([]))
        self.check(np.array([1.0]))

    def test_nan_forward_fill(self):
        x = np.concatenate([np.zeros(50), np.full(10, np.nan), np.ones(50) * 4.0])
        self.check(x)

    def test_all_nan(self):
        self.check(np.full(40, np.nan))


class TestReplyRateByAddress:
    def test_matches_naive_on_large_series(self):
        """Regression: bincount path equals the per-address mean exactly."""
        rng = np.random.default_rng(42)
        n = 200_000
        addrs = rng.integers(1, 255, size=n).astype(np.int16)
        obs = ObservationSeries(
            times=np.sort(rng.uniform(0.0, 1e6, size=n)),
            addresses=addrs,
            results=rng.random(n) < 0.3,
        )
        rates = obs.reply_rate_by_address()
        for a in np.unique(addrs)[:32]:
            mask = obs.addresses == a
            assert rates[int(a)] == float(obs.results[mask].mean())
        assert set(rates) == set(int(a) for a in np.unique(addrs))


# ---------------------------------------------------------------------------
# batched columnar kernels vs their per-block scalar paths
# ---------------------------------------------------------------------------
# The batched analysis plane promises *bit*-identity: every ``*_batch``
# kernel routes the scalar call through the same 2-D core with B == 1,
# and the batched primitives are batch-size invariant, so each row of a
# batch must equal the scalar call on that row byte for byte.

import pickle

from repro.core.changes import ChangeDetector
from repro.core.diurnal import DiurnalTest
from repro.core.pipeline import BlockPipeline
from repro.core.reconstruction import Reconstruction
from repro.core.sensitivity import SensitivityClassifier
from repro.core.stages import StageContext
from repro.core.swing import SwingTest
from repro.core.trend import TrendExtractor
from repro.timeseries.detect import detect_cusum_batch, zscore_rows
from repro.timeseries.loess import loess_smooth, loess_smooth_batch
from repro.timeseries.series import (
    SECONDS_PER_HOUR,
    BlockMatrix,
    TimeSeries,
    group_block_matrices,
)
from repro.timeseries.spectrum import (
    diurnal_energy_ratio,
    diurnal_energy_ratio_batch,
    periodogram,
    periodogram_batch,
)
from repro.timeseries.stl import (
    _moving_average,
    _moving_average_reference,
    stl_decompose,
    stl_decompose_batch,
)


def _count_rows(rng, n_rows, n, period=24):
    """Plausible diurnal count rows: level + daily cycle + noise + NaN gaps."""
    t = np.arange(n)
    rows = np.empty((n_rows, n))
    for i in range(n_rows):
        level = rng.uniform(5.0, 60.0)
        amp = rng.uniform(0.0, 0.5 * level)
        rows[i] = level + amp * np.sin(2 * np.pi * (t + rng.integers(period)) / period)
        rows[i] += rng.normal(0.0, 0.05 * level, n)
        if rng.random() < 0.5:  # reconstruction gaps
            gaps = rng.choice(n, size=int(rng.integers(1, max(n // 20, 2))), replace=False)
            rows[i, gaps] = np.nan
    return rows


class TestLoessBatchEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_rows_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 300))
        x = np.arange(n, dtype=float) * float(rng.uniform(0.5, 4.0))
        values = rng.normal(0.0, 1.0, (int(rng.integers(1, 7)), n))
        q = int(rng.integers(3, n + 4))  # sometimes >= n: scalar fallback
        degree = int(rng.integers(0, 2))
        batch = loess_smooth_batch(x, values, q, degree=degree)
        for i, row in enumerate(values):
            np.testing.assert_array_equal(
                batch[i], loess_smooth(x, row, q, degree=degree)
            )

    def test_offset_xout_matches_scalar(self):
        """The cycle-subseries grid (xout = -1..m) uses the fast path."""
        rng = np.random.default_rng(1)
        m = 30
        x = np.arange(m, dtype=float)
        xout = np.arange(-1.0, m + 1.0)
        values = rng.normal(0.0, 1.0, (4, m))
        weights = rng.uniform(0.2, 1.0, (4, m))
        batch = loess_smooth_batch(x, values, 7, xout=xout, robustness_weights=weights)
        for i, row in enumerate(values):
            np.testing.assert_array_equal(
                batch[i],
                loess_smooth(x, row, 7, xout=xout, robustness_weights=weights[i]),
            )

    def test_single_row_is_scalar(self):
        rng = np.random.default_rng(2)
        x = np.arange(50, dtype=float)
        y = rng.normal(0.0, 1.0, 50)
        np.testing.assert_array_equal(
            loess_smooth_batch(x, y[None, :], 9)[0], loess_smooth(x, y, 9)
        )

    def test_nonuniform_grid_falls_back_per_row(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 100.0, 40))
        values = rng.normal(0.0, 1.0, (3, 40))
        batch = loess_smooth_batch(x, values, 7)
        for i, row in enumerate(values):
            np.testing.assert_array_equal(batch[i], loess_smooth(x, row, 7))


class TestMovingAverageEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_cumsum_matches_convolve_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 3000))
        window = int(rng.integers(2, min(n, 200)))
        x = rng.normal(50.0, 10.0, n)
        np.testing.assert_allclose(
            _moving_average(x, window),
            _moving_average_reference(x, window),
            rtol=1e-12,
            atol=1e-9,
        )

    def test_batched_rows_match_rowwise(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0.0, 1.0, (5, 400))
        batch = _moving_average(x, 25)
        for i, row in enumerate(x):
            np.testing.assert_array_equal(batch[i], _moving_average(row, 25))


class TestStlBatchEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"outer_iterations": 0},
            {"outer_iterations": 3},
            {"seasonal_smoother": 11},
            {"seasonal_smoother": 11, "outer_iterations": 2},
        ],
    )
    def test_rows_match_scalar(self, kwargs):
        rng = np.random.default_rng(4)
        n = 24 * 21
        t = np.arange(n)
        values = np.stack(
            [
                10 + a * np.sin(2 * np.pi * t / 24) + rng.normal(0, 0.4, n)
                for a in (0.5, 3.0, 8.0)
            ]
        )
        batch = stl_decompose_batch(values, 24, **kwargs)
        for i, row in enumerate(values):
            ref = stl_decompose(row, 24, **kwargs)
            np.testing.assert_array_equal(batch.trend[i], ref.trend)
            np.testing.assert_array_equal(batch.seasonal[i], ref.seasonal)
            np.testing.assert_array_equal(batch.residual[i], ref.residual)

    def test_batch_width_invariance(self):
        """Bit-identity must not depend on how many rows share the batch."""
        rng = np.random.default_rng(5)
        n = 24 * 14
        values = rng.normal(20.0, 2.0, (6, n)) + np.sin(
            2 * np.pi * np.arange(n) / 24
        )
        wide = stl_decompose_batch(values, 24)
        narrow = stl_decompose_batch(values[2:4], 24)
        np.testing.assert_array_equal(wide.trend[2:4], narrow.trend)

    def test_empty_batch(self):
        out = stl_decompose_batch(np.empty((0, 24 * 3)), 24)
        assert out.trend.shape == (0, 24 * 3)


class TestPeriodogramBatchEquivalence:
    def test_rows_match_scalar_including_dead_rows(self):
        rng = np.random.default_rng(6)
        n = 24 * 10
        values = _count_rows(rng, 5, n)
        values[2] = np.nan  # dead row
        values[3] = 7.0  # constant row
        batch = periodogram_batch(values, SECONDS_PER_HOUR)
        for i, row in enumerate(values):
            ref = periodogram(row, SECONDS_PER_HOUR)
            np.testing.assert_array_equal(batch[i].frequencies, ref.frequencies)
            np.testing.assert_array_equal(batch[i].power, ref.power)

    def test_single_row(self):
        rng = np.random.default_rng(7)
        row = _count_rows(rng, 1, 24 * 5)
        batch = periodogram_batch(row, SECONDS_PER_HOUR)
        ref = periodogram(row[0], SECONDS_PER_HOUR)
        np.testing.assert_array_equal(batch[0].power, ref.power)

    def test_diurnal_ratio_rows_match_scalar(self):
        rng = np.random.default_rng(8)
        values = _count_rows(rng, 4, 24 * 12)
        batch = diurnal_energy_ratio_batch(values, SECONDS_PER_HOUR)
        for i, row in enumerate(values):
            assert batch[i] == diurnal_energy_ratio(row, SECONDS_PER_HOUR)


class TestCusumBatchEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_scalar(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 1200))
        values = np.cumsum(rng.normal(0.0, 0.4, (4, n)), axis=1)
        values[1, :7] = np.nan  # leading NaNs
        values[2, n // 2 : n // 2 + 9] = np.nan  # interior gap
        values[3] = np.nan  # all-NaN row
        batch = detect_cusum_batch(values, 1.0, 0.0055)
        for i, row in enumerate(values):
            ref = detect_cusum(row, 1.0, 0.0055)
            assert batch[i].alarms == ref.alarms
            np.testing.assert_array_equal(batch[i].gp, ref.gp)
            np.testing.assert_array_equal(batch[i].gn, ref.gn)


class TestZscoreRowsEquivalence:
    def test_matches_trendresult_normalize(self):
        rng = np.random.default_rng(11)
        n = 24 * 14
        times = np.arange(n) * SECONDS_PER_HOUR
        values = _count_rows(rng, 5, n)
        values = np.where(np.isnan(values), 0.0, values)  # trends are finite
        batch = zscore_rows(values, min_abs_scale=0.5, min_rel_scale=0.02)
        from repro.core.trend import TrendResult

        for i, row in enumerate(values):
            series = TimeSeries(times, row)
            result = TrendResult(
                hourly=series,
                trend=series,
                seasonal=series,
                residual=series,
                period=24,
                method="stl",
            )
            np.testing.assert_array_equal(batch[i], result.normalize().values)

    def test_nan_rows_pass_through(self):
        values = np.array([[np.nan, np.nan, np.nan], [1.0, 2.0, 3.0]])
        out = zscore_rows(values)
        np.testing.assert_array_equal(out[0], values[0])


class TestBlockMatrixEquivalence:
    def _series(self, rng, n, step=660.0, t0=0.0):
        times = t0 + np.arange(n) * step
        return TimeSeries(times, _count_rows(rng, 1, n)[0])

    def test_resample_interpolate_swings_match_rowwise(self):
        rng = np.random.default_rng(12)
        n = 131 * 24  # ~1.5 days of 11-minute rounds
        series = [self._series(rng, n) for _ in range(5)]
        matrix = BlockMatrix.from_series(series)
        hourly = matrix.resample_mean(SECONDS_PER_HOUR).interpolate_nan()
        for i, s in enumerate(series):
            ref = s.resample_mean(SECONDS_PER_HOUR).interpolate_nan()
            np.testing.assert_array_equal(hourly.times, ref.times)
            np.testing.assert_array_equal(hourly.values[i], ref.values)
        day_idx, swings = matrix.daily_swings()
        for i, s in enumerate(series):
            ref_days, ref_swings = s.daily_swing()
            present = ~np.isnan(swings[i])
            np.testing.assert_array_equal(day_idx[present], ref_days)
            np.testing.assert_array_equal(swings[i][present], ref_swings)

    def test_group_block_matrices_partitions_by_grid(self):
        rng = np.random.default_rng(13)
        a = [self._series(rng, 100) for _ in range(3)]
        b = [self._series(rng, 80, t0=660.0) for _ in range(2)]
        ragged = [a[0], b[0], a[1], b[1], a[2]]
        groups = group_block_matrices(ragged)
        assert [idx for idx, _ in groups] == [(0, 2, 4), (1, 3)]
        for indices, matrix in groups:
            for pos, i in enumerate(indices):
                np.testing.assert_array_equal(matrix.values[pos], ragged[i].values)


class TestVerdictBatchEquivalence:
    """The classifier's two verdict kernels, each against its scalar twin."""

    def _series(self, rng, n, step=660.0):
        times = np.arange(n) * step
        return TimeSeries(times, _count_rows(rng, 1, n)[0])

    def test_diurnal_evaluate_batch_matches_scalar(self):
        rng = np.random.default_rng(16)
        long_n = 131 * 24 * 7
        short_n = 131 * 24 * 2  # below min_days: the unjudgeable early-out
        series = [self._series(rng, long_n) for _ in range(4)]
        series.append(self._series(rng, short_n))
        diurnal = DiurnalTest()
        for group in (series[:4], series[4:]):
            batch = diurnal.evaluate_batch(BlockMatrix.from_series(group))
            for verdict, s in zip(batch, group):
                assert pickle.dumps(verdict) == pickle.dumps(diurnal.evaluate(s))

    def test_swing_evaluate_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        n = 131 * 24 * 7
        series = [self._series(rng, n) for _ in range(5)]
        swing = SwingTest()
        batch = swing.evaluate_batch(BlockMatrix.from_series(series))
        for profile, s in zip(batch, series):
            assert pickle.dumps(profile) == pickle.dumps(swing.evaluate(s))


class TestAnalysisTailBatchEquivalence:
    def _recon(self, rng, n):
        series = TimeSeries(np.arange(n) * 660.0, _count_rows(rng, 1, n)[0])
        return Reconstruction(
            counts=series,
            complete_time_s=660.0,
            eb_size=64,
            observed_addresses=np.arange(64, dtype=np.int16),
        )

    def test_classify_trend_detect_batch_match_scalar(self):
        rng = np.random.default_rng(14)
        n = 131 * 24 * 14  # two weeks of 11-minute rounds
        recons = [self._recon(rng, n) for _ in range(4)]
        matrix = BlockMatrix.from_series([r.counts for r in recons])

        classifier = SensitivityClassifier()
        batch_cls = classifier.classify_batch(matrix)
        for i, r in enumerate(recons):
            assert pickle.dumps(batch_cls[i]) == pickle.dumps(
                classifier.classify(r.counts)
            )

        extractor = TrendExtractor()
        batch_trends = extractor.extract_batch(matrix)
        detector = ChangeDetector()
        live = [i for i, t in enumerate(batch_trends) if t is not None]
        assert live  # the synthetic rows are long enough to decompose
        for i in live:
            ref = extractor.extract(recons[i].counts)
            assert pickle.dumps(batch_trends[i]) == pickle.dumps(ref)
            batch_report = detector.detect_batch(
                BlockMatrix(
                    batch_trends[i].trend.times,
                    zscore_rows(batch_trends[i].trend.values[None, :],
                                min_abs_scale=0.5, min_rel_scale=0.02),
                )
            )[0]
            assert pickle.dumps(batch_report) == pickle.dumps(
                detector.detect(ref.normalized_trend)
            )

    def test_analyze_tail_batch_matches_per_block_over_ragged_grids(self):
        rng = np.random.default_rng(15)
        long_n = 131 * 24 * 14
        short_n = 131 * 24 * 7
        recons = [
            self._recon(rng, long_n),
            self._recon(rng, short_n),
            self._recon(rng, long_n),
            self._recon(rng, short_n),
            self._recon(rng, long_n),
        ]
        pipeline = BlockPipeline(detect_on_all=True)
        batch_ctxs = [StageContext() for _ in recons]
        batch = pipeline.analyze_tail_batch(recons, batch_ctxs)
        for i, recon in enumerate(recons):
            ctx = StageContext()
            ref = pipeline.analyze_tail(recon, ctx)
            assert pickle.dumps(batch[i]) == pickle.dumps(ref), f"block {i}"
            # same stage names, sizes, and skip reasons (wall times differ)
            assert [
                (r.name, r.n_in, r.n_out, r.skipped) for r in batch_ctxs[i].records
            ] == [(r.name, r.n_in, r.n_out, r.skipped) for r in ctx.records]
